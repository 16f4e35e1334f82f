"""NebulaMEOS — the paper's contribution.

The integration layer: the eight demonstration queries as composable
DataFrame transforms over the MEOS expression nodes of
`repro.nebula.expressions` (``queries``), Structured-Streaming wrappers and
the threshold-window detector (``streaming``), and the
ingestion-rate/throughput harness that reproduces the paper's Table 1
numbers (``throughput``).
"""
