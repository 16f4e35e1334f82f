"""NebulaMEOS — the paper's contribution.

The integration layer: the eight demonstration queries as composable
DataFrame transforms over the MEOS expression nodes of
`repro.nebula.expressions` (``queries``), and the Structured-Streaming
wrappers and the threshold-window detector (``streaming``). Table 1 is
measured by the repository's benchmark, ``perfbench``.
"""
