"""Tests for repro.nebula.topology — placement and uplink accounting."""
import pytest

from repro.core.queries import q1_alert_filtering, q7_unscheduled_stops
from repro.nebula.topology import (
    Node,
    Operator,
    Placement,
    Topology,
    place,
    transfer_bytes,
)
from repro.sncb.events import Q7_WINDOW_RECORD_B, event_size_for_query
from repro.sncb.zones import zones_df

CHAIN = [
    Operator("geofence_filter", selectivity=0.1),
    Operator("project", selectivity=1.0, out_event_size=40),
    Operator("cross_train_join", selectivity=1.0, pushable=False),
    Operator("sink_filter", selectivity=0.5),
]


class TestModel:
    def test_node_kind_validated(self):
        with pytest.raises(ValueError):
            Node("x", "fog")

    def test_operator_selectivity_validated(self):
        with pytest.raises(ValueError):
            Operator("f", selectivity=1.5)

    def test_topology_star(self):
        t = Topology(6)
        assert len(t.edges) == 6
        assert t.coordinator.kind == "coordinator"
        assert len(t.nodes) == 7

    def test_topology_needs_edges(self):
        with pytest.raises(ValueError):
            Topology(0)


class TestPlacement:
    def test_cloud_strategy_all_at_coordinator(self):
        pl = place(CHAIN, "cloud")
        assert all(v == "coordinator" for v in pl.assignment.values())

    def test_pushdown_prefix_at_edge(self):
        pl = place(CHAIN, "pushdown")
        assert pl.assignment["geofence_filter"] == "edge"
        assert pl.assignment["project"] == "edge"
        assert pl.assignment["cross_train_join"] == "coordinator"
        # Pushable ops after a coordinator op stay at the coordinator.
        assert pl.assignment["sink_filter"] == "coordinator"

    def test_all_pushable_chain_fully_at_edge(self):
        ops = [Operator("f1", 0.5), Operator("f2", 0.5)]
        pl = place(ops, "pushdown")
        assert all(v == "edge" for v in pl.assignment.values())

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            place(CHAIN, "fog")


class TestTransferBytes:
    def test_cloud_ships_raw(self):
        pl = place(CHAIN, "cloud")
        rep = transfer_bytes(CHAIN, pl, n_events=10_000, event_size=112)
        assert rep.bytes_shipped == rep.bytes_raw == 10_000 * 112
        assert rep.savings_frac == 0.0

    def test_pushdown_ships_filtered_projected(self):
        pl = place(CHAIN, "pushdown")
        rep = transfer_bytes(CHAIN, pl, n_events=10_000, event_size=112)
        # 10% survive the filter; events shrink to 40 B after project.
        assert rep.events_shipped == 1000
        assert rep.bytes_shipped == 1000 * 40
        assert rep.savings_frac == pytest.approx(1 - (1000 * 40) / (10_000 * 112))

    def test_savings_increase_with_selectivity(self):
        sel_strict = [Operator("f", 0.01)]
        sel_loose = [Operator("f", 0.9)]
        strict = transfer_bytes(
            sel_strict, place(sel_strict, "pushdown"), n_events=1000, event_size=100
        )
        loose = transfer_bytes(
            sel_loose, place(sel_loose, "pushdown"), n_events=1000, event_size=100
        )
        assert strict.savings_frac > loose.savings_frac

    def test_validates_inputs(self):
        pl = Placement()
        with pytest.raises(ValueError):
            transfer_bytes(CHAIN, pl, n_events=-1, event_size=100)
        with pytest.raises(ValueError):
            transfer_bytes(CHAIN, pl, n_events=1, event_size=0)

    def test_zero_events(self):
        pl = place(CHAIN, "pushdown")
        rep = transfer_bytes(CHAIN, pl, n_events=0, event_size=112)
        assert rep.bytes_shipped == 0
        assert rep.savings_frac == 0.0


class TestPushdownOnQueryOutputs:
    """Table 1b's claims, with selectivities from the real Q1/Q7 outputs."""

    @staticmethod
    def _uplinks(qid, op, n_events):
        size = event_size_for_query(qid)
        return tuple(
            transfer_bytes([op], place([op], s), n_events=n_events, event_size=size)
            for s in ("cloud", "pushdown")
        )

    def test_q1_ships_less_and_q7_saves_over_99_percent(self, geofence_sdf, stop_sdf):
        n1 = geofence_sdf.count()
        n_alerts = q1_alert_filtering(geofence_sdf, zones_df(["maintenance"])).count()
        cloud, push = self._uplinks("q1", Operator("q1_filter", n_alerts / n1), n1)
        assert 0 < push.bytes_shipped < cloud.bytes_shipped

        n7 = stop_sdf.count()
        n_windows = q7_unscheduled_stops(stop_sdf, zones_df(["station", "workshop"])).count()
        op7 = Operator("q7_windows", n_windows / n7, out_event_size=Q7_WINDOW_RECORD_B)
        _, push7 = self._uplinks("q7", op7, n7)
        assert n_windows > 0
        assert push7.savings_frac > 0.99
