"""Network cost model suite.

Pins the three contracts of :mod:`repro.netsim` and the meter-stack seam
it rides on:

1. **Purely observational**: attaching a transport cost model changes no
   answer, no round, no word, no per-phase meter entry -- across
   workloads, topologies, coded fault layers and threaded executors.  The
   charged bill is the closed form; the model only prices it.
2. **The physics is right**: per-topology link loads (full-bisection
   pairs, ring chord chains, fat-tree ECMP uplinks) match hand-computed
   values, and at equal rounds the alpha-beta makespan respects the
   bisection ordering ``full <= fat-tree <= ring``.
3. **One pricing rule per exchange kind**: a routed exchange is priced as
   Lenzen's two balanced relay legs, the same closed form its round bill
   comes from; direct sends and broadcasts are priced as one leg of their
   literal traffic, and a charge without traffic as a uniform all-to-all.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algebra.semirings import MIN_PLUS
from repro.clique.accounting import CostMeter, MeterStack, PhaseCost
from repro.clique.model import CongestedClique
from repro.cli import main
from repro.constants import INF
from repro.engine.session import EngineSession, make_clique
from repro.faults import FaultPlan
from repro.graphs import random_weighted_digraph
from repro.netsim import (
    CostModelSpec,
    FatTree,
    FullBisection,
    Ring,
    TransportMeter,
    parse_topology,
)
from repro.runtime import pad_matrix

TOPOLOGIES = ["full", "fat-tree:2", "ring"]


def _closure_run(n, *, cost_model=None, threads=1, faults=0):
    """One min-plus closure; returns (clique, value[:n, :n])."""
    kwargs = {}
    if faults:
        kwargs.update(
            fault_plan=FaultPlan(t=faults, seed=0, kind="byzantine"),
            fault_tolerance=faults,
        )
    clique = make_clique(
        n, "semiring", threads=threads,
        cost_model=cost_model, **kwargs,
    )
    graph = random_weighted_digraph(n, 0.35, 9, seed=0)
    session = EngineSession(clique, "semiring", MIN_PLUS)
    padded = pad_matrix(graph.weight_matrix(), clique.n, fill=INF)
    np.fill_diagonal(padded, 0)
    return clique, session.closure(padded)[:n, :n]


class TestTopologies:
    def test_full_bisection_pair_loads(self):
        topo = FullBisection(4)
        # Two words 0->1, one word 2->3: busiest link carries 2.
        stats = topo.leg_stats(
            np.array([0, 0, 2]), np.array([1, 1, 3]), np.array([1, 1, 1])
        )
        assert stats.max_link_words == 2
        assert stats.active_links == 2
        assert stats.mean_link_words == pytest.approx(1.5)
        assert stats.max_hops == 1

    def test_full_bisection_ignores_self_and_zero(self):
        topo = FullBisection(4)
        stats = topo.leg_stats(
            np.array([0, 1, 2]), np.array([0, 1, 3]), np.array([5, 5, 0])
        )
        assert stats.max_link_words == 0
        assert stats.active_links == 0
        assert stats.max_hops == 0

    def test_ring_chain_loads_hand_computed(self):
        # n=6, one word 0->2 clockwise: links 0->1 and 1->2 each carry it.
        topo = Ring(6)
        stats = topo.leg_stats(np.array([0]), np.array([2]), np.array([3]))
        assert stats.max_link_words == 3
        assert stats.active_links == 2  # two clockwise hops
        assert stats.max_hops == 2

    def test_ring_takes_shorter_direction(self):
        # 0 -> 5 on n=6 is one counter-clockwise hop, not five clockwise.
        topo = Ring(6)
        stats = topo.leg_stats(np.array([0]), np.array([5]), np.array([1]))
        assert stats.max_hops == 1
        assert stats.active_links == 1

    def test_ring_overlapping_chords_sum(self):
        # 0->2 and 1->3 clockwise share link 1->2: it carries both words.
        topo = Ring(6)
        stats = topo.leg_stats(
            np.array([0, 1]), np.array([2, 3]), np.array([1, 1])
        )
        assert stats.max_link_words == 2

    def test_ring_wraparound_chain(self):
        # 5 -> 1 on n=6 goes clockwise through 0: links 5->0 and 0->1.
        topo = Ring(6)
        stats = topo.leg_stats(np.array([5]), np.array([1]), np.array([2]))
        assert stats.max_link_words == 2
        assert stats.active_links == 2
        assert stats.max_hops == 2

    def test_fat_tree_intra_pod_stays_off_uplinks(self):
        # k=2 pods over n=8: hosts 0-3 in pod 0.  Intra-pod traffic loads
        # host links only; 2 hops through the pod switch.
        topo = FatTree(8, k=2)
        stats = topo.leg_stats(np.array([0]), np.array([1]), np.array([4]))
        assert stats.max_hops == 2
        assert stats.max_link_words == 4

    def test_fat_tree_uplinks_split_inter_pod_load(self):
        # 8 hosts, 2 pods, hosts_per_pod=4 -> 2 uplinks per pod (2:1
        # oversubscription).  8 inter-pod words from pod 0 spread over the
        # 2 uplinks: 4 words per uplink, above the per-host-link 8.
        topo = FatTree(8, k=2)
        assert topo.hosts_per_pod == 4
        stats = topo.leg_stats(np.array([0]), np.array([4]), np.array([8]))
        assert stats.max_hops == 4
        assert stats.max_link_words == 8  # host 0's access link dominates

    def test_fat_tree_uplink_becomes_bottleneck(self):
        # Four sources in pod 0, one word each to pod 1: each host link
        # carries 1, but all four words share pod 0's two uplinks -> 2.
        topo = FatTree(8, k=2)
        stats = topo.leg_stats(
            np.arange(4), np.array([4, 5, 6, 7]), np.ones(4, dtype=np.int64)
        )
        assert stats.max_link_words == 2

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("full", "full"),
            ("full-bisection", "full"),
            ("ring", "ring"),
            ("fat-tree", "fat-tree:4"),
            ("fat-tree:2", "fat-tree:2"),
        ],
    )
    def test_parse_topology(self, spec, expected):
        assert parse_topology(spec, 16).name == expected

    @pytest.mark.parametrize("spec", ["torus", "fat-tree:0", "fat-tree:x", ""])
    def test_parse_topology_rejects_garbage(self, spec):
        with pytest.raises(ValueError):
            parse_topology(spec, 16)

    def test_topologies_need_two_nodes(self):
        with pytest.raises(ValueError):
            Ring(1)


class TestMeterStack:
    def test_fan_out_in_order(self):
        a, b = CostMeter(), CostMeter()
        stack = MeterStack(a, b)
        stack.charge(PhaseCost("p", "route", 3, 30, 3, 10, 10))
        assert a.rounds == b.rounds == 3
        assert a.phases == b.phases

    def test_rejects_non_observer(self):
        with pytest.raises(TypeError):
            MeterStack(CostMeter()).add_observer(object())

    def test_remove_is_identity_matched(self):
        a, b = CostMeter(), CostMeter()
        stack = MeterStack(a)
        stack.add_observer(b)
        stack.remove_observer(b)
        assert stack.observers == (a,)
        with pytest.raises(ValueError):
            stack.remove_observer(b)

    def test_wants_traffic_tracks_live_observers(self):
        stack = MeterStack(CostMeter())
        assert not stack.wants_traffic
        transport = TransportMeter(Ring(4))
        stack.add_observer(transport)
        assert stack.wants_traffic
        stack.remove_observer(transport)
        assert not stack.wants_traffic


class TestSerialisation:
    def test_phase_cost_round_trip(self):
        cost = PhaseCost("p/x", "route", 4, 40, payloads=8,
                         max_send_words=10, max_recv_words=12)
        assert PhaseCost.from_dict(cost.to_dict()) == cost

    def test_cost_meter_round_trip(self):
        meter = CostMeter()
        meter.charge(PhaseCost("a", "route", 3, 30, payloads=2,
                               max_send_words=5, max_recv_words=6))
        meter.charge(PhaseCost("b", "broadcast", 1, 16, 4, 4, 4))
        clone = CostMeter.from_dict(meter.to_dict())
        assert clone.phases == meter.phases
        assert clone.rounds == meter.rounds
        assert clone.words == meter.words
        assert clone.to_dict() == meter.to_dict()

    def test_meter_dict_is_json_clean(self):
        clique, _ = _closure_run(8)
        payload = json.loads(json.dumps(clique.meter.to_dict()))
        assert payload["rounds"] == clique.meter.rounds
        assert CostMeter.from_dict(payload).phases == clique.meter.phases

    def test_cli_json_round_trips_meter(self, capsys):
        assert main(["matmul", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        meter = CostMeter.from_dict(payload["meter"])
        assert meter.rounds == payload["meter"]["rounds"] > 0
        assert "completion" not in payload

    def test_cli_json_includes_completion_and_faults(self, capsys):
        assert main([
            "matmul", "16", "--json", "--topology", "ring", "--faults", "1",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completion"]["topology"] == "ring"
        assert payload["completion"]["makespan_us"] > 0
        assert "scheme" not in payload["faults"]
        abstract = CostMeter.from_dict(payload["faults"]["abstract_meter"])
        assert abstract.rounds < payload["meter"]["rounds"]
        assert 1 < payload["faults"]["overhead_factor"] < 3


class TestObservational:
    """The tentpole invariant: the cost model never changes the bill."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_closure_bit_identical(self, topology):
        base_clique, base_value = _closure_run(16)
        clique, value = _closure_run(16, cost_model=CostModelSpec(topology))
        assert np.array_equal(value, base_value)
        assert clique.meter.to_dict() == base_clique.meter.to_dict()
        assert clique.transport.makespan_us > 0

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("faults", [1, 2])
    def test_faulted_closure_bit_identical(self, faults, topology):
        base_clique, base_value = _closure_run(16, faults=faults)
        clique, value = _closure_run(
            16, faults=faults, cost_model=CostModelSpec(topology)
        )
        assert np.array_equal(value, base_value)
        assert clique.meter.to_dict() == base_clique.meter.to_dict()
        assert (clique.abstract_meter.to_dict()
                == base_clique.abstract_meter.to_dict())

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_threaded_closure_bit_identical(self, topology):
        base_clique, base_value = _closure_run(16, threads=2)
        clique, value = _closure_run(
            16, threads=2, cost_model=CostModelSpec(topology)
        )
        assert np.array_equal(value, base_value)
        assert clique.meter.to_dict() == base_clique.meter.to_dict()

    def test_matmul_session_bit_identical(self):
        rng = np.random.default_rng(7)
        s = rng.integers(-9, 10, (16, 16), dtype=np.int64)
        t = rng.integers(-9, 10, (16, 16), dtype=np.int64)

        def run(cost_model):
            clique = make_clique(16, "bilinear", cost_model=cost_model)
            session = EngineSession(clique, "bilinear")
            value = session.multiply(
                pad_matrix(s, clique.n), pad_matrix(t, clique.n)
            )
            return clique, value

        base_clique, base_value = run(None)
        clique, value = run(CostModelSpec("ring"))
        assert np.array_equal(value, base_value)
        assert np.array_equal(value[:16, :16], s @ t)
        assert clique.meter.to_dict() == base_clique.meter.to_dict()

    def test_makespan_ordering_full_fat_tree_ring(self):
        makespans = {}
        for topology in TOPOLOGIES:
            clique, _ = _closure_run(16, cost_model=CostModelSpec(topology))
            makespans[topology] = clique.transport.makespan_us
        assert (makespans["full"] <= makespans["fat-tree:2"]
                <= makespans["ring"])

    def test_session_cost_model_and_transport_property(self):
        session = EngineSession(
            make_clique(16, "semiring"), "semiring", MIN_PLUS,
            cost_model=CostModelSpec("ring"),
        )
        assert session.transport is not None
        assert session.transport.topology.name == "ring"
        bare = EngineSession(make_clique(16, "semiring"), "semiring", MIN_PLUS)
        assert bare.transport is None


class TestTransportMeter:
    def test_bind_rejects_size_mismatch(self):
        meter = TransportMeter(Ring(8))
        with pytest.raises(ValueError):
            meter.bind(16, 16)

    def test_rejects_bad_link_parameters(self):
        with pytest.raises(ValueError):
            TransportMeter(Ring(4), link_gbps=0)
        with pytest.raises(ValueError):
            TransportMeter(Ring(4), link_latency_us=-1)

    def test_uniform_fallback_prices_trafficless_charges(self):
        meter = TransportMeter(FullBisection(4), word_bits=64)
        meter.observe(PhaseCost("p", "route", 2, 24, 4, 8, 8))
        report = meter.report()
        assert len(report.phases) == 1
        assert report.phases[0].kind == "uniform"
        # 24 words over 12 ordered pairs -> 2 words per link.
        assert report.phases[0].max_link_words == pytest.approx(2.0)

    def test_reset_clears_phases(self):
        meter = TransportMeter(Ring(4))
        meter.observe(PhaseCost("p", "route", 1, 6, 2, 3, 3))
        assert meter.makespan_us > 0
        meter.reset()
        assert meter.makespan_us == 0
        assert meter.report().phases == []

    def test_report_totals_are_sums(self):
        clique, _ = _closure_run(8, cost_model=CostModelSpec("ring"))
        report = clique.transport.report()
        assert report.makespan_us == pytest.approx(
            sum(p.makespan_us for p in report.phases)
        )
        assert 0 <= report.queueing_share <= 1
        assert 0 <= report.max_link_utilisation <= 1
        # The dict and the table agree with the report.
        payload = report.to_dict()
        assert payload["topology"] == "ring"
        assert payload["makespan_us"] == pytest.approx(report.makespan_us)
        assert "TOTAL" in report.table()

    def test_bandwidth_scales_serialization_only(self):
        fast, _ = _closure_run(
            8, cost_model=CostModelSpec("ring", link_gbps=200.0)
        )
        slow, _ = _closure_run(
            8, cost_model=CostModelSpec("ring", link_gbps=100.0)
        )
        f, s = fast.transport.report(), slow.transport.report()
        assert f.serialization_us == pytest.approx(s.serialization_us / 2)
        assert f.latency_us == pytest.approx(s.latency_us)

    def test_each_exchange_kind_has_one_pricing_rule(self):
        clique = CongestedClique(4)
        meter = clique.attach_cost_model(TransportMeter(FullBisection(4)))
        # Node 0 ships three one-word pieces to node 1.
        dests = [np.array([1, 1, 1])] + [np.zeros(0, dtype=np.int64)] * 3
        blocks = [np.ones((3, 1), dtype=np.int64)] + [
            np.zeros((0, 1), dtype=np.int64)
        ] * 3
        clique.route_array(dests, blocks, phase="r")
        clique.send_array(dests, blocks, phase="s")
        clique.broadcast_rows(np.ones((4, 1), dtype=np.int64), phase="b")
        route, send, bcast = meter.completions
        assert (route.kind, route.legs) == ("route", 2)
        assert (send.kind, send.legs) == ("send", 1)
        assert (bcast.kind, bcast.legs) == ("broadcast", 1)
        # Relay legs spread node 0's 3 words evenly over the 4 relays: the
        # busiest link carries 3/4 of a word, against 3 words direct.
        assert route.max_link_words == pytest.approx(0.75)
        assert send.max_link_words == pytest.approx(3.0)
