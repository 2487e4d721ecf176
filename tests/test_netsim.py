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
   comes from, with its self-addressed pieces off the wire; direct sends
   and broadcasts are priced as one leg of their pair-word matrix, and a
   charge without traffic is refused.
4. **The matrix maps equal the per-piece ones**: every leg's link loads
   match the triple-based oracle in ``tests/netsim_reference.py`` on random
   pair matrices, and every priced phase of whole runs matches it.
"""

from __future__ import annotations

import json
import math

import netsim_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.semirings import MIN_PLUS
from repro.clique.accounting import CostMeter, MeterStack, PhaseCost, PhaseTraffic
from repro.clique.model import CongestedClique
from repro.cli import main
from repro.constants import INF
from repro.engine.session import EngineSession, make_clique
from repro.faults import FaultPlan
from repro.graphs import (
    gnp_random_graph,
    random_weighted_digraph,
    random_weighted_graph,
)
from repro.distances import apsp_exact
from repro.netsim import (
    CostModelSpec,
    FatTree,
    FullBisection,
    Ring,
    TransportMeter,
    parse_topology,
)
from repro.runtime import pad_matrix
from repro.spanning import minimum_spanning_forest
from repro.subgraphs import count_triangles

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


def _pairs(n, words):
    """An ``(n, n)`` pair-word matrix from ``{(src, dst): words}``."""
    pairs = np.zeros((n, n), dtype=np.int64)
    for (u, v), w in words.items():
        pairs[u, v] = w
    return pairs


class TestTopologies:
    def test_full_bisection_pair_loads(self):
        topo = FullBisection(4)
        # Two words 0->1, one word 2->3: busiest link carries 2.
        stats = topo.leg_stats(_pairs(4, {(0, 1): 2, (2, 3): 1}))
        assert stats.max_link_words == 2
        assert stats.active_links == 2
        assert stats.mean_link_words == pytest.approx(1.5)
        assert stats.max_hops == 1

    def test_full_bisection_ignores_self_and_zero(self):
        topo = FullBisection(4)
        stats = topo.leg_stats(_pairs(4, {(0, 0): 5, (1, 1): 5, (2, 3): 0}))
        assert stats.max_link_words == 0
        assert stats.active_links == 0
        assert stats.max_hops == 0

    def test_ring_chain_loads_hand_computed(self):
        # n=6, one word 0->2 clockwise: links 0->1 and 1->2 each carry it.
        topo = Ring(6)
        stats = topo.leg_stats(_pairs(6, {(0, 2): 3}))
        assert stats.max_link_words == 3
        assert stats.active_links == 2  # two clockwise hops
        assert stats.max_hops == 2

    def test_ring_takes_shorter_direction(self):
        # 0 -> 5 on n=6 is one counter-clockwise hop, not five clockwise.
        topo = Ring(6)
        stats = topo.leg_stats(_pairs(6, {(0, 5): 1}))
        assert stats.max_hops == 1
        assert stats.active_links == 1

    def test_ring_overlapping_chords_sum(self):
        # 0->2 and 1->3 clockwise share link 1->2: it carries both words.
        topo = Ring(6)
        stats = topo.leg_stats(_pairs(6, {(0, 2): 1, (1, 3): 1}))
        assert stats.max_link_words == 2

    def test_ring_wraparound_chain(self):
        # 5 -> 1 on n=6 goes clockwise through 0: links 5->0 and 0->1.
        topo = Ring(6)
        stats = topo.leg_stats(_pairs(6, {(5, 1): 2}))
        assert stats.max_link_words == 2
        assert stats.active_links == 2
        assert stats.max_hops == 2

    def test_fat_tree_intra_pod_stays_off_uplinks(self):
        # k=2 pods over n=8: hosts 0-3 in pod 0.  Intra-pod traffic loads
        # host links only; 2 hops through the pod switch.
        topo = FatTree(8, k=2)
        stats = topo.leg_stats(_pairs(8, {(0, 1): 4}))
        assert stats.max_hops == 2
        assert stats.max_link_words == 4

    def test_fat_tree_uplinks_split_inter_pod_load(self):
        # 8 hosts, 2 pods, hosts_per_pod=4 -> 2 uplinks per pod (2:1
        # oversubscription).  8 inter-pod words from pod 0 spread over the
        # 2 uplinks: 4 words per uplink, above the per-host-link 8.
        topo = FatTree(8, k=2)
        assert topo.hosts_per_pod == 4
        stats = topo.leg_stats(_pairs(8, {(0, 4): 8}))
        assert stats.max_hops == 4
        assert stats.max_link_words == 8  # host 0's access link dominates

    def test_fat_tree_uplink_becomes_bottleneck(self):
        # Four sources in pod 0, one word each to pod 1: each host link
        # carries 1, but all four words share pod 0's two uplinks -> 2.
        topo = FatTree(8, k=2)
        stats = topo.leg_stats(_pairs(8, {(u, u + 4): 1 for u in range(4)}))
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

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"link_gbps": math.nan}, "link_gbps"),
            ({"link_gbps": math.inf}, "link_gbps"),
            ({"link_latency_us": math.nan}, "link_latency_us"),
            ({"link_latency_us": math.inf}, "link_latency_us"),
        ],
    )
    def test_rejects_non_finite_link_parameters(self, kwargs, name):
        """A NaN bandwidth priced an 8-node APSP at a NaN makespan, and an
        infinite one at zero serialization; each is refused by name."""
        with pytest.raises(ValueError, match=name):
            TransportMeter(Ring(8), **kwargs)
        with pytest.raises(ValueError, match=name):
            CostModelSpec("ring", **kwargs)

    @pytest.mark.parametrize("word_bits", [0, -8, 2.5])
    def test_rejects_bad_word_bits(self, word_bits):
        with pytest.raises(ValueError, match="word_bits"):
            TransportMeter(Ring(8), word_bits=word_bits)

    def test_trafficless_charge_is_refused(self):
        """A clique with a cost model builds traffic for every charge; a
        charge without it has nothing honest to price."""
        meter = TransportMeter(FullBisection(4), word_bits=64)
        with pytest.raises(ValueError, match="'p': charged without traffic"):
            meter.observe(PhaseCost("p", "route", 2, 24, 4, 8, 8))
        assert meter.completions == []

    def test_reset_clears_phases(self):
        meter = TransportMeter(Ring(4))
        meter.observe(
            PhaseCost("p", "route", 2, 6, 2, 3, 3),
            PhaseTraffic("route", _pairs(4, {(0, 1): 3, (2, 3): 3})),
        )
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

    def test_routed_self_pieces_stay_off_the_wire(self):
        """Each node routes 3 words to itself and 1 to its successor: the
        bill sees 1 word per node, and so must the price (the relay legs
        used to spread all 4 words, 1.0 per link)."""
        clique = CongestedClique(4)
        meter = clique.attach_cost_model(TransportMeter(FullBisection(4)))
        nodes = np.arange(4, dtype=np.int64)
        dests = np.stack([nodes, (nodes + 1) % 4], axis=1)
        clique.route_array(
            dests,
            np.zeros((4, 2, 1), dtype=np.int64),
            widths=np.tile([3, 1], (4, 1)),
            phase="r",
        )
        (cost,) = clique.meter.phases
        assert (cost.rounds, cost.max_send_words, cost.words) == (2, 1, 4)
        (route,) = meter.completions
        assert route.max_link_words == 0.25


# --------------------------------------------------------------------- #
# The pair-matrix link loads == the per-piece oracle
# --------------------------------------------------------------------- #


def _same_leg(got, want):
    assert got.active_links == want.active_links
    assert got.max_hops == want.max_hops
    assert got.max_link_words == pytest.approx(want.max_link_words, rel=1e-12)
    assert got.mean_link_words == pytest.approx(want.mean_link_words, rel=1e-12)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_matrix_link_loads_equal_the_per_piece_oracle(data):
    """Random pair matrices, sparse to dense, diagonal filled or not: the
    matrix map and the triple scatter load the same links."""
    n = data.draw(st.integers(2, 20) | st.sampled_from([27, 64]), label="n")
    spec = data.draw(
        st.sampled_from(["full", "ring", "fat-tree:2", "fat-tree:3", "fat-tree:4"]),
        label="topology",
    )
    density = data.draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]), label="density")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    words = rng.integers(1, 2**20, (n, n)) * (rng.random((n, n)) < density)
    topo = parse_topology(spec, n)
    # The matrix, and the relay legs' broadcast views of its row and
    # column sums.
    for pairs in (
        words,
        np.broadcast_to(words.sum(axis=1)[:, None], (n, n)),
        np.broadcast_to(words.sum(axis=0), (n, n)),
    ):
        want = netsim_reference.leg_stats(topo, *netsim_reference.triples(pairs))
        _same_leg(topo.leg_stats(pairs), want)


#: name -> (engine, n, job): the applications whose phases are compared.
PRICED_APPS = {
    "apsp-exact": (
        "semiring",
        16,
        lambda n, c: apsp_exact(
            random_weighted_digraph(n, 0.3, 9, seed=1),
            with_routing_tables=True,
            clique=c,
        ),
    ),
    "triangles": (
        "bilinear",
        16,
        lambda n, c: count_triangles(gnp_random_graph(n, 0.3, seed=1), clique=c),
    ),
    "mst": (
        "semiring",
        14,
        lambda n, c: minimum_spanning_forest(
            random_weighted_graph(n, 0.4, 20, seed=1), clique=c
        ),
    ),
}


@pytest.mark.parametrize("t", [0, 1, 2])
@pytest.mark.parametrize("topology", ["full", "ring", "fat-tree:2", "fat-tree:3"])
@pytest.mark.parametrize("app", list(PRICED_APPS))
def test_every_completion_equals_the_per_piece_pricing(app, topology, t):
    """Both meters ride one clique: every priced phase agrees to 1e-9
    relative (1e-12 us absolute, for a queueing term that is 0 on one side
    and round-off on the other)."""
    method, n, job = PRICED_APPS[app]
    kwargs = {}
    if t:
        kwargs = dict(
            fault_plan=FaultPlan(t=t, seed=1, kind="byzantine"),
            fault_tolerance=t,
        )
    clique = make_clique(n, method, cost_model=CostModelSpec(topology), **kwargs)
    oracle = clique.meters.add_observer(
        netsim_reference.TripleTransportMeter(
            parse_topology(topology, clique.n), word_bits=clique.word_bits
        )
    )
    job(n, clique)
    assert len(clique.transport.completions) == len(oracle.completions) > 0
    for got, want in zip(clique.transport.completions, oracle.completions):
        got, want = got.to_dict(), want.to_dict()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12), key
            else:
                assert got[key] == value, key
