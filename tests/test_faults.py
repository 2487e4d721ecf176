"""Fault injection + Reed-Solomon coded collectives suite.

Pins the three invariants of :mod:`repro.faults`:

1. **Pure interception**: with no plan installed (or ``t = 0``) the
   :class:`~repro.faults.FaultyClique` wrapper is bit-identical to the base
   model -- values, rounds, and per-phase meters.
2. **Silent corruption exists without the code**: an unprotected faulty
   clique really does deliver wrong words (the failure mode the coded
   layer closes), and a corrupted ``route_array_take`` still never writes
   outside its planned caller-buffer slice (arena no-escape).
3. **No silent wrong answers, ever**: under any in-budget plan a coded
   run equals the fault-free oracle edge-for-edge; beyond budget it equals
   the oracle or raises :class:`~repro.errors.FaultToleranceExceeded` --
   a seed sweep across every fault kind demonstrates zero silent
   corruptions.
"""

from __future__ import annotations

import numpy as np
import pytest
from closure_replay import full_schedule, stopped_phases

from repro.algebra.semirings import MIN_PLUS
from repro.clique.model import CongestedClique
from repro.clique.scheduling import disjoint_relays
from repro.engine.session import EngineSession, make_clique, open_session
from repro.errors import CliqueModelError, FaultToleranceExceeded
from repro.faults import (
    CodedClique,
    FaultKind,
    FaultPlan,
    FaultyClique,
    corrupt_pieces,
    decode_stripes,
    encode_stripes,
    flip_masks,
    stripe_plan,
)
from repro.graphs import apsp_reference, random_weighted_digraph
from repro.runtime import pad_matrix

ALL_KINDS = ["flip", "drop", "crash"]
ALL_KINDS_WITH_BYZANTINE = ALL_KINDS + ["byzantine"]


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(t=-1)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            FaultPlan(t=1, kind="gamma-ray")

    def test_rejects_bad_crash_window(self):
        with pytest.raises(ValueError, match="crash window"):
            FaultPlan(t=1, kind="crash", crash_window=0)

    def test_string_kind_coerced(self):
        assert FaultPlan(t=1, kind="drop").kind is FaultKind.DROP

    def test_corrupt_nodes_deterministic(self):
        plan = FaultPlan(t=2, seed=5)
        a = plan.corrupt_nodes(16, exchange_id=3)
        b = FaultPlan(t=2, seed=5).corrupt_nodes(16, exchange_id=3)
        assert np.array_equal(a, b)

    def test_corrupt_nodes_redrawn_per_exchange(self):
        plan = FaultPlan(t=3, seed=0)
        sets = [tuple(plan.corrupt_nodes(32, e)) for e in range(8)]
        assert len(set(sets)) > 1, "a mobile adversary must move"

    def test_budget_respected(self):
        plan = FaultPlan(t=2, seed=1)
        for e in range(10):
            nodes = plan.corrupt_nodes(16, e)
            assert nodes.size <= 2
            assert np.all((0 <= nodes) & (nodes < 16))
            assert np.unique(nodes).size == nodes.size

    def test_zero_budget_is_null_plan(self):
        assert FaultPlan(t=0).corrupt_nodes(16, 0).size == 0

    def test_crash_sets_are_monotone(self):
        plan = FaultPlan(t=3, seed=2, kind="crash", crash_window=6)
        previous: set[int] = set()
        for e in range(12):
            nodes = set(int(v) for v in plan.corrupt_nodes(16, e))
            assert previous <= nodes, "a crashed node never comes back"
            previous = nodes
        assert previous, "every crash time lies inside the window"
        assert len(previous) <= 3


class TestFlipMasks:
    def test_nonzero_and_pairwise_distinct(self):
        masks = flip_masks(np.arange(1024))
        assert np.all(masks != 0)
        assert np.unique(masks).size == masks.size


class TestDisjointRelays:
    def test_copies_are_pairwise_distinct_relays(self):
        relays = disjoint_relays(50, 5, 16, salt=3)
        assert relays.shape == (50, 5)
        assert np.all((0 <= relays) & (relays < 16))
        for row in relays:
            assert np.unique(row).size == 5

    def test_pure_function_of_inputs(self):
        assert np.array_equal(
            disjoint_relays(9, 3, 8, salt=1), disjoint_relays(9, 3, 8, salt=1)
        )

    def test_salt_varies_assignment(self):
        a = disjoint_relays(40, 3, 16, salt=0)
        b = disjoint_relays(40, 3, 16, salt=1)
        assert not np.array_equal(a, b), "retries must re-route"

    def test_validation(self):
        with pytest.raises(ValueError, match="copies"):
            disjoint_relays(4, 5, 4)
        with pytest.raises(ValueError, match="copies"):
            disjoint_relays(4, 0, 4)
        with pytest.raises(ValueError, match="n >= 1"):
            disjoint_relays(4, 1, 0)
        with pytest.raises(ValueError, match="non-negative"):
            disjoint_relays(-1, 1, 4)


# --------------------------------------------------------------------- #
# corrupt_pieces
# --------------------------------------------------------------------- #


class TestCorruptPieces:
    def _blocks(self, p=12, w=5, seed=0):
        return np.random.default_rng(seed).integers(
            -99, 99, (p, w), dtype=np.int64
        )

    def test_null_plan_returns_input_uncopied(self):
        blocks = self._blocks()
        out, hit, dropped = corrupt_pieces(FaultPlan(t=0), 0, 8, blocks)
        assert out is blocks
        assert not hit.any() and not dropped.any()

    def test_flip_hits_match_relay_assignment(self):
        blocks = self._blocks()
        plan = FaultPlan(t=2, seed=3, kind="flip")
        out, hit, dropped = corrupt_pieces(plan, 7, 8, blocks)
        relays = disjoint_relays(12, 1, 8, salt=7).reshape(-1)
        corrupt = set(int(v) for v in plan.corrupt_nodes(8, 7))
        assert np.array_equal(hit, np.array([r in corrupt for r in relays]))
        assert not dropped.any()
        # Flips are XOR masks: corrupted words differ, clean words match.
        assert np.array_equal(out[~hit], blocks[~hit])
        assert np.all(out[hit] != blocks[hit])
        # Input is never mutated in place.
        assert np.array_equal(blocks, self._blocks())

    def test_drop_marks_known_erasures(self):
        blocks = self._blocks()
        out, hit, dropped = corrupt_pieces(
            FaultPlan(t=3, seed=1, kind="drop"), 0, 8, blocks
        )
        assert np.array_equal(hit, dropped)
        assert hit.any()
        assert not out[hit].any(), "dropped pieces are zeroed"

    def test_self_addressed_pieces_skip_transit(self):
        blocks = self._blocks()
        skip = np.ones(blocks.shape[0], dtype=bool)
        out, hit, _ = corrupt_pieces(
            FaultPlan(t=8, seed=0), 0, 8, blocks, skip=skip
        )
        assert out is blocks and not hit.any()

    def test_replication_degree_must_divide(self):
        with pytest.raises(ValueError, match="multiple"):
            corrupt_pieces(FaultPlan(t=1), 0, 8, self._blocks(p=10), copies=3)


# --------------------------------------------------------------------- #
# FaultyClique: pure interception
# --------------------------------------------------------------------- #


def _run_collectives(clique: CongestedClique, seed: int = 0) -> list[np.ndarray]:
    """One fixed workload touching every intercepted collective."""
    n = clique.n
    rng = np.random.default_rng(seed)
    results: list[np.ndarray] = []

    rows = rng.integers(-9, 9, (n, 4), dtype=np.int64)
    results.append(clique.broadcast_rows(rows, phase="t/bcast"))

    dests = [np.arange(n, dtype=np.int64) for _ in range(n)]
    blocks = [rng.integers(-9, 9, (n, 3), dtype=np.int64) for _ in range(n)]
    inboxes = clique.route_array(dests, blocks, phase="t/route")
    results.extend(inbox.blocks for inbox in inboxes)

    flat = clique.route_array(dests, blocks, phase="t/route-flat", flat=True)
    results.append(flat.blocks)

    take = np.arange(n * n, dtype=np.intp)
    owners = np.tile(np.arange(n, dtype=np.int64), n)
    results.append(
        clique.route_array_take(
            dests, blocks, take=take, owners=owners, phase="t/take"
        ).copy()
    )

    sends = [rng.integers(-9, 9, (n, 2), dtype=np.int64) for _ in range(n)]
    results.extend(
        inbox.blocks
        for inbox in clique.send_array(dests, sends, phase="t/send")
    )

    held = [rng.integers(-9, 9, (2, 3), dtype=np.int64) for _ in range(n)]
    results.append(clique.allgather_rows(held, phase="t/gather"))

    grid = rng.integers(-9, 9, (n, n, 2), dtype=np.int64)
    results.append(clique.scatter_blocks(grid, phase="t/scatter"))
    return results


class TestFaultyCliquePureInterception:
    @pytest.mark.parametrize("plan", [None, FaultPlan(t=0, seed=3)])
    def test_no_plan_bit_identical(self, plan):
        base = CongestedClique(6)
        faulty = FaultyClique(6, plan=plan)
        for a, b in zip(_run_collectives(base), _run_collectives(faulty)):
            assert np.array_equal(a, b)
        assert base.meter.phases == faulty.meter.phases
        assert faulty.faults_injected == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_charge_path_untouched_by_corruption(self, kind):
        """The adversary corrupts contents, never the bill."""
        base = CongestedClique(6)
        faulty = FaultyClique(6, plan=FaultPlan(t=2, seed=1, kind=kind))
        _run_collectives(base)
        _run_collectives(faulty)
        assert base.meter.phases == faulty.meter.phases

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_silent_corruption_demonstrated(self, kind):
        """Without the code, corrupt relays silently change deliveries."""
        base = CongestedClique(6)
        faulty = FaultyClique(6, plan=FaultPlan(t=2, seed=1, kind=kind))
        clean = _run_collectives(base)
        tampered = _run_collectives(faulty)
        assert faulty.faults_injected > 0
        assert any(
            not np.array_equal(a, b) for a, b in zip(clean, tampered)
        ), "an unprotected exchange must actually corrupt"


def _exchange(name: str, clique: CongestedClique) -> list[np.ndarray]:
    """Run one public exchange on ``clique``; return what it delivered."""
    n = clique.n
    rng = np.random.default_rng(7)
    everyone = [np.arange(n, dtype=np.int64) for _ in range(n)]
    pieces = [rng.integers(-9, 9, (n, 2), dtype=np.int64) for _ in range(n)]
    if name == "broadcast_rows":
        return [clique.broadcast_rows(rng.integers(-9, 9, (n, 3)), phase="x")]
    if name == "route_array":
        return [box.blocks for box in clique.route_array(everyone, pieces, phase="x")]
    if name == "route_array_take":
        take = np.arange(n * n, dtype=np.intp)
        return [clique.route_array_take(everyone, pieces, take=take, phase="x")]
    if name == "send_array":
        return [box.blocks for box in clique.send_array(everyone, pieces, phase="x")]
    if name == "scatter_blocks":
        return [clique.scatter_blocks(rng.integers(-9, 9, (n, n, 2)), phase="x")]
    if name == "gather_blocks":
        return [clique.gather_blocks(rng.integers(-9, 9, (2, n, 2)), phase="x")]
    if name == "allgather_rows":
        held = [rng.integers(-9, 9, (v % 3, 2), dtype=np.int64) for v in range(n)]
        return [clique.allgather_rows(held, phase="x")]
    assert name == "transpose_array"
    return [clique.transpose_array(rng.integers(-9, 9, (n, n)), phase="x")]


PUBLIC_EXCHANGES = [
    "broadcast_rows",
    "route_array",
    "route_array_take",
    "send_array",
    "scatter_blocks",
    "gather_blocks",
    "allgather_rows",
    "transpose_array",
]


@pytest.mark.parametrize("name", PUBLIC_EXCHANGES)
def test_every_exchange_reaches_the_fault_layer(name):
    """No exchange bypasses the fault layer: each one is corrupted on an
    unprotected clique, and shipped encoded on a coded one -- decoding to
    the plain delivery, with the plain bill on the abstract meter."""
    faulty = FaultyClique(6, plan=FaultPlan(t=6, seed=0))
    _exchange(name, faulty)
    assert faulty.faults_injected > 0

    plain = CongestedClique(6)
    coded = CodedClique(6, plan=FaultPlan(t=1, seed=0, kind="byzantine"))
    for got, want in zip(_exchange(name, coded), _exchange(name, plain)):
        assert np.array_equal(got, want)
    assert coded.abstract_meter.phases == plain.meter.phases
    shipped = {p.phase for p in coded.meter.phases}
    assert {f"{p.phase}/encoded" for p in plain.meter.phases} <= shipped


class TestCorruptedWitnessIsAModelError:
    """Unprotected bit flips reach the §2.1 step-3 witnesses; the receiver
    refuses any witness outside ``[0, n)`` with a named error instead of
    indexing the routing table with it."""

    @pytest.mark.parametrize("kind", ["flip", "byzantine"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("graph", ["random", "cycle"])
    @pytest.mark.parametrize("n", [27, 64])
    def test_apsp_exact_raises_clique_model_error(self, n, graph, seed, kind):
        from repro.distances import apsp_exact
        from repro.graphs import cycle_graph, random_weighted_graph

        g = (
            random_weighted_graph(n, 0.2, max_weight=50, seed=seed)
            if graph == "random"
            else cycle_graph(n)
        )
        clique = make_clique(
            n, "semiring", fault_plan=FaultPlan(t=1, seed=seed, kind=kind)
        )
        with pytest.raises(CliqueModelError, match="step3-recombine.*witness"):
            apsp_exact(g, clique=clique)
        assert clique.faults_injected > 0


class TestArenaNoEscapeUnderFaults:
    """Satellite: a corrupted ``route_array_take`` must never write outside
    its planned caller-buffer slice (the arena aliasing rule holds under
    interception, not just on the clean path)."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize(
        "clique_factory",
        [
            lambda plan: FaultyClique(6, plan=plan),
            lambda plan: CodedClique(6, plan=plan, tolerance=2),
        ],
        ids=["faulty", "coded"],
    )
    def test_corrupted_take_stays_inside_planned_slice(
        self, kind, clique_factory
    ):
        n = 6
        clique = clique_factory(FaultPlan(t=2, seed=4, kind=kind))
        rng = np.random.default_rng(2)
        dests = [np.arange(n, dtype=np.int64) for _ in range(n)]
        blocks = [rng.integers(-9, 9, (n, 3), dtype=np.int64) for _ in range(n)]
        take = np.arange(n * n, dtype=np.intp)
        pad = 7
        sentinel = np.int64(-123456789)
        backing = np.full((n * n + 2 * pad, 3), sentinel, dtype=np.int64)
        out = backing[pad : pad + n * n]
        clique.route_array_take(dests, blocks, take=take, out=out, phase="t")
        assert np.all(backing[:pad] == sentinel), "wrote before the slice"
        assert np.all(backing[pad + n * n :] == sentinel), "wrote after the slice"

    def test_faulty_take_still_validates_before_charging(self):
        clique = FaultyClique(4, plan=FaultPlan(t=1, seed=0))
        rng = np.random.default_rng(0)
        dests = [np.arange(4, dtype=np.int64) for _ in range(4)]
        blocks = [rng.integers(-9, 9, (4, 2), dtype=np.int64) for _ in range(4)]
        with pytest.raises(CliqueModelError, match="out of range"):
            clique.route_array_take(
                dests, blocks, take=np.array([99], dtype=np.intp)
            )
        assert clique.rounds == 0, "rejected delivery must not charge"


# --------------------------------------------------------------------- #
# Byzantine adversaries (PR 9)
# --------------------------------------------------------------------- #


class TestByzantinePlan:
    def test_fixed_set_for_every_exchange(self):
        plan = FaultPlan(t=3, seed=4, kind="byzantine")
        first = plan.corrupt_nodes(16, 0)
        assert first.size == 3
        for e in range(1, 12):
            assert np.array_equal(plan.corrupt_nodes(16, e), first)

    def test_deterministic_in_seed(self):
        a = FaultPlan(t=2, seed=7, kind="byzantine").corrupt_nodes(24, 5)
        b = FaultPlan(t=2, seed=7, kind="byzantine").corrupt_nodes(24, 5)
        assert np.array_equal(a, b)

    def test_salt_differs_from_crash_draw(self):
        """A shared seed must not make the Byzantine set equal the crash
        schedule's node set (independent salts)."""
        differs = False
        for seed in range(8):
            byz = set(
                int(v)
                for v in FaultPlan(
                    t=4, seed=seed, kind="byzantine"
                ).corrupt_nodes(32, 0)
            )
            crash_plan = FaultPlan(t=4, seed=seed, kind="crash", crash_window=1)
            crash = set(int(v) for v in crash_plan.corrupt_nodes(32, 10**6))
            if byz != crash:
                differs = True
        assert differs

    def test_budget_respected(self):
        nodes = FaultPlan(t=5, seed=0, kind="byzantine").corrupt_nodes(8, 3)
        assert nodes.size == 5
        assert np.unique(nodes).size == nodes.size
        assert np.all((0 <= nodes) & (nodes < 8))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(t=1, seed=-3)

    def test_byzantine_corrupts_values_not_drops(self):
        """Byzantine relays flip words (arbitrary-value corruption), they
        do not produce known erasures."""
        plan = FaultPlan(t=2, seed=0, kind="byzantine")
        blocks = np.arange(60, dtype=np.int64).reshape(20, 3)
        tampered, hit, dropped = corrupt_pieces(plan, 0, 10, blocks)
        assert hit.any()
        assert not dropped.any()
        assert not np.array_equal(tampered, blocks)


# --------------------------------------------------------------------- #
# GF(2^16) Reed-Solomon striping (PR 9 tentpole, unit level)
# --------------------------------------------------------------------- #


class TestStripePlan:
    def test_relay_budget_always_respected(self):
        for n in (4, 16, 64, 216):
            for t in (1, 2, 3):
                if 2 * t + 1 > n:
                    continue
                for width in (0, 1, 2, n // 2, n, 3 * n):
                    plan = stripe_plan(width, n, t)
                    assert plan.m <= n
                    assert plan.k + 2 * t == plan.m

    def test_rate_beats_replication_for_wide_pieces(self):
        for n, t in [(16, 1), (16, 2), (64, 2), (216, 2)]:
            plan = stripe_plan(n, n, t)
            coded_words = plan.m * plan.stripe_words
            assert coded_words < (2 * t + 1) * n, (
                "striping a width-n piece must ship fewer words than "
                "replicating it"
            )

    def test_degenerate_single_word_matches_replication(self):
        plan = stripe_plan(1, 16, 1)
        assert plan.k == 1 and plan.m == 3 and plan.stripe_words == 1

    def test_refuses_impossible_budget(self):
        with pytest.raises(ValueError, match="data stripes"):
            stripe_plan(8, 4, 2)  # n - 2t = 0
        with pytest.raises(ValueError, match="tolerance"):
            stripe_plan(8, 16, 0)


class TestStripeCoding:
    @pytest.mark.parametrize(
        "n,t,pieces,width",
        [(16, 1, 7, 16), (16, 2, 5, 16), (64, 2, 6, 64), (16, 1, 3, 1),
         (16, 2, 4, 2), (12, 1, 5, 40)],
    )
    def test_clean_round_trip_is_bit_exact(self, n, t, pieces, width):
        rng = np.random.default_rng(0)
        plan = stripe_plan(width, n, t)
        blocks = rng.integers(-(2**62), 2**62, (pieces, width), dtype=np.int64)
        stripes = encode_stripes(blocks, plan)
        decoded, ok = decode_stripes(
            stripes, np.zeros(pieces * plan.m, dtype=bool), plan
        )
        assert ok.all()
        assert np.array_equal(decoded[:, :width], blocks)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_corrects_t_corrupted_stripes(self, t, seed):
        n, pieces, width = 16, 9, 16
        rng = np.random.default_rng(seed)
        plan = stripe_plan(width, n, t)
        blocks = rng.integers(-(2**62), 2**62, (pieces, width), dtype=np.int64)
        tam = encode_stripes(blocks, plan).reshape(pieces, plan.m, -1).copy()
        for i in range(pieces):
            for j in rng.choice(plan.m, size=t, replace=False):
                tam[i, j] ^= np.int64(rng.integers(1, 2**62))
        decoded, ok = decode_stripes(
            tam.reshape(pieces * plan.m, -1),
            np.zeros(pieces * plan.m, dtype=bool),
            plan,
        )
        assert ok.all()
        assert np.array_equal(decoded[:, :width], blocks)

    @pytest.mark.parametrize("t", [1, 2])
    def test_recovers_2t_known_erasures(self, t):
        n, pieces, width = 16, 6, 16
        rng = np.random.default_rng(1)
        plan = stripe_plan(width, n, t)
        blocks = rng.integers(-(2**62), 2**62, (pieces, width), dtype=np.int64)
        tam = encode_stripes(blocks, plan).reshape(pieces, plan.m, -1).copy()
        dropped = np.zeros((pieces, plan.m), dtype=bool)
        for i in range(pieces):
            holes = rng.choice(plan.m, size=2 * t, replace=False)
            dropped[i, holes] = True
            tam[i, holes] = 0
        decoded, ok = decode_stripes(
            tam.reshape(pieces * plan.m, -1), dropped.reshape(-1), plan
        )
        assert ok.all()
        assert np.array_equal(decoded[:, :width], blocks)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_beyond_budget_never_silently_wrong(self, t, seed):
        """More corruption than the code's distance covers: decoding must
        flag the piece, never certify a wrong word."""
        n, pieces, width = 16, 8, 16
        rng = np.random.default_rng(seed)
        plan = stripe_plan(width, n, t)
        blocks = rng.integers(-(2**62), 2**62, (pieces, width), dtype=np.int64)
        tam = encode_stripes(blocks, plan).reshape(pieces, plan.m, -1).copy()
        errors = min(2 * t + 1, plan.m)
        for i in range(pieces):
            for j in rng.choice(plan.m, size=errors, replace=False):
                tam[i, j] ^= np.int64(rng.integers(1, 2**62))
        decoded, ok = decode_stripes(
            tam.reshape(pieces * plan.m, -1),
            np.zeros(pieces * plan.m, dtype=bool),
            plan,
        )
        wrong = ~(decoded[:, :width] == blocks).all(axis=1)
        assert not (ok & wrong).any(), "certified a corrupted piece"

    def test_too_many_erasures_flagged(self):
        plan = stripe_plan(16, 16, 1)  # 2t = 2 parity stripes
        blocks = np.arange(3 * 16, dtype=np.int64).reshape(3, 16)
        stripes = encode_stripes(blocks, plan).reshape(3, plan.m, -1)
        dropped = np.zeros((3, plan.m), dtype=bool)
        dropped[:, :3] = True  # 3 erasures > 2t
        stripes = stripes.copy()
        stripes[dropped] = 0
        _, ok = decode_stripes(
            stripes.reshape(3 * plan.m, -1), dropped.reshape(-1), plan
        )
        assert not ok.any()

    def test_zero_width_pieces(self):
        plan = stripe_plan(0, 16, 1)
        blocks = np.zeros((4, 0), dtype=np.int64)
        stripes = encode_stripes(blocks, plan)
        decoded, ok = decode_stripes(
            stripes, np.zeros(4 * plan.m, dtype=bool), plan
        )
        assert ok.all() and decoded.shape == (4, 0)


# --------------------------------------------------------------------- #
# CodedClique: Reed-Solomon encoded collectives
# --------------------------------------------------------------------- #


class TestCodedCliqueConstruction:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            CodedClique(8, tolerance=0)

    def test_striping_needs_enough_relays(self):
        with pytest.raises(CliqueModelError, match="pairwise-distinct relays"):
            CodedClique(4, tolerance=2)  # needs 2*2+1 = 5 > 4 nodes

    def test_retry_budget_must_be_non_negative(self):
        with pytest.raises(ValueError, match="retry budget"):
            CodedClique(8, tolerance=1, max_retries=-1)

    def test_refusal_names_the_budget(self):
        with pytest.raises(CliqueModelError) as excinfo:
            CodedClique(6, tolerance=3)  # needs 7 relays on 6 nodes
        message = str(excinfo.value)
        assert "7" in message and "6" in message

    def test_relay_budget_is_exactly_2t_plus_1(self):
        """Exhaustive over n <= 64, t <= 32: the code is refused exactly
        when one data stripe plus 2t parity stripes cannot sit on distinct
        relays."""
        for n in range(2, 65):
            for t in range(1, 33):
                try:
                    CodedClique(n, tolerance=t)
                except CliqueModelError:
                    built = False
                else:
                    built = True
                assert built == (2 * t + 1 <= n), (n, t)

    def test_make_clique_wiring(self):
        plain = make_clique(8, "naive")
        assert type(plain) is CongestedClique
        faulty = make_clique(8, "naive", fault_plan=FaultPlan(t=1))
        assert type(faulty) is FaultyClique
        coded = make_clique(8, "naive", fault_tolerance=2)
        assert type(coded) is CodedClique
        assert coded.tolerance == 2 and coded.plan is None
        named = make_clique(8, "naive", fault_tolerance=1, fault_scheme="coded")
        assert type(named) is CodedClique

    def test_make_clique_refuses_replication(self):
        with pytest.raises(ValueError, match="replication was removed"):
            make_clique(
                16, "semiring", fault_tolerance=1, fault_scheme="replicate"
            )


class TestCodedCollectivesInBudget:
    """Every coded collective decodes exactly under every in-budget
    adversary kind, Byzantine included -- the tolerance x seed x kind
    matrix (t = 2 puts four parity stripes on five of the eight relays)."""

    @pytest.mark.parametrize("kind", ALL_KINDS_WITH_BYZANTINE)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t", [1, 2])
    def test_collectives_decode_exactly(self, kind, seed, t):
        base = CongestedClique(8)
        clique = CodedClique(
            8, plan=FaultPlan(t=t, seed=seed, kind=kind), tolerance=t
        )
        for a, b in zip(_run_collectives(base), _run_collectives(clique)):
            assert np.array_equal(a, b)
        assert clique.abstract_meter.phases == base.meter.phases

    def test_byzantine_adversary_actually_fires(self):
        clique = CodedClique(
            8, plan=FaultPlan(t=2, seed=0, kind="byzantine"), tolerance=2
        )
        base = CongestedClique(8)
        for a, b in zip(_run_collectives(base), _run_collectives(clique)):
            assert np.array_equal(a, b)
        assert clique.faults_injected > 0

    def test_abstract_meter_equals_fault_free_bill(self):
        """Meter separation: the abstract meter is phase-for-phase the
        fault-free oracle's meter; the actual meter bills the redundancy."""
        base = CongestedClique(6)
        coded = CodedClique(6, plan=FaultPlan(t=1, seed=0), tolerance=1)
        _run_collectives(base)
        _run_collectives(coded)
        assert coded.abstract_meter.phases == base.meter.phases
        assert coded.meter.rounds > coded.abstract_meter.rounds
        assert coded.overhead_factor > 1.0

    def test_no_plan_still_bills_redundancy(self):
        base = CongestedClique(6)
        coded = CodedClique(6, tolerance=1)
        for a, b in zip(_run_collectives(base), _run_collectives(coded)):
            assert np.array_equal(a, b)
        assert coded.abstract_meter.phases == base.meter.phases
        assert coded.meter.rounds > base.meter.rounds

    def test_take_validation_precedes_charges_on_both_meters(self):
        coded = CodedClique(6, tolerance=1)
        rng = np.random.default_rng(0)
        dests = [np.arange(6, dtype=np.int64) for _ in range(6)]
        blocks = [rng.integers(-9, 9, (6, 2), dtype=np.int64) for _ in range(6)]
        with pytest.raises(CliqueModelError, match="addressed to another"):
            coded.route_array_take(
                dests,
                blocks,
                take=np.arange(36, dtype=np.intp),
                owners=np.zeros(36, dtype=np.int64),
            )
        assert coded.meter.rounds == 0
        assert coded.abstract_meter.rounds == 0


class TestDetectRetryDegrade:
    @staticmethod
    def _rows() -> np.ndarray:
        return np.random.default_rng(7).integers(-50, 50, (16, 1), dtype=np.int64)

    def test_beyond_budget_retry_succeeds_through_fresh_relays(self):
        # Deterministic anchor: t=2 > tolerance 1, seed 0 needs exactly one
        # re-ship before every piece passes certification.
        rows = self._rows()
        clique = CodedClique(
            16,
            plan=FaultPlan(t=2, seed=0, kind="flip"),
            tolerance=1,
            max_retries=3,
        )
        out = clique.broadcast_rows(rows.copy())
        assert np.array_equal(out, rows)
        assert clique.retries == 1
        assert clique.decode_failures == 0

    def test_exhausted_retries_degrade_loudly(self):
        clique = CodedClique(
            16,
            plan=FaultPlan(t=3, seed=0, kind="flip"),
            tolerance=1,
            max_retries=0,
        )
        with pytest.raises(FaultToleranceExceeded, match="Reed-Solomon"):
            clique.broadcast_rows(self._rows())
        assert clique.decode_failures == 1

    def test_error_names_phase_and_budget(self):
        clique = CodedClique(
            16,
            plan=FaultPlan(t=3, seed=0, kind="flip"),
            tolerance=1,
            max_retries=0,
        )
        with pytest.raises(FaultToleranceExceeded) as excinfo:
            clique.broadcast_rows(self._rows(), phase="mst/labels")
        message = str(excinfo.value)
        assert "mst/labels" in message
        assert "t=3" in message and "flip" in message


def _minplus_closure(clique: CongestedClique, weights: np.ndarray, n: int):
    session = EngineSession(clique, "semiring", MIN_PLUS)
    padded = pad_matrix(weights, clique.n, fill=MIN_PLUS.zero_value)
    np.fill_diagonal(padded, 0)
    return session.closure(padded)[:n, :n]


class TestOverheadClosedForm:
    """At t = 1 and t = 2 the coded overhead factor on a closure sits
    strictly between 1 (some redundancy is always billed) and 2t + 1
    (what shipping 2t + 1 full copies of every piece would cost)."""

    N = 16

    @pytest.mark.parametrize("t", [1, 2])
    def test_overhead_between_one_and_2t_plus_1(self, t):
        graph = random_weighted_digraph(self.N, 0.35, 9, seed=0)
        clique = make_clique(
            self.N,
            "semiring",
            fault_plan=FaultPlan(t=t, seed=0, kind="flip"),
            fault_tolerance=t,
        )
        value = _minplus_closure(clique, graph.weight_matrix(), self.N)
        assert np.array_equal(value, apsp_reference(graph))
        assert clique.abstract_meter.rounds > 0
        assert 1 < clique.overhead_factor < 2 * t + 1


class TestCodedClosureBill:
    """The coded bill of one fixed closure, pinned number for number: the
    actual and abstract meters and the injected-fault count at seed 0.
    The closure stops after squaring 3, the first of the 5 allowed that
    changes nothing; its abstract meter is the fault-free bill derived
    from the full schedule."""

    N = 16
    #: t -> (actual rounds, actual words, abstract rounds, abstract words)
    METERS = {1: (356, 117141, 276, 91503), 2: (420, 142671, 276, 91503)}
    #: (t, kind) -> faults injected by the seed-0 adversary
    INJECTED = {
        (1, "flip"): 1091,
        (1, "drop"): 1091,
        (1, "crash"): 907,
        (1, "byzantine"): 1098,
        (2, "flip"): 2614,
        (2, "drop"): 2614,
        (2, "crash"): 1738,
        (2, "byzantine"): 2601,
    }

    @pytest.mark.parametrize("t, kind", sorted(INJECTED))
    def test_bill_is_pinned(self, t, kind):
        graph = random_weighted_digraph(self.N, 0.35, 9, seed=0)
        with full_schedule() as loops:
            plain = make_clique(self.N, "semiring")
            _minplus_closure(plain, graph.weight_matrix(), self.N)
        clique = make_clique(
            self.N,
            "semiring",
            fault_plan=FaultPlan(t=t, seed=0, kind=kind),
            fault_tolerance=t,
        )
        value = _minplus_closure(clique, graph.weight_matrix(), self.N)
        assert np.array_equal(value, apsp_reference(graph))
        meters = (
            clique.meter.rounds,
            clique.meter.words,
            clique.abstract_meter.rounds,
            clique.abstract_meter.words,
        )
        assert clique.abstract_meter.phases == stopped_phases(plain.meter, loops)
        assert meters == self.METERS[t]
        assert clique.faults_injected == self.INJECTED[t, kind]
        assert clique.retries == 0 and clique.decode_failures == 0


# --------------------------------------------------------------------- #
# FaultPlan edge cases (PR 9 satellites)
# --------------------------------------------------------------------- #


class TestFaultPlanEdgeCases:
    def test_t_zero_plan_is_exact_noop(self):
        """A t=0 plan through make_clique is bit-identical to the plain
        model: values, rounds, and per-phase meters."""
        base = make_clique(8, "naive")
        nulled = make_clique(8, "naive", fault_plan=FaultPlan(t=0, seed=9))
        assert type(base) is CongestedClique
        for a, b in zip(_run_collectives(base), _run_collectives(nulled)):
            assert np.array_equal(a, b)
        assert base.meter.phases == nulled.meter.phases
        assert base.meter.rounds == nulled.meter.rounds
        assert nulled.faults_injected == 0

    def test_tolerance_beyond_relays_refused_cleanly(self):
        """t >= available relays: construction refuses with the budget in
        the message, before any exchange is attempted or charged."""
        with pytest.raises(CliqueModelError, match="pairwise-distinct relays"):
            CodedClique(5, tolerance=4)

    def test_crash_schedule_shared_across_sessions(self):
        """Crash-stop is monotone and a pure function of the plan seed, so
        multiple sessions sharing one plan agree on who crashed -- and each
        decodes the oracle answer independently."""
        plan = FaultPlan(t=2, seed=3, kind="crash", crash_window=4)
        previous: set[int] = set()
        for e in range(10):
            nodes = set(int(v) for v in plan.corrupt_nodes(12, e))
            assert previous <= nodes
            previous = nodes
        assert previous, "the window guarantees every crash bites"

        base = CongestedClique(12)
        oracle = _run_collectives(base)
        for _session_index in range(2):
            clique = CodedClique(12, plan=plan, tolerance=2)
            for a, b in zip(oracle, _run_collectives(clique)):
                assert np.array_equal(a, b)
        # The shared plan's schedule was not mutated by either session.
        assert set(int(v) for v in plan.corrupt_nodes(12, 9)) == previous

    def test_fresh_session_overhead_factor_is_one(self):
        """Satellite: no exchanges yet -> overhead 1.0, not a zero division."""
        clique = CodedClique(8, tolerance=1)
        assert clique.abstract_meter.rounds == 0
        assert clique.overhead_factor == 1.0


# --------------------------------------------------------------------- #
# End to end: every kind, no silent wrong answers
# --------------------------------------------------------------------- #


class TestEncodedClosureProperty:
    N = 16

    @pytest.fixture(scope="class")
    def workload(self):
        graph = random_weighted_digraph(self.N, 0.35, 9, seed=0)
        weights = graph.weight_matrix()
        oracle = apsp_reference(graph)
        return weights, oracle

    @pytest.mark.parametrize("kind", ALL_KINDS_WITH_BYZANTINE)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("t", [1, 2])
    def test_in_budget_closure_equals_oracle(self, workload, kind, seed, t):
        weights, oracle = workload
        clique = make_clique(
            self.N,
            "semiring",
            fault_plan=FaultPlan(t=t, seed=seed, kind=kind),
            fault_tolerance=t,
        )
        assert np.array_equal(_minplus_closure(clique, weights, self.N), oracle)
        assert clique.faults_injected > 0, "the adversary must have fired"
        assert clique.decode_failures == 0

    @pytest.mark.parametrize("kind", ALL_KINDS_WITH_BYZANTINE)
    def test_coded_beyond_budget_never_silently_corrupts(self, workload, kind):
        """The headline seed sweep: an over-budget adversary (t=3 against
        tolerance 1, no retries) either loses anyway -- the answer equals
        the oracle bit-for-bit -- or the run raises.  Wrong answers: zero."""
        weights, oracle = workload
        raised = 0
        for seed in range(6):
            clique = make_clique(
                self.N,
                "semiring",
                fault_plan=FaultPlan(t=3, seed=seed, kind=kind),
                fault_tolerance=1,
            )
            clique.max_retries = 0
            try:
                result = _minplus_closure(clique, weights, self.N)
            except FaultToleranceExceeded:
                raised += 1
            else:
                assert np.array_equal(result, oracle), (
                    f"SILENT CORRUPTION at seed={seed} kind={kind}"
                )
        if kind in ("flip", "byzantine"):
            assert raised > 0, "the sweep should exercise the degrade arm"

    def test_fault_free_workloads_unchanged(self, workload):
        """Equivalence re-run: the interception seams leave the plain
        model's values, rounds, and meters bit-identical."""
        weights, oracle = workload
        plain = make_clique(self.N, "semiring")
        assert type(plain) is CongestedClique
        result = _minplus_closure(plain, weights, self.N)
        assert np.array_equal(result, oracle)
        twin = make_clique(self.N, "semiring")
        _minplus_closure(twin, weights, self.N)
        assert plain.meter.phases == twin.meter.phases


class TestOpenSessionFaultPassthrough:
    def test_session_builds_fault_layer(self):
        with open_session(
            8,
            "naive",
            fault_plan=FaultPlan(t=1, seed=0, kind="byzantine"),
            fault_tolerance=1,
        ) as session:
            assert isinstance(session.clique, CodedClique)
            assert session.clique.plan.kind is FaultKind.BYZANTINE

    def test_explicit_clique_refuses_fault_args(self):
        clique = CongestedClique(8)
        with pytest.raises(ValueError, match="fault"):
            open_session(8, "naive", clique=clique, fault_tolerance=1)

    def test_fault_scheme_option_is_gone(self):
        with pytest.raises(TypeError, match="fault_scheme"):
            open_session(16, "semiring", fault_scheme="coded")
