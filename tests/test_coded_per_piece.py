"""Coded exchanges bill, price and corrupt per piece, exactly as per stripe.

A coded piece's ``m`` stripes share its source, destination and width, so
:class:`~repro.faults.CodedClique` bills and prices an encoded exchange from
one entry per piece carrying all ``m`` stripes' words, and
:func:`~repro.faults.corrupt_pieces` finds the corrupted stripes from the
relay formula instead of the ``(P, copies)`` relay matrix.  The per-stripe
implementation is kept in ``tests/coded_reference.py``; this suite checks
the two agree bit for bit:

* a hypothesis property compares :func:`corrupt_pieces` with the
  relay-matrix oracle on random exchanges, plans and skip masks;
* every coded run of ``apsp_exact``, ``mst`` and the broadcast-heavy
  4-cycle detection, at ``t`` in 1..3 under all four kinds and on three
  topologies, beyond-budget plans included, matches a clique billed and
  corrupted per stripe: values, routing tables, both meters, every
  transport completion, injections, retries and errors.

The fast lane prices on the ring at ``t`` = 1 and 3; the ``slow`` lane adds
``t = 2`` and the full and fat-tree topologies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coded_reference
import repro.faults
from repro.clique.accounting import PhaseCost, PhaseTraffic
from repro.distances import apsp_exact
from repro.engine import make_clique
from repro.errors import ReproError
from repro.faults import FaultKind, FaultPlan, corrupt_pieces, stripe_plan
from repro.graphs import gnp_random_graph, random_weighted_digraph, random_weighted_graph
from repro.netsim import CostModelSpec
from repro.spanning import minimum_spanning_forest
from repro.subgraphs import detect_four_cycles

# --------------------------------------------------------------------- #
# corrupt_pieces: closed-form hits == relay-matrix hits
# --------------------------------------------------------------------- #


def _same_corruption(plan, exchange_id, n, blocks, copies, skip):
    """Run both implementations and assert identical results and contract."""
    before = blocks.copy()
    got = corrupt_pieces(plan, exchange_id, n, blocks, copies=copies, skip=skip)
    want = coded_reference.corrupt_pieces(
        plan, exchange_id, n, blocks, copies=copies, skip=skip
    )
    for mine, theirs in zip(got, want):
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert np.array_equal(mine, theirs)
    tampered, hit, _dropped = got
    assert np.array_equal(blocks, before), "the input is never mutated"
    assert (tampered is blocks) == (not hit.any())
    return hit


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_form_hits_equal_the_relay_matrix(data):
    n = data.draw(st.integers(1, 20), label="n")
    copies = data.draw(st.integers(1, n), label="copies")
    pieces = data.draw(st.integers(0, 30), label="pieces")
    shape = data.draw(st.sampled_from([(), (3,), (2, 2)]), label="piece shape")
    exchange_id = data.draw(st.integers(0, 40), label="exchange id")
    plan = FaultPlan(
        t=data.draw(st.integers(0, n), label="t"),
        seed=data.draw(st.integers(0, 1000), label="seed"),
        kind=data.draw(st.sampled_from(list(FaultKind)), label="kind"),
        crash_window=data.draw(st.integers(1, 12), label="crash window"),
    )
    total = pieces * copies
    skip = data.draw(
        st.none()
        | st.lists(st.booleans(), min_size=total, max_size=total).map(
            lambda mask: np.array(mask, dtype=bool)
        ),
        label="skip",
    )
    blocks = np.random.default_rng(exchange_id).integers(
        -(2**62), 2**62, (total,) + shape
    )
    _same_corruption(plan, exchange_id, n, blocks, copies, skip)


@pytest.mark.parametrize("copies", [1, 3, 8])
def test_crash_plan_before_and_after_its_crash_times(copies):
    """Seed 4 crashes two nodes at exchange 2 and a third at exchange 5, so
    exchanges 0-7 see zero, two and three crashed relays."""
    n = 8
    plan = FaultPlan(t=3, seed=4, kind="crash", crash_window=6)
    crashed = [plan.corrupt_nodes(n, e).size for e in range(8)]
    assert crashed == [0, 0, 2, 2, 2, 3, 3, 3]
    blocks = np.arange(12 * copies * 2, dtype=np.int64).reshape(12 * copies, 2)
    hits = [_same_corruption(plan, e, n, blocks, copies, None) for e in range(8)]
    assert not hits[0].any() and hits[-1].any()


def test_copies_beyond_the_clique_are_refused():
    with pytest.raises(ValueError, match="copies <= n"):
        corrupt_pieces(FaultPlan(t=1), 0, 4, np.zeros((10, 1), np.int64), copies=5)


# --------------------------------------------------------------------- #
# The encoded exchange's traffic record: one entry per piece
# --------------------------------------------------------------------- #


class _Recorder:
    needs_traffic = True

    def __init__(self) -> None:
        self.charges: list[tuple[PhaseCost, PhaseTraffic]] = []

    def observe(self, cost, traffic=None):
        self.charges.append((cost, traffic))


def test_encoded_batch_is_recorded_once_per_piece():
    """The encoded route's pair-word matrix has each piece carrying its
    ``m`` stripes' words; ``payloads`` still counts stripes."""
    clique = make_clique(8, "semiring", fault_tolerance=1)
    recorder = clique.meters.add_observer(_Recorder())
    rows = np.arange(64, dtype=np.int64).reshape(8, 8)
    dests = np.tile(np.arange(8, dtype=np.int64), (8, 1))
    blocks = np.repeat(rows[:, :, None], 3, axis=2)
    clique.route_array(dests, blocks, widths=np.full((8, 8), 3), phase="p")
    (cost, traffic), = recorder.charges
    plan = stripe_plan(3, 8, 1)
    piece_words = plan.m * -(-3 // plan.k)
    assert cost.phase == "p/encoded" and traffic.kind == "route"
    # One piece per ordered pair; the 8 self-addressed pieces stay home.
    expected = np.full((8, 8), piece_words)
    np.fill_diagonal(expected, 0)
    assert np.array_equal(traffic.pairs, expected)
    assert cost.payloads == 64 * plan.m
    assert cost.words == 56 * piece_words  # the 8 self-addressed pieces are free


# --------------------------------------------------------------------- #
# Whole runs: the per-piece clique == the per-stripe oracle clique
# --------------------------------------------------------------------- #

#: name -> (engine, n, job).  ``four-cycle-detect`` is the broadcast-heavy
#: one: three broadcasts and two direct sends around one routed exchange.
APPLICATIONS = {
    "apsp-exact": (
        "semiring",
        8,
        lambda n, c: apsp_exact(
            random_weighted_digraph(n, 0.3, 9, seed=n),
            with_routing_tables=True,
            clique=c,
        ),
    ),
    "mst": (
        "semiring",
        8,
        lambda n, c: minimum_spanning_forest(
            random_weighted_graph(n, 0.4, 20, seed=n), clique=c
        ),
    ),
    "four-cycle-detect": (
        "naive",
        9,
        lambda n, c: detect_four_cycles(gnp_random_graph(n, 0.15, seed=n), clique=c),
    ),
}

#: ``(plan budget t, code tolerance)``: in budget, and beyond it, where the
#: retry and degrade arms run.
BUDGETS = [(1, 1), (2, 2), (3, 3), (2, 1), (3, 1), (3, 2)]
KINDS = ("flip", "drop", "crash", "byzantine")
TOPOLOGIES = ("ring", "full", "fat-tree:2")
#: ``(topology, t)`` the fast lane runs, at every tolerance and kind.
FAST = {("ring", 1), ("ring", 3)}


def _run(app, t, tolerance, kind, topology, *, oracle):
    """One coded run; everything the two implementations must agree on."""
    method, n, job = APPLICATIONS[app]
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(repro.faults, "CodedClique", coded_reference.PerStripeCodedClique)
        clique = make_clique(
            n,
            method,
            fault_plan=FaultPlan(t=t, seed=1, kind=kind),
            fault_tolerance=tolerance,
            cost_model=CostModelSpec(topology),
        )
    assert isinstance(clique, coded_reference.PerStripeCodedClique) == oracle
    try:
        result = job(n, clique)
        outcome = ("value", result.value, result.extras.get("next_hop"))
    except ReproError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    return outcome, {
        "phases": clique.meter.phases,
        "abstract": clique.abstract_meter.phases,
        "completions": clique.transport.completions,
        "injected": clique.faults_injected,
        "retries": clique.retries,
        "failures": clique.decode_failures,
    }


def _same_value(got, want) -> bool:
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return np.array_equal(got, want)
    return got == want


def _cases():
    return [
        pytest.param(
            app, t, tolerance, kind, topology,
            marks=[] if (topology, t) in FAST else [pytest.mark.slow],
        )
        for app in APPLICATIONS
        for t, tolerance in BUDGETS
        for kind in KINDS
        for topology in TOPOLOGIES
    ]


@pytest.mark.parametrize("app,t,tolerance,kind,topology", _cases())
def test_coded_run_matches_the_per_stripe_oracle(app, t, tolerance, kind, topology):
    got, got_bills = _run(app, t, tolerance, kind, topology, oracle=False)
    want, want_bills = _run(app, t, tolerance, kind, topology, oracle=True)
    assert got[0] == want[0]
    assert all(_same_value(g, w) for g, w in zip(got[1:], want[1:]))
    assert got_bills == want_bills


def test_beyond_budget_cases_reach_the_retry_and_degrade_arms():
    """The matrix above compares retries and errors, not only clean runs."""
    retried, degraded = 0, 0
    for kind in KINDS:
        outcome, bills = _run("apsp-exact", 3, 1, kind, "ring", oracle=False)
        retried += bills["retries"]
        degraded += outcome[0] == "error"
    assert retried > 0 and degraded > 0


@pytest.mark.parametrize("app", list(APPLICATIONS))
@pytest.mark.parametrize("kind", KINDS)
def test_unprotected_run_matches_the_per_stripe_oracle(app, kind):
    method, n, job = APPLICATIONS[app]
    runs = []
    for faulty in (repro.faults.FaultyClique, coded_reference.PerStripeFaultyClique):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.faults, "FaultyClique", faulty)
            clique = make_clique(n, method, fault_plan=FaultPlan(t=1, seed=0, kind=kind))
        assert type(clique) is faulty
        try:
            value = job(n, clique).value
        except ReproError as exc:
            value = f"{type(exc).__name__}: {exc}"
        runs.append((value, clique.meter.phases, clique.faults_injected))
    (got, got_phases, got_hits), (want, want_phases, want_hits) = runs
    assert _same_value(got, want)
    assert got_phases == want_phases and got_hits == want_hits > 0
