"""Pinned bills of the exchange callers: values, rounds, words and charges.

Each anchor is a fixed instance whose bill must stay bit-identical however
the exchanges are implemented underneath; a change here changes the
simulated model, not just the simulator.  The coded-Dolev cases check the
other side of that contract: on a fault-layer clique the Dolev baselines'
exchanges pass through the fault seams (so the actual bill pays for the
code) while their abstract bill stays the plain clique's.
"""

from __future__ import annotations

import numpy as np
import pytest
from closure_replay import full_schedule, stopped_phases
from kernel_reference import poly_matmul

from repro.algebra import MIN_PLUS, POLYNOMIAL
from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.clique import CongestedClique
from repro.constants import INF
from repro.distances import apsp_bounded
from repro.distances.bounded import apsp_up_to
from repro.engine import EngineSession
from repro.faults import CodedClique
from repro.graphs import (
    apsp_reference,
    bipartite_random_graph,
    four_cycle_count_reference,
    gnp_random_graph,
    random_weighted_digraph,
    triangle_count_reference,
    validate_routing_table,
)
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.boolean_witnesses import find_boolean_witnesses
from repro.matmul.distance import approx_distance_product, distance_product_ring
from repro.runtime import make_clique, pad_matrix
from repro.subgraphs import count_four_cycles, count_triangles
from repro.subgraphs.colour_coding import detect_k_cycle


def _bill(meter):
    return meter.rounds, meter.words, len(meter.phases)


def _phases(meter):
    return [(p.phase, p.primitive, p.rounds, p.words) for p in meter.phases]


def test_bilinear_engine_bill_at_256():
    # The perf report's bilinear_engine inputs.
    rng = np.random.default_rng(3)
    s = rng.integers(-9, 10, (256, 256), dtype=np.int64)
    t = rng.integers(-9, 10, (256, 256), dtype=np.int64)
    clique = CongestedClique(256)
    assert np.array_equal(bilinear_matmul(clique, s, t), s @ t)
    assert _bill(clique.meter) == (102, 795_600, 4)
    assert [(p.phase, p.rounds) for p in clique.meter.phases] == [
        ("bilinear/step1-distribute", 4),
        ("bilinear/step3-scatter-hats", 64),
        ("bilinear/step5-scatter-products", 32),
        ("bilinear/step7-assemble", 2),
    ]


def test_dolev_triangle_bill():
    result = dolev_triangle_count(gnp_random_graph(64, 0.3, seed=0))
    assert result.value == 1161
    assert _bill(result.meter) == (27, 58_944, 2)


def test_dolev_four_cycle_bill():
    result = dolev_four_cycle_detect(bipartite_random_graph(100, 0.04, seed=0))
    assert result.value is True
    assert _bill(result.meter) == (93, 364_740, 2)


@pytest.mark.parametrize(
    "count,value,bills",
    [
        (
            count_triangles,
            120,
            {
                "bilinear": (64, 15_435, 6),
                "semiring": (28, 62_976, 4),
                "naive": (34, 29_580, 3),
            },
        ),
        (
            count_four_cycles,
            552,
            {
                "bilinear": (70, 22_995, 8),
                "semiring": (34, 87_168, 6),
                "naive": (40, 34_800, 5),
            },
        ),
    ],
    ids=["triangles", "four-cycles"],
)
def test_directed_counting_bills(count, value, bills):
    g = gnp_random_graph(30, 0.25, seed=1, directed=True)
    for method, bill in bills.items():
        result = count(g, method=method)
        assert result.value == value, method
        assert _bill(result.meter) == bill, method


def test_directed_colour_coding_bill():
    g = gnp_random_graph(30, 0.25, seed=1, directed=True)
    result = detect_k_cycle(g, 4, trials=2, seed=0)
    assert _bill(result.meter) == (723, 128_520, 51)


class TestCodedDolev:
    @pytest.mark.parametrize(
        "baseline,oracle",
        [
            (dolev_triangle_count, triangle_count_reference),
            (
                dolev_four_cycle_detect,
                lambda g: four_cycle_count_reference(g) > 0,
            ),
        ],
        ids=["triangles", "four-cycles"],
    )
    def test_distribute_is_encoded_and_abstract_bill_is_plain(
        self, baseline, oracle
    ):
        g = gnp_random_graph(27, 0.3, seed=0)
        plain = baseline(g)
        coded = CodedClique(27, tolerance=1)
        result = baseline(g, clique=coded)
        assert result.value == plain.value == oracle(g)
        # The abstract bill is the plain clique's, phase for phase ...
        assert _phases(coded.abstract_meter) == _phases(plain.meter)
        # ... while the actual bill pays for the striped distribute exchange.
        assert coded.meter.rounds > coded.abstract_meter.rounds
        assert any(
            p.phase.endswith("/distribute/encoded") for p in coded.meter.phases
        )

    def test_triangle_abstract_bill_is_21_rounds(self):
        coded = CodedClique(27, tolerance=1)
        dolev_triangle_count(gnp_random_graph(27, 0.3, seed=0), clique=coded)
        assert coded.abstract_meter.rounds == 21
        assert coded.meter.rounds > 21


class TestRingEngineBills:
    """The callers of the §2.2 engine over the integer and polynomial rings
    (Lemmas 18-21): values checked against each caller's oracle, bills
    pinned as (rounds, words, charges)."""

    @staticmethod
    def _distances(rng, n, max_entry):
        mat = rng.integers(0, max_entry + 1, (n, n), dtype=np.int64)
        mat[rng.random((n, n)) < 0.2] = INF
        return mat

    @pytest.mark.parametrize(
        "n,max_entry,bill",
        [
            (16, 0, (30, 1_980, 4)),
            (16, 3, (144, 9_900, 4)),
            (49, 0, (34, 36_288, 4)),
            (49, 3, (162, 181_440, 4)),
        ],
    )
    def test_lemma18_distance_product(self, n, max_entry, bill):
        rng = np.random.default_rng(n + max_entry)
        s = self._distances(rng, n, max_entry)
        t = self._distances(rng, n, max_entry)
        clique = CongestedClique(n)
        got = distance_product_ring(clique, s, t, max_entry)
        assert np.array_equal(got, MIN_PLUS.matmul(s, t))
        assert _bill(clique.meter) == bill

    def test_raw_polynomial_session_multiply(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-9, 10, (16, 16, 3), dtype=np.int64)
        y = rng.integers(-9, 10, (16, 16, 3), dtype=np.int64)
        clique = CongestedClique(16)
        got = EngineSession(clique, "bilinear", POLYNOMIAL).multiply(x, y)
        assert np.array_equal(got, poly_matmul(x, y))
        assert _bill(clique.meter) == (106, 7_260, 4)

    def test_lemma19_bounded_apsp(self):
        """All 3 capped squarings run (the last is the first that changes
        nothing), the first two followed by their one-round flags."""
        g = random_weighted_digraph(16, 0.4, 4, seed=5)
        with full_schedule() as loops:
            full = apsp_bounded(g, 7)
        result = apsp_bounded(g, 7)
        ref = apsp_reference(g)
        assert np.array_equal(result.value, np.where(ref <= 7, ref, INF))
        assert result.meter.phases == stopped_phases(full.meter, loops)
        assert _bill(result.meter) == (890, 61_860, 14)

    def test_lemma19_routing_tables(self):
        g = random_weighted_digraph(16, 0.5, 3, seed=0)
        clique = make_clique(16, "bilinear")
        dist, next_hop = apsp_up_to(
            clique,
            pad_matrix(g.weight_matrix(), clique.n, fill=INF),
            12,
            with_routing_tables=True,
            witness_rng=np.random.default_rng(0),
        )
        ref = apsp_reference(g)
        assert np.array_equal(dist, np.where(ref <= 12, ref, INF))
        assert validate_routing_table(g, dist, next_hop)
        assert _bill(clique.meter) == (175_316, 12_120_024, 1_584)

    def test_lemma20_approximate_product(self):
        rng = np.random.default_rng(20)
        s = self._distances(rng, 16, 150)
        t = self._distances(rng, 16, 150)
        clique = CongestedClique(16)
        approx = approx_distance_product(clique, s, t, 0.3)
        exact = MIN_PLUS.matmul(s, t)
        finite = exact < INF
        assert np.array_equal(approx >= INF, ~finite)
        assert (approx[finite] >= exact[finite]).all()
        assert (approx[finite] <= np.floor(1.3 * exact[finite]) + 1).all()
        assert _bill(clique.meter) == (7_813, 540_780, 85)

    def test_boolean_witnesses(self):
        rng = np.random.default_rng(0)
        s = (rng.random((16, 16)) < 0.4).astype(np.int64)
        t = (rng.random((16, 16)) < 0.4).astype(np.int64)
        clique = CongestedClique(16)
        product, result = find_boolean_witnesses(
            clique, s, t, rng=np.random.default_rng(0)
        )
        assert np.array_equal(product, ((s @ t) > 0).astype(np.int64))
        rows, cols = np.nonzero(product)
        k = result.witnesses[rows, cols]
        assert (s[rows, k] == 1).all() and (t[k, cols] == 1).all()
        assert (result.witnesses[product == 0] == -1).all()
        assert _bill(clique.meter) == (2_926, 188_724, 418)
