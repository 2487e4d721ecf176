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

from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.clique import CongestedClique
from repro.faults import CodedClique
from repro.graphs import (
    bipartite_random_graph,
    four_cycle_count_reference,
    gnp_random_graph,
    triangle_count_reference,
)
from repro.matmul.bilinear_clique import bilinear_matmul
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
