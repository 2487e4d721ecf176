"""Every charged round bill equals the length of an explicit schedule.

The simulator bills routed exchanges the closed form ``2 * ceil(L / n)``;
``tests/schedule_reference.py`` builds the Lenzen relay schedule behind it
with an exact Koenig colouring, and its :class:`ScheduleCertifier` checks
every charge against that schedule (and direct sends and broadcasts against
their per-pair and per-node maxima).

* Fast lane: random demands colour into exactly ``L`` matchings and yield
  valid schedules of the billed length.
* ``slow``: the certifier rides along on every engine and every
  application, on a plain clique, Reed-Solomon coded cliques at ``t = 1``
  and ``t = 2``, and a ring-priced clique.  Every clique built during a
  case is certified, so cliques the libraries build internally count too,
  and a coded clique's abstract meter must bill a plain run's phases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from schedule_reference import (
    certify,
    colour_into_matchings,
    max_degree,
    relay_schedule,
    validate_matchings,
)

from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.clique.model import CongestedClique
from repro.clique.scheduling import relay_rounds
from repro.distances import (
    apsp_approx,
    apsp_bounded,
    apsp_exact,
    apsp_unweighted,
    girth_undirected,
)
from repro.engine import make_clique, required_clique_size
from repro.faults import FaultPlan
from repro.graphs import (
    gnp_random_graph,
    random_weighted_digraph,
    random_weighted_graph,
)
from repro.matmul.bilinear_clique import bilinear_matmul
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import semiring_matmul
from repro.netsim import CostModelSpec
from repro.spanning import build_spanner, minimum_spanning_forest
from repro.subgraphs import (
    count_four_cycles,
    count_triangles,
    detect_four_cycles,
    detect_k_cycle,
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    max_width=st.integers(min_value=1, max_value=12),
    data=st.data(),
)
def test_random_demands_colour_into_max_load_matchings(n, max_width, data):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=40))
    demand: dict[tuple[int, int], int] = {}
    for pair in chosen:
        width = data.draw(st.integers(min_value=1, max_value=max_width))
        demand[pair] = demand.get(pair, 0) + width
    matchings = colour_into_matchings(demand, n)
    validate_matchings(matchings, demand)
    load = max_degree(demand, n)
    assert len(matchings) == load
    assert relay_schedule(demand, n).rounds == relay_rounds(load, n)


# --------------------------------------------------------------------- #
# Every engine and application, certified
# --------------------------------------------------------------------- #

#: Clique layers each case runs on, as keyword arguments for
#: ``make_clique`` (built fresh per case, since fault plans draw per
#: exchange).
LAYERS = {
    "plain": lambda: {},
    "coded-t1": lambda: {
        "fault_plan": FaultPlan(t=1, seed=0, kind="byzantine"),
        "fault_tolerance": 1,
    },
    "coded-t2": lambda: {
        "fault_plan": FaultPlan(t=2, seed=0, kind="byzantine"),
        "fault_tolerance": 2,
    },
    "ring": lambda: {"cost_model": CostModelSpec("ring")},
}

#: Clique sizes up to 27 each engine admits.
CUBES = (8, 27)
SQUARES = (4, 9, 16, 25)


@pytest.fixture
def certified_cliques(monkeypatch):
    """Attach a certifier to every clique built during the test."""
    built = []
    init = CongestedClique.__init__

    def certified_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, certify(self)))

    monkeypatch.setattr(CongestedClique, "__init__", certified_init)
    return built


def _cases(sized):
    """``(layer, *case)`` for every layer a case's clique can carry.

    ``sized`` yields ``(method, n, *rest)``; the clique holds
    ``required_clique_size(n, method)`` nodes, and a t-code needs 2t + 1.
    """
    return [
        (layer, *case)
        for case in sized
        for layer, kwargs in LAYERS.items()
        if required_clique_size(case[1], case[0])
        >= 2 * kwargs().get("fault_tolerance", 0) + 1
    ]


def _run(built, layer, n, method, job):
    """Run ``job(clique)`` on a ``layer`` clique; check every charge.

    On a coded layer the abstract meter must also bill exactly the phases
    of the same job on a plain clique.
    """
    clique = make_clique(n, method, **LAYERS[layer]())
    job(clique)
    if layer.startswith("coded"):
        plain = make_clique(n, method)
        job(plain)
        assert clique.abstract_meter.phases == plain.meter.phases
    assert built
    for clique, certifier in built:
        assert certifier.total == len(clique.meter.phases)
        assert set(certifier.certified) == {
            p.primitive for p in clique.meter.phases
        }
    assert sum(certifier.total for _, certifier in built) > 0


def _matrices(n):
    rng = np.random.default_rng(n)
    return rng.integers(-9, 10, (n, n)), rng.integers(-9, 10, (n, n))


ENGINES = (
    [("semiring", n) for n in CUBES + (64,)]
    + [("bilinear", n) for n in SQUARES]
    + [("naive", n) for n in range(2, 28)]
)
ENGINE_RUNS = {
    "semiring": semiring_matmul,
    "bilinear": bilinear_matmul,
    "naive": broadcast_matmul,
}


@pytest.mark.slow
@pytest.mark.parametrize("layer,method,n", _cases(ENGINES))
def test_engine_bills_are_certified(certified_cliques, layer, method, n):
    s, t = _matrices(n)
    _run(
        certified_cliques,
        layer,
        n,
        method,
        lambda clique: ENGINE_RUNS[method](clique, s, t),
    )


def _weighted(n):
    return random_weighted_digraph(n, 0.3, 9, seed=n)


def _undirected(n):
    return gnp_random_graph(n, 0.35, seed=n)


#: name -> (engine the clique is sized for, sizes, job on (n, clique)).
APPLICATIONS = {
    "apsp-exact": (
        "semiring",
        CUBES,
        lambda n, c: apsp_exact(_weighted(n), with_routing_tables=True, clique=c),
    ),
    "apsp-approx": (
        "bilinear",
        SQUARES,
        lambda n, c: apsp_approx(_weighted(n), delta=0.5, clique=c),
    ),
    "seidel": (
        "bilinear",
        SQUARES,
        lambda n, c: apsp_unweighted(_undirected(n), clique=c),
    ),
    "apsp-bounded": (
        "bilinear",
        SQUARES,
        lambda n, c: apsp_bounded(
            random_weighted_digraph(n, 0.4, 4, seed=n), 6, clique=c
        ),
    ),
    "triangles": (
        "bilinear",
        SQUARES,
        lambda n, c: count_triangles(_undirected(n), clique=c),
    ),
    "four-cycles": (
        "bilinear",
        SQUARES,
        lambda n, c: count_four_cycles(_undirected(n), clique=c),
    ),
    "four-cycle-detect": (
        "naive",
        SQUARES,
        lambda n, c: detect_four_cycles(gnp_random_graph(n, 0.15, seed=n), clique=c),
    ),
    "girth": (
        "bilinear",
        SQUARES,
        lambda n, c: girth_undirected(_undirected(n), clique=c),
    ),
    "colour-coding": (
        "bilinear",
        SQUARES,
        lambda n, c: detect_k_cycle(_undirected(n), 4, trials=3, clique=c),
    ),
    "mst": (
        "semiring",
        CUBES,
        lambda n, c: minimum_spanning_forest(
            random_weighted_graph(n, 0.4, 20, seed=n), clique=c
        ),
    ),
    "spanner": (
        "semiring",
        CUBES,
        lambda n, c: build_spanner(
            random_weighted_graph(n, 0.4, 20, seed=n), 2, clique=c
        ),
    ),
    "dolev-triangles": (
        "naive",
        SQUARES,
        lambda n, c: dolev_triangle_count(_undirected(n), clique=c),
    ),
    "dolev-four-cycles": (
        "naive",
        SQUARES,
        lambda n, c: dolev_four_cycle_detect(_undirected(n), clique=c),
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize(
    "layer,method,n,app",
    _cases(
        (method, n, app)
        for app, (method, sizes, _) in APPLICATIONS.items()
        for n in sizes
    ),
)
def test_application_bills_are_certified(certified_cliques, layer, method, n, app):
    job = APPLICATIONS[app][2]
    _run(certified_cliques, layer, n, method, lambda clique: job(n, clique))
