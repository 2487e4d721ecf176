"""Every application decodes exactly on a Reed-Solomon coded clique.

Every exchange an application makes -- its broadcasts, transposes and
allgathers as much as its routed products -- reaches the fault layer.  So
on a :class:`~repro.faults.CodedClique` with tolerance ``t``, under an
adversary of any of the four kinds corrupting up to ``t`` relays per
exchange, each application returns exactly its fault-free value, and its
abstract meter bills exactly the plain run's phases.

Without the code the same adversary corrupts answers freely; there the
guarantee is only that a run ends in a value or a
:class:`~repro.errors.ReproError`, never in a bare Python or NumPy
exception from data no honest run delivers.

The fast lane runs seed 0 at sizes ``n <= 16``, every kind at ``t = 1``
and the Byzantine kind (errors at unknown positions, the hardest case for
the decoder) at ``t = 2``; the ``slow`` lane runs every kind at both
tolerances, seeds 0 to 2, and the larger sizes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import dolev_four_cycle_detect, dolev_triangle_count
from repro.distances import (
    apsp_approx,
    apsp_bounded,
    apsp_exact,
    apsp_unweighted,
    girth_undirected,
)
from repro.engine import make_clique, required_clique_size
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.graphs import gnp_random_graph, random_weighted_digraph, random_weighted_graph
from repro.spanning import build_spanner, minimum_spanning_forest
from repro.subgraphs import (
    count_four_cycles,
    count_triangles,
    detect_four_cycles,
    detect_k_cycle,
)


def _undirected(n):
    return gnp_random_graph(n, 0.35, seed=n)


def _weighted(n):
    return random_weighted_graph(n, 0.4, 20, seed=n)


#: name -> (engine the clique is sized for, fast-lane n, slow-lane n, job).
APPLICATIONS = {
    "apsp-approx": (
        "bilinear", 4, 16,
        lambda n, c: apsp_approx(
            random_weighted_digraph(n, 0.3, 9, seed=n), delta=0.5, clique=c
        ),
    ),
    "seidel": (
        "bilinear", 9, 16, lambda n, c: apsp_unweighted(_undirected(n), clique=c)
    ),
    "triangles": (
        "bilinear", 9, 16, lambda n, c: count_triangles(_undirected(n), clique=c)
    ),
    "four-cycles": (
        "bilinear", 9, 16, lambda n, c: count_four_cycles(_undirected(n), clique=c)
    ),
    "four-cycle-detect": (
        "naive", 5, 25,
        lambda n, c: detect_four_cycles(gnp_random_graph(n, 0.15, seed=n), clique=c),
    ),
    "girth": (
        "bilinear", 9, 16, lambda n, c: girth_undirected(_undirected(n), clique=c)
    ),
    "colour-coding": (
        "bilinear", 4, 16,
        lambda n, c: detect_k_cycle(_undirected(n), 4, trials=1, clique=c),
    ),
    "mst": (
        "semiring", 8, 27,
        lambda n, c: minimum_spanning_forest(_weighted(n), clique=c),
    ),
    "spanner": (
        "semiring", 8, 27, lambda n, c: build_spanner(_weighted(n), 2, clique=c)
    ),
    "dolev-triangles": (
        "naive", 5, 25, lambda n, c: dolev_triangle_count(_undirected(n), clique=c)
    ),
    "dolev-four-cycles": (
        "naive", 5, 25,
        lambda n, c: dolev_four_cycle_detect(_undirected(n), clique=c),
    ),
}

#: The two applications whose exchanges were always encoded; they join the
#: unprotected sweep below.
ROUTED_ONLY = {
    "apsp-exact": (
        "semiring", 8, 27,
        lambda n, c: apsp_exact(
            random_weighted_digraph(n, 0.3, 9, seed=n), clique=c
        ),
    ),
    "apsp-bounded": (
        "bilinear", 9, 16,
        lambda n, c: apsp_bounded(
            random_weighted_digraph(n, 0.4, 4, seed=n), 6, clique=c
        ),
    ),
}

KINDS = ("flip", "drop", "crash", "byzantine")


def _param(app, n, *rest, fast: bool):
    return pytest.param(app, n, *rest, marks=[] if fast else [pytest.mark.slow])


def _coded_cases():
    cases = []
    for app, (method, fast_n, slow_n, _job) in APPLICATIONS.items():
        for n in (fast_n, slow_n):
            for t in (1, 2):
                if required_clique_size(n, method) < 2 * t + 1:
                    continue
                for kind in KINDS:
                    for seed in (0, 1, 2):
                        fast = (
                            n == fast_n
                            and seed == 0
                            and (t == 1 or kind == "byzantine")
                        )
                        cases.append(_param(app, n, t, kind, seed, fast=fast))
    return cases


@lru_cache(maxsize=None)
def _fault_free(app: str, n: int):
    """The plain run's value and phases."""
    method, _fast_n, _slow_n, job = APPLICATIONS[app]
    clique = make_clique(n, method)
    result = job(n, clique)
    return result.value, tuple(clique.meter.phases)


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got == want


@pytest.mark.parametrize("app,n,t,kind,seed", _coded_cases())
def test_coded_run_equals_the_fault_free_run(app, n, t, kind, seed):
    method, _fast_n, _slow_n, job = APPLICATIONS[app]
    want, phases = _fault_free(app, n)
    clique = make_clique(
        n,
        method,
        fault_plan=FaultPlan(t=t, seed=seed, kind=kind),
        fault_tolerance=t,
    )
    result = job(n, clique)
    assert _same(result.value, want)
    assert tuple(clique.abstract_meter.phases) == phases
    shipped = {p.phase for p in clique.meter.phases}
    assert all(f"{p.phase}/encoded" in shipped for p in phases)


def _unprotected_cases():
    return [
        _param(app, n, kind, seed, fast=n == fast_n and seed == 0)
        for app, (_method, fast_n, slow_n, _job) in {
            **APPLICATIONS,
            **ROUTED_ONLY,
        }.items()
        for n in (fast_n, slow_n)
        for kind in ("flip", "drop")
        for seed in (0, 1)
    ]


@pytest.mark.parametrize("app,n,kind,seed", _unprotected_cases())
def test_unprotected_run_ends_in_a_value_or_a_repro_error(app, n, kind, seed):
    method, _fast_n, _slow_n, job = {**APPLICATIONS, **ROUTED_ONLY}[app]
    clique = make_clique(n, method, fault_plan=FaultPlan(t=1, seed=seed, kind=kind))
    try:
        job(n, clique)
    except ReproError:
        pass
    assert clique.faults_injected > 0
