#!/usr/bin/env python
"""Performance report for the semiring kernel + messaging fast path.

Usage::

    PYTHONPATH=src python benchmarks/perf_report.py              # full report
    PYTHONPATH=src python benchmarks/perf_report.py --quick      # small sizes
    PYTHONPATH=src python benchmarks/perf_report.py --out X.json

Times four layers and writes ``BENCH_matmul.json``:

* **Kernels** -- the blocked min-plus / max-min block-product kernels
  (:mod:`repro.algebra.semirings`) against the seed's cube-materialising
  kernel (retained as ``cube_matmul_with_witness``), at ``n ~ 512``.  The
  seed implemented *both* ``matmul`` and ``matmul_with_witness`` via the
  cube kernel, so it is the baseline for both entry points.
* **Boolean product** -- the blocked (``float32`` GEMM) Boolean kernel
  against the retained cube-materialising ``cube_matmul`` baseline, at
  ``n = 512``.
* **Kernel gate** -- the kernel section re-run at a fixed ``n = 128`` in
  every mode, so ``make bench-check`` always has comparable kernel rows.
* **Kernel generation 2** -- the PR 4 wave, at fixed sizes in every mode
  (gateable): the batch-axis witness kernel vs the retained per-block loop,
  the ``uint64`` bit-packed Boolean kernel vs the ``float32`` GEMM path,
  the packed max-min witness kernel vs the generic column walk, and the
  arena-backed exchange pipeline vs per-call allocation.
* **Kernel generation 3** -- the PR 7 wave, at fixed sizes in every mode
  (gateable): threaded tile backends vs serial tiles on the packed
  witness and pre-packed Boolean kernels (``cpus``/``threads`` recorded;
  ``bench_check`` skips the comparison unless both runs saw multiple
  cores), and the persistent packed Boolean closure vs the per-product
  packing path at ``n = 512`` with its deterministic round bill gated
  for exact equality.
* **Spanning** -- the PR 5 spanner/MST workloads through engine sessions,
  at one fixed size in every mode; their deterministic round bills are
  gated for exact equality by ``bench_check``.
* **Faults** -- the robustness layer: a min-plus closure on the
  Reed-Solomon coded collectives under seeded flip/drop/crash/byzantine
  adversaries, verified equal to the fault-free oracle, with the
  deterministic encoded vs abstract round bills (exact-equality gated)
  and the honest redundancy ``overhead_factor``.
* **Serve** -- the PR 8 serving layer: building vs memory-mapping the
  ``n = 512`` closure artifact (build rounds exact-equality gated), 10k
  batched distance queries as one fancy-index gather vs the per-query
  Python loop (the ``>= 50x`` target asserted before the row is written),
  the dirty-strip delta update vs a forced full rebuild with identical
  closures and the deterministic round-bill ratio as the gated speedup,
  and informational qps/p50/p99 through the asyncio batching server.
* **Sessions** -- the end-to-end engine-session pipeline: exact APSP and
  directed girth through one bound session on the serial executor, the
  packed min-plus witness kernel vs the retained column-walk baseline
  (fixed size in every mode, gateable), and the session plan cache with
  plan construction isolated from product time.
* **End to end** -- the 3D semiring engine and the APSP driver on the
  array-native messaging path, with their metered round counts, seeding the
  perf trajectory for future PRs.

Timings are best-of-``reps`` wall clock; simulated round counts are
deterministic.  Threaded speedups depend on available cores (the ``cpus``
field records them) -- on a single-core box the threaded rows measure pure
scheduling overhead, honestly reported.

``--gate-only`` builds just the fixed-size gateable sections (what
``make bench-quick`` / the CI fast lane run); the heavy end-to-end and
session rows need the full report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

# Allow `python benchmarks/perf_report.py` without an explicit PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np

from repro.algebra.semirings import BOOLEAN, DEFAULT_BLOCK_TILE, MAX_MIN, MIN_PLUS
from repro.clique.arena import ExchangeArena
from repro.clique.model import CongestedClique
from repro.constants import INF
from repro.distances.apsp import apsp_exact
from repro.distances.girth import girth_directed
from repro.graphs.generators import random_weighted_graph
from repro.graphs.graphs import Graph
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import cube_plan, semiring_matmul


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _best_of_pair(fn_a, fn_b, reps: int) -> tuple[float, float]:
    """Best-of timings for a baseline/fast pair, *interleaved*.

    Timing the two sides in separate best-of blocks lets machine drift
    between the blocks (a noisy neighbour, a frequency step) skew the
    ratio the gate checks; alternating A/B on every rep makes both sides
    see the same conditions.  Same total work as two ``_best_of`` calls.
    """
    best_a = best_b = float("inf")
    for _ in range(reps):
        best_a = min(best_a, _best_of(fn_a, 1))
        best_b = min(best_b, _best_of(fn_b, 1))
    return best_a, best_b


def _distance_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.integers(0, 1000, (n, n), dtype=np.int64)
    mat[rng.random((n, n)) < 0.1] = INF
    return mat


def _bottleneck_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(-1000, 1000, (n, n), dtype=np.int64)


def kernel_section(n: int, reps: int) -> dict:
    """Blocked kernels vs the seed cube kernel on one n x n block product."""
    rng = np.random.default_rng(0)
    section: dict[str, dict] = {}
    for semiring, make in (
        (MIN_PLUS, _distance_matrix),
        (MAX_MIN, _bottleneck_matrix),
    ):
        x, y = make(rng, n), make(rng, n)
        # Correctness cross-check before timing anything.
        p_cube, w_cube = semiring.cube_matmul_with_witness(x, y)
        p_blk, w_blk = semiring.matmul_with_witness(x, y)
        assert np.array_equal(p_cube, p_blk), semiring.name
        assert np.array_equal(w_cube, w_blk), semiring.name
        assert np.array_equal(semiring.matmul(x, y), p_cube), semiring.name

        # Interleaved best-of: all three variants see the same machine
        # conditions, so the gated ratios do not absorb drift.
        cube_s = plain_s = witness_s = float("inf")
        for _ in range(reps):
            cube_s = min(
                cube_s,
                _best_of(lambda: semiring.cube_matmul_with_witness(x, y), 1),
            )
            plain_s = min(plain_s, _best_of(lambda: semiring.matmul(x, y), 1))
            witness_s = min(
                witness_s,
                _best_of(lambda: semiring.matmul_with_witness(x, y), 1),
            )
        key = semiring.name.replace("-", "_")
        section[f"{key}_block_product"] = {
            "n": n,
            "tile": DEFAULT_BLOCK_TILE,
            "seed_cube_seconds": round(cube_s, 4),
            "blocked_seconds": round(plain_s, 4),
            "speedup": round(cube_s / plain_s, 2),
        }
        section[f"{key}_block_product_with_witness"] = {
            "n": n,
            "seed_cube_seconds": round(cube_s, 4),
            "blocked_seconds": round(witness_s, 4),
            "speedup": round(cube_s / witness_s, 2),
        }
    return section


def boolean_section(n: int, reps: int) -> dict:
    """Blocked (GEMM) Boolean kernel vs the cube-materialising baseline.

    Pinned to the ``float32`` GEMM entry point so the row keeps measuring
    what it claims now that :meth:`BooleanSemiring.matmul` dispatches large
    products to the bit-packed kernel (gated separately in ``kernel2``).
    """
    rng = np.random.default_rng(4)
    x = (rng.random((n, n)) < 0.05).astype(np.int64)
    y = (rng.random((n, n)) < 0.05).astype(np.int64)
    assert np.array_equal(BOOLEAN.gemm_matmul(x, y), BOOLEAN.cube_matmul(x, y))
    cube_s = _best_of(lambda: BOOLEAN.cube_matmul(x, y), reps)
    blocked_s = _best_of(lambda: BOOLEAN.gemm_matmul(x, y), reps)
    return {
        "boolean_block_product": {
            "n": n,
            "tile": BOOLEAN.BOOL_TILE,
            "cube_seconds": round(cube_s, 4),
            "blocked_seconds": round(blocked_s, 4),
            "speedup": round(cube_s / blocked_s, 2),
        }
    }


def kernel2_section(reps: int) -> dict:
    """PR 4 kernel generation 2, at fixed sizes in every mode (gateable).

    Every row cross-checks bit-identical values against its retained
    baseline before timing anything, mirroring the older sections.
    """
    section: dict[str, dict] = {}
    rng = np.random.default_rng(8)
    batch, block = 512, 64

    # ---- batch-axis witness kernel vs the retained per-block loop. ----- #
    bx = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    by = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    bx[rng.random(bx.shape) < 0.1] = INF
    by[rng.random(by.shape) < 0.1] = INF

    def per_block_loop():
        pairs = [
            MIN_PLUS.matmul_with_witness(bx[b], by[b]) for b in range(batch)
        ]
        return (
            np.stack([p for p, _ in pairs]),
            np.stack([w for _, w in pairs]),
        )

    loop_p, loop_w = per_block_loop()
    batch_p, batch_w = MIN_PLUS.matmul_batch_with_witness(bx, by)
    assert np.array_equal(loop_p, batch_p) and np.array_equal(loop_w, batch_w)
    loop_s, batch_s = _best_of_pair(
        per_block_loop, lambda: MIN_PLUS.matmul_batch_with_witness(bx, by), reps
    )
    section["batch_axis_witness"] = {
        "n": batch,
        "block": block,
        "per_block_seconds": round(loop_s, 4),
        "batched_seconds": round(batch_s, 4),
        "speedup": round(loop_s / batch_s, 2),
    }

    # ---- bit-packed Boolean kernel vs the float32 GEMM path. ----------- #
    # Millisecond-scale calls: interleave and take best-of-more so one
    # noisy scheduling quantum cannot skew the ratio.
    nb = 512
    x = (rng.random((nb, nb)) < 0.05).astype(np.int64)
    y = (rng.random((nb, nb)) < 0.05).astype(np.int64)
    assert np.array_equal(BOOLEAN.packed_matmul(x, y), BOOLEAN.gemm_matmul(x, y))
    gemm_s = packed_s = float("inf")
    for _ in range(max(reps, 15)):
        gemm_s = min(gemm_s, _best_of(lambda: BOOLEAN.gemm_matmul(x, y), 1))
        packed_s = min(packed_s, _best_of(lambda: BOOLEAN.packed_matmul(x, y), 1))
    section["packed_boolean"] = {
        "n": nb,
        "gemm_seconds": round(gemm_s, 4),
        "packed_seconds": round(packed_s, 4),
        "speedup": round(gemm_s / packed_s, 2),
    }

    # ---- work-based dispatch: a skinny-but-huge block. ----------------- #
    # The PR 5 heuristic switch: dispatch keys on m*k*n work (plus pack-
    # width floors), not min(m, k, n), so shapes like this one reach the
    # Four Russians kernel.  The row pins the crossover's payoff.
    ms, ks, ns = 128, 2048, 2048
    xs = (rng.random((ms, ks)) < 0.05).astype(np.int64)
    ys = (rng.random((ks, ns)) < 0.05).astype(np.int64)
    assert BOOLEAN._use_packed(ms, ks, ns)
    assert np.array_equal(
        BOOLEAN.packed_matmul(xs, ys), BOOLEAN.gemm_matmul(xs, ys)
    )
    gemm_s = packed_s = float("inf")
    for _ in range(max(reps, 10)):
        gemm_s = min(gemm_s, _best_of(lambda: BOOLEAN.gemm_matmul(xs, ys), 1))
        packed_s = min(
            packed_s, _best_of(lambda: BOOLEAN.packed_matmul(xs, ys), 1)
        )
    section["packed_boolean_skinny"] = {
        "n": ns,
        "m": ms,
        "k": ks,
        "gemm_seconds": round(gemm_s, 4),
        "packed_seconds": round(packed_s, 4),
        "speedup": round(gemm_s / packed_s, 2),
    }

    # ---- packed max-min witness kernel vs the generic column walk. ----- #
    mx = rng.integers(-1000, 1000, (batch, block, block), dtype=np.int64)
    my = rng.integers(-1000, 1000, (batch, block, block), dtype=np.int64)
    mx[rng.random(mx.shape) < 0.05] = -INF
    my[rng.random(my.shape) < 0.05] = -INF
    walk = MAX_MIN._generic_walk_batch_with_witness(mx, my)
    packed = MAX_MIN.matmul_batch_with_witness(mx, my)
    assert np.array_equal(walk[0], packed[0])
    assert np.array_equal(walk[1], packed[1])
    walk_s, packed_s = _best_of_pair(
        lambda: MAX_MIN._generic_walk_batch_with_witness(mx, my),
        lambda: MAX_MIN.matmul_batch_with_witness(mx, my),
        reps,
    )
    section["maxmin_witness"] = {
        "n": batch,
        "block": block,
        "walk_seconds": round(walk_s, 4),
        "packed_seconds": round(packed_s, 4),
        "speedup": round(walk_s / packed_s, 2),
    }

    # ---- arena-backed exchanges vs per-call allocation. ---------------- #
    # 4 witness squarings through one shared arena (what an engine session
    # does) vs a fresh arena per product (per-call buffers); the plan is
    # warm in both runs.  Each step squares a different matrix (``s + step``
    # on finite entries), so the shared arena's product cache reuses no
    # block and the delta is purely buffer reuse.  n=343 is the sweet spot
    # for this row: big enough that buffer reuse clears timer noise (at 216
    # the ratio reads ~1.0), small enough that the gate-only lane stays
    # seconds (the n=512 pipeline is exercised by the full report's
    # sessions section).
    na = 343
    s = _distance_matrix(rng, na)
    inputs = [np.where(s < INF, s + step, s) for step in range(4)]
    arena = ExchangeArena()

    def products(shared_arena):
        clique = CongestedClique(na)
        for step, x in enumerate(inputs):
            semiring_matmul(
                clique, x, x, MIN_PLUS, with_witnesses=True,
                phase=f"arena/{step}", arena=shared_arena,
            )
        return clique.rounds

    fresh_rounds = products(None)
    arena_rounds = products(arena)
    assert fresh_rounds == arena_rounds
    fresh_s = _best_of(lambda: products(None), reps)
    arena_s = _best_of(lambda: products(arena), reps)
    section["arena"] = {
        "n": na,
        "products": 4,
        "fresh_seconds": round(fresh_s, 4),
        "arena_seconds": round(arena_s, 4),
        "session_reuse_speedup": round(fresh_s / arena_s, 2),
    }
    return section


def kernel3_section(reps: int) -> dict:
    """Kernel generation 3, at fixed sizes in every mode (gateable).

    Three rows: threaded tiles vs serial tiles on the packed witness and
    pre-packed Boolean kernels (``cpus``/``threads`` recorded so
    ``bench_check`` can refuse to compare 1-core and multi-core numbers --
    on a 1-core container the speedup honestly measures pure threading
    overhead), and the persistent packed Boolean closure vs the per-product
    packing path at ``n = 512`` (not core-dependent: the win is skipping
    ``ceil(log n)`` pack/unpack passes and shipping 64x fewer payload
    words).  The closure row's deterministic round bill rides along and is
    gated for exact equality; both closure paths are asserted bit-identical
    (values, rounds, per-phase meters) before anything is timed.
    """
    from repro.algebra.backends import backend_info, get_backend
    from repro.algebra.semirings import pack_bool_rows
    from repro.engine.session import default_steps, open_session

    section: dict[str, dict] = {}
    info = backend_info()
    cpus = info["cpus"]
    # On a multi-core host use the cores; on 1-core, 2 threads measures the
    # honest overhead (and bench_check skips the comparison).
    threads = min(cpus, 8) if cpus > 1 else 2
    threaded = get_backend(f"threaded:{threads}")
    rng = np.random.default_rng(12)
    batch, block = 512, 64

    # ---- threaded tiles on the packed min-plus witness kernel. --------- #
    bx = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    by = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    bx[rng.random(bx.shape) < 0.1] = INF
    by[rng.random(by.shape) < 0.1] = INF
    sp, sw = MIN_PLUS.matmul_batch_with_witness(bx, by)
    tp, tw = MIN_PLUS.matmul_batch_with_witness(bx, by, backend=threaded)
    assert np.array_equal(sp, tp) and np.array_equal(sw, tw)
    serial_s, threaded_s = _best_of_pair(
        lambda: MIN_PLUS.matmul_batch_with_witness(bx, by),
        lambda: MIN_PLUS.matmul_batch_with_witness(bx, by, backend=threaded),
        reps,
    )
    section["threaded_fold"] = {
        "n": batch,
        "block": block,
        "cpus": cpus,
        "threads": threads,
        "serial_seconds": round(serial_s, 4),
        "threaded_seconds": round(threaded_s, 4),
        "speedup": round(serial_s / threaded_s, 2),
    }

    # ---- threaded tiles on the pre-packed Boolean kernel. -------------- #
    xw = pack_bool_rows((rng.random((batch, block, block)) < 0.3).astype(np.int64))
    yw = pack_bool_rows((rng.random((batch, block, block)) < 0.3).astype(np.int64))
    ref = BOOLEAN.packed_words_matmul_batch(xw, yw, block)
    got = BOOLEAN.packed_words_matmul_batch(xw, yw, block, backend=threaded)
    assert np.array_equal(ref, got)
    serial_s, threaded_s = _best_of_pair(
        lambda: BOOLEAN.packed_words_matmul_batch(xw, yw, block),
        lambda: BOOLEAN.packed_words_matmul_batch(xw, yw, block, backend=threaded),
        reps,
    )
    section["threaded_boolean"] = {
        "n": batch,
        "block": block,
        "cpus": cpus,
        "threads": threads,
        "serial_seconds": round(serial_s, 4),
        "threaded_seconds": round(threaded_s, 4),
        "speedup": round(serial_s / threaded_s, 2),
    }

    # ---- persistent packed closure vs per-product packing, n = 512. ---- #
    nc = 512
    seed_matrix = (rng.random((nc, nc)) < 0.004).astype(np.int64)

    def closure(packed: bool):
        with open_session(nc, "semiring", BOOLEAN) as session:
            if packed:
                value = session.closure(seed_matrix)
            else:
                # The per-product baseline: one unpacked square + OR per
                # step, under the packed loop's phase labels.
                value = seed_matrix
                for step in range(default_steps(nc)):
                    squared = session.square(value, phase=f"closure/sq{step}")
                    value = BOOLEAN.add(squared, value)
            return value, session.rounds, list(session.meter.phases)

    packed_value, packed_rounds, packed_phases = closure(True)
    plain_value, plain_rounds, plain_phases = closure(False)
    assert np.array_equal(packed_value, plain_value)
    assert packed_rounds == plain_rounds
    assert packed_phases == plain_phases
    # The persistent path finishes in ~0.1 s, so best-of-more: one noisy
    # scheduling quantum on the fast side would otherwise swing the
    # committed ratio by 2x.
    per_product_s, persistent_s = _best_of_pair(
        lambda: closure(False), lambda: closure(True), max(reps, 5)
    )
    section["packed_persistent_closure"] = {
        "n": nc,
        "rounds": packed_rounds,
        "cpus": cpus,
        "per_product_seconds": round(per_product_s, 4),
        "persistent_seconds": round(persistent_s, 4),
        "speedup": round(per_product_s / persistent_s, 2),
    }
    return section


def spanning_section(reps: int) -> dict:
    """Spanner + MST workloads through engine sessions (fixed size, gated).

    Both rows run at one fixed size in every mode so ``make bench-quick``
    can gate them.  Their simulated **round counts are deterministic** for
    the fixed seeds, and ``bench_check`` gates them for *exact equality* --
    a changed round bill is a behaviour change, not timer noise -- while
    the wall-clock seconds are informational.  Answers are verified against
    the centralised oracles before anything is timed.
    """
    from repro.spanning import (
        build_spanner,
        minimum_spanning_forest,
        mst_reference,
        spanner_stretch,
    )

    section: dict[str, dict] = {}
    n, k = 48, 3
    graph = random_weighted_graph(n, 0.25, max_weight=40, seed=5)

    def run_spanner():
        return build_spanner(graph, k, seed=5)

    result = run_spanner()
    assert spanner_stretch(graph, result.value) <= 2 * k - 1 + 1e-9
    section["spanner_session"] = {
        "n": n,
        "k": k,
        "rounds": result.rounds,
        "edges": result.extras["spanner_edges"],
        "graph_edges": graph.edge_count,
        "seconds": round(_best_of(run_spanner, reps), 4),
    }

    def run_mst():
        return minimum_spanning_forest(graph, seed=5)

    mst_result = run_mst()
    ref_edges, ref_weight = mst_reference(graph)
    assert mst_result.extras["edges"] == ref_edges
    assert mst_result.extras["weight"] == ref_weight
    section["mst_session"] = {
        "n": n,
        "rounds": mst_result.rounds,
        "weight": mst_result.extras["weight"],
        "phases": mst_result.extras["phases"],
        "flight_survivors": mst_result.extras["flight_survivors"],
        "constant_round_phases": {
            key: mst_result.extras["phase_rounds"][key]
            for key in ("labels_announce", "boruvka_candidates", "flight_gather")
        },
        "seconds": round(_best_of(run_mst, reps), 4),
    }
    return section


def faults_section(reps: int) -> dict:
    """Encoded-exchange overhead under seeded adversaries (fixed size, gated).

    One min-plus closure (the exact-APSP core) per fault kind on GF(2^16)
    Reed-Solomon striping, against a seeded in-budget adversary (flip /
    drop / crash / byzantine), at one fixed size in every mode.  Every row
    is verified equal to the fault-free oracle before anything is timed --
    the robustness invariant is *no silent wrong answers*, so a row that
    decodes differently is a bug, not a data point.
    ``rounds``/``abstract_rounds`` are deterministic
    (the adversary and the relay assignments are pure functions of the
    seeds) and ``bench_check`` gates them for exact equality; the honest
    redundancy bill is their ratio, ``overhead_factor``, asserted below
    ``2t + 1`` (the price of shipping ``2t + 1`` full copies) on every kind.
    """
    from repro.engine.session import EngineSession, make_clique
    from repro.faults import FaultPlan
    from repro.graphs import apsp_reference, random_weighted_digraph
    from repro.runtime import pad_matrix

    n, t = 16, 1
    graph = random_weighted_digraph(n, 0.35, 9, seed=0)
    weights = graph.weight_matrix()
    oracle = apsp_reference(graph)

    def closure(clique):
        session = EngineSession(clique, "semiring", MIN_PLUS)
        padded = pad_matrix(weights, clique.n, fill=INF)
        np.fill_diagonal(padded, 0)
        return session.closure(padded)[:n, :n]

    section: dict[str, dict] = {}
    baseline = make_clique(n, "semiring")
    assert np.array_equal(closure(baseline), oracle)
    section["fault_free_closure"] = {
        "n": n,
        "rounds": baseline.rounds,
        "seconds": round(_best_of(lambda: closure(make_clique(n, "semiring")), reps), 4),
    }

    for kind in ("flip", "drop", "crash", "byzantine"):
        def run_encoded(kind=kind):
            clique = make_clique(
                n,
                "semiring",
                fault_plan=FaultPlan(t=t, seed=0, kind=kind),
                fault_tolerance=t,
            )
            return clique, closure(clique)

        clique, value = run_encoded()
        assert np.array_equal(value, oracle), f"silent corruption ({kind})"
        assert clique.abstract_meter.rounds == baseline.rounds
        # Striping must stay cheaper than shipping 2t + 1 full copies.
        assert clique.overhead_factor < 2 * t + 1, clique.overhead_factor
        section[f"coded_closure_{kind}"] = {
            "n": n,
            "t": t,
            "scheme": "coded",
            "rounds": clique.meter.rounds,
            "abstract_rounds": clique.abstract_meter.rounds,
            "faults_injected": clique.faults_injected,
            "retries": clique.retries,
            "overhead_factor": round(clique.overhead_factor, 2),
            "seconds": round(_best_of(run_encoded, reps), 4),
        }
    return section


def netsim_section(reps: int) -> dict:
    """Network cost model (PR 10): makespan per topology, fixed size (gated).

    The transport meter is a second, purely observational observer on the
    meter stack, so every row first asserts the invariant that matters:
    rounds and per-phase meters are *bit-identical* to the no-cost-model
    baseline on the identical workload.  Three row families:

    * ``closure_<topology>`` -- one min-plus closure (the exact-APSP core)
      per topology; at equal rounds the alpha-beta makespan must respect
      the bisection ordering ``full <= fat-tree <= ring``, asserted here
      and gated by ``bench_check`` (rows carry a ``topology`` field so the
      gate never compares rows priced on different topologies).
    * ``relay_placement_ring`` -- the scheduling optimisation: a demand
      concentrated on a far-side ring cluster, relayed once through the
      canonical batch-slot intermediates and once through the
      topology-aware assignment.  Rounds are asserted identical (the
      assignment is a round-equivalent degree of freedom); the priced
      makespan must strictly improve.
    * ``coded_closure_<topology>`` -- the Reed-Solomon coded closure with
      a transport observer attached: the encoded exchanges (not the
      abstract bill) are priced, so the redundancy shows up as makespan.
    """
    from repro.engine.session import EngineSession, make_clique
    from repro.faults import FaultPlan
    from repro.graphs import apsp_reference, random_weighted_digraph
    from repro.clique.scheduling import relay_schedule
    from repro.netsim import CostModelSpec, Ring, schedule_makespan
    from repro.runtime import pad_matrix

    n, t = 16, 1
    topologies = ("full", "fat-tree:2", "ring")
    graph = random_weighted_digraph(n, 0.35, 9, seed=0)
    weights = graph.weight_matrix()
    oracle = apsp_reference(graph)

    def closure(clique):
        session = EngineSession(clique, "semiring", MIN_PLUS)
        padded = pad_matrix(weights, clique.n, fill=INF)
        np.fill_diagonal(padded, 0)
        return session.closure(padded)[:n, :n]

    section: dict[str, dict] = {}
    baseline = make_clique(n, "semiring")
    assert np.array_equal(closure(baseline), oracle)

    makespans: dict[str, float] = {}
    for topology in topologies:
        def run(topology=topology):
            clique = make_clique(
                n, "semiring", cost_model=CostModelSpec(topology)
            )
            return clique, closure(clique)

        clique, value = run()
        # The cost model is observational: answers, rounds and the full
        # per-phase meter are bit-identical to the uninstrumented run.
        assert np.array_equal(value, oracle)
        assert clique.meter.rounds == baseline.meter.rounds
        assert clique.meter.phases == baseline.meter.phases
        report = clique.transport.report()
        makespans[topology] = report.makespan_us
        section[f"closure_{topology.replace(':', '')}"] = {
            "n": n,
            "topology": topology,
            "rounds": clique.rounds,
            "makespan_us": round(report.makespan_us, 2),
            "max_link_utilisation": round(report.max_link_utilisation, 4),
            "queueing_share": round(report.queueing_share, 4),
            "seconds": round(_best_of(lambda: run()[0], reps), 4),
        }
    # Equal rounds, monotone makespan in bisection order.
    assert makespans["full"] <= makespans["fat-tree:2"] <= makespans["ring"], (
        makespans
    )

    # Relay-placement optimisation: all-to-all among a far-side cluster.
    ring = Ring(n)
    demand = {
        (u, v): 20 for u in (7, 8, 9) for v in (7, 8, 9) if u != v
    }
    canonical = relay_schedule(dict(demand), n)
    placed = relay_schedule(dict(demand), n, ring)
    assert placed.rounds == canonical.rounds, "placement must not buy rounds"
    base_us = schedule_makespan(canonical, ring)
    placed_us = schedule_makespan(placed, ring)
    assert placed_us < base_us, (base_us, placed_us)
    section["relay_placement_ring"] = {
        "n": n,
        "topology": "ring",
        "rounds": placed.rounds,
        "canonical_makespan_us": round(base_us, 2),
        "placed_makespan_us": round(placed_us, 2),
        "improvement_factor": round(base_us / placed_us, 2),
    }

    # Coded closures priced on the wire: the transport observer sees the
    # actual encoded exchanges, not the hand-billed abstract cost.
    for topology in topologies:
        clique = make_clique(
            n,
            "semiring",
            fault_plan=FaultPlan(t=t, seed=0, kind="byzantine"),
            fault_tolerance=t,
            cost_model=CostModelSpec(topology),
        )
        assert np.array_equal(closure(clique), oracle)
        assert clique.abstract_meter.rounds == baseline.meter.rounds
        section[f"coded_closure_{topology.replace(':', '')}"] = {
            "n": n,
            "t": t,
            "scheme": "coded",
            "topology": topology,
            "rounds": clique.meter.rounds,
            "abstract_rounds": clique.abstract_meter.rounds,
            "makespan_us": round(clique.transport.makespan_us, 2),
        }
    return section


def serve_section(reps: int) -> dict:
    """Serving layer (PR 8), fixed sizes in every mode (gateable).

    Four rows:

    * ``artifact_open`` -- building the ``n = 512`` closure artifact vs
      memory-mapping it back: open is a manifest parse plus three mmap
      calls, O(1) in ``n``.  The deterministic build round bill rides
      along and is gated for exact equality.
    * ``dist_batch`` -- the headline: 10k pair queries answered as one
      fancy-index gather against a per-query Python loop over the same
      memmap; values asserted identical (and the >= 50x target asserted)
      before timing.
    * ``delta_update`` -- a 4-edge decrease batch folded into the resident
      closure by the dirty-strip arm vs a forced full rebuild at
      ``n = 64``: closure values asserted edge-for-edge equal first, both
      deterministic round bills exact-equality gated, and the committed
      ``speedup`` is their *ratio* -- rounds, not wall clock, so the row
      cannot flap.
    * ``query_serving`` -- informational qps/p50/p99 through the asyncio
      batching server via the ``load_serve`` harness (wall-clock latency
      on a shared box: reported, not gated).
    """
    import tempfile
    from pathlib import Path as _Path

    from load_serve import run_load
    from repro.engine.session import EngineSession, make_clique
    from repro.runtime import pad_matrix
    from repro.serve import ClosureArtifact, QueryEngine, apply_edge_updates

    section: dict[str, dict] = {}
    rng = np.random.default_rng(21)
    n = 512

    with tempfile.TemporaryDirectory() as tmp:
        path = _Path(tmp) / "closure-512"
        graph = random_weighted_graph(n, 0.02, max_weight=100, seed=7)
        session = EngineSession(
            make_clique(n, "semiring"), "semiring", MIN_PLUS
        )
        started = time.perf_counter()
        artifact = ClosureArtifact.build(session, graph, path)
        build_s = time.perf_counter() - started
        open_s = _best_of(lambda: ClosureArtifact.open(path), max(reps, 10))
        section["artifact_open"] = {
            "n": n,
            "rounds": artifact.rounds,
            "build_seconds": round(build_s, 4),
            "open_seconds": round(open_s, 6),
            "open_to_build_ratio": round(open_s / build_s, 6),
        }

        # ---- batched gather vs the per-query Python loop. -------------- #
        engine = QueryEngine(artifact)
        pairs = 10_000
        us = rng.integers(0, n, pairs)
        vs = rng.integers(0, n, pairs)

        def loop_queries():
            return [engine.dist(int(u), int(v)) for u, v in zip(us, vs)]

        def batch_queries():
            return engine.dist_batch(us, vs)

        assert np.array_equal(np.array(loop_queries()), batch_queries())
        # Both sides are ~ms-scale, so extra reps are nearly free and keep
        # the best-of stable around the asserted 50x floor.
        loop_s, batch_s = _best_of_pair(
            loop_queries, batch_queries, max(reps, 5)
        )
        speedup = loop_s / batch_s
        assert speedup >= 50, f"batch serving target missed: {speedup:.1f}x"
        section["dist_batch"] = {
            "n": n,
            "pairs": pairs,
            "loop_seconds": round(loop_s, 4),
            "batch_seconds": round(batch_s, 6),
            "speedup": round(speedup, 2),
        }

        # ---- the asyncio batching server under concurrent clients. ----- #
        load = run_load(
            path, clients=8, requests_per_client=100, window=0.001, seed=3
        )
        section["query_serving"] = {
            "clients": 8,
            "requests": load["requests"],
            "qps": load["qps"],
            "p50_ms": load["p50_ms"],
            "p99_ms": load["p99_ms"],
            "mean_batch": load["mean_batch"],
        }

    # ---- dirty-strip delta maintenance vs a full rebuild. -------------- #
    nd, k = 64, 4
    dgraph = random_weighted_graph(nd, 0.3, max_weight=50, seed=9)

    def closed_session():
        session = EngineSession(
            make_clique(nd, "semiring"), "semiring", MIN_PLUS
        )
        weights = pad_matrix(dgraph.weight_matrix(), session.n, fill=INF)
        session.seed_resident(weights)
        session.resident_closure()
        return session, weights

    fast, w_fast = closed_session()
    slow, w_slow = closed_session()
    updates: list[tuple[int, int, int]] = []
    while len(updates) < k:
        u, v = (int(x) for x in rng.integers(0, nd, 2))
        if u == v:
            continue
        current = int(w_fast[u, v])
        if current >= INF:
            updates.append((u, v, 1))  # insertion
        elif current > 1:
            updates.append((u, v, current - 1))  # decrease
    started = time.perf_counter()
    delta = apply_edge_updates(fast, w_fast, updates)
    delta_s = time.perf_counter() - started
    started = time.perf_counter()
    rebuild = apply_edge_updates(slow, w_slow, updates, force_rebuild=True)
    rebuild_s = time.perf_counter() - started
    # The values gate: both arms must agree edge for edge before the round
    # bills are worth comparing at all.
    assert delta.mode == "delta" and rebuild.mode == "rebuild"
    # Values must agree edge for edge; hop tables may break shortest-path
    # ties differently between the two arms, so they are validated by the
    # path-chasing tests rather than compared bit for bit here.
    assert np.array_equal(fast.resident.dist, slow.resident.dist)
    assert delta.rounds < rebuild.rounds
    section["delta_update"] = {
        "n": nd,
        "edges": k,
        "dirty": delta.dirty,
        "rounds": delta.rounds,
        "rebuild_rounds": rebuild.rounds,
        "speedup": round(rebuild.rounds / delta.rounds, 2),
        "delta_seconds": round(delta_s, 4),
        "rebuild_seconds": round(rebuild_s, 4),
    }
    return section


def session_section(apsp_n: int, girth_n: int, reps: int) -> dict:
    """End-to-end engine sessions on the serial executor, cache vs replanning."""
    section: dict[str, dict] = {}
    cpus = os.cpu_count() or 1

    # ---- exact APSP (routing tables) through one min-plus session. ----- #
    graph = random_weighted_graph(apsp_n, 0.05, max_weight=100, seed=2)

    def run_apsp():
        return apsp_exact(graph, clique=CongestedClique(apsp_n))

    serial_run = run_apsp()
    serial_s = _best_of(run_apsp, reps)
    section["apsp_exact_session"] = {
        "n": apsp_n,
        "rounds": serial_run.rounds,
        "squarings": serial_run.extras["squarings"],
        "serial_seconds": round(serial_s, 4),
        "cpus": cpus,
    }

    # ---- directed girth (Boolean doubling) through one session. -------- #
    # A directed n-cycle: girth n, so the Corollary 16 session runs the
    # full ~2 log n Boolean products (doubling + binary search).
    dig = Graph.from_edges(
        girth_n,
        [(i, (i + 1) % girth_n) for i in range(girth_n)],
        directed=True,
    )

    def run_girth():
        clique = CongestedClique(girth_n)
        return girth_directed(dig, method="semiring", clique=clique)

    serial_run = run_girth()
    serial_s = _best_of(run_girth, reps)
    section["girth_directed_session"] = {
        "n": girth_n,
        "rounds": serial_run.rounds,
        "girth": serial_run.value if serial_run.value < INF else "inf",
        "serial_seconds": round(serial_s, 4),
        "cpus": cpus,
    }

    # ---- packed witness kernel vs the retained column walk. ------------ #
    # Fixed size in every mode so bench-check can gate it (like kernel_gate):
    # this is the batch shape one n=512 semiring-engine squaring produces.
    rng = np.random.default_rng(6)
    batch, block = 512, 64
    bx = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    by = rng.integers(0, 1000, (batch, block, block), dtype=np.int64)
    bx[rng.random(bx.shape) < 0.1] = INF
    by[rng.random(by.shape) < 0.1] = INF
    walk = MIN_PLUS._walk_batch_with_witness(bx, by)
    packed = MIN_PLUS.matmul_batch_with_witness(bx, by)
    assert np.array_equal(walk[0], packed[0]) and np.array_equal(walk[1], packed[1])
    walk_s, packed_s = _best_of_pair(
        lambda: MIN_PLUS._walk_batch_with_witness(bx, by),
        lambda: MIN_PLUS.matmul_batch_with_witness(bx, by),
        reps,
    )
    section["witness_kernel"] = {
        "n": batch,
        "block": block,
        "walk_seconds": round(walk_s, 4),
        "packed_seconds": round(packed_s, 4),
        "speedup": round(walk_s / packed_s, 2),
    }

    # ---- session plan cache: plan construction isolated. --------------- #
    # The old row timed 4 products with and without a cache_clear inside
    # the loop -- at n=512 plan construction is milliseconds against
    # seconds of product, so the ratio was pure timer noise (it read 0.98x
    # in the committed PR 3 report).  Measure the two ingredients
    # separately instead: what one plan construction costs, and what the 4
    # warm products cost; the replanned figure is their exact composition.
    s = _distance_matrix(rng, apsp_n)
    t = _distance_matrix(rng, apsp_n)

    def build_plan():
        cube_plan.cache_clear()
        cube_plan(apsp_n)

    def products():
        clique = CongestedClique(apsp_n)
        for step in range(4):
            semiring_matmul(clique, s, t, MIN_PLUS, phase=f"bench/{step}")

    products()  # warm (also re-warms the plan cache after build_plan)
    plan_build_s = _best_of(build_plan, reps)
    cube_plan(apsp_n)  # leave the cache warm for the product timing
    session_s = _best_of(products, reps)
    replanned_s = session_s + 4 * plan_build_s
    section["plan_cache"] = {
        "n": apsp_n,
        "products": 4,
        "plan_build_seconds": round(plan_build_s, 4),
        "session_seconds": round(session_s, 4),
        "replanned_seconds": round(replanned_s, 4),
        "session_reuse_speedup": round(replanned_s / session_s, 2),
    }
    return section


def end_to_end_section(cube_n: int, apsp_n: int, naive_n: int, reps: int) -> dict:
    """Current wall-clock + round numbers for the array-native engines."""
    rng = np.random.default_rng(1)
    section: dict[str, dict] = {}

    s, t = _distance_matrix(rng, cube_n), _distance_matrix(rng, cube_n)

    def run_semiring3d():
        clique = CongestedClique(cube_n)
        semiring_matmul(clique, s, t, MIN_PLUS, with_witnesses=True)
        return clique.rounds

    rounds = run_semiring3d()
    section["semiring3d_minplus_witness"] = {
        "n": cube_n,
        "seconds": round(_best_of(run_semiring3d, reps), 4),
        "rounds": rounds,
    }

    sn, tn = _distance_matrix(rng, naive_n), _distance_matrix(rng, naive_n)

    def run_naive():
        clique = CongestedClique(naive_n)
        broadcast_matmul(clique, sn, tn, MIN_PLUS, with_witnesses=True)
        return clique.rounds

    rounds = run_naive()
    section["naive_minplus_witness"] = {
        "n": naive_n,
        "seconds": round(_best_of(run_naive, reps), 4),
        "rounds": rounds,
    }

    graph = random_weighted_graph(apsp_n, 0.05, max_weight=100, seed=2)

    def run_apsp():
        return apsp_exact(graph, with_routing_tables=True).rounds

    rounds = run_apsp()
    section["apsp_exact_routing_tables"] = {
        "n": apsp_n,
        "seconds": round(_best_of(run_apsp, reps), 4),
        "rounds": rounds,
    }
    return section


def build_report(quick: bool, gate_only: bool = False) -> dict:
    reps = 2 if quick else 3
    kernel_n = 128 if quick else 512
    report = {
        "schema": "repro-perf-report/2",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if not gate_only:
        report["kernel"] = kernel_section(kernel_n, reps)
    # The gate section runs at a fixed n=128 in *both* modes so that
    # `make bench-check` (quick run) always has comparable kernel rows
    # against the committed full report.  It runs here, before the
    # heavy end-to-end section, so full-mode baselines are timed under
    # the same machine conditions as the quick gate runs; in quick mode
    # the headline kernel section already ran at 128, so reuse it.
    report["kernel_gate"] = (
        report["kernel"]
        if not gate_only and kernel_n == 128
        else kernel_section(128, reps)
    )
    # Fixed n=512 in every mode: at 256 the blocked kernel finishes in
    # ~0.5 ms and the speedup ratio is too noisy to gate on.
    report["boolean_product"] = boolean_section(512, reps)
    # Kernel generation 2: every row at a fixed size, gateable in all modes.
    report["kernel2"] = kernel2_section(reps)
    # Kernel generation 3: threaded tiles + persistent packed closures,
    # fixed sizes in every mode, gateable (threaded rows carry cpus/threads
    # so bench_check refuses cross-core-count comparisons).
    report["kernel3"] = kernel3_section(reps)
    # Spanning workloads (PR 5): fixed size, rounds gated for equality.
    report["spanning"] = spanning_section(reps)
    # Fault-injection overhead (PR 6): fixed size, rounds gated for equality.
    report["faults"] = faults_section(reps)
    # Serving layer (PR 8): fixed sizes, batch speedup + exact round gates.
    report["serve"] = serve_section(reps)
    # Network cost model (PR 10): fixed size, equal rounds, monotone
    # makespan ordering across topologies.
    report["netsim"] = netsim_section(reps)
    if gate_only:
        return report
    report["sessions"] = session_section(
        apsp_n=64 if quick else 512,
        girth_n=27 if quick else 216,
        reps=reps,
    )
    report["end_to_end"] = end_to_end_section(
        cube_n=64 if quick else 512,
        apsp_n=30 if quick else 100,
        naive_n=64 if quick else 256,
        reps=reps,
    )
    headline = report["kernel"]["min_plus_block_product"]
    boolean = report["boolean_product"]["boolean_block_product"]
    witness = report["sessions"]["witness_kernel"]
    kernel2 = report["kernel2"]
    report["headline"] = {
        "minplus_block_product_speedup": headline["speedup"],
        "boolean_block_product_speedup": boolean["speedup"],
        "witness_kernel_speedup": witness["speedup"],
        "batch_axis_witness_speedup": kernel2["batch_axis_witness"]["speedup"],
        "packed_boolean_speedup": kernel2["packed_boolean"]["speedup"],
        "maxmin_witness_speedup": kernel2["maxmin_witness"]["speedup"],
        "arena_speedup": kernel2["arena"]["session_reuse_speedup"],
        "packed_persistent_closure_speedup": report["kernel3"][
            "packed_persistent_closure"
        ]["speedup"],
        "threaded_fold_speedup": report["kernel3"]["threaded_fold"]["speedup"],
        "plan_cache_speedup": report["sessions"]["plan_cache"][
            "session_reuse_speedup"
        ],
        "serve_dist_batch_speedup": report["serve"]["dist_batch"]["speedup"],
        "serve_delta_round_speedup": report["serve"]["delta_update"]["speedup"],
        "target_speedup": 5.0,
        "engine_target_speedup": 3.0,
        "packed_boolean_target_speedup": 2.0,
        "meets_target": headline["speedup"] >= 5.0
        and boolean["speedup"] >= 3.0
        and kernel2["packed_boolean"]["speedup"] >= 2.0,
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (~seconds)")
    parser.add_argument(
        "--gate-only",
        action="store_true",
        help="only the fixed-size gateable sections (the bench-quick lane)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_matmul.json"),
        help="output JSON path (default: repo-root BENCH_matmul.json)",
    )
    args = parser.parse_args(argv)

    started = time.time()
    report = build_report(quick=args.quick, gate_only=args.gate_only)
    if args.gate_only:
        # The gate lane never overwrites the committed full report.
        print(json.dumps(report, indent=2))
        print(f"\ngate-only report (wall time {time.time() - started:.1f}s)")
        return 0
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(
        f"\nwrote {args.out} "
        f"(headline min-plus speedup: {report['headline']['minplus_block_product_speedup']}x, "
        f"wall time {time.time() - started:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
