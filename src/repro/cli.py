"""Command-line interface: ``python -m repro <command> ...``.

Gives the reproduction a shell-first surface, so the headline experiments
can be run without writing Python:

* ``table1`` -- the consolidated measured Table 1;
* ``matmul`` -- one distributed product on a chosen engine, with the
  per-phase round bill;
* ``triangles`` / ``four-cycles`` -- subgraph counting/detection on a
  generated workload, against the Dolev baseline;
* ``apsp`` -- a chosen APSP variant on a random weighted digraph;
* ``girth`` -- girth of a generated graph;
* ``spanner`` -- a Baswana-Sen ``(2k-1)``-spanner via session products;
* ``mst`` -- the Jurdzinski-Nowicki O(1)-round MST skeleton;
* ``build-artifact`` / ``query`` / ``update`` / ``serve`` -- the serving
  layer: square a graph to a memory-mapped closure artifact once, then
  answer distance/path queries (point, batched, or over TCP) and apply
  incremental edge updates with zero full rebuilds.

All workloads are seeded and printed with their parameters, so every
invocation is reproducible.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np


def _cmd_table1(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import format_table1, run_table1

    reports = run_table1(scale="full" if args.full else "quick", seed=args.seed)
    print(format_table1(reports))
    return 0


def _make_clique(parser: argparse.ArgumentParser, args: argparse.Namespace, n: int):
    """Build the (possibly robust) clique, or die with usage.

    Centralises the ``--engine`` / ``--threads`` wiring: the clique is
    sized for the chosen engine and carries the local-compute executor
    (and its kernel tile backend) the engine sessions run on.  ``--faults
    T`` additionally installs a seeded adversary corrupting up to ``T``
    relay nodes per exchange *and* the Reed-Solomon coded collectives
    sized to survive it -- the run then either matches the fault-free
    oracle exactly or dies with ``FaultToleranceExceeded``, never silently
    wrong.
    A budget the clique cannot host (too few relays) is a usage error.
    """
    from repro.errors import CliqueModelError
    from repro.runtime import make_clique

    threads = getattr(args, "threads", 1)
    fault_plan = None
    fault_tolerance = None
    if getattr(args, "faults", 0):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan(
            t=args.faults, seed=args.fault_seed, kind=args.fault_kind
        )
        fault_tolerance = args.fault_tolerance or args.faults
    cost_model = None
    if getattr(args, "topology", None):
        from repro.netsim import CostModelSpec

        cost_model = CostModelSpec(
            topology=args.topology,
            link_gbps=args.link_gbps,
            link_latency_us=args.link_latency_us,
        )
    try:
        clique = make_clique(
            n,
            args.engine,
            threads=threads,
            fault_plan=fault_plan,
            fault_tolerance=fault_tolerance,
            cost_model=cost_model,
        )
    except (ValueError, CliqueModelError) as exc:
        parser.error(str(exc))
    return clique


def _print_fault_summary(args: argparse.Namespace, clique) -> None:
    """One line of adversary + redundancy accounting for ``--faults`` runs."""
    if not getattr(args, "faults", 0):
        return
    print(
        f"faults: kind={args.fault_kind} t={args.faults} "
        f"seed={args.fault_seed} injected={clique.faults_injected} "
        f"retries={clique.retries} | encoded rounds={clique.meter.rounds} "
        f"vs abstract {clique.abstract_meter.rounds} "
        f"(overhead {clique.overhead_factor:.2f}x, "
        f"{clique.redundancy_note()})"
    )


def _print_completion_report(args: argparse.Namespace, clique) -> None:
    """The modelled transport completion table for ``--topology`` runs."""
    transport = getattr(clique, "transport", None)
    if transport is None or getattr(args, "json", False):
        return
    print(transport.report().table())


def _print_json_summary(args: argparse.Namespace, clique) -> None:
    """``--json``: the machine-readable meter/fault/completion payload."""
    if not getattr(args, "json", False):
        return
    import json

    payload = {"n": clique.n, "meter": clique.meter.to_dict()}
    if getattr(args, "faults", 0):
        payload["faults"] = {
            "kind": args.fault_kind,
            "t": args.faults,
            "seed": args.fault_seed,
            "injected": clique.faults_injected,
            "retries": clique.retries,
            "overhead_factor": clique.overhead_factor,
            "abstract_meter": clique.abstract_meter.to_dict(),
        }
    transport = getattr(clique, "transport", None)
    if transport is not None:
        payload["completion"] = transport.report().to_dict()
    print(json.dumps(payload))


def _cmd_matmul(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.runtime import EngineSession, pad_matrix

    rng = np.random.default_rng(args.seed)
    n = args.n
    s = rng.integers(-9, 10, (n, n), dtype=np.int64)
    t = rng.integers(-9, 10, (n, n), dtype=np.int64)
    clique = _make_clique(parser, args, n)
    session = EngineSession(clique, args.engine)
    sp, tp = pad_matrix(s, clique.n), pad_matrix(t, clique.n)
    product = session.multiply(sp, tp, phase="cli/matmul")
    ok = np.array_equal(product[:n, :n], s @ t)
    if not getattr(args, "json", False):
        print(f"engine={args.engine} n={n} clique={clique.n} "
              f"rounds={clique.rounds} correct={ok}")
        _print_fault_summary(args, clique)
        print(clique.meter.report())
    _print_completion_report(args, clique)
    _print_json_summary(args, clique)
    return 0 if ok else 1


def _cmd_triangles(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.baselines import dolev_triangle_count
    from repro.graphs import gnp_random_graph, triangle_count_reference
    from repro.subgraphs import count_triangles

    g = gnp_random_graph(args.n, args.p, seed=args.seed)
    clique = _make_clique(parser, args, args.n)
    ours = count_triangles(g, method=args.engine, clique=clique)
    print(f"G(n={args.n}, p={args.p}) seed={args.seed}: "
          f"{ours.value} triangles in {ours.rounds} rounds "
          f"({args.engine} engine, clique {ours.clique_size})")
    want = triangle_count_reference(g)
    ok = ours.value == want
    baseline_ok = True
    if args.baseline:
        prior = dolev_triangle_count(g)
        baseline_ok = prior.value == want
        print(f"Dolev et al. baseline: {prior.value} triangles in "
              f"{prior.rounds} rounds")
        print(f"baseline verified against centralised oracle: {baseline_ok}")
    print(f"verified against centralised oracle: {ok}")
    return 0 if ok and baseline_ok else 1


def _cmd_four_cycles(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.baselines import dolev_four_cycle_detect
    from repro.graphs import bipartite_random_graph, four_cycle_count_reference
    from repro.subgraphs import detect_four_cycles

    if args.degree > args.n:
        # The average degree becomes the edge probability degree / n.
        parser.error(
            f"--degree must be <= n={args.n} (average degree), "
            f"got {args.degree}"
        )
    g = bipartite_random_graph(args.n, args.degree / args.n, seed=args.seed)
    ours = detect_four_cycles(g)
    print(f"bipartite(n={args.n}, avg_deg~{args.degree}) seed={args.seed}: "
          f"C4 present={ours.value} in {ours.rounds} rounds "
          f"(Theorem 4, branch={ours.extras['phase']})")
    want = four_cycle_count_reference(g) > 0
    ok = ours.value == want
    baseline_ok = True
    if args.baseline:
        prior = dolev_four_cycle_detect(g)
        baseline_ok = prior.value == want
        print(f"Dolev et al. baseline: {prior.value} in {prior.rounds} rounds")
        print(f"baseline verified against centralised oracle: {baseline_ok}")
    print(f"verified against centralised oracle: {ok}")
    return 0 if ok and baseline_ok else 1


def _cmd_apsp(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.distances import apsp_approx, apsp_exact, apsp_unweighted
    from repro.graphs import (
        apsp_reference,
        gnp_random_graph,
        random_weighted_digraph,
    )

    # Resolve the engine/variant binding before touching any simulator:
    # exact APSP multiplies over min-plus, which the bilinear engine cannot
    # (Theorem 1 restricts it to rings); the approximate variant *is* the
    # bilinear ring embedding, so it accepts no other engine.
    defaults = {"exact": "semiring", "unweighted": "bilinear", "approx": "bilinear"}
    engine = args.engine or defaults[args.variant]
    if args.variant == "exact" and engine == "bilinear":
        parser.error(
            "apsp --variant exact needs a selection-semiring engine "
            "(--engine semiring or naive); the bilinear engine only "
            "multiplies over rings (use --variant approx for Lemma 20)"
        )
    if args.variant == "approx" and engine != "bilinear":
        parser.error(
            "apsp --variant approx runs on the bilinear ring engine only "
            "(drop --engine or pass --engine bilinear)"
        )
    args.engine = engine
    clique = _make_clique(parser, args, args.n)

    if args.variant == "unweighted":
        g = gnp_random_graph(args.n, 0.25, seed=args.seed)
        result = apsp_unweighted(g, method=engine, clique=clique)
    elif args.variant == "approx":
        g = random_weighted_digraph(args.n, 0.35, args.max_weight, seed=args.seed)
        result = apsp_approx(g, delta=args.delta, clique=clique)
    else:
        g = random_weighted_digraph(args.n, 0.35, args.max_weight, seed=args.seed)
        result = apsp_exact(g, method=engine, clique=clique)
    json_mode = getattr(args, "json", False)
    if not json_mode:
        print(f"APSP variant={args.variant} n={args.n}: {result.rounds} rounds "
              f"on a {result.clique_size}-node clique")
        _print_fault_summary(args, clique)
    reference = apsp_reference(g)
    if args.variant == "approx":
        from repro.constants import INF

        finite = reference < INF
        ratio = float(
            np.max(result.value[finite] / np.maximum(reference[finite], 1))
        ) if finite.any() else 1.0
        if not json_mode:
            print(f"measured ratio {ratio:.4f} "
                  f"(bound {result.extras['ratio_bound']:.4f})")
        ok = ratio <= result.extras["ratio_bound"] + 1e-9
    else:
        ok = np.array_equal(result.value, reference)
        if not json_mode:
            print(f"exact match with Floyd-Warshall oracle: {ok}")
    _print_completion_report(args, clique)
    _print_json_summary(args, clique)
    return 0 if ok else 1


def _cmd_girth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.distances import girth_directed, girth_undirected
    from repro.graphs import (
        cycle_with_trees,
        dense_small_girth_graph,
        girth_reference,
        gnp_random_graph,
    )

    if args.family == "sparse":
        if not 3 <= args.girth <= args.n:
            parser.error(
                f"the sparse family needs 3 <= --girth <= n, got "
                f"--girth {args.girth} with n={args.n}"
            )
        g = cycle_with_trees(args.n, girth=args.girth, seed=args.seed)
    elif args.family == "dense":
        g = dense_small_girth_graph(args.n, seed=args.seed)
    else:
        g = gnp_random_graph(args.n, 0.15, seed=args.seed, directed=True)
    rng = np.random.default_rng(args.seed)
    clique = _make_clique(parser, args, args.n)
    if g.directed:
        result = girth_directed(g, method=args.engine, clique=clique)
        branch = "directed"
    else:
        result = girth_undirected(
            g, method=args.engine, clique=clique,
            trials_per_k=args.trials, rng=rng,
        )
        branch = result.extras["branch"]
    ok = result.value == girth_reference(g)
    print(f"family={args.family} n={args.n}: girth={result.value} "
          f"[{result.rounds} rounds, branch={branch}, verified={ok}]")
    return 0 if ok else 1


def _require_selection_engine(
    parser: argparse.ArgumentParser, args: argparse.Namespace, command: str
) -> None:
    """Die with usage when a min-plus workload is pointed at bilinear."""
    if args.engine == "bilinear":
        parser.error(
            f"{command} runs min-plus session products, which need a "
            "selection-semiring engine (--engine semiring or naive); the "
            "bilinear engine only multiplies over rings (Theorem 1)"
        )


def _cmd_spanner(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.graphs import random_weighted_graph
    from repro.spanning import build_spanner, spanner_stretch

    _require_selection_engine(parser, args, "spanner")
    g = random_weighted_graph(args.n, args.p, args.max_weight, seed=args.seed)
    clique = _make_clique(parser, args, args.n)
    result = build_spanner(
        g, args.k, method=args.engine, clique=clique, seed=args.seed
    )
    stretch = spanner_stretch(g, result.value)
    bound = result.extras["stretch_bound"]
    ok = stretch <= bound + 1e-9
    print(
        f"G(n={args.n}, p={args.p}) seed={args.seed}: "
        f"({2 * args.k - 1})-spanner with {result.extras['spanner_edges']} "
        f"of {g.edge_count} edges in {result.rounds} rounds "
        f"({args.engine} engine, clique {result.clique_size})"
    )
    print(f"measured stretch {stretch:.4f} (bound {bound}) verified={ok}")
    return 0 if ok else 1


def _cmd_mst(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.graphs import random_weighted_graph
    from repro.spanning import minimum_spanning_forest, mst_reference

    _require_selection_engine(parser, args, "mst")
    g = random_weighted_graph(args.n, args.p, args.max_weight, seed=args.seed)
    clique = _make_clique(parser, args, args.n)
    result = minimum_spanning_forest(
        g,
        method=args.engine,
        clique=clique,
        seed=args.seed,
        boruvka_phases=args.phases,
    )
    edges, weight = mst_reference(g)
    ok = result.extras["edges"] == edges
    if not getattr(args, "json", False):
        print(
            f"G(n={args.n}, p={args.p}) seed={args.seed}: MSF weight "
            f"{result.extras['weight']} ({len(result.extras['edges'])} edges) "
            f"in {result.rounds} rounds ({args.engine} engine, clique "
            f"{result.clique_size}, {result.extras['phases']} phases, "
            f"{result.extras['flight_survivors']} F-light survivors)"
        )
        print(
            f"exact match with Kruskal oracle (weight {weight}): {ok}"
        )
        _print_fault_summary(args, clique)
    _print_completion_report(args, clique)
    _print_json_summary(args, clique)
    return 0 if ok else 1


def _cmd_build_artifact(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.algebra.semirings import MIN_PLUS
    from repro.graphs import random_weighted_digraph, random_weighted_graph
    from repro.runtime import EngineSession
    from repro.serve import ClosureArtifact

    _require_selection_engine(parser, args, "build-artifact")
    generator = random_weighted_digraph if args.directed else random_weighted_graph
    g = generator(args.n, args.p, args.max_weight, seed=args.seed)
    clique = _make_clique(parser, args, args.n)
    session = EngineSession(clique, args.engine, MIN_PLUS)
    # A degraded build (FaultToleranceExceeded) still writes its refusal
    # manifest, then propagates to main()'s exit-2 path.
    artifact = ClosureArtifact.build(session, g, args.out)
    if not getattr(args, "json", False):
        print(
            f"artifact {args.out}: n={artifact.n} clique={clique.n} "
            f"rounds={artifact.rounds} generation={artifact.generation} "
            f"graph={artifact.graph_hash[:12]} ({args.engine} engine)"
        )
        _print_fault_summary(args, clique)
    _print_completion_report(args, clique)
    _print_json_summary(args, clique)
    return 0


def _open_artifact(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    *,
    writable: bool = False,
):
    """Open the artifact or die with usage (degraded propagates)."""
    from repro.serve import ArtifactError, ClosureArtifact

    try:
        return ClosureArtifact.open(args.artifact, writable=writable)
    except ArtifactError as exc:
        # Missing directory, version/hash/layout mismatch: a usage error.
        # A degraded build (FaultToleranceExceeded) propagates to main(),
        # which exits 2 as well.
        parser.error(f"cannot open artifact: {exc}")


def _cmd_query(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.constants import INF
    from repro.serve import QueryEngine

    artifact = _open_artifact(parser, args)
    for node in (args.u, args.v):
        if not 0 <= node < artifact.n:
            parser.error(f"node {node} out of range [0, {artifact.n})")
    engine = QueryEngine(artifact)
    d = engine.dist(args.u, args.v)
    shown = "inf" if d >= INF else d
    print(
        f"artifact n={artifact.n} generation={artifact.generation}: "
        f"dist({args.u}, {args.v}) = {shown}"
    )
    if args.path:
        path = engine.path(args.u, args.v)
        print(
            "path: " + (" -> ".join(str(x) for x in path) if path else "(unreachable)")
        )
    if args.ecc:
        ecc = engine.ecc(args.u)
        print(f"ecc({args.u}) = {'inf' if ecc >= INF else ecc}")
    return 0


def _cmd_update(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.algebra.semirings import MIN_PLUS
    from repro.errors import NegativeCycleError
    from repro.runtime import EngineSession
    from repro.serve import apply_edge_updates
    from repro.serve.delta import normalise_updates

    _require_selection_engine(parser, args, "update")
    artifact = _open_artifact(parser, args, writable=True)
    try:
        normalise_updates(args.edge, artifact.n)
    except ValueError as exc:
        parser.error(str(exc))
    clique = _make_clique(parser, args, artifact.n)
    session = EngineSession(clique, args.engine, MIN_PLUS)
    dist, next_hop = artifact.resident_arrays(clique.n)
    session.seed_resident(dist, next_hop=next_hop)
    weights = artifact.padded_weights(clique.n)
    try:
        report = apply_edge_updates(
            session,
            weights,
            args.edge,
            artifact=artifact,
            force_rebuild=args.rebuild,
        )
    except NegativeCycleError as exc:
        print(f"update rejected: {exc}", file=sys.stderr)
        return 1
    print(
        f"update mode={report.mode} edges={report.updates} "
        f"dirty={report.dirty} rounds={report.rounds} "
        f"improved={report.improved if report.improved >= 0 else 'n/a'} "
        f"generation={report.generation}"
        + (f" ({report.rebuild_reason})" if report.rebuild_reason else "")
    )
    _print_fault_summary(args, clique)
    return 0


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import asyncio

    from repro.serve import BatchingServer, QueryEngine

    artifact = _open_artifact(parser, args)
    engine = QueryEngine(artifact)

    async def run() -> None:
        server = BatchingServer(
            engine,
            window=args.window,
            max_requests=args.max_requests or None,
        )
        host, port = await server.start(args.host, args.port)
        print(
            f"serving {args.artifact} (n={engine.n}, "
            f"generation={artifact.generation}) on {host}:{port}",
            flush=True,
        )
        if server.max_requests is None:
            await asyncio.Event().wait()  # forever; Ctrl-C to stop
        else:
            await server.done.wait()
            await server.close()
            stats = server.stats
            print(
                f"served {stats.requests} requests in {stats.batches} "
                f"batches (largest {stats.largest_batch})"
            )

    asyncio.run(run())
    return 0


def _edge_type(value: str) -> tuple[int, int, int]:
    """Argparse type for ``--edge u,v,w`` (``w = inf`` deletes the edge)."""
    from repro.constants import INF

    parts = value.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--edge wants 'u,v,weight', got {value!r}"
        )
    try:
        u, v = int(parts[0]), int(parts[1])
        w = INF if parts[2].strip().lower() == "inf" else int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--edge wants integer endpoints and an integer (or 'inf') "
            f"weight, got {value!r}"
        )
    return u, v, w


def _bounded_type(
    cast: type,
    minimum: float,
    name: str,
    noun: str,
    maximum: float | None = None,
    *,
    exclusive: bool = False,
):
    """Argparse type factory for a finite number ``>= minimum``.

    ``exclusive`` makes the lower bound strict (``> minimum``) and
    ``maximum`` adds an inclusive upper bound.  A value that can never be
    valid (a 1-node clique, a zero stretch parameter, a negative fault
    budget, a probability above 1) dies at parse time as a usage error
    naming it, in every subcommand -- never as a traceback deep inside a
    run, and never as a run on a meaningless value.
    """

    def parse(value: str):
        try:
            parsed = cast(value)
        except ValueError:
            parsed = math.nan
        if not math.isfinite(parsed):
            raise argparse.ArgumentTypeError(f"invalid {noun} {value!r}")
        above = parsed > minimum if exclusive else parsed >= minimum
        if above and (maximum is None or parsed <= maximum):
            return parsed
        if maximum is None:
            bound = f"{'>' if exclusive else '>='} {minimum}"
        else:
            bound = f"in {'(' if exclusive else '['}{minimum}, {maximum}]"
        raise argparse.ArgumentTypeError(
            f"{name} must be {bound} ({noun}), got {parsed}"
        )

    return parse


_int_at_least = partial(_bounded_type, int)
_float_at_least = partial(_bounded_type, float)


#: Clique commands need ``n >= 2``: the model has no 1-node clique.
_clique_size_type = _int_at_least(2, "n", "node count")
_threads_type = _int_at_least(1, "--threads", "thread count")
_phases_type = _int_at_least(0, "--phases", "phase count")
_max_weight_type = _int_at_least(1, "--max-weight", "largest edge weight")
_faults_type = _int_at_least(0, "--faults", "corrupt relays per exchange")
_fault_tolerance_type = _int_at_least(
    0, "--fault-tolerance", "tolerated corrupt relays"
)
_fault_seed_type = _int_at_least(0, "--fault-seed", "adversary seed")
_probability_type = _float_at_least(0, "--p", "edge probability", 1)


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    """The ``--faults`` / ``--fault-tolerance`` / ``--fault-seed`` / ``--fault-kind`` group.

    ``--faults T`` runs the workload on Reed-Solomon coded collectives
    against a seeded adversary corrupting up to ``T`` relay nodes in every
    array exchange: each piece travels as ``k`` data + ``2T`` parity
    stripes over GF(2^16) on distinct relays, at a round overhead toward
    ``n / (n - 2T)``.  The answer is guaranteed to equal the fault-free
    oracle or the run dies with ``FaultToleranceExceeded`` -- never a
    silent wrong answer.  The redundancy is billed honestly and reported
    next to the abstract (fault-free) meter.
    """
    p.add_argument(
        "--faults",
        type=_faults_type,
        default=0,
        metavar="T",
        help="tolerate up to T corrupt relay nodes per exchange via "
        "Reed-Solomon coded collectives (default: 0, fault-free model)",
    )
    p.add_argument(
        "--fault-tolerance",
        type=_fault_tolerance_type,
        default=0,
        metavar="T",
        help="size the code for T corrupt relays instead of matching "
        "--faults; under-provisioning (T < --faults) demos the "
        "detect-retry-degrade path (default: match --faults)",
    )
    p.add_argument(
        "--fault-seed",
        type=_fault_seed_type,
        default=0,
        help="seed of the deterministic adversary (default: %(default)s)",
    )
    p.add_argument(
        "--fault-kind",
        choices=["flip", "drop", "crash", "byzantine"],
        default="flip",
        help="corruption behaviour: word flips, per-exchange message "
        "drops, monotone crash-stop, or a fixed byzantine node set "
        "corrupting every exchange it relays (default: %(default)s)",
    )


def _add_engine_flags(
    p: argparse.ArgumentParser,
    *,
    default: str | None = "bilinear",
) -> None:
    """The shared ``--engine`` / ``--threads`` pair.

    ``--threads T`` runs the simulator's kernel tiles on a ``T``-thread
    tile backend (kernel generation 3): the packed Boolean and packed
    min-plus/max-min witness kernels fan out, bilinear ring products stay
    serial.  Answers and round charges are identical to the serial
    default, only wall clock changes.
    """
    p.add_argument(
        "--engine",
        choices=["semiring", "bilinear", "naive"],
        default=default,
        help="matmul engine the session binds (default: %(default)s)",
    )
    p.add_argument(
        "--threads",
        type=_threads_type,
        default=1,
        metavar="T",
        help="threads for the packed Boolean and packed min-plus/max-min "
        "witness kernels; bilinear ring products stay serial "
        "(default: serial tiles)",
    )


def _add_netsim_flags(p: argparse.ArgumentParser) -> None:
    """The ``--topology`` / ``--link-gbps`` / ``--link-latency-us`` group.

    ``--topology`` attaches a transport cost model (:mod:`repro.netsim`)
    as a second, purely observational meter: the workload's answers,
    rounds, words and per-phase meters are bit-identical with or without
    it; the run additionally prints a completion report (per-phase
    alpha-beta makespan, bottleneck-link utilisation, queueing share) for
    the chosen topology.  ``--json`` emits the meter + fault + completion
    summaries as one machine-readable JSON object instead of tables.
    """
    p.add_argument(
        "--topology",
        default=None,
        metavar="{full,ring,fat-tree:k}",
        help="model transport on this topology and print the completion "
        "report (default: no cost model)",
    )
    p.add_argument(
        "--link-gbps",
        type=_float_at_least(0, "--link-gbps", "bandwidth", exclusive=True),
        default=100.0,
        metavar="G",
        help="modelled per-link bandwidth in Gbit/s (default: %(default)s)",
    )
    p.add_argument(
        "--link-latency-us",
        type=_float_at_least(0, "--link-latency-us", "latency"),
        default=1.0,
        metavar="US",
        help="modelled per-hop latency in microseconds (default: %(default)s)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the meter/fault/completion summaries as JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Algebraic Methods in the Congested Clique -- reproduction CLI",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="print the consolidated measured Table 1")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=_cmd_table1, parser=p)

    p = sub.add_parser("matmul", help="one distributed matrix product")
    p.add_argument("n", type=_clique_size_type)
    _add_engine_flags(p)
    _add_fault_flags(p)
    _add_netsim_flags(p)
    p.set_defaults(func=_cmd_matmul, parser=p)

    p = sub.add_parser("triangles", help="triangle counting on G(n, p)")
    p.add_argument("n", type=_clique_size_type)
    p.add_argument("--p", type=_probability_type, default=0.3)
    _add_engine_flags(p)
    p.add_argument("--baseline", action="store_true", help="also run Dolev et al.")
    p.set_defaults(func=_cmd_triangles, parser=p)

    p = sub.add_parser("four-cycles", help="O(1)-round 4-cycle detection")
    p.add_argument("n", type=_int_at_least(1, "n", "node count"))
    p.add_argument(
        "--degree",
        type=_float_at_least(0, "--degree", "average degree"),
        default=4.0,
    )
    p.add_argument("--baseline", action="store_true")
    p.set_defaults(func=_cmd_four_cycles, parser=p)

    p = sub.add_parser("apsp", help="all-pairs shortest paths")
    p.add_argument("n", type=_clique_size_type)
    p.add_argument(
        "--variant", choices=["exact", "unweighted", "approx"], default="exact"
    )
    p.add_argument("--max-weight", type=_max_weight_type, default=9)
    p.add_argument(
        "--delta",
        type=_float_at_least(0, "--delta", "approximation slack", exclusive=True),
        default=0.3,
    )
    # Engine default depends on the variant (exact -> semiring,
    # unweighted/approx -> bilinear); resolved in _cmd_apsp.
    _add_engine_flags(p, default=None)
    _add_fault_flags(p)
    _add_netsim_flags(p)
    p.set_defaults(func=_cmd_apsp, parser=p)

    p = sub.add_parser("girth", help="girth computation")
    p.add_argument("n", type=_clique_size_type)
    p.add_argument(
        "--family", choices=["sparse", "dense", "directed"], default="sparse"
    )
    p.add_argument("--girth", type=int, default=7)
    p.add_argument(
        "--trials",
        type=_int_at_least(1, "--trials", "trials per cycle length"),
        default=10,
    )
    _add_engine_flags(p)
    p.set_defaults(func=_cmd_girth, parser=p)

    p = sub.add_parser(
        "spanner", help="a (2k-1)-spanner via session cluster-growing"
    )
    p.add_argument("n", type=_clique_size_type)
    p.add_argument(
        "--k",
        type=_int_at_least(1, "--k", "stretch parameter"),
        default=2,
        help="stretch parameter",
    )
    p.add_argument("--p", type=_probability_type, default=0.35)
    p.add_argument("--max-weight", type=_max_weight_type, default=30)
    _add_engine_flags(p, default="semiring")
    p.set_defaults(func=_cmd_spanner, parser=p)

    p = sub.add_parser(
        "mst", help="minimum spanning forest (O(1)-round KKT skeleton)"
    )
    p.add_argument("n", type=_clique_size_type)
    p.add_argument("--p", type=_probability_type, default=0.3)
    p.add_argument("--max-weight", type=_max_weight_type, default=50)
    p.add_argument(
        "--phases",
        type=_phases_type,
        default=2,
        help="Boruvka phases before sampling (>= 0)",
    )
    _add_engine_flags(p, default="semiring")
    _add_fault_flags(p)
    _add_netsim_flags(p)
    p.set_defaults(func=_cmd_mst, parser=p)

    p = sub.add_parser(
        "build-artifact",
        help="square a seeded random graph to closure and materialise it "
        "as a memory-mapped serving artifact",
    )
    p.add_argument("n", type=_clique_size_type)
    p.add_argument("out", help="artifact directory to create/overwrite")
    p.add_argument("--p", type=_probability_type, default=0.25)
    p.add_argument("--max-weight", type=_max_weight_type, default=50)
    p.add_argument("--directed", action="store_true")
    _add_engine_flags(p, default="semiring")
    _add_fault_flags(p)
    _add_netsim_flags(p)
    p.set_defaults(func=_cmd_build_artifact, parser=p)

    p = sub.add_parser(
        "query",
        help="answer one distance/path query from an artifact "
        "(zero engine work)",
    )
    p.add_argument("artifact", help="artifact directory")
    p.add_argument("u", type=int)
    p.add_argument("v", type=int)
    p.add_argument("--path", action="store_true", help="also reconstruct a path")
    p.add_argument("--ecc", action="store_true", help="also print ecc(u)")
    p.set_defaults(func=_cmd_query, parser=p)

    p = sub.add_parser(
        "update",
        help="apply edge updates to an artifact (dirty-strip delta "
        "re-squaring; full rebuild only on weight increases)",
    )
    p.add_argument("artifact", help="artifact directory (rewritten in place)")
    p.add_argument(
        "--edge",
        type=_edge_type,
        action="append",
        required=True,
        metavar="U,V,W",
        help="edge update (repeatable); weight 'inf' deletes the edge",
    )
    p.add_argument(
        "--rebuild",
        action="store_true",
        help="force the full-rebuild arm (baseline for the delta bill)",
    )
    _add_engine_flags(p, default="semiring")
    _add_fault_flags(p)
    p.set_defaults(func=_cmd_update, parser=p)

    p = sub.add_parser(
        "serve",
        help="serve an artifact's queries over TCP/JSON-lines with "
        "windowed micro-batching",
    )
    p.add_argument("artifact", help="artifact directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=_int_at_least(0, "--port", "TCP port", 65535),
        default=0,
        help="0 picks a free port",
    )
    p.add_argument(
        "--window",
        type=_float_at_least(0, "--window", "batching window"),
        default=0.001,
        help="batching window in seconds (default: %(default)s)",
    )
    p.add_argument(
        "--max-requests",
        type=_int_at_least(0, "--max-requests", "request budget"),
        default=0,
        help="exit after N requests (0 = serve forever); the smoke-test hook",
    )
    p.set_defaults(func=_cmd_serve, parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.errors import FaultToleranceExceeded

    try:
        return args.func(args, args.parser)
    except FaultToleranceExceeded as exc:
        # The degrade arm of detect-retry-degrade: an adversary beyond the
        # encoded budget stops the run loudly -- never a silent wrong answer.
        print(f"fault tolerance exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
