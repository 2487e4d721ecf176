"""The benchmark's workloads: seeded inputs, set-up, ops and oracles.

Each workload is one closed loop with a single caller.  The harness
(:mod:`run`) asks a workload for its next :class:`Op`, times only
``op.call()``, and afterwards -- outside the timed span -- calls
``op.finish(result)``, which checks the answer against an oracle and reads
the op's exact counts (rounds, words, injected faults, priced makespan)
off the system's own meters.  Graphs, fault plans and request streams are
pure functions of the workload seed; the program only ever sees the
generated inputs.

``SIZES["full"]`` are the measured sizes; ``SIZES["tiny"]`` runs the same
code paths in well under a second for the self-check.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Problem sizes per workload; ``p`` is the edge probability of the
#: generated graph.  At ``p = 0.05`` the ``n >= 216`` graphs are connected
#: for every seed in practice; connectivity is asserted, never assumed.
SIZES: dict[str, dict[str, dict[str, float]]] = {
    "full": {
        "apsp-exact": {"n": 512, "p": 0.05},
        "apsp-exact-t2": {"n": 512, "p": 0.05},
        "coded-closure": {"n": 216, "p": 0.1},
        "serve-mixed": {
            "n": 512, "p": 0.05, "dist_pairs": 4096, "path_pairs": 64, "edges": 4,
        },
    },
    "tiny": {
        "apsp-exact": {"n": 27, "p": 0.3},
        "apsp-exact-t2": {"n": 27, "p": 0.3},
        "coded-closure": {"n": 27, "p": 0.3},
        "serve-mixed": {
            "n": 64, "p": 0.2, "dist_pairs": 256, "path_pairs": 16, "edges": 4,
        },
    },
}

#: Edge weights are drawn uniformly from ``1 .. MAX_WEIGHT``.
MAX_WEIGHT = 100

#: serve-mixed request mix per cycle of ten: dist_batch, path_batch, update.
MIX = {"dist": 6, "path": 3, "update": 1}



@dataclass
class Op:
    """One request: ``call`` is timed, ``finish`` is not.

    ``finish(result)`` returns ``(error, counts)``: ``error`` is ``None``
    when the answer matches the oracle; ``counts`` are the op's meter
    readings (the harness requires its exact ones to repeat op for op).
    ``targets`` lists the ``(owner, attribute, span name, counts)`` calls
    a traced op wraps (see :meth:`spans.Tracer.wrap`).
    """

    kind: str
    call: Callable[[], Any]
    finish: Callable[[Any], tuple[str | None, dict]]
    targets: list[tuple] = field(default_factory=list)


def _graph(size: dict, seed: int):
    from repro.graphs import random_weighted_graph

    return random_weighted_graph(size["n"], size["p"], max_weight=MAX_WEIGHT, seed=seed)


def _routing_error(weights: np.ndarray, dist: np.ndarray, hops: np.ndarray) -> str | None:
    """Vectorised next-hop check: ``dist[u,v] == w[u,h] + dist[h,v]``.

    With positive weights every hop strictly shortens the remaining
    distance, so a table passing this check routes every pair along a
    shortest path.
    """
    from repro import INF

    n = dist.shape[0]
    off = ~np.eye(n, dtype=bool) & (dist < INF)
    u, v = np.nonzero(off)
    h = hops[u, v]
    if np.any((h < 0) | (h >= n)):
        return "routing table has an invalid hop for a reachable pair"
    step = weights[u, h]
    if np.any(step >= INF) or np.any(step + dist[h, v] != dist[u, v]):
        return "routing table hop is not on a shortest path"
    return None


# ---------------------------------------------------------------------- #
# Exact APSP: serial, threaded, and coded + priced
# ---------------------------------------------------------------------- #


class ApspWorkload:
    """``apsp_exact`` with routing tables; each op on a freshly built clique.

    A fresh clique per op (built outside the timed span) restarts the
    meters and the fault layer's exchange counter, so rounds, words,
    injected faults and the priced makespan repeat exactly from op to op.
    """

    principal = "apsp"

    def __init__(self, name: str, size: dict, seed: int, threads: int) -> None:
        self.name = name
        self.size = size
        self.n = size["n"]
        self.threads = threads
        self.seed = seed
        self.coded = name == "coded-closure"
        self.free_phases: list | None = None

    def prepare(self) -> None:
        """Inputs and the distance oracle (before set-up, untimed)."""
        from repro import INF
        from repro.graphs import apsp_reference

        self.graph = _graph(self.size, self.seed)
        self.weights = self.graph.weight_matrix()
        self.oracle = apsp_reference(self.graph)
        if np.any(self.oracle >= INF):
            raise RuntimeError(f"seed {self.seed} drew a disconnected graph")

    def _clique(self):
        from repro import make_clique

        if not self.coded:
            return make_clique(self.n, "semiring", threads=self.threads)
        from repro.faults import FaultPlan
        from repro.netsim import CostModelSpec

        return make_clique(
            self.n,
            "semiring",
            threads=self.threads,
            fault_plan=FaultPlan(t=1, seed=self.seed, kind="byzantine"),
            fault_tolerance=1,
            fault_scheme="coded",
            cost_model=CostModelSpec("ring"),
        )

    def setup(self) -> list[Op]:
        """Construction is per op here; the set-up is the warm-up op."""
        return [self.next_op()]

    def setup_targets(self) -> list[tuple]:
        return []

    def after_setup(self) -> None:
        """The fault-free bill the coded clique's abstract meter must match.

        Run after the set-up timer stops, so the warm-up op still meets
        cold plan caches.
        """
        if self.coded:
            from repro import apsp_exact, make_clique

            free = apsp_exact(self.graph, clique=make_clique(self.n, "semiring"))
            self.free_phases = list(free.meter.phases)

    def next_op(self) -> Op:
        from repro import apsp_exact
        import repro.faults.protocol as protocol

        clique = self._clique()

        def finish(result) -> tuple[str | None, dict]:
            counts = {
                "rounds": clique.meter.rounds,
                "words": clique.meter.words,
                "charges": len(clique.meter.phases),
            }
            if self.coded:
                counts.update(
                    abstract_rounds=clique.abstract_meter.rounds,
                    injected=clique.faults_injected,
                    retries=clique.retries,
                    makespan_us=clique.transport.makespan_us,
                    priced_phases=len(clique.transport.completions),
                )
            if not np.array_equal(result.value, self.oracle):
                return "distances differ from apsp_reference", counts
            error = _routing_error(self.weights, result.value, result.extras["next_hop"])
            if error:
                return error, counts
            if self.coded and clique.abstract_meter.phases != self.free_phases:
                return "abstract bill differs from the fault-free bill", counts
            return None, counts

        targets = _clique_targets(clique)
        if self.coded:
            targets += [
                (protocol, "encode_stripes", "coding.encode", None),
                (protocol, "decode_stripes", "coding.decode", None),
                (protocol, "corrupt_pieces", "faults.inject", None),
                (clique.transport, "observe", "pricing.observe", None),
            ]
        return Op(
            "apsp",
            lambda: apsp_exact(self.graph, clique=clique),
            finish,
            targets,
        )

    def final_check(self) -> str | None:
        return None

    def cleanup(self) -> None:
        pass


#: Array collectives of the clique model timed as the exchange layer.
_COLLECTIVES = (
    "route_array",
    "route_array_take",
    "send_array",
    "broadcast_rows",
    "allgather_rows",
    "transpose_array",
)


def _clique_targets(clique) -> list[tuple]:
    """The clique's collectives, its executor, its meter stack, and the
    min-plus kernel the delta strips call directly."""
    from repro.algebra import MIN_PLUS

    targets = [(clique, name, f"exchange.{name}", None) for name in _COLLECTIVES]
    targets += [
        (clique.executor, name, f"kernel.{name}", None)
        for name in ("semiring_products", "ring_products", "boolean_packed_products")
    ]
    targets.append((MIN_PLUS, "matmul_with_witness", "kernel.matmul_with_witness", None))
    targets.append((clique.meters, "charge", "metering.charge", None))
    return targets


# ---------------------------------------------------------------------- #
# Serving: a seeded read/write mix against a writable closure artifact
# ---------------------------------------------------------------------- #


class ServeWorkload:
    """One caller issuing dist_batch / path_batch / update requests.

    The oracle is independent of the engine: distances start from
    ``apsp_reference`` and every decrease/insert is folded in by the
    single-edge relaxation ``D' = min(D, D[:,u] + w + D[v,:])`` (both
    orientations, the graphs are undirected), which is exact for
    decreases.
    """

    principal = "update"

    def __init__(self, name: str, size: dict, seed: int, workdir: Path) -> None:
        self.name = name
        self.n = size["n"]
        self.size = size
        self.seed = seed
        self.path = workdir / f"serve-{seed}"
        self.rng = np.random.default_rng((seed, 1))
        self.cycle: list[str] = []

    def prepare(self) -> None:
        from repro import INF
        from repro.graphs import apsp_reference

        self.graph = _graph(self.size, self.seed)
        self.oracle_w = self.graph.weight_matrix().copy()
        self.oracle_d = apsp_reference(self.graph)
        if np.any(self.oracle_d >= INF):
            raise RuntimeError(f"seed {self.seed} drew a disconnected graph")
        if self.path.exists():
            shutil.rmtree(self.path)

    def setup(self) -> list[Op]:
        """Build and open the artifact; warm up with one request per kind."""
        from repro import MIN_PLUS, ClosureArtifact, QueryEngine, make_clique
        from repro.engine import EngineSession

        self.session = EngineSession(make_clique(self.n, "semiring"), "semiring", MIN_PLUS)
        ClosureArtifact.build(self.session, self.graph, self.path)
        self.artifact = ClosureArtifact.open(self.path, writable=True)
        self.engine = QueryEngine(self.artifact)
        self.weights = self.artifact.padded_weights(self.session.n)
        return [self._op(kind) for kind in ("dist", "path", "update")]

    def setup_targets(self) -> list[tuple]:
        from repro import ClosureArtifact

        return [
            (ClosureArtifact, "build", "serve.build", None),
            (ClosureArtifact, "open", "serve.open", None),
        ]

    def after_setup(self) -> None:
        pass

    def next_op(self) -> Op:
        return self._op(self.next_kind())

    def next_kind(self) -> str:
        """The request stream: each cycle of ten is a seeded shuffle of MIX."""
        if not self.cycle:
            cycle = [kind for kind, share in MIX.items() for _ in range(share)]
            self.cycle = [cycle[i] for i in self.rng.permutation(len(cycle))]
        return self.cycle.pop()

    def _pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        return self.rng.integers(0, self.n, count), self.rng.integers(0, self.n, count)

    def _op(self, kind: str) -> Op:
        if kind == "dist":
            us, vs = self._pairs(self.size["dist_pairs"])
            return Op(
                "dist",
                lambda: self.engine.dist_batch(us, vs),
                lambda got: (self._check_dist(us, vs, got), {}),
                [(self.engine, "dist_batch", "serve.dist", _pair_count)],
            )
        if kind == "path":
            us, vs = self._pairs(self.size["path_pairs"])
            return Op(
                "path",
                lambda: self.engine.path_batch(us, vs),
                lambda got: (self._check_paths(us, vs, got), {}),
                [(self.engine, "path_batch", "serve.path", _pair_count)],
            )
        return self._update_op()

    def _update_op(self) -> Op:
        import repro.serve.delta as delta
        from repro import INF

        ends = self.rng.choice(self.n, 2 * self.size["edges"], replace=False)
        edges = []
        for u, v in ends.reshape(-1, 2):
            current = int(self.oracle_w[u, v])
            top = current if current < INF else MAX_WEIGHT
            edges.append((int(u), int(v), int(self.rng.integers(1, top + 1))))
        meter = self.session.meter
        mark = meter.snapshot()

        def call():
            return delta.apply_edge_updates(
                self.session, self.weights, edges, artifact=self.artifact
            )

        def finish(report) -> tuple[str | None, dict]:
            counts = {"rounds": report.rounds, "words": meter.words_since(mark)}
            self._relax(edges)
            if report.mode != "delta":
                return f"update left the delta arm ({report.rebuild_reason})", counts
            if not np.array_equal(self.artifact.dist, self.oracle_d):
                return "artifact distances differ from the relaxation oracle", counts
            return None, {**counts, "improved": report.improved}

        targets = _clique_targets(self.session.clique) + [
            (delta, "apply_edge_updates", "serve.delta", None),
            (self.artifact, "commit_update", "serve.commit", _rows_rewritten),
        ]
        return Op("update", call, finish, targets)

    # -- oracles -----------------------------------------------------------

    def _relax(self, edges) -> None:
        d = self.oracle_d
        for u, v, w in edges:
            self.oracle_w[u, v] = self.oracle_w[v, u] = min(self.oracle_w[u, v], w)
            for a, b in ((u, v), (v, u)):
                np.minimum(d, d[:, a, None] + w + d[None, b, :], out=d)

    def _check_dist(self, us, vs, got) -> str | None:
        if not np.array_equal(np.asarray(got), self.oracle_d[us, vs]):
            return "dist_batch answer differs from the oracle"
        return None

    def _check_paths(self, us, vs, paths) -> str | None:
        for u, v, path in zip(us, vs, paths):
            nodes = np.asarray(path, dtype=np.int64)
            if nodes.size == 0 or nodes[0] != u or nodes[-1] != v:
                return f"path {u}->{v} has wrong endpoints"
            if int(self.oracle_w[nodes[:-1], nodes[1:]].sum()) != self.oracle_d[u, v]:
                return f"path {u}->{v} does not weigh the oracle distance"
        return None

    def final_check(self) -> str | None:
        """The final blocks against ``apsp_reference`` of the final weights."""
        from repro import INF, Graph
        from repro.graphs import apsp_reference

        adjacency = (self.oracle_w < INF).astype(np.int64)
        np.fill_diagonal(adjacency, 0)
        graph = Graph(n=self.n, adjacency=adjacency, directed=False,
                      weights=np.where(adjacency > 0, self.oracle_w, 0))
        reference = apsp_reference(graph)
        if not np.array_equal(np.asarray(self.artifact.dist), reference):
            return "final artifact distances differ from apsp_reference"
        if not np.array_equal(np.asarray(self.artifact.weights), graph.weight_matrix()):
            return "final artifact weights differ from the applied updates"
        return _routing_error(graph.weight_matrix(), reference, np.asarray(self.artifact.next_hop))

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def _pair_count(args, kwargs, result) -> dict:
    return {"pairs": len(args[0])}


def _rows_rewritten(args, kwargs, result) -> dict:
    return {"rows": int(np.asarray(kwargs["rows"]).size)}


def make_workload(name: str, size: str, seed: int, threads: int, workdir: Path):
    spec = SIZES[size][name]
    if name == "serve-mixed":
        return ServeWorkload(name, spec, seed, workdir)
    return ApspWorkload(name, spec, seed, threads)
