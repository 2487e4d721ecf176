"""The serving layer: artifacts, batch queries, delta maintenance, faults.

Four seams, each pinned against an oracle:

* **Artifacts** round-trip the resident closure bit-for-bit through raw
  int64 blocks + manifest, open as read-only memmaps in O(1), and refuse
  foreign/newer/mismatched/degraded manifests loudly;
* **Queries** reconstruct paths whose weights equal the closure distance
  and whose edges exist, validated against NetworkX ``shortest_path``
  across seeds and densities -- including disconnected pairs, where INF
  is an answer (empty path), never an exception;
* **Delta updates** match a from-scratch rebuild edge-for-edge while
  billing strictly fewer rounds for small dirty sets, and write back only
  touched artifact rows;
* the **fault seam** carries PR 6's no-silent-wrong-answers invariant
  across the build/serve boundary: degraded builds are recorded in the
  manifest and refuse to serve.

The asyncio server tests are marked ``serve`` and excluded from the fast
lane (run with ``-m serve``).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.semirings import MAX_MIN, MIN_PLUS
from repro.constants import INF
from repro.engine import EngineSession, make_clique
from repro.errors import FaultToleranceExceeded, NegativeCycleError, ReproError
from repro.faults import FaultPlan
from repro.graphs import (
    apsp_reference,
    random_weighted_digraph,
    random_weighted_graph,
)
from repro.runtime import pad_matrix
from repro.serve import (
    ARTIFACT_VERSION,
    ArtifactError,
    BatchingServer,
    ClosureArtifact,
    QueryEngine,
    RoutingCycleError,
    apply_edge_updates,
    graph_fingerprint,
)
from repro.serve.app import request_line
from repro.serve.artifact import MANIFEST_NAME

nx = pytest.importorskip("networkx", reason="NetworkX oracle unavailable")


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _session(n: int, engine: str = "semiring", **clique_kwargs) -> EngineSession:
    clique = make_clique(n, engine, **clique_kwargs)
    return EngineSession(clique, engine, MIN_PLUS)


def _build(
    tmp_path,
    n: int = 16,
    p: float = 0.3,
    seed: int = 3,
    *,
    directed: bool = False,
    max_weight: int = 30,
    name: str = "artifact",
    engine: str = "semiring",
):
    maker = random_weighted_digraph if directed else random_weighted_graph
    graph = maker(n, p, max_weight=max_weight, seed=seed)
    session = _session(n, engine)
    artifact = ClosureArtifact.build(session, graph, tmp_path / name)
    return graph, session, artifact


def _nx_graph(graph):
    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.n))
    w = graph.weight_matrix()
    rows, cols = np.nonzero(graph.adjacency)
    for u, v in zip(rows, cols):
        g.add_edge(int(u), int(v), weight=int(w[u, v]))
    return g


def _assert_valid_path(graph, weights, u, v, dist, path):
    """The satellite invariant: weight(path) == closure distance, edges real."""
    if dist >= INF:
        assert path == []
        return
    if u == v:
        assert path == [u]
        return
    assert path[0] == u and path[-1] == v
    total = 0
    for a, b in zip(path, path[1:]):
        assert weights[a, b] < INF, (a, b)
        total += int(weights[a, b])
    assert total == dist


# --------------------------------------------------------------------- #
# Artifacts: build / open / refuse
# --------------------------------------------------------------------- #


class TestArtifact:
    def test_roundtrip_matches_reference(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=18, p=0.3, seed=7)
        assert np.array_equal(artifact.dist, apsp_reference(graph))
        assert artifact.n == 18
        assert artifact.generation == 0
        assert artifact.rounds > 0
        assert artifact.graph_hash == graph_fingerprint(graph)
        assert np.array_equal(artifact.weights, graph.weight_matrix())
        # On-disk routing convention: diagonal is -1, entries are in-range.
        diag = np.diagonal(artifact.next_hop)
        assert np.all(diag == -1)

    def test_open_is_readonly_memmap(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=10)
        reopened = ClosureArtifact.open(artifact.path)
        assert isinstance(reopened.dist, np.memmap)
        assert not reopened.writable
        with pytest.raises(ValueError):
            reopened.dist[0, 0] = 1  # read-only mapping

    def test_expect_graph_accepts_and_refuses(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=12, seed=1)
        ClosureArtifact.open(artifact.path, expect_graph=graph)
        other = random_weighted_graph(12, 0.3, max_weight=30, seed=2)
        with pytest.raises(ArtifactError, match="graph hash mismatch"):
            ClosureArtifact.open(artifact.path, expect_graph=other)

    def test_refuses_foreign_and_newer_manifests(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=8)
        manifest_path = artifact.path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())

        manifest["version"] = ARTIFACT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="version"):
            ClosureArtifact.open(artifact.path)

        manifest["version"] = ARTIFACT_VERSION
        manifest["format"] = "something-else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="not a closure artifact"):
            ClosureArtifact.open(artifact.path)

        manifest_path.write_text("{not json")
        with pytest.raises(ArtifactError, match="unreadable"):
            ClosureArtifact.open(artifact.path)

        manifest_path.unlink()
        with pytest.raises(ArtifactError, match="no artifact manifest"):
            ClosureArtifact.open(artifact.path)

    def test_refuses_truncated_block(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=8)
        block = artifact.path / "dist.bin"
        block.write_bytes(block.read_bytes()[:-8])
        with pytest.raises(ArtifactError, match="bytes"):
            ClosureArtifact.open(artifact.path)

    def test_verify_hash_catches_tampered_weights(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=8)
        ClosureArtifact.open(artifact.path, verify_hash=True)
        block = artifact.path / "weights.bin"
        raw = bytearray(block.read_bytes())
        raw[8] ^= 0xFF
        block.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="does not match"):
            ClosureArtifact.open(artifact.path, verify_hash=True)

    def test_build_refuses_undersized_session(self, tmp_path):
        graph = random_weighted_graph(16, 0.3, max_weight=10, seed=0)
        session = _session(8)
        with pytest.raises(ValueError, match="too small"):
            ClosureArtifact.build(session, graph, tmp_path / "a")

    def test_build_refuses_weights_that_reach_inf(self, tmp_path):
        """A weight whose (n - 1)-edge paths reach INF is refused before the
        session runs or the directory is created."""
        graph = random_weighted_digraph(12, 0.35, 2**62 - 1, seed=0)
        session = _session(12)
        with pytest.raises(ValueError, match="largest accepted weight is"):
            ClosureArtifact.build(session, graph, tmp_path / "heavy")
        assert not (tmp_path / "heavy").exists()
        assert session.rounds == 0 and session.resident is None

    def test_build_detects_negative_cycle(self, tmp_path):
        graph = random_weighted_graph(8, 0.9, max_weight=10, seed=4)
        graph.weights[graph.adjacency == 1] = -1  # any cycle is negative
        with pytest.raises(NegativeCycleError):
            ClosureArtifact.build(_session(8), graph, tmp_path / "neg")

    def test_directed_artifact(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=14, p=0.25, seed=9, directed=True)
        assert artifact.directed
        assert np.array_equal(artifact.dist, apsp_reference(graph))


# --------------------------------------------------------------------- #
# The fault seam across the build/serve boundary
# --------------------------------------------------------------------- #


class TestFaultSeam:
    def test_coded_build_records_tolerance(self, tmp_path):
        """The manifest records the adversary and the code's tolerance, so
        a later reader can audit how a served closure was protected."""
        graph = random_weighted_graph(12, 0.3, max_weight=20, seed=6)
        plan = FaultPlan(t=1, seed=11, kind="byzantine")
        session = _session(12, fault_plan=plan, fault_tolerance=1)
        artifact = ClosureArtifact.build(session, graph, tmp_path / "coded")
        faults = artifact.manifest["faults"]
        assert set(faults) == {
            "kind", "t", "seed", "injected", "protected",
            "tolerance", "retries", "abstract_rounds",
        }
        assert faults["protected"] is True
        assert faults["t"] == 1
        assert faults["tolerance"] == 1
        assert faults["kind"] == "byzantine"
        assert faults["abstract_rounds"] <= artifact.rounds
        # Robustness is invisible in the values: same closure as fault-free.
        assert np.array_equal(artifact.dist, apsp_reference(graph))

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(min_value=0, max_value=10**6))
    def test_unprotected_faulted_build_degrades_and_refuses(self, tmp_path, seed):
        """Property: whenever the adversary lands a fault on an unprotected
        build, the artifact is marked degraded and every open refuses it."""
        graph = random_weighted_graph(10, 0.5, max_weight=20, seed=seed)
        plan = FaultPlan(t=2, seed=seed)
        session = _session(10, fault_plan=plan)
        path = tmp_path / f"faulty-{seed}"
        try:
            artifact = ClosureArtifact.build(session, graph, path)
        except ReproError:
            # Whether the corruption surfaced as FaultToleranceExceeded or
            # as a model error inside the closure, the manifest records it.
            manifest = json.loads((path / MANIFEST_NAME).read_text())
            assert manifest["status"] == "degraded"
            assert manifest["faults"]["injected"] > 0
            assert not manifest["faults"]["protected"]
            with pytest.raises(FaultToleranceExceeded, match="refuses to serve"):
                ClosureArtifact.open(path)
        else:
            # The adversary happened to miss every exchange: values stand.
            assert artifact.manifest["faults"]["injected"] == 0
            assert np.array_equal(artifact.dist, apsp_reference(graph))

    def test_exceeded_tolerance_writes_degraded_manifest(self, tmp_path):
        graph = random_weighted_graph(16, 0.4, max_weight=20, seed=2)
        plan = FaultPlan(t=5, seed=3)
        session = _session(16, fault_plan=plan, fault_tolerance=1)
        path = tmp_path / "degraded"
        with pytest.raises(FaultToleranceExceeded):
            ClosureArtifact.build(session, graph, path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["status"] == "degraded"
        assert manifest["faults"]["protected"] is True
        with pytest.raises(FaultToleranceExceeded, match="degraded"):
            ClosureArtifact.open(path)
        with pytest.raises(FaultToleranceExceeded):
            # Even a writable open (the delta path) must refuse.
            ClosureArtifact.open(path, writable=True)


# --------------------------------------------------------------------- #
# Queries: paths pinned to closure distances and the NetworkX oracle
# --------------------------------------------------------------------- #


class TestQueries:
    @pytest.mark.parametrize(
        "n,p,seed",
        [
            (16, 0.05, 0),  # sparse: most pairs disconnected
            (16, 0.15, 1),
            (20, 0.4, 2),
            (14, 0.8, 3),
        ],
    )
    def test_all_pairs_paths_match_networkx(self, tmp_path, n, p, seed):
        graph, _, artifact = _build(tmp_path, n=n, p=p, seed=seed)
        engine = QueryEngine(artifact)
        oracle = _nx_graph(graph)
        weights = graph.weight_matrix()
        lengths = dict(nx.all_pairs_dijkstra_path_length(oracle))
        for u in range(n):
            for v in range(n):
                dist = engine.dist(u, v)
                path = engine.path(u, v)
                if v not in lengths[u]:
                    # Disconnected: INF is an answer, not an exception.
                    assert dist >= INF
                    assert path == []
                    continue
                assert dist == lengths[u][v]
                _assert_valid_path(graph, weights, u, v, dist, path)

    def test_directed_paths_respect_orientation(self, tmp_path):
        graph, _, artifact = _build(
            tmp_path, n=14, p=0.2, seed=5, directed=True
        )
        engine = QueryEngine(artifact)
        oracle = _nx_graph(graph)
        weights = graph.weight_matrix()
        lengths = dict(nx.all_pairs_dijkstra_path_length(oracle))
        for u in range(14):
            for v in range(14):
                dist = engine.dist(u, v)
                path = engine.path(u, v)
                if v not in lengths[u]:
                    assert dist >= INF and path == []
                else:
                    assert dist == lengths[u][v]
                    _assert_valid_path(graph, weights, u, v, dist, path)

    def test_batches_match_point_queries(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=16, p=0.2, seed=8)
        engine = QueryEngine(artifact)
        rng = np.random.default_rng(8)
        us = rng.integers(0, 16, 300)
        vs = rng.integers(0, 16, 300)
        dists = engine.dist_batch(us, vs)
        paths = engine.path_batch(us, vs)
        for u, v, d, path in zip(us, vs, dists, paths):
            assert int(d) == engine.dist(int(u), int(v))
            assert path == engine.path(int(u), int(v))
        eccs = engine.ecc_batch(np.arange(16))
        for u in range(16):
            assert int(eccs[u]) == engine.ecc(u)
            assert np.array_equal(engine.row(u), np.array(artifact.dist[u]))

    def test_bounds_and_shape_validation(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=8)
        engine = QueryEngine(artifact)
        with pytest.raises(ValueError, match="out of range"):
            engine.dist(0, 8)
        with pytest.raises(ValueError, match="out of range"):
            engine.path(-1, 0)
        with pytest.raises(ValueError, match="out of range"):
            engine.ecc(99)
        with pytest.raises(ValueError, match="out of range"):
            engine.dist_batch(np.array([0, 8]), np.array([1, 2]))
        with pytest.raises(ValueError, match="equal-length"):
            engine.dist_batch(np.array([0, 1]), np.array([1]))
        with pytest.raises(ValueError, match="out of range"):
            engine.ecc_batch(np.array([-3]))

    def test_corrupt_routing_table_fails_loudly(self, tmp_path):
        _, _, artifact = _build(tmp_path, n=10, p=0.6, seed=4)
        writable = ClosureArtifact.open(artifact.path, writable=True)
        finite = np.argwhere(
            (np.array(writable.dist) < INF)
            & ~np.eye(10, dtype=bool)
        )
        u, v = (int(x) for x in finite[0])
        writable.next_hop[u, v] = u  # self-loop: the chase never advances
        writable.next_hop.flush()
        engine = QueryEngine(ClosureArtifact.open(artifact.path))
        with pytest.raises(RoutingCycleError, match="exceeded"):
            engine.path(u, v)
        with pytest.raises(RoutingCycleError):
            engine.path_batch(np.array([u]), np.array([v]))
        writable.next_hop[u, v] = -1  # dead end mid-chase
        writable.next_hop.flush()
        engine = QueryEngine(ClosureArtifact.open(artifact.path))
        with pytest.raises(RoutingCycleError, match="dead-end"):
            engine.path(u, v)

    @pytest.mark.parametrize("hop", [999, -5])
    def test_hop_outside_the_node_range_names_the_pair(self, tmp_path, hop):
        """A routing entry that is no node id is refused before it is used
        as an index, by the point and the batched chase alike."""
        _, _, artifact = _build(tmp_path, n=10, p=0.6, seed=4)
        writable = ClosureArtifact.open(artifact.path, writable=True)
        u, v = 0, 9
        assert 0 < writable.dist[u, v] < INF
        writable.next_hop[u, v] = hop
        writable.next_hop.flush()
        engine = QueryEngine(ClosureArtifact.open(artifact.path))
        named = f"{u} -> {v}: hop {hop} is outside \\[0, 10\\)"
        with pytest.raises(RoutingCycleError, match=named):
            engine.path(u, v)
        with pytest.raises(RoutingCycleError, match=named):
            engine.path_batch(np.array([1, u]), np.array([2, v]))

    def test_corrupt_hop_fails_only_its_pair_in_a_server_window(self, tmp_path):
        """One batching window holds an intact pair and a pair whose chase
        meets a corrupt hop: the intact pair is answered with its path."""
        _, _, artifact = _build(tmp_path, n=10, p=0.6, seed=4)
        writable = ClosureArtifact.open(artifact.path, writable=True)
        writable.next_hop[0, 9] = 999
        writable.next_hop.flush()
        engine = QueryEngine(ClosureArtifact.open(artifact.path))

        async def one_window():
            loop = asyncio.get_running_loop()
            batch = [
                ({"op": "path", "u": u, "v": v, "id": i}, loop.create_future())
                for i, (u, v) in enumerate([(1, 2), (0, 9)])
            ]
            BatchingServer(engine)._flush(batch)
            return [future.result() for _, future in batch]

        intact, corrupt = asyncio.run(one_window())
        assert intact == {
            "ok": True,
            "id": 0,
            "dist": _json_or_none(engine.dist(1, 2)),
            "path": engine.path(1, 2),
        }
        assert corrupt["ok"] is False and corrupt["id"] == 1
        assert "0 -> 9: hop 999 is outside [0, 10)" in corrupt["error"]


# --------------------------------------------------------------------- #
# Delta maintenance: dirty strips == full rebuild, fewer rounds
# --------------------------------------------------------------------- #


def _closed_session(graph):
    """A session with the graph's closure resident, plus its padded weights."""
    session = _session(graph.n)
    weights = pad_matrix(graph.weight_matrix(), session.n, fill=INF)
    session.seed_resident(weights)
    session.resident_closure()
    return session, weights


def _random_decreases(rng, graph, weights, k):
    """k random decreases/insertions (u, v, w') against current weights."""
    n = graph.n
    updates = []
    while len(updates) < k:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u == v:
            continue
        current = int(weights[u, v])
        new = int(rng.integers(1, 10)) if current >= INF else max(
            1, current - int(rng.integers(1, max(2, current)))
        )
        if new >= current:
            continue
        updates.append((u, v, new))
    return updates


def _chase(dist, hops, u, v, n):
    """Reconstruct a path from working-convention resident arrays."""
    if u == v:
        return [u]
    if dist[u, v] >= INF:
        return []
    path = [u]
    cur = u
    for _ in range(n):
        cur = int(hops[cur, v])
        path.append(cur)
        if cur == v:
            return path
    raise AssertionError(f"chase {u}->{v} did not terminate")


class TestDelta:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_delta_equals_rebuild_with_fewer_rounds(self, seed):
        """The acceptance property: k <= 8 updated edges maintained by the
        dirty-strip arm produce the identical closure (values *and* valid
        routing) as a from-scratch rebuild, in strictly fewer rounds."""
        rng = np.random.default_rng(seed)
        n = int(rng.choice([12, 16]))
        graph = random_weighted_graph(
            n, float(rng.choice([0.2, 0.4])), max_weight=30, seed=seed
        )
        k = int(rng.integers(1, 9))

        fast, weights_fast = _closed_session(graph)
        slow, weights_slow = _closed_session(graph)
        updates = _random_decreases(rng, graph, weights_fast, k)

        delta = apply_edge_updates(fast, weights_fast, updates)
        rebuild = apply_edge_updates(
            slow, weights_slow, updates, force_rebuild=True
        )
        assert delta.mode == "delta"
        assert rebuild.mode == "rebuild"
        assert rebuild.rebuild_reason == "forced"
        assert np.array_equal(weights_fast, weights_slow)
        # Edge-for-edge identical closure values...
        assert np.array_equal(fast.resident.dist, slow.resident.dist)
        # ...reached in strictly fewer rounds for a small dirty set.
        assert delta.rounds < rebuild.rounds
        assert delta.dirty <= 2 * k
        # The maintained routing table reconstructs consistent paths.
        dist = fast.resident.dist
        hops = fast.resident.next_hop
        for u in range(n):
            for v in range(n):
                path = _chase(dist, hops, u, v, fast.n)
                if not path:
                    continue
                total = sum(
                    int(weights_fast[a, b]) for a, b in zip(path, path[1:])
                )
                assert total == int(dist[u, v]), (u, v, path)

    def test_increase_falls_back_to_rebuild(self, tmp_path):
        graph = random_weighted_graph(12, 0.5, max_weight=20, seed=3)
        session, weights = _closed_session(graph)
        edges = np.argwhere(graph.adjacency)
        u, v = (int(x) for x in edges[0])
        report = apply_edge_updates(
            session, weights, [(u, v, int(weights[u, v]) + 5)]
        )
        assert report.mode == "rebuild"
        assert "increase" in report.rebuild_reason
        # The rebuilt closure equals the oracle of the updated graph.
        graph.weights[u, v] = graph.weights[v, u] = graph.weights[u, v] + 5
        assert np.array_equal(
            session.resident.dist[:12, :12], apsp_reference(graph)
        )

    def test_deletion_falls_back_to_rebuild(self):
        graph = random_weighted_graph(10, 0.6, max_weight=15, seed=6)
        session, weights = _closed_session(graph)
        edges = np.argwhere(graph.adjacency)
        u, v = (int(x) for x in edges[0])
        report = apply_edge_updates(session, weights, [(u, v, INF)])
        assert report.mode == "rebuild"
        graph.adjacency[u, v] = graph.adjacency[v, u] = 0
        assert np.array_equal(
            session.resident.dist[:10, :10], apsp_reference(graph)
        )

    @pytest.mark.parametrize("force_rebuild", [False, True], ids=["delta", "rebuild"])
    def test_negative_cycle_rejected_before_mutation(self, force_rebuild):
        """A rejected update leaves the caller's weights and the resident
        closure (generation included) exactly as they were, in both arms."""
        graph = random_weighted_graph(10, 0.5, max_weight=15, seed=7)
        session, weights = _closed_session(graph)
        state = session.resident
        before = state.dist.copy()
        hops_before = state.next_hop.copy()
        generation = state.generation
        weights_before = weights.copy()
        with pytest.raises(NegativeCycleError):
            # An undirected negative edge is a negative 2-cycle.
            apply_edge_updates(
                session, weights, [(0, 1, -5)], force_rebuild=force_rebuild
            )
        assert session.resident is state
        assert np.array_equal(state.dist, before)
        assert np.array_equal(state.next_hop, hops_before)
        assert state.generation == generation
        assert np.array_equal(weights, weights_before)

    def test_update_validation(self):
        graph = random_weighted_graph(8, 0.5, max_weight=10, seed=8)
        session, weights = _closed_session(graph)
        with pytest.raises(ValueError, match="self-loop"):
            apply_edge_updates(session, weights, [(2, 2, 1)])
        with pytest.raises(ValueError, match="out of range"):
            apply_edge_updates(session, weights, [(0, 99, 1)])
        with pytest.raises(ValueError, match="triple"):
            apply_edge_updates(session, weights, [(0, 1)])
        with pytest.raises(ValueError, match="no edge updates"):
            apply_edge_updates(session, weights, [])
        with pytest.raises(ValueError, match="padded"):
            apply_edge_updates(session, weights[:4, :4], [(0, 1, 1)])
        # A weight whose 7-edge paths reach INF on n=8 would saturate them;
        # it is refused before the weights or the closure change.
        state = session.resident
        generation, weights_before = state.generation, weights.copy()
        heavy = (INF - 1) // 7 + 1
        with pytest.raises(ValueError, match=f"accepted weight is {heavy - 1}"):
            apply_edge_updates(session, weights, [(0, 1, -heavy)])
        assert session.resident is state and state.generation == generation
        assert np.array_equal(weights, weights_before)
        session.drop_resident()
        with pytest.raises(RuntimeError, match="resident"):
            apply_edge_updates(session, weights, [(0, 1, 1)])

    def test_wrong_algebra_rejected(self):
        clique = make_clique(8, "semiring")
        session = EngineSession(clique, "semiring", MAX_MIN)
        session.seed_resident(np.zeros((session.n, session.n), dtype=np.int64))
        with pytest.raises(ValueError, match="min-plus"):
            apply_edge_updates(
                session,
                np.zeros((session.n, session.n), dtype=np.int64),
                [(0, 1, 1)],
            )

    def test_artifact_commit_roundtrip(self, tmp_path):
        """Delta write-back: only touched rows rewritten, generation bumped,
        and the reopened artifact equals a from-scratch build of the
        updated graph (including the recomputed graph hash)."""
        graph, _, artifact = _build(tmp_path, n=14, p=0.3, seed=10)
        writable = ClosureArtifact.open(artifact.path, writable=True)

        session = _session(14)
        dist, hops = writable.resident_arrays(session.n)
        session.seed_resident(dist, next_hop=hops)
        weights = writable.padded_weights(session.n)

        rng = np.random.default_rng(10)
        updates = _random_decreases(rng, graph, weights, 4)
        report = apply_edge_updates(
            session, weights, updates, artifact=writable
        )
        assert report.mode == "delta"
        assert report.generation == 1

        reopened = ClosureArtifact.open(artifact.path, verify_hash=True)
        assert reopened.generation == 1
        assert reopened.manifest["last_update"]["mode"] == "delta"
        assert reopened.rounds == artifact.rounds + report.rounds

        # Oracle: rebuild the updated graph from scratch.
        for u, v, w in updates:
            graph.adjacency[u, v] = graph.adjacency[v, u] = 1
            graph.weights[u, v] = graph.weights[v, u] = w
        fresh_session = _session(14)
        fresh = ClosureArtifact.build(fresh_session, graph, tmp_path / "fresh")
        assert np.array_equal(reopened.dist, fresh.dist)
        assert np.array_equal(reopened.weights, fresh.weights)
        assert reopened.graph_hash == fresh.graph_hash
        # Paths served from the updated artifact are valid at new weights.
        engine = QueryEngine(reopened)
        w = graph.weight_matrix()
        for u in range(14):
            for v in range(14):
                _assert_valid_path(
                    graph, w, u, v, engine.dist(u, v), engine.path(u, v)
                )

    def test_commit_requires_writable(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=8, p=0.5, seed=11)
        session = _session(8)
        dist, hops = artifact.resident_arrays(session.n)
        session.seed_resident(dist, next_hop=hops)
        weights = artifact.padded_weights(session.n)
        with pytest.raises(ArtifactError, match="read-only"):
            apply_edge_updates(
                session, weights, [(0, 1, 1)], artifact=artifact
            )


# --------------------------------------------------------------------- #
# The batching server (serve lane: excluded from the fast lane)
# --------------------------------------------------------------------- #


def _json_or_none(value: int) -> int | None:
    return None if value >= INF else int(value)


async def _raw_request(reader, writer, line: bytes) -> dict:
    """Send one raw request line and read exactly one reply line."""
    writer.write(line + b"\n")
    await writer.drain()
    reply = await reader.readline()
    assert reply, "the server closed the connection"
    return json.loads(reply)


#: Node ids of the 12-node ``served`` artifact.
_IDS = st.integers(min_value=0, max_value=11)
_VALID = st.one_of(
    st.builds(lambda u, v: {"op": "dist", "u": u, "v": v}, _IDS, _IDS),
    st.builds(lambda u, v: {"op": "path", "u": u, "v": v}, _IDS, _IDS),
    st.builds(lambda u: {"op": "ecc", "u": u}, _IDS),
)
#: Values no node-id field accepts.
_BAD_ID = st.one_of(
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.integers(max_value=-1),
    st.integers(min_value=12, max_value=10**30),
    st.lists(st.integers(), max_size=2),
)
_MALFORMED = st.one_of(
    st.builds(
        lambda request, field, value: json.dumps(
            {**request, field: value}
        ).encode(),
        _VALID,
        st.just("u"),
        _BAD_ID,
    ),
    st.builds(
        lambda op, u, value: json.dumps({"op": op, "u": u, "v": value}).encode(),
        st.sampled_from(["dist", "path"]),
        _IDS,
        _BAD_ID,
    ),
    st.sampled_from(
        [
            b"not json",
            b"[1, 2]",
            b'"a string"',
            b'{"op": "nope"}',
            b'{"op": "dist"}',
            b'{"op": "path", "u": 0}',
            b'{"op":"dist","u":1e400,"v":5}',
            b'{"op":"dist","u":-1e400,"v":5}',
            b'{"op":"dist","u":NaN,"v":5}',
            b"\xff\xfe",
            b"[" * 5000 + b"]" * 5000,
            b'{"op": "dist", "u": ' + b"9" * 5000 + b', "v": 1}',
        ]
    ),
)
_STREAM_ITEM = st.one_of(
    st.tuples(st.just("valid"), _VALID), st.tuples(st.just("raw"), _MALFORMED)
)


@pytest.mark.serve
class TestBatchingServer:
    @pytest.fixture()
    def served(self, tmp_path):
        graph, _, artifact = _build(tmp_path, n=12, p=0.3, seed=13)
        return graph, QueryEngine(artifact)

    def test_protocol_answers_match_engine(self, served):
        graph, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.002)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for u in range(graph.n):
                    for v in range(0, graph.n, 3):
                        reply = await request_line(
                            reader, writer, {"op": "dist", "u": u, "v": v}
                        )
                        want = engine.dist(u, v)
                        assert reply["ok"]
                        assert reply["dist"] == (
                            None if want >= INF else want
                        )
                        reply = await request_line(
                            reader,
                            writer,
                            {"op": "path", "u": u, "v": v, "id": 7},
                        )
                        assert reply["ok"] and reply["id"] == 7
                        assert reply["path"] == engine.path(u, v)
                reply = await request_line(
                    reader, writer, {"op": "ecc", "u": 0}
                )
                want = engine.ecc(0)
                assert reply["ecc"] == (None if want >= INF else want)
                reply = await request_line(reader, writer, {"op": "stats"})
                assert reply["stats"]["requests"] > 0
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_concurrent_clients_are_batched(self, served):
        graph, engine = served

        async def client(host, port, seed):
            rng = np.random.default_rng(seed)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(20):
                    u, v = (int(x) for x in rng.integers(0, graph.n, 2))
                    reply = await request_line(
                        reader, writer, {"op": "dist", "u": u, "v": v}
                    )
                    want = engine.dist(u, v)
                    assert reply["dist"] == (None if want >= INF else want)
            finally:
                writer.close()

        async def scenario():
            server = BatchingServer(engine, window=0.01)
            host, port = await server.start()
            try:
                await asyncio.gather(
                    *(client(host, port, s) for s in range(8))
                )
            finally:
                await server.close()
            stats = server.stats.as_dict()
            assert stats["requests"] == 160
            assert stats["batches"] < stats["requests"]  # batching happened
            assert stats["largest_batch"] > 1

        asyncio.run(scenario())

    def test_error_responses(self, served):
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.001)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert not reply["ok"] and "bad JSON" in reply["error"]

                reply = await request_line(reader, writer, {"op": "nope"})
                assert not reply["ok"] and "unknown op" in reply["error"]

                reply = await request_line(
                    reader, writer, {"op": "dist", "u": 0, "v": 999}
                )
                assert not reply["ok"] and "out of range" in reply["error"]

                reply = await request_line(reader, writer, {"op": "dist"})
                assert not reply["ok"]
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_max_requests_sets_done(self, served):
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.001, max_requests=3)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for _ in range(3):
                    await request_line(
                        reader, writer, {"op": "dist", "u": 0, "v": 1}
                    )
                await asyncio.wait_for(server.done.wait(), timeout=5)
            finally:
                writer.close()
                await server.close()

        asyncio.run(scenario())

    def test_non_finite_node_id_does_not_stop_the_dispatcher(self, served):
        """``u: 1e400`` parses to an infinite float; it is refused, and a
        later request from another client is still answered."""
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.001)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            other = await asyncio.open_connection(host, port)
            try:
                reply = await asyncio.wait_for(
                    _raw_request(reader, writer, b'{"op":"dist","u":1e400,"v":5}'),
                    5,
                )
                assert not reply["ok"] and "'u'" in reply["error"]
                reply = await asyncio.wait_for(
                    request_line(*other, {"op": "dist", "u": 0, "v": 5}), 5
                )
                assert reply["ok"] and reply["dist"] == _json_or_none(
                    engine.dist(0, 5)
                )
            finally:
                writer.close()
                other[1].close()
                await asyncio.wait_for(server.close(), 5)

        asyncio.run(scenario())

    def test_failing_batch_is_answered_and_dispatcher_survives(
        self, served, monkeypatch
    ):
        """An engine error inside a batch answers that batch with errors;
        the next batch is served normally."""
        _, engine = served
        calls = []
        dist_batch = engine.dist_batch

        def failing_once(us, vs):
            calls.append(len(us))
            if len(calls) == 1:
                raise RuntimeError("engine failure")
            return dist_batch(us, vs)

        monkeypatch.setattr(engine, "dist_batch", failing_once)

        async def scenario():
            server = BatchingServer(engine, window=0.001)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                request = {"op": "dist", "u": 0, "v": 5, "id": 1}
                reply = await asyncio.wait_for(
                    request_line(reader, writer, request), 5
                )
                assert reply == {
                    "ok": False,
                    "id": 1,
                    "error": "internal error: engine failure",
                }
                reply = await asyncio.wait_for(
                    request_line(reader, writer, request), 5
                )
                assert reply["ok"] and reply["dist"] == _json_or_none(
                    dist_batch([0], [5])[0]
                )
            finally:
                writer.close()
                await asyncio.wait_for(server.close(), 5)

        asyncio.run(scenario())

    @pytest.mark.parametrize("field", ["u", "v"])
    @pytest.mark.parametrize("value", [1.7, 1.0, "3", True, False, None, [1]])
    def test_node_ids_must_be_json_integers(self, served, field, value):
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.001)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                request = {"op": "dist", "u": 1, "v": 2, field: value}
                reply = await asyncio.wait_for(
                    request_line(reader, writer, request), 5
                )
                assert not reply["ok"] and repr(field) in reply["error"]
            finally:
                writer.close()
                await asyncio.wait_for(server.close(), 5)

        asyncio.run(scenario())

    def test_over_long_line_is_answered_and_closed(self, served):
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.001)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                long_id = "x" * (70 * 1024)
                line = json.dumps({"op": "dist", "u": 0, "v": 1, "id": long_id})
                reply = await asyncio.wait_for(
                    _raw_request(reader, writer, line.encode()), 5
                )
                assert not reply["ok"] and "longer than" in reply["error"]
                assert await asyncio.wait_for(reader.read(), 5) == b""
                # The server keeps serving other connections.
                fresh = await asyncio.open_connection(host, port)
                reply = await asyncio.wait_for(
                    request_line(*fresh, {"op": "ecc", "u": 0}), 5
                )
                assert reply["ok"]
                fresh[1].close()
            finally:
                writer.close()
                await asyncio.wait_for(server.close(), 5)

        asyncio.run(scenario())

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(stream=st.lists(_STREAM_ITEM, min_size=1, max_size=12))
    def test_mixed_stream_gets_one_reply_each(self, served, stream):
        """Malformed and valid requests on one connection: every request
        gets exactly one reply, valid replies equal the engine's answers,
        and the server closes cleanly."""
        _, engine = served

        async def scenario():
            server = BatchingServer(engine, window=0.0005)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for kind, payload in stream:
                    line = payload if kind == "raw" else json.dumps(payload).encode()
                    reply = await asyncio.wait_for(
                        _raw_request(reader, writer, line), 5
                    )
                    if kind == "raw":
                        assert reply["ok"] is False
                        continue
                    assert reply["ok"] is True
                    u = payload["u"]
                    if payload["op"] == "ecc":
                        assert reply["ecc"] == _json_or_none(engine.ecc(u))
                        continue
                    v = payload["v"]
                    assert reply["dist"] == _json_or_none(engine.dist(u, v))
                    if payload["op"] == "path":
                        assert reply["path"] == engine.path(u, v)
                # Nothing extra is queued on the connection: the next line
                # answers the next request.
                reply = await asyncio.wait_for(
                    request_line(reader, writer, {"op": "stats", "id": "end"}), 5
                )
                assert reply["id"] == "end"
            finally:
                writer.close()
                await asyncio.wait_for(server.close(), 5)

        asyncio.run(scenario())

    def test_load_harness_smoke(self, tmp_path):
        """The load harness doubles as an integration test."""
        from load_serve import run_load

        _, _, artifact = _build(tmp_path, n=12, p=0.4, seed=14)
        result = run_load(
            artifact.path, clients=4, requests_per_client=25, window=0.002
        )
        assert result["requests"] == 100
        assert result["qps"] > 0
        assert result["p50_ms"] <= result["p99_ms"]
        assert result["mean_batch"] >= 1.0
