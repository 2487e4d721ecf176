"""Versioned on-disk closure artifacts, memory-mapped for serving.

Layout (one directory per artifact)::

    manifest.json   format/version, algebra, n, graph hash, rounds billed,
                    fault summary, generation, block index
    dist.bin        (n, n) int64 closure distances, row-major
    next_hop.bin    (n, n) int64 routing table (-1 = unreachable / diagonal)
    weights.bin     (n, n) int64 edge weights (INF = non-edge)

Blocks are raw arrays written with ``ndarray.tofile`` and opened with
``np.memmap(mode="r")``: opening costs a manifest parse plus three mmap
calls -- O(1) in ``n`` -- and the OS pages rows in on demand, so a server
process is answering queries milliseconds after start regardless of graph
size.  :meth:`ClosureArtifact.open` refuses version or graph-hash
mismatches (:class:`ArtifactError`) and refuses *degraded* builds
(:class:`~repro.errors.FaultToleranceExceeded` -- the exit-2 path), so no
silently wrong closure is ever served.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.constants import INF, check_path_weight
from repro.errors import FaultToleranceExceeded, ReproError
from repro.graphs.graphs import Graph
from repro.runtime import pad_matrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import EngineSession

#: On-disk format tag and version; `open` refuses anything else.
ARTIFACT_FORMAT = "repro-closure-artifact"
ARTIFACT_VERSION = 1

MANIFEST_NAME = "manifest.json"

_BLOCK_FILES = {
    "dist": "dist.bin",
    "next_hop": "next_hop.bin",
    "weights": "weights.bin",
}


class ArtifactError(ValueError):
    """A manifest/block mismatch: wrong version, graph hash, or layout."""


def graph_fingerprint(graph: Graph) -> str:
    """Stable sha256 of (n, orientation, weight matrix) for manifest checks."""
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v1|")
    digest.update(str(graph.n).encode("ascii"))
    digest.update(b"|directed|" if graph.directed else b"|undirected|")
    weights = np.ascontiguousarray(graph.weight_matrix(), dtype=np.int64)
    digest.update(weights.tobytes())
    return digest.hexdigest()


def _weights_fingerprint(n: int, directed: bool, weights: np.ndarray) -> str:
    """The same fingerprint computed from an artifact's weights block."""
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v1|")
    digest.update(str(n).encode("ascii"))
    digest.update(b"|directed|" if directed else b"|undirected|")
    digest.update(np.ascontiguousarray(weights, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _fault_summary(clique) -> dict | None:
    """Adversary + redundancy accounting for the manifest, if faulted."""
    plan = getattr(clique, "plan", None)
    if plan is None:
        return None
    kind = getattr(plan, "kind", None)
    summary = {
        "kind": getattr(kind, "value", kind),
        "t": getattr(plan, "t", None),
        "seed": getattr(plan, "seed", None),
        "injected": int(getattr(clique, "faults_injected", 0)),
        "protected": hasattr(clique, "abstract_meter"),
    }
    if summary["protected"]:
        summary["tolerance"] = int(getattr(clique, "tolerance", 0))
        summary["retries"] = int(getattr(clique, "retries", 0))
        summary["abstract_rounds"] = int(clique.abstract_meter.rounds)
    return summary


@dataclass
class ClosureArtifact:
    """One opened artifact: a parsed manifest plus memory-mapped blocks.

    ``dist``/``next_hop``/``weights`` are ``(n, n)`` int64 ``np.memmap``
    views (read-only unless opened ``writable``); the arrays are never
    copied into memory wholesale.
    """

    path: Path
    manifest: dict
    dist: np.ndarray
    next_hop: np.ndarray
    weights: np.ndarray
    writable: bool = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return int(self.manifest["n"])

    @property
    def directed(self) -> bool:
        return bool(self.manifest["directed"])

    @property
    def generation(self) -> int:
        return int(self.manifest["generation"])

    @property
    def graph_hash(self) -> str:
        return str(self.manifest["graph_hash"])

    @property
    def rounds(self) -> int:
        """Rounds the build (plus any committed updates) billed."""
        return int(self.manifest["rounds"])

    # ------------------------------------------------------------------ #
    # Build side
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        session: "EngineSession",
        graph: Graph,
        path: str | Path,
        *,
        steps: int | None = None,
    ) -> "ClosureArtifact":
        """Square ``graph`` to closure on ``session`` and materialise it.

        The session must bind a selection semiring with witnesses (min-plus
        for distances) on the semiring/naive engine; the closure runs on the
        session's *resident* state (:meth:`EngineSession.seed_resident` /
        :meth:`EngineSession.resident_closure`), which is exactly what the
        delta layer re-squares later.

        A build whose robust collectives exceed their fault tolerance still
        writes a manifest -- marked ``status: "degraded"`` so every later
        :meth:`open` refuses it -- and re-raises
        :class:`~repro.errors.FaultToleranceExceeded` (the CLI's exit-2
        path).  A build that ran on an *unprotected* faulty clique and saw
        faults injected is likewise recorded as degraded: its values are
        untrusted by construction.

        A graph whose weights could saturate a path to ``INF`` is refused
        before any engine work or file write
        (:func:`~repro.constants.check_path_weight`).
        """
        n = graph.n
        check_path_weight(graph.max_abs_weight(), n, "edge weight")
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        if session.n < n:
            raise ValueError(
                f"session clique (n={session.n}) too small for graph n={n}"
            )
        weights = graph.weight_matrix()
        manifest: dict = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "algebra": getattr(session.algebra, "name", str(session.algebra)),
            "engine": session.method,
            "n": n,
            "clique_n": session.n,
            "directed": graph.directed,
            "graph_hash": graph_fingerprint(graph),
            "generation": 0,
            "status": "ok",
            "faults": _fault_summary(session.clique),
        }

        mark = session.meter.snapshot()
        session.seed_resident(pad_matrix(weights, session.n, fill=INF))
        try:
            session.resident_closure(steps=steps, phase="serve/build")
        except FaultToleranceExceeded as exc:
            manifest["status"] = "degraded"
            manifest["error"] = str(exc)
            manifest["rounds"] = session.meter.rounds_since(mark)
            manifest["blocks"] = {}
            _write_manifest(path, manifest)
            raise
        except ReproError as exc:
            # An unprotected adversary can corrupt the closure badly enough
            # to stop it with a model error (a witness outside the node
            # range, say); record that build as degraded too, so the
            # directory can never be mistaken for a clean artifact in
            # progress.
            faults = _fault_summary(session.clique)
            if faults is not None and faults["injected"]:
                manifest["status"] = "degraded"
                manifest["faults"] = faults
                manifest["error"] = (
                    f"build crashed after {faults['injected']} unprotected "
                    f"fault injection(s): {exc}"
                )
                manifest["rounds"] = session.meter.rounds_since(mark)
                manifest["blocks"] = {}
                _write_manifest(path, manifest)
            raise
        state = session.resident
        assert state is not None
        faults = _fault_summary(session.clique)
        manifest["faults"] = faults
        if faults is not None and faults["injected"] and not faults["protected"]:
            # Unprotected adversary: values may be silently wrong, so the
            # artifact is unservable by construction.
            manifest["status"] = "degraded"
            manifest["error"] = (
                f"{faults['injected']} fault(s) injected without robust "
                f"collectives; closure values are untrusted"
            )
            manifest["rounds"] = session.meter.rounds_since(mark)
            manifest["blocks"] = {}
            _write_manifest(path, manifest)
            raise FaultToleranceExceeded(manifest["error"])
        manifest["rounds"] = session.meter.rounds_since(mark)
        manifest["squarings"] = state.squarings

        blocks = {
            "dist": np.ascontiguousarray(state.dist[:n, :n]),
            "next_hop": state.routing_table(n),
            "weights": np.ascontiguousarray(weights, dtype=np.int64),
        }
        manifest["blocks"] = {}
        for name, array in blocks.items():
            filename = _BLOCK_FILES[name]
            array.tofile(path / filename)
            manifest["blocks"][name] = {
                "file": filename,
                "dtype": "int64",
                "shape": [n, n],
            }
        _write_manifest(path, manifest)
        return cls.open(path)

    # ------------------------------------------------------------------ #
    # Hot side
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        expect_graph: Graph | None = None,
        verify_hash: bool = False,
        writable: bool = False,
    ) -> "ClosureArtifact":
        """Memory-map an artifact; O(1) in ``n``.

        Refusals: a missing/foreign/newer manifest or a graph-hash mismatch
        raise :class:`ArtifactError`; a ``status != "ok"`` (degraded) build
        raises :class:`~repro.errors.FaultToleranceExceeded`, so the CLI
        propagates the same exit code 2 the degraded build itself did.

        ``expect_graph`` checks the manifest hash against a caller-supplied
        graph; ``verify_hash=True`` additionally recomputes the hash from
        the weights block (O(n^2) -- off by default to keep open O(1)).
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ArtifactError(f"no artifact manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"unreadable manifest at {manifest_path}: {exc}")
        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ArtifactError(
                f"not a closure artifact (format={manifest.get('format')!r})"
            )
        if manifest.get("version") != ARTIFACT_VERSION:
            raise ArtifactError(
                f"artifact version {manifest.get('version')!r} does not match "
                f"this reader (version {ARTIFACT_VERSION})"
            )
        if manifest.get("status") != "ok":
            raise FaultToleranceExceeded(
                f"artifact at {path} is degraded and refuses to serve: "
                f"{manifest.get('error', 'unknown build failure')}"
            )
        if expect_graph is not None:
            expected = graph_fingerprint(expect_graph)
            if expected != manifest.get("graph_hash"):
                raise ArtifactError(
                    f"graph hash mismatch: artifact built for "
                    f"{manifest.get('graph_hash')}, expected {expected}"
                )
        n = int(manifest["n"])
        mode = "r+" if writable else "r"
        arrays = {}
        for name, spec in manifest["blocks"].items():
            block_path = path / spec["file"]
            if not block_path.is_file():
                raise ArtifactError(f"missing block file {block_path}")
            shape = tuple(spec["shape"])
            expected_bytes = int(np.prod(shape)) * np.dtype(np.int64).itemsize
            if block_path.stat().st_size != expected_bytes:
                raise ArtifactError(
                    f"block {name} has {block_path.stat().st_size} bytes, "
                    f"expected {expected_bytes}"
                )
            arrays[name] = np.memmap(
                block_path, dtype=np.int64, mode=mode, shape=shape
            )
        for required in _BLOCK_FILES:
            if required not in arrays:
                raise ArtifactError(f"manifest lists no {required!r} block")
        artifact = cls(
            path=path,
            manifest=manifest,
            dist=arrays["dist"],
            next_hop=arrays["next_hop"],
            weights=arrays["weights"],
            writable=writable,
        )
        if verify_hash:
            recomputed = _weights_fingerprint(
                n, artifact.directed, artifact.weights
            )
            if recomputed != artifact.graph_hash:
                raise ArtifactError(
                    f"weights block hash {recomputed} does not match "
                    f"manifest graph hash {artifact.graph_hash}"
                )
        return artifact

    # ------------------------------------------------------------------ #
    # Delta write-back
    # ------------------------------------------------------------------ #

    def resident_arrays(self, clique_n: int) -> tuple[np.ndarray, np.ndarray]:
        """Padded (dist, next_hop) copies for re-seeding a session.

        Restores the *working* routing convention (diagonal routes to
        itself) that :meth:`EngineSession.seed_resident` expects, with the
        padding region inert (INF distances, identity hops).
        """
        n = self.n
        if clique_n < n:
            raise ValueError(f"clique size {clique_n} < artifact n {n}")
        dist = np.full((clique_n, clique_n), INF, dtype=np.int64)
        dist[:n, :n] = self.dist
        hops = np.full((clique_n, clique_n), -1, dtype=np.int64)
        hops[:n, :n] = self.next_hop
        np.fill_diagonal(dist, 0)
        np.fill_diagonal(hops, np.arange(clique_n))
        return dist, hops

    def padded_weights(self, clique_n: int) -> np.ndarray:
        """The weights block padded to clique size (INF off-graph)."""
        return pad_matrix(np.array(self.weights), clique_n, fill=INF)

    def commit_update(
        self,
        *,
        dist: np.ndarray,
        next_hop: np.ndarray,
        weights: np.ndarray,
        rows: Sequence[int] | np.ndarray,
        weight_rows: Sequence[int] | np.ndarray,
        report: Mapping[str, object],
    ) -> None:
        """Rewrite only the touched rows of the blocks; bump the generation.

        ``dist``/``next_hop``/``weights`` are the maintainer's full (clique-
        padded) arrays; ``rows`` are the graph-row indices whose closure
        entries changed and ``weight_rows`` those whose weights did.  The
        routing diagonal is re-normalised to the on-disk ``-1`` convention.
        Requires the artifact to have been opened ``writable=True``.
        """
        if not self.writable:
            raise ArtifactError(
                "artifact opened read-only; reopen with writable=True to "
                "commit updates"
            )
        n = self.n
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        rows = rows[rows < n]
        weight_rows = np.unique(np.asarray(weight_rows, dtype=np.int64))
        weight_rows = weight_rows[weight_rows < n]
        for row in rows:
            self.dist[row] = dist[row, :n]
            hop_row = np.array(next_hop[row, :n])
            hop_row[row] = -1
            self.next_hop[row] = hop_row
        for row in weight_rows:
            self.weights[row] = weights[row, :n]
        self.dist.flush()
        self.next_hop.flush()
        self.weights.flush()
        self.manifest["generation"] = self.generation + 1
        self.manifest["graph_hash"] = _weights_fingerprint(
            n, self.directed, self.weights
        )
        self.manifest["rounds"] = self.rounds + int(report.get("rounds", 0))
        self.manifest["last_update"] = dict(report)
        _write_manifest(self.path, self.manifest)


def _write_manifest(path: Path, manifest: dict) -> None:
    (path / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ClosureArtifact",
    "graph_fingerprint",
]
