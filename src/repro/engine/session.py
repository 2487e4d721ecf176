"""Engine sessions: one binding of (clique, matmul method, algebra).

Every §3 algorithm in the paper is "repeated squaring over a semiring"; an
:class:`EngineSession` packages that pattern once for all of them.  A
session binds

* a **clique** (the metered simulator, including its local-compute
  executor and that executor's kernel tile thread count),
* a **matmul method** (``"bilinear"`` §2.2, ``"semiring"`` §2.1,
  ``"naive"`` baseline), and
* an **algebra** -- a :class:`~repro.algebra.semirings.Semiring` (rings
  included: the integers and the Lemma 18 polynomial ring)

and exposes ``multiply`` / ``square`` / ``closure``.  Binding
happens once: the bilinear algorithm (encode/decode tensors), the engine's
layout and routing plans (:func:`~repro.matmul.semiring3d.cube_plan`,
:func:`~repro.matmul.bilinear_clique.grid_plan`) are all resolved/warmed
at construction and shared by every product the session runs --
``ceil(log n)`` squarings replan nothing.

Binding rules mirror Theorem 1: any semiring runs on the §2.1/naive
engines; the §2.2 engine needs a ring, so it accepts ``PLUS_TIMES``
directly, implements ``BOOLEAN`` by integer product + threshold (Corollary
2's reduction), and rejects selection semirings (use the Lemma 18/20
embeddings in :mod:`repro.matmul.distance` instead).  ``POLYNOMIAL`` binds
only to the §2.2 engine, for raw products: it has no ``closure``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algebra.bilinear import BilinearAlgorithm
from repro.algebra.polynomial import POLYNOMIAL
from repro.algebra.semirings import BOOLEAN, PLUS_TIMES, Semiring, int64_operand
from repro.clique.accounting import CostMeter
from repro.clique.arena import ExchangeArena
from repro.clique.executor import Executor
from repro.clique.model import CongestedClique, or_broadcast
from repro.errors import NegativeCycleError
from repro.matmul.bilinear_clique import (
    bilinear_matmul,
    default_algorithm,
    grid_plan,
)
from repro.matmul.layout import next_cube, next_square
from repro.matmul.naive import broadcast_matmul
from repro.matmul.semiring3d import (
    boolean_matmul_packed,
    cube_plan,
    pack_bool_matrix,
    semiring_matmul,
    unpack_bool_matrix,
)

#: The three matmul engines sessions (and applications) can run on.
MATMUL_METHODS = ("bilinear", "semiring", "naive")


@dataclass
class ResidentClosure:
    """Selection-semiring closure state held resident by a session.

    The packed-Boolean analogue for distances (kernel generation 3's
    leftover): ``dist`` and its routing table stay inside the session
    between squarings instead of being re-routed from the caller's matrix
    each ``square``.  Both are session-owned: each
    :meth:`EngineSession.resident_square` replaces ``dist`` with the merged
    product and updates ``next_hop`` in place.  Read them freely, but
    mutate them only through the session (or
    :func:`repro.serve.delta.apply_edge_updates`, which bills its strip
    products on the same meter).

    ``next_hop`` uses the *working* convention: ``next_hop[u, u] == u`` so
    witness merges can route through the endpoint itself;
    :meth:`routing_table` returns the external ``-1``-diagonal view.
    """

    dist: np.ndarray
    next_hop: np.ndarray
    #: Squarings applied since seeding (full or delta).
    squarings: int = 0
    #: Bumped by every mutation after seeding (squarings, delta updates).
    generation: int = 0

    def routing_table(self, n: int) -> np.ndarray:
        """The external routing table of the first ``n`` nodes (a copy).

        ``[u, v]`` is the first hop of a best ``u -> v`` path, ``-1`` on
        the diagonal and wherever ``v`` is unreachable from ``u``.
        """
        hops = self.next_hop[:n, :n].copy()
        np.fill_diagonal(hops, -1)
        return hops


class EngineBindingError(ValueError):
    """An (algebra, method) combination Theorem 1 does not support."""


def required_clique_size(n: int, method: str) -> int:
    """Smallest clique size ``>= n`` on which ``method`` can run."""
    if method == "semiring":
        return next_cube(n)
    if method == "bilinear":
        return next_square(n)
    if method == "naive":
        return n
    raise ValueError(f"unknown matmul method {method!r}")


def default_steps(n: int) -> int:
    """The ``ceil(log2 n)`` squaring cap of every closure loop."""
    return max(1, math.ceil(math.log2(max(2, n))))


def make_clique(
    n: int,
    method: str = "bilinear",
    *,
    word_bits: int | None = None,
    threads: int = 1,
    fault_plan=None,
    fault_tolerance: int | None = None,
    fault_scheme: str = "coded",
    cost_model=None,
) -> CongestedClique:
    """A clique sized for an ``n``-node problem under ``method``.

    ``threads > 1`` runs the executor's kernel tiles on that many threads
    (:func:`~repro.algebra.backends.run_tiles`).  That never affects round
    charges, only the simulator's wall clock.

    ``fault_plan`` (a :class:`~repro.faults.FaultPlan`) installs a seeded
    adversary over the array collectives; ``fault_tolerance`` additionally
    selects the coded collectives (:class:`~repro.faults.CodedClique`,
    Reed-Solomon striping at overhead toward ``n / (n - 2t)``) sized to
    survive that many corrupt relays per exchange; ``fault_scheme`` names
    that code and accepts only ``"coded"``.  A plan without a tolerance is
    the *unprotected* wrapper (:class:`~repro.faults.FaultyClique`) --
    useful only to demonstrate silent corruption.  With neither, the plain
    fault-free model is returned, untouched.

    ``cost_model`` attaches a transport cost model (a
    :class:`~repro.netsim.CostModelSpec` or ready observer; see
    :meth:`~repro.clique.model.CongestedClique.attach_cost_model`) after
    the clique -- fault layer included -- is built.  Purely observational:
    values, rounds, words and meters are bit-identical with or without it.
    """
    if fault_scheme != "coded":
        raise ValueError(
            f"unknown fault scheme {fault_scheme!r}: replication was removed, "
            f"Reed-Solomon striping (\"coded\") is the only code"
        )
    size = required_clique_size(n, method)
    if fault_plan is not None or fault_tolerance is not None:
        from repro.faults import CodedClique, FaultyClique

        if fault_tolerance is not None:
            clique = CodedClique(
                size,
                plan=fault_plan,
                tolerance=fault_tolerance,
                word_bits=word_bits,
                threads=threads,
            )
        else:
            clique = FaultyClique(
                size,
                plan=fault_plan,
                word_bits=word_bits,
                threads=threads,
            )
    else:
        clique = CongestedClique(size, word_bits=word_bits, threads=threads)
    if cost_model is not None:
        clique.attach_cost_model(cost_model)
    return clique


class EngineSession:
    """One bound squaring pipeline: clique + method + algebra.

    Args:
        clique: the simulator to run on (its ``executor`` attribute decides
            how local block products are computed).
        method: one of :data:`MATMUL_METHODS`.
        algebra: a :class:`~repro.algebra.semirings.Semiring` (default: the
            integer ring).
        algorithm: bilinear algorithm override (default: deepest Strassen
            power fitting the clique); ignored by the other engines.
        cost_model: optional transport cost model
            (:class:`~repro.netsim.CostModelSpec` or ready observer) to
            attach to the clique -- purely observational; read the
            resulting completion report via :attr:`transport`.

    Sessions are context managers: ``with open_session(...) as session``
    releases the arena's buffers and the resident state on exit --
    including on error paths such as
    :class:`~repro.faults.FaultToleranceExceeded`.
    """

    def __init__(
        self,
        clique: CongestedClique,
        method: str = "bilinear",
        algebra: Semiring = PLUS_TIMES,
        *,
        algorithm: BilinearAlgorithm | None = None,
        cost_model=None,
    ) -> None:
        if method not in MATMUL_METHODS:
            raise ValueError(
                f"unknown matmul method {method!r} (choose from {MATMUL_METHODS})"
            )
        if cost_model is not None:
            clique.attach_cost_model(cost_model)
        self.clique = clique
        self.method = method
        self.algebra = algebra
        self.algorithm: BilinearAlgorithm | None = None
        self._boolean_via_ring = False
        #: Per-session exchange arena: the engines' send/recv buffers are
        #: preallocated once (sized by the CubePlan/GridPlan exchange
        #: shapes) and reused by every product the session runs, so the
        #: ceil(log n) squarings of a closure stop re-allocating them.
        #: Results returned by products are always freshly allocated; see
        #: repro.clique.arena for the aliasing rules.
        self.arena = ExchangeArena()
        #: Persistent selection-semiring closure state (see
        #: :class:`ResidentClosure`); ``None`` until :meth:`seed_resident`.
        self._resident: ResidentClosure | None = None
        #: Squarings the last closure loop ran before it stopped (at most
        #: its ``steps``; see :meth:`_square_to_fixpoint`).
        self.last_squarings = 0

        if not isinstance(algebra, Semiring):
            raise TypeError(f"algebra must be a Semiring, got {algebra!r}")
        if method == "bilinear":
            if algebra is BOOLEAN:
                # Corollary 2: Boolean product = integer product of the
                # 0/1 matrices + threshold.
                self._boolean_via_ring = True
            elif not algebra.is_ring:
                raise EngineBindingError(
                    f"the bilinear engine needs a ring; semiring "
                    f"{algebra.name!r} runs on the semiring/naive engines "
                    f"(or via the Lemma 18/20 embeddings)"
                )
        elif algebra is POLYNOMIAL:
            raise EngineBindingError(
                f"raw polynomial products need the bilinear engine, "
                f"not {method!r}"
            )

        # Resolve the bound engine once: bilinear algorithm + engine plans
        # are materialised here, so every later product is replanning-free.
        if method == "bilinear":
            self.algorithm = algorithm or default_algorithm(clique.n)
            grid_plan(clique.n, self.algorithm.d)
        elif method == "semiring":
            cube_plan(clique.n)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        return self.clique.n

    @property
    def rounds(self) -> int:
        """Total rounds charged on the bound clique so far."""
        return self.clique.rounds

    @property
    def meter(self) -> CostMeter:
        return self.clique.meter

    @property
    def transport(self):
        """The attached transport cost model, or ``None``."""
        return self.clique.transport

    @property
    def executor(self) -> Executor:
        return self.clique.executor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        algebra = getattr(self.algebra, "name", self.algebra)
        return (
            f"EngineSession(n={self.n}, method={self.method!r}, "
            f"algebra={algebra!r}, threads={self.executor.threads})"
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release session resources deterministically.

        Drops the arena's buffers and the resident closure state.
        Idempotent; the clique and its meter stay readable.
        """
        self.arena.release()
        self._resident = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Products
    # ------------------------------------------------------------------ #

    def multiply(
        self,
        x: np.ndarray,
        y: np.ndarray,
        *,
        with_witnesses: bool = False,
        phase: str = "session/multiply",
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """One distributed product in the bound algebra.

        With ``with_witnesses`` (selection semirings on the semiring/naive
        engines only) also returns the witness matrix of §3.3.
        """
        semiring = self.algebra
        if semiring is BOOLEAN:
            # Corollary 2: entries > 0 are edges.
            x = (np.asarray(x) > 0).astype(np.int64)
            y = (np.asarray(y) > 0).astype(np.int64)
        else:
            x, y = int64_operand(x), int64_operand(y)
        if self._boolean_via_ring:
            # Boolean on the fast engine: threshold the integer product.
            if with_witnesses:
                raise EngineBindingError(
                    "the bilinear engine has no native witnesses (Lemma 21 "
                    "recovers them; see repro.matmul.witnesses)"
                )
            product = bilinear_matmul(
                self.clique, x, y, self.algorithm, phase=phase,
                arena=self.arena,
            )
            return (product > 0).astype(np.int64)
        if with_witnesses and not semiring.has_witnesses:
            raise EngineBindingError(
                f"semiring {semiring.name!r} does not support witnesses"
            )
        if self.method == "bilinear":
            return bilinear_matmul(
                self.clique, x, y, self.algorithm, ring=semiring, phase=phase,
                arena=self.arena,
            )
        if self.method == "semiring":
            return semiring_matmul(
                self.clique, x, y, semiring,
                with_witnesses=with_witnesses, phase=phase, arena=self.arena,
            )
        return broadcast_matmul(
            self.clique, x, y, semiring,
            with_witnesses=with_witnesses, phase=phase,
        )

    def square(
        self,
        x: np.ndarray,
        *,
        with_witnesses: bool = False,
        phase: str = "session/square",
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """``x . x`` in the bound algebra."""
        return self.multiply(x, x, with_witnesses=with_witnesses, phase=phase)

    # ------------------------------------------------------------------ #
    # Iterated squaring
    # ------------------------------------------------------------------ #

    def closure(
        self,
        matrix: np.ndarray,
        *,
        steps: int | None = None,
        phase: str = "closure",
        step_label: str = "sq",
    ) -> np.ndarray:
        """Iterated squaring to a fixed point: the shared §3 closure loop.

        Each squaring merges ``B <- B^2 (+) B`` (the distance/reachability
        recurrences), so after ``t`` steps the accumulator covers all walks
        of length ``<= 2^t`` (paper eq. (4) generalised to any semiring);
        ``steps`` caps the squarings at ``ceil(log2 n)`` by default, enough
        for the full closure, and the loop stops earlier at the first
        squaring that changes nothing (:meth:`_square_to_fixpoint`).  Boolean
        closures on the §2.1 engine stay bit-packed across squarings
        (:meth:`_closure_packed`); routing tables come from the resident
        loop (:meth:`seed_resident` / :meth:`resident_closure`).  Both loops
        raise :class:`NegativeCycleError` (:meth:`_refuse_negative_cycle`).

        Args:
            matrix: the ``n x n`` seed (adjacency / weight / capacity).  A
                ``BOOLEAN`` seed is thresholded once before the first
                squaring, as in :meth:`multiply` (entries ``> 0`` are
                edges); zero ``steps`` return the seed as given.
            steps: the most squarings to run (default :func:`default_steps`).
            phase: cost-meter label prefix; squaring ``i`` is charged as
                ``{phase}/{step_label}{i}``.
        """
        self._refuse_polynomial()
        semiring = self.algebra
        base = int64_operand(matrix)
        steps = default_steps(self.n) if steps is None else steps
        if steps > 0 and semiring is BOOLEAN:
            # Corollary 2, as in multiply: entries > 0 are edges, so the
            # stop rule compares 0/1 merges with a 0/1 seed.
            base = (base > 0).astype(np.int64)
            if self.method == "semiring":
                return self._closure_packed(
                    base, steps=steps, phase=phase, step_label=step_label
                )
        accum = base

        def square(step_phase: str) -> np.ndarray:
            nonlocal accum
            squared = self.square(accum, phase=step_phase)
            merged = semiring.add(squared, accum)
            self._refuse_negative_cycle(merged, step_phase)
            changed = (merged != accum).any(axis=1)
            accum = merged
            return changed

        self._square_to_fixpoint(
            square, steps=steps, phase=phase, step_label=step_label
        )
        return accum

    def _closure_packed(
        self,
        base: np.ndarray,
        *,
        steps: int,
        phase: str,
        step_label: str,
    ) -> np.ndarray:
        """Boolean closure kept bit-packed across squarings (§2.1 engine).

        The seed is packed once, every squaring runs the fully-packed
        pipeline (:func:`~repro.matmul.semiring3d.boolean_matmul_packed`),
        the per-step merge is a word-parallel OR, and the accumulator is
        unpacked exactly once at the end.  Bit-identical to the unpacked
        loop: ``BOOLEAN.add`` thresholds its operands, so OR-ing packed
        0/1 data commutes with packing, and the packed pipeline charges the
        unpacked path's exact phase costs.  Dispatched from
        :meth:`closure` for every Boolean closure on the §2.1 engine.
        """
        n = self.n
        accum_p = pack_bool_matrix(base, n)

        def square(step_phase: str) -> np.ndarray:
            nonlocal accum_p
            squared = boolean_matmul_packed(
                self.clique, accum_p, accum_p, phase=step_phase, arena=self.arena
            )
            # B <- B^2 OR B; `squared` is freshly allocated, never an
            # arena buffer.
            np.bitwise_or(squared, accum_p, out=squared)
            changed = (squared != accum_p).reshape(n, -1).any(axis=1)
            accum_p = squared
            return changed

        self._square_to_fixpoint(
            square, steps=steps, phase=phase, step_label=step_label
        )
        return unpack_bool_matrix(accum_p, n)

    def _square_to_fixpoint(
        self, square, *, steps: int, phase: str, step_label: str
    ) -> None:
        """The stop rule of every closure loop: square until nothing changes.

        ``square(step_phase)`` runs squaring ``i`` charged as
        ``step_phase = {phase}/{step_label}{i}``, merge and negative-cycle
        refusal included, and returns each node's bit: whether any of its
        rows changed.  After every squaring but the ``steps``-th, one
        :func:`~repro.clique.model.or_broadcast` (``{step_phase}/stable``,
        one round, as Seidel's ``G = G^2`` check) tells every node whether
        any node changed, and the loop ends after the first squaring that
        changed nothing.  That stop is exact: each squaring is a
        deterministic function of the accumulator (and of the base), so
        every later one would return the same values, routing tables and
        diagonal.  :attr:`last_squarings` records how many ran.
        """
        self.last_squarings = 0
        for step in range(steps):
            step_phase = f"{phase}/{step_label}{step}"
            changed = square(step_phase)
            self.last_squarings = step + 1
            if step + 1 == steps or not or_broadcast(
                self.clique, changed, phase=f"{step_phase}/stable"
            ):
                return

    def _refuse_polynomial(self) -> None:
        """``closure`` needs identity and merge semantics the polynomial
        ring's sessions do not have: they only multiply."""
        if self.algebra is POLYNOMIAL:
            raise EngineBindingError(
                "closure needs a semiring with identity and addition "
                "semantics; raw polynomial sessions only multiply"
            )

    def _refuse_negative_cycle(self, accum: np.ndarray, phase: str) -> None:
        """Refuse a diagonal entry that strictly beats the semiring's one.

        A closed walk better than staying put is a negative-weight cycle
        under min-plus (a diagonal entry below ``0``); under max-min nothing
        beats the ``INF`` self-capacity, so it never fires there.
        """
        semiring = self.algebra
        if semiring.has_witnesses and np.any(
            semiring.improves(np.diagonal(accum), semiring.one_value)
        ):
            raise NegativeCycleError(
                f"negative-weight cycle detected in {phase}: a "
                f"{semiring.name} diagonal entry beats the identity "
                f"{semiring.one_value}"
            )

    # ------------------------------------------------------------------ #
    # Persistent selection-semiring state (the witnessed closure)
    # ------------------------------------------------------------------ #

    @property
    def resident(self) -> ResidentClosure | None:
        """The resident closure state, or ``None`` before seeding.

        Assigning a previously held :class:`ResidentClosure` reinstates it
        (how a rejected delta rebuild rolls back).
        """
        return self._resident

    @resident.setter
    def resident(self, state: ResidentClosure | None) -> None:
        self._resident = state

    def seed_resident(
        self, matrix: np.ndarray, *, next_hop: np.ndarray | None = None
    ) -> ResidentClosure:
        """Install ``matrix`` (and routing table) as resident session state.

        Selection semirings with witnesses on the semiring/naive engines
        only.  The matrix is copied into a session-owned ``n x n`` int64
        buffer.  When ``next_hop`` is omitted, the Corollary 6 routing seed
        is built -- the only place it is: every entry that beats the
        semiring's zero (a finite weight, a usable capacity) routes to its
        column, the diagonal to itself.  Pass ``next_hop`` to restore
        previously closed state (e.g. re-hydrating a serve artifact for
        delta updates); it is copied too.  Replaces any prior resident
        state; the previous :class:`ResidentClosure` object is left intact.
        """
        semiring = self.algebra
        if not semiring.has_witnesses:
            raise EngineBindingError(
                f"resident state needs a selection semiring with witnesses; "
                f"{semiring.name!r} has none"
            )
        if self.method == "bilinear":
            raise EngineBindingError(
                "the bilinear engine has no native witnesses; resident "
                "state runs on the semiring/naive engines"
            )
        n = self.n
        dist = np.array(int64_operand(matrix), copy=True)
        if dist.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}, got {dist.shape}")
        if next_hop is None:
            hops = np.full((n, n), -1, dtype=np.int64)
            edge_rows, edge_cols = np.nonzero(
                semiring.improves(dist, semiring.zeros((n, n)))
            )
            hops[edge_rows, edge_cols] = edge_cols
            np.fill_diagonal(hops, np.arange(n))
        else:
            hops = np.array(int64_operand(next_hop), copy=True)
            if hops.shape != (n, n):
                raise ValueError(f"next_hop must be {n} x {n}, got {hops.shape}")
        self._resident = ResidentClosure(dist=dist, next_hop=hops)
        return self._resident

    def resident_square(self, *, phase: str = "resident/square") -> bool:
        """One witnessed squaring merged into the resident state.

        Square, arg-select witness merge and the Corollary 6 routing update
        ``R[u, v] <- R[u, Q[u, v]]`` on every improved entry -- row ``u`` of
        ``R``, ``Q`` and the new distances all live at node ``u``, so the
        update costs no communication.  Returns whether any entry improved;
        :meth:`resident_closure` asks each node for its own rows instead.
        """
        return bool(self._resident_square(phase).any())

    def _resident_square(self, phase: str) -> np.ndarray:
        """:meth:`resident_square`, returning each node's "a row improved" bit."""
        state = self._resident
        if state is None:
            raise RuntimeError("no resident state; call seed_resident first")
        semiring = self.algebra
        squared, witness = self.square(
            state.dist, with_witnesses=True, phase=phase
        )
        improved = semiring.improves(squared, state.dist)
        rows, cols = np.nonzero(improved)
        mids = witness[rows, cols]
        state.next_hop[rows, cols] = state.next_hop[rows, mids]
        # Merge into the fresh product and adopt it as the resident matrix
        # (products are always freshly allocated).  Releasing the older
        # matrix rather than the newer one also keeps the allocator from
        # trimming and re-faulting the kernel's scratch pages every step.
        np.copyto(squared, state.dist, where=~improved)
        state.dist = squared
        state.squarings += 1
        state.generation += 1
        return improved.any(axis=1)

    def resident_closure(
        self,
        *,
        steps: int | None = None,
        phase: str = "closure",
        step_label: str = "sq",
    ) -> np.ndarray:
        """Square the resident state to closure; returns the resident matrix.

        The one witnessed closure loop (Corollary 6): squaring ``i`` runs
        :meth:`resident_square` charged as ``{phase}/{step_label}{i}``,
        then the negative-cycle refusal of :meth:`closure`, under the stop
        rule of :meth:`_square_to_fixpoint` (at most ``steps``, default
        :func:`default_steps`).  The returned array *is*
        ``self.resident.dist``; copy before mutating outside the session,
        and read routing tables via :meth:`ResidentClosure.routing_table`.
        """
        state = self._resident
        if state is None:
            raise RuntimeError("no resident state; call seed_resident first")

        def square(step_phase: str) -> np.ndarray:
            changed = self._resident_square(step_phase)
            self._refuse_negative_cycle(state.dist, step_phase)
            return changed

        self._square_to_fixpoint(
            square,
            steps=default_steps(self.n) if steps is None else steps,
            phase=phase,
            step_label=step_label,
        )
        return state.dist

    def drop_resident(self) -> None:
        """Release the resident closure state (idempotent)."""
        self._resident = None


def open_session(
    n: int,
    method: str = "bilinear",
    algebra: Semiring = PLUS_TIMES,
    *,
    clique: CongestedClique | None = None,
    algorithm: BilinearAlgorithm | None = None,
    threads: int = 1,
    word_bits: int | None = None,
    fault_plan=None,
    fault_tolerance: int | None = None,
    cost_model=None,
) -> EngineSession:
    """Build a session (and its clique/executor) for an ``n``-node problem.

    The clique is sized by :func:`required_clique_size` for the method; pass
    an explicit ``clique`` to share one simulator (and its meter) across
    several sessions, as the multi-product algorithms (Seidel, girth) do.

    Args:
        threads: kernel-tile threads (``1`` keeps serial tiles).
        fault_plan / fault_tolerance: see
            :func:`make_clique` -- only valid when the session builds the
            clique (an explicit ``clique`` already fixed its fault layer).
        cost_model: transport cost model to attach (see
            :func:`make_clique`); valid with an explicit ``clique`` too --
            attaching is always observational.
    """
    if clique is None:
        clique = make_clique(
            n,
            method,
            word_bits=word_bits,
            threads=threads,
            fault_plan=fault_plan,
            fault_tolerance=fault_tolerance,
            cost_model=cost_model,
        )
        cost_model = None
    elif fault_plan is not None or fault_tolerance is not None:
        raise ValueError(
            "pass fault_plan/fault_tolerance only when the session builds "
            "the clique (the given clique already has its fault layer)"
        )
    elif threads != 1 and threads != clique.executor.threads:
        raise ValueError(
            "pass threads= only when the session builds the clique "
            "(the given clique already has an executor)"
        )
    return EngineSession(
        clique, method, algebra, algorithm=algorithm, cost_model=cost_model
    )


__all__ = [
    "EngineSession",
    "EngineBindingError",
    "ResidentClosure",
    "open_session",
    "make_clique",
    "required_clique_size",
    "default_steps",
    "MATMUL_METHODS",
]
