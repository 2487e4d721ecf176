"""The closure loops' full schedule, replayed: the derivation of every closure bill.

Every closure loop of :class:`~repro.engine.EngineSession` (``closure``,
its packed Boolean form and ``resident_closure``) ends after the first
squaring that changes nothing, and after each squaring but the
``steps``-th every node announces in one round whether its rows changed
(``{phase}/{step_label}{i}/stable``).  A squaring bills what it billed
when the loops always ran all ``steps`` squarings, so a stopped bill is a
function of the full schedule's bill: its phases up to the first squaring
that changed nothing, each squaring followed by one flag phase, and no
flag after the ``steps``-th squaring.

:func:`full_schedule` swaps the session's loops for that full schedule --
``steps`` squarings through ``resident_square()``, or ``square`` then
``add``, with no stop and no flag -- and records which squarings changed
anything; :func:`stopped_phases` derives the stopped bill from it.  Every
pinned closure bill is asserted equal to that derivation, so no closure
pin is edited by hand.  (The packed Boolean closure replays unpacked: the
two bill identically, see ``tests/test_kernel_gen3.py``.)

On a coded clique, compare the *abstract* meter with a derivation replayed
on a plain clique: the flag broadcasts are coded like any other exchange,
so the actual meter bills them at the coded rate.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

from repro.algebra.semirings import int64_operand
from repro.clique.accounting import CostMeter, PhaseCost
from repro.clique.model import CongestedClique, or_broadcast
from repro.engine import EngineSession, default_steps


@dataclass
class Loop:
    """One closure loop as the full schedule ran it."""

    #: The meter its squarings charged.
    meter: CostMeter
    #: Clique size (the flag broadcast's width).
    n: int
    #: ``{phase}/{step_label}``: squaring ``i`` is charged as ``{label}{i}``.
    label: str
    steps: int
    #: ``[start, end)`` of each squaring's entries in ``meter.phases``.
    spans: list[tuple[int, int]] = field(default_factory=list)
    #: Whether each squaring changed the accumulator.
    changed: list[bool] = field(default_factory=list)

    @property
    def stop(self) -> int:
        """Squarings the stopped loop runs: up to the first that changed nothing."""
        return next(
            (i + 1 for i, changed in enumerate(self.changed) if not changed),
            self.steps,
        )


def _run(session, square, steps: int | None, phase: str, step_label: str, loops):
    steps = default_steps(session.n) if steps is None else steps
    loop = Loop(session.meter, session.n, f"{phase}/{step_label}", steps)
    loops.append(loop)
    for step in range(steps):
        start = len(session.meter.phases)
        loop.changed.append(bool(square(f"{phase}/{step_label}{step}")))
        loop.spans.append((start, len(session.meter.phases)))


@contextmanager
def full_schedule():
    """Run every session closure loop for all its ``steps`` squarings.

    Yields the list that collects one :class:`Loop` per loop run.  Values,
    routing tables and negative-cycle refusals are the full loop's; only
    :attr:`EngineSession.last_squarings` is not kept.
    """
    loops: list[Loop] = []

    def closure(self, matrix, *, steps=None, phase="closure", step_label="sq"):
        semiring = self.algebra
        accum = int64_operand(matrix)

        def square(step_phase):
            nonlocal accum
            squared = self.square(accum, phase=step_phase)
            merged = semiring.add(squared, accum)
            self._refuse_negative_cycle(merged, step_phase)
            changed = not np.array_equal(merged, accum)
            accum = merged
            return changed

        _run(self, square, steps, phase, step_label, loops)
        return accum

    def resident_closure(self, *, steps=None, phase="closure", step_label="sq"):
        def square(step_phase):
            changed = self.resident_square(phase=step_phase)
            self._refuse_negative_cycle(self.resident.dist, step_phase)
            return changed

        _run(self, square, steps, phase, step_label, loops)
        return self.resident.dist

    with mock.patch.object(EngineSession, "closure", closure), mock.patch.object(
        EngineSession, "resident_closure", resident_closure
    ):
        yield loops


def flag_cost(n: int, phase: str) -> PhaseCost:
    """What one flag broadcast bills on a plain ``n``-clique."""
    clique = CongestedClique(n)
    or_broadcast(clique, [False] * n, phase)
    (cost,) = clique.meter.phases
    return cost


def stopped_phases(meter: CostMeter, loops: list[Loop]) -> list[PhaseCost]:
    """The stopped loops' bill, derived from ``meter``'s full-schedule bill.

    ``loops`` are the records :func:`full_schedule` collected; those that
    charged another meter are skipped.  Entries outside the loops are kept
    as they are.
    """
    phases = list(meter.phases)
    out: list[PhaseCost] = []
    at = 0
    for loop in (loop for loop in loops if loop.meter is meter and loop.spans):
        out += phases[at : loop.spans[0][0]]
        for i in range(loop.stop):
            out += phases[slice(*loop.spans[i])]
            if i + 1 < loop.steps:
                out.append(flag_cost(loop.n, f"{loop.label}{i}/stable"))
        at = loop.spans[-1][1]
    return out + phases[at:]
