"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebra.semirings import BOOLEAN
from repro.clique.model import or_broadcast
from repro.engine import default_steps


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


def random_demand(
    rng: np.random.Generator, n: int, max_messages: int = 30, max_width: int = 4
) -> dict[tuple[int, int], int]:
    """A random routed-exchange demand for scheduling tests."""
    demand: dict[tuple[int, int], int] = {}
    for u in range(n):
        for _ in range(int(rng.integers(0, max_messages))):
            v = int(rng.integers(0, n))
            if u == v:
                continue
            demand[(u, v)] = demand.get((u, v), 0) + int(rng.integers(1, max_width + 1))
    return demand


def per_product_boolean_closure(
    session,
    matrix: np.ndarray,
    *,
    steps: int | None = None,
) -> np.ndarray:
    """A Boolean closure run one unpacked product at a time.

    The oracle for the session's bit-packed closure: ``session.square``
    then ``BOOLEAN.add`` per step, charged under ``closure()``'s default
    phase labels, under the same stop -- after each squaring but the
    ``steps``-th, a one-round flag of which nodes' (thresholded) rows
    changed, and an end after the first squaring that changed nothing --
    so values, rounds and every phase cost must match the packed loop.
    """
    accum = np.asarray(matrix, dtype=np.int64)
    steps = default_steps(session.n) if steps is None else steps
    for step in range(steps):
        squared = session.square(accum, phase=f"closure/sq{step}")
        merged = BOOLEAN.add(squared, accum)
        changed = (merged != (accum > 0)).any(axis=1)
        accum = merged
        if step + 1 == steps or not or_broadcast(
            session.clique, changed, phase=f"closure/sq{step}/stable"
        ):
            break
    return accum
