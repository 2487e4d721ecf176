"""Seeded, deterministic adversarial fault plans.

A :class:`FaultPlan` describes a *transit adversary* over the clique's
array collectives: in every intercepted exchange it may corrupt the traffic
relayed through up to ``t`` nodes.  Four corruption kinds are modelled:

* ``FLIP`` -- words passing through a corrupt relay are XORed with a
  relay-specific nonzero mask (an arbitrary-value corruption, but one the
  decoder can reason about: masks are pairwise distinct across relays, so
  two corrupt relays can never agree on the same wrong word).
* ``DROP`` -- the relayed copy is lost; the receiver observes a known
  erasure (modelled as a zeroed piece plus an invalid flag).
* ``CRASH`` -- crash-stop: a fixed set of up to ``t`` nodes each picks a
  crash time (an exchange index); from that exchange on, everything relayed
  through the node is dropped.  Crashes are monotone -- a crashed node never
  comes back -- which is what distinguishes the kind from per-exchange
  ``DROP``.
* ``BYZANTINE`` -- a fixed seeded set of up to ``t`` nodes corrupts (flips)
  *every* exchange it relays for the whole execution.  Persistent like
  crash-stop, value-corrupting like ``FLIP`` -- the worst case for the
  code, since every exchange the set relays carries errors at unknown
  positions.

Everything is a pure function of ``(seed, kind, t, exchange index)`` via
``np.random.default_rng`` seed sequences, so a logged seed replays the exact
corruption pattern (see ``runtime.resolve_rng`` for the surrounding
stream discipline).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class FaultKind(Enum):
    """What a corrupt relay does to the words passing through it."""

    FLIP = "flip"
    DROP = "drop"
    CRASH = "crash"
    BYZANTINE = "byzantine"


#: Seed-sequence salt for the crash draw, fixed so the crash schedule is a
#: function of the plan seed alone (not of any exchange index).
_CRASH_SALT = 0xC4A54

#: Salt for the Byzantine-set draw -- distinct from the crash salt so a
#: shared seed does not make the Byzantine set equal the crash set.
_BYZANTINE_SALT = 0xB72A2


@lru_cache(maxsize=128)
def _crash_draw(
    seed: int, t: int, n: int, crash_window: int
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed crash schedule: up to ``t`` nodes and their crash times."""
    rng = np.random.default_rng((seed, _CRASH_SALT))
    nodes = np.sort(rng.choice(n, size=min(t, n), replace=False))
    crash_at = rng.integers(0, crash_window, size=nodes.shape[0])
    return nodes, crash_at


@lru_cache(maxsize=128)
def _byzantine_draw(seed: int, t: int, n: int) -> np.ndarray:
    """The fixed Byzantine node set -- a function of the plan seed alone."""
    rng = np.random.default_rng((seed, _BYZANTINE_SALT))
    return np.sort(rng.choice(n, size=min(t, n), replace=False))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic adversary corrupting up to ``t`` relays per exchange.

    Attributes:
        t: adversary budget -- the maximum number of corrupt relay nodes in
            any single intercepted exchange.  ``t = 0`` is the null plan
            (installs the interception machinery but corrupts nothing).
        seed: root of every random draw the plan makes.
        kind: corruption behaviour (:class:`FaultKind`, or its string value).
        crash_window: for ``CRASH`` plans, crash times are drawn uniformly
            from ``[0, crash_window)`` exchange indices -- small windows make
            every crash bite early even in short runs.
    """

    t: int
    seed: int = 0
    kind: FaultKind = FaultKind.FLIP
    crash_window: int = 8

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.t < 0:
            raise ValueError(f"fault budget must be non-negative, got {self.t}")
        if self.seed < 0:
            # np.random.default_rng rejects negative seed-sequence entries
            # deep inside an exchange; refuse at construction instead.
            raise ValueError(f"fault seed must be non-negative, got {self.seed}")
        if self.crash_window < 1:
            raise ValueError(
                f"crash window must be positive, got {self.crash_window}"
            )

    def corrupt_nodes(self, n: int, exchange_id: int) -> np.ndarray:
        """The (sorted) corrupt relay set for one exchange.

        ``FLIP``/``DROP`` redraw the set per exchange (a mobile adversary);
        ``BYZANTINE`` returns the same fixed node set for every exchange;
        ``CRASH`` returns the fixed nodes whose crash time has passed, so
        the set is monotone non-decreasing in ``exchange_id``.
        """
        if self.t == 0 or n == 0:
            return np.zeros(0, dtype=np.int64)
        if self.kind is FaultKind.CRASH:
            nodes, crash_at = _crash_draw(self.seed, self.t, n, self.crash_window)
            return nodes[crash_at <= exchange_id].astype(np.int64, copy=True)
        if self.kind is FaultKind.BYZANTINE:
            return _byzantine_draw(self.seed, self.t, n).astype(
                np.int64, copy=True
            )
        rng = np.random.default_rng((self.seed, exchange_id))
        return np.sort(rng.choice(n, size=min(self.t, n), replace=False)).astype(
            np.int64
        )


__all__ = ["FaultKind", "FaultPlan"]
