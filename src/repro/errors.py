"""Exception hierarchy for the congested-clique reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CliqueModelError(ReproError):
    """A primitive was used in a way that violates the communication model.

    Examples: a node addressing a message to itself, a payload with a
    non-positive word count, or a malformed outbox structure.
    """


class CliqueSizeError(ReproError):
    """The clique size does not satisfy an algorithm's shape requirement.

    The 3D semiring algorithm needs ``n`` to be a perfect cube and the
    bilinear algorithm needs ``n`` to be a perfect square; use the padding
    helpers in :mod:`repro.matmul.layout` to lift arbitrary problem sizes.
    """


class LoadBoundExceededError(ReproError):
    """A routed exchange exceeded a load bound the calling algorithm asserted.

    The model itself permits any load (rounds are charged accordingly); this
    error is raised only when an algorithm declares the load bound its
    analysis promises (e.g. ``2 n^{4/3}`` words for the 3D algorithm) and the
    actual load exceeds it -- i.e. it signals an implementation bug, and is
    used by the failure-injection tests.
    """


class NegativeCycleError(ReproError):
    """A shortest-path computation encountered a negative-weight cycle."""


class AlgorithmFailureError(ReproError):
    """A Las-Vegas style algorithm exhausted its trial budget.

    Used by the randomised witness search (Section 3.4) when no witness is
    found within the configured number of repetitions.
    """


class FaultToleranceExceeded(ReproError):
    """An encoded exchange could not be decoded within the retry budget.

    Raised by the coded collectives (:mod:`repro.faults`) when, after the
    bounded number of retries, some piece still fails Reed-Solomon
    certification -- i.e. the adversary corrupted more relays than the
    code's parity stripes tolerate.  This is the *degrade* arm of
    detect-retry-degrade: the computation stops loudly instead of returning
    a silently wrong answer.
    """


__all__ = [
    "ReproError",
    "CliqueModelError",
    "CliqueSizeError",
    "LoadBoundExceededError",
    "NegativeCycleError",
    "AlgorithmFailureError",
    "FaultToleranceExceeded",
]
