"""Fault injection and Reed-Solomon coded collectives for the collective stack.

The subsystem has four layers (see DESIGN.md "Fault model" and "Coded
fault model"):

* :mod:`repro.faults.plan` -- seeded deterministic adversaries
  (:class:`FaultPlan`): word flips, message drops, crash-stop, and
  persistent Byzantine nodes, corrupting up to ``t`` relay nodes per
  exchange.
* :mod:`repro.faults.injection` -- :class:`FaultyClique`, a pure
  interception wrapper over every exchange, through the model's two
  delivery seams (bit-identical charges, and contents when no plan is
  installed).
* :mod:`repro.faults.coding` -- systematic Reed-Solomon striping over
  GF(2^16): pure-numpy encode, vectorised syndrome certification, erasure
  and error decoding.
* :mod:`repro.faults.protocol` -- :class:`CodedClique`, the coded
  collectives (overhead toward ``n / (n - 2t)``) with detect-retry-degrade
  semantics: a coded closure equals the fault-free oracle or raises
  :class:`FaultToleranceExceeded` -- never a silent wrong answer.

Motivated by the robust Congested Clique compilers of Censor-Hillel et al.
(arXiv:2508.08740): our collectives move fixed-width records, so an
error-correcting stripe code over disjoint relay sets drops in without
touching the algorithms above the session API.
"""

from repro.errors import FaultToleranceExceeded
from repro.faults.coding import (
    StripePlan,
    decode_stripes,
    encode_stripes,
    stripe_plan,
)
from repro.faults.injection import FaultyClique, corrupt_pieces, flip_masks
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.protocol import CodedClique

__all__ = [
    "FaultKind",
    "FaultPlan",
    "FaultyClique",
    "CodedClique",
    "FaultToleranceExceeded",
    "StripePlan",
    "corrupt_pieces",
    "flip_masks",
    "decode_stripes",
    "encode_stripes",
    "stripe_plan",
]
