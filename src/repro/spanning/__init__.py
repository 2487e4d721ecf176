"""Spanning workloads on the engine-session API (spanners + MST).

Two graph-sparsification workloads that consume the repo's §2.2 machinery
as first-class session clients rather than bespoke loops:

* :mod:`repro.spanning.spanner` -- Baswana--Sen ``(2k-1)``-spanners in the
  Parter--Yogev congested-clique formulation (arXiv:1805.05404): the
  cluster-growing rounds are min-plus witness products on one bound
  :class:`~repro.engine.EngineSession`, plus dense one-round collective
  exchanges.
* :mod:`repro.spanning.mst` -- the Jurdzinski--Nowicki O(1)-round MST
  skeleton (arXiv:1707.08484): Boruvka phases whose component contraction
  runs through the Boolean components session and min-plus contraction
  products, KKT edge sampling, and F-light filtering feeding a constant-
  round allgather.

Both ship centralised reference oracles next to the distributed
implementations, mirroring the repo's ``*_reference`` convention.
"""

from repro.spanning.mst import (
    minimum_spanning_forest,
    mst_reference,
)
from repro.spanning.spanner import (
    baswana_sen_reference,
    build_spanner,
    spanner_stretch,
)

__all__ = [
    "build_spanner",
    "baswana_sen_reference",
    "spanner_stretch",
    "minimum_spanning_forest",
    "mst_reference",
]
