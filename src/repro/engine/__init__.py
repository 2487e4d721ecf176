"""The unified execution stack: engine sessions over the clique's executor.

One squaring pipeline from the runtime to every distance algorithm: an
:class:`EngineSession` binds a clique, a semiring/ring and a matmul method
once (layouts, routing plans and bilinear encode/decode tensors are
cached across all products), and every §3
consumer -- APSP, girth, Seidel, bottleneck, components, subgraph counting
-- drives it through ``multiply`` / ``square`` / ``closure``.
Local block products run on the clique's
:class:`~repro.clique.executor.Executor`, whose kernel tile thread count
never changes values or round charges.
"""

from repro.engine.session import (
    MATMUL_METHODS,
    EngineBindingError,
    EngineSession,
    ResidentClosure,
    default_steps,
    make_clique,
    open_session,
    required_clique_size,
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
