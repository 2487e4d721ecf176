"""In-memory span recording around the public calls of each layer.

The program has no spans of its own yet, so the benchmark times each layer
from outside: :meth:`Tracer.wrap` replaces a layer's public callable (an
instance method, a class attribute or a module function) with a wrapper
that records one span per call and then calls the original with the same
arguments.  The wrappers only observe -- they never change arguments,
results or exceptions -- so a traced op must reproduce the untraced op's
values, rounds and meters exactly (the harness checks this on every run).

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing open span (``-1`` at the top), ``op`` the id of the
benchmark op it belongs to.  Every wrapped call happens on the caller's
thread (the threaded kernel backend fans tiles out *inside* the executor
call), so a plain stack gives the parent.

Span names are ``<layer>.<call>``; :func:`layer_of` maps a name to its
layer.  :func:`op_layers` turns the spans into, per op and per layer, the
busy time (outermost spans of the layer only, so nested calls of one layer
are not counted twice), the self time (span minus the part its direct
children cover), the call count and any counts the wrappers read off the
calls.  :func:`write_chrome_trace` writes the Chrome trace-event JSON that
Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_MISSING = object()

#: Span-name heads whose full name is the layer (one layer per call).
_SPLIT_HEADS = ("serve", "coding", "op")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    op: int = -1
    args: dict = field(default_factory=dict)


def layer_of(name: str) -> str:
    """``kernel.semiring_products`` -> ``kernel``; ``serve.dist`` stays whole."""
    head = name.split(".", 1)[0]
    return name if head in _SPLIT_HEADS else head


class Tracer:
    """Span store plus the install/remove bookkeeping of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []
        #: Id stamped on every span opened from now on.
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent, op=self.op)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``counts(args, kwargs, result)`` may return extra span arguments
        read off the call; it must not mutate anything.  On a class the
        wrapper is installed as a ``staticmethod`` around the bound
        original, so ``Cls.attr(...)`` and ``cls.attr(...)`` inside the
        program both reach the original unchanged.
        """
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if counts is not None:
                tracer.spans[index].args.update(counts(args, kwargs, result))
            return result

        setattr(
            owner, attr, staticmethod(traced) if isinstance(owner, type) else traced
        )
        self._patched.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def record(self, name: str, start_ns: int, end_ns: int) -> int:
        """Add an already-timed span and adopt the orphans inside it.

        The harness times each op itself (the same ``perf_counter`` span
        the untraced run reports); spans the wrappers opened during the op
        have no parent yet and become its children here.
        """
        self.spans.append(Span(name, start_ns, end_ns, -1, self.op))
        index = len(self.spans) - 1
        for k in range(index - 1, -1, -1):
            span = self.spans[k]
            if span.op != self.op or span.start_ns < start_ns:
                break
            if span.parent == -1:
                span.parent = index
        return index


def op_layers(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """``{op: {layer: {"busy_s", "self_s", "calls", <counts>...}}}``."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end_ns - span.start_ns
    out: dict[int, dict[str, dict[str, float]]] = {}
    for i, span in enumerate(spans):
        layer = layer_of(span.name)
        row = out.setdefault(span.op, {}).setdefault(
            layer, {"busy_s": 0.0, "self_s": 0.0, "calls": 0}
        )
        duration = span.end_ns - span.start_ns
        row["self_s"] += (duration - child_ns[i]) / 1e9
        parent = span.parent
        while parent >= 0 and layer_of(spans[parent].name) != layer:
            parent = spans[parent].parent
        if parent < 0:
            row["busy_s"] += duration / 1e9
            row["calls"] += 1
        for key, value in span.args.items():
            row[key] = row.get(key, 0) + value
    return out


def write_chrome_trace(spans: list[Span], path: Path, meta: dict) -> None:
    """Write the spans as Chrome trace-event JSON (complete ``X`` events)."""
    origin = min((s.start_ns for s in spans), default=0)
    events = [
        {
            "name": s.name,
            "cat": layer_of(s.name),
            "ph": "X",
            "ts": (s.start_ns - origin) / 1e3,
            "dur": (s.end_ns - s.start_ns) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"op": s.op, "parent": s.parent, **s.args},
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "otherData": meta}), encoding="utf-8"
    )
