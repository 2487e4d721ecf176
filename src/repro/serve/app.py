"""A thin asyncio TCP/JSON-lines front end over a :class:`QueryEngine`.

Protocol: one JSON object per line.  Requests::

    {"op": "dist", "u": 0, "v": 5}
    {"op": "path", "u": 0, "v": 5}
    {"op": "ecc",  "u": 0}
    {"op": "stats"}

Responses echo an optional ``"id"`` and carry ``"ok": true`` plus the
result (``"dist"`` is ``null`` for unreachable pairs, ``"path"`` the node
list -- empty for unreachable), or ``"ok": false`` with an ``"error"``.
Node ids ``"u"`` and ``"v"`` must be JSON integers (not booleans) in
``[0, n)``; anything else is answered with an error naming the field.
Every request gets exactly one reply, and no request can stop the
batching dispatcher.  A line longer than :data:`MAX_LINE_BYTES` is
answered with an error and its connection closed.

The server's one trick is **micro-batching**: requests arriving within
``window`` seconds are drained into a single batch and answered with one
vectorised gather (:meth:`QueryEngine.dist_batch` /
:meth:`QueryEngine.path_batch`), so a thousand concurrent clients cost a
handful of numpy ops, not a thousand Python lookups.  Pure stdlib: no
dependency beyond ``asyncio`` + ``json``.
"""

from __future__ import annotations

import asyncio
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from repro.constants import INF
from repro.serve.query import QueryEngine, RoutingCycleError


#: Longest request line the server reads (the stream reader's limit).
MAX_LINE_BYTES = 1 << 16

_log = logging.getLogger(__name__)


def _json_dist(value: int) -> int | None:
    return None if value >= INF else int(value)


def _node(request: dict, field: str, n: int) -> int:
    """The node id in ``request[field]``: a JSON integer in ``[0, n)``."""
    value = request.get(field)
    # bool is an int subclass, and JSON true must not mean node 1.
    if type(value) is not int:
        raise ValueError(
            f"field {field!r} must be a JSON integer node id, "
            f"got {type(value).__name__}"
        )
    if not 0 <= value < n:
        raise ValueError(f"field {field!r} out of range [0, {n})")
    return value


@dataclass
class ServerStats:
    """Batching effectiveness counters, served by the ``stats`` op."""

    requests: int = 0
    batches: int = 0
    largest_batch: int = 0
    by_op: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "by_op": dict(self.by_op),
            "mean_batch": (
                round(self.requests / self.batches, 2) if self.batches else 0.0
            ),
        }


class BatchingServer:
    """Serve one artifact's queries over TCP with windowed batching."""

    def __init__(
        self,
        engine: QueryEngine,
        *,
        window: float = 0.001,
        max_batch: int = 8192,
        max_requests: int | None = None,
    ) -> None:
        self.engine = engine
        self.window = float(window)
        self.max_batch = int(max_batch)
        self.max_requests = max_requests
        self.stats = ServerStats()
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()
        #: Set once ``max_requests`` responses have been sent (test/CI hook).
        self.done = asyncio.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_LINE_BYTES
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drop live connections first (their handlers see EOF and return),
        # so no handler task is left to be cancelled mid-await when the
        # event loop tears down.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # over the stream limit: answer and close
                    response = {
                        "ok": False,
                        "error": f"request line longer than {MAX_LINE_BYTES} bytes",
                    }
                    writer.write(json.dumps(response).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._submit(line)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            if task is not None:
                self._handlers.discard(task)

    async def _submit(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, undecodable bytes, integers past Python's
            # digit limit, nesting past the recursion limit.
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        if op == "stats":
            return {
                "ok": True,
                "id": request.get("id"),
                "stats": self.stats.as_dict(),
            }
        if op not in ("dist", "path", "ecc"):
            return {"ok": False, "id": request.get("id"), "error": f"unknown op {op!r}"}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        assert self._queue is not None
        await self._queue.put((request, future))
        return await future

    # ------------------------------------------------------------------ #
    # The batching dispatcher
    # ------------------------------------------------------------------ #

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.window
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except asyncio.TimeoutError:
                    break
            try:
                self._flush(batch)
            except Exception as exc:  # no request may stop the dispatcher
                _log.exception("batch of %d requests failed", len(batch))
                for request, future in batch:
                    if not future.done():
                        future.set_result(
                            {
                                "ok": False,
                                "id": request.get("id"),
                                "error": f"internal error: {exc}",
                            }
                        )
            if (
                self.max_requests is not None
                and self.stats.requests >= self.max_requests
            ):
                self.done.set()

    def _flush(self, batch: list) -> None:
        """Answer one drained batch with vectorised gathers."""
        self.stats.batches += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        groups: dict[str, list] = {"dist": [], "path": [], "ecc": []}
        for request, future in batch:
            self.stats.requests += 1
            op = request["op"]
            self.stats.by_op[op] = self.stats.by_op.get(op, 0) + 1
            try:
                u = _node(request, "u", self.engine.n)
                v = 0 if op == "ecc" else _node(request, "v", self.engine.n)
            except ValueError as exc:
                if not future.done():
                    future.set_result(
                        {"ok": False, "id": request.get("id"), "error": str(exc)}
                    )
                continue
            groups[op].append((request, future, u, v))
        for op, items in groups.items():
            if not items:
                continue
            try:
                self._answer_group(op, items)
            except RoutingCycleError:
                # One corrupt hop fails the whole batched chase: re-answer
                # pair by pair, so only the pairs whose own chase fails
                # get the error.
                for item in items:
                    try:
                        self._answer_group(op, [item])
                    except RoutingCycleError as exc:
                        request, future, _, _ = item
                        if not future.done():
                            future.set_result(
                                {
                                    "ok": False,
                                    "id": request.get("id"),
                                    "error": str(exc),
                                }
                            )

    def _answer_group(self, op: str, items: list) -> None:
        us = np.array([u for _, _, u, _ in items], dtype=np.int64)
        if op == "dist":
            vs = np.array([v for _, _, _, v in items], dtype=np.int64)
            values = self.engine.dist_batch(us, vs)
            for (request, future, _, _), value in zip(items, values):
                if not future.done():
                    future.set_result(
                        {
                            "ok": True,
                            "id": request.get("id"),
                            "dist": _json_dist(int(value)),
                        }
                    )
        elif op == "path":
            vs = np.array([v for _, _, _, v in items], dtype=np.int64)
            dists = self.engine.dist_batch(us, vs)
            paths = self.engine.path_batch(us, vs)
            for (request, future, _, _), value, path in zip(items, dists, paths):
                if not future.done():
                    future.set_result(
                        {
                            "ok": True,
                            "id": request.get("id"),
                            "dist": _json_dist(int(value)),
                            "path": path,
                        }
                    )
        else:  # ecc
            values = self.engine.ecc_batch(us)
            for (request, future, _, _), value in zip(items, values):
                if not future.done():
                    future.set_result(
                        {
                            "ok": True,
                            "id": request.get("id"),
                            "ecc": _json_dist(int(value)),
                        }
                    )


async def request_line(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    payload: dict,
) -> dict:
    """One client round trip (shared by the load harness and tests)."""
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


__all__ = ["BatchingServer", "MAX_LINE_BYTES", "ServerStats", "request_line"]
