#!/usr/bin/env python
"""Load harness for the serving layer: N concurrent clients, one server.

Spins a :class:`~repro.serve.BatchingServer` over an existing closure
artifact, drives it with ``clients`` concurrent JSON-lines connections
issuing ``requests_per_client`` queries each, and reports wall-clock
throughput plus client-observed latency percentiles:

    {"requests", "seconds", "qps", "p50_ms", "p99_ms",
     "mean_batch", "largest_batch", "batches"}

:func:`run_load` is importable (``tests/test_serve.py`` calls it); the CLI
wraps it::

    PYTHONPATH=src python tests/load_serve.py ARTIFACT --clients 16 --requests 200
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path

import numpy as np

from repro.serve import BatchingServer, ClosureArtifact, QueryEngine
from repro.serve.app import request_line


async def _client(
    host: str,
    port: int,
    n: int,
    requests: int,
    op: str,
    seed: int,
    latencies: list,
) -> None:
    rng = np.random.default_rng(seed)
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for _ in range(requests):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            payload = {"op": op, "u": u}
            if op != "ecc":
                payload["v"] = v
            start = loop.time()
            reply = await request_line(reader, writer, payload)
            latencies.append(loop.time() - start)
            if not reply.get("ok"):
                raise RuntimeError(f"server error: {reply.get('error')}")
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _run(
    engine: QueryEngine,
    *,
    clients: int,
    requests_per_client: int,
    window: float,
    op: str,
    seed: int,
) -> dict:
    server = BatchingServer(engine, window=window)
    host, port = await server.start()
    latencies: list[float] = []
    loop = asyncio.get_running_loop()
    start = loop.time()
    try:
        await asyncio.gather(
            *(
                _client(
                    host,
                    port,
                    engine.n,
                    requests_per_client,
                    op,
                    seed + i,
                    latencies,
                )
                for i in range(clients)
            )
        )
    finally:
        elapsed = loop.time() - start
        await server.close()
    lat_ms = np.array(latencies) * 1000.0
    stats = server.stats.as_dict()
    return {
        "requests": len(latencies),
        "seconds": round(elapsed, 4),
        "qps": round(len(latencies) / elapsed, 1) if elapsed else 0.0,
        "p50_ms": round(float(np.percentile(lat_ms, 50)), 3),
        "p99_ms": round(float(np.percentile(lat_ms, 99)), 3),
        "mean_batch": stats["mean_batch"],
        "largest_batch": stats["largest_batch"],
        "batches": stats["batches"],
    }


def run_load(
    artifact_path,
    *,
    clients: int = 8,
    requests_per_client: int = 100,
    window: float = 0.001,
    op: str = "dist",
    seed: int = 0,
) -> dict:
    """Open ``artifact_path``, serve it, and hammer it; returns the stats."""
    engine = QueryEngine(ClosureArtifact.open(Path(artifact_path)))
    return asyncio.run(
        _run(
            engine,
            clients=clients,
            requests_per_client=requests_per_client,
            window=window,
            op=op,
            seed=seed,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", help="closure artifact directory")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--requests", type=int, default=100, help="requests per client"
    )
    parser.add_argument("--window", type=float, default=0.001)
    parser.add_argument(
        "--op", choices=("dist", "path", "ecc"), default="dist"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    result = run_load(
        args.artifact,
        clients=args.clients,
        requests_per_client=args.requests,
        window=args.window,
        op=args.op,
        seed=args.seed,
    )
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
