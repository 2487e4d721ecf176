"""End-to-end benchmark of the congested-clique reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload apsp-exact --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

One invocation runs one workload as a closed loop with a single caller
through the public API, checks every op against an oracle outside the
timed span, prints a human-readable report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced ops, reports the per-layer metrics from the
traced ones and writes their spans as Chrome trace-event JSON under
``.perfbench-out/``.  The exit code is non-zero when any op failed.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: Kernel tile threads per workload; at most 2, the cores the sizes assume.
THREADS = {
    "apsp-exact": 1,
    "apsp-exact-t2": 2,
    "coded-closure": 1,
    "serve-mixed": 1,
}

#: Counts a workload's ``finish`` reads off the meters that must repeat
#: exactly across ops of one kind, traced or not (the wrappers only observe).
EXACT_KEYS = (
    "rounds", "words", "charges", "abstract_rounds", "injected", "retries",
    "makespan_us", "priced_phases",
)

#: Environment variables that silently change the serial kernel path.
KERNEL_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_SEMIRING_TILE")


@dataclass
class Sample:
    kind: str
    seconds: float
    traced: bool
    warmup: bool
    op: int
    error: str | None = None
    counts: dict = field(default_factory=dict)


@dataclass
class Result:
    workload: str
    samples: list[Sample]
    setup_s: float
    principal: str
    tracer: object | None
    #: The exact counts every op of each kind had to repeat.
    reference: dict = field(default_factory=dict)
    final_error: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.samples) + (self.final_error is not None)

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.samples) + (
            self.final_error is not None
        )

    def seconds(self, kind: str, traced: bool = False) -> list[float]:
        return [
            s.seconds for s in self.samples
            if s.kind == kind and s.traced == traced and not s.warmup and not s.error
        ]


def pin_environment(threads: int) -> list[str]:
    """Pin BLAS/OpenMP pools and drop kernel overrides; before numpy loads."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        os.environ[name] = str(threads)
    return [name for name in KERNEL_ENV if os.environ.pop(name, None) is not None]


class Runner:
    """Times ops, finishes them outside the timed span, guards exact counts."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.reference: dict[str, dict] = {}

    def time_op(self, op, traced: bool, op_id: int):
        if traced:
            self.tracer.op = op_id
            for owner, attr, name, counts in op.targets:
                self.tracer.wrap(owner, attr, name, counts)
        start = time.perf_counter_ns()
        try:
            result, error = op.call(), None
        except Exception:
            result, error = None, traceback.format_exc(limit=4)
        end = time.perf_counter_ns()
        if traced:
            self.tracer.unwrap_all()
            self.tracer.record(f"op.{op.kind}", start, end)
        return result, error, (end - start) / 1e9

    def finish(self, op, timed, traced: bool, op_id: int, warmup: bool) -> None:
        result, error, seconds = timed
        counts: dict = {}
        if error is None:
            try:
                error, counts = op.finish(result)
            except Exception:
                error = traceback.format_exc(limit=4)
        if error is None:
            exact = {k: counts[k] for k in EXACT_KEYS if k in counts}
            reference = self.reference.setdefault(op.kind, exact)
            if exact != reference:
                error = f"exact counts drifted: {exact} != {reference}"
        if error is not None:
            print(f"FAILED op {op_id} ({op.kind}): {error}", file=sys.stderr)
        self.samples.append(Sample(op.kind, seconds, traced, warmup, op_id, error, counts))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    max_ops: int | None = None,
) -> Result:
    """Set up ``name``, run its closed loop for ``seconds``, check every op.

    Expects ``repro`` importable; the set-up timer starts at its import
    when this is the first import in the process.
    """
    start = time.perf_counter()
    import repro  # noqa: F401  -- timed as part of set-up

    import_s = time.perf_counter() - start
    # The benchmark modules load only now, after pin_environment: workloads
    # imports numpy.
    from spans import Tracer
    from workloads import make_workload

    workload = make_workload(name, size, seed, THREADS[name], OUT)
    workload.prepare()
    tracer = Tracer() if trace else None
    runner = Runner(tracer)

    start = time.perf_counter()
    if tracer is not None:
        tracer.op = 0
        for owner, attr, span, counts in workload.setup_targets():
            tracer.wrap(owner, attr, span, counts)
    try:
        warm_ops = workload.setup()
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    warm = [runner.time_op(op, trace, 0) for op in warm_ops]
    setup_s = import_s + time.perf_counter() - start

    workload.after_setup()
    for op, timed in zip(warm_ops, warm):
        runner.finish(op, timed, trace, 0, warmup=True)

    parity: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    op_id, last = 0, 0.0
    try:
        # Start an op only if one as long as the last still ends in time,
        # so a run of multi-second ops does not overrun its budget.
        while time.perf_counter() + last < deadline and (max_ops is None or op_id < max_ops):
            op_id += 1
            op = workload.next_op()
            parity[op.kind] = parity.get(op.kind, 0) + 1
            traced = trace and parity[op.kind] % 2 == 0
            timed = runner.time_op(op, traced, op_id)
            last = timed[2]
            runner.finish(op, timed, traced, op_id, False)
        final_error = workload.final_check()
    finally:
        workload.cleanup()
    if final_error:
        print(f"FAILED final check: {final_error}", file=sys.stderr)
    return Result(
        name, runner.samples, setup_s, workload.principal, tracer,
        runner.reference, final_error,
    )


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(result: Result) -> dict[str, float]:
    principal = [s for s in result.samples if s.kind == result.principal and not s.error]
    ops = result.seconds(result.principal)
    return {
        "setup_s": result.setup_s,
        "op_p50_s": _median(ops),
        "rounds_per_op": _median(s.counts["rounds"] for s in principal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(result: Result) -> dict[str, float]:
    """Per-op medians of the layer split over the traced ops.

    Layers only some workloads cross are reported as shares of the op (or
    as pair rates), never as seconds, so no timing reads a constant 0 on
    the workloads that skip the layer.
    """
    from spans import op_layers

    spans = result.tracer.spans
    layers = op_layers(spans)

    def traced_ops(kind: str):
        return [
            (layers.get(s.op, {}), s) for s in result.samples
            if s.kind == kind and s.traced and not s.warmup and not s.error
        ]

    def per_op(kind: str, fn) -> float:
        return _median(fn(split, s) for split, s in traced_ops(kind))

    def get(layer: str, key: str):
        return lambda split, s: split.get(layer, {}).get(key, 0)

    def share(*layers_: str):
        return lambda split, s: sum(
            split.get(layer, {}).get("busy_s", 0) for layer in layers_
        ) / s.seconds

    def count(key: str):
        return lambda split, s: s.counts.get(key, 0)

    def pair_rate(split, s) -> float:
        layer = split.get(f"serve.{s.kind}", {})
        return layer.get("pairs", 0) / layer["busy_s"] if layer.get("busy_s") else 0.0

    setup_top = {s.name: s for s in spans if s.op == 0 and s.parent == -1}

    def setup_share(name: str) -> float:
        span = setup_top.get(name)
        return (span.end_ns - span.start_ns) / 1e9 / result.setup_s if span else 0.0

    p = result.principal
    traced = result.seconds(p, traced=True)
    untraced = result.seconds(p)
    return {
        "kernel.busy_s": per_op(p, get("kernel", "busy_s")),
        "kernel.calls": per_op(p, get("kernel", "calls")),
        "kernel.share": per_op(p, share("kernel")),
        "exchange.self_s": per_op(p, get("exchange", "self_s")),
        "exchange.calls": per_op(p, get("exchange", "calls")),
        "exchange.words": per_op(p, count("words")),
        "engine.self_s": per_op(p, get(f"op.{p}", "self_s")),
        "metering.self_s": per_op(p, get("metering", "self_s")),
        "metering.charges": per_op(p, get("metering", "calls")),
        "coding.encode_share": per_op(p, share("coding.encode")),
        "coding.decode_share": per_op(p, share("coding.decode")),
        "coding.calls": per_op(
            p,
            lambda split, s: split.get("coding.encode", {}).get("calls", 0)
            + split.get("coding.decode", {}).get("calls", 0),
        ),
        "coding.overhead": per_op(
            p, lambda split, s: s.counts["rounds"] / s.counts.get("abstract_rounds", s.counts["rounds"])
        ),
        "faults.inject_share": per_op(p, share("faults")),
        "faults.injected": per_op(p, count("injected")),
        "faults.retry_share": per_op(
            p,
            lambda split, s: s.counts.get("retries", 0)
            / max(1, split.get("faults", {}).get("calls", 0)),
        ),
        "pricing.share": per_op(p, share("pricing")),
        "pricing.phases": per_op(p, get("pricing", "calls")),
        "serve.dist_pairs_per_s": per_op("dist", pair_rate),
        "serve.path_pairs_per_s": per_op("path", pair_rate),
        "serve.delta_self_share": per_op(
            p,
            lambda split, s: split.get("serve.delta", {}).get("self_s", 0) / s.seconds,
        ),
        "serve.commit_share": per_op(p, share("serve.commit")),
        "serve.rows_rewritten": per_op(p, get("serve.commit", "rows")),
        "serve.improved_entries": per_op(p, count("improved")),
        "serve.build_share": setup_share("serve.build"),
        "serve.open_share": setup_share("serve.open"),
        "trace.overhead": _median(traced) / _median(untraced) - 1.0 if traced and untraced else 0.0,
    }


def serve_latencies(result: Result) -> list[tuple[str, float, str, int]]:
    """Per-kind read/write latency percentiles (serve-mixed only)."""
    rows = []
    for kind, tail in (("dist", 99), ("path", 99), ("update", 90)):
        ms = [1e3 * x for x in result.seconds(kind)]
        rows.append((f"{kind}_p50_ms", _percentile(ms, 50), "ms", len(ms)))
        rows.append((f"{kind}_p{tail}_ms", _percentile(ms, tail), "ms", len(ms)))
    return rows


# ---------------------------------------------------------------------- #
# Environment stamp
# ---------------------------------------------------------------------- #


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:9]]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def stamp(threads: int, unset: list[str], cpu0: list[int], load0) -> dict:
    import numpy as np

    cpu1 = _cpu_times()
    delta = [b - a for a, b in zip(cpu0, cpu1)]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "loadavg_start": [round(x, 2) for x in load0],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "steal_share": delta[7] / sum(delta) if sum(delta) else 0.0,
        "unset_env": unset,
    }


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(result: Result, args, env: dict) -> dict | None:
    """Print the human-readable report; return the JSON result object.

    Returns ``None`` when no untraced principal op succeeded, so there is
    no metric to report.
    """
    print(f"workload {result.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {int(args.trace)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    if not result.seconds(result.principal):
        print(f"  {'failed_share':24s} {result.failed}/{result.attempted} ratio  "
              f"(no untraced {result.principal} op succeeded)")
        return None
    e2e = end_to_end(result)
    units = {m["name"]: m["unit"] for m in _declared(False)}
    count = len(result.seconds(result.principal))
    for name, value in e2e.items():
        note = f"  ({count} untraced {result.principal} ops)" if name == "op_p50_s" else ""
        print(f"  {name:24s} {value:14.6f} {units[name]}{note}")
    if result.workload == "serve-mixed":
        for name, value, unit, samples in serve_latencies(result):
            print(f"  {name:24s} {value:14.6f} {unit}  ({samples} samples)")
    print(f"  {'failed_share':24s} {result.failed}/{result.attempted} ratio")
    print(f"exact counts per {result.principal} op: "
          f"{json.dumps(result.reference.get(result.principal, {}), sort_keys=True)}")
    metrics = e2e
    if args.trace:
        metrics = per_layer(result)
        print("per-layer split (median per traced op):")
        for metric in _declared(True):
            print(f"  {metric['name']:24s} {metrics[metric['name']]:14.6f} {metric['unit']}")
        path = OUT / f"trace-{result.workload}-seed{args.seed}.json"
        from spans import write_chrome_trace

        write_chrome_trace(result.tracer.spans, path, {"workload": result.workload, **env})
        print(f"chrome trace: {path.relative_to(ROOT)}")
    declared = _declared(bool(args.trace))
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def _run_all(args) -> int:
    worst = 0
    for name in THREADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*THREADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test sizes (the self-check); not comparable to full runs",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return _run_all(args)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        parser.exit(2, f"no program sources at {src}: run from a checkout\n")
    threads = THREADS[args.workload]
    unset = pin_environment(threads)
    cpu0, load0 = _cpu_times(), os.getloadavg()
    sys.path.insert(0, str(src))
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        "tiny" if args.tiny else "full",
    )
    out = report(result, args, stamp(threads, unset, cpu0, load0))
    if out is None:
        return 1
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
