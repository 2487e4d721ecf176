#!/usr/bin/env python
"""Perf regression gate: quick report vs the committed ``BENCH_matmul.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_check.py            # or: make bench-check
    PYTHONPATH=src python benchmarks/bench_check.py --baseline X.json

Runs :func:`perf_report.build_report` in ``--quick`` mode and compares every
row that has a ``speedup`` field and the *same problem size* as the committed
baseline (the fixed-size sections run at one size in every mode precisely
so they are always comparable; the kernel rows only gate when the quick size
matches).  Speedup ratios are compared rather than raw seconds so the gate is
robust to absolute machine speed; a row fails when its current speedup drops
below ``(1 - TOLERANCE)`` of the committed one.  Reuse rows
(``session_reuse_speedup``) are gated with the wider explicit
:data:`REUSE_TOLERANCE` band -- near-1x ratios on 1-core containers would
flap under the strict gate -- and noise-level committed ratios are
*reported* as skipped instead of silently passing.  Threaded rows
(those carrying a ``threads`` field) are only compared when *both* the
baseline and the current run record ``cpus >= 2`` -- on a 1-core container
they measure scheduling overhead, not a speedup -- and speedup rows that
also carry a deterministic ``rounds`` bill additionally gate it for exact
equality.

``--gate-only`` gates just the fixed-size sections (``make bench-quick``,
the CI fast lane); the full quick report is the default (``make
bench-check``).

Exit status 1 on any regression -- wire into CI or run before committing a
refreshed ``BENCH_matmul.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"
for path in (str(_SRC), str(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf_report import build_report  # noqa: E402

#: Maximum tolerated speedup regression (25%).
TOLERANCE = 0.25

#: Explicit tolerance for *near-1x* rows: reuse ratios
#: (``session_reuse_speedup`` fields) and small-but-real speedups below
#: :data:`NARROW_BAND_MIN` sit close to 1x on the 1-core CI containers, so
#: a hard 25% gate on them would flap (1.07x jittering to 0.79x is timer
#: noise, not a regression).  They are still gated -- with a wider band --
#: instead of silently skipped, and rows whose committed ratio is inside
#: the noise band around 1x are *reported* as skipped.
REUSE_TOLERANCE = 0.35

#: Committed speedups at or above this use the strict :data:`TOLERANCE`;
#: smaller ratios (whatever the field name) get :data:`REUSE_TOLERANCE`.
NARROW_BAND_MIN = 1.5

#: A committed reuse ratio below this is considered noise-level on a
#: 1-core container (the row then documents overhead, not a win), and is
#: explicitly skipped rather than gated.
REUSE_NOISE_FLOOR = 1.05

#: Sections whose rows carry comparable ``speedup`` fields.  The headline
#: "kernel" section only matches when the quick size equals the committed
#: one; "kernel_gate" runs at n=128 in every mode and "kernel2" at fixed
#: sizes in every mode, so those are always gated alongside the other
#: fixed-size sections.  In "sessions", the fixed-size ``witness_kernel`` row
#: carries a plain ``speedup`` field, the APSP and girth session rows gate
#: their round bills when sizes match, and the ``plan_cache`` reuse row is
#: gated with :data:`REUSE_TOLERANCE`.  In
#: "serve", the ``dist_batch`` speedup is ratio-gated, the ``artifact_open``
#: and ``delta_update`` round bills are deterministic and gated for exact
#: equality, and the wall-clock ``query_serving`` latency row carries no
#: speedup/rounds fields so it is reported but never gated.
SECTIONS = (
    "kernel",
    "kernel_gate",
    "boolean_product",
    "kernel2",
    "kernel3",
    "spanning",
    "faults",
    "serve",
    "netsim",
    "sessions",
)


def _compare_row(
    section: str, key: str, base_row: dict, cur_row: dict
) -> tuple[str | None, bool]:
    """One (line, failed) verdict for a row pair, or ``(None, False)``."""
    # Topology is part of a row's identity: a netsim row priced on a ring
    # and one priced on a fat-tree are different experiments even when
    # every other field matches, so refuse the comparison explicitly.
    if base_row.get("topology") != cur_row.get("topology"):
        return (
            f"  skip {section}/{key}: topology mismatch "
            f"(baseline {base_row.get('topology')}, "
            f"current {cur_row.get('topology')})",
            False,
        )
    # Field detection first: rows without a gateable ratio stay silent,
    # whatever their sizes -- unless they carry a deterministic ``rounds``
    # bill, which is gated for *exact equality* (the spanning workload
    # rows: simulated rounds are seeded and noise-free, so any drift is a
    # behaviour change).
    if "speedup" in base_row and "speedup" in cur_row:
        field = "speedup"
    elif (
        "session_reuse_speedup" in base_row
        and "session_reuse_speedup" in cur_row
    ):
        field = "session_reuse_speedup"
    elif "rounds" in base_row and "rounds" in cur_row:
        if base_row.get("n") != cur_row.get("n"):
            return (
                f"  skip {section}/{key}: size mismatch "
                f"(baseline n={base_row.get('n')}, quick n={cur_row.get('n')})",
                False,
            )
        failed = base_row["rounds"] != cur_row["rounds"]
        verdict = "REGRESSED" if failed else "ok"
        return (
            f"  {verdict:9s} {section}/{key}: rounds {cur_row['rounds']} "
            f"vs committed {base_row['rounds']} (exact-equality gate)",
            failed,
        )
    else:
        return None, False
    if base_row.get("n") != cur_row.get("n"):
        return (
            f"  skip {section}/{key}: size mismatch "
            f"(baseline n={base_row.get('n')}, quick n={cur_row.get('n')})",
            False,
        )
    # Threaded speedups only mean anything on a multi-core box,
    # and only when both runs saw one: on a 1-core container they measure
    # pure scheduling overhead, and comparing a 1-core baseline against a
    # multi-core run (or vice versa) compares different experiments.  Such
    # rows record their core count; refuse the comparison explicitly
    # rather than silently passing it.
    if "threads" in base_row or "threads" in cur_row:
        base_cpus = base_row.get("cpus", 1)
        cur_cpus = cur_row.get("cpus", 1)
        if base_cpus < 2 or cur_cpus < 2:
            return (
                f"  skip {section}/{key}: threaded row needs multi-core "
                f"runs on both sides (baseline cpus={base_cpus}, "
                f"current cpus={cur_cpus})",
                False,
            )
    # Band selection keys off the committed ratio's magnitude, not the
    # field name: any near-1x row flaps under the strict band.
    tolerance = TOLERANCE if base_row[field] >= NARROW_BAND_MIN else REUSE_TOLERANCE
    if field == "session_reuse_speedup" and base_row[field] < REUSE_NOISE_FLOOR:
        return (
            f"  skip {section}/{key}: committed reuse ratio "
            f"{base_row[field]}x is noise-level on this container "
            f"(< {REUSE_NOISE_FLOOR}x)",
            False,
        )
    floor = (1.0 - tolerance) * base_row[field]
    failed = cur_row[field] < floor
    detail = (
        f"{field} {cur_row[field]}x vs committed {base_row[field]}x "
        f"(floor {floor:.2f}x)"
    )
    # Deterministic round bills riding along a speedup row (the engine and
    # closure rows) are seeded and noise-free: gate them for exact
    # equality on top of the ratio band -- drift is a behaviour change.
    if "rounds" in base_row and "rounds" in cur_row:
        failed = failed or base_row["rounds"] != cur_row["rounds"]
        detail += (
            f", rounds {cur_row['rounds']} vs committed "
            f"{base_row['rounds']} (exact-equality gate)"
        )
    verdict = "REGRESSED" if failed else "ok"
    return (f"  {verdict:9s} {section}/{key}: {detail}", failed)


def compare(committed: dict, current: dict) -> tuple[list[str], list[str]]:
    """Return (report lines, failure lines) for all comparable rows."""
    lines: list[str] = []
    failures: list[str] = []
    for section in SECTIONS:
        base_rows = committed.get(section, {})
        for key, cur_row in current.get(section, {}).items():
            base_row = base_rows.get(key)
            if not isinstance(base_row, dict):
                continue
            line, failed = _compare_row(section, key, base_row, cur_row)
            if line is None:
                continue
            lines.append(line)
            if failed:
                failures.append(line)
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=str(_HERE.parent / "BENCH_matmul.json"),
        help="committed report to gate against (default: repo-root BENCH_matmul.json)",
    )
    parser.add_argument(
        "--gate-only",
        action="store_true",
        help="run only the fixed-size gateable sections (the bench-quick "
        "lane: kernel_gate/boolean_product/kernel2/kernel3/"
        "spanning/faults, no heavy end-to-end rows)",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"bench-check: no baseline at {baseline_path}, nothing to gate")
        return 0
    committed = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = build_report(quick=True, gate_only=args.gate_only)
    lines, failures = compare(committed, current)
    print(f"bench-check vs {baseline_path}:")
    for line in lines:
        print(line)
    if not lines:
        print("  no comparable rows (baseline schema too old?)")
    if failures:
        print(f"bench-check: {len(failures)} row(s) regressed > {TOLERANCE:.0%}")
        return 1
    print("bench-check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
