"""Tiny-size self-check of the end-to-end benchmark.

Runs every workload at smoke sizes (``--tiny``): the printed metric names
and units must match ``BENCHMARK.json``, a deliberately corrupted answer
must count as a failed op, a traced run must reproduce the untraced exact
counts, and the command must refuse to run without the program sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=False,
    )


@pytest.mark.parametrize(
    "workload,trace", [("apsp-exact", 0), ("serve-mixed", 1)]
)
def test_cli_prints_every_metric_with_its_unit(workload, trace):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = "\n".join(lines[:-1])
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in report.splitlines()
        ), metric["name"]


@pytest.mark.parametrize("workload", ["apsp-exact-t2", "coded-closure", "serve-mixed"])
def test_traced_ops_reproduce_the_untraced_counts(workload):
    result = run.run_workload(workload, 5, 30.0, True, "tiny", max_ops=40)
    assert result.failed == 0
    principal = [s for s in result.samples if s.kind == result.principal]
    counts = {
        traced: [
            {k: s.counts[k] for k in run.EXACT_KEYS if k in s.counts}
            for s in principal if s.traced == traced
        ]
        for traced in (False, True)
    }
    assert counts[False] and counts[True]
    assert all(c == counts[False][0] for c in counts[False] + counts[True])
    layers = run.per_layer(result)
    assert layers["kernel.calls"] > 0 and layers["metering.charges"] > 0


def _corrupt(monkeypatch, cls, method, damage):
    original = getattr(cls, method)

    def corrupted(self, *args):
        op = original(self, *args)
        call = op.call

        def wrong():
            return damage(call())

        op.call = wrong
        return op

    monkeypatch.setattr(cls, method, corrupted)


def test_corrupted_apsp_answer_counts_as_failed(monkeypatch, capsys):
    def damage(result):
        result.value[0, 1] += 1
        return result

    _corrupt(monkeypatch, workloads.ApspWorkload, "next_op", damage)
    result = run.run_workload("coded-closure", 2, 30.0, False, "tiny", max_ops=2)
    assert result.attempted == 3 and result.failed == 3
    assert "differ from apsp_reference" in capsys.readouterr().err


def test_corrupted_dist_answer_counts_as_failed(monkeypatch):
    def damage(answer):
        return np.asarray(answer) + 1 if isinstance(answer, np.ndarray) else answer

    _corrupt(monkeypatch, workloads.ServeWorkload, "_op", damage)
    result = run.run_workload("serve-mixed", 2, 30.0, False, "tiny", max_ops=20)
    dist = [s for s in result.samples if s.kind == "dist"]
    assert dist and all(s.error for s in dist)
    assert result.failed == len(dist)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def first_requests(seed):
        w = workloads.make_workload("serve-mixed", "tiny", seed, 1, tmp_path)
        w.prepare()
        return w.graph.weight_matrix(), [w.next_kind() for _ in range(20)]

    w1, kinds1 = first_requests(4)
    w2, kinds2 = first_requests(4)
    w3, _ = first_requests(5)
    assert np.array_equal(w1, w2) and kinds1 == kinds2
    assert not np.array_equal(w1, w3)
    assert sorted(kinds1[:10]) == sorted(
        kind for kind, share in workloads.MIX.items() for _ in range(share)
    )


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _cli("--workload", "apsp-exact", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
