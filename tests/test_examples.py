"""Smoke tests: every example script runs end to end at a small scale."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

# The engine-check markers certify, in-process, that the engines' answers
# match a centralised reference (the examples assert the equality and print
# the line; the test asserts the line appeared).
_ENGINE_PARITY = ["engine check", "match", "the centralised reference"]

CASES = [
    pytest.param("quickstart.py", ["27"], [], id="quickstart.py"),
    pytest.param(
        "social_network_triangles.py",
        ["36"],
        _ENGINE_PARITY,
        id="social_network_triangles.py",
    ),
    pytest.param(
        "road_network_apsp.py", ["3", "4"], [], id="road_network_apsp.py"
    ),
    pytest.param(
        "girth_and_cycles.py",
        ["25"],
        _ENGINE_PARITY,
        id="girth_and_cycles.py",
        marks=pytest.mark.slow,
    ),
    pytest.param("scaling_study.py", ["--small"], [], id="scaling_study.py"),
    pytest.param("bottleneck_routing.py", ["16"], [], id="bottleneck_routing.py"),
    pytest.param(
        "spanning_workloads.py",
        ["22"],
        ["edge-for-edge", "O(1)-round collectives"],
        id="spanning_workloads.py",
    ),
    pytest.param(
        "serving_workloads.py",
        ["20"],
        ["memory-mapped batch serving", "edge-for-edge", "generation 1"],
        id="serving_workloads.py",
    ),
]


@pytest.mark.parametrize("script,args,expected_markers", CASES)
def test_example_runs(script, args, expected_markers):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "examples should print their findings"
    for marker in expected_markers:
        assert marker in result.stdout


def test_quickstart_reports_round_counts():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py"), "27"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert "rounds" in result.stdout
    assert "TOTAL" in result.stdout  # the per-phase meter report
