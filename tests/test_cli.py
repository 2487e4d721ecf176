"""Tests for the command-line interface."""

from __future__ import annotations

import operator
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_matmul_defaults(self):
        args = build_parser().parse_args(["matmul", "49"])
        assert args.n == 49
        assert args.engine == "bilinear"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matmul", "49", "--engine", "quantum"])

    def test_threads_flag_parsed(self):
        args = build_parser().parse_args(["matmul", "49", "--threads", "4"])
        assert args.threads == 4
        args = build_parser().parse_args(["apsp", "10"])
        assert args.threads == 1 and args.engine is None

    def test_shards_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["apsp", "16", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    def test_fault_scheme_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["apsp", "16", "--faults", "1", "--fault-scheme", "coded"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --fault-scheme coded" in err


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A small closure artifact for the artifact-command failure sweep."""
    path = tmp_path_factory.mktemp("cli") / "art"
    assert main(["build-artifact", "12", str(path), "--p", "0.4"]) == 0
    return path


class TestFailureSweep:
    """Bad sizes, parameters and node ids are usage errors: exit status 2
    with a message naming the bad value, never a traceback."""

    #: (argv with ``{art}`` for the artifact directory, the named value).
    CASES = [
        (["matmul", "1"], "got 1"),
        (["triangles", "1"], "got 1"),
        (["apsp", "1"], "got 1"),
        (["mst", "1"], "got 1"),
        (["build-artifact", "1", "{art}-new"], "got 1"),
        (["four-cycles", "0"], "got 0"),
        (["girth", "2"], "--girth 7 with n=2"),
        (["spanner", "10", "--k", "0"], "--k must be >= 1"),
        (["apsp", "10", "--max-weight", "0"], "got 0"),
        (["mst", "10", "--max-weight", "-3"], "got -3"),
        (["apsp", "2", "--faults", "5"], "2*5+1"),
        (["query", "{art}", "0", "99"], "node 99"),
        (["query", "{art}", "-1", "3"], "node -1"),
        (["update", "{art}", "--edge", "0,99,1"], "(0, 99)"),
        (["update", "{art}", "--edge", "0,0,1"], "(0, 0)"),
        (["apsp", "10", "--variant", "approx", "--delta", "0"], "must be > 0"),
        (["apsp", "10", "--variant", "approx", "--delta", "-1"], "got -1.0"),
        (["serve", "{art}", "--port", "99999"], "got 99999"),
        (["serve", "{art}", "--port", "-1"], "--port must be in [0, 65535]"),
        (["triangles", "10", "--p", "2"], "--p must be in [0, 1]"),
        (["triangles", "10", "--p", "-0.5"], "got -0.5"),
        (["spanner", "10", "--p", "1.5"], "got 1.5"),
        (["mst", "10", "--p", "-1"], "got -1.0"),
        (["build-artifact", "10", "{art}-new", "--p", "3"], "got 3.0"),
        (["four-cycles", "10", "--degree", "-3"], "--degree must be >= 0"),
        (["four-cycles", "10", "--degree", "50"], "--degree must be <= n=10"),
        (["girth", "20", "--family", "dense", "--trials", "0"], "--trials must"),
        (["girth", "20", "--trials", "-2"], "got -2"),
        (["serve", "{art}", "--window", "-1"], "--window must be >= 0"),
        (["serve", "{art}", "--max-requests", "-5"], "--max-requests must be >= 0"),
        (["query", "{art}-missing", "0", "1"], "cannot open artifact"),
        (["update", "{art}-missing", "--edge", "0,1,1"], "cannot open artifact"),
        (["serve", "{art}-missing"], "cannot open artifact"),
    ]

    @pytest.mark.parametrize(
        "argv,named", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_usage_error_names_bad_value(self, argv, named, artifact_dir, capsys):
        from repro.serve import ClosureArtifact

        argv = [arg.replace("{art}", str(artifact_dir)) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        err = capsys.readouterr().err
        assert excinfo.value.code == 2
        assert named in err and "Traceback" not in err
        assert ClosureArtifact.open(artifact_dir).generation == 0

    #: Every subcommand carrying the shared engine/thread flags.
    ENGINE_COMMANDS = [
        ["matmul", "16"],
        ["triangles", "12"],
        ["apsp", "10"],
        ["girth", "12"],
        ["spanner", "12"],
        ["mst", "12"],
        ["build-artifact", "12", "/tmp/never-built"],
        ["update", "/tmp/never-built", "--edge", "0,1,1"],
    ]

    @pytest.mark.parametrize("argv", ENGINE_COMMANDS)
    @pytest.mark.parametrize(
        "threads,named",
        [
            ("0", "--threads must be >= 1"),
            ("-3", "--threads must be >= 1"),
            ("two", "invalid thread count"),
        ],
    )
    def test_bad_threads_rejected_at_parse_time(
        self, argv, threads, named, capsys
    ):
        """A thread count that can never be valid dies in argparse, before
        any simulation or artifact I/O."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--threads", threads])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


class TestBoundedTypes:
    """The shared bounded-number argparse type: inclusive bounds accept
    their endpoint, a strict bound refuses it, and a non-finite value is
    refused as invalid rather than compared."""

    #: (argv, parsed attribute, the value argparse must hand back).
    ACCEPTED = [
        (["triangles", "10", "--p", "0"], "p", 0.0),
        (["triangles", "10", "--p", "1"], "p", 1.0),
        (["apsp", "10", "--variant", "approx", "--delta", "1e-9"], "delta", 1e-9),
        (["four-cycles", "10", "--degree", "0"], "degree", 0.0),
        (["girth", "20", "--trials", "1"], "trials", 1),
        (["apsp", "16", "--link-latency-us", "0"], "link_latency_us", 0.0),
        (["serve", "art", "--port", "0"], "port", 0),
        (["serve", "art", "--port", "65535"], "port", 65535),
        (["serve", "art", "--window", "0"], "window", 0.0),
        (["serve", "art", "--max-requests", "0"], "max_requests", 0),
    ]

    @pytest.mark.parametrize(
        "argv,attr,value", ACCEPTED, ids=[" ".join(a) for a, _, _ in ACCEPTED]
    )
    def test_endpoint_accepted(self, argv, attr, value):
        parsed = getattr(build_parser().parse_args(argv), attr)
        assert parsed == value and type(parsed) is type(value)

    #: (argv, the message naming why the value is refused).
    REFUSED = [
        (["serve", "art", "--port", "65536"], "--port must be in [0, 65535]"),
        (["apsp", "16", "--link-gbps", "0"], "--link-gbps must be > 0"),
        (["triangles", "10", "--p", "nan"], "invalid edge probability 'nan'"),
        (["apsp", "10", "--delta", "inf"], "invalid approximation slack 'inf'"),
        (["serve", "art", "--window", "1.5s"], "invalid batching window"),
    ]

    @pytest.mark.parametrize(
        "argv,named", REFUSED, ids=[" ".join(a) for a, _ in REFUSED]
    )
    def test_just_outside_refused(self, argv, named, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_degree_n_endpoint_runs(self, capsys):
        """``--degree`` is bounded by n once n is known: ``--degree n``
        (edge probability 1) runs, one above it is a usage error."""
        assert main(["four-cycles", "10", "--degree", "10"]) == 0
        assert "verified against centralised oracle: True" in (
            capsys.readouterr().out
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["four-cycles", "10", "--degree", "10.5"])
        assert excinfo.value.code == 2
        assert "got 10.5" in capsys.readouterr().err


class TestEngineValidation:
    @pytest.mark.parametrize("command", ["spanner", "mst"])
    def test_spanning_commands_reject_bilinear(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "12", "--engine", "bilinear"])
        assert "selection-semiring engine" in capsys.readouterr().err

    def test_negative_mst_phases_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mst", "12", "--phases", "-1"])
        assert "--phases must be >= 0" in capsys.readouterr().err

    def test_exact_apsp_rejects_bilinear_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["apsp", "10", "--variant", "exact", "--engine", "bilinear"])
        assert "selection-semiring engine" in capsys.readouterr().err

    def test_approx_apsp_rejects_semiring_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["apsp", "10", "--variant", "approx", "--engine", "semiring"])
        assert "bilinear ring engine" in capsys.readouterr().err

    def test_threaded_matmul_runs(self, capsys):
        assert main(["matmul", "16", "--engine", "semiring", "--threads", "2"]) == 0
        assert "correct=True" in capsys.readouterr().out

    def test_apsp_engine_naive_runs(self, capsys):
        assert main(["apsp", "8", "--variant", "exact", "--engine", "naive"]) == 0
        assert "exact match" in capsys.readouterr().out


class TestCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["matmul", "16", "--engine", "bilinear"],
            ["matmul", "20", "--engine", "semiring"],
            ["matmul", "10", "--engine", "naive"],
            ["triangles", "18", "--baseline"],
            ["triangles", "18", "--engine", "semiring"],
            ["four-cycles", "20", "--baseline"],
            ["girth", "20", "--family", "sparse", "--girth", "6"],
            ["girth", "14", "--family", "directed"],
            ["apsp", "10", "--variant", "exact"],
            ["apsp", "12", "--variant", "unweighted"],
            ["spanner", "14", "--k", "2"],
            ["spanner", "12", "--k", "3", "--engine", "naive"],
            ["mst", "14"],
            ["mst", "12", "--phases", "1", "--engine", "naive"],
        ],
    )
    def test_commands_succeed(self, argv, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_matmul_prints_meter(self, capsys):
        main(["matmul", "16"])
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "TOTAL" in out

    def test_seed_changes_workload(self, capsys):
        main(["--seed", "1", "triangles", "18"])
        first = capsys.readouterr().out
        main(["--seed", "2", "triangles", "18"])
        second = capsys.readouterr().out
        assert first != second

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "girth", "16"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0
        assert "girth=" in result.stdout


class TestBaselineVerdict:
    """`--baseline` checks the Dolev answer against the same oracle."""

    #: (argv, the baseline's name in ``repro.baselines``, a wrong answer).
    CASES = [
        (["triangles", "18", "--baseline"], "dolev_triangle_count", lambda v: v + 1),
        (["four-cycles", "20", "--baseline"], "dolev_four_cycle_detect", operator.not_),
    ]

    @pytest.mark.parametrize("argv,_baseline,_corrupt", CASES)
    def test_correct_baseline_is_verified(self, argv, _baseline, _corrupt, capsys):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "baseline verified against centralised oracle: True" in out

    @pytest.mark.parametrize("argv,baseline,corrupt", CASES)
    def test_wrong_baseline_exits_1(self, argv, baseline, corrupt, monkeypatch, capsys):
        import repro.baselines

        real = getattr(repro.baselines, baseline)

        def wrong(graph, **kwargs):
            result = real(graph, **kwargs)
            result.value = corrupt(result.value)
            return result

        monkeypatch.setattr(repro.baselines, baseline, wrong)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "baseline verified against centralised oracle: False" in out
        # The algorithm's own answer is still right; only the baseline's is not.
        assert "\nverified against centralised oracle: True" in out


class TestFaultFlags:
    """PR 6 satellite: --faults / --fault-seed / --fault-kind wiring."""

    def test_defaults_off(self):
        args = build_parser().parse_args(["apsp", "16"])
        assert args.faults == 0
        assert args.fault_seed == 0
        assert args.fault_kind == "flip"

    def test_flags_parsed_on_all_three_commands(self):
        for command in ("matmul", "apsp", "mst"):
            args = build_parser().parse_args(
                [command, "16", "--faults", "2", "--fault-seed", "9",
                 "--fault-kind", "drop"]
            )
            assert args.faults == 2
            assert args.fault_seed == 9
            assert args.fault_kind == "drop"

    def test_negative_budget_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "16", "--faults", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_unknown_kind_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["apsp", "16", "--fault-kind", "emp"])
        capsys.readouterr()

    def test_robust_matmul_runs(self, capsys):
        assert main(["matmul", "16", "--faults", "1", "--fault-seed", "3"]) == 0
        assert "encoded rounds" in capsys.readouterr().out

    def test_robust_mst_runs(self, capsys):
        assert main(["mst", "14", "--faults", "1", "--fault-kind", "crash"]) == 0
        assert "faults: kind=crash" in capsys.readouterr().out

    def test_fault_free_commands_print_no_fault_summary(self, capsys):
        assert main(["apsp", "16"]) == 0
        assert "faults:" not in capsys.readouterr().out

    def test_under_provisioned_tolerance_exits_2(self, capsys):
        # 5 corrupt relays against a deliberately 1-tolerant code: pieces
        # fail certification, retries exhaust, and the CLI maps
        # FaultToleranceExceeded to a dedicated non-zero exit code.
        code = main(
            ["apsp", "16", "--faults", "5", "--fault-tolerance", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "fault tolerance exceeded" in captured.err
        assert "Reed-Solomon" in captured.err

    def test_matching_tolerance_always_survives(self, capsys):
        # The headline guarantee at the CLI surface: a code sized to the
        # adversary budget decodes every exchange, any seed, any kind.
        assert main(["apsp", "16", "--faults", "2", "--fault-seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "exact match with Floyd-Warshall oracle: True" in out


class TestFaultFlagValidationSweep:
    """PR 9 satellite: --fault-tolerance / --fault-seed validated at parse
    time across every fault-capable subcommand (the --threads treatment),
    plus the byzantine wiring."""

    FAULT_ARGV = {
        "matmul": ["matmul", "16"],
        "apsp": ["apsp", "16"],
        "mst": ["mst", "14"],
        "build-artifact": ["build-artifact", "16", "/tmp/pr9-artifact"],
        "update": ["update", "/tmp/pr9-artifact", "--edge", "0,1,1"],
    }

    @pytest.mark.parametrize("command", sorted(FAULT_ARGV))
    @pytest.mark.parametrize(
        "flag", ["--faults", "--fault-tolerance", "--fault-seed"]
    )
    def test_negative_values_rejected_at_parse_time(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.FAULT_ARGV[command] + [flag, "-2"])
        assert f"{flag} must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FAULT_ARGV))
    @pytest.mark.parametrize(
        "flag", ["--faults", "--fault-tolerance", "--fault-seed"]
    )
    def test_non_integer_values_rejected_at_parse_time(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.FAULT_ARGV[command] + [flag, "many"])
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(FAULT_ARGV))
    def test_byzantine_parses_everywhere(self, command):
        args = build_parser().parse_args(
            self.FAULT_ARGV[command]
            + ["--faults", "1", "--fault-kind", "byzantine"]
        )
        assert args.fault_kind == "byzantine"


class TestCodedSchemeCli:
    """Reed-Solomon coded collectives end to end at the CLI surface."""

    @pytest.mark.parametrize("kind", ["flip", "drop", "crash", "byzantine"])
    def test_coded_apsp_matches_oracle(self, kind, capsys):
        assert main(["apsp", "16", "--faults", "1", "--fault-kind", kind]) == 0
        out = capsys.readouterr().out
        assert f"faults: kind={kind} t=1 seed=0 injected=" in out
        assert "RS-coded" in out and "overhead" in out
        assert "exact match with Floyd-Warshall oracle: True" in out

    @pytest.mark.parametrize("t", [1, 2])
    def test_overhead_between_one_and_2t_plus_1(self, t, capsys):
        import re

        assert main(["apsp", "16", "--faults", str(t)]) == 0
        out = capsys.readouterr().out
        factor = float(re.search(r"overhead (\d+\.\d+)x", out).group(1))
        assert 1 < factor < 2 * t + 1

    @pytest.mark.parametrize(
        "t,rounds,line",
        [
            (1, 368, "injected=1368 retries=0 | encoded rounds=368 vs "
                     "abstract 296 (overhead 1.24x"),
            (2, 424, "injected=3141 retries=0 | encoded rounds=424 vs "
                     "abstract 296 (overhead 1.43x"),
        ],
    )
    def test_fault_line_is_pinned(self, t, rounds, line, capsys):
        """``--faults T`` bills exactly what the coded scheme billed when it
        still had to be chosen by name (replication billed 864 rounds for
        the same run at t = 1)."""
        assert main(["apsp", "16", "--faults", str(t)]) == 0
        out = capsys.readouterr().out
        assert f"APSP variant=exact n=16: {rounds} rounds" in out
        assert f"faults: kind=flip t={t} seed=0 {line}" in out
