"""Documentation-sync checks.

Keeps DESIGN.md / EXPERIMENTS.md / README.md honest: every module the
design inventory names must import, every public symbol promised by the
README quickstart must exist, and every file named in the per-experiment
index must be a real file.  Also keeps ``src/`` free of test-only oracles.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignInventory:
    def test_every_inventoried_module_imports(self):
        text = _read("DESIGN.md")
        modules = set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text))
        assert len(modules) >= 20, "inventory should name the system's modules"
        for module in sorted(modules):
            importlib.import_module(module)

    def test_every_bench_target_exists(self):
        text = _read("DESIGN.md")
        index = text.split("## Per-experiment index", 1)[1].split("\n## ", 1)[0]
        targets = set(re.findall(r"`((?:tests|perfbench)/[a-z_0-9]+\.py)`", index))
        assert len(targets) >= 15, "the per-experiment index should name test files"
        for target in sorted(targets):
            assert (ROOT / target).exists(), target

    def test_paper_identity_check_is_stated(self):
        text = _read("DESIGN.md")
        assert "identity check" in text.lower()
        assert "Censor-Hillel" in text


class TestExperimentsDoc:
    def test_every_table1_row_has_a_section(self):
        text = _read("EXPERIMENTS.md")
        for row in (
            "matrix multiplication (semiring)",
            "matrix multiplication (ring)",
            "triangle counting",
            "4-cycle detection",
            "4-cycle counting",
            "k-cycle detection",
            "girth",
            "weighted directed APSP",
            "weighted diameter U",
            "approximate APSP",
            "unweighted undirected APSP",
        ):
            assert row in text, row

    def test_figures_and_lower_bounds_covered(self):
        text = _read("EXPERIMENTS.md")
        assert "Figures 1-2" in text or "Figure 1" in text
        assert "Lemma 12 tiling" in text or "Figure 3" in text
        assert "lower bounds" in text.lower()

    def test_caveats_are_documented(self):
        text = _read("EXPERIMENTS.md")
        assert "Strassen" in text
        assert "caveat" in text.lower()


class TestReadme:
    def test_quickstart_symbols_exist(self):
        import repro

        text = _read("README.md")
        for symbol in re.findall(r"from repro import ([\w, ]+)", text):
            for name in symbol.split(","):
                assert hasattr(repro, name.strip()), name

    def test_cli_commands_in_readme_are_real(self):
        from repro.cli import build_parser

        text = _read("README.md")
        commands = set(re.findall(r"python -m repro (\w[\w-]*)", text))
        parser = build_parser()
        sub = next(
            a for a in parser._actions  # noqa: SLF001 - argparse introspection
            if hasattr(a, "choices") and a.choices
        )
        for command in commands:
            assert command in sub.choices, command

    def test_coded_overhead_quotes_match_the_cli(self, capsys):
        """Every README quote of ``apsp 16 --faults 1``'s round overhead is
        the overhead that command prints."""
        from repro.cli import main

        assert main(["apsp", "16", "--faults", "1"]) == 0
        printed = re.search(r"overhead (\d+\.\d+)x", capsys.readouterr().out)
        text = " ".join(_read("README.md").split())
        quotes = re.findall(
            r"(\d+\.\d+)[x×] for `apsp 16 --faults 1`", text
        ) + re.findall(r"apsp 16 --faults 1 # [^#]*?(\d+\.\d+)x overhead", text)
        assert len(quotes) >= 2, quotes
        assert set(quotes) == {printed.group(1)}

    def test_install_instructions_mention_offline_path(self):
        text = _read("README.md")
        assert "setup.py develop" in text


class TestOraclesHaveCallers:
    def test_every_src_reference_has_a_caller(self):
        """A public ``*_reference`` oracle in ``src/`` must be called from
        ``src/`` or ``examples/`` (the CLI and example self-checks); one
        only the tests call belongs in a ``tests/`` helper module."""
        trees = {
            path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src").rglob("*.py"))
            + sorted((ROOT / "examples").glob("*.py"))
        }
        defined = {
            node.name
            for path, tree in trees.items()
            if "src" in path.relative_to(ROOT).parts
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.endswith("_reference")
            and not node.name.startswith("_")
        }
        assert len(defined) >= 5, defined
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert sorted(defined - called) == []


class TestImportsAreUsed:
    def test_every_src_import_is_used(self):
        """Every name a ``src/`` module imports is read as a name, listed
        in its ``__all__`` (a re-export) or named in a string annotation."""
        unused = []
        for path in sorted((ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            used = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
                elif isinstance(node, ast.ImportFrom):
                    if node.module != "__future__":
                        for alias in node.names:
                            imported[alias.asname or alias.name] = node.lineno
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                ):
                    used |= set(ast.literal_eval(node.value))
                annotations = [getattr(node, "returns", None)]
                annotations.append(getattr(node, "annotation", None))
                for annotation in filter(None, annotations):
                    used |= {
                        word
                        for sub in ast.walk(annotation)
                        if isinstance(sub, ast.Constant)
                        and isinstance(sub.value, str)
                        for word in re.findall(r"\w+", sub.value)
                    }
            unused += [
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for name, line in sorted(imported.items())
                if name not in used
            ]
        assert unused == []


class TestExamplesListed:
    def test_every_example_file_is_mentioned_in_readme(self):
        text = _read("README.md")
        for path in sorted((ROOT / "examples").glob("*.py")):
            assert path.name in text, f"README should mention {path.name}"


def _marks_slow(node: ast.AST) -> bool:
    """Whether ``node`` applies ``pytest.mark.slow`` anywhere inside it."""
    return any(
        isinstance(sub, ast.Attribute)
        and sub.attr == "slow"
        and isinstance(sub.value, ast.Attribute)
        and sub.value.attr == "mark"
        for sub in ast.walk(node)
    )


class TestSlowTestsRunInCi:
    def test_every_slow_test_file_is_in_a_slow_ci_step(self):
        """The fast lane deselects ``slow`` tests, so one runs in CI only if
        a pytest step with ``-m slow`` names its file: whole, or by every
        class that holds a slow test."""
        selected: dict[str, set[str] | None] = {}
        for line in _read(".github/workflows/ci.yml").splitlines():
            if "pytest" not in line or not re.search(r"-m\s+[\"']?slow\b", line):
                continue
            for path, _, cls in re.findall(r"(tests/\w+\.py)(::(\w+))?", line):
                if not cls:
                    selected[path] = None
                elif selected.get(path, set()) is not None:
                    selected.setdefault(path, set()).add(cls)
        missing = []
        for path in sorted((ROOT / "tests").glob("test_*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owners = {
                node.name if isinstance(node, ast.ClassDef) else "<module>"
                for node in tree.body
                if _marks_slow(node)
            }
            name = f"tests/{path.name}"
            if not owners or name in selected and (
                selected[name] is None or owners <= selected[name]
            ):
                continue
            missing.append(f"{name}: {', '.join(sorted(owners))}")
        assert missing == []
