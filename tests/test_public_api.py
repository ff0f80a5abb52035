"""Public API surface: imports, __all__ hygiene, version, docstrings, no
library code that only the tests reach, and no benchmark nothing runs."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.utils",
    "repro.nn",
    "repro.nn.layers",
    "repro.data",
    "repro.cluster",
    "repro.fl",
    "repro.algorithms",
    "repro.core",
    "repro.experiments",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_top_level_workflow_symbols(self):
        import repro

        for symbol in (
            "build_federation",
            "FederatedEnv",
            "TrainConfig",
            "FedClust",
            "FedClustConfig",
            "FedAvg",
            "make_algorithm",
        ):
            assert symbol in repro.__all__

    def test_public_callables_documented(self):
        """Every public callable exported at the top level has a docstring."""
        import repro

        for symbol in repro.__all__:
            obj = getattr(repro, symbol)
            if callable(obj):
                assert obj.__doc__, f"repro.{symbol} lacks a docstring"

    def test_cli_module_importable(self):
        from repro.cli import build_parser, main

        assert callable(main)
        assert build_parser().prog == "repro"


ROOT = Path(__file__).resolve().parents[1]
ENTRY_POINT_DIRS = ("perfbench", "benchmarks", "examples")


def _mentioned(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name.rsplit(".", 1)[-1])
    return names


def _is_all_assignment(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [
        getattr(stmt, "target", None)
    ]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def test_every_src_definition_is_reachable():
    """No top-level ``src/`` def or class exists only for the tests.

    Reachability is by name, so it over-approximates (any two definitions
    sharing a name are reached together) and never flags live code.  The
    roots are what runs without the tests: ``repro.cli.main``, every
    module-level statement in ``src/`` other than imports and
    ``__all__`` (registries, constants, decorators' arguments), and every
    name in the ``perfbench/``, ``benchmarks/`` and ``examples/`` scripts.
    A reached definition reaches every name its body mentions.
    """
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = {"main"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, []).append((where, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)) and not (
                _is_all_assignment(stmt)
            ):
                roots |= _mentioned(stmt)
    for directory in ENTRY_POINT_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            roots |= _mentioned(ast.parse(path.read_text()))

    reached: set[str] = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in definitions.get(name, []):
            frontier.extend(_mentioned(node) - reached)

    unreached = sorted(
        f"{where}: {name}"
        for name, sites in definitions.items()
        if name not in reached
        for where, _ in sites
    )
    assert not unreached, (
        "library definitions no entry point reaches (delete them, or move "
        "test oracles into tests/):\n  " + "\n  ".join(unreached)
    )


def test_every_benchmark_script_is_run():
    """Every ``benchmarks/*.py`` is named by ``scripts/bench.sh`` or the CI
    workflow, so no benchmark code lives on that nothing runs."""
    runners = "\n".join(
        (ROOT / path).read_text()
        for path in ("scripts/bench.sh", ".github/workflows/tier1.yml")
    )
    orphans = sorted(
        path.name
        for path in (ROOT / "benchmarks").glob("*.py")
        if f"benchmarks/{path.name}" not in runners
    )
    assert not orphans, (
        "benchmark files neither scripts/bench.sh nor the CI workflow runs "
        "(wire them in or delete them):\n  " + "\n  ".join(orphans)
    )
