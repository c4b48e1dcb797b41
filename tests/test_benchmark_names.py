"""The package names that the benchmark in ``perfbench/`` reaches exist.

``perfbench/tracing.py`` wraps each function of its ``TRACED`` table by
name, with ``setattr`` on its module, and ``step_replay`` drives a
``Memory`` one call at a time. The benchmark's files also call package
functions through their modules. Removing or renaming one of those names
would fail only the benchmark's own runs; these tests fail in this suite
instead. The benchmark's files are read as source, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import vapormem
from vapormem import cli, core, engine, harness, physics, seqlang

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {m.__name__.rpartition(".")[2]: m
           for m in (cli, core, engine, harness, physics, seqlang)}


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _traced() -> list[tuple[str, str]]:
    """The (module, function) pairs of tracing.TRACED."""
    for node in _tree("tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError("perfbench/tracing.py has no TRACED table")


def _reads() -> list[tuple[str, str, str]]:
    """(file, owner, name) for each package name a benchmark file reads.

    The owner is a package module read as ``<module>.<name>``, ``mem`` for
    an attribute of the ``Memory`` that ``step_replay`` drives, or the
    module of a ``from vapormem... import name``.
    """
    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id in MODULES or node.value.id == "mem")):
                reads.append((path.name, node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vapormem"):
                owner = node.module.rpartition(".")[2]
                reads += [(path.name, owner, alias.name) for alias in node.names]
    return reads


@pytest.mark.parametrize("module,name", _traced(), ids=[".".join(p) for p in _traced()])
def test_traced_function_exists(module, name):
    assert callable(getattr(getattr(vapormem, module), name, None))


def test_every_package_name_the_benchmark_reads_exists():
    reads = _reads()
    mem = engine.Memory(core.default_params(), core.default_rails())
    owners = {**MODULES, "vapormem": vapormem, "mem": mem}
    assert reads
    assert [read for read in reads if not hasattr(owners[read[1]], read[2])] == []
