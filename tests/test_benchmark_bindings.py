"""The benchmark (perfbench/) calls program functions as module attributes,
and its traced run (perfbench/layers.py) wraps them at the bindings their
callers look up.  A refactor that renames or removes one of them breaks the
benchmark, and nothing else in this suite imports perfbench/, so these
tests do."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = layers.Tracer().targets()
    assert targets
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _, _ in targets
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []


def _module_attributes(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) for each `<module>.<attribute>` in the file whose
    module it imports with `from switchwork import ...`."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "switchwork"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_module_attribute_the_benchmark_names_resolves():
    named = set().union(*map(_module_attributes, PERFBENCH.glob("*.py")))
    assert ("switchcore", "measure_control") in named  # the walk sees untraced calls
    missing = sorted(
        (module, attr)
        for module, attr in named
        if not hasattr(importlib.import_module(f"switchwork.{module}"), attr)
    )
    assert missing == []
