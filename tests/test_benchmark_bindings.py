"""The benchmark's traced run (perfbench/layers.py) wraps program functions
at the bindings their callers look up.  A refactor that renames or removes
one of them breaks traced runs, and nothing else in this suite imports
perfbench/, so this test does."""
from __future__ import annotations

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
