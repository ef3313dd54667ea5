"""The benchmark's traced run wraps glembed functions by name; a refactor
that renames or removes one would silently zero its per-layer metrics."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_hook_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    for mod, *_ in tracer._FUNCTIONS + tracer._METHODS:
        importlib.import_module(f"glembed.{mod}")
    t = tracer.Tracer("hooks")
    try:
        t.install()
    finally:
        t.uninstall()
    assert t.absent == []
