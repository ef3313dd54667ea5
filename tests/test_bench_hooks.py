"""The benchmark's traced run wraps glembed functions by name; a refactor
that renames or removes one would silently zero its per-layer metrics."""

import importlib
import importlib.util
import sys
from pathlib import Path

from glembed.families import Family
from glembed.train import TrainConfig, train

from helpers import family_instance

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
    # methods deleted on purpose, whose per-layer metrics read 0; any other
    # missing hook fails
    assert sorted(t.absent) == ["contexts.*.scatter_add", "contexts.*.sums",
                                "core.DataMatrix.dense", "families.conditional_means"]


def test_traced_fits_record_cells_without_attribute_errors(monkeypatch):
    # the cell counts are read from the batch at fixed argument positions
    tracer = _load_tracer(monkeypatch)
    for mod, *_ in tracer._FUNCTIONS + tracer._METHODS:
        importlib.import_module(f"glembed.{mod}")
    t = tracer.Tracer("hooks")
    try:
        t.install()
        data, ctx, _, spec = family_instance(Family.BERNOULLI, 3, vocab=6, length=40)
        train(data, ctx, spec, TrainConfig(dim=3, estimator="sparse", n_iterations=3,
                                           negative_samples=2, log_every=1))
        data, ctx, _, spec = family_instance(Family.GAUSSIAN, 4, n=8, t=10)
        train(data, ctx, spec, TrainConfig(dim=3, estimator="minibatch", minibatch_size=5,
                                           n_iterations=3, log_every=1))
    finally:
        t.uninstall()
    assert not [s.name for s in t.spans if "attr_error" in s.attrs]
    counted = [s for s in t.spans if s.name == "families.weighted_term_gradient"]
    assert counted and all(s.attrs["cells"] > 0 for s in counted)
