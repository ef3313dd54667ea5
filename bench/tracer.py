"""In-memory spans around calls into glembed's public functions.

The traced run wraps functions and context methods where the program looks
them up (every glembed module that imported them), so the program itself
carries no tracing code.  Spans hold name, start, end, parent span and run
id; they stay in memory and are written out when the run ends.  A hooked
function that no longer exists is listed as absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _line_count(path) -> int:
    with open(path, "rb") as f:
        return sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b"")) - 1


# (module, function, span name, attrs from (args, kwargs, result));
# positions count ``self`` for methods
_FUNCTIONS = [
    ("dataio", "ingest", "dataio.ingest",
     lambda a, k, r: {"lines": _line_count(_arg(a, k, 0, "path"))}),
    ("dataio", "store_model", "dataio.store_model", None),
    ("dataio", "load_model", "dataio.load_model", None),
    ("evaluate", "make_split", "evaluate.make_split", None),
    ("contexts", "build_knn_context", "contexts.build", None),
    ("contexts", "build_window_context", "contexts.build", None),
    ("train", "train", "train.train", None),
    ("train", "full_gradient", "train.gradient", None),
    ("train", "minibatch_gradient", "train.gradient", None),
    ("train", "sparse_gradient", "train.gradient", None),
    ("train", "_draw_zero_cells", "train.draw_zero_cells",
     lambda a, k, r: {"samples": int(r[2])}),
    ("train", "adagrad_step", "train.adagrad_step", None),
    ("train", "estimate_objective", "train.estimate_objective", None),
    ("train", "objective", "train.objective",
     lambda a, k, r: {"scored": _arg(a, k, 0, "data").n_terms, "excluded": 0}),
    ("families", "weighted_term_gradient", "families.weighted_term_gradient",
     lambda a, k, r: {"cells": len(_arg(a, k, 4, "rows"))}),
    ("families", "term_log_likelihoods", "families.term_log_likelihoods", None),
    ("families", "conditional_means", "families.conditional_means", None),
    ("evaluate", "leave_one_out_mse", "evaluate.leave_one_out_mse",
     lambda a, k, r: {"scored": r.n_entries, "excluded": r.excluded}),
    ("evaluate", "leave_fraction_out_mse", "evaluate.leave_fraction_out_mse",
     lambda a, k, r: {"scored": r.n_entries, "excluded": r.excluded}),
]
_METHODS = [
    ("contexts", "sums", "contexts.sums",
     lambda a, k, r: {"cells": len(_arg(a, k, 3, "rows"))}),
    ("contexts", "scatter_add", "contexts.scatter_add",
     lambda a, k, r: {"cells": len(_arg(a, k, 2, "rows"))}),
]


class Tracer:
    """Records spans while installed; ``uninstall`` restores the program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run_id, attrs))

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
            if attrs_of is not None:  # outside the span, so not timed
                try:
                    attrs.update(attrs_of(args, kwargs, result))
                except (IndexError, KeyError, TypeError, AttributeError, OSError) as exc:
                    attrs["attr_error"] = repr(exc)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        glembed = {n: m for n, m in sys.modules.items()
                   if n == "glembed" or n.startswith("glembed.")}
        for mod, attr, name, attrs_of in _FUNCTIONS:
            original = getattr(glembed.get(f"glembed.{mod}"), attr, None)
            if original is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(original, name, attrs_of)
            for m in glembed.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for mod, attr, name, attrs_of in _METHODS:
            module = glembed.get(f"glembed.{mod}")
            classes = [c for c in vars(module).values() if isinstance(c, type)
                       and c.__module__ == module.__name__ and attr in vars(c)]
            if not classes:
                self.absent.append(f"{mod}.*.{attr}")
            for cls in classes:
                self._set(cls, attr, self._wrap(vars(cls)[attr], name, attrs_of))
        self._hook_dense(glembed.get("glembed.core"))

    def _hook_dense(self, core) -> None:
        cls = getattr(core, "DataMatrix", None)
        if cls is None or "dense" not in vars(cls):
            self.absent.append("core.DataMatrix.dense")
            return
        seen = weakref.WeakSet()

        def bytes_computed(args, kwargs, result):
            data = args[0]
            if data in seen:
                return {"bytes": 0}
            seen.add(data)
            return {"bytes": data.n_rows * data.n_cols * 8}
        self._set(cls, "dense", self._wrap(vars(cls)["dense"], "core.dense", bytes_computed))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s)) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part covered by child spans (children never overlap)."""
    self_t = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in self_t:
            self_t[s.parent] -= s.duration
    return self_t


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, keyed by metric name.

    A metric counts only the spans inside the stage (``stage.setup``,
    ``stage.train``, ``stage.eval``) whose end-to-end metric it explains:
    the objective, for one, runs in training and in scoring alike.
    """
    by_id = {s.id: s for s in spans}
    self_t = _self_times(spans)

    def within(s, name):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    def outermost(s):  # not nested in a span of its own name
        return not within(s, s.name)

    def named(name, stage):  # stage None: every stage
        return [s for s in spans if s.name == name
                and (stage is None or within(s, f"stage.{stage}"))]

    def total(name, stage):
        return sum(s.duration for s in named(name, stage) if outermost(s))

    def self_total(name, stage):
        return sum(self_t[s.id] for s in named(name, stage))

    def attr_sum(name, key, stage):
        return sum(s.attrs.get(key, 0) for s in named(name, stage))

    steps = sorted(s.end for s in named("train.adagrad_step", "train"))
    iter_ms = [1e3 * (b - a) for a, b in zip(steps, steps[1:])]
    q = statistics.quantiles(iter_ms, n=100, method="inclusive") if len(iter_ms) > 1 else [0.0] * 99
    train_s = total("train.train", "train")
    objective_s = total("train.estimate_objective", "train")
    # scoring calls of the eval stage (the objective also runs inside training)
    protocols = [s for s in spans if "scored" in s.attrs and within(s, "stage.eval")]
    m = {
        "dataio.ingest.s": total("dataio.ingest", "setup"),
        "dataio.ingest.lines": attr_sum("dataio.ingest", "lines", "setup"),
        "evaluate.make_split.s": total("evaluate.make_split", "setup"),
        "contexts.build.s": total("contexts.build", "setup"),
        "train.estimate_objective.s": objective_s,
        "train.estimate_objective.calls": len(named("train.estimate_objective", "train")),
        "train.log_share": objective_s / train_s if train_s > 0 else 0.0,
        "train.log_share.base_s": train_s,
        "train.gradient.self_s": self_total("train.gradient", "train"),
        "train.draw_zero_cells.s": total("train.draw_zero_cells", "train"),
        "train.draw_zero_cells.samples": attr_sum("train.draw_zero_cells", "samples", "train"),
        "train.adagrad_step.s": total("train.adagrad_step", "train"),
        "train.iteration.p50_ms": q[49],
        "train.iteration.p95_ms": q[94],
        # the dense cache serves every stage, and peak memory is the process's
        "core.dense.calls": len(named("core.dense", None)),
        "core.dense.bytes_computed": attr_sum("core.dense", "bytes", None),
        "evaluate.entries_scored": sum(s.attrs["scored"] for s in protocols),
        "evaluate.entries_excluded": sum(s.attrs["excluded"] for s in protocols),
        "contexts.sums.s": total("contexts.sums", "train"),
        "contexts.scatter_add.s": total("contexts.scatter_add", "train"),
        "families.weighted_term_gradient.self_s":
            self_total("families.weighted_term_gradient", "train"),
        "families.term_log_likelihoods.self_s": self_total("families.term_log_likelihoods", "eval"),
        "families.conditional_means.self_s": self_total("families.conditional_means", "eval"),
    }
    for layer in ("contexts.sums", "contexts.scatter_add", "families.weighted_term_gradient"):
        m[f"{layer}.calls"] = len(named(layer, "train"))
        m[f"{layer}.cells"] = attr_sum(layer, "cells", "train")
    for proto in ("leave_one_out_mse", "leave_fraction_out_mse"):
        m[f"evaluate.{proto}.s"] = total(f"evaluate.{proto}", "eval")
    return m
