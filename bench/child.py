"""The benchmark's worker process: ``gen`` writes a workload's input files,
``measure`` runs fit-and-score cycles on them and writes a JSON result.

``run.py`` starts each in a fresh process, so that input generation does not
count towards the measured process's peak memory.  A cycle is one setup, one
train and one eval stage; each stage is an operation, which fails if it raises
or fails its output check.  Cycles repeat until the next one would overrun
``--seconds``.  A traced run runs three cycles with each stage once: one
untraced, one with spans and one under ``tracemalloc``; then alternating
untraced and traced fits for ``tracing.overhead_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np
import scipy

# the glembed of this checkout, never an installed one
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import glembed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, M  # noqa: E402


# a traced run adds overhead pairs past --seconds only until this many seconds
# after the measuring process starts, so that it ends within the run's 180 s
TRACE_CAP_S = 120


class CheckFailed(Exception):
    """An output check of a stage did not hold."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def input_files(workdir: str) -> dict[str, str]:
    names = dict(data="data.tsv", locations="locations.tsv", test="test.tsv",
                 model="model.txt")
    return {k: os.path.join(workdir, v) for k, v in names.items()}


class Run:
    """Samples, operation counts and output facts of one measuring run."""

    def __init__(self, wl, files, cfg):
        self.wl, self.files, self.cfg = wl, files, cfg
        self.samples = {"setup_s": [], "train_s": [], "eval_s": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.anchor = None
        self.loss = None
        self.model_sha = None
        self.shape = None

    def stage(self, name, fn):
        """One operation: a raise or a failed check counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failing stage is counted, and the run goes on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def skipped(self, names):
        for name in names:
            self.attempted += 1
            self.failures.append(f"{name}: not run, an earlier stage failed")

    def setup(self, reps):
        t0 = time.perf_counter()
        for _ in range(reps):
            st = self.wl.setup(self.files, self.cfg)
        dt = (time.perf_counter() - t0) / reps
        data = st["data"]
        shape = dict(rows=data.n_rows, cols=data.n_cols, nnz=data.nnz,
                     dense_cells=data.n_rows * data.n_cols,
                     train_nnz=st["train"].nnz)
        check(data.nnz > 0 and st["train"].nnz > 0, "setup produced no training entries")
        check(self.shape in (None, shape), f"setup shape {shape} differs from {self.shape}")
        if self.shape is None:
            self.wl.write_test_split(st, self.files)
            self.anchor = self.wl.anchor_loss(st, self.files, self.cfg)
        self.shape = shape
        self.samples["setup_s"].append(dt)
        return st

    def train(self, st):
        t0 = time.perf_counter()
        bank, log = self.wl.fit(st, self.cfg)
        dt = time.perf_counter() - t0
        objectives = [r.objective for r in log]
        check(all(np.isfinite(objectives)), f"non-finite logged objective in {objectives}")
        check(objectives[-1] > objectives[0],
              f"final objective {objectives[-1]} not above the initial {objectives[0]}")
        meta = self.wl.model_meta(self.cfg, bank)
        M.dataio.store_model(self.files["model"], bank, meta, st["data"].row_labels)
        loaded, loaded_meta, labels = M.dataio.load_model(self.files["model"])
        check(np.array_equal(loaded.embeddings, bank.embeddings)
              and np.array_equal(loaded.context_vectors, bank.context_vectors)
              and loaded_meta == meta and labels == st["data"].row_labels,
              "stored model does not reload bit-exactly")
        digest = sha256(self.files["model"])
        check(self.model_sha in (None, digest), "model bytes differ between cycles of one seed")
        self.model_sha = digest
        self.samples["train_s"].append(dt)
        return True

    def eval(self, reps):
        t0 = time.perf_counter()
        repeats = [self.wl.score(self.files) for _ in range(reps)]
        dt = (time.perf_counter() - t0) / reps
        losses = repeats[0]
        check(all(np.isfinite(losses)) and min(losses) > 0, f"held-out losses {losses}")
        check(all(r == losses for r in repeats) and self.loss in (None, losses[0]),
              "held-out score differs between repeats of one seed")
        check(losses[0] < self.anchor,
              f"held-out loss {losses[0]} does not beat the anchor's {self.anchor}")
        self.loss = losses[0]
        self.samples["eval_s"].append(dt)

    def cycle(self, setup_reps, eval_reps, tracer=None, memory=False):
        """setup, train, eval; with a tracer each stage in a span, and with
        ``memory`` the tracemalloc peak of each stage returned."""
        peaks = {}

        def staged(name, fn):
            if memory:
                tracemalloc.reset_peak()
            if tracer is None:
                out = self.stage(name, fn)
            else:
                with tracer.span(f"stage.{name}"):
                    out = self.stage(name, fn)
            if memory:
                peaks[f"mem.{name}.peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
            return out

        st = staged("setup", lambda: self.setup(setup_reps))
        if st is None:
            self.skipped(["train", "eval"])
            return peaks
        trained = staged("train", lambda: self.train(st))
        # eval runs as ``glembed evaluate`` would, without the training data
        del st
        if trained is None:
            self.skipped(["eval"])
        else:
            staged("eval", lambda: self.eval(eval_reps))
        return peaks


def tracing_overhead(wl, files, cfg, deadline, cap, untraced, traced, min_pairs=3):
    """Median traced minus median untraced ``train`` time, with the number of
    pairs.  ``untraced`` and ``traced`` hold the times of the cycles so far;
    alternating fits of one setup add pairs while time remains before
    ``deadline``, and up to ``min_pairs`` pairs while it remains before
    ``cap``."""
    st = wl.setup(files, cfg)
    times = {False: list(untraced), True: list(traced)}
    while True:
        end = time.perf_counter() + statistics.median(times[False]) + statistics.median(times[True])
        if not (end < deadline or (len(times[True]) < min_pairs and end < cap)):
            break
        for on in (False, True):
            tracer = Tracer(run_id="overhead")
            if on:
                tracer.install()
            try:
                t0 = time.perf_counter()
                wl.fit(st, cfg)
                times[on].append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
    return statistics.median(times[True]) - statistics.median(times[False]), len(times[True])


def machine_facts() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        pass
    return dict(python=platform.python_version(), numpy=np.__version__,
                scipy=scipy.__version__, blas=blas, machine=platform.machine())


def measure(args) -> dict:
    wl = WORKLOADS[args.workload](small=args.small)
    files = input_files(args.dir)
    run = Run(wl, files, wl.run_config())
    start = time.perf_counter()
    per_layer = {}
    tracer = None
    cycles = 0
    overhead_pairs = 0
    if not args.trace:
        durations = []
        while True:
            c0 = time.perf_counter()
            run.cycle(wl.setup_reps, wl.eval_reps)
            durations.append(time.perf_counter() - c0)
            if time.perf_counter() + statistics.median(durations) > start + args.seconds:
                break
        cycles = len(durations)
    else:
        # one untraced cycle; one with spans, for layer times and counts; one
        # under tracemalloc, for the stage peaks, since its allocation hooks
        # would distort the layer times
        run.cycle(1, 1)
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
        try:
            run.cycle(1, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.dir, "spans.jsonl"))
        per_layer = layer_metrics(tracer.spans)
        tracemalloc.start()
        try:
            per_layer.update(run.cycle(1, 1, memory=True))
        finally:
            tracemalloc.stop()
        if not run.failures:  # the first two cycles' fits are the first pair
            untraced, traced = run.samples["train_s"][:2]
            per_layer["tracing.overhead_s"], overhead_pairs = tracing_overhead(
                wl, files, run.cfg, start + args.seconds, start + TRACE_CAP_S,
                [untraced], [traced])
        cycles = 3
    return dict(
        attempted=run.attempted, failed=len(run.failures), failures=run.failures,
        samples=run.samples, cycles=cycles,
        anchor_loss=run.anchor, heldout_loss=run.loss,
        heldout_score=1 / run.loss if run.loss else None,
        model_sha256=run.model_sha, shape=run.shape,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        per_layer=per_layer,
        absent_hooks=tracer.absent if tracer else [],
        overhead_pairs=overhead_pairs,
        config=run.cfg.canonical_text(), machine=machine_facts())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("gen", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    if os.path.dirname(os.path.abspath(glembed.__file__)) != os.path.join(SRC, "glembed"):
        print(f"error: imported glembed from {glembed.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "gen":
        WORKLOADS[args.workload](small=args.small).generate(input_files(args.dir), args.seed)
        return 0
    result = measure(args)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
