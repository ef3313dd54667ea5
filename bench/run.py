"""glembed benchmark: seeded fit-and-score workloads, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, metrics and bounds are in
BENCHMARK.json.  The run generates the workload's inputs from the seed in one
process, then measures in a fresh process, for about S seconds, repeated
cycles of the steps ``glembed train`` and ``glembed evaluate`` take:
ingest, split, context build, train, model store, and held-out scoring.
Every stage's outputs are checked.

With ``--trace 0`` the result carries the end-to-end metrics: medians of the
stage times, the measuring process's peak RSS and the held-out skill ratio.
With ``--trace 1`` it carries the per-layer metrics of a traced cycle, whose
spans are written under ``.bench_out/``.  The last line of standard output is
the result as one JSON object; the line before it is a report with the
samples, model SHA-256, data shape and machine facts, also written to
``.bench_out/``.  ``--small`` runs tiny shapes, for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 175  # a run must end within 180 s


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def ram_mib() -> float | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def summary(samples: list[float]) -> dict:
    if not samples:
        return {"n": 0}
    return {"n": len(samples), "median": statistics.median(samples),
            "min": min(samples), "max": max(samples)}


def child(args, mode: str, workdir: str, timeout: float, out: str | None = None) -> int:
    cmd = [sys.executable, CHILD, mode, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if out:
        cmd += ["--out", out]
    # the child's output goes to stderr: the last stdout line is the result
    return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    args = p.parse_args(argv)
    started = time.monotonic()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "glembed", "__init__.py")):
        print(f"error: no glembed sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_json):
        print(f"error: {bench_json} is missing", file=sys.stderr)
        return 2
    with open(bench_json) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(whys)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    result_path = os.path.join(workdir, "result.json")
    try:
        if child(args, "gen", workdir, timeout=60) != 0:
            print("error: input generation failed", file=sys.stderr)
            return 1
        budget = DEADLINE_S - (time.monotonic() - started)
        if child(args, "measure", workdir, timeout=budget, out=result_path) != 0:
            print("error: the measuring process failed", file=sys.stderr)
            return 1
        with open(result_path) as f:
            res = json.load(f)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            os.replace(os.path.join(workdir, "spans.jsonl"),
                       os.path.join(outdir, f"spans-{tag}.jsonl"))
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = res["per_layer"]
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {k: statistics.median(v) for k, v in res["samples"].items() if v}
        values["peak_rss_mib"] = res["peak_rss_mib"]
        values["heldout_score"] = res["heldout_score"]
    missing = [n for n, _ in names if values.get(n) is None]
    metrics = {n: {"value": values.get(n) or 0.0, "unit": u} for n, u in names}

    report = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "trace": args.trace, "small": args.small,
        "cycles": res["cycles"],
        "samples": {k: summary(v) for k, v in res["samples"].items()},
        "failures": res["failures"], "missing_metrics": missing,
        "absent_hooks": res["absent_hooks"], "overhead_pairs": res["overhead_pairs"],
        "heldout": {"loss": res["heldout_loss"], "anchor_loss": res["anchor_loss"],
                    "score": res["heldout_score"]},
        "model_sha256": res["model_sha256"], "shape": res["shape"],
        "config": res["config"],
        "machine": dict(res["machine"], nproc=os.cpu_count(), ram_mib=ram_mib()),
        "git_revision": git_revision(),
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(outdir, f"report-{tag}.json"), "w") as f:
        json.dump(dict(report, metrics=metrics), f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": res["failed"] == 0 and not missing,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
