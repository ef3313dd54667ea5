"""A/B benchmark of two revisions, each measured by its own bench/run.py.

    python3 tools/ab.py --base REV [--head REV] --workload W --seed N --pairs P
                        --label L [--seconds S] [--small] [--out PATH]

Run from anywhere inside a git checkout.  Each revision is unpacked with
``git archive`` into ``.bench_work/ab-<side>-<sha>-<pid>``, removed
afterwards; with no ``--head`` the head side is the working tree itself,
uncommitted changes included.  Each side runs its own, unchanged ``bench/run.py``, one run per
side per pair, in alternating order (base first in even pairs, head first in
odd ones), so that a slow phase of a shared host falls on both sides alike.

The result goes to ``BENCH_<label>.json`` at the root of the checkout (or
``--out``): per side, each run's end-to-end metrics, model SHA-256 and
``heldout_score``, and per metric the samples' median and quartiles; per
metric, the head/base ratio of each pair and their median, the pairs in
which the head is better, and whether the head's median is better than the
base's by more than the base's interquartile range; both revisions; and the
machine facts of the first report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(sha: str, side: str) -> str:
    """A new directory holding the files of commit ``sha`` for ``side``."""
    path = os.path.join(ROOT, ".bench_work", f"ab-{side}-{sha[:12]}-{os.getpid()}")
    os.makedirs(path)
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def run_bench(checkout: str, args) -> dict:
    """One run of ``checkout``'s bench/run.py: its end-to-end metrics, model
    SHA-256, held-out score and machine facts."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run(cmd + (["--small"] if args.small else []), cwd=checkout,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} failed:\n{done.stderr[-2000:]}")
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "model_sha256": report["model_sha256"], "heldout_score": report["heldout"]["score"],
            "machine": report["machine"]}


def spread(samples: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if len(samples) > 1 else samples * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(base: list[dict], head: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's samples and spread, the paired ratios, and the
    pairs and median shift in the metric's better direction."""
    out = {}
    for name, direction in better.items():
        b = [run["metrics"][name] for run in base]
        h = [run["metrics"][name] for run in head]
        sign = -1.0 if direction == "lower" else 1.0
        sb, sh = spread(b), spread(h)
        ratios = [y / x if x else None for x, y in zip(b, h)]
        gain = sign * (sh["median"] - sb["median"])
        out[name] = {"better": direction, "base": {"samples": b, **sb},
                     "head": {"samples": h, **sh}, "ratios": ratios,
                     "median_ratio": statistics.median(r for r in ratios if r is not None)
                     if any(r is not None for r in ratios) else None,
                     "head_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(b, h)),
                     "median_gain": gain, "gain_beyond_base_iqr": gain > sb["iqr"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--base", required=True, help="base revision")
    p.add_argument("--head", help="head revision (default: the working tree)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="bench/run.py --seconds")
    p.add_argument("--small", action="store_true", help="bench/run.py --small")
    p.add_argument("--out", help="result path (default: BENCH_<label>.json at the root)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    head_sha = args.head and git("rev-parse", "--verify", args.head + "^{commit}")
    made = []
    try:
        base_dir = unpack(base_sha, "base")
        made.append(base_dir)
        head_dir = ROOT
        if head_sha:
            head_dir = unpack(head_sha, "head")
            made.append(head_dir)
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(run_bench(base_dir if side == "base" else head_dir, args))
                print(f"pair {i + 1}/{args.pairs} {side}: {runs[side][-1]['metrics']}",
                      file=sys.stderr)
    finally:
        for path in made:
            shutil.rmtree(path, ignore_errors=True)
    result = {
        "label": args.label, "workload": args.workload, "seed": args.seed,
        "pairs": args.pairs, "seconds": args.seconds, "small": args.small,
        "order": "base first in even pairs (0, 2, ...), head first in odd ones",
        "base": {"revision": base_sha},
        "head": {"revision": head_sha or f"working tree at {git('rev-parse', 'HEAD')}"},
        "metrics": compare(runs["base"], runs["head"], better),
        "machine": runs["base"][0]["machine"],
    }
    for side in ("base", "head"):
        result[side]["runs"] = [{k: run[k] for k in ("metrics", "correct", "failed",
                                                     "model_sha256", "heldout_score")}
                                for run in runs[side]]
    out = args.out or os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
