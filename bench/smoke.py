"""Smoke test of the benchmark itself, at tiny shapes.

    python3 bench/smoke.py          (or: python3 -m pytest bench/smoke.py)

Runs every workload of BENCHMARK.json untraced and traced, and checks that
the result line has exactly the contract's keys, that no operation failed and
that every named metric is emitted with its unit.  Checks that the model the
benchmark stores is byte-identical to the one ``glembed train``
(``cli.run_train``) stores for the same configuration and data.  Then checks
that in a directory holding only BENCHMARK.json and the benchmark, the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd, workload, trace, small=True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace)] + (["--small"] if small else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_workload_emits_every_metric():
    spec = _spec()
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0, proc.stdout[-3000:]
            assert result["attempted"] >= 3
            expected = {m["name"]: m["unit"] for m in spec[group]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())


def test_model_matches_glembed_train():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from child import input_files
    from workloads import WORKLOADS, M

    work = os.path.join(ROOT, ".bench_work", f"smoke-train-{os.getpid()}")
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(small=True)
            files = input_files(os.path.join(work, name))
            os.makedirs(os.path.dirname(files["data"]))
            wl.generate(files, 3)
            cfg = wl.run_config()
            st = wl.setup(files, cfg)
            bank, _ = wl.fit(st, cfg)
            M.dataio.store_model(files["model"], bank, wl.model_meta(cfg, bank),
                                 st["data"].row_labels)
            cli_model = files["model"] + ".cli"
            M.cli.run_train(cfg, files["data"], files["locations"], cli_model, None)
            with open(files["model"], "rb") as a, open(cli_model, "rb") as b:
                assert a.read() == b.read(), name
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_bare_directory_fails():
    bare = os.path.join(ROOT, ".bench_work", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(bare, _spec()["workloads"][0]["name"], 0, small=False)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload_emits_every_metric()
    test_model_matches_glembed_train()
    test_bare_directory_fails()
    print("smoke: ok")
