"""tools/ab.py: an A/A run of one revision writes the BENCH_*.json schema."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_an_a_a_run_writes_both_sides_and_the_paired_comparison(tmp_path):
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("tools/ab.py unpacks revisions of a git checkout")
    out = tmp_path / "BENCH_aa.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--base", "HEAD",
                    "--head", "HEAD", "--workload", "gauss-knn-minibatch", "--seed", "1",
                    "--pairs", "2", "--label", "aa", "--small", "--seconds", "1",
                    "--out", str(out)], check=True, capture_output=True, timeout=300)
    res = json.loads(out.read_text())
    assert (res["label"], res["workload"], res["seed"], res["pairs"]) == (
        "aa", "gauss-knn-minibatch", 1, 2)
    assert res["base"]["revision"] == res["head"]["revision"] == head
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in end_to_end)
    for side in ("base", "head"):
        runs = res[side]["runs"]
        assert len(runs) == 2 and all(run["correct"] and run["failed"] == 0 for run in runs)
        assert sorted(runs[0]["metrics"]) == sorted(res["metrics"])
    # one revision, one seed: the same model bytes and score on both sides
    assert len({run["model_sha256"] for s in ("base", "head") for run in res[s]["runs"]}) == 1
    assert len({run["heldout_score"] for s in ("base", "head") for run in res[s]["runs"]}) == 1
    for m in end_to_end:
        got = res["metrics"][m["name"]]
        assert got["better"] == m["better"]
        for side in ("base", "head"):
            assert len(got[side]["samples"]) == 2
            assert got[side]["q1"] <= got[side]["median"] <= got[side]["q3"]
            assert got[side]["iqr"] == pytest.approx(got[side]["q3"] - got[side]["q1"])
        assert len(got["ratios"]) == 2 and 0 <= got["head_better_pairs"] <= 2
        assert isinstance(got["gain_beyond_base_iqr"], bool)
        lo, hi = got["ratio_interval"]
        assert lo <= got["median_ratio"] <= hi
    assert res["metrics"]["heldout_score"]["ratios"] == [1.0, 1.0]
    assert res["metrics"]["heldout_score"]["ratio_interval"] == [1.0, 1.0]
    assert "nproc" in res["machine"]
