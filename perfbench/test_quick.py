"""Tests of the benchmark itself, through its quick mode.

  python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--quick", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_quick_mode_runs_every_workload_with_every_metric():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run("--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        results = _last_json(proc)["workloads"]
        assert list(results) == [w["name"] for w in BENCHMARK["workloads"]]
        units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for result in results.values():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == units
            if kind == "end_to_end":
                assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_expected_score_fails_the_run():
    proc = _run("--workload", "model-dp", "--inject-wrong-score")
    assert proc.returncode != 0
    assert _last_json(proc)["correct"] is False
    assert "differs from unpruned" in proc.stderr


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "poset-table", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "no mewvote sources" in proc.stderr
