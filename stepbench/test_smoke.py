"""Smoke test of the step benchmark itself; not part of the repository's tests.

    python3 -m pytest -q stepbench/test_smoke.py

Runs every workload for one round, untraced and traced, and checks that
the result line names every metric of BENCHMARK.json with its unit, that
no step failed, and that the benchmark refuses to run without the program.
Takes about five minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def run(cwd, *args):
    cmd = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(cmd + [str(a) for a in args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def test_benchmark_json_has_its_fixed_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "stepbench/run.py"]
    assert SPEC["paths"] == ["stepbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["desk20", "crowd-replay"]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
    all_names = names + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(all_names) == len(set(all_names))
    assert all(len(n) <= 64 and set(n) <= NAME_CHARS and n[0].isalnum() for n in all_names)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", 1, "--seconds", 1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "stepbench",
                    ignore=shutil.ignore_patterns("generated", "out", "__pycache__"))
    proc = run(tmp_path, "--workload", "desk20", "--seed", 0, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
