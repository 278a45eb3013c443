"""The benchmark's own test.

Run from the repository root (a few minutes; it is not part of the
unit-test suite)::

    python3 -m pytest -q perfbench/check_bench.py

It checks that the per-layer counts of a traced run repeat exactly
across two runs (so a later change can cite a count), that every
workload keeps its shape and stays correct on a seed held out while
the benchmark was tuned, that the metric names printed are the ones
``BENCHMARK.json`` declares, and that the benchmark fails cleanly in a
directory without the program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
HELD_OUT_SEED = 424242


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done


def _result(workload: str, seed: int, trace: int):
    done = _run(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, _ = _result(workload, 3, trace=1)
    second, _ = _result(workload, 3, trace=1)
    assert first["correct"] and second["correct"]
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] == "count"
    }
    assert counts == {
        name: second["metrics"][name]["value"] for name in counts
    }
    if workload == "e10_session_sharded":
        assert counts["sharded.pool_starts"] == 1
        assert counts["sharded.dispatches"] == 13056 // 256
    else:
        assert counts["sharded.dispatches"] == 0
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_keeps_the_shape(workload):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import EXPECTED, SESSION_BUDGET

    result, diagnostics = _result(workload, HELD_OUT_SEED, trace=0)
    assert result["correct"], diagnostics["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 21
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    # "correct" includes the EXPECTED statistics; these are the shapes
    # the workloads rely on.
    expected = EXPECTED[workload]
    if "stop_pattern" in expected:
        assert expected["satisfied"] and expected["stop_pattern"] < SESSION_BUDGET
    if "optimized_test_length" in expected:
        assert math.isfinite(expected["optimized_test_length"])
        assert expected["optimized_test_length"] < expected["uniform_test_length"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(WORKLOADS[0], 1, trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
