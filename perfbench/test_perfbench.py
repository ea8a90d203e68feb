"""Tests of the benchmark itself: the smoke mode prints every metric named in
BENCHMARK.json with its unit, and a directory without the program's sources
is refused.

    python3 -m pytest perfbench/test_perfbench.py

The smoke request is the first of the seeded list that every pass sends,
so it is never one of the stalling or slow requests sent only once a run.
"""

import json
import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, *extra):
    cmd = SPEC["command"] + [
        "--workload", workload,
        "--seed", "1",
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
        *extra,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # One pass of one request; the traced run adds an untraced pass of it.
    assert result["attempted"] == 1 + trace
    expected = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
