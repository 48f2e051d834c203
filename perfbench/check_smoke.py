"""Smoke tests of the benchmark: every workload, both modes, seconds long.

Run explicitly (the file name keeps it out of the repository's tier-1
collection, since each case starts servers and fits a model)::

    python3 -m pytest -q perfbench/check_smoke.py

The first run builds the input corpus cache (about a minute on 2 CPUs).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_smoke(workload, trace):
    report, result = run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", trace,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["checks"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert report["env"]["n_cpus"] >= 1 and report["env"]["src_lines"] > 0


def test_same_seed_same_inputs():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import inputs

    a, b = inputs.load_inputs(5), inputs.load_inputs(5)
    c = inputs.load_inputs(6)
    ids = lambda d: [ls.scene_id for ls in d.labeled]  # noqa: E731
    assert ids(a) == ids(b)
    assert ids(a) != ids(c)
    assert a.rng.random() == b.rng.random()


def test_refuses_without_program(tmp_path):
    """Only the benchmark's own files: exit non-zero, print no result."""
    import shutil

    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
