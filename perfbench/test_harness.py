"""Self-check of the benchmark harness: one tiny pass of each workload.

    python3 -m pytest -q perfbench

Takes about a minute.  Checks the harness, not the program's speed: the
result line has its four keys and BENCHMARK.json's metric names, and
the harness refuses to run without the package source.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_result(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
    if trace:
        for name in ("import.micromacro_ms", "import.modules_loaded", "repo.src_loc"):
            assert result["metrics"][name]["value"] > 0
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert f"{workload} error_rate = 0 ratio" in proc.stdout
    env = json.loads(next(line for line in proc.stdout.splitlines()
                          if line.startswith("env "))[4:])
    assert set(env["pinned"].values()) == {"1"}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_targets_record_nothing():
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    missing = tracer.install({
        "fock.gone": ("fock", "no_such_function", None, None),
        "gone.module": ("no_such_module", "f", None, None),
        "fock.gone_method": ("fock", "NoSuchClass.method", None, None),
    })
    assert missing == ["fock.gone", "gone.module", "fock.gone_method"]
    assert tracer.totals() == {}


def test_spans_nest_and_count_per_caller():
    tracer = Tracer()
    inner = tracer._wrap("inner", lambda: None, None, None)
    via = tracer._wrap("via", lambda: inner(), None, None)
    outer = tracer._wrap("outer", lambda: [inner(), via(), inner()], None, None)
    outer()
    inner()
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 4
    assert totals["outer"]["calls"] == 1
    assert tracer.count_within("inner", "outer") == 3
    assert tracer.count_within("inner", "outer", direct=True) == 2
