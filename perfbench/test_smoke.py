"""Smoke test of the benchmark's own code, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
ISSUE_NAMES = {
    "infer-T512": ("infer.images_per_s", "infer.latency_p50_s"),
    "train-S128": ("train.steps_per_s", "train.step_p50_s"),
    "analyze-masks": ("analyze.images_per_s", "export.latency_p50_s"),
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_nothing_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert any(f"# {workload} failed_share=0 " in line for line in lines)
    assert any(line.startswith("# env nproc=") and "work_fs=" in line for line in lines)
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.forward_macs"]["value"] == metrics["trace.forward_macs_model"]["value"]
    else:
        assert result["metrics"]["ok_share"]["value"] == 1.0
        for name in ISSUE_NAMES[workload]:
            assert any(line.startswith(f"# {workload} {name}=") for line in lines), name
        if workload == "analyze-masks":
            # the p90 is printed only when at least 10 samples lie beyond it
            p50_line = next(line for line in lines if "export.latency_p50_s=" in line)
            samples = int(p50_line.split("(median of ")[1].split(")")[0])
            assert any("export.latency_p90_s=" in line for line in lines) == (samples >= 100)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_output_counts_as_failed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads

        cfg = workloads.SIZES["infer-T512"][1]
        reference = workloads.infer_reference(cfg)
        reference["digests"][1][0] *= 1.01
        wl = workloads.InferWorkload(cfg, 0, tmp_path, reference)
        wl.prepare()
        failed = {int(wl.order[i]): wl.operate(i).failed for i in range(cfg["pool"])}
        assert failed == {0: 0, 1: 1}
    finally:
        del sys.path[:2]
