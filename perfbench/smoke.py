"""Smoke test of the benchmark on its small inputs.

    python3 -m pytest perfbench/smoke.py

It runs every workload once untraced and once traced, checks that each
metric named in BENCHMARK.json is reported with its unit, that the output
check rejects perturbed reference values, that the benchmark fails
without the program's sources, and that tracing reports 0 calls for a
function that has disappeared. It is kept out of the default test run
(its name does not match ``test_*.py``) because it runs the benchmark.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
_results = {}


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    if (workload, trace) not in _results:
        done = run_benchmark(workload, trace)
        assert done.returncode == 0, done.stdout + done.stderr
        _results[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return _results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    got = result(workload, trace)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] is True
    assert got["attempted"] >= 1 and got["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(got["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = got["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert isinstance(metric["value"], (int, float)), m["name"]
    if not trace:
        assert all(got["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_check_rejects_perturbed_values(workload):
    result(workload, 0)  # leaves the canary outputs in .bench_work
    kind = "benchmark" if workload == "mc-default" else "rolling"
    got = checks.canary_values(kind, ROOT / ".bench_work" / workload / "canary-out")
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    assert checks.reference_problems(got, reference) == []

    value = copy.deepcopy(reference)
    value["rows"][3][-2] *= 1 + 1e-4
    tuning = copy.deepcopy(reference)
    tuning["rows"][5][-1] *= 1.5
    dropped = copy.deepcopy(reference)
    del dropped["rows"][0]
    for bad in (value, tuning, dropped):
        assert checks.reference_problems(got, bad)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_reports_zero_for_a_binding_that_disappeared(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import numpy as np

    import farkit.evaluate
    import farkit.fpca
    from farkit import FunctionalSample, uniform_grid

    eigendecompose = farkit.fpca.eigendecompose
    monkeypatch.delattr(farkit.evaluate, "misfe")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        values = np.random.default_rng(0).standard_normal((40, 12))
        farkit.fpca.fpca_far_fit(FunctionalSample(values, uniform_grid(12)), k=2)
    finally:
        tracer.uninstall()
    assert farkit.fpca.eigendecompose is eigendecompose
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["evaluate.misfe.calls"] == (0, "count")
    assert metrics["fpca.fpca_far_fit.calls"] == (1, "count")
    assert metrics["fpca.eigendecompose.calls"] == (1, "count")
    assert metrics["fpca.eigendecompose.dim_mean"] == (12.0, "count")
