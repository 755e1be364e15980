"""Smoke test of the benchmark itself (not part of the tfqkd test suite).

    python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, end to end and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit, that the trace
accounts for the traced wall time, and that the correctness checks catch
a perturbed reference or output.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 3) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    result["run"] = json.loads(lines[-2])["run"]
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_emits_every_metric(workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    env = result["run"]["environment"]
    assert {"nproc", "python", "numpy", "blas", "commit", "src_sha256"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_emits_every_layer_metric(workload):
    result = run_bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert abs(values["trace.self_time_coverage"] - 1.0) <= 0.05
    assert values["failed_ratio"] == 0
    if workload == "lp_export":
        assert values["simplex.solve_max.calls"] == 0
    if workload == "rate_curve":
        again = run_bench(workload, trace=1)["metrics"]
        for name in ("optimize.evaluations", "optimize.lp_solves", "simplex.pivots"):
            assert again[name]["value"] == values[name] > 0, name


def test_no_sources_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _first(wl):
    item = next(iter(wl.stream()))
    return item, wl.execute(item)


def test_finite_key_check_catches_perturbed_reference(tmp_path):
    wl = workloads.FiniteKeyMC(1, tmp_path)
    item, out = _first(wl)
    assert wl.check(item, out) == []
    key = workloads._ref_key(*item)
    status, n_ph = wl.references[key]
    for bad in ([status, n_ph * (1 + 1e-4) + 1.0], ["perturbed", n_ph]):
        wl.references = {**wl.references, key: bad}
        assert wl.check(item, out)


def test_lp_export_check_catches_perturbed_reference(tmp_path):
    wl = workloads.LPExport(1, tmp_path)
    item, out = _first(wl)
    assert wl.check(item, out) == []
    key = workloads._ref_key(*item)
    for field in ("b_eq", "upper", "delta"):
        bad = copy.deepcopy(wl.references[key])
        bad[field][0] *= 1 + 1e-6
        wl.references = {**wl.references, key: bad}
        assert wl.check(item, out), field


def test_rate_curve_check_catches_perturbed_output_and_reference(tmp_path):
    wl = workloads.RateCurve(1, tmp_path)
    item, out = _first(wl)
    assert wl.check(item, out) == []
    assert wl.log_rate_ratios(item, out) == [0.0, 0.0]
    rc, csv_bytes, json_bytes = out
    sidecar = json.loads(json_bytes)
    sidecar["results"][0]["key_length"] *= 1.01
    assert wl.check(item, (rc, csv_bytes, json.dumps(sidecar).encode()))
    lines = csv_bytes.decode().splitlines()
    cells = lines[1].split(",")
    cells[9] = repr(float(cells[9]) * 1.01)  # key_length column
    lines[1] = ",".join(cells)
    assert wl.check(item, (rc, ("\n".join(lines) + "\n").encode(), json_bytes))
    key = workloads._ref_key(*item)
    wl.references = {**wl.references, key: [r * 2 for r in wl.references[key]]}
    assert all(x < -0.6 for x in wl.log_rate_ratios(item, out))
