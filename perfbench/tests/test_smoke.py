"""Each workload shrunk to a few seconds, through the gate and the printer.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import run  # noqa: E402
from workloads import WORKLOADS, compare, summary  # noqa: E402

SMOKE = {
    "sandwich": {"n_steps": 4, "n_paths": 200},
    "cost-ladder": {"n_steps": 4, "n_paths": 200, "levels": [4, 8]},
    "bsde-wide": {"n_paths_bsde": 40000},
}


def smoke(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **SMOKE[name]})


def parse(line):
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_gate_and_prints_every_metric(name, tmp_path):
    gate, metrics, record = run.measure(smoke(name), 3, 1, False,
                                        out_root=str(tmp_path))
    res = parse(run.result_line(gate, metrics, run.END_TO_END))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 3
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert record["machine"]["blas_threads"] >= 1
    assert os.path.isfile(tmp_path / name / "record.json")


def test_smoke_traced_run_reports_every_layer(tmp_path):
    w = smoke("cost-ladder")
    gate, metrics, _ = run.measure(w, 0, 1, True, out_root=str(tmp_path))
    res = parse(run.result_line(gate, metrics, run.PER_LAYER))
    assert res["correct"] is True
    assert {k: v["unit"] for k, v in res["metrics"].items()} == run.PER_LAYER
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    assert layers["valuefn.BoxLattice.interp.points"] > 0
    assert layers["cli.run.self_s"] > 0
    assert layers["viscosity.build_envelopes.self_s"] == 0
    # traced and untraced samples wrote the same tables
    assert ("s1.identical_csv", True) in gate.checks


def test_gate_counts_reference_drift_as_failure(tmp_path):
    w = smoke("sandwich")
    gate, _, _ = run.measure(w, 0, 1, False, out_root=str(tmp_path))
    assert gate.failed == 0
    ref = summary(w, str(tmp_path / w.name / "s0"))
    drifted = dict(ref, **{"0.gap_upper": ref["0.gap_upper"] * (1 + 1e-9)})

    gate, metrics, _ = run.measure(w, 0, 1, False, reference=drifted,
                                   out_root=str(tmp_path))
    res = parse(run.result_line(gate, metrics, run.END_TO_END))
    assert res["correct"] is False and res["failed"] >= 1
    assert ("s0.reference", False) in gate.checks

    gate, _, _ = run.measure(w, 0, 1, False, reference=ref,
                             out_root=str(tmp_path))
    assert ("s0.reference", True) in gate.checks and gate.failed == 0


def test_compare_tolerance():
    ref = {"big": 1e6, "small": 1e-9, "one": 1.0}
    assert compare(ref, {"big": 1e6 * (1 + 5e-13), "small": 1e-9 + 5e-13,
                         "one": 1.0}) == []
    assert compare(ref, {"big": 1e6 * (1 + 2e-12), "small": 1e-9 + 2e-12,
                         "one": float("nan")}) == ["big", "small", "one"]
    assert compare(ref, {}) == ["big", "small", "one"]


def test_benchmark_json_lists_the_driver_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bsde-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
