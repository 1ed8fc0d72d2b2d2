"""Benchmark workloads and the correctness gate on their outputs.

Each workload is one ``shjlab.cli.run(config, pipeline, out)`` call.
``--seed n`` adds n to both config seeds; n = 0 is the configuration
whose summary outputs are recorded in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0

# Summary outputs may drift from the reference by this much, relative to
# max(|reference|, 1): the refactor rule "byte-identical where the
# arithmetic order is unchanged, else within 1e-12".
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    config: dict
    summary_file: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "sandwich", "envelopes",
        {"scenario": "eikonal", "n_steps": 16, "n_paths": 2000,
         "seed_w": 101, "seed_b": 202, "ladder_h": 0.05,
         "eps_ladder": [0.05], "delta_ladder": [0.05]},
        "envelope_grid.csv",
        "one envelope rung: hamiltonian over mollified sets and lattice "
        "interpolation dominate"),
    Workload(
        "cost-ladder", "jhat",
        {"scenario": "random-target", "n_steps": 16, "n_paths": 2000,
         "ladder_h": 0.05, "levels": [4, 8, 16]},
        "jhat_ladder.csv",
        "regression DP, policy costs and cost majorants over three parallel "
        "ladder items; little smoothing"),
    Workload(
        "bsde-wide", "bsde",
        {"n_steps": 32, "n_paths_bsde": 400000},
        "bsde_report.json",
        "least-squares BSDE over 400k paths: operator builds dominate, no "
        "lattice, smoothing or viscosity code"),
)}


def summary(workload, out_dir):
    """Flat {name: number} of the workload's summary outputs."""
    path = os.path.join(out_dir, workload.summary_file)
    flat = {}
    if path.endswith(".csv"):
        with open(path) as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
        for i, row in enumerate(csv.DictReader(lines)):
            for col, text in row.items():
                flat[f"{i}.{col}"] = float(text)
    else:
        with open(path) as fh:
            report = json.load(fh)
        for key, value in report.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat[key] = float(value)
    return flat


def compare(reference, observed):
    """Names whose observed value is missing or off the reference."""
    bad = []
    for key, ref in reference.items():
        got = observed.get(key)
        if got is None or not abs(got - ref) <= REL_TOL * max(abs(ref), 1.0):
            bad.append(key)
    return bad


def load_reference(name):
    """Recorded seed-0 summary of one workload (KeyError if none)."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]
