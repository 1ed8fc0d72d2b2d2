"""Check that two source trees write the same CLI outputs.

Usage (from the repository root):

    python tools/same_outputs.py PARENT_ROOT

In this tree and in PARENT_ROOT, each run in a fresh interpreter with
PYTHONPATH=<root>/src, ``shjlab.cli.run`` executes the three workload
configurations of perfbench/workloads.py at seed 0 (taken from this
tree), the ``cost-ladder`` and ``sandwich`` ones again at 1 worker, where
no pool runs (``sandwich`` splits each envelope knot's rows in the same
two halves either way), acceptance criterion 11's full-uniqueness
configuration at 1 and at 3 workers, two linear-drift runs, the only
built-in whose drift and running cost move with x: ``envelopes`` at
criterion 11's size and a small ``jhat``, and random-target
``envelopes`` at criterion 11's size, whose noisy value surface projects
path by path.  Every file a run writes is compared, except manifest.json,
which records versions and resource use: JSON reports as parsed data,
key by key, and every other file byte for byte.

Prints every difference.  A key or file that only this tree writes is
listed as added and passes.  Exits 1 if a run's exit code differs, a
JSON value changed, a key or file is missing from this tree, or another
file differs; else 0.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# tests/test_acceptance.py, criterion 11
CRITERION_11 = {"scenario": "eikonal", "n_steps": 8, "n_paths": 500,
                "n_paths_bsde": 20_000, "seed_w": 11, "seed_b": 12,
                "levels": [4, 8], "eps_ladder": [0.2, 0.1],
                "delta_ladder": [0.2, 0.1]}

# (output directory, pipeline, config, workers); None workers is the
# CLI default, as in the benchmark
RUNS = ([(w.name, w.pipeline, w.config, None) for w in WORKLOADS.values()]
        + [(f"{name}-w1", WORKLOADS[name].pipeline, WORKLOADS[name].config,
            1) for name in ("cost-ladder", "sandwich")]
        + [(f"criterion-11-w{n}", "full-uniqueness", CRITERION_11, n)
           for n in (1, 3)]
        + [("linear-drift-envelopes", "envelopes",
            {**CRITERION_11, "scenario": "linear-drift"}, None),
           ("linear-drift-jhat", "jhat",
            {"scenario": "linear-drift", "n_steps": 8, "n_paths": 500,
             "levels": [4, 8]}, None),
           ("random-target-envelopes", "envelopes",
            {**CRITERION_11, "scenario": "random-target"}, None)])

# one run in a fresh interpreter; prints the pipeline's exit code
_RUN = """
import json, sys
from shjlab.cli import ExperimentConfig, run
pipeline, config, out, workers = json.loads(sys.argv[1])
print(run(ExperimentConfig(**config), pipeline, out, workers=workers)[0])
"""


def run_all(root, out):
    """Exit code of every run in RUNS, executed from the tree at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    codes = {}
    for name, pipeline, config, workers in RUNS:
        request = json.dumps([pipeline, config, str(out / name), workers])
        done = subprocess.run([sys.executable, "-c", _RUN, request],
                              cwd=root, env=env, capture_output=True,
                              text=True)
        if done.returncode:
            sys.exit(f"{name} did not run in {root}:\n{done.stderr}")
        codes[name] = int(done.stdout.split()[-1])
    return codes


def leaves(value, path=""):
    """{key path: scalar} of a parsed JSON document."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {p: v for key, child in items
                for p, v in leaves(child, f"{path}/{key}").items()}
    return {path: value}


def differences(ours, theirs):
    """(failures, additions): one line for each difference between the
    two output trees, split by whether it fails the comparison."""
    failures, additions = [], []
    for name, *_ in RUNS:
        files = {p.relative_to(ours) for p in (ours / name).rglob("*")}
        files |= {p.relative_to(theirs) for p in (theirs / name).rglob("*")}
        for rel in sorted(files):
            a, b = ours / rel, theirs / rel
            if rel.name == "manifest.json" or a.is_dir() or b.is_dir():
                continue
            if not b.is_file():
                additions.append(f"{rel}: only here")
            elif not a.is_file():
                failures.append(f"{rel}: missing here")
            elif rel.suffix == ".json":
                here, there = (leaves(json.loads(p.read_text()))
                               for p in (a, b))
                for key in sorted(here.keys() | there.keys()):
                    if key not in there:
                        additions.append(f"{rel} {key}: added")
                    elif key not in here:
                        failures.append(f"{rel} {key}: removed")
                    elif (type(here[key]) is not type(there[key])
                          or here[key] != there[key]):
                        failures.append(f"{rel} {key}: {there[key]!r} -> "
                                        f"{here[key]!r}")
            elif not filecmp.cmp(a, b, shallow=False):
                failures.append(f"{rel}: differs")
    return failures, additions


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    parent = Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "this"), Path(tmp, "parent")
        codes = run_all(ROOT, ours), run_all(parent, theirs)
        for name, *_ in RUNS:
            if codes[0][name] != codes[1][name]:
                print(f"{name}: exit code {codes[0][name]} here, "
                      f"{codes[1][name]} in {parent}")
                return 1
        failures, additions = differences(ours, theirs)
        for line in additions + failures:
            print(line)
        if failures:
            return 1
        n_files = sum(1 for p in ours.rglob("*")
                      if p.is_file() and p.name != "manifest.json")
        print(f"{len(RUNS)} runs, {n_files} files the same"
              + (f" apart from {len(additions)} additions" if additions
                 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
