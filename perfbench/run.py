"""shjlab benchmark: seeded CLI pipelines, each sample a fresh process.

Usage (from the repository root):

    python3 perfbench/run.py --workload sandwich --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with untraced code.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics from the traced ones.  Every sample's outputs go
through the correctness gate; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs,
spans and a full record of the run land in ``.perfbench_out/<workload>``.

The program is imported from ``src/`` of the checkout the script sits
in; without it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SAMPLE = os.path.join(HERE, "sample.py")

from workloads import (REFERENCE_PATH, REFERENCE_SEED, WORKLOADS, compare,
                       load_reference, summary)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "smoothing.MollifiedSet.eval.self_s": "s",
    "smoothing.MollifiedSet.eval.node_points": "count",
    "smoothing.fit_functional_approximant.self_s": "s",
    "smoothing.error_processes.self_s": "s",
    "coeffs.eval.self_s": "s",
    "coeffs.eval.calls": "count",
    "viscosity.hamiltonian.self_s": "s",
    "viscosity.hamiltonian.evals": "count",
    "viscosity.build_envelopes.self_s": "s",
    "viscosity.residual_check.self_s": "s",
    "viscosity.sandwich_report.self_s": "s",
    "valuefn.value_V.self_s": "s",
    "valuefn.BoxLattice.interp.self_s": "s",
    "valuefn.BoxLattice.interp.points": "count",
    "valuefn.BoxLattice.interp.clamped": "count",
    "valuefn.ControlPolicy.indices_at.self_s": "s",
    "probspace.CondExpOperator.build.self_s": "s",
    "probspace.CondExpOperator.build.count": "count",
    "probspace.CondExpOperator.apply.self_s": "s",
    "probspace.CondExpOperator.apply.rows": "count",
    "probspace.CondExpOperator.ridge.count": "count",
    "probspace.sample_ensemble.self_s": "s",
    "bsde.solve_bsde.self_s": "s",
    "bsde.solve_bsde.knots": "count",
    "bsde.policy_cost_surface.self_s": "s",
    "bsde.cost_majorant.self_s": "s",
    "fields.AdaptedField.gradient.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 2     # set-up-only processes per untraced run
RUN_LIMIT_S = 170.0   # every sample is killed by then, so a run ends < 180 s


class BenchError(Exception):
    """The benchmark cannot measure this checkout at all."""


class Gate:
    """Counts correctness checks; failures are reported on stderr."""

    def __init__(self):
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok)))
        if not ok:
            print(f"FAILED {name} {detail}".rstrip(), file=sys.stderr)

    @property
    def failed(self):
        return sum(not ok for _, ok in self.checks)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(os.path.join(ROOT, ".git", ref))
    if loose:
        return loose
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or
                 "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_quota():
    """CFS quota as a CPU count (None: unlimited or unreadable)."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2:
        quota, period = v2.split()
        return None if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period and int(quota) > 0:
        return int(quota) / int(period)
    return None


def machine_record():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cpu_quota(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
    }


def spawn(workload, seed, out, *, deadline, setup_only=False, trace=None):
    """Run sample.py once; returns its result plus setup_s and elapsed_s.

    A crash, a timeout or unreadable output gives {"error": ...}.
    """
    req = {"pipeline": workload.pipeline, "config": workload.config,
           "seed": seed, "out": out, "setup_only": setup_only,
           "trace": trace}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    os.makedirs(out, exist_ok=True)
    timeout = max(deadline - time.monotonic(), 1.0)
    t_spawn = time.monotonic()
    with open(os.path.join(out, "stderr.txt"), "w") as err:
        try:
            proc = subprocess.run(
                [sys.executable, SAMPLE, json.dumps(req)], cwd=ROOT, env=env,
                stdout=subprocess.PIPE, stderr=err, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"killed after {timeout:.0f} s"}
    elapsed = time.monotonic() - t_spawn
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        res = None
    if proc.returncode != 0 or not isinstance(res, dict):
        return {"error": f"sample exited {proc.returncode}; see {err.name}"}
    if os.path.dirname(os.path.abspath(res["shjlab_file"])) != \
            os.path.join(SRC, "shjlab"):
        raise BenchError(f"shjlab imported from {res['shjlab_file']}, "
                         f"not from {SRC}")
    res["setup_s"] = res["ready"] - t_spawn
    res["elapsed_s"] = elapsed
    return res


def csv_bytes(out):
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(out).glob("*.csv"))}


def gate_sample(gate, workload, label, res, out, reference, first_csvs):
    """Exit code, every pipeline verdict, reference values, identical CSVs."""
    ok = "error" not in res and res["exit_code"] == 0
    gate.check(f"{label}.exit_code", ok, res.get("error", ""))
    if "error" in res:
        return None
    for name, verdict in res["checks"].items():
        gate.check(f"{label}.verdict.{name}", verdict is True, str(verdict))
    try:
        observed = summary(workload, out)
    except (OSError, ValueError, KeyError) as exc:
        gate.check(f"{label}.summary", False, str(exc))
        return None
    if reference is not None:
        bad = compare(reference, observed)
        gate.check(f"{label}.reference", not bad,
                   ", ".join(f"{k}={observed.get(k)!r} ref={reference[k]!r}"
                             for k in bad))
    csvs = csv_bytes(out)
    if first_csvs is not None:
        gate.check(f"{label}.identical_csv", csvs == first_csvs)
    return csvs


def measure(workload, seed, seconds, trace, reference=None,
            out_root=OUT_ROOT):
    """One benchmark run: (gate, {metric: (value, unit)}, record)."""
    if not os.path.isfile(os.path.join(SRC, "shjlab", "__init__.py")):
        raise BenchError(f"no shjlab package under {SRC}")
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_dir = os.path.join(out_root, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    gate = Gate()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_record()}

    def setup_only(label):
        res = spawn(workload, seed, os.path.join(run_dir, label),
                    deadline=deadline, setup_only=True)
        gate.check(f"{label}.exit_code", "error" not in res,
                   res.get("error", ""))
        return res

    # warm-up: byte-compiles src/ on a fresh checkout and records libraries
    libs = setup_only("warmup")
    record["machine"].update({k: libs.get(k) for k in (
        "python", "numpy", "scipy", "blas_config", "blas_threads")})

    setups = []
    if not trace:
        setups = [setup_only(f"setup{i}") for i in range(SETUP_SAMPLES)]
    plain, traced = [], []
    first_csvs = None
    i = 0
    while True:
        batch = [False, True] if trace else [False]
        took = [s["elapsed_s"] for s in plain + traced if "elapsed_s" in s]
        # start another batch if it would end by `seconds` give or take half
        # a batch, so runs last `seconds` on average whatever the sample size
        if i and (time.monotonic() - start
                  + len(batch) * median(took) / 2 > seconds):
            break
        for traced_sample in batch:
            label = f"s{i}"
            out = os.path.join(run_dir, label)
            res = spawn(workload, seed, out, deadline=deadline,
                        trace=(os.path.join(run_dir, f"spans-{label}.json")
                               if traced_sample else None))
            csvs = gate_sample(gate, workload, label, res, out, reference,
                               first_csvs)
            first_csvs = first_csvs if first_csvs is not None else csvs
            (traced if traced_sample else plain).append(res)
            i += 1
        if gate.failed:
            break

    def ok(samples):
        return [s for s in samples if "error" not in s]

    metrics = {}
    if trace and ok(traced):
        for name, unit in PER_LAYER.items():
            metrics[name] = (median([s["layers"].get(name, 0)
                                     for s in ok(traced)]), unit)
        if ok(plain):
            metrics["trace.overhead_s"] = (
                median([s["wall_s"] for s in ok(traced)])
                - median([s["wall_s"] for s in ok(plain)]), "s")
    elif not trace and ok(plain):
        metrics["wall_s"] = (median([s["wall_s"] for s in ok(plain)]), "s")
        metrics["setup_s"] = (median([s["setup_s"]
                                      for s in ok(setups) + ok(plain)]), "s")
        metrics["peak_rss_mb"] = (median([s["peak_rss_mb"]
                                          for s in ok(plain)]), "MB")
    record["machine"]["loadavg_end"] = os.getloadavg()
    record["samples"] = {"setup": setups, "plain": plain, "traced": traced}
    record["checks"] = gate.checks
    record["metrics"] = metrics
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return gate, metrics, record


def result_line(gate, metrics, expected):
    """The final JSON object; correct only if every check passed and every
    expected metric was measured."""
    correct = gate.failed == 0 and set(metrics) == set(expected)
    return json.dumps({
        "correct": correct,
        "attempted": len(gate.checks),
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def print_report(workload, record, metrics):
    counts = {k: len(v) for k, v in record["samples"].items() if v}
    print(f"workload {workload.name}  seed {record['seed']}  samples {counts}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value!r:>24} {unit}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))


def record_reference(workload, out_root=OUT_ROOT):
    """Store one fresh seed-0 sample's summary outputs as the reference."""
    out = os.path.join(out_root, workload.name, "reference")
    shutil.rmtree(out, ignore_errors=True)
    res = spawn(workload, REFERENCE_SEED, out,
                deadline=time.monotonic() + RUN_LIMIT_S)
    if "error" in res or res["exit_code"] != 0:
        raise BenchError(f"reference sample failed: {res}")
    refs = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as fh:
            refs = json.load(fh)
    refs[workload.name] = summary(workload, out)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this checkout's seed-0 summary outputs "
                             "as the reference and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    try:
        if args.record_reference:
            record_reference(workload)
            return 0
        reference = None
        if args.seed == REFERENCE_SEED:
            try:
                reference = load_reference(workload.name)
            except (OSError, KeyError) as exc:
                raise BenchError(f"no reference outputs: {exc!r}") from None
        gate, metrics, record = measure(workload, args.seed, args.seconds,
                                        bool(args.trace), reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(workload, record, metrics)
    print(result_line(gate, metrics, PER_LAYER if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
