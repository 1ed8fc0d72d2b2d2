"""Experiment configs, pipeline dispatch, and reproducibility."""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shjlab import bsde, cli, valuefn
from shjlab.bsde import (BsdeSolution, BsdeSpec, cost_majorant,
                         policy_cost_surface, solve_bsde)
from shjlab.cli import PIPELINES, ExperimentConfig, main, run
from shjlab.coeffs import scenario_names
from shjlab.exceptions import AccuracyError, CapacityError, IntegrationError
from shjlab.probspace import (TimeGrid, WienerEnsemble, _path_mean_se,
                              sample_ensemble)
from shjlab.valuefn import ControlPolicy, _value_lipschitz, value_V
from shjlab.viscosity import residual_check

SMALL = dict(scenario="eikonal", n_steps=8, n_paths=500, n_paths_bsde=20_000,
             seed_w=11, seed_b=12, levels=(4, 8), eps_ladder=(0.2, 0.1),
             delta_ladder=(0.2, 0.1))


def _small(**over):
    return ExperimentConfig(**{**SMALL, **over})


def test_config_roundtrip():
    cfg = _small()
    clone = ExperimentConfig.from_json(cfg.to_json())
    assert clone == cfg
    assert clone.digest() == cfg.digest()


_POS = st.floats(1e-3, 1e3)
_SEEDS = st.integers(0, 2**63 - 1)


@st.composite
def _configs(draw):
    seed_w = draw(_SEEDS)
    return ExperimentConfig(
        scenario=draw(st.sampled_from(scenario_names())),
        n_steps=draw(st.integers(1, 10**6)),
        n_paths=draw(st.integers(2, 10**8)),
        n_paths_bsde=draw(st.integers(2, 10**8)),
        seed_w=seed_w,
        seed_b=draw(_SEEDS.filter(lambda s: s != seed_w)),
        ladder_h=draw(st.one_of(st.integers(1, 10), _POS)),
        levels=tuple(draw(st.lists(st.integers(1, 64), min_size=1,
                                   max_size=4))),
        eps_ladder=tuple(draw(st.lists(_POS, min_size=1, max_size=4))),
        delta_ladder=tuple(draw(st.lists(_POS, min_size=1, max_size=4))),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=_configs())
def test_config_json_roundtrip_property(cfg):
    clone = ExperimentConfig.from_json(cfg.to_json())
    assert clone == cfg
    assert clone.digest() == cfg.digest()


def test_digest_ignores_key_order_but_not_values():
    cfg = _small()
    payload = json.loads(cfg.to_json())
    shuffled = json.dumps(dict(reversed(list(payload.items()))))
    assert ExperimentConfig.from_json(shuffled).digest() == cfg.digest()
    assert _small(n_paths=501).digest() != cfg.digest()
    assert len(cfg.digest()) == 16
    # an integer for a float field is the same run, so the same digest
    assert _small(ladder_h=1).digest() == _small(ladder_h=1.0).digest()


def test_config_rejects_unknown_keys():
    text = json.dumps({**json.loads(_small().to_json()), "n_pths": 7})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize("bad", [
    dict(n_steps=0),
    dict(n_paths=0),
    dict(ladder_h=-1.0),
    dict(seed_b=11),          # must differ from seed_w
    dict(levels=()),
    dict(eps_ladder=(0.2, -0.1)),
    dict(ladder_h=0.0),
    dict(n_steps=32.7),       # would run 32 steps under a 32.7 digest
    dict(n_steps=True),
    dict(levels=(4, "8")),
    dict(ladder_h=float("nan")),  # NaN compares false, so h <= 0 lets it pass
    dict(ladder_h=float("inf")),
    dict(eps_ladder=(0.1, float("nan"))),
    dict(delta_ladder=(float("nan"),)),
    dict(ladder_h=float("-inf")),
    dict(ladder_h=10**400),   # an integer beyond the float range
    dict(seed_w=-5),          # the generator takes no negative seed
    dict(seed_b=-1),
    dict(n_paths_bsde=1),     # one path: no sample statistics
    dict(delta_ladder=(0.1, -1.0)),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        _small(**bad)
    # the same values read from JSON text, e.g. {"ladder_h": NaN, ...}
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(json.dumps({**SMALL, **bad}))


def _manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_unknown_pipeline_and_scenario_exit_2(tmp_path):
    code, checks = run(_small(), "transmogrify", str(tmp_path))
    assert code == 2 and checks == {}
    assert _manifest(tmp_path)["exit_code"] == 2
    assert "transmogrify" in _manifest(tmp_path)["error"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small().to_json())
    assert main(["--config", str(cfg_path), "--scenario", "nope",
                 "--out", str(tmp_path / "o"), "--pipeline", "simulate"]) == 2


def test_non_finite_field_exits_2_with_strict_manifest(tmp_path):
    # a field set after construction is checked when the run starts
    cfg = _small()
    cfg.ladder_h = float("nan")
    code, checks = run(cfg, "simulate", str(tmp_path))
    assert code == 2 and checks == {}
    text = (tmp_path / "manifest.json").read_text()
    # strict JSON: a NaN or Infinity literal fails the test
    manifest = json.loads(text, parse_constant=pytest.fail)
    assert manifest["exit_code"] == 2 and "not finite" in manifest["error"]
    assert manifest["config"] is None
    assert not (tmp_path / "simulate_summary.csv").exists()


def test_capacity_error_exits_2_with_manifest(tmp_path):
    # 320M increments: over the ensemble budget, refused before drawing
    cfg = ExperimentConfig(n_paths=10_000_000)
    code, checks = run(cfg, "simulate", str(tmp_path))
    assert code == 2 and "exceeds budget" in checks["error"]
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 2
    assert manifest["config_hash"] == cfg.digest()


@pytest.fixture
def blas_threads():
    """Set the process's OpenBLAS thread count; restored after the test."""
    get, put = cli._openblas()
    before = get()

    def use(n):
        put(n)
        return get()
    yield use
    put(before)


@pytest.mark.parametrize("exc, expected", [
    (None, 0), (CapacityError, 2), (IntegrationError, 1), (AccuracyError, 1),
])
def test_pipeline_errors_map_to_exit_codes(tmp_path, monkeypatch,
                                           blas_threads, exc, expected):
    # the pipeline runs on one OpenBLAS thread, and every exit gives the
    # caller's count back
    seen = []

    def boom(cfg, out, pool):
        seen.append(cli._openblas()[0]())
        if exc is None:
            return {"fine": True}
        raise exc("boom")
    monkeypatch.setitem(cli._RUNNERS, "simulate", boom)
    caller = blas_threads(2)
    code, checks = run(_small(), "simulate", str(tmp_path))
    assert code == expected and seen == [1]
    assert cli._openblas()[0]() == caller
    manifest = _manifest(tmp_path)
    assert manifest["blas_threads"] == 1
    if exc is not None:
        assert checks == {"error": "boom"}
        assert manifest["exit_code"] == expected and "boom" in manifest["error"]


def test_bad_config_file_exits_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing), "--pipeline", "simulate",
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_steps": "many"}')
    assert main(["--config", str(bad), "--pipeline", "simulate",
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text, reason", [
    ('{"ladder_h": NaN}', "not finite"),
    ('{"bogus": 1}', "unknown config keys"),
    ('{"basis_degree": 3}', "unknown config keys"),
    # configs saved while these were fields: each held one value in every
    # run (n_intervals changed only the digest), so a saved config that
    # names one is refused rather than run under a new digest
    ('{"n_intervals": 4}', "unknown config keys: ['n_intervals']"),
    ('{"T": 1.0}', "unknown config keys: ['T']"),
    ('{"x0_max": 2.0}', "unknown config keys: ['x0_max']"),
    ('{"lattice_h": 0.01}', "unknown config keys: ['lattice_h']"),
    ('{"lattice_margin": 0.25}', "unknown config keys: ['lattice_margin']"),
    ('{"tolerance_scale": 1.0}', "unknown config keys: ['tolerance_scale']")])
def test_rejected_config_file_exits_2_with_manifest(tmp_path, text, reason):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--pipeline", "simulate"]) == 2
    text = (out / "manifest.json").read_text()
    manifest = json.loads(text, parse_constant=pytest.fail)
    assert manifest["exit_code"] == 2 and reason in manifest["error"]
    assert manifest["config"] is None and manifest["config_hash"] is None
    assert manifest["pipeline"] == "simulate" and manifest["checks"] == {}
    assert not (out / "simulate_summary.csv").exists()


def test_unparseable_config_file_writes_nothing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out),
                 "--pipeline", "simulate"]) == 2
    assert not out.exists()


def test_simulate_pipeline_writes_artifacts(tmp_path):
    cfg = _small()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--pipeline", "simulate",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pipeline"] == "simulate"
    assert manifest["config_hash"] == cfg.digest()
    assert manifest["checks"]["terminal_variance"] is True
    first = (out / "simulate_summary.csv").read_text().splitlines()[0]
    assert first == f"# config {cfg.digest()}"
    assert (out / "ensemble_w.bin").exists()


def _simulate(tmp_path, out, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small().to_json())
    return main(["--config", str(cfg_path), "--pipeline", "simulate",
                 "--out", str(out), *flags])


def test_removed_tolerance_scale_flag_exits_2(tmp_path, capsys):
    # every check's tolerance is a constant, so no flag loosens them all
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        _simulate(tmp_path, out, "--tolerance-scale", "2")
    assert exit_.value.code == 2
    assert "unrecognized arguments: --tolerance-scale 2" in capsys.readouterr().err
    assert not out.exists()


def test_unmakeable_out_dir_exits_2_naming_it(tmp_path, capsys):
    # a path through a file: no directory, so no manifest can be written
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "x"
    assert _simulate(tmp_path, out) == 2
    assert run(_small(), "simulate", str(out)) == (2, {})
    bad = _small()
    bad.seed_w = -1
    assert run(bad, "simulate", str(out)) == (2, {})
    assert main(["--seed", "-5", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 4
    assert all(f"cannot make output directory {out}: Not a directory" in line
               for line in lines)


def test_negative_seed_flag_exits_2_with_manifest(tmp_path):
    out = tmp_path / "o"
    assert main(["--seed", "-5", "--out", str(out)]) == 2
    manifest = _manifest(out)
    assert manifest["exit_code"] == 2 and "seeds" in manifest["error"]
    assert manifest["config"] is None
    assert not (out / "value_surface.csv").exists()


@pytest.mark.parametrize("workers", [0, -4])
def test_workers_below_one_exit_2_with_manifest(tmp_path, workers):
    out = tmp_path / "run"
    code, checks = run(_small(), "simulate", str(out), workers=workers)
    assert code == 2 and checks == {}
    cli_out = tmp_path / "cli"
    assert _simulate(tmp_path, cli_out, "--workers", str(workers)) == 2
    for path in (out, cli_out):
        manifest = _manifest(path)
        assert manifest["exit_code"] == 2 and manifest["workers"] == workers
        assert "workers must be >= 1" in manifest["error"]
        assert manifest["config_hash"] == _small().digest()
        assert not (path / "simulate_summary.csv").exists()


def test_value_pipeline_passes_and_reports(tmp_path):
    code, checks = run(_small(), "value", str(tmp_path))
    assert code == 0, checks
    report = json.loads((tmp_path / "value_report.json").read_text())
    assert report["passed"]
    assert report["lipschitz_observed"] <= report["lipschitz_bound"]
    assert 0.0 < report["lipschitz_bound_structure"] <= report["lipschitz_bound"]


@pytest.mark.parametrize("levels", [(4,), (4, 4)])
def test_ladder_slope_needs_two_distinct_levels(tmp_path, levels):
    # one level, or one level twice, determines no line: the fit fails
    # its check instead of passing on a rank-deficient polyfit
    code, checks = run(_small(levels=levels), "mollify", str(tmp_path))
    assert code == 1 and checks["ladder_slope"] is False
    assert json.loads((tmp_path / "mollify_report.json").read_text(),
                      parse_constant=pytest.fail)["slope"] is None


def test_ladder_slope_of_zero_gaps_is_null_not_nan(tmp_path):
    # zeros mollifies to exactly zero, so run() refuses the ladder; the
    # fit itself gives a null slope on zero gaps, and no warning fires
    code, checks = run(ExperimentConfig(scenario="zeros", n_steps=8,
                                        n_paths=200), "mollify", str(tmp_path))
    assert code == 2 and checks == {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._slope((4, 8, 16), (0.0, 0.0, 0.0)) is None


@pytest.mark.parametrize("name", ["constant-run-cost", "zeros"])
@pytest.mark.parametrize("pipeline", ["mollify", "envelopes",
                                      "full-uniqueness"])
def test_flat_builtin_refuses_pipelines_that_need_a_kink(tmp_path, name,
                                                         pipeline):
    code, checks = run(_small(scenario=name), pipeline, str(tmp_path))
    assert code == 2 and checks == {}
    manifest = _manifest(tmp_path)
    assert manifest["exit_code"] == 2 and manifest["config"]["scenario"] == name
    check = "gradient_bound" if pipeline == "envelopes" else "ladder_slope"
    assert name in manifest["error"] and check in manifest["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]


def test_envelopes_run_at_a_step_count_that_four_does_not_divide(tmp_path):
    # the approximant reads the path only at T, so no step count is
    # refused: 6 steps run and pass every check
    cfg = _small(n_steps=6, ladder_h=0.05, eps_ladder=(0.1,),
                 delta_ladder=(0.1,))
    code, checks = run(cfg, "envelopes", str(tmp_path))
    assert code == 0, checks
    assert checks == {"ordering": True, "residual_sides": True,
                      "gradient_bound": True}


@pytest.mark.parametrize("pipeline, report, key", [
    ("envelopes", "envelopes_report.json", "items"),
    ("full-uniqueness", "uniqueness_report.json", "grid")])
def test_envelope_items_carry_each_rungs_terminal_margins(tmp_path,
                                                          monkeypatch,
                                                          pipeline, report,
                                                          key):
    # each rung's terminal comparisons, signed as the pair's reports sign
    # them; the CSV keeps its scalar columns
    pairs = []

    def recording(*args, **kwargs):
        pairs.append(build(*args, **kwargs))
        return pairs[-1]

    build = cli.build_envelopes
    monkeypatch.setattr(cli, "build_envelopes", recording)
    cfg = _small(scenario="random-target", n_paths=300, ladder_h=0.1,
                 eps_ladder=(0.2,), delta_ladder=(0.2, 0.1))
    run(cfg, pipeline, str(tmp_path), workers=1)
    items = json.loads((tmp_path / report).read_text())[key]
    assert len(items) == len(pairs) == 2
    for item, pair in zip(items, pairs):
        assert item["terminal_margins"] == {
            side: pair.reports[side]["terminal_margin"]
            for side in ("upper", "lower")}
    header = (tmp_path / "envelope_grid.csv").read_text().splitlines()[1]
    assert "terminal_margins" not in header.split(",")


def test_non_finite_report_value_exits_1_without_the_report(tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(cli, "_slope", lambda xs, ys: float("nan"))
    code, checks = run(_small(), "mollify", str(tmp_path))
    assert code == 1 and "error" in checks
    assert not (tmp_path / "mollify_report.json").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=pytest.fail)
    assert manifest["exit_code"] == 1


def test_slope_needs_two_distinct_points():
    assert cli._slope((0.3, 0.3), (0.1, 0.2)) is None
    assert cli._slope((0.1, 0.2), (0.3, 0.0)) is None
    assert cli._slope((0.1, 0.2, 0.2), (0.3, 0.6, 0.6)) == pytest.approx(1.0)


def test_seed_flag_rewires_both_streams(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small().to_json())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((out_a, "123"), (out_b, "124")):
        assert main(["--config", str(cfg_path), "--pipeline", "simulate",
                     "--out", str(out), "--seed", seed]) == 0
    rows_a = (out_a / "simulate_summary.csv").read_text().splitlines()[-1]
    rows_b = (out_b / "simulate_summary.csv").read_text().splitlines()[-1]
    assert rows_a != rows_b


def test_worker_count_never_changes_results(tmp_path):
    # jhat spreads its level bounds and ladder items over the pool, bsde
    # its two solves, envelopes its two rungs; on random-target jhat's
    # value_V also scores half of each regression knot's controls there
    small = _small(ladder_h=0.05)
    regression = _small(scenario="random-target", n_steps=4, n_paths=2000,
                        ladder_h=0.05, levels=(4, 8))
    rungs = _small(n_paths=300, ladder_h=0.1, eps_ladder=(0.2,),
                   delta_ladder=(0.2, 0.1))
    jhat_files = ("jhat_ladder.csv", "jhat_report.json")
    for name, pipeline, cfg, files in (
            ("jhat", "jhat", small, jhat_files),
            ("jhat-regression", "jhat", regression, jhat_files),
            ("bsde", "bsde", small, ("bsde_summary.csv", "bsde_report.json")),
            ("envelopes", "envelopes", rungs, ("envelope_grid.csv",
                                               "envelopes_report.json"))):
        outs = []
        for workers in (1, 3):
            out = tmp_path / f"{name}-w{workers}"
            code, checks = run(cfg, pipeline, str(out), workers=workers)
            assert code == 0, checks
            outs.append([(out / file).read_bytes() for file in files])
        assert outs[0] == outs[1], name


@pytest.mark.parametrize("workers,pools", [(1, 0), (2, 1)])
def test_a_run_opens_one_pool_at_most(tmp_path, monkeypatch, workers, pools):
    # full-uniqueness runs mollify, jhat and the envelope grid, each with
    # work for a pool, on the run's one pool
    opened = []
    executor = cli.concurrent.futures.ThreadPoolExecutor

    def counting(*args, **kwargs):
        opened.append(kwargs.get("max_workers", args[0] if args else None))
        return executor(*args, **kwargs)

    monkeypatch.setattr(cli.concurrent.futures, "ThreadPoolExecutor",
                        counting)
    cfg = _small(scenario="random-target", n_steps=4, n_paths=300,
                 ladder_h=0.1, eps_ladder=(0.2,), delta_ladder=(0.2, 0.1))
    code, checks = run(cfg, "full-uniqueness", str(tmp_path / "out"),
                       workers=workers)
    # every stage ran (too short a ladder for its slope check to pass)
    assert code in (0, 1) and "error" not in checks, checks
    assert opened == [workers] * pools


def test_jhat_tables_do_not_depend_on_the_callers_blas_threads(tmp_path,
                                                               blas_threads):
    # 2000 paths is where a threaded OpenBLAS splits the regressions'
    # reductions, so without the pin these bytes follow the thread count
    cfg = _small(scenario="random-target", n_steps=2, n_paths=2000,
                 ladder_h=0.05, levels=(4,))
    outs = []
    for n in (1, 2):
        blas_threads(n)
        out = tmp_path / f"blas{n}"
        code, checks = run(cfg, "jhat", str(out), workers=1)
        assert code == 0, checks
        outs.append([(out / name).read_bytes()
                     for name in ("jhat_ladder.csv", "jhat_report.json")])
    assert outs[0] == outs[1]


def test_missing_openblas_skips_the_pin_and_says_so(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])
    cli._openblas.cache_clear()
    try:
        for name in ("a", "b"):
            code, checks = run(_small(), "simulate", str(tmp_path / name))
            assert code == 0, checks
            assert _manifest(tmp_path / name)["blas_threads"] is None
    finally:
        cli._openblas.cache_clear()
    assert capsys.readouterr().err.count("OpenBLAS not found") == 1


HELD = {"mmap_threshold": 32 << 20, "trim_threshold": 16 << 20}


@pytest.mark.parametrize("outcome, expected", [
    (True, 0), (False, 1), (IntegrationError, 1), (CapacityError, 2),
])
def test_heap_is_held_around_the_pipeline_on_every_exit(tmp_path, monkeypatch,
                                                        outcome, expected):
    # both thresholds are set before the pipeline runs, and every exit
    # trims the heap after it
    calls = []
    monkeypatch.setattr(cli, "_glibc", lambda: (
        lambda param, value: calls.append(("mallopt", param, value)),
        lambda pad: calls.append(("trim", pad))))

    def pipeline(cfg, out, pool):
        calls.append("pipeline")
        if isinstance(outcome, bool):
            return {"fine": outcome}
        raise outcome("boom")
    monkeypatch.setitem(cli._RUNNERS, "simulate", pipeline)
    code, checks = run(_small(), "simulate", str(tmp_path))
    assert code == expected
    assert calls == [("mallopt", cli._M_MMAP_THRESHOLD, HELD["mmap_threshold"]),
                     ("mallopt", cli._M_TRIM_THRESHOLD, HELD["trim_threshold"]),
                     "pipeline", ("trim", 0)]
    manifest = _manifest(tmp_path)
    assert manifest["heap_hold"] == HELD
    assert manifest["minor_faults"] >= 0 and manifest["peak_rss_mb"] > 0


def test_missing_glibc_skips_the_hold_and_says_so(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("", ""))
    cli._glibc.cache_clear()
    try:
        for name in ("a", "b"):
            code, checks = run(_small(), "simulate", str(tmp_path / name))
            assert code == 0, checks
            assert _manifest(tmp_path / name)["heap_hold"] is None
    finally:
        cli._glibc.cache_clear()
    assert capsys.readouterr().err.count("glibc not found") == 1


def test_resource_use_is_null_before_the_pipeline_or_without_resource(
        tmp_path, monkeypatch):
    assert run(_small(), "no-such-pipeline", str(tmp_path / "a"))[0] == 2
    monkeypatch.setattr(cli, "resource", None)
    assert run(_small(), "simulate", str(tmp_path / "b"))[0] == 0
    for name in ("a", "b"):
        manifest = _manifest(tmp_path / name)
        assert manifest["minor_faults"] is None
        assert manifest["peak_rss_mb"] is None


def test_envelope_tables_do_not_depend_on_the_heap_hold(tmp_path):
    # mallopt settings outlive run(), so the side without the hold runs
    # in a fresh interpreter that has never set them
    cfg = _small(n_paths=300, eps_ladder=(0.2,), delta_ladder=(0.2,),
                 ladder_h=0.1)
    held, free = tmp_path / "held", tmp_path / "free"
    code, checks = run(cfg, "envelopes", str(held), workers=1)
    assert code == 0, checks
    (tmp_path / "cfg.json").write_text(cfg.to_json())
    script = ("import sys; from shjlab import cli; cli._glibc = lambda: None; "
              "sys.exit(cli.main(sys.argv[1:]))")
    subprocess.run([sys.executable, "-c", script, "--pipeline", "envelopes",
                    "--config", str(tmp_path / "cfg.json"), "--out", str(free),
                    "--workers", "1"], check=True, capture_output=True,
                   timeout=120,
                   env={**os.environ, "PYTHONPATH": os.path.dirname(
                       os.path.dirname(cli.__file__))})
    assert _manifest(held)["heap_hold"] == HELD
    assert _manifest(free)["heap_hold"] is None
    # the report carries knot 0's residual margins, which sit at roundoff
    for name in ("envelope_grid.csv", "envelopes_report.json"):
        assert (held / name).read_bytes() == (free / name).read_bytes(), name


def test_default_workers_follow_the_cpu_affinity(tmp_path, monkeypatch):
    # a cpuset smaller than the host sizes the pool, not the host count
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    assert run(_small(), "simulate", str(tmp_path / "a"))[0] == 0
    assert _manifest(tmp_path / "a")["workers"] == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert run(_small(), "simulate", str(tmp_path / "b"))[0] == 0
    assert _manifest(tmp_path / "b")["workers"] == 64


def test_bsde_start_value_checks_against_the_discrete_target(tmp_path):
    # at 8 steps the left Riemann sum of E|W_t| is 0.057 short of the
    # integral, three times the tolerance; the check uses the sum
    code, checks = run(_small(), "bsde", str(tmp_path))
    assert code == 0, checks
    report = json.loads((tmp_path / "bsde_report.json").read_text())
    assert abs(report["y0"] - report["y0_discrete"]) <= 0.02
    assert abs(report["y0"] - report["y0_exact"]) > 0.02
    assert report["y0_discrete"] == pytest.approx(1.2731287185846065,
                                                  rel=1e-15)


def test_bsde_pipeline_reduces_as_the_stored_solve_would(tmp_path):
    # the pipeline reduces each knot as the sweep leaves it; the same
    # reductions over every stored knot give the same bits
    cfg = _small()
    assert run(cfg, "bsde", str(tmp_path))[0] == 0
    grid = TimeGrid(cli.HORIZON, cfg.n_steps)
    n = grid.n_steps
    rows, sols = [], []
    with cli._one_blas_thread():
        for case, seed, generator in (
                ("terminal_w", cfg.seed_w, None),
                ("noise_magnitude", cfg.seed_b,
                 lambda t, w: np.abs(w.current[:, 0]))):
            ens = sample_ensemble(grid, cfg.n_paths_bsde, seed)
            w_n = ens.value_at(n)[:, 0]
            sol = solve_bsde(BsdeSpec(
                ens, w_n if generator is None else np.abs(w_n), generator))
            sols.append((ens, sol))
            for k in range(n + 1):
                zbar = sol.Z[k, :, 0].mean() if k < n else 0.0
                rows.append((case, k, grid.knots[k],
                             *_path_mean_se(sol.Y[k]), zbar))
    cli._write_csv(tmp_path / "stored.csv", cfg.digest(),
                   ("case", "knot", "t", "mean_Y", "se_Y", "mean_Z"), rows)
    assert ((tmp_path / "stored.csv").read_bytes()
            == (tmp_path / "bsde_summary.csv").read_bytes())

    (ens, mart), (_, noise) = sols
    report = json.loads((tmp_path / "bsde_report.json").read_text())
    assert report["martingale_rms"] == max(
        float(np.sqrt(np.mean((mart.Y[k] - ens.value_at(k)[:, 0])**2)))
        for k in range(n + 1))
    assert report["z_gap"] == float(np.max(np.abs(mart.Z.mean(axis=1) - 1.0)))
    assert report["y0"] == float(noise.Y[0].mean())
    assert report["bounds"] == {"martingale_y": 0.02, "martingale_z": 0.05,
                                "noise_magnitude_start": 0.02}


def test_bsde_pipeline_never_stores_every_knot(tmp_path, monkeypatch):
    def stored(*args, **kwargs):
        raise AssertionError("the bsde pipeline stored a full solution")
    monkeypatch.setattr(cli, "solve_bsde", stored, raising=False)
    monkeypatch.setattr(bsde, "solve_bsde", stored)
    monkeypatch.setattr(BsdeSolution, "__init__", stored)
    code, checks = run(_small(), "bsde", str(tmp_path))
    assert code == 0, checks


def test_bsde_pipeline_replays_each_w_row_once(tmp_path, monkeypatch):
    # the operator design, the noise driver's w.current and the martingale
    # rms read W at the same knot: they share one replayed row, and the
    # tables are those of a replay on every read
    replays = {}
    replay = WienerEnsemble._replay

    def counting(ens, k):
        replays[id(ens), k] = replays.get((id(ens), k), 0) + 1
        return replay(ens, k)

    def unshared(ens, k):
        if not 0 <= k <= ens.grid.n_steps:
            raise IndexError(k)
        return replay(ens, k) if k % ens._s else ens._w[k // ens._s]

    files = ("bsde_summary.csv", "bsde_report.json")
    outs = []
    for name, patch in (("shared", counting), ("unshared", unshared)):
        monkeypatch.setattr(WienerEnsemble,
                            "_replay" if patch is counting else "value_at",
                            patch)
        code, checks = run(_small(), "bsde", str(tmp_path / name), workers=2)
        assert code == 0, checks
        outs.append([(tmp_path / name / file).read_bytes() for file in files])
        monkeypatch.undo()
    # 8 steps: checkpoints every 3 knots, two ensembles
    assert len(replays) == 2 * 8 and max(replays.values()) == 1
    assert outs[0] == outs[1]


def _jhat_chain(cfg):
    """Base cost, policy cost, majorant and residual check of each jhat
    level, every knot stored, as the pipeline's arithmetic runs them."""
    grid, coeffs, ens = cli._grid_ens(cfg)
    lat = cli._lattice(cfg, coeffs, h=cfg.ladder_h)
    radius = float(np.max(np.abs(lat.points)))
    gain = _value_lipschitz(coeffs, cli.HORIZON)
    pol = ControlPolicy.feedback(value_V(coeffs, ens, lat))
    base = policy_cost_surface(coeffs, ens, pol, lat)
    for level in cfg.levels:
        ml, bound, _ = cli._level_bound(coeffs, ens, level, radius, gain)
        jh = cost_majorant(policy_cost_surface(ml, ens, pol, lat), bound, ml,
                           pol, ens)
        rep = residual_check(jh, coeffs, ens, "super", tol=0.02)
        norm_gap = float(np.max(np.abs(
            np.stack([jh.at(k).mean(axis=1) for k in jh.knots]) - base.mean)))
        yield rep, norm_gap


@pytest.mark.parametrize("cfg", [
    _small(scenario="random-target", n_steps=4, n_paths=2000, ladder_h=0.05,
           levels=(4, 16)),
    _small(scenario="linear-drift", n_paths=500, levels=(4, 8)),
], ids=["random-target", "linear-drift"])
def test_jhat_stream_is_the_stored_chain(tmp_path, monkeypatch, cfg):
    # each ladder item chains the policy-cost sweep, the majorant and the
    # residual probe knot by knot; the stored surfaces and fields give
    # the same bits
    probes = []
    side_report = cli._side_report

    def recording(terminal, lattice, item_probes, *args):
        probes.append(item_probes)
        return side_report(terminal, lattice, item_probes, *args)

    monkeypatch.setattr(cli, "_side_report", recording)
    code, checks = run(cfg, "jhat", str(tmp_path), workers=1)
    assert "error" not in checks, checks
    items = json.loads((tmp_path / "jhat_report.json").read_text())["items"]
    with cli._one_blas_thread():
        chain = list(_jhat_chain(cfg))
    assert len(items) == len(chain) == len(probes) == len(cfg.levels)
    for item, item_probes, (rep, norm_gap) in zip(items, probes, chain):
        assert item["residual_margin"] == rep["margin"]
        assert item["terminal_margin"] == rep["terminal_margin"]
        assert item["norm_gap"] == norm_gap
        assert sorted(item_probes) == sorted(rep["probe_mean"])
        for k, (mean, se) in item_probes.items():
            assert np.array_equal(mean, rep["probe_mean"][k])
            assert np.array_equal(se, rep["probe_se"][k])


def test_jhat_item_holds_a_few_slices(monkeypatch):
    # one ladder item keeps the probes, the terminal values and the mean
    # rows, so past the horizon its peak is a few (nodes x paths) slices,
    # not one per knot; at the horizon the mollified terminal cost's
    # kernel average stacks one evaluation per kernel node on its own
    cfg = _small(scenario="random-target", n_steps=16, n_paths=2000,
                 ladder_h=0.05, levels=(4,))
    grid, coeffs, ens = cli._grid_ens(cfg)
    lat = cli._lattice(cfg, coeffs, h=cfg.ladder_h)
    pol = ControlPolicy.feedback(value_V(coeffs, ens, lat))
    base_means = cli._later(
        None, lambda: policy_cost_surface(coeffs, ens, pol, lat).mean[::-1])
    bound = cli._later(None, cli._level_bound, coeffs, ens, 4,
                       float(np.max(np.abs(lat.points))),
                       _value_lipschitz(coeffs, cli.HORIZON))
    ml = bound.result()[0]
    base_means.result()
    slice_bytes = lat.n_points * ens.n_paths * 8

    tracemalloc.start()
    try:
        ml.G(lat.points[:, None, :], ens.slice_at(grid.n_steps, True))
        kernel_peak = tracemalloc.get_traced_memory()[1]
        peaks = []
        majorant_knot = cli._majorant_knot

        def resetting(k, *args):
            # the peak up to here: the horizon, then each knot's step
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return majorant_knot(k, *args)

        monkeypatch.setattr(cli, "_majorant_knot", resetting)
        tracemalloc.reset_peak()
        cli._jhat_item(coeffs, ens, lat, pol, base_means, 4, bound)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(peaks) == grid.n_steps + 2
    assert peaks[0] < kernel_peak + 2 * slice_bytes
    assert max(peaks[1:]) < 12 * slice_bytes


def test_jhat_value_sweep_holds_a_few_slices():
    # jhat keeps only the argmin tables of its value sweep: no slice is
    # stored and no knot's realizations are read, so its peak is a few
    # (nodes x paths) slices where value_V keeps one per knot, 17 here
    cfg = _small(scenario="random-target", n_steps=16, n_paths=2000,
                 ladder_h=0.05, levels=(4, 8, 16))
    grid, coeffs, ens = cli._grid_ens(cfg)
    lat = cli._lattice(cfg, coeffs, h=cfg.ladder_h)
    slice_bytes = lat.n_points * ens.n_paths * 8
    argmins = {}
    tracemalloc.start()
    try:
        for _ in valuefn._value_knots(coeffs, ens, lat, argmins, {}):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(argmins) == list(range(grid.n_steps))
    assert peak < 12 * slice_bytes


def test_jhat_asks_only_the_base_cost_for_knot_stats(tmp_path, monkeypatch):
    # the value sweep makes no pick read and takes no path mean or SE,
    # and neither do the ladder items: only the base cost's knots, whose
    # mean rows norm_gap reads, take theirs (one call over all rows each)
    cfg = _small(scenario="random-target", n_steps=4, n_paths=500,
                 ladder_h=0.05, levels=(4, 8))
    stats, readers = [], []
    path_mean_se = valuefn._path_mean_se
    read = valuefn._ControlImages.read

    def counting(a):
        stats.append(a.shape)
        return path_mean_se(a)

    def named(self, values, rows):
        readers.append(sys._getframe(1).f_code.co_name)
        return read(self, values, rows)

    monkeypatch.setattr(valuefn, "_path_mean_se", counting)
    monkeypatch.setattr(valuefn._ControlImages, "read", named)
    code, checks = run(cfg, "jhat", str(tmp_path), workers=1)
    assert code == 0, checks
    assert len(stats) == cfg.n_steps + 1
    assert "realize" not in readers and "score" in readers
    # value_V itself reads each knot's pick
    grid, coeffs, ens = cli._grid_ens(cfg)
    readers.clear()
    value_V(coeffs, ens, cli._lattice(cfg, coeffs, h=cfg.ladder_h))
    assert readers.count("realize") == cfg.n_steps


def test_pipeline_registry_is_complete():
    assert set(PIPELINES) == {"simulate", "value", "bsde", "mollify", "jhat",
                              "envelopes", "viscosity-check",
                              "full-uniqueness"}
