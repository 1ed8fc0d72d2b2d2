"""Experiment configs, pipeline dispatch, and reproducibility."""

import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shjlab import cli
from shjlab.cli import PIPELINES, ExperimentConfig, main, run
from shjlab.coeffs import scenario_names
from shjlab.exceptions import AccuracyError, CapacityError, IntegrationError

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
        T=draw(st.one_of(st.integers(1, 10), _POS)),
        n_steps=draw(st.integers(1, 10**6)),
        n_paths=draw(st.integers(2, 10**8)),
        n_paths_bsde=draw(st.integers(2, 10**8)),
        seed_w=seed_w,
        seed_b=draw(_SEEDS.filter(lambda s: s != seed_w)),
        x0_max=draw(_POS), lattice_h=draw(_POS), ladder_h=draw(_POS),
        lattice_margin=draw(st.floats(-1e3, 1e3)),
        levels=tuple(draw(st.lists(st.integers(1, 64), min_size=1,
                                   max_size=4))),
        eps_ladder=tuple(draw(st.lists(_POS, min_size=1, max_size=4))),
        delta_ladder=tuple(draw(st.lists(_POS, min_size=1, max_size=4))),
        n_intervals=draw(st.integers(1, 64)),
        tolerance_scale=draw(_POS),
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
    assert _small(T=1).digest() == _small(T=1.0).digest()


def test_config_rejects_unknown_keys():
    text = json.dumps({**json.loads(_small().to_json()), "n_pths": 7})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json(text)


@pytest.mark.parametrize("bad", [
    dict(n_steps=0),
    dict(n_paths=0),
    dict(T=-1.0),
    dict(seed_b=11),          # must differ from seed_w
    dict(levels=()),
    dict(eps_ladder=(0.2, -0.1)),
    dict(lattice_h=0.0),
    dict(n_steps=32.7),       # would run 32 steps under a 32.7 digest
    dict(n_steps=True),
    dict(levels=(4, "8")),
    dict(T=float("nan")),     # NaN compares false, so T <= 0 lets it pass
    dict(lattice_h=float("inf")),
    dict(eps_ladder=(0.1, float("nan"))),
    dict(tolerance_scale=float("nan")),
    dict(x0_max=float("-inf")),
    dict(T=10**400),          # an integer beyond the float range
    dict(seed_w=-5),          # the generator takes no negative seed
    dict(seed_b=-1),
    dict(x0_max=0.0),         # no starting box, so no lattice
    dict(x0_max=-1.0),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        _small(**bad)
    # the same values read from JSON text, e.g. {"T": NaN, ...}
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
    cfg.T = float("nan")
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

    def boom(cfg, out, scale, workers):
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
    ('{"T": NaN}', "not finite"), ('{"bogus": 1}', "unknown config keys"),
    ('{"basis_degree": 3}', "unknown config keys")])
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


def test_tolerance_scale_can_force_failure(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small().to_json())
    assert main(["--config", str(cfg_path), "--pipeline", "simulate",
                 "--out", str(tmp_path / "o"), "--tolerance-scale",
                 "1e-12"]) == 1
    manifest = _manifest(tmp_path / "o")
    assert manifest["exit_code"] == 1
    assert manifest["checks"] == {"terminal_variance": False}


def _simulate(tmp_path, out, *flags):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_small().to_json())
    return main(["--config", str(cfg_path), "--pipeline", "simulate",
                 "--out", str(out), *flags])


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_tolerance_scale_flag_is_validated(tmp_path, value):
    # the flag goes through config validation: no silent 1, no exit 1
    out = tmp_path / "o"
    assert _simulate(tmp_path, out, "--tolerance-scale", value) == 2
    manifest = json.loads((out / "manifest.json").read_text(),
                          parse_constant=pytest.fail)
    assert manifest["exit_code"] == 2
    assert "tolerance_scale" in manifest["error"]
    assert manifest["config"] is None and manifest["checks"] == {}
    assert not (out / "simulate_summary.csv").exists()


def test_negative_seed_flag_exits_2_with_manifest(tmp_path):
    out = tmp_path / "o"
    assert main(["--seed", "-5", "--out", str(out)]) == 2
    manifest = _manifest(out)
    assert manifest["exit_code"] == 2 and "seeds" in manifest["error"]
    assert manifest["config"] is None
    assert not (out / "value_surface.csv").exists()


def test_tolerance_scale_flag_is_part_of_the_config(tmp_path):
    plain, scaled = tmp_path / "plain", tmp_path / "scaled"
    assert _simulate(tmp_path, plain) == 0
    assert _simulate(tmp_path, scaled, "--tolerance-scale", "2") == 0
    digest = _small(tolerance_scale=2.0).digest()
    assert digest != _small().digest()
    manifest = _manifest(scaled)
    assert manifest["config"]["tolerance_scale"] == 2.0
    assert manifest["config_hash"] == digest
    assert _manifest(plain)["config_hash"] == _small().digest()
    first = (scaled / "simulate_summary.csv").read_text().splitlines()[0]
    assert first == f"# config {digest}"


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
    # jhat spreads its ladder items over the pool, bsde its two solves
    cfg = _small(ladder_h=0.05)
    for pipeline, files in (("jhat", ("jhat_ladder.csv",)),
                            ("bsde", ("bsde_summary.csv", "bsde_report.json"))):
        outs = []
        for workers in (1, 3):
            out = tmp_path / f"{pipeline}-w{workers}"
            code, checks = run(cfg, pipeline, str(out), workers=workers)
            assert code == 0, checks
            outs.append([(out / name).read_bytes() for name in files])
        assert outs[0] == outs[1], pipeline


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


def test_pipeline_registry_is_complete():
    assert set(PIPELINES) == {"simulate", "value", "bsde", "mollify", "jhat",
                              "envelopes", "viscosity-check",
                              "full-uniqueness"}
