"""Built-in scenarios and coefficient-set contracts."""

import numpy as np
import pytest

from shjlab.coeffs import (DECLARED, CoefficientSet, _argmin_sweep,
                           _policy_sweep, control_grid, probe_lattice,
                           reach_radius, scenario, scenario_names)
from shjlab.probspace import TimeGrid, WienerEnsemble, sample_ensemble
from shjlab.smoothing import MollifiedSet

SEED = 5
ALL_SCENARIOS = scenario_names()

# name -> (L, drift_growth, deterministic, n_controls); every built-in has
# controls on [-1, 1], lip_x = 1, affine beta, f, control-separable
BUILT_INS = {
    "eikonal": (12.0, (1.0, 0.0), True, 21),
    "linear-drift": (15.0, (1.0, 0.5), True, 21),
    "random-target": (12.0, (1.0, 0.0), False, 21),
    "constant-run-cost": (1.0, (0.0, 0.0), True, 3),
    "zeros": (1.0, (0.0, 0.0), True, 3),
}

# beta and f at control 1, and G (target 0 for random-target), at X_PIN
X_PIN = np.array([-12.0, -0.5, 0.0, 2.0])
PINNED_VALUES = {
    "eikonal": ([1.0, 1.0, 1.0, 1.0], [0.0] * 4, [10.0, 0.5, 0.0, 2.0]),
    "linear-drift": ([7.0, 1.25, 1.0, 0.0], [0.1] * 4, [10.0, 0.5, 0.0, 2.0]),
    "random-target": ([1.0, 1.0, 1.0, 1.0], [0.0] * 4, [10.0, 0.5, 0.0, 2.0]),
    "constant-run-cost": ([0.0] * 4, [1.0] * 4, [0.0] * 4),
    "zeros": ([0.0] * 4, [0.0] * 4, [0.0] * 4),
}


def test_registry_contents():
    assert ALL_SCENARIOS == sorted(BUILT_INS)
    with pytest.raises(KeyError):
        scenario("not-a-scenario")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_built_in_problem_pinned(name):
    L, growth, deterministic, n_controls = BUILT_INS[name]
    co = scenario(name)
    assert co.d == 1 and co.controls.shape[1] == 1
    assert (co.L, co.lip_x, co.drift_growth) == (L, 1.0, growth)
    assert co.deterministic is deterministic
    assert co.affine == ("beta", "f") and co.control_separable is True
    assert co.n_controls == n_controls == co.controls.shape[0]
    assert co.controls[0, 0] == -1.0 and co.controls[-1, 0] == 1.0

    # terminal Brownian values 0 and artanh(0.5): targets 0 and 0.5
    inc = np.array([0.0, np.arctanh(0.5)]).reshape(2, 1, 1)
    ens = WienerEnsemble(TimeGrid(1.0, 1), 1, 2, 0, inc)
    w = None if deterministic else ens.slice_at(0)
    wT = None if deterministic else ens.slice_at(1, terminal_ok=True)
    x = X_PIN[:, None, None]
    v = co.controls[-1]
    beta, f, G = PINNED_VALUES[name]
    np.testing.assert_array_equal(
        np.broadcast_to(co.beta(0.5, x, v, w), (4, 1, 1)).ravel(), beta)
    np.testing.assert_array_equal(
        np.broadcast_to(co.f(0.5, x, v, w), (4, 1)).ravel(), f)
    g = np.asarray(co.G(x, wT))
    np.testing.assert_array_equal(g[:, 0], G)
    if not deterministic:
        np.testing.assert_allclose(g[:, 1], [10.0, 1.0, 0.5, 1.5],
                                   rtol=0.0, atol=1e-15)


def test_declared_constants_are_the_problem_fields():
    assert set(DECLARED) == {"controls", "L", "lip_x", "drift_growth",
                             "deterministic", "affine", "control_separable",
                             "n_controls"}


def test_control_grid():
    grid = control_grid(-1.0, 1.0, 21)
    assert grid.shape == (21, 1)
    assert grid[0, 0] == -1.0 and grid[-1, 0] == 1.0
    np.testing.assert_allclose(np.diff(grid[:, 0]), 0.1)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_shape_contracts(name):
    co = scenario(name)
    ens = sample_ensemble(TimeGrid(1.0, 8), 1, 40, SEED)
    w = None if co.deterministic else ens.slice_at(3)
    wT = None if co.deterministic else ens.slice_at(8, terminal_ok=True)
    x = np.linspace(-2, 2, 7).reshape(7, 1, 1)
    n_eff = 1 if co.deterministic else 40
    for v in co.controls[:: max(1, co.n_controls // 3)]:
        b = np.asarray(co.beta(0.5, x, v, w))
        assert b.shape[-1] == 1
        assert np.all(np.isfinite(b))
        f = np.asarray(co.f(0.5, x, v, w))
        assert f.shape in ((7, 1), (7, n_eff))
    g = np.asarray(co.G(x, wT))
    assert g.shape in ((7, 1), (7, n_eff))
    assert np.all(np.isfinite(g))


def _max_quotient(vals, probes):
    # difference quotients along consecutive probe rows
    dv = np.abs(vals[1:] - vals[:-1]).max(axis=tuple(range(1, vals.ndim)))
    dx = np.linalg.norm(probes[1:] - probes[:-1], axis=-1)
    ok = dx > 0
    return float((dv[ok] / dx[ok]).max()) if ok.any() else 0.0


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_declared_bound_holds(name):
    # |beta|, |f|, |G| and their quotients between consecutive probes of
    # the probe lattice on the reach of |x0| <= 1 stay within the declared
    # L, at the knots nearest 5 equally spaced times (knot 0 for a set
    # that reads no paths)
    co = scenario(name)
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 1, 60, SEED)
    probes = probe_lattice(reach_radius(co, 1.0, grid.T))
    times = np.linspace(0.0, grid.T, 5)
    knots = [0] if co.deterministic else sorted(
        {grid.index_of(round(t / grid.dt) * grid.dt) for t in times})
    x = probes[:, None, :]
    sup_val = sup_quot = 0.0
    for k in knots:
        t = grid.knots[k]
        w = None if co.deterministic else ens.slice_at(k)
        wT = None if co.deterministic else ens.slice_at(k, terminal_ok=True)
        maps = [np.asarray(co.beta(t, x, v, w)) for v in co.controls]
        maps += [np.asarray(co.f(t, x, v, w))[..., None] for v in co.controls]
        maps.append(np.asarray(co.G(x, wT))[..., None])
        for vals in maps:
            sup_val = max(sup_val, float(np.abs(vals).max()))
            sup_quot = max(sup_quot, _max_quotient(vals, probes))
    assert sup_val <= co.L + 1e-12, (sup_val, co.L)
    assert sup_quot <= co.L + 1e-9, (sup_quot, co.L)


def test_eikonal_values():
    co = scenario("eikonal")
    x = np.array([[[0.5]], [[-2.0]], [[12.0]]])
    np.testing.assert_allclose(
        np.asarray(co.G(x, None)).ravel(), [0.5, 2.0, 10.0])
    # drift is the control itself, running cost vanishes
    v = co.controls[3]
    np.testing.assert_allclose(np.asarray(co.beta(0.1, x, v, None)),
                               np.broadcast_to(v, x.shape))
    assert np.all(np.asarray(co.f(0.1, x, v, None)) == 0.0)


def test_random_target_reads_terminal_path():
    co = scenario("random-target")
    ens = sample_ensemble(TimeGrid(1.0, 4), 1, 25, SEED)
    wT = ens.slice_at(4, terminal_ok=True)
    x = np.zeros((3, 1, 1))
    g = np.asarray(co.G(x, wT))
    assert g.shape == (3, 25)
    assert g.std() > 0.0  # depends on the path
    np.testing.assert_allclose(g[0], np.abs(np.tanh(ens.value_at(4)[:, 0])))


def test_reach_radius_and_probes():
    co = scenario("eikonal")
    assert reach_radius(co, 2.0, 1.0) == pytest.approx(3.0)
    probes = probe_lattice(2.0)
    assert probes.shape == (67, 1) and probes[33, 0] == 0.0
    assert np.abs(probes).max() <= 2.0 + 1e-12


def test_coefficient_set_validation():
    good = scenario("zeros")
    with pytest.raises(ValueError, match="n_controls, 1"):
        CoefficientSet(controls=np.zeros((3, 2)), beta=good.beta, f=good.f,
                       G=good.G, L=1.0, lip_x=1.0)
    with pytest.raises(ValueError):
        CoefficientSet(controls=np.zeros((1, 1)), beta=good.beta, f=good.f,
                       G=good.G, L=-1.0, lip_x=1.0)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_affine_declaration_matches_kernel_average(name):
    # approximants skip the kernel for declared names, so a false
    # declaration would silently drop smoothing: each declared map must
    # equal its literal kernel average
    co = scenario(name)
    x = probe_lattice(reach_radius(co, 1.0, 1.0))[:, None, :]
    w = None
    if not co.deterministic:
        ens = sample_ensemble(TimeGrid(1.0, 8), 1, 50, SEED)
        w = ens.slice_at(3)
    for level in (1, 8):
        moll = MollifiedSet(co, level)
        for v in co.controls[::max(1, co.n_controls // 4)]:
            for attr in co.affine:
                base = np.asarray(getattr(co, attr)(0.25, x, v, w), float)
                avg = np.asarray(getattr(moll, attr)(0.25, x, v, w), float)
                np.testing.assert_allclose(avg, base, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_control_separable_declaration_holds(name):
    # the Hamiltonian reads the control lines c(v) p + g(v) off at one
    # point: beta - beta(v_0) and f - f(v_0) must not depend on t, x or w
    co = scenario(name)
    assert co.control_separable
    x = probe_lattice(reach_radius(co, 1.0, 1.0))[:, None, :]
    w = None
    if not co.deterministic:
        w = sample_ensemble(TimeGrid(1.0, 8), 1, 50, SEED).slice_at(3)
    for problem in (co, MollifiedSet(co, 4)):
        for t in (0.0, 0.625):
            for attr in ("beta", "f"):
                fn = getattr(problem, attr)
                ref = np.asarray(fn(t, x, co.controls[0], w), float)
                for v in co.controls:
                    shift = np.asarray(fn(t, x, v, w), float) - ref
                    np.testing.assert_allclose(shift, shift.flat[0],
                                               rtol=0.0, atol=1e-12)


def test_affine_declaration_rejects_unknown_names():
    good = scenario("zeros")
    kw = dict(controls=np.zeros((1, 1)), beta=good.beta, f=good.f, G=good.G,
              L=1.0, lip_x=1.0)
    assert CoefficientSet(**kw, affine=["f"]).affine == ("f",)
    for bad in (("beta", "G"), "beta"):
        with pytest.raises(ValueError, match="affine"):
            CoefficientSet(**kw, affine=bad)


def test_sweeps_break_exact_ties_to_index_zero():
    # zeros: every control scores 0, so the argmin must be control 0 and
    # the policy sweep at that choice evaluates control 0 alone
    co = scenario("zeros")
    x = np.linspace(-1.0, 1.0, 5)[:, None, None]
    p = np.ones_like(x)
    calls = []

    def score(b, fv):
        calls.append(1)
        total = np.sum(b * p, axis=-1) + fv
        return total, total + 1.0

    best, idx, (carried,) = _argmin_sweep(co, 0.0, x, None, score, np.int8)
    assert len(calls) == co.n_controls
    assert idx.dtype == np.int8 and not idx.any()
    assert np.all(best == 0.0) and np.all(carried == 1.0)

    seen = []

    def evaluate(b, fv):
        seen.append(1)
        return b, fv

    drift, run = _policy_sweep(co, 0.0, x, None, idx, evaluate,
                               [x.shape, idx.shape])
    assert len(seen) == 1
    assert np.all(drift == 0.0) and np.all(run == 0.0)
