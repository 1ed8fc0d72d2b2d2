"""Backward least-squares solver, error bounds, and cost majorants."""

import dataclasses

import numpy as np
import pytest

from shjlab.bsde import (BsdeSpec, backward_knots, cost_majorant,
                         error_bound_bsde, policy_cost_surface, solve_bsde)
from shjlab.coeffs import reach_radius, scenario
from shjlab.probspace import (CondExpOperator, TimeGrid, polynomial_basis,
                              sample_ensemble)
from shjlab.smoothing import MollifiedSet, error_processes
from shjlab.valuefn import BoxLattice, ControlPolicy, value_V

SEED = 29
GRID = TimeGrid(1.0, 32)
# E|W_T| plus the left Riemann sum of E|W_t| that the solver integrates
Y0_DISCRETE = np.sqrt(2.0 / np.pi) * (
    np.sqrt(GRID.T) + GRID.dt * np.sum(np.sqrt(GRID.knots[:-1])))
# probes reach |x0| <= 1 on the eikonal problem
RADIUS = reach_radius(scenario("eikonal"), 1.0, GRID.T)


def _ens(n_paths=20_000, seed=SEED):
    return sample_ensemble(GRID, 1, n_paths, seed)


def test_spec_validation():
    ens = _ens(100)
    with pytest.raises(ValueError):
        BsdeSpec(ens, np.zeros(99))
    bad = np.zeros(100)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        BsdeSpec(ens, bad)
    spec = BsdeSpec(ens, np.zeros(100))
    np.testing.assert_allclose(spec.driver_at(5), np.zeros(100))


def test_terminal_row_bit_exact():
    ens = _ens(500)
    term = ens.value_at(GRID.n_steps)[:, 0] ** 2
    sol = solve_bsde(BsdeSpec(ens, term))
    assert np.array_equal(sol.Y[GRID.n_steps], term)


@pytest.mark.parametrize("generator", [
    None, lambda t, w: np.abs(w.current[:, 0]),
    np.linspace(0.0, 1.0, GRID.n_steps)], ids=["none", "callable", "array"])
def test_solve_bsde_is_the_collected_backward_sweep(generator):
    # the stored solve and the one-knot generator are the same sweep, bit
    # for bit, with a zero driver never evaluated
    ens = _ens(2_000)
    term = np.abs(ens.value_at(GRID.n_steps)[:, 0])
    spec = BsdeSpec(ens, term, generator)
    sol = solve_bsde(spec)
    knots = list(backward_knots(spec))[::-1]
    assert [k for k, *_ in knots] == list(range(GRID.n_steps))
    assert all((g is None) == (generator is None) for *_, g, _ in knots)
    zero = np.zeros(ens.n_paths)
    assert np.array_equal(sol.Y, np.stack([y for _, y, *_ in knots] + [term]))
    assert np.array_equal(sol.Y[GRID.n_steps], term)
    assert np.array_equal(sol.Z, np.stack([z for _, _, z, *_ in knots]))
    assert np.array_equal(sol.driver, np.stack(
        [zero if g is None else g for *_, g, _ in knots]))
    assert np.array_equal(sol.diagnostics["residual_rms"],
                          [r for *_, r in knots] + [0.0])


def test_brownian_terminal_martingale():
    # Y_k ~ W_k and Z_k ~ 1: the covariation extraction sees unit
    # integrand through the projection centering
    ens = _ens()
    wT = ens.value_at(GRID.n_steps)[:, 0]
    sol = solve_bsde(BsdeSpec(ens, wT))
    gaps = sol.Y[:-1] - np.stack([ens.value_at(k)[:, 0]
                                  for k in range(GRID.n_steps)])
    assert np.sqrt(np.mean(gaps**2)) < 0.02
    assert abs(sol.Z.mean() - 1.0) < 0.02


def test_none_generator_matches_explicit_zeros():
    # generator=None skips one projection per knot; an explicit zero
    # array goes through it, and the two agree (signed zeros aside)
    ens = _ens(2_000)
    wT = ens.value_at(GRID.n_steps)[:, 0]
    none = solve_bsde(BsdeSpec(ens, wT))
    zeros = solve_bsde(BsdeSpec(ens, wT, np.zeros(GRID.n_steps)))
    for name in ("Y", "Z", "driver"):
        assert np.array_equal(getattr(none, name), getattr(zeros, name))
    assert np.array_equal(none.diagnostics["residual_rms"],
                          zeros.diagnostics["residual_rms"])


def test_zero_driver_residual_keeps_the_bits_of_the_g_dt_formula(
        monkeypatch):
    # generator=None never evaluates the driver and drops the g dt term
    # of the residual: y + 0.0 only turns a -0.0 into +0.0, which
    # squaring removes, so every residual keeps its bits
    def unused(self, k):
        raise AssertionError("zero driver evaluated")
    monkeypatch.setattr(BsdeSpec, "driver_at", unused)
    ens = _ens(2_000)
    sol = solve_bsde(BsdeSpec(ens, ens.value_at(GRID.n_steps)[:, 0] ** 2))
    g = np.zeros(ens.n_paths)
    old = [np.sqrt(np.mean((sol.Y[k + 1] + g * GRID.dt - sol.Y[k]) ** 2))
           for k in range(GRID.n_steps)] + [0.0]
    assert np.array_equal(sol.diagnostics["residual_rms"], old)


def test_zero_generator_driver_is_zero():
    # the zero driver is never written, so it must be allocated zeroed.
    # Dirty memory for an allocation that is not: freeing an 8 MB block
    # makes glibc serve blocks this size from its heap, where the solves
    # with a nonzero driver leave theirs behind
    ens = _ens(2_000)
    wT = ens.value_at(GRID.n_steps)[:, 0]
    np.ones(1 << 20)                # the 8 MB block, freed at once
    for _ in range(2):
        solve_bsde(BsdeSpec(ens, wT, np.full(GRID.n_steps, 0.5)))
    sol = solve_bsde(BsdeSpec(ens, wT))
    assert sol.driver.shape == (GRID.n_steps, 2_000)
    assert not sol.driver.any()


def test_deterministic_data_collapse():
    # constant terminal and driver: Y is the exact quadrature, Z == 0
    ens = _ens(2_000)
    g = np.full(GRID.n_steps, 0.25)
    sol = solve_bsde(BsdeSpec(ens, np.full(2_000, 2.0), g))
    t = GRID.knots
    np.testing.assert_allclose(sol.Y.mean(axis=1), 2.0 + 0.25 * (1.0 - t),
                               atol=1e-12)
    assert np.abs(sol.Z).max() <= 1e-12


def test_absolute_brownian_benchmark():
    # terminal |W_T|, driver |W_t|: the grid's own y_0, which sits about
    # 0.0135 below the continuous-time (5/3) sqrt(2/pi) at 32 steps
    ens = _ens(30_000)
    spec = BsdeSpec(ens, np.abs(ens.value_at(GRID.n_steps)[:, 0]),
                    lambda t, w: np.abs(w.current[:, 0]))
    sol = solve_bsde(spec)
    y0 = float(sol.Y[0].mean())
    assert abs(y0 - Y0_DISCRETE) < 0.02
    assert sol.diagnostics["residual_rms"].max() < 0.5


def test_solver_linearity():
    ens = _ens(3_000)
    w = ens.value_at(GRID.n_steps)[:, 0]
    g1 = np.ones(GRID.n_steps)
    s1 = solve_bsde(BsdeSpec(ens, w, g1))
    s2 = solve_bsde(BsdeSpec(ens, w**2))
    combo = solve_bsde(BsdeSpec(ens, 2.0 * w - 3.0 * w**2, 2.0 * g1))
    np.testing.assert_allclose(combo.Y, 2.0 * s1.Y - 3.0 * s2.Y, atol=1e-9)
    np.testing.assert_allclose(combo.Z, 2.0 * s1.Z - 3.0 * s2.Z, atol=1e-9)


@pytest.mark.parametrize("levels", [(4, 8)])
def test_error_bound_halves_with_level(levels):
    base = scenario("eikonal")
    ens = _ens(2_000)
    gain = float(np.exp(base.L) * base.L * 2.0)
    norms = []
    for level in levels:
        molly = MollifiedSet(base, level)
        errors = error_processes(base, molly, ens, RADIUS)
        bound = error_bound_bsde(errors, gain, ens)
        assert bound.Y.min() > -1e-9          # nonnegative data
        norms.append(bound.sup_rms())
    np.testing.assert_allclose(norms[0] / norms[1], 2.0, rtol=1e-6)


def test_error_bound_rejects_foreign_grid():
    base = scenario("eikonal")
    errors = error_processes(base, MollifiedSet(base, 4), _ens(500), RADIUS)
    other = sample_ensemble(TimeGrid(1.0, 16), 1, 500, SEED)
    with pytest.raises(ValueError):
        error_bound_bsde(errors, 1.0, other)


def test_policy_surface_matches_value_recursion():
    # replaying the greedy argmin tables reproduces the DP values
    co = scenario("eikonal")
    ens = _ens(200)
    lat = BoxLattice.centered(3.25, 0.05)
    V = value_V(co, ens, lat)
    u = policy_cost_surface(co, ens, ControlPolicy.feedback(V), lat)
    np.testing.assert_allclose(u.mean, V.mean, atol=0.0)
    assert u.argmin is None


def test_feedback_policy_is_read_on_its_own_lattice():
    co = scenario("eikonal")
    ens = _ens(200)
    lat = BoxLattice.centered(3.25, 0.05)
    V = value_V(co, ens, lat)
    pol = ControlPolicy.feedback(V)
    k = GRID.n_steps - 1
    idx = pol.lattice_indices(k, lat, 1)
    assert idx.shape == (lat.n_points, 1)
    assert np.array_equal(idx, V.argmin[k])
    # the nodes are their own nearest nodes
    assert np.array_equal(idx, pol.indices_at(k, lat.points[:, None, :]))
    assert np.array_equal(ControlPolicy.constant(3).lattice_indices(k, lat, 2),
                          np.full((lat.n_points, 2), 3))
    with pytest.raises(ValueError, match="different lattice"):
        pol.lattice_indices(k, BoxLattice.centered(3.25, 0.05), 1)
    del V.argmin[k]
    with pytest.raises(ValueError, match="no argmin table"):
        pol.lattice_indices(k, lat, 1)


def test_policy_surface_constant_run_cost():
    co = scenario("constant-run-cost")
    ens = _ens(200)
    lat = BoxLattice.centered(1.5, 0.5)
    u = policy_cost_surface(co, ens, ControlPolicy.constant(0), lat)
    np.testing.assert_allclose(u.mean[0], 1.0, atol=1e-12)


def test_cost_majorant_field():
    base = scenario("eikonal")
    ens = _ens(400)
    molly = MollifiedSet(base, 8)
    lat = BoxLattice.centered(3.3, 0.1)
    pol = ControlPolicy.constant(base.n_controls // 2)
    u = policy_cost_surface(molly, ens, pol, lat)
    errors = error_processes(base, molly, ens, RADIUS)
    bound = error_bound_bsde(errors, 1.0, ens)
    field = cost_majorant(u, bound, molly, pol, ens)
    # samples are cost plus bound, and the majorant dominates the cost
    np.testing.assert_allclose(
        field.at(GRID.n_steps),
        u.pathwise(GRID.n_steps) + bound.Y[GRID.n_steps][None, :])
    assert field.drift is not None
    assert GRID.n_steps not in field.drift
    assert (field.at(0) - u.pathwise(0) >= -1e-9).all()


def test_cost_majorant_rejects_mismatched_grid():
    base = scenario("eikonal")
    ens = _ens(300)
    molly = MollifiedSet(base, 8)
    lat = BoxLattice.centered(3.3, 0.1)
    pol = ControlPolicy.constant(0)
    u = policy_cost_surface(molly, ens, pol, lat)
    errors = error_processes(base, molly, ens, RADIUS)
    bound = error_bound_bsde(errors, 1.0, ens)
    other = sample_ensemble(GRID, 1, 77, SEED + 1)
    with pytest.raises(ValueError):
        cost_majorant(u, bound, molly, pol, other)


def _read_by_corner(lat, values, pos):
    # reference read: fancy-index both neighbours, the sum started from 0.0
    u = np.clip((pos[..., 0] - lat.lo) / lat.h, 0.0, lat.n_points - 1.0)
    i = np.minimum(u.astype(int), lat.n_points - 2)
    frac = u - i
    cols = np.arange(values.shape[1])
    return 0.0 + (1.0 - frac) * values[i, cols] + frac * values[i + 1, cols]


def _policy_reference(co, ens, policy, lat):
    """Per-control loop of the policy-cost recursion: each used control
    reads every point, and each point keeps its own control's read.

    Returns the mean rows, se rows, slices, the share of the kept reads
    whose images left the box and their count per knot and control.
    """
    grid = ens.grid
    n, dt = grid.n_steps, grid.dt
    n_eff = 1 if co.deterministic else ens.n_paths
    x = lat.points[:, None, :]
    wT = None if co.deterministic else ens.slice_at(n, terminal_ok=True)
    V = np.broadcast_to(co.G(x, wT), (lat.n_points, n_eff)).copy()
    mean, se, slices = {n: V.mean(axis=-1)}, {}, {n: V}
    clamped = evals = 0
    exits = np.zeros((n, co.n_controls), int)
    for k in range(n - 1, -1, -1):
        t = grid.knots[k]
        w = None if co.deterministic else ens.slice_at(k)
        idx = policy.lattice_indices(k, lat, n_eff)
        raw = np.empty(idx.shape)
        for j in np.unique(idx):
            v = co.controls[j]
            pos = np.broadcast_to(x + dt * co.beta(t, x, v, w),
                                  idx.shape + (1,))
            vals = co.f(t, x, v, w) * dt + _read_by_corner(lat, V, pos)
            u = (pos[..., 0] - lat.lo) / lat.h
            outside = (u < 0.0) | (u > lat.n_points - 1)
            exits[k, j] = outside[idx == j].sum()
            clamped += int(exits[k, j])
            raw[idx == j] = np.broadcast_to(vals, idx.shape)[idx == j]
        evals += raw.size
        V = raw if co.deterministic else CondExpOperator(
            ens, k, polynomial_basis()).apply(raw)
        slices[k] = V
        mean[k] = raw.mean(axis=-1)
        se[k] = (raw.std(axis=-1, ddof=1) / np.sqrt(n_eff) if n_eff > 1
                 else np.zeros(lat.n_points))
    return mean, se, slices, clamped / evals, exits


def _pulled_drift(t, x, v, w):
    return v - 0.5 * x


def _energy(t, x, v, w):
    return np.full(x.shape[:-1], 0.1 * float(v[0]) ** 2)


def _variant(name, base):
    """base, mollified, or with a pull and a running cost."""
    if name == "mollified":
        return MollifiedSet(base, 4)
    if name == "priced":
        return dataclasses.replace(base, beta=_pulled_drift, f=_energy)
    return base


def _policy_case(name):
    """(coefficient set, ensemble, lattice, greedy, constant or open-loop
    policy); the narrow box sends some images out of it."""
    base = scenario("eikonal" if name == "eikonal" else "random-target")
    co = _variant(name, base)
    ens = sample_ensemble(TimeGrid(1.0, 8), 1, 300, SEED)
    lat = BoxLattice.centered(1.0, 0.1)
    if name == "open-loop":
        # the last control on one path in three, the first on the rest:
        # both leave the box, in unequal numbers
        last = (np.arange(ens.n_paths) % 3 == 0) * (base.n_controls - 1)
        return co, ens, lat, ControlPolicy.open_loop(
            np.broadcast_to(last, (ens.grid.n_steps, ens.n_paths)))
    V = value_V(base, ens, lat, clamp_tol=1.0)
    # the greedy eikonal policy heads for the origin and never leaves
    pol = (ControlPolicy.constant(base.n_controls - 1)
           if name in ("constant", "eikonal") else ControlPolicy.feedback(V))
    return co, ens, lat, pol


CASES = ["random-target", "mollified", "priced", "eikonal", "constant",
         "open-loop"]


@pytest.mark.parametrize("name", CASES)
def test_policy_surface_matches_per_control_reference(name):
    # one read per point at its own control, bit for bit the per-control
    # loop
    co, ens, lat, pol = _policy_case(name)
    u = policy_cost_surface(co, ens, pol, lat)
    mean, se, slices, frac, exits = _policy_reference(co, ens, pol, lat)
    assert frac > 0.0
    assert u.diagnostics["clamp_fraction"] == frac
    assert np.array_equal(u.diagnostics["exits"], exits)
    assert np.array_equal(u.mean, np.stack([mean[k] for k in sorted(mean)]))
    for k in sorted(se):
        assert np.array_equal(u.se[k], se[k])
    for k in sorted(slices):
        assert np.array_equal(u.pathwise(k), slices[k])


@pytest.mark.parametrize("name", CASES)
def test_cost_majorant_drift_matches_per_control_reference(name):
    co, ens, lat, pol = _policy_case(name)
    u = policy_cost_surface(co, ens, pol, lat)
    base = scenario("eikonal" if name == "eikonal" else "random-target")
    bound = error_bound_bsde(error_processes(base, MollifiedSet(base, 4),
                                             ens, RADIUS), 1.0, ens)
    field = cost_majorant(u, bound, co, pol, ens)
    grid, dt = ens.grid, ens.grid.dt
    x = lat.points[:, None, :]
    for k in range(grid.n_steps):
        u_k = u.pathwise(k)
        w = None if co.deterministic else ens.slice_at(k)
        idx = pol.lattice_indices(k, lat, u_k.shape[1])
        grad = lat.gradient(u_k)[..., 0]
        adv = np.empty(idx.shape)
        for j in np.unique(idx):
            v = co.controls[j]
            vals = (co.beta(grid.knots[k], x, v, w)[..., 0] * grad
                    + co.f(grid.knots[k], x, v, w))
            adv[idx == j] = np.broadcast_to(vals, idx.shape)[idx == j]
        assert np.array_equal(field.drift[k], -np.broadcast_to(
            adv, (lat.n_points, ens.n_paths)) - bound.driver[k][None, :])
