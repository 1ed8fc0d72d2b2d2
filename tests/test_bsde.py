"""Backward least-squares solver, error bounds, and cost majorants."""

import numpy as np
import pytest

from shjlab.bsde import (BsdeSpec, cost_majorant, error_bound_bsde,
                         policy_cost_surface, solve_bsde)
from shjlab.coeffs import scenario
from shjlab.probspace import TimeGrid, sample_ensemble
from shjlab.smoothing import MollifiedSet, error_processes
from shjlab.valuefn import BoxLattice, ControlPolicy, value_V

SEED = 29
GRID = TimeGrid(1.0, 32)
Y0_EXACT = (5.0 / 3.0) * np.sqrt(2.0 / np.pi)   # E|W_1| + int_0^1 E|W_t| dt


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


def test_brownian_terminal_martingale():
    # Y_k ~ W_k and Z_k ~ 1: the covariation extraction sees unit
    # integrand through the projection centering
    ens = _ens()
    wT = ens.value_at(GRID.n_steps)[:, 0]
    sol = solve_bsde(BsdeSpec(ens, wT))
    gaps = sol.Y[:-1] - ens.values[:, :-1, 0].T
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
    # terminal |W_T|, driver |W_t|: y_0 = (5/3) sqrt(2/pi); the left
    # endpoint quadrature sits ~0.012 below at 32 steps
    ens = _ens(30_000)
    spec = BsdeSpec(ens, np.abs(ens.value_at(GRID.n_steps)[:, 0]),
                    lambda t, w: np.abs(w.current[:, 0]))
    sol = solve_bsde(spec)
    y0 = float(sol.Y[0].mean())
    assert abs(y0 - Y0_EXACT) < 0.02
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
        errors = error_processes(base, molly, ens)
        bound = error_bound_bsde(errors, gain, ens)
        assert bound.Y.min() > -1e-9          # nonnegative data
        norms.append(bound.sup_rms())
    np.testing.assert_allclose(norms[0] / norms[1], 2.0, rtol=1e-6)


def test_error_bound_rejects_foreign_grid():
    base = scenario("eikonal")
    errors = error_processes(base, MollifiedSet(base, 4), _ens(500))
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
    with pytest.raises(ValueError, match="different lattice"):
        policy_cost_surface(co, ens, ControlPolicy.feedback(V),
                            BoxLattice.centered(3.25, 0.05))
    del V.argmin[GRID.n_steps - 1]
    with pytest.raises(ValueError, match="no argmin table"):
        policy_cost_surface(co, ens, ControlPolicy.feedback(V), lat)


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
    errors = error_processes(base, molly, ens)
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
    errors = error_processes(base, molly, ens)
    bound = error_bound_bsde(errors, 1.0, ens)
    other = sample_ensemble(GRID, 1, 77, SEED + 1)
    with pytest.raises(ValueError):
        cost_majorant(u, bound, molly, pol, other)
