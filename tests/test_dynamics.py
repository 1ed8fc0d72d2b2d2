"""Euler integration of the controlled state and its flow audits."""

import numpy as np

from shjlab.coeffs import scenario
from shjlab.dynamics import flow_audit, integrate
from shjlab.probspace import TimeGrid, sample_ensemble
from shjlab.valuefn import ControlPolicy

SEED = 23
GRID = TimeGrid(1.0, 16)


def _ens(n_paths=200, seed=SEED, m=1):
    return sample_ensemble(GRID, m, n_paths, seed)


def test_zero_drift_keeps_state():
    co = scenario("zeros")
    batch = integrate(co, _ens(), ControlPolicy.constant(0),
                      np.array([[0.7], [-1.1]]))
    for k in (0, 8, 16):
        np.testing.assert_allclose(batch.states[k][..., 0],
                                   [[0.7], [-1.1]], atol=0.0)
    assert batch.cost_at[16].max() == 0.0
    assert batch.terminal.shape[1] == 1  # deterministic problem collapses paths


def test_constant_control_linear_motion():
    co = scenario("eikonal")
    v_idx = co.n_controls - 1            # v = +1
    batch = integrate(co, _ens(), ControlPolicy.constant(v_idx),
                      np.array([[0.0]]))
    for k in (4, 8, 16):
        np.testing.assert_allclose(batch.states[k][0, 0, 0], GRID.knots[k],
                                   atol=1e-14)


def test_running_cost_accumulates_exactly():
    co = scenario("constant-run-cost")
    batch = integrate(co, _ens(), ControlPolicy.constant(0),
                      np.array([[0.0]]))
    # f = 1: left-endpoint quadrature is exact for a constant
    np.testing.assert_allclose(batch.cost_at[16][0, 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(batch.cost_at[8][0, 0], 0.5, atol=1e-14)


def test_linear_drift_matches_recursion_oracle():
    co = scenario("linear-drift")
    pull, v = 0.5, float(co.controls[-1, 0])
    batch = integrate(co, _ens(), ControlPolicy.constant(co.n_controls - 1),
                      np.array([[2.0]]))
    x = 2.0
    for k in range(GRID.n_steps):
        x = x + (-pull * x + v) * GRID.dt
    np.testing.assert_allclose(batch.states[16][0, 0, 0], x, atol=1e-13)


def test_open_loop_policy_is_per_path():
    co = scenario("random-target")
    ens = _ens(50)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, co.n_controls, size=(GRID.n_steps, 50))
    batch = integrate(co, ens, ControlPolicy.open_loop(idx),
                      np.zeros((1, 1)))
    v = co.controls[idx[:, :], 0]              # (n_steps, n_paths)
    np.testing.assert_allclose(batch.states[16][0, :, 0],
                               v.sum(axis=0) * GRID.dt, atol=1e-12)


def test_flow_audit_restart_and_bounds():
    co = scenario("linear-drift")
    ens = _ens(500)
    xi = np.linspace(-2, 2, 11)[:, None]
    report = flow_audit(co, ens, ControlPolicy.constant(3), xi,
                        xi_hat=xi + 0.37)
    assert report["restart_exact"]
    assert report["growth_ratio"] <= 1.0
    assert report["increment_ratio"] <= 1.0
    assert report["stability_ratio"] <= 1.0
    assert report["passed"]


def test_flow_audit_stochastic_policy_restart():
    co = scenario("random-target")
    ens = _ens(300)
    rng = np.random.default_rng(1)
    idx = rng.integers(0, co.n_controls, size=(GRID.n_steps, 300))
    report = flow_audit(co, ens, ControlPolicy.open_loop(idx),
                        np.array([[0.5]]))
    assert report["restart_exact"]
    assert report["passed"]


def test_store_knots_subset():
    co = scenario("zeros")
    batch = integrate(co, _ens(), ControlPolicy.constant(0),
                      np.zeros((1, 1)), store_knots=[4, 8])
    assert set(batch.states) == {0, 4, 8, 16}
