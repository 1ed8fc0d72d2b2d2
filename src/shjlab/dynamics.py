"""Euler integration of controlled random ODEs.

States follow dX = beta(t, X, theta_t) dt, path by path.  Restarting
the scheme from a stored knot state reproduces the original tail bit
for bit (the flow property of the explicit scheme), which is
what the audits below check, together with growth in the initial
condition and time-increment bounds.

A policy here is any object with
    indices_at(k, states) -> int or int array
    collapsed -> bool   (True when the choice never reads the path)
"""

from __future__ import annotations

import numpy as np

from .coeffs import _at_controls, _one_component
from .exceptions import IntegrationError

__all__ = ["StateTrajectoryBatch", "integrate", "flow_audit"]


class StateTrajectoryBatch:
    """Euler trajectories started from a batch of points.

    states maps recorded knot -> (n_starts, n_eff, d) array, where
    n_eff is 1 for collapsed (fully deterministic) runs and n_paths
    otherwise.  cost_at maps recorded knot -> running-cost integral
    accumulated from the starting knot to t_k.
    """

    __slots__ = ("grid", "states", "cost_at")

    def __init__(self, grid, states, cost_at):
        self.grid = grid
        self.states = states
        self.cost_at = cost_at

    @property
    def terminal(self):
        return self.states[self.grid.n_steps]

    @property
    def total_cost(self):
        return self.cost_at[self.grid.n_steps]


def integrate(coeffs, ensemble, policy, xi, *, k0=0, store_knots="all"):
    """Run the explicit Euler scheme from knot k0.

    Parameters
    ----------
    coeffs : coefficient set (possibly mollified / tensor-form).
    ensemble : WienerEnsemble driving coefficients and policy features.
    policy : control policy (see module docstring).
    xi : starting states; (1,), (n_starts, 1), or (n_starts, n_paths, 1)
        for pre-paired starts.
    store_knots : "all", or an iterable of knots to record (k0 and the
        horizon are always kept).

    Returns StateTrajectoryBatch.  Every step is checked: a non-finite
    state raises IntegrationError naming its knot.
    """
    grid = ensemble.grid
    n = grid.n_steps
    dt = grid.dt
    xi = _one_component(np.atleast_2d(xi))
    if xi.ndim == 2:
        xi = xi[:, None, :]

    collapsed = coeffs.deterministic and policy.collapsed and xi.shape[1] == 1
    n_eff = 1 if collapsed else ensemble.n_paths
    n_starts = xi.shape[0]
    X = np.broadcast_to(xi, (n_starts, n_eff, 1)).astype(float).copy()

    if store_knots == "all":
        keep = set(range(k0, n + 1))
    else:
        keep = set(int(j) for j in store_knots) | {k0, n}

    states = {}
    cost_at = {}
    cost = np.zeros((n_starts, n_eff))
    if k0 in keep:
        states[k0] = X.copy()
        cost_at[k0] = cost.copy()

    for k in range(k0, n):
        t = grid.knots[k]
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        idx = np.broadcast_to(
            np.asarray(policy.indices_at(k, X), int), cost.shape)
        beta, f = _at_controls(coeffs, t, X, w, idx)
        cost = cost + f * dt
        X = X + beta[..., None] * dt
        if not np.isfinite(X).all():
            raise IntegrationError(f"non-finite state at knot {k + 1}")
        if k + 1 in keep:
            states[k + 1] = X.copy()
            cost_at[k + 1] = cost.copy()

    return StateTrajectoryBatch(grid, states, cost_at)


def flow_audit(coeffs, ensemble, policy, xi, xi_hat=None):
    """Audit the Euler flow: restart identity, growth, increments, stability.

    Checks, with K = e^{LT}(1 + LT) and the declared L:
      restart    re-integrating from the stored state at knot n // 2
                 reproduces the stored tail bit for bit;
      growth     max_t |X_t| <= K (1 + |xi|);
      increment  |X_s - X_t| <= K (1 + |xi|) (s - t) on adjacent knots;
      stability  max_t |X_t - X_hat_t| <= e^{LT} |xi - xi_hat| when a
                 perturbed start xi_hat is supplied.

    Returns a report dict with observed ratios and a global ``passed``.
    """
    grid = ensemble.grid
    T = grid.T
    K = float(np.exp(coeffs.L * T) * (1.0 + coeffs.L * T))
    batch = integrate(coeffs, ensemble, policy, xi)
    restart_knot = grid.n_steps // 2

    rerun = integrate(coeffs, ensemble, policy,
                      batch.states[restart_knot], k0=restart_knot)
    # restart states enter as (n_starts, n_eff, d), matching the stored tail
    restart_exact = all(
        np.array_equal(rerun.states[k], batch.states[k])
        for k in range(restart_knot, grid.n_steps + 1)
    )

    xi_arr = np.asarray(xi, float).reshape(-1, 1)
    xi_norm = np.linalg.norm(xi_arr, axis=-1)  # (n_starts,)
    all_states = np.stack([batch.states[k] for k in range(grid.n_steps + 1)])
    norms = np.linalg.norm(all_states, axis=-1)  # (n_knots, n_starts, n_eff)
    growth_ratio = float((norms.max(axis=(0, 2)) / (K * (1.0 + xi_norm))).max())

    steps = np.linalg.norm(np.diff(all_states, axis=0), axis=-1)
    inc_ratio = float(
        (steps.max(axis=(0, 2)) / (K * (1.0 + xi_norm) * grid.dt)).max()
    )

    report = {
        "K": K,
        "restart_exact": bool(restart_exact),
        "growth_ratio": growth_ratio,
        "increment_ratio": inc_ratio,
    }
    if xi_hat is not None:
        other = integrate(coeffs, ensemble, policy, xi_hat)
        gap0 = np.linalg.norm(
            xi_arr - np.asarray(xi_hat, float).reshape(-1, 1), axis=-1)
        gaps = np.stack([
            np.linalg.norm(other.states[k] - batch.states[k], axis=-1).max(axis=-1)
            for k in range(grid.n_steps + 1)
        ])
        ratio = gaps.max(axis=0) / np.maximum(gap0, 1e-300)
        report["stability_ratio"] = float(ratio.max() / np.exp(coeffs.L * T))
    report["passed"] = bool(
        restart_exact and growth_ratio <= 1.0 and inc_ratio <= 1.0
        and report.get("stability_ratio", 0.0) <= 1.0
    )
    return report
