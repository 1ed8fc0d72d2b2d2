"""Least-squares Monte-Carlo backward SDE solver and cost majorants.

All drivers in scope read only the path prefix, never (Y, Z), so one
backward sweep suffices:

    Y_k = E_k[ Y_{k+1} + g(t_k) dt ],     Z_k = E_k[ Y_{k+1} dW_k ] / dt,

with the conditional expectations realized as cross-path projections.
On top of the solver sit the approximation-error bound process, the
fixed-policy cost surface, and their sum: a field that dominates the
exact cost and satisfies the supersolution-side residual inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coeffs import _policy_sweep
from .fields import AdaptedField
from .probspace import CondExpOperator, polynomial_basis
from .valuefn import _backward_sweep

__all__ = [
    "BsdeSpec",
    "BsdeSolution",
    "solve_bsde",
    "error_bound_bsde",
    "policy_cost_surface",
    "cost_majorant",
]


@dataclass
class BsdeSpec:
    """Terminal condition plus driver on a fixed ensemble.

    Parameters
    ----------
    ensemble : WienerEnsemble
        Carries the filtration, the regression features, and the
        increments used for the Z extraction.
    terminal : (n_paths,) array
        Horizon value, measurable at the last knot.
    generator : None, callable, or array
        Driver g.  A callable receives (t, path_slice) and returns a
        scalar or (n_paths,) array; an array is (n_steps,) or
        (n_steps, n_paths) of pre-evaluated driver values; None means
        zero driver.
    """

    ensemble: object
    terminal: np.ndarray
    generator: object = None

    def __post_init__(self):
        self.terminal = np.asarray(self.terminal, float)
        if self.terminal.shape != (self.ensemble.n_paths,):
            raise ValueError(
                f"terminal must have shape ({self.ensemble.n_paths},)"
            )
        if not np.all(np.isfinite(self.terminal)):
            raise ValueError("terminal condition must be finite")

    def driver_at(self, k):
        """Driver values at knot k, broadcast to (n_paths,)."""
        n_paths = self.ensemble.n_paths
        if self.generator is None:
            return np.zeros(n_paths)
        if callable(self.generator):
            t = self.ensemble.grid.knots[k]
            g = np.asarray(self.generator(t, self.ensemble.slice_at(k)), float)
        else:
            g = np.asarray(self.generator, float)[k]
        return np.broadcast_to(g, (n_paths,))


@dataclass
class BsdeSolution:
    """Backward solution samples.

    Y has a row per knot (terminal row equals the terminal condition
    bit-exactly); Z rows exist at knots 0..n-1.  driver keeps the
    evaluated generator so downstream drift assembly reuses it.
    """

    grid: object
    Y: np.ndarray            # (n_steps + 1, n_paths)
    Z: np.ndarray            # (n_steps, n_paths, m)
    driver: np.ndarray       # (n_steps, n_paths)
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_paths(self):
        return self.Y.shape[1]

    def sup_rms(self):
        """max_k sqrt(E Y_k^2); the ladder norm for the error bounds."""
        return float(np.max(np.sqrt(np.mean(self.Y**2, axis=1))))


def solve_bsde(spec):
    """One backward least-squares sweep on degree-3 polynomials of the
    current Brownian value.

    Parameters
    ----------
    spec : BsdeSpec

    Returns
    -------
    BsdeSolution with per-knot regression residuals in diagnostics.
    """
    ens = spec.ensemble
    grid = ens.grid
    n, dt = grid.n_steps, grid.dt
    basis = polynomial_basis()

    Y = np.empty((n + 1, ens.n_paths))
    Z = np.zeros((n, ens.n_paths, ens.m))
    driver = np.zeros((n, ens.n_paths))   # untouched pages for a zero driver
    resid = np.zeros(n + 1)

    Y[n] = spec.terminal
    for k in range(n - 1, -1, -1):
        g = spec.driver_at(k)
        if spec.generator is not None:
            driver[k] = g
        op = CondExpOperator(ens, k, basis)
        pY = op.apply(Y[k + 1])
        # generator None projects to zero: skip that apply
        Y[k] = pY if spec.generator is None else pY + dt * op.apply(g)
        # centering by the projection leaves the covariation identity
        # intact and keeps Z exactly zero for deterministic integrands
        dW = ens.increments[:, k, :]
        Z[k] = op.apply(((Y[k + 1] - pY)[:, None] * dW).T).T / dt
        resid[k] = float(np.sqrt(np.mean((Y[k + 1] + g * dt - Y[k]) ** 2)))

    return BsdeSolution(grid, Y, Z, driver, {"residual_rms": resid})


def error_bound_bsde(errors, gain, ensemble):
    """Bound process for a coefficient approximation.

    Terminal condition is the terminal-cost gap; the driver is the
    running gap plus ``gain`` times the drift gap, the gain being the
    Lipschitz constant the gradient argument consumes.  All data are
    nonnegative, so Y dominates zero up to regression noise.
    """
    if errors.df.shape[0] != ensemble.grid.n_steps:
        raise ValueError("error processes were built on a different grid")
    return solve_bsde(BsdeSpec(ensemble, errors.dG,
                               errors.df + float(gain) * errors.dbeta))


def policy_cost_surface(coeffs, ensemble, policy, lattice):
    """Cost-to-go of a fixed policy on a lattice, by backward recursion.

    Same sweep as the value recursion with the minimization replaced by
    the policy's control choice, so the result is the conditional cost
    field u(s, x) of that policy under ``coeffs``.  Pathwise slices are
    kept at every knot, and the projections use the value recursion's
    default basis.

    Parameters
    ----------
    coeffs : coefficient set (typically a mollified or tensor-form one).
    ensemble : WienerEnsemble.
    policy : ControlPolicy; feedback policies are read at the lattice
        points themselves.
    lattice : BoxLattice.

    Returns a ValueSurface without argmin tables.
    """
    dt = ensemble.grid.dt
    n_eff = 1 if coeffs.deterministic else ensemble.n_paths
    x_eval = lattice.points[:, None, :]

    def step(k, t, w, op, continuation):
        idx = policy.lattice_indices(k, lattice, n_eff)
        raw, = _policy_sweep(
            coeffs, t, x_eval, w, idx,
            lambda b, fv: (fv * dt + continuation(x_eval + dt * b),),
            [idx.shape])
        return (raw if op is None else op.apply(raw)), raw

    return _backward_sweep(coeffs, ensemble, lattice, "all", None, step)


def cost_majorant(surface, bound, coeffs, policy, ensemble):
    """Policy cost plus its error bound, with an analytic drift part.

    The drift density of the sum field is assembled from the recursion
    that produced each part: the cost surface contributes
    -(beta . Du + f) at the policy's control, the bound process
    contributes minus its own driver.  No noise integrand is attached;
    residual checks only need the drift and the spatial gradient.

    Parameters
    ----------
    surface : ValueSurface from policy_cost_surface (pathwise slices at
        every knot of ``bound``'s grid that the field should carry).
    bound : BsdeSolution from error_bound_bsde on the same grid.
    coeffs : the coefficient set the surface was recursed under.
    policy : the same policy.
    ensemble : the shared ensemble.

    Returns an AdaptedField sampled wherever the surface kept slices.
    """
    grid = ensemble.grid
    if surface.grid != grid or bound.grid != grid:
        raise ValueError("surface, bound and ensemble grids differ")
    if bound.n_paths != ensemble.n_paths:
        raise ValueError("bound was solved on a different path count")

    lattice = surface.lattice
    n_paths = ensemble.n_paths
    x_eval = lattice.points[:, None, :]
    values = {}
    drift = {}
    for k in sorted(surface.slices):
        u_k = surface.pathwise(k)
        values[k] = np.broadcast_to(u_k, (lattice.n_points, n_paths)) \
            + bound.Y[k][None, :]
        if k == grid.n_steps:
            continue
        t = grid.knots[k]
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        idx = policy.lattice_indices(k, lattice, u_k.shape[1])
        grad = lattice.gradient(u_k)
        adv, = _policy_sweep(
            coeffs, t, x_eval, w, idx,
            lambda b, fv: (np.sum(np.broadcast_to(b, grad.shape) * grad,
                                  axis=-1) + fv,),
            [idx.shape])
        drift[k] = -np.broadcast_to(adv, (lattice.n_points, n_paths)) \
            - bound.driver[k][None, :]
    return AdaptedField(grid, lattice, values, drift, None)
