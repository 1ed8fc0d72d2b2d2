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

from .coeffs import (_at_controls, _node_tables, _table_rows,
                     _used_controls)
from .fields import AdaptedField
from .probspace import CondExpOperator, polynomial_basis
from .valuefn import _backward_sweep, _ControlImages, _sweep_knots

__all__ = [
    "BsdeSpec",
    "BsdeSolution",
    "backward_knots",
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
        Horizon value, measurable at the last knot; kept contiguous, as
        every knot the sweep projects is.
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
        self.terminal = np.ascontiguousarray(self.terminal, float)
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


def backward_knots(spec):
    """One backward least-squares sweep on degree-3 polynomials of the
    current Brownian value, holding one knot of Y at a time.

    Yields (k, Y_k, Z_k, g_k, rms regression residual) for k = n-1 down
    to 0; g_k is None for a zero driver, which is never evaluated.
    """
    ens = spec.ensemble
    dt = ens.grid.dt
    basis = polynomial_basis()
    ahead = spec.terminal
    for k in range(ens.grid.n_steps - 1, -1, -1):
        op = CondExpOperator(ens, k, basis)
        pY = op.apply(ahead)
        # centering by the projection leaves the covariation identity
        # intact and keeps Z exactly zero for deterministic integrands
        z = op.apply(((ahead - pY)[:, None] * ens.increments[:, k]).T).T / dt
        if spec.generator is None:   # no driver, projection or g dt term
            g, y, target = None, pY, ahead
        else:
            g = spec.driver_at(k)
            y, target = pY + dt * op.apply(g), ahead + g * dt
        yield k, y, z, g, float(np.sqrt(np.mean((target - y) ** 2)))
        del op          # its design goes before the next knot's is built
        ahead = y


def solve_bsde(spec):
    """Every knot of ``backward_knots(spec)``, collected into a
    BsdeSolution with per-knot regression residuals in diagnostics."""
    ens, n = spec.ensemble, spec.ensemble.grid.n_steps
    Y = np.empty((n + 1, ens.n_paths))
    Z = np.zeros((n, ens.n_paths, ens.m))
    driver = np.zeros((n, ens.n_paths))   # untouched pages for a zero driver
    resid = np.zeros(n + 1)
    Y[n] = spec.terminal
    for k, Y[k], Z[k], g, resid[k] in backward_knots(spec):
        if g is not None:
            driver[k] = g
    return BsdeSolution(ens.grid, Y, Z, driver, {"residual_rms": resid})


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
    default basis.  Its sweep is _sweep_knots with _policy_step, which
    _policy_cost_knots yields knot by knot for the ``jhat`` pipeline,
    holding one knot per ladder item.

    beta and f have one value per lattice node, so the Euler images of
    the nodes under the controls the policy uses are located once, and
    each point is read at its own control in one gather with interp's
    arithmetic; the clamp tally counts one read per point, and
    diagnostics["exits"] those outside the box per knot and control.

    Parameters
    ----------
    coeffs : coefficient set (typically a mollified or tensor-form one).
    ensemble : WienerEnsemble.
    policy : ControlPolicy; feedback policies are read at the lattice
        points themselves.
    lattice : BoxLattice.

    Returns a ValueSurface without argmin tables.
    """
    return _backward_sweep(coeffs, ensemble, lattice, "all", None,
                           _policy_step(coeffs, ensemble, policy, lattice))


def _policy_cost_knots(coeffs, ensemble, policy, lattice):
    """policy_cost_surface's sweep as _sweep_knots yields it, knot n first."""
    return _sweep_knots(coeffs, ensemble, lattice, None,
                        _policy_step(coeffs, ensemble, policy, lattice), {})


def _policy_step(coeffs, ensemble, policy, lattice):
    """The knot step of policy_cost_surface's sweep (see _sweep_knots)."""
    dt = ensemble.grid.dt
    n_eff = 1 if coeffs.deterministic else ensemble.n_paths
    x_eval = lattice.points[:, None, :]

    def step(k, t, w, op, V, exits):
        idx = policy.lattice_indices(k, lattice, n_eff)
        used, rank = _used_controls(idx, coeffs.n_controls)
        beta, fv = _node_tables(coeffs, t, x_eval, w, used)
        rows = _table_rows(rank, lattice.n_points)
        images = _ControlImages(lattice, dt, beta)
        raw = images.read(V, rows)
        out = np.take(images.outside, rows)
        exits[used] += np.bincount(rank[out], minlength=used.size)
        fv *= dt
        raw += np.take(fv, rows)
        return (raw if op is None else op.apply(raw)), raw, raw.size

    return step


def _majorant_knot(k, u_k, lattice, bound, coeffs, policy, ensemble):
    """Knot k of cost_majorant from the policy-cost slice u_k: the values
    u_k + Y_k and the drift -(beta . Du + f) at the policy's control
    minus the bound's driver, None at the horizon."""
    grid, n_paths = ensemble.grid, ensemble.n_paths
    values = np.broadcast_to(u_k, (lattice.n_points, n_paths)) \
        + bound.Y[k][None, :]
    if k == grid.n_steps:
        return values, None
    w = None if coeffs.deterministic else ensemble.slice_at(k)
    idx = policy.lattice_indices(k, lattice, u_k.shape[1])
    grad = lattice.gradient(u_k)
    adv, fv = _at_controls(coeffs, grid.knots[k], lattice.points[:, None, :],
                           w, idx)
    adv *= grad[..., 0]
    adv += fv
    return values, -np.broadcast_to(adv, (lattice.n_points, n_paths)) \
        - bound.driver[k][None, :]


def cost_majorant(surface, bound, coeffs, policy, ensemble):
    """Policy cost plus its error bound, with an analytic drift part.

    The drift density of the sum field is assembled from the recursion
    that produced each part: the cost surface contributes
    -(beta . Du + f) at the policy's control, the bound process
    contributes minus its own driver.  No noise integrand is attached;
    residual checks only need the drift and the spatial gradient.  Each
    point reads beta and f at its own control (coeffs._at_controls), bit
    for bit the per-control evaluation.  Each knot is _majorant_knot's,
    which the ``jhat`` pipeline calls as the sweep leaves the knot,
    holding one knot per ladder item.

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

    knots = {k: _majorant_knot(k, surface.pathwise(k), surface.lattice, bound,
                               coeffs, policy, ensemble)
             for k in sorted(surface.slices)}
    return AdaptedField(grid, surface.lattice,
                        {k: values for k, (values, _) in knots.items()},
                        {k: d for k, (_, d) in knots.items() if d is not None},
                        None)
