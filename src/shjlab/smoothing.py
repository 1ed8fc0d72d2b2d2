"""Smoothing machinery for coefficient sets.

Three constructions live here:

* compactly supported bump kernel and discrete mollification of a
  coefficient set at integer level l (kernel support shrinks as 1/l);
* the convex linear-growth penalty obtained by mollifying the hinge
  distance to the unit ball;
* tensor-form approximants of a path-dependent terminal cost (sums of
  hat functions of the terminal Brownian value times mollified spatial
  profiles), fitted by least squares on sampled probes.

Discrete kernels are renormalized to unit mass after quadrature, so
mollification preserves constants and affine maps exactly and never
inflates a Lipschitz constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .coeffs import (DECLARED, CoefficientSet, _node_tables, _one_component,
                     probe_lattice, reach_radius)

__all__ = [
    "bump_kernel",
    "kernel_quadrature",
    "MollifiedSet",
    "linear_growth_penalty",
    "ApproximationErrors",
    "error_processes",
    "FunctionalApproximant",
    "fit_functional_approximant",
]


def _tanh_sinh(fn):
    """Integral of fn on (0, 1) by the tanh-sinh rule of Takahasi & Mori
    (Publ. RIMS 9, 1974): nodes (1 + tanh(pi/2 sinh t)) / 2 at t = k/40,
    |k| <= 160, weighted by dx/dt; nodes that round onto 0 or 1 (weights
    below 1e-33) are dropped.  ArithmeticError unless the rule at step
    1/20, the even k, agrees within 1e-13 relative."""
    k = np.arange(-160, 161)
    t = k * (1.0 / 40.0)
    u = 0.5 * np.pi * np.sinh(t)
    x = 0.5 * (1.0 + np.tanh(u))
    inside = (x > 0.0) & (x < 1.0)
    k, t, u, x = k[inside], t[inside], u[inside], x[inside]
    terms = 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2 * fn(x)
    fine = float(terms.sum()) / 40.0
    coarse = float(terms[k % 2 == 0].sum()) / 20.0
    if not abs(fine - coarse) <= 1e-13 * abs(fine):
        raise ArithmeticError(f"tanh-sinh rule did not converge: {fine!r} at "
                              f"step 1/40, {coarse!r} at step 1/20")
    return fine


@functools.cache
def _bump_normalizer():
    """1 / the bump's mass, twice the integral of exp(1/(x^2-1)) on (0, 1)."""
    return 1.0 / (2.0 * _tanh_sinh(lambda r: np.exp(1.0 / (r * r - 1.0))))


def bump_kernel(x):
    """Smooth unit bump rho(x), supported on (-1, 1).

    rho(x) = c exp(1/(x^2 - 1)) on the open interval, zero outside, with
    c fixed so that rho has unit mass.  x is (..., 1).
    """
    x = _one_component(np.atleast_2d(x))
    c = _bump_normalizer()
    r2 = np.sum(x * x, axis=-1)
    out = np.zeros(r2.shape)
    inside = r2 < 1.0
    out[inside] = c * np.exp(1.0 / (r2[inside] - 1.0))
    return out


def kernel_quadrature(level):
    """Discrete mollification kernel: nodes inside (-1/level, 1/level).

    The 17-point Gauss-Legendre rule, weighted by the bump and
    renormalized to unit mass.  Returns (nodes, weights) with
    nodes.shape == (q, 1).
    """
    xi, w = np.polynomial.legendre.leggauss(17)
    nodes = xi[:, None]
    r2 = np.sum(nodes * nodes, axis=-1)
    inside = r2 < 1.0
    nodes = nodes[inside]
    dens = np.exp(1.0 / (r2[inside] - 1.0))
    w = w[inside] * dens
    w = w / w.sum()
    return nodes / float(level), w


def _kernel_average(fn, x, nodes, weights):
    """sum_q w_q fn(x - y_q) for a map fn on (..., 1) points.

    fn sees every point of x minus every kernel node, a (q, ..., 1) array.
    """
    x = np.asarray(x, float)
    shifted = x[None, ...] - nodes.reshape((-1,) + (1,) * (x.ndim - 1)
                                           + (nodes.shape[1],))
    return np.tensordot(weights, np.asarray(fn(shifted)), axes=(0, 0))


class MollifiedSet:
    """Coefficient set with beta, f, G replaced by spatial mollifications.

    Drop-in replacement for the base CoefficientSet (same calling
    conventions, same declared constants); the kink-smoothing radius is
    1/level, and the kernel is kernel_quadrature's.
    """

    def __init__(self, base, level):
        if int(level) < 1:
            raise ValueError("mollification level must be >= 1")
        self.base = base
        self.nodes, self.weights = kernel_quadrature(int(level))
        for attr in DECLARED:
            setattr(self, attr, getattr(base, attr))

    def beta(self, t, x, v, w):
        return _kernel_average(lambda xs: self.base.beta(t, xs, v, w), x,
                               self.nodes, self.weights)

    def f(self, t, x, v, w):
        return _kernel_average(lambda xs: self.base.f(t, xs, v, w), x,
                               self.nodes, self.weights)

    def G(self, x, w):
        return _kernel_average(lambda xs: self.base.G(xs, w), x,
                               self.nodes, self.weights)


def linear_growth_penalty(x):
    """Convex penalty h and its gradient Dh.

    h(x) = integral of (|y| - 1)+ against the unit bump centered at x,
    discretized by kernel_quadrature's rule at level 1; it
    vanishes on a neighborhood of 0, grows like |x| - 1 far out (so
    h(x) > |x| - 2 everywhere), and |Dh| <= 1.

    Parameters
    ----------
    x : (..., 1) array of evaluation points.

    Returns
    -------
    h : (...) values, Dh : (..., 1) gradients.
    """
    x = _one_component(x)
    nodes, weights = kernel_quadrature(1)

    def hinge(y):
        return np.maximum(np.linalg.norm(y, axis=-1) - 1.0, 0.0)

    def hinge_gradient(y):
        # the unit vector y / |y| outside the unit ball, zero inside
        dist = np.linalg.norm(y, axis=-1)[..., None]
        return np.where(dist > 1.0, y / np.maximum(dist, 1.0), 0.0)

    return (_kernel_average(hinge, x, nodes, weights),
            _kernel_average(hinge_gradient, x, nodes, weights))


# ---------------------------------------------------------------------------
# sup-distance error processes


@dataclass
class ApproximationErrors:
    """Per-path adapted gaps between a base set and its approximation.

    dG has shape (n_paths,); df and dbeta have shape (n_steps, n_paths)
    and hold, for each knot, the supremum of the relevant coefficient
    gap over the probe lattice and the whole control grid.
    """

    dG: np.ndarray
    df: np.ndarray
    dbeta: np.ndarray

    def scale(self, gain):
        """L2 size ||dG|| + ||df + gain * dbeta|| used by error-bound ladders."""
        l2_G = float(np.sqrt(np.mean(self.dG**2)))
        mix = self.df + gain * self.dbeta
        l2_mix = float(np.sqrt(np.mean(np.mean(mix, axis=0) ** 2)))
        return l2_G + l2_mix


def error_processes(base, approx, ensemble, radius):
    """Probe-lattice sup distances between base and approximate coefficients.

    The running gaps take the supremum over the whole control grid.

    Parameters
    ----------
    base, approx : coefficient-set-like objects (approx is typically a
        MollifiedSet or FunctionalApproximant of base).
    ensemble : WienerEnsemble supplying the path argument and the grid.
    radius : radius of the probe_lattice.
    """
    grid = ensemble.grid
    probes = probe_lattice(radius)[:, None, :]
    n_steps, n_paths = grid.n_steps, ensemble.n_paths
    stochastic = not (base.deterministic and approx.deterministic)

    wT = ensemble.slice_at(grid.n_steps, terminal_ok=True) if stochastic else None
    gap = np.abs(np.asarray(approx.G(probes, wT)) - np.asarray(base.G(probes, wT)))
    dG = np.broadcast_to(gap.max(axis=0), (n_paths,)).copy()

    df = np.zeros((n_steps, n_paths))
    dbeta = np.zeros((n_steps, n_paths))
    for k in range(n_steps):
        w = ensemble.slice_at(k) if stochastic else None
        df[k], dbeta[k] = _running_gaps(base, approx, grid.knots[k], probes, w)

    return ApproximationErrors(dG=dG, df=df, dbeta=dbeta)


def _running_gaps(base, approx, t, probes, w):
    """Largest |approx - base| of f and of beta over the probes and controls.

    probes is (n_probes, 1, 1); beta and f have one value per node, so
    both gaps are scalars.
    """
    every = range(base.n_controls)
    b_beta, b_f = _node_tables(base, t, probes, w, every)
    a_beta, a_f = _node_tables(approx, t, probes, w, every)
    return np.abs(a_f - b_f).max(), np.abs(a_beta - b_beta).max()


# ---------------------------------------------------------------------------
# tensor-form approximants


@dataclass
class FunctionalApproximant:
    """A coefficient set whose terminal cost is a sum of (path factor) x
    (spatial profile).

    The terminal cost is separated as a sum of hat functions of the
    terminal Brownian value times spatial slices, each slice a mollified
    x-profile, so the spatial Lipschitz constant never exceeds the base
    one.  A deterministic G is the mollified set's.

    Only what is not already smooth gets smoothed: beta and f are affine
    in x and path-free (see coeffs), which the kernel average reproduces
    anyway, so they are the base set's lines; G goes through the
    mollified set.

    Solvers read it as they read a CoefficientSet: through its lines,
    its G and the declared constants.
    """

    base: CoefficientSet
    mollified: MollifiedSet
    w_grid: np.ndarray | None     # hat centers for the terminal separation
    slices: np.ndarray | None     # (n_terms, n_fine) spatial profiles
    x_fine: np.ndarray | None     # fine spatial grid carrying the slices
    achieved: dict = field(default_factory=dict)
    accuracy_ok: bool = True

    def __post_init__(self):
        for attr in DECLARED:
            setattr(self, attr, getattr(self.base, attr))

    def lines(self, t, w=None):
        """The base set's lines: beta and f are its maps."""
        return self.base.lines(t, w)

    def G(self, x, w):
        if self.w_grid is None:
            return self.mollified.G(x, w)
        x = np.asarray(x, float)
        s = w.terminal[:, 0]
        cell, frac = _uniform_cell(self.w_grid, s)
        lo = self._slice_eval(cell, x)
        hi = self._slice_eval(cell + 1, x)
        return (1.0 - frac) * lo + frac * hi

    def _slice_eval(self, term_idx, x):
        # linear interpolation of the stored profiles on the fine x grid
        cell, frac = _uniform_cell(self.x_fine, np.asarray(x, float)[..., 0])
        sl = self.slices
        return (1.0 - frac) * sl[term_idx, cell] + frac * sl[term_idx, cell + 1]

    def payoff_grid(self, x_vals, w_vals):
        """Terminal plane on a tensor grid: rows over x, columns over
        the terminal Brownian value.

        G read on a synthetic ensemble whose paths end at w_vals."""
        w_vals = np.asarray(w_vals, float)
        wT = _terminal_slice(w_vals)
        g = np.asarray(self.G(np.asarray(x_vals, float)[:, None, None], wT))
        return np.broadcast_to(g, (g.shape[0], w_vals.size))


def fit_functional_approximant(base, ensemble, eps_target=0.1, *, x_radius):
    """Fit a tensor-form approximant to a coefficient set.

    beta and f pass through, so only G has an error.  G is mollified
    at level ceil(1.5 lip_x / eps_target); a path-dependent G is separated
    by regressing per-path evaluations onto hat functions of the terminal
    Brownian value (at most 399 hat cells), least squares over sampled
    (path, x) probes.  The reported error is measured against the base G
    along the ensemble's paths, which the fit never sees, on a 41-point
    probe lattice.
    """
    grid = ensemble.grid
    level = max(1, int(np.ceil(1.5 * base.lip_x / eps_target)))
    moll = MollifiedSet(base, level)

    probes = probe_lattice(min(x_radius, reach_radius(base, 1.0, grid.T)),
                           41)[:, None, :]
    det_G = base.deterministic
    w_grid = slices = x_fine = None
    if not det_G:
        wT = ensemble.value_at(grid.n_steps)[:, 0]
        lo, hi = float(wT.min()) - 0.1, float(wT.max()) + 0.1
        # cell width sized so the path-direction increment stays below eps/2
        n_cells = int(np.ceil((hi - lo) * 2.0 * base.lip_x / eps_target))
        n_cells = int(np.clip(n_cells, 4, 399))
        w_grid = np.linspace(lo, hi, n_cells + 1)

        # fine spatial grid carrying the slices; step follows the kink scale
        h_fine = max(0.5 / level, 1e-3)
        x_fine = np.arange(-x_radius, x_radius + h_fine, h_fine)

        # probe the payoff at designer-chosen terminal values through a
        # synthetic one-step ensemble, so every hat cell is sampled
        s_fit = np.linspace(lo, hi, 4 * n_cells + 1)
        fit_T = _terminal_slice(s_fit)
        targets = np.asarray(moll.G(x_fine[:, None, None], fit_T)).T  # (n_fit, n_fine)
        design = _hat_design(w_grid, s_fit)
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        slices = coef  # (n_terms, n_fine)

    out = FunctionalApproximant(
        base=base, mollified=moll, w_grid=w_grid, slices=slices, x_fine=x_fine,
    )

    # achieved error against the *base* terminal cost, held-out material:
    # the fit itself only saw synthetic terminal values, never these paths
    wT = ensemble.slice_at(grid.n_steps, terminal_ok=True)
    gap = np.abs(np.asarray(out.G(probes, wT)) - np.asarray(base.G(probes, wT)))
    out.achieved = {"G_sup": float(gap.max()),
                    "G_l2": float(np.sqrt(np.mean(gap**2)))}
    out.accuracy_ok = bool(float(gap.max()) <= eps_target)
    return out


def _uniform_cell(axis, s):
    """Cell index and fraction of s on a uniform axis, clamped to its ends."""
    s = np.clip(np.asarray(s, float), axis[0], axis[-1])
    step = axis[1] - axis[0]
    cell = np.clip(((s - axis[0]) / step).astype(int), 0, axis.size - 2)
    return cell, (s - axis[cell]) / step


def _hat_design(w_grid, s):
    # s lies inside the grid, so the clamp in _uniform_cell is inactive
    cell, frac = _uniform_cell(w_grid, s)
    design = np.zeros((s.size, w_grid.size))
    rows = np.arange(s.size)
    design[rows, cell] = 1.0 - frac
    design[rows, cell + 1] = frac
    return design


def _terminal_slice(s):
    """Terminal slice of a one-step ensemble whose paths end at W_T = s.
    G reads only the terminal value, so the horizon is immaterial."""
    from .probspace import TimeGrid, WienerEnsemble

    inc = s.reshape(s.size, 1, 1).copy()
    synth = WienerEnsemble(TimeGrid(1.0, 1), s.size, 0, inc)
    return synth.slice_at(1, terminal_ok=True)
