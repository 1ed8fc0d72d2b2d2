"""Smoothing machinery for coefficient sets.

Three constructions live here:

* compactly supported bump kernel and discrete mollification of a
  coefficient set at integer level l (kernel support shrinks as 1/l);
* the convex linear-growth penalty obtained by mollifying the hinge
  distance to the unit ball;
* piecewise tensor-form approximants of path-dependent coefficients
  (separable products of a path factor read at fixed knots and a
  spatial profile), fitted by least squares on sampled probes.

Discrete kernels are renormalized to unit mass after quadrature, so
mollification preserves constants and affine maps exactly and never
inflates a Lipschitz constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .coeffs import (DECLARED, CoefficientSet, _tensor_points, probe_lattice,
                     reach_radius)

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

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_NORMALIZER_CACHE = {}


def _bump_normalizer(d):
    """1 / integral of exp(1/(|x|^2-1)) over the unit ball, via radial quadrature."""
    if d not in _NORMALIZER_CACHE:
        if d not in _SPHERE_AREA:
            raise ValueError("bump kernel implemented for d in {1, 2, 3}")
        val, err = quad(
            lambda r: np.exp(1.0 / (r * r - 1.0)) * r ** (d - 1), 0.0, 1.0,
            epsabs=1e-14, epsrel=1e-13,
        )
        total = _SPHERE_AREA[d] * val
        if err > 1e-10 * total:
            raise ArithmeticError("bump normalization quadrature did not converge")
        _NORMALIZER_CACHE[d] = 1.0 / total
    return _NORMALIZER_CACHE[d]


def bump_kernel(x):
    """Smooth unit bump rho(x), supported on the open unit ball.

    rho(x) = c exp(1/(|x|^2 - 1)) on the open unit ball, zero outside,
    with c fixed so that rho has unit mass.
    """
    x = np.atleast_2d(np.asarray(x, float))
    d = x.shape[-1]
    c = _bump_normalizer(d)
    r2 = np.sum(x * x, axis=-1)
    out = np.zeros(r2.shape)
    inside = r2 < 1.0
    out[inside] = c * np.exp(1.0 / (r2[inside] - 1.0))
    return out


def kernel_quadrature(d, level=1):
    """Discrete mollification kernel: nodes on the ball of radius 1/level.

    A 17-point-per-axis tensor Gauss-Legendre rule, weighted by the bump
    and renormalized to unit mass.  Returns (nodes, weights) with
    nodes.shape == (q, d).
    """
    nodes, w = _gauss_legendre_box(d, 17)
    r2 = np.sum(nodes * nodes, axis=-1)
    inside = r2 < 1.0
    nodes = nodes[inside]
    dens = np.exp(1.0 / (r2[inside] - 1.0))
    w = w[inside] * dens
    w = w / w.sum()
    return nodes / float(level), w


def _gauss_legendre_box(d, n_nodes):
    """Tensor Gauss-Legendre rule on [-1, 1]^d: (nodes (q, d), weights (q,))."""
    xi, wi = np.polynomial.legendre.leggauss(n_nodes)
    w = np.ones(n_nodes**d)
    for axis_w in _tensor_points([wi] * d).T:
        w = w * axis_w
    return _tensor_points([xi] * d), w


def _kernel_average(fn, x, nodes, weights):
    """sum_q w_q fn(x - y_q) for a map fn on (..., d) points.

    fn sees every point of x minus every kernel node, a (q, ..., d) array.
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
        self.level = int(level)
        self.nodes, self.weights = kernel_quadrature(base.d, self.level)
        self.name = f"{base.name}|mollified l={self.level}"
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
    x : (..., d) array of evaluation points.

    Returns
    -------
    h : (...) values, Dh : (..., d) gradients.
    """
    x = np.asarray(x, float)
    if x.ndim == 1:
        x = x[:, None]
    nodes, weights = kernel_quadrature(x.shape[-1], 1)

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


def error_processes(base, approx, ensemble, radius=None):
    """Probe-lattice sup distances between base and approximate coefficients.

    The running gaps take the supremum over the whole control grid.

    Parameters
    ----------
    base, approx : coefficient-set-like objects (approx is typically a
        MollifiedSet or FunctionalApproximant of base).
    ensemble : WienerEnsemble supplying the path argument and the grid.
    radius : radius of the default probe_lattice; defaults to the
        reachable-set radius from |x0| <= 1.
    """
    grid = ensemble.grid
    if radius is None:
        radius = reach_radius(base, 1.0, grid.T)
    probes = probe_lattice(radius, base.d)[:, None, :]
    n_steps, n_paths = grid.n_steps, ensemble.n_paths
    stochastic = not (base.deterministic and approx.deterministic)

    wT = ensemble.slice_at(grid.n_steps, terminal_ok=True) if stochastic else None
    gap = np.abs(np.asarray(approx.G(probes, wT)) - np.asarray(base.G(probes, wT)))
    dG = np.broadcast_to(gap.max(axis=0), (n_paths,)).copy()

    df = np.zeros((n_steps, n_paths))
    dbeta = np.zeros((n_steps, n_paths))
    for k in range(n_steps):
        w = ensemble.slice_at(k) if stochastic else None
        df[k], dbeta[k] = _running_gaps(base, approx, grid.knots[k], probes,
                                        base.controls, w)

    return ApproximationErrors(dG=dG, df=df, dbeta=dbeta)


def _running_gaps(base, approx, t, probes, controls, w):
    """Largest |approx - base| of f and of beta over the probes and controls.

    probes is (n_probes, 1, d); both gaps come back per path, (n_eff,).
    """
    df = dbeta = 0.0
    for v in controls:
        df = np.maximum(df, np.abs(
            np.asarray(approx.f(t, probes, v, w)) - np.asarray(base.f(t, probes, v, w))
        ).max(axis=0))
        dbeta = np.maximum(dbeta, np.abs(
            np.asarray(approx.beta(t, probes, v, w)) - np.asarray(base.beta(t, probes, v, w))
        ).max(axis=(0, -1)))
    return df, dbeta


# ---------------------------------------------------------------------------
# piecewise tensor-form approximants


@dataclass
class FunctionalApproximant:
    """Coefficients rewritten as sums of (path factor) x (spatial profile).

    The time axis is cut at functional knots; on each piece the running
    coefficients read path history no later than the piece's left knot
    (here: built-in running coefficients are path-free, so the delayed
    read is exact).  The terminal cost is separated as a sum of hat
    functions of the terminal Brownian value times spatial slices, each
    slice a mollified x-profile, so the spatial Lipschitz constant never
    exceeds the base one.

    Only what is not already smooth gets smoothed: running coefficients
    the base set declares affine (CoefficientSet.affine) are returned
    unchanged, since the kernel average reproduces them anyway; the
    others and G go through the mollified set.

    Duck-typed as a coefficient set: beta, f, G plus the declared
    constants, so solvers take it wherever they take a CoefficientSet.
    """

    base: CoefficientSet
    mollified: MollifiedSet
    fn_knots: np.ndarray          # functional knot times, len n_intervals + 1
    eps_target: float
    w_grid: np.ndarray | None     # hat centers for the terminal separation
    slices: np.ndarray | None     # (n_terms, n_fine) spatial profiles
    x_fine: np.ndarray | None     # fine spatial grid carrying the slices
    achieved: dict = field(default_factory=dict)
    accuracy_ok: bool = True

    def __post_init__(self):
        for attr in DECLARED:
            setattr(self, attr, getattr(self.base, attr))
        self.name = f"{self.base.name}|tensor eps={self.eps_target:g}"

    def beta(self, t, x, v, w):
        if "beta" in self.base.affine:
            return self.base.beta(t, x, v, w)
        return self.mollified.beta(t, x, v, w)

    def f(self, t, x, v, w):
        if "f" in self.base.affine:
            return self.base.f(t, x, v, w)
        return self.mollified.f(t, x, v, w)

    def G(self, x, w):
        if self.w_grid is None:
            return self.mollified.G(x, w)
        x = np.asarray(x, float)
        s = w.at(self.fn_knots[-1])[:, 0]
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
        the terminal Brownian value (d = m = 1 only).

        G read on a synthetic ensemble whose paths end at w_vals."""
        w_vals = np.asarray(w_vals, float)
        wT = _terminal_slice(self.fn_knots[-1], 1, w_vals)
        g = np.asarray(self.G(np.asarray(x_vals, float)[:, None, None], wT))
        return np.broadcast_to(g, (g.shape[0], w_vals.size))


def fit_functional_approximant(base, ensemble, n_intervals=4, eps_target=0.1, *,
                               x_radius=None):
    """Fit a piecewise tensor-form approximant to a coefficient set.

    The spatial side is mollified at level ceil(1.5 lip_x / eps_target);
    a path-dependent terminal cost is separated by regressing per-path
    evaluations onto hat functions of the terminal Brownian value (at
    most 399 hat cells), least squares over sampled (path, x) probes.
    The reported error is measured against the base coefficients along
    the ensemble's paths, which the fit never sees, on a 41-point probe
    lattice per axis.

    Raises ValueError for a path-dependent set with d != 1, since the
    terminal separation is one-dimensional, and for running coefficients
    that read the path: beta or f differing between the path slices at
    the first and last running knot, on the probes, reject the set.
    """
    if n_intervals < 4:
        raise ValueError("need more than 3 time pieces")
    grid = ensemble.grid
    if grid.n_steps % n_intervals:
        raise ValueError("n_intervals must divide n_steps so pieces end on knots")
    if base.d != 1 and not base.deterministic:
        raise ValueError("path-dependent separation implemented for d=1")
    fn_knots = grid.knots[:: grid.n_steps // n_intervals]

    level = max(1, int(np.ceil(1.5 * base.lip_x / eps_target)))
    moll = MollifiedSet(base, level)

    if x_radius is None:
        x_radius = reach_radius(base, 1.0, grid.T, margin=1.0)
    probes = probe_lattice(min(x_radius, reach_radius(base, 1.0, grid.T)),
                           base.d, 41)[:, None, :]
    if not base.deterministic:
        first, last = ensemble.slice_at(0), ensemble.slice_at(grid.n_steps - 1)
        for v in base.controls:
            for name in ("beta", "f"):
                fn = getattr(base, name)
                if not np.array_equal(*np.broadcast_arrays(
                        fn(0.0, probes, v, first), fn(0.0, probes, v, last))):
                    raise ValueError(f"running coefficient {name} reads the "
                                     f"path; the tensor form needs it path-free")

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
        fit_T = _terminal_slice(grid.T, ensemble.m, s_fit)
        targets = np.asarray(moll.G(x_fine[:, None, None], fit_T)).T  # (n_fit, n_fine)
        design = _hat_design(w_grid, s_fit)
        coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
        slices = coef  # (n_terms, n_fine)

    out = FunctionalApproximant(
        base=base, mollified=moll, fn_knots=fn_knots, eps_target=float(eps_target),
        w_grid=w_grid, slices=slices, x_fine=x_fine,
    )

    # achieved error against the *base* coefficients, held-out material:
    # the fit itself only saw synthetic terminal values, never these paths
    wT = ensemble.slice_at(grid.n_steps, terminal_ok=True)
    gap = np.abs(np.asarray(out.G(probes, wT)) - np.asarray(base.G(probes, wT)))
    sup_f = sup_b = 0.0
    for tk in fn_knots[:-1]:
        w = None if base.deterministic else ensemble.slice_at(grid.index_of(tk))
        df, dbeta = _running_gaps(base, out, tk, probes,
                                  base.controls[:: max(1, base.n_controls // 7)], w)
        sup_f = max(sup_f, float(df.max()))
        sup_b = max(sup_b, float(dbeta.max()))
    out.achieved = {"G_sup": float(gap.max()),
                    "G_l2": float(np.sqrt(np.mean(gap**2))),
                    "f_sup": sup_f, "beta_sup": sup_b}
    out.accuracy_ok = bool(max(float(gap.max()), sup_f, sup_b) <= eps_target)
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


def _terminal_slice(T, m, s):
    """Terminal slice of a one-step ensemble whose paths end at W_T^0 = s."""
    from .probspace import TimeGrid, WienerEnsemble

    inc = np.zeros((s.size, 1, m))
    inc[:, 0, 0] = s
    synth = WienerEnsemble(TimeGrid(T, 1), m, s.size, 0, inc)
    return synth.slice_at(1, terminal_ok=True)
