"""Hamiltonian, decomposition estimation, residual checks, envelopes.

The one-sided solution tests work on sampled fields: attach (or
estimate) a drift density, form the pointwise residual

    R(t, x) = - drift - min_v [ beta(t,x,v) . Du(t,x) + f(t,x,v) ],

and ask for a sign at every probe, with tolerance for Monte-Carlo
noise and finite differences.  The envelope construction squeezes the
value function between two such fields built from a perturbed value
surface plus nonnegative correction processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSpec, error_bound_bsde, solve_bsde
from .coeffs import _argmin_sweep, _policy_sweep
from .exceptions import AccuracyError
from .fields import AdaptedField
from .probspace import _path_mean_se, polynomial_basis
from .smoothing import _uniform_cell, error_processes
from .valuefn import value_V

__all__ = [
    "hamiltonian",
    "estimate_decomposition",
    "residual_check",
    "EnvelopePair",
    "build_envelopes",
    "sandwich_report",
    "HjbFdSolution",
    "solve_hjb_fd_1d",
]


# Two control scores closer than this, relative to the size of the
# terms behind them, count as tied: 4096 ulps, far above the roundoff of
# a kernel average.  The absolute floor covers underflow.
_TIE_RTOL = 2.0 ** -40
_TIE_ATOL = 2.0 ** -1062


def hamiltonian(coeffs, t, x, p, w=None):
    """Minimum of beta . p + f over the control grid.

    Parameters
    ----------
    coeffs : coefficient set.
    t : float
    x, p : arrays broadcastable to a common (..., 1) shape.
    w : PathSlice or None for path-dependent coefficients.

    Returns
    -------
    (value, argmin) with the leading (...) shape; ties keep the lowest
    control index.

    A set that declares control_separable takes the envelope path: each
    point's control is looked up on the lower envelope of the lines
    c(v) p + g(v) and scored there alone.  Points within a rounding bound
    of a tie (p = 0 on the eikonal grid, say) are re-scored by the full
    sweep, with the coefficients evaluated on the whole x as the sweep
    does, so values and argmins equal the sweep's bit for bit.  Every
    other set runs the sweep over all controls.
    """
    x = np.asarray(x, float)
    p = np.asarray(p, float)
    if not coeffs.control_separable:
        best, best_idx, _ = _argmin_sweep(coeffs, t, x, w, _score(p))
        return best, best_idx

    shape = np.broadcast_shapes(x.shape, p.shape)
    q = np.broadcast_to(p, shape)[..., 0]
    breaks, pick, slope_gap, offset_gap, c_size, g_size = \
        _control_lines(coeffs, t, w)
    # the smallest index type keeps the lookup out of the peak memory
    seg = np.searchsorted(breaks, q).astype(np.min_scalar_type(breaks.size))
    idx = np.asarray(pick[seg])
    pick_score = _score(p)
    size = [0.0, 0.0]                 # largest |beta|, |f| at the picks

    def scored(b, fv):
        size[0] = max(size[0], b.max(initial=0.0), -b.min(initial=0.0))
        size[1] = max(size[1], fv.max(initial=0.0), -fv.min(initial=0.0))
        return pick_score(b, fv)

    value, = _policy_sweep(coeffs, t, x, w, idx, scored, [q.shape])
    gap = slope_gap[seg] * q + offset_gap[seg]   # runner-up minus pick
    # scores differ from their exact lines by roundoff of this size
    bound = _TIE_RTOL * ((size[0] + c_size) * np.abs(q)
                         + size[1] + g_size) + _TIE_ATOL
    tied = ~(gap > bound)
    del gap, bound, seg               # out of the way of the re-scoring
    if tied.any():
        at = np.nonzero(tied)      # index arrays gather without a mask scan
        at_score = _score(np.broadcast_to(p, shape)[at])

        def tie_score(b, fv):
            return at_score(np.broadcast_to(b, shape)[at],
                            np.broadcast_to(fv, q.shape)[at])

        value[at], idx[at], _ = _argmin_sweep(coeffs, t, x, w, tie_score)
    return value, idx


def _score(p):
    """Score of one control in the sweeps: beta . p + f."""
    def score(b, fv):
        return (np.sum(np.broadcast_to(b, np.broadcast_shapes(b.shape, p.shape))
                       * p, axis=-1) + fv,)
    return score


def _control_lines(coeffs, t, w):
    """Lines c_j p + g_j of a control-separable set, as lookup tables.

    c and g are read off at x = 0 relative to control 0, once per set.
    Between consecutive entries of breaks no two of the lowest lines
    cross: on interval i (np.searchsorted order) pick[i] is the lowest
    line, ties to the lowest index, and the next one lies
    slope_gap[i] p + offset_gap[i] above it (+inf for a single control).
    c_size and g_size bound the scale of the read-off errors.  Any call's
    (t, w) gives a valid table, so threads that fill the cache at once
    are harmless.
    """
    cached = getattr(coeffs, "_control_lines", None)
    if cached is not None:
        return cached
    x0 = np.zeros((1, 1, 1))
    b = np.array([np.ravel(coeffs.beta(t, x0, v, w))[0] for v in coeffs.controls])
    f = np.array([np.ravel(coeffs.f(t, x0, v, w))[0] for v in coeffs.controls])
    # a virtual line at +inf is the runner-up of a single control
    c = np.append(b - b[0], 0.0)
    g = np.append(f - f[0], np.inf)
    i, j = np.triu_indices(coeffs.n_controls, 1)
    slope = c[i] - c[j]
    crossing = slope != 0.0
    breaks = np.unique((g[j] - g[i])[crossing] / slope[crossing])
    # one probe inside every interval, the two unbounded ones included
    reach = 1.0 + np.abs(breaks).max(initial=0.0)
    probes = np.concatenate([breaks[:1] - reach,
                             0.5 * (breaks[:-1] + breaks[1:]),
                             breaks[-1:] + reach]) if breaks.size else np.zeros(1)
    order = np.argsort(c * probes[:, None] + g, axis=1, kind="stable")
    pick, rival = order[:, 0], order[:, 1]
    # merge neighbouring intervals with the same two lowest lines
    keep = np.concatenate([[True], (pick[1:] != pick[:-1])
                           | (rival[1:] != rival[:-1])])
    pick, rival = pick[keep], rival[keep]
    lines = (breaks[keep[1:]], pick, c[rival] - c[pick], g[rival] - g[pick],
             np.abs(b).max() + np.abs(c[:-1]).max(),
             np.abs(f).max() + np.abs(g[:-1]).max())
    coeffs._control_lines = lines
    return lines


def estimate_decomposition(afield, ensemble):
    """Fit drift and noise integrands to a sampled field.

    Per knot pair (k, k+1) and lattice point, the cross-path increment
    is regressed on degree-2 polynomials of the current Brownian value
    times (dt, dW_k); the fitted combinations evaluated along each path
    become the drift and noise samples.  Each regression column needs
    10 paths.

    Parameters
    ----------
    afield : AdaptedField sampled on consecutive knots.
    ensemble : the ensemble the field was sampled on.

    Returns a new AdaptedField carrying the estimated decomposition;
    diagnostics hold per-knot coefficient tables, their standard
    errors, and residual norms.
    """
    ks = afield.knots
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError("decomposition needs consecutive sampled knots")
    basis = polynomial_basis(2)
    grid = afield.grid
    dt = grid.dt
    n_paths = ensemble.n_paths

    drift = {}
    noise = {}
    coef_tab = {}
    se_tab = {}
    resid_rms = {}
    for k in ks[:-1]:
        phi = basis.design(ensemble, k)                # (n_paths, F)
        n_cols = phi.shape[1] * 2
        if n_paths < 10 * n_cols:
            raise ValueError(
                f"{n_paths} paths cannot support {n_cols} regression columns"
            )
        dW = ensemble.increments[:, k, :]              # (n_paths, 1)
        design = np.hstack([phi * dt, phi * dW])
        du = (afield.at(k + 1) - afield.at(k)).T       # (n_paths, n_points)
        coef, *_ = np.linalg.lstsq(design, du, rcond=None)
        fit = design @ coef
        resid = du - fit
        resid_rms[k] = float(np.sqrt(np.mean(resid**2)))
        F = phi.shape[1]
        drift[k] = (phi @ coef[:F]).T
        noise[k] = (phi @ coef[F:]).T[..., None]
        coef_tab[k] = coef
        # per-column standard errors from the shared normal matrix
        gram_inv = np.linalg.pinv(design.T @ design)
        dof = max(n_paths - n_cols, 1)
        sigma2 = np.sum(resid**2, axis=0) / dof
        se_tab[k] = np.sqrt(np.outer(np.diag(gram_inv), sigma2))

    diagnostics = dict(afield.diagnostics)
    diagnostics.update({
        "residual_rms": resid_rms,
        "coef": coef_tab,
        "coef_se": se_tab,
    })
    return AdaptedField(grid, afield.lattice, dict(afield.values), drift,
                        noise, diagnostics=diagnostics)


def residual_check(afield, coeffs, ensemble, side="super", *, tol=0.02):
    """One-sided residual report for a field with a drift part.

    The residual is probed at every knot where the field carries a
    drift.  side = "super" passes when every probe satisfies
    mean R >= -(tol + 3 SE); side = "sub" symmetrically from above.
    The terminal samples are compared against the exact terminal cost
    (>= for super, <= for sub, slack 1e-9).

    Returns a report dict: the probe means and standard errors per knot,
    the residual margin (the worst probe statistic, signed so that
    super passes at >= -tol and sub at <= tol), the terminal margin, and
    `passed`, which combines the residual sign and the terminal
    comparison.
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    if afield.drift is None:
        raise ValueError("field carries no drift part; estimate one first")
    grid = afield.grid
    n = grid.n_steps
    knots = [k for k in afield.knots if k in afield.drift]
    # "sub" is "super" for -R: with s = -1 every statistic below is the
    # negation of its sub-side value, which is exact in floating point
    s = 1.0 if side == "super" else -1.0

    x_pts = afield.lattice.points
    probe_mean = {}
    probe_se = {}
    stats = []
    for k in knots:
        t = grid.knots[k]
        w = ensemble.slice_at(k)
        du = afield.gradient(k)                       # (n_points, n_paths, 1)
        ham, _ = hamiltonian(coeffs, t, x_pts[:, None, :], du, w)
        R = -afield.drift[k] - ham                    # (n_points, n_paths)
        mu, se = _path_mean_se(R)
        probe_mean[k] = mu
        probe_se[k] = se
        stats.append(float(np.min(s * mu + 3 * se)))

    wT = ensemble.slice_at(n, terminal_ok=True)
    g_term = np.broadcast_to(
        np.asarray(coeffs.G(x_pts[:, None, :], wT), float),
        afield.at(n).shape,
    )
    term_gap = s * (afield.at(n) - g_term)
    terminal_margin = s * float(term_gap.min())
    margin = s * min(stats)
    return {
        "margin": margin,
        "probe_mean": probe_mean,
        "probe_se": probe_se,
        "terminal_margin": terminal_margin,
        "passed": s * margin >= -tol and s * terminal_margin >= -1e-9,
    }


@dataclass
class EnvelopePair:
    """Upper and lower envelopes of a perturbed value surface."""

    upper: AdaptedField
    lower: AdaptedField
    params: dict             # "L_tilde", "K_bar"
    reports: dict            # one-sided residual checks, "upper"/"lower"


def build_envelopes(base, approx, ens_w, ens_b, eps, delta_n, *,
                    lattice, tol=0.02, clamp_tol=0.05):
    """Envelope fields squeezing the value function.

    The perturbed surface adds independent noise delta_n dB to the
    approximant dynamics; its empirical gradient bound feeds the
    correction constant, and two bound processes (the approximation
    error one and the noise one) are added/subtracted after shifting
    the surface by the accumulated noise.

    Parameters
    ----------
    base : exact coefficient set.
    approx : FunctionalApproximant for it, reported error <= eps.
    ens_w, ens_b : independent ensembles on the same grid and path
        count; ens_b must have m == 1.
    eps, delta_n : approximation size and noise level (> 0).
    lattice : BoxLattice covering the reachable set plus the noise
        wander.
    clamp_tol : lattice-exit budget of the perturbed surface and of the
        envelope assembly, which reads that surface at the lattice points
        shifted by -delta_n B; exceeding it raises AccuracyError, which
        names the knot with the most exits.

    The drift part is assembled, and residual-checked, only on the
    grid's subgrid.  Returns an EnvelopePair whose params hold the
    gradient bound L_tilde and the correction constant K_bar, and whose
    reports hold the one-sided residual checks of both envelopes.
    """
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if ens_w.grid != ens_b.grid or ens_w.n_paths != ens_b.n_paths:
        raise ValueError("need matching grids and path counts for W and B")
    if ens_b.m != 1:
        raise ValueError("noise ensemble must have m == 1")
    ach = approx.achieved
    worst_err = max(ach.get("G_sup", np.inf), ach.get("f_sup", 0.0),
                    ach.get("beta_sup", 0.0))
    if not approx.accuracy_ok or worst_err > eps:
        raise ValueError(
            f"approximant error {worst_err:.4g} exceeds eps={eps:g}; "
            f"achieved={ach}"
        )

    grid = ens_w.grid
    n = grid.n_steps

    V_eps = value_V(approx, ens_w, lattice, noise_level=delta_n,
                    noise_ensemble=ens_b, clamp_tol=clamp_tol)
    want_drift = grid.subgrid()

    # empirical gradient bound over every stored slice
    L_tilde = max(lattice.lipschitz(sl) for sl in V_eps.slices.values())
    K_bar = 4.0 * base.L * (L_tilde + 1.0)

    radius = max(abs(lattice.lo), abs(lattice.hi))
    errors = error_processes(base, approx, ens_w, radius=radius)
    bound = error_bound_bsde(errors, gain=L_tilde, ensemble=ens_w)

    b_terminal = np.linalg.norm(ens_b.value_at(n), axis=1)
    noise_mag = solve_bsde(BsdeSpec(
        ens_b, b_terminal,
        lambda t, w: np.linalg.norm(w.current, axis=1),
    ))

    x_pts = lattice.points
    up_vals, lo_vals = {}, {}
    up_drift, lo_drift = {}, {}
    clamped = {}              # knot -> assembly reads outside the lattice
    evals = 0
    for k in sorted(V_eps.slices):
        sl = V_eps.pathwise(k)
        B_k = ens_b.value_at(k)
        pos = x_pts[:, None, :] - delta_n * B_k[None, :, :]
        center, clamped[k] = lattice.interp(sl, pos)
        evals += center.size
        corr = bound.Y[k][None, :] + delta_n * K_bar * noise_mag.Y[k][None, :]
        up_vals[k] = center + corr
        lo_vals[k] = center - corr
        if k == n or k not in want_drift:
            continue
        t = grid.knots[k]
        p_shift, _ = lattice.interp(lattice.gradient(sl)[..., 0], pos)
        w = None if approx.deterministic else ens_w.slice_at(k)
        ham, _ = hamiltonian(approx, t, pos, p_shift[..., None], w)
        b_mag = np.linalg.norm(B_k, axis=1)[None, :]
        up_drift[k] = -ham - bound.driver[k][None, :] \
            - delta_n * K_bar * b_mag
        lo_drift[k] = -ham + bound.driver[k][None, :] \
            + delta_n * K_bar * b_mag

    frac = sum(clamped.values()) / evals
    if frac > clamp_tol:
        k = max(clamped, key=clamped.get)
        raise AccuracyError(
            f"{100 * frac:.2f}% of envelope reads left the lattice (budget "
            f"{100 * clamp_tol:.1f}%); most at knot {k} ({clamped[k]} reads); "
            f"enlarge the lattice"
        )

    upper = AdaptedField(grid, lattice, up_vals, up_drift, None)
    lower = AdaptedField(grid, lattice, lo_vals, lo_drift, None)
    reports = {"upper": residual_check(upper, base, ens_w, "super", tol=tol),
               "lower": residual_check(lower, base, ens_w, "sub", tol=tol)}
    return EnvelopePair(upper, lower, {"L_tilde": L_tilde, "K_bar": K_bar},
                        reports)


def sandwich_report(pair, surface):
    """Probe-wise ordering and gap statistics against a value surface.

    The surface must live on the same lattice points as the pair and is
    compared at every envelope knot where it kept a slice.
    Ordering passes when the upper envelope clears the value mean and
    the value clears the lower one, each with a 3 SE cushion; the gap
    statistics feed the ladder fit.
    """
    up, lo = pair.upper, pair.lower
    if not np.allclose(surface.lattice.points, up.lattice.points):
        raise ValueError("surface and envelopes use different lattices")
    knots = [k for k in up.knots if k in surface.slices]
    upper_margin = np.inf
    lower_margin = np.inf
    gap_upper = gap_lower = 0.0
    for k in knots:
        v_sl = surface.pathwise(k)
        u_k = up.at(k)
        l_k = lo.at(k)
        v_b = np.broadcast_to(v_sl, u_k.shape)
        m_up, se_up = _path_mean_se(u_k)
        m_lo = l_k.mean(axis=1)
        m_v = surface.mean[k]
        se_v = surface.se[k]
        mu_margin = float(np.min(m_up - m_v + 3 * (se_up + se_v)))
        ml_margin = float(np.min(m_v - m_lo + 3 * (se_up + se_v)))
        gu = float(np.max(np.mean(np.abs(u_k - v_b), axis=1)))
        gl = float(np.max(np.mean(np.abs(l_k - v_b), axis=1)))
        upper_margin = min(upper_margin, mu_margin)
        lower_margin = min(lower_margin, ml_margin)
        gap_upper = max(gap_upper, gu)
        gap_lower = max(gap_lower, gl)
    return {
        "upper_margin": upper_margin,
        "lower_margin": lower_margin,
        "gap_upper": gap_upper,
        "gap_lower": gap_lower,
        "order_ok": upper_margin >= 0.0 and lower_margin >= 0.0,
    }


@dataclass
class HjbFdSolution:
    """Finite-difference plane at the interval start."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    u: np.ndarray            # (nx, ny)
    diagnostics: dict

    def value_at(self, x, y):
        """Bilinear read-off; clamps to the computational box."""
        i, fx = _uniform_cell(self.x_axis, x)
        j, fy = _uniform_cell(self.y_axis, y)
        u = self.u
        return ((1 - fx) * (1 - fy) * u[i, j] + fx * (1 - fy) * u[i + 1, j]
                + (1 - fx) * fy * u[i, j + 1] + fx * fy * u[i + 1, j + 1])


def _pad_linear(u, axis):
    # ghost layers from linear extrapolation: zero curvature at the faces
    lo = 2 * u.take([0], axis) - u.take([1], axis)
    hi = 2 * u.take([-1], axis) - u.take([-2], axis)
    return np.concatenate([lo, u, hi], axis)


def solve_hjb_fd_1d(approx, x_axis, y_axis, interval, delta_n):
    """Explicit finite-difference solve of the regularized equation.

    On the last functional interval the frozen-prefix coefficients are
    deterministic, the terminal Brownian value becomes an extra state
    coordinate y with unit diffusion, and the artificial noise adds
    delta_n^2/2 curvature in x:

        u_t + min_v [ beta u_x + f ] + 1/2 u_yy + delta_n^2/2 u_xx = 0.

    Upwind first differences follow the drift sign; both curvature
    terms are centered; the time step is CFL-limited (CFL number 0.8)
    with automatic substepping.  Box faces use linear extrapolation, not
    a physical boundary condition.

    Parameters
    ----------
    approx : coefficient set whose beta/f are path-free; the terminal
        plane is approx.payoff_grid(x_axis, y_axis).
    x_axis, y_axis : uniform axes.
    interval : (t_start, t_end).
    delta_n : noise level (>= 0).

    Returns an HjbFdSolution at t_start; its diagnostics hold the
    substep count and the CFL rate.
    """
    x_axis = np.asarray(x_axis, float)
    y_axis = np.asarray(y_axis, float)
    t0, t1 = float(interval[0]), float(interval[1])
    if not t1 > t0:
        raise ValueError("need t_end > t_start")
    hx = x_axis[1] - x_axis[0]
    hy = y_axis[1] - y_axis[0]
    u = np.array(approx.payoff_grid(x_axis, y_axis), float)
    if u.shape != (x_axis.size, y_axis.size):
        raise ValueError(f"terminal plane must be {(x_axis.size, y_axis.size)}")

    x_col = x_axis[:, None]
    drifts = []
    runnings = []
    for j in range(approx.n_controls):
        v = approx.controls[j]
        b = np.broadcast_to(
            np.asarray(approx.beta(t0, x_col, v, None), float),
            (x_axis.size, 1))[:, 0]
        fv = np.broadcast_to(
            np.asarray(approx.f(t0, x_col, v, None), float),
            (x_axis.size,))
        drifts.append(b)
        runnings.append(fv)
    b_max = max(float(np.max(np.abs(b))) for b in drifts)

    rate = b_max / hx + delta_n**2 / hx**2 + 1.0 / hy**2
    n_sub = max(int(np.ceil((t1 - t0) * rate / 0.8)), 1)
    dt = (t1 - t0) / n_sub

    for _ in range(n_sub):
        px = _pad_linear(u, 0)
        py = _pad_linear(u, 1)
        u_xx = (px[2:] - 2 * u + px[:-2]) / hx**2
        u_yy = (py[:, 2:] - 2 * u + py[:, :-2]) / hy**2
        d_fwd = (px[2:] - u) / hx
        d_bwd = (u - px[:-2]) / hx
        ham = None
        for b, fv in zip(drifts, runnings):
            bp = np.maximum(b, 0.0)[:, None]
            bm = np.minimum(b, 0.0)[:, None]
            cand = bp * d_fwd + bm * d_bwd + fv[:, None]
            ham = cand if ham is None else np.minimum(ham, cand)
        u = u + dt * (ham + 0.5 * u_yy + 0.5 * delta_n**2 * u_xx)

    return HjbFdSolution(x_axis, y_axis, u,
                         {"substeps": n_sub, "cfl_rate": rate})
