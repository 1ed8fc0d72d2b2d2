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
from .coeffs import _at_controls, _halves, _node_tables, _running_argmin
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
    w : PathSlice or None, passed to beta and f.

    Returns
    -------
    (value, argmin) with the leading (...) shape; ties keep the lowest
    control index.

    The control enters additively (see coeffs), so each point's control
    is looked up on the lower envelope of the lines c(v) p + g(v), and
    its value is (a[j] + b x) p + (a_f[j] + b_f x) on the set's lines.
    The points within a rounding bound of a tie (p = 0 on the eikonal
    grid, say) alone are re-scored over every control, so values and
    argmins equal the per-control sweep's bit for bit (coeffs._at_controls
    reads a MollifiedSet on the whole x).
    """
    x = np.asarray(x, float)
    p = np.asarray(p, float)
    q = np.broadcast_to(p, np.broadcast_shapes(x.shape, p.shape))[..., 0]
    if q.ndim == 0:         # one point: a tie's np.nonzero needs an axis
        value, idx = hamiltonian(coeffs, t, x[None], p[None], w)
        return value[0], idx[0]
    edges, picks = _pick_table(coeffs, t, w, x, q)
    # one comparison per edge: np.searchsorted costs about 25 of them and
    # returns int64, where the bucket fits the smallest unsigned type
    bucket = np.zeros(q.shape, np.min_scalar_type(edges.size))
    for edge in edges:
        bucket += q > edge
    idx = np.asarray(picks[bucket])
    tied = idx < 0
    np.maximum(idx, 0, out=idx)      # a stand-in until the re-scoring
    value, f = _at_controls(coeffs, t, x, w, idx)
    value *= q
    value += f
    del f                            # out of the way of the re-scoring
    if tied.any():
        # every control (rows) at each tied point (columns)
        at = np.nonzero(tied)      # index arrays gather without a mask scan
        beta, f = _at_controls(coeffs, t, x, w,
                               np.arange(coeffs.n_controls)[:, None], at)
        scores = beta * q[at]
        scores += f
        value[at], idx[at] = _running_argmin(scores)
    return value, idx


def _pick_table(coeffs, t, w, x, q):
    """(edges, picks): picks[number of edges below q] is the control of
    slope q at points x on the envelope of _control_lines, or -1 where
    the runner-up's line may lie within roundoff of it: 4096 ulps of the
    terms at the largest |x| and |q|, or everywhere if a q is not finite.
    """
    breaks, pick, slope_gap, offset_gap, (c_size, c_slope, g_size, g_slope) \
        = _control_lines(coeffs, t, w)
    reach = 1.0 + max(np.max(x, initial=0.0), -np.min(x, initial=0.0))
    top = max(np.max(q, initial=0.0), -np.min(q, initial=0.0))  # or NaN
    tol = _TIE_RTOL * ((c_size + c_slope * reach) * top + g_size
                       + g_slope * reach) + _TIE_ATOL
    if not tol < np.inf:
        return np.empty(0), np.array([-1])
    # on (lo, hi] the runner-up lies s q + o above the pick, within tol on
    # (lo, z] where s > 0, on (z, hi] where s < 0, and all or nowhere at 0
    lo, hi = np.append(-np.inf, breaks), np.append(breaks, np.inf)
    flat = slope_gap == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(flat, np.where(offset_gap <= tol, hi, lo),
                     np.clip((tol - offset_gap) / slope_gap, lo, hi))
    rising = slope_gap >= 0.0
    uppers = np.column_stack([z, hi]).ravel()
    picks = np.column_stack([np.where(rising, -1, pick),
                             np.where(rising, pick, -1)]).ravel()
    # drop the empty buckets, then merge neighbours with the same pick
    live = uppers > np.append(-np.inf, uppers[:-1])
    uppers, picks = uppers[live], picks[live]
    last = np.append(picks[1:] != picks[:-1], True)
    return uppers[last][:-1], picks[last]


def _control_lines(coeffs, t, w):
    """Lines c_j p + g_j of a set's controls, as lookup tables.

    c and g are read off at x = 0 relative to control 0, once per set.
    Between consecutive entries of breaks no two of the lowest lines
    cross: on interval i (np.searchsorted order) pick[i] is the lowest
    line, ties to the lowest index, and the next one lies
    slope_gap[i] p + offset_gap[i] above it (+inf for a single control).
    scale = (c_size, c_slope, g_size, g_slope) bounds the scale of the
    read-off errors within r - 1 of x = 0 by c_size + c_slope r and
    g_size + g_slope r.  Any call's (t, w) gives a valid table, so
    threads that fill the cache at once are harmless.
    """
    cached = getattr(coeffs, "_control_lines", None)
    if cached is not None:
        return cached
    b, f = _node_tables(coeffs, t, np.array([[[0.0]], [[1.0]]]), w,
                        range(coeffs.n_controls))
    b, b_slope = b[:, 0], np.abs(b[:, 1] - b[:, 0]).max()
    f, f_slope = f[:, 0], np.abs(f[:, 1] - f[:, 0]).max()
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
    scale = (np.abs(b).max() + np.abs(c[:-1]).max(), b_slope,
             np.abs(f).max() + np.abs(g[:-1]).max(), f_slope)
    lines = (breaks[keep[1:]], pick, c[rival] - c[pick], g[rival] - g[pick],
             scale)
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
    super passes at >= -tol and sub at <= tol), each knot's worst probe
    statistic, signed the same way, in knot_margins, the terminal margin,
    and `passed`, which combines the residual sign and the terminal
    comparison.  Each probe is _residual_probe's, which the ``jhat``
    pipeline calls as a ladder item's sweep leaves each knot, so an item
    holds one knot at a time.
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    if afield.drift is None:
        raise ValueError("field carries no drift part; estimate one first")
    probes = {k: _residual_probe(coeffs, ensemble, k, afield.lattice,
                                 afield.gradient(k), afield.drift[k])
              for k in afield.knots if k in afield.drift}
    return _side_report(afield.at(afield.grid.n_steps), afield.lattice,
                        probes, coeffs, ensemble, side, tol)


def _residual_probe(coeffs, ensemble, k, lattice, grad, drift):
    """Per-node (mean, SE) over the paths of the residual
    R = -drift - H(Du) at knot k, from the field's lattice gradient."""
    ham, _ = hamiltonian(coeffs, ensemble.grid.knots[k],
                         lattice.points[:, None, :], grad, ensemble.slice_at(k))
    return _path_mean_se(-drift - ham)


def _side_report(terminal, lattice, probes, coeffs, ensemble, side, tol):
    """residual_check's report from a field's terminal values on lattice
    and its probes, knot -> the per-node (mean, SE) of the residual R
    over the paths."""
    # "sub" is "super" for -R: with s = -1 every statistic below is the
    # negation of its sub-side value, which is exact in floating point
    s = 1.0 if side == "super" else -1.0
    stats = {k: float(np.min(s * mu + 3 * se)) for k, (mu, se) in probes.items()}
    wT = ensemble.slice_at(ensemble.grid.n_steps, terminal_ok=True)
    g_term = np.broadcast_to(
        np.asarray(coeffs.G(lattice.points[:, None, :], wT), float),
        terminal.shape,
    )
    term_gap = s * (terminal - g_term)
    terminal_margin = s * float(term_gap.min())
    margin = s * min(stats.values())
    return {
        "margin": margin,
        "knot_margins": {k: s * stat for k, stat in stats.items()},
        "probe_mean": {k: mu for k, (mu, _) in probes.items()},
        "probe_se": {k: se for k, (_, se) in probes.items()},
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
                    lattice, tol=0.02, clamp_tol=0.05, pool=None):
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
    pool : optional concurrent.futures executor, passed to value_V.  Each
        knot's work runs in the same two halves of node rows at any
        worker count, the upper one on the pool, so the pair has the same
        bits with or without one.  Both sets must have lines (a
        MollifiedSet's bits depend on the shape it is evaluated on).

    The drift part is assembled, and residual-checked, only on the
    grid's subgrid.  Returns an EnvelopePair whose params hold the
    gradient bound L_tilde and the correction constant K_bar, and whose
    reports hold the one-sided residual checks of both envelopes against
    base.  They are residual_check's reports on each envelope up to
    roundoff: the corrections are constant in x, so both sides take the
    gradient of the shared perturbed surface.
    """
    if delta_n <= 0:
        raise ValueError("delta_n must be positive")
    if ens_w.grid != ens_b.grid or ens_w.n_paths != ens_b.n_paths:
        raise ValueError("need matching grids and path counts for W and B")
    if ens_b.m != 1:
        raise ValueError("noise ensemble must have m == 1")
    ach = approx.achieved
    worst_err = ach.get("G_sup", np.inf)
    if not approx.accuracy_ok or worst_err > eps:
        raise ValueError(
            f"approximant error {worst_err:.4g} exceeds eps={eps:g}; "
            f"achieved={ach}"
        )

    grid = ens_w.grid
    n = grid.n_steps

    V_eps = value_V(approx, ens_w, lattice, noise_level=delta_n,
                    noise_ensemble=ens_b, clamp_tol=clamp_tol, pool=pool)
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
    n_rows = lattice.n_points
    up_vals, lo_vals = {}, {}
    up_drift, lo_drift = {}, {}
    up_probes, lo_probes = {}, {}
    clamped = {}              # knot -> assembly reads outside the lattice
    evals = 0
    for k in sorted(V_eps.slices):
        sl = V_eps.pathwise(k)
        B_k = ens_b.value_at(k)
        corr = bound.Y[k][None, :] + delta_n * K_bar * noise_mag.Y[k][None, :]
        center, up, lo = (np.empty((n_rows, ens_b.n_paths)) for _ in range(3))
        up_vals[k], lo_vals[k] = up, lo
        drift = k < n and k in want_drift
        if drift:
            t = grid.knots[k]
            d_sl = lattice.gradient(sl)[..., 0]
            w = None if approx.deterministic else ens_w.slice_at(k)
            driver = bound.driver[k][None, :]
            kick = delta_n * K_bar * np.linalg.norm(B_k, axis=1)[None, :]
            up_d = up_drift[k] = np.empty(up.shape)
            lo_d = lo_drift[k] = np.empty(up.shape)

        def shifted(a, b):
            # nodes a..b-1 shifted by -delta_n B_k: one locate serves the
            # slice and its gradient; gather overwrites the cells it is given
            pos = x_pts[a:b, None, :] - delta_n * B_k[None, :, :]
            cell, w_lo, w_hi, outside = lattice.locate(pos)
            part = lattice.gather(sl, cell.copy(), w_lo, w_hi, center[a:b])
            np.add(part, corr, out=up[a:b])
            np.subtract(part, corr, out=lo[a:b])
            if drift:
                p_shift = lattice.gather(d_sl, cell, w_lo, w_hi)
                ham, _ = hamiltonian(approx, t, pos, p_shift[..., None], w)
                np.subtract(-ham - driver, kick, out=up_d[a:b])
                np.add(-ham + driver, kick, out=lo_d[a:b])
            return np.count_nonzero(outside)

        clamped[k] = sum(_halves(shifted, n_rows, pool))
        evals += center.size
        if not drift:
            continue
        # corr is constant in x, so both envelopes have center's gradient
        # and share one base Hamiltonian; these are residual_check's probes
        d_center = lattice.gradient(center)
        w_k = ens_w.slice_at(k)

        def probes(a, b):
            ham, _ = hamiltonian(base, t, x_pts[a:b, None, :], d_center[a:b],
                                 w_k)
            return (_path_mean_se(-up_d[a:b] - ham)
                    + _path_mean_se(-lo_d[a:b] - ham))

        mu_up, se_up, mu_lo, se_lo = map(np.concatenate, zip(
            *_halves(probes, n_rows, pool)))
        up_probes[k], lo_probes[k] = (mu_up, se_up), (mu_lo, se_lo)

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
    reports = {
        "upper": _side_report(up_vals[n], lattice, up_probes, base, ens_w,
                              "super", tol),
        "lower": _side_report(lo_vals[n], lattice, lo_probes, base, ens_w,
                              "sub", tol)}
    return EnvelopePair(upper, lower, {"L_tilde": L_tilde, "K_bar": K_bar},
                        reports)


def sandwich_report(pair, surface, *, pool=None):
    """Probe-wise ordering and gap statistics against a value surface.

    The surface must live on the same lattice points as the pair and is
    compared at every envelope knot where it kept a slice.
    Ordering passes when the upper envelope clears the value mean and
    the value clears the lower one, each with a 3 SE cushion; the gap
    statistics feed the ladder fit.  Each knot's per-row statistics are
    taken in the same two halves of node rows at any worker count, the
    upper one on the optional executor pool; the margins and gaps are
    their minima and maxima, so a pool changes no bit.
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
        m_v = surface.mean[k]
        se_v = surface.se[k]

        def rows(a, b):
            u, l = u_k[a:b], l_k[a:b]
            v_b = np.broadcast_to(v_sl[a:b], u.shape)
            m_up, se_up = _path_mean_se(u)
            cushion = 3 * (se_up + se_v[a:b])
            return (m_up - m_v[a:b] + cushion,
                    m_v[a:b] - l.mean(axis=1) + cushion,
                    np.mean(np.abs(u - v_b), axis=1),
                    np.mean(np.abs(l - v_b), axis=1))

        mu, ml, gu, gl = map(np.concatenate, zip(
            *_halves(rows, u_k.shape[0], pool)))
        upper_margin = min(upper_margin, float(np.min(mu)))
        lower_margin = min(lower_margin, float(np.min(ml)))
        gap_upper = max(gap_upper, float(np.max(gu)))
        gap_lower = max(gap_lower, float(np.max(gl)))
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

    drifts, runnings = _node_tables(approx, t0, x_axis[:, None, None], None,
                                    range(approx.n_controls))
    b_max = float(np.abs(drifts).max())

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
        ham, _ = _running_argmin(
            np.maximum(b, 0.0)[:, None] * d_fwd
            + np.minimum(b, 0.0)[:, None] * d_bwd + fv[:, None]
            for b, fv in zip(drifts, runnings))
        u = u + dt * (ham + 0.5 * u_yy + 0.5 * delta_n**2 * u_xx)

    return HjbFdSolution(x_axis, y_axis, u,
                         {"substeps": n_sub, "cfl_rate": rate})
