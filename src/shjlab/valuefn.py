"""Cost functionals and dynamic-programming value surfaces.

The value of the control problem is computed backward on a state
lattice: the terminal slice is the pathwise terminal cost, and each
step minimizes (running cost) * dt + E[next slice at the Euler image]
over the finite control grid, with conditional expectations replaced
by cross-path least-squares projections.  Path-independent problems
collapse to a single effective path and need no regression at all.

Ties in every minimization break toward the lowest control index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import integrate
from .exceptions import AccuracyError, CapacityError
from .probspace import CondExpOperator, _path_mean_se, polynomial_basis
from .coeffs import _argmin_sweep, _one_component, reach_radius

__all__ = [
    "BoxLattice",
    "ControlPolicy",
    "ValueSurface",
    "value_V",
    "value_audit",
]

# pathwise slices stored at every knot only below this element count
AUTO_STORE_BUDGET = 80_000_000


class BoxLattice:
    """Uniform lattice on an interval with linear interpolation.

    Points, here and in every method, carry a trailing state axis of
    length 1; other lengths raise ValueError.
    """

    def __init__(self, lo, hi, h):
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError("need lo < hi")
        self.h = float(h)
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        self.n_points = max(int(np.round((hi - lo) / self.h)) + 1, 2)
        self.lo = lo
        self.hi = lo + (self.n_points - 1) * self.h
        self.points = (self.lo + self.h * np.arange(self.n_points))[:, None]

    @classmethod
    def centered(cls, radius, h):
        return cls(-radius, radius, h)

    @classmethod
    def for_problem(cls, coeffs, T, x0_max, h, margin=0.0):
        """Lattice sized to the reachable set from |x0| <= x0_max."""
        r = reach_radius(coeffs, x0_max, T, margin=margin + h)
        return cls.centered(r, h)

    def _cells(self, pos):
        """Distances (...) of points pos (..., 1) from the first node, in cells."""
        u = _one_component(pos)[..., 0] - self.lo
        u /= self.h
        return u

    def nearest_flat(self, pos):
        """Index of the nearest lattice point, clamped to the box."""
        return np.clip(np.round(self._cells(pos)).astype(int),
                       0, self.n_points - 1)

    def interp(self, values, pos):
        """Linear interpolation of pathwise lattice fields.

        values : (n_points, n_eff) one field column per effective path.
        pos : (..., E, 1) with E == n_eff, or E == 1, or n_eff == 1.
        Returns (vals, n_clamped) where vals broadcasts (..., max(E, n_eff))
        and n_clamped counts evaluation points outside the box.
        """
        n_eff = values.shape[1]
        u = self._cells(pos)
        out_mask = u < 0.0
        out_mask |= u > self.n_points - 1
        np.clip(u, 0.0, self.n_points - 1.0, out=u)
        # one flat offset into values.ravel() per point, at the low
        # neighbour; the high one sits n_eff further on
        flat = u.astype(int)
        np.minimum(flat, self.n_points - 2, out=flat)
        u -= flat
        w_lo = 1.0 - u
        flat *= n_eff
        n_clamped = int(np.count_nonzero(out_mask))
        if n_eff > 1:
            # column offsets; a single position column fans out over them
            eff = np.arange(n_eff)
            flat = (np.add(flat, eff, out=flat) if flat.shape[-1] == n_eff
                    else flat + eff)

        flat_values = values.ravel()
        # offsets stay in range by construction, and mode="clip" skips
        # the bounds check of the default mode
        part = np.take(flat_values, flat, mode="clip")
        part *= w_lo
        # the running sum starts from 0.0, bit for bit: it turns a -0.0
        # first term into +0.0
        vals = part + 0.0
        part = np.take(flat_values[n_eff:], flat, out=part, mode="clip")
        part *= u
        vals += part
        return vals, n_clamped

    def exits(self, pos):
        """Points of pos (..., 1) below the first node and beyond the last.

        Returns the two counts by interp's own comparisons, so they sum
        to its n_clamped.
        """
        u = self._cells(pos)
        return np.array([np.count_nonzero(u < 0.0),
                         np.count_nonzero(u > self.n_points - 1)])

    def gradient(self, values):
        """Central-difference gradient of lattice fields (n_points, n_cols).

        Returns (n_points, n_cols, 1); one-sided at the box faces.
        """
        return np.gradient(values, self.h, axis=0)[..., None]

    def lipschitz(self, values):
        """Largest difference quotient of lattice fields."""
        return float(np.abs(np.diff(values, axis=0)).max()) / self.h


class ControlPolicy:
    """Adapted control selection: constant, open-loop, or lattice feedback."""

    def __init__(self, kind, data, collapsed):
        self.kind = kind
        self.data = data
        self.collapsed = collapsed

    @classmethod
    def constant(cls, index):
        return cls("constant", int(index), True)

    @classmethod
    def open_loop(cls, indices):
        """indices: (n_steps,) shared or (n_steps, n_paths) per path.

        Per-path rows must be built from path history only.
        """
        indices = np.asarray(indices, int)
        if indices.ndim not in (1, 2):
            raise ValueError("open-loop indices must be 1- or 2-dimensional")
        return cls("open-loop", indices, indices.ndim == 1)

    @classmethod
    def feedback(cls, surface):
        """Greedy policy reading a value surface's stored argmin tables."""
        if surface.argmin is None:
            raise ValueError("surface carries no argmin tables")
        return cls("feedback", surface, surface.collapsed)

    def indices_at(self, k, states):
        """Control index at knot k for states (..., E, 1)."""
        if self.kind == "constant":
            return self.data
        if self.kind == "open-loop":
            return self.data[k]
        surface = self.data
        table = surface.argmin.get(k)
        if table is None:
            raise ValueError(f"no argmin table stored at knot {k}")
        flat = surface.lattice.nearest_flat(states)
        eff = np.arange(table.shape[1])
        return table[flat, eff]

    def lattice_indices(self, k, lattice, n_eff):
        """Control index at knot k at each lattice point, (n_points, n_eff).

        Feedback reads its argmin table: on its own lattice a node is its
        own nearest node.  The other kinds do not read the state.
        """
        if self.kind != "feedback":
            idx = self.indices_at(k, None)
        elif self.data.lattice is not lattice:
            raise ValueError("feedback policy built on a different lattice")
        elif k not in self.data.argmin:
            raise ValueError(f"no argmin table stored at knot {k}")
        else:
            idx = self.data.argmin[k]
        return np.broadcast_to(np.asarray(idx, int), (lattice.n_points, n_eff))


@dataclass
class ValueSurface:
    """Backward-induction estimates of a value (or fixed-policy cost) field.

    mean/se rows and argmin tables exist at every knot; pathwise slices
    (n_points, n_eff) only at the stored knots.  n_eff == 1 marks a
    collapsed (path-independent) surface.
    """

    grid: object
    lattice: BoxLattice
    mean: np.ndarray
    se: np.ndarray
    slices: dict
    argmin: dict | None
    collapsed: bool
    diagnostics: dict = field(default_factory=dict)

    def pathwise(self, k):
        try:
            return self.slices[int(k)]
        except KeyError:
            raise KeyError(f"knot {k} not stored; kept: {sorted(self.slices)}") from None

    def at_states(self, k, states):
        """Interpolate the knot-k slice at per-path states (..., E, 1)."""
        vals, _ = self.lattice.interp(self.pathwise(k), states)
        return vals

    def mean_at(self, k, x):
        vals, _ = self.lattice.interp(self.mean[int(k)][:, None], np.atleast_2d(x)[:, None, :])
        return vals[:, 0]


class _NextSlice:
    """The knot-(k+1) slice of a backward sweep, read at Euler images.

    Calling it interpolates values at pos and tallies the reads for
    clamp_fraction; reads made for control j also count their lattice
    exits per knot and control in exits.
    """

    def __init__(self, lattice):
        self.lattice = lattice
        self.k = self.values = None
        self.clamped = self.evals = 0
        self.exits = {}             # (knot, control) -> points out of the box

    def __call__(self, pos, j=None):
        vals, n_clamped = self.lattice.interp(self.values, pos)
        self.tally(j, vals.size, n_clamped)
        return vals

    def tally(self, j, n_reads, n_clamped):
        self.evals += n_reads
        self.clamped += n_clamped
        if n_clamped and j is not None:
            key = (self.k, j)
            self.exits[key] = self.exits.get(key, 0) + n_clamped


def _backward_sweep(coeffs, ensemble, lattice, store_knots, basis, step, *,
                    argmin=None):
    """Backward recursion on a lattice, shared by value and policy costs.

    From the pathwise terminal cost, calls step(k, t, w, op, nxt) for
    k = n-1, ..., 0; it returns the knot-k slice and the pathwise
    realizations behind it.  nxt is the knot-(k+1) slice as a _NextSlice:
    nxt(pos, j) interpolates it at Euler images and counts lattice exits;
    op is the knot-k projection, None for path-free coefficients.
    store_knots "all" keeps every pathwise slice; "auto" thins them out
    as value_V describes.
    """
    grid = ensemble.grid
    n = grid.n_steps
    regress = not coeffs.deterministic
    n_eff = ensemble.n_paths if regress else 1
    if basis is None and regress:
        basis = polynomial_basis()

    fits = (n + 1) * lattice.n_points * n_eff <= AUTO_STORE_BUDGET
    keep = range(n + 1) if store_knots == "all" or fits else grid.subgrid()

    x_eval = lattice.points[:, None, :]
    wT = None if coeffs.deterministic else ensemble.slice_at(n, terminal_ok=True)
    V = np.broadcast_to(np.asarray(coeffs.G(x_eval, wT), float),
                        (lattice.n_points, n_eff)).copy()

    mean = np.full((n + 1, lattice.n_points), np.nan)
    se = np.zeros((n + 1, lattice.n_points))
    slices = {}
    nxt = _NextSlice(lattice)

    raw = V
    for k in range(n, -1, -1):
        if k < n:
            t = grid.knots[k]
            w = None if coeffs.deterministic else ensemble.slice_at(k)
            op = CondExpOperator(ensemble, k, basis) if regress else None
            nxt.k, nxt.values = k, V
            V, raw = step(k, t, w, op, nxt)
        mean[k], se[k] = _path_mean_se(raw)
        if k in keep:
            slices[k] = V.copy()

    diagnostics = {
        "clamp_fraction": nxt.clamped / max(nxt.evals, 1),
        "exits": nxt.exits,
    }
    return ValueSurface(grid, lattice, mean, se, slices, argmin,
                        coeffs.deterministic, diagnostics)


def _stencil_means(column, z):
    """Path means of a 1-D lattice column interpolated at node + z.

    z (J, P) holds, in cells, the offsets of J families of P paths; every
    node shares them, so each family's mean is one stencil of bincount
    weights correlated with the column.  Edge padding reproduces the
    lattice clamp.  Returns (n_points, J).
    """
    n_fam, n_paths = z.shape
    cell = np.floor(z)
    frac = z - cell
    cell = cell.astype(int)
    lo, hi = int(cell.min()), int(cell.max())
    width = hi - lo + 2
    tap = (cell - lo + width * np.arange(n_fam)[:, None]).ravel()
    weights = (np.bincount(tap, (1.0 - frac).ravel(), n_fam * width)
               + np.bincount(tap + 1, frac.ravel(), n_fam * width))
    pad_lo = max(0, -lo)
    padded = np.pad(column, (pad_lo, max(0, hi + 1)), mode="edge")
    start = lo + pad_lo
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    means = windows[start:start + column.size] @ weights.reshape(n_fam, width).T
    return means / n_paths


def value_V(coeffs, ensemble, lattice, *, basis=None, noise_level=0.0,
            noise_ensemble=None, clamp_tol=0.01):
    """Backward dynamic-programming value surface on a lattice.

    Parameters
    ----------
    coeffs : coefficient set (base, mollified, or tensor-form).
    ensemble : WienerEnsemble carrying the coefficient filtration.
    lattice : BoxLattice covering the reachable set.
    basis : polynomial_basis(...) for the cross-path projections
        (degree 3 in the current Brownian value by default).
    noise_level, noise_ensemble : optional independent state noise
        delta * dB added to every Euler image (regularized problems).
    clamp_tol : lattice-exit budget; exceeding it raises AccuracyError,
        which names the knot with the most exits, its control and face.

    Each knot minimizes over the controls by sweeping them, except for a
    deterministic problem under noise at a knot where every
    control's dt * beta is the same at all lattice nodes.  There each
    control's path mean is a stencil of the one-column slice (see
    _stencil_means), the argmin is taken over those means, and only the
    winning controls are interpolated path by path, so mean, se and the
    slice match the sweep bit for bit unless a roundoff near-tie flips a
    choice; lattice exits are counted on the nodes near the faces.

    Returns a ValueSurface whose terminal slice is the exact pathwise
    terminal cost and whose int8/int16 argmin tables, which feedback
    policies read, cover every knot.  Pathwise slices are kept at every
    knot within AUTO_STORE_BUDGET, else on the grid's subgrid.
    """
    if noise_level and noise_ensemble is None:
        raise ValueError("noise_level > 0 needs a noise ensemble")
    if lattice.n_points * max(ensemble.n_paths, 1) > AUTO_STORE_BUDGET:
        raise CapacityError("lattice x paths working set exceeds budget")

    dt = ensemble.grid.dt
    x_eval = lattice.points[:, None, :]
    idx_dtype = np.int8 if coeffs.n_controls <= 127 else np.int16
    argmins = {}
    one_column = bool(coeffs.deterministic and noise_level)

    def image(k, b, rows=slice(None)):
        # Euler images of the lattice nodes (rows) under drift b and the
        # knot-k noise
        pos = x_eval[rows] + dt * b[rows]
        if noise_level:
            pos = pos + noise_level * noise_ensemble.increments[:, k, :]
        return pos

    def step(k, t, w, op, nxt):
        if one_column:
            b = np.stack([np.broadcast_to(coeffs.beta(t, x_eval, v, w),
                                          x_eval.shape)
                          for v in coeffs.controls])
            if (dt * b == dt * b[:, :1]).all():
                fv = np.stack([np.broadcast_to(coeffs.f(t, x_eval, v, w),
                                               x_eval.shape[:-1])
                               for v in coeffs.controls])
                return stencil_step(k, nxt, b, fv)
        controls = iter(range(coeffs.n_controls))   # swept in index order

        def score(b, fv):
            raw = nxt(image(k, b), next(controls))
            cont = None if op is None else op.apply(raw)
            # add the running cost in place: one lattice-by-path temporary
            # fewer per control keeps the allocator from trimming and
            # re-faulting the heap
            raw += fv * dt
            if op is not None:
                total = fv * dt + cont
            elif noise_level:
                # a deterministic problem under noise keeps one column
                total = raw.mean(axis=-1, keepdims=True)
            else:
                total = raw
            return total, raw

        best, argmins[k], (best_raw,) = _argmin_sweep(coeffs, t, x_eval, w,
                                                      score, idx_dtype)
        return best, best_raw

    def stencil_step(k, nxt, b, fv):
        n_controls, n = b.shape[:2]
        dB = noise_level * noise_ensemble.increments[:, k, 0]
        z = (dt * b[:, 0, 0, 0, None] + dB) / lattice.h
        totals = _stencil_means(nxt.values[:, 0], z) + dt * fv[:, :, 0].T
        best_idx = np.argmin(totals, axis=1)
        raw = np.empty((n, dB.size))
        for j in np.flatnonzero(np.bincount(best_idx, minlength=n_controls)):
            rows = best_idx == j
            vals, _ = lattice.interp(nxt.values, image(k, b[j], rows))
            vals += fv[j, rows] * dt
            raw[rows] = vals
        # a shift of |z| cells can only carry the nodes that close to a
        # face out of the box: count every control's exits there
        node = np.arange(n)
        for j in range(n_controls):
            reach = np.ceil(np.abs(z[j]).max()) + 1
            edge = (node < reach) | (node >= n - reach)
            n_out = int(lattice.exits(image(k, b[j], edge)).sum())
            nxt.tally(j, n * dB.size, n_out)
        argmins[k] = best_idx.astype(idx_dtype)[:, None]
        return raw.mean(axis=-1, keepdims=True), raw

    surface = _backward_sweep(coeffs, ensemble, lattice, "auto", basis, step,
                              argmin=argmins)
    frac = surface.diagnostics["clamp_fraction"]
    if frac > clamp_tol:
        # name the knot with the most exits, its worst control, and the
        # face that control's Euler images crossed most
        exits = surface.diagnostics["exits"]
        per_knot = {}
        for (k, _), n_out in sorted(exits.items()):
            per_knot[k] = per_knot.get(k, 0) + n_out
        k = max(per_knot, key=per_knot.get)
        j = max(sorted(c for kk, c in exits if kk == k),
                key=lambda c: exits[k, c])
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        b = np.asarray(coeffs.beta(ensemble.grid.knots[k], x_eval,
                                   coeffs.controls[j], w), float)
        faces = lattice.exits(image(k, b))
        side = int(np.argmax(faces))
        raise AccuracyError(
            f"{100 * frac:.2f}% of lattice evaluations left the box (budget "
            f"{100 * clamp_tol:.1f}%); most exits at knot {k}: control {j}, "
            f"face x0 {('lo', 'hi')[side]} ({faces[side]} exits); "
            f"enlarge the lattice"
        )
    return surface


def _value_lipschitz(coeffs, T):
    """Declared Lipschitz bound e^{L T} L (T + 1) of the value in x."""
    return float(np.exp(coeffs.L * T) * coeffs.L * (T + 1.0))


def value_audit(coeffs, ensemble, surface, starts, *, abs_tol=0.01,
                eps_report_tol=0.05):
    """Structural checks on a value surface.

    * supermartingale residuals E[V(s~, X_s~) + running cost] - E[V(s, X_s)]
      are >= -(abs_tol + 3 SE) for the greedy and the last-control
      policies and every pair of knots on the grid's subgrid, which
      every value surface stores, expectations taken over
      paths and the start batch jointly; the per-start extreme is
      reported separately as a diagnostic (it carries the O(h) lattice
      bias concentrated at terminal-cost kinks);
    * sup |V| stays within L (T + 1) (+ 3 SE);
    * lattice Lipschitz quotients stay within the declared bound
      e^{LT} L (T + 1);
    * the greedy argmin policy is eps_report-optimal at the starts: its
      rollout cost, the path mean of the running cost plus the terminal
      cost, exceeds V(0, start) by at most eps_report_tol (+ 3 SE).

    Returns a report dict with observed extremes and per-check flags.
    """
    grid = ensemble.grid
    T = grid.T
    L = coeffs.L
    lipschitz_bound = _value_lipschitz(coeffs, T)
    starts = np.atleast_2d(np.asarray(starts, float))
    subgrid = grid.subgrid()
    policies = {
        "greedy": ControlPolicy.feedback(surface),
        "last-control": ControlPolicy.constant(coeffs.n_controls - 1),
    }
    batches = {name: integrate(coeffs, ensemble, policy, starts,
                               store_knots=subgrid)
               for name, policy in policies.items()}

    worst = np.inf
    worst_pointwise = np.inf
    for batch in batches.values():
        vals = {s: surface.at_states(s, batch.states[s]) for s in subgrid}
        costs = {s: batch.cost_at[s] for s in subgrid}
        for a, s in enumerate(subgrid):
            for s2 in subgrid[a + 1:]:
                term = vals[s2] + (costs[s2] - costs[s]) - vals[s]
                per_path = term.mean(axis=0)      # paths shared across starts
                r, sig = _path_mean_se(per_path)
                worst = min(worst, float(r + abs_tol + 3.0 * sig))
                per_start = term.mean(axis=-1)
                worst_pointwise = min(worst_pointwise,
                                      float(per_start.min()) + abs_tol)
    supermartingale_ok = worst >= 0.0

    sup_V = float(np.nanmax(np.abs(surface.mean)))
    se_max = float(surface.se.max())
    bound_ok = sup_V <= L * (T + 1.0) + 3.0 * se_max

    lip = max(surface.lattice.lipschitz(sl) for sl in surface.slices.values())
    lipschitz_ok = lip <= lipschitz_bound + 1e-9

    greedy = batches["greedy"]
    wT = None if coeffs.deterministic else ensemble.slice_at(grid.n_steps, terminal_ok=True)
    cost, cost_se = _path_mean_se(greedy.total_cost + coeffs.G(greedy.terminal, wT))
    v0 = np.array([surface.mean_at(0, s[None, :])[0] for s in starts])
    gaps = cost - v0
    eps_obs = float(gaps.max())
    eps_ok = bool((gaps <= eps_report_tol + 3.0 * (cost_se + surface.se[0].max())).all())

    return {
        "supermartingale_margin": worst,
        "supermartingale_pointwise": worst_pointwise,
        "supermartingale_ok": bool(supermartingale_ok),
        "sup_value": sup_V,
        "value_bound": L * (T + 1.0),
        "bound_ok": bool(bound_ok),
        "lipschitz_observed": lip,
        "lipschitz_bound": lipschitz_bound,
        "lipschitz_ok": bool(lipschitz_ok),
        "eps_report": eps_obs,
        "eps_ok": eps_ok,
        "passed": bool(supermartingale_ok and bound_ok and lipschitz_ok and eps_ok),
    }
