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

import functools
from dataclasses import dataclass, field

import numpy as np

from .dynamics import integrate
from .exceptions import AccuracyError, CapacityError
from .probspace import CondExpOperator, _path_mean_se, polynomial_basis
from .coeffs import (_halves, _node_tables, _one_component, _running_argmin,
                     _split_argmin, _table_rows, reach_radius)

__all__ = [
    "BoxLattice",
    "ControlPolicy",
    "ValueSurface",
    "value_V",
    "value_audit",
]

# pathwise slices stored at every knot only below this element count
AUTO_STORE_BUDGET = 80_000_000

# the share of lattice reads whose point may leave the box; value_V and
# build_envelopes raise AccuracyError above it
CLAMP_BUDGET = 0.05


class BoxLattice:
    """Uniform lattice on an interval with linear interpolation.

    Points, here and in every method, carry a trailing state axis of
    length 1; other lengths raise ValueError.  Bounds and spacing must be
    finite with (hi - lo) / h finite too, else ValueError; more nodes
    than AUTO_STORE_BUDGET raise CapacityError before any array is built.
    """

    def __init__(self, lo, hi, h):
        lo, hi, self.h = float(lo), float(hi), float(h)
        for name, value in (("lo", lo), ("hi", hi), ("h", self.h)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not hi > lo:
            raise ValueError(f"need lo < hi, got lo={lo!r}, hi={hi!r}")
        if not self.h > 0:
            raise ValueError(f"spacing h must be positive, got {self.h!r}")
        cells = (hi - lo) / self.h
        if not np.isfinite(cells):
            raise ValueError(f"(hi - lo) / h overflows for lo={lo!r}, "
                             f"hi={hi!r}, h={self.h!r}")
        self.n_points = max(int(np.round(cells)) + 1, 2)
        if self.n_points > AUTO_STORE_BUDGET:
            raise CapacityError(
                f"lattice of {self.n_points} nodes (lo={lo!r}, hi={hi!r}, "
                f"h={self.h!r}) exceeds the budget of {AUTO_STORE_BUDGET}")
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
        and n_clamped counts the reads of points outside the box: a
        single position column read for n_eff columns counts n_eff times.
        """
        cell, w_lo, w_hi, outside = self.locate(pos)
        vals = self.gather(values, cell, w_lo, w_hi)
        return vals, np.count_nonzero(outside) * (vals.size // outside.size)

    def locate(self, pos):
        """Cells and weights of points pos (..., 1), clamped to the box.

        Returns (cell, w_lo, w_hi, outside): the low neighbour's node
        index, the weights of it and of the next node, and which points
        lie outside the box, each of shape (...).
        """
        u = self._cells(pos)
        outside = u < 0.0
        outside |= u > self.n_points - 1
        np.clip(u, 0.0, self.n_points - 1.0, out=u)
        cell = u.astype(int)
        np.minimum(cell, self.n_points - 2, out=cell)
        u -= cell
        return cell, 1.0 - u, u, outside

    def gather(self, values, cell, w_lo, w_hi, out=None):
        """Fields values (n_points, n_eff) read between nodes cell and
        cell + 1 with the weights locate returns.

        cell (..., E) with E == n_eff, or E == 1 (one cell read in every
        column), or n_eff == 1; it is overwritten.  Returns the reads,
        broadcast to (..., max(E, n_eff)), in out if given.
        """
        n_eff = values.shape[1]
        # one flat offset into values.ravel() per point, at the low
        # neighbour; the high one sits n_eff further on
        flat = cell
        flat *= n_eff
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
        vals = np.add(part, 0.0, out=out)
        part = np.take(flat_values[n_eff:], flat, out=part, mode="clip")
        part *= w_hi
        vals += part
        return vals

    def exits(self, pos):
        """Points of pos (..., 1) below the first node and beyond the last.

        Returns the two counts by locate's own comparisons, so they sum
        to the points it marks outside.
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
        """Greedy policy holding a value surface's lattice and argmins."""
        if surface.argmin is None:
            raise ValueError("surface carries no argmin tables")
        return cls("feedback", (surface.lattice, surface.argmin),
                   surface.collapsed)

    def indices_at(self, k, states):
        """Control index at knot k for states (..., E, 1)."""
        if self.kind == "constant":
            return self.data
        if self.kind == "open-loop":
            return self.data[k]
        lattice, argmin = self.data
        table = argmin.get(k)
        if table is None:
            raise ValueError(f"no argmin table stored at knot {k}")
        flat = lattice.nearest_flat(states)
        eff = np.arange(table.shape[1])
        return table[flat, eff]

    def lattice_indices(self, k, lattice, n_eff):
        """Control index at knot k at each lattice point, (n_points, n_eff).

        Feedback reads its argmin table: on its own lattice a node is its
        own nearest node.  The other kinds do not read the state.  Returns
        a read-only view, in the stored integer type.
        """
        if self.kind != "feedback":
            idx = self.indices_at(k, None)
        elif self.data[0] is not lattice:
            raise ValueError("feedback policy built on a different lattice")
        elif k not in self.data[1]:
            raise ValueError(f"no argmin table stored at knot {k}")
        else:
            idx = self.data[1][k]
        return np.broadcast_to(idx, (lattice.n_points, n_eff))


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


class _ControlImages:
    """Lattice reads at Euler images that every path column shares.

    beta (n_rows, n_points) is a _node_tables drift table; the image of
    node i under row r is x_i + dt * beta[r, i], located by
    BoxLattice.locate, so a read has interp's arithmetic bit for bit.
    outside marks the (row, node) images beyond the box.
    """

    def __init__(self, lattice, dt, beta):
        self.lattice = lattice
        pos = lattice.points[:, 0] + dt * beta
        self.cell, self.w_lo, self.w_hi, self.outside = lattice.locate(
            pos[..., None])

    def read(self, values, rows):
        """values (n_points, n_eff) read at flat (row, node) offsets
        rows (n_points, E), E == n_eff or 1."""
        return self.lattice.gather(values, np.take(self.cell, rows),
                                   np.take(self.w_lo, rows),
                                   np.take(self.w_hi, rows))


def _sweep_knots(coeffs, ensemble, lattice, basis, step, diagnostics):
    """Backward recursion on a lattice, shared by value and policy costs.

    From the pathwise terminal cost, calls step(k, t, w, op, V, exits)
    for k = n-1, ..., 0 with V the knot-(k+1) slice, op the knot-k
    projection (None for path-free coefficients) and exits the knot's
    row of an (n_steps, n_controls) table, which step adds each
    control's reads outside the box to.  step returns the knot-k slice,
    a thunk of the pathwise realizations behind it and its number of
    reads.  Yields (k, V_k, stats) for k = n, ..., 0, holding only the
    slice the next step reads; stats() is their path mean and SE, one
    _path_mean_se call on the caller at its first call, and valid until
    the generator advances.  Every count is of reads: a node image that
    a control shares with n path columns is n reads.  At the end
    diagnostics gets clamp_fraction, the exits over the reads, and the
    exits table.
    """
    grid = ensemble.grid
    n = grid.n_steps
    regress = not coeffs.deterministic
    n_eff = ensemble.n_paths if regress else 1
    if basis is None and regress:
        basis = polynomial_basis()

    x_eval = lattice.points[:, None, :]
    wT = None if coeffs.deterministic else ensemble.slice_at(n, terminal_ok=True)
    V = np.broadcast_to(np.asarray(coeffs.G(x_eval, wT), float),
                        (lattice.n_points, n_eff)).copy()
    exits = np.zeros((n, coeffs.n_controls), np.int64)
    reads = 0

    realize = lambda: V     # the terminal cost is its own realization
    for k in range(n, -1, -1):
        if k < n:
            t = grid.knots[k]
            w = None if coeffs.deterministic else ensemble.slice_at(k)
            op = CondExpOperator(ensemble, k, basis) if regress else None
            realize = None      # the last knot's thunk dies before the step
            V, realize, n_reads = step(k, t, w, op, V, exits[k])
            reads += n_reads
        yield k, V, functools.cache(lambda: _path_mean_se(realize()))

    diagnostics.update(clamp_fraction=int(exits.sum()) / max(reads, 1),
                       exits=exits)


def _backward_sweep(coeffs, ensemble, lattice, store_knots, knots,
                    diagnostics, argmin=None):
    """_sweep_knots' knots and stats as a ValueSurface.  store_knots "all"
    keeps every pathwise slice; "auto" thins them out as value_V describes."""
    grid = ensemble.grid
    n = grid.n_steps
    n_eff = 1 if coeffs.deterministic else ensemble.n_paths
    fits = (n + 1) * lattice.n_points * n_eff <= AUTO_STORE_BUDGET
    keep = range(n + 1) if store_knots == "all" or fits else grid.subgrid()

    slices, rows = {}, {}
    for k, V, stats in knots:   # the sweep checks its input before knot n
        rows[k] = stats()
        if k in keep:
            slices[k] = V.copy()
    mean, se = map(np.array, zip(*map(rows.get, range(n + 1))))
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
            noise_ensemble=None, pool=None):
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
    pool : optional concurrent.futures executor.  At every regression
        knot the upper half of the controls is scored on it while the
        calling thread scores the lower half (_split_argmin).  Each
        control's read keeps its shape, so no projection changes its
        arithmetic; deterministic sets score on the caller only.  Under
        noise picks are read in the same two halves of node rows at any
        worker count, the upper one on the pool.  The surface is the same
        bit for bit with or without a pool.

    Each knot reads beta and f, which have one value per node, as
    (control x node) tables from the set's lines (a MollifiedSet
    evaluates each control on the nodes), then scores, picks and reads
    once.  A read regime scores every control; _running_argmin picks
    each point's lowest score, ties to the lowest control; and the next
    slice is read once more, at each point's own control, which with the
    running cost gives the knot's pathwise realizations (its stats).  The
    knot's slice is the picked score, or on one column the path mean of
    that read; _value_knots streams the sweep.  The read regimes:

    * Without noise every path column shares a node's Euler image, so a
      control's read is a combination of rows of the next slice, which
      commutes with the projection (Gobet, Lemor & Warin, Ann. Appl.
      Probab. 15, 2005).  Each control is scored from rows read at its
      images: after the first regression knot, rows of the slice's
      projection coefficients, then predicted; at regression knot 0 the
      slice's rows, then projected (a path mean); on a deterministic set
      the slice's rows.  After the first regression knot the projections
      move by roundoff, and with them the earlier knots' slices, means
      and se (within 1e-12); that can flip a choice only at a near-tie.
      The pick is read from the same located images.
    * Under noise each control's images are read path by path, then
      projected (averaged, on a deterministic set); the pick is read by
      one interpolation at each point's own image.
    * A deterministic problem under noise at a knot where every
      control's dt * beta is the same at all lattice nodes.  There each
      control's path mean is a stencil of the one-column slice (see
      _stencil_means), so mean, se and the slice match the path-by-path
      reads bit for bit unless a roundoff near-tie flips a choice;
      lattice exits are counted on the nodes near the faces.

    Returns a ValueSurface whose terminal slice is the exact pathwise
    terminal cost and whose int8/int16 argmin tables, which feedback
    policies read, cover every knot; diagnostics["exits"] holds the
    exits per knot and control.  Pathwise slices are kept at every knot
    within AUTO_STORE_BUDGET, else on the grid's subgrid.

    diagnostics["clamp_fraction"] is the share of reads (one per node,
    path column and control) whose Euler image left the box; above
    CLAMP_BUDGET the sweep raises AccuracyError, which names the knot
    with the most exits, its control and face.
    """
    argmins, diagnostics = {}, {}
    return _backward_sweep(coeffs, ensemble, lattice, "auto", _value_knots(
        coeffs, ensemble, lattice, argmins, diagnostics, basis, noise_level,
        noise_ensemble, pool), diagnostics, argmin=argmins)


def _value_knots(coeffs, ensemble, lattice, argmins, diagnostics, basis=None,
                 noise_level=0.0, noise_ensemble=None, pool=None):
    """value_V's sweep and clamp check; argmins gets each knot's table."""
    if noise_level and noise_ensemble is None:
        raise ValueError("noise_level > 0 needs a noise ensemble")
    if lattice.n_points * max(ensemble.n_paths, 1) > AUTO_STORE_BUDGET:
        raise CapacityError("lattice x paths working set exceeds budget")

    dt = ensemble.grid.dt
    x_eval = lattice.points[:, None, :]
    idx_dtype = np.int8 if coeffs.n_controls <= 127 else np.int16
    one_column = bool(coeffs.deterministic and noise_level)
    # only regression knots score (n_points, n_paths) arrays: split those
    split = None if coeffs.deterministic else pool

    def image(k, b, nodes=slice(None)):
        # Euler images of the lattice nodes under the node drifts
        # b (n_points, E), plus the knot-k noise
        pos = x_eval[nodes] + dt * b[nodes, :, None]
        if noise_level:
            pos = pos + noise_level * noise_ensemble.increments[:, k, :]
        return pos

    def step(k, t, w, op, V, exits):
        beta, fv = _node_tables(coeffs, t, x_eval, w, range(coeffs.n_controls))
        fv *= dt
        if not noise_level:
            images = _ControlImages(lattice, dt, beta)
            best, idx = node_scores(k, op, V, images, fv, exits)
        elif one_column and (dt * beta == dt * beta[:, :1]).all():
            best, idx = stencil_scores(k, V, beta, fv, exits)
        else:
            best, idx = path_scores(k, op, V, beta, fv, exits)
        argmins[k] = idx

        def realize():
            rows = _table_rows(idx, lattice.n_points)
            if noise_level:
                return pick_read(k, V, np.take(beta, rows), np.take(fv, rows))
            raw = images.read(V, rows)
            raw += np.take(fv, rows)
            return raw
        if one_column:                      # the slice is its path mean
            raw = realize()
            best, realize = raw.mean(axis=-1, keepdims=True), lambda: raw
        # every control read every node and path column once
        return best, realize, coeffs.n_controls * lattice.n_points * max(
            V.shape[1], noise_ensemble.n_paths if noise_level else 1)

    def pick_read(k, V, beta, fv):
        # interp at each point's own image, plus its running cost, in two
        # halves of node rows: elementwise, so the bits of one read
        def read(lo, hi):
            raw, _ = lattice.interp(V, image(k, beta, slice(lo, hi)))
            raw += fv[lo:hi]
            return raw

        return np.concatenate(_halves(read, lattice.n_points, pool))

    def node_scores(k, op, V, images, fv, exits):
        # every column reads a node at the same image, so each control's
        # read is a combination of rows of the slice, and so is its
        # projection: after knot 0 project the slice once and read its
        # coefficients
        exits += np.count_nonzero(images.outside, axis=1) * V.shape[1]
        if op is None:                      # the read is the score
            table, finish = V, np.asarray
        elif k == 0:                        # a path mean
            table, finish = V, op.apply
        else:
            table, finish = op.coefficients(V), op.predict

        def score(j):
            total = finish(images.read(table,
                                       _table_rows(j, lattice.n_points)))
            total += fv[j][:, None]
            return total

        return _split_argmin(score, coeffs.n_controls, idx_dtype, split)

    def path_scores(k, op, V, beta, fv, exits):
        def score(j):
            vals, n_out = lattice.interp(V, image(k, beta[j][:, None]))
            exits[j] += n_out       # control j is scored on one thread
            if one_column:
                vals += fv[j][:, None]
                return vals.mean(axis=-1, keepdims=True)
            cont = op.apply(vals)
            cont += fv[j][:, None]
            return cont

        return _split_argmin(score, coeffs.n_controls, idx_dtype, split)

    def stencil_scores(k, V, beta, fv, exits):
        n = lattice.n_points
        dB = noise_level * noise_ensemble.increments[:, k, 0]
        z = (dt * beta[:, 0, None] + dB) / lattice.h
        # a shift of |z| cells can only carry the nodes that close to a
        # face out of the box: count all exits on the widest such band
        node, reach = np.arange(n), np.ceil(np.abs(z).max()) + 1
        edge = (node < reach) | (node >= n - reach)
        u = lattice._cells(x_eval[edge] + dt * beta[:, edge, None, None]
                           + noise_level * noise_ensemble.increments[:, k, :])
        exits += np.count_nonzero((u < 0.0) | (u > n - 1), axis=(1, 2))
        totals = _stencil_means(V[:, 0], z) + fv.T
        return _running_argmin(totals.T[..., None], idx_dtype)

    yield from _sweep_knots(coeffs, ensemble, lattice, basis, step,
                            diagnostics)
    frac = diagnostics["clamp_fraction"]
    if frac > CLAMP_BUDGET:
        # name the knot with the most exits, its worst control, and the
        # face that control's Euler images crossed most; ties go to the
        # lowest knot and control
        exits = diagnostics["exits"]
        k = int(np.argmax(exits.sum(axis=1)))
        j = int(np.argmax(exits[k]))
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        beta, _ = _node_tables(coeffs, ensemble.grid.knots[k], x_eval, w, [j])
        faces = lattice.exits(image(k, beta.T))
        side = int(np.argmax(faces))
        raise AccuracyError(
            f"{100 * frac:.2f}% of lattice evaluations left the box (budget "
            f"{100 * CLAMP_BUDGET:.1f}%); most exits at knot {k}: control "
            f"{j}, face x0 {('lo', 'hi')[side]} ({faces[side]} exits); "
            f"enlarge the lattice"
        )


def _value_lipschitz(coeffs, T):
    """Declared Lipschitz bound e^{L T} L (T + 1) of the value in x."""
    return float(np.exp(coeffs.L * T) * coeffs.L * (T + 1.0))


def _structure_lipschitz(coeffs, ensemble):
    """x-Lipschitz bound e^{sum_k |b(t_k)| dt} (lip_x + sum_k |b^f(t_k)| dt)
    of the value, from the slopes of the set's lines (its maps' slopes,
    for a set without lines) at the knots.

    A standard Gronwall bound derived here, not taken from the paper:
    each Euler step moves two states apart by 1 + b dt under every
    control and their running costs by at most |b^f| dt, and G by at most
    lip_x.  The projections of a regression knot need not keep it.
    """
    grid = ensemble.grid
    x = np.array([[[0.0]], [[1.0]]])
    slopes = []
    for k, t in enumerate(grid.knots[:-1]):
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        beta, f = _node_tables(coeffs, t, x, w, [0])    # at x = 0 and 1
        slopes.append((beta[0, 1] - beta[0, 0], f[0, 1] - f[0, 0]))
    drift, cost = np.abs(slopes).sum(axis=0) * grid.dt
    return float(np.exp(drift) * (coeffs.lip_x + cost))


# value_audit's slack on the supermartingale residuals and on the greedy
# rollout's excess cost, each before its 3 SE cushion
SUPERMARTINGALE_TOL = 0.01
EPS_REPORT_TOL = 0.05


def value_audit(coeffs, ensemble, surface, starts):
    """Structural checks on a value surface.

    * supermartingale residuals E[V(s~, X_s~) + running cost] - E[V(s, X_s)]
      are >= -(SUPERMARTINGALE_TOL + 3 SE) for the greedy and the
      last-control policies and every pair of knots on the grid's subgrid,
      which every value surface stores, expectations taken over
      paths and the start batch jointly; the per-start extreme is
      reported separately as a diagnostic (it carries the O(h) lattice
      bias concentrated at terminal-cost kinks);
    * sup |V| stays within L (T + 1) (+ 3 SE);
    * lattice Lipschitz quotients stay within the declared bound
      e^{LT} L (T + 1); the report also gives, as
      lipschitz_bound_structure, the bound the set's lines give (see
      _structure_lipschitz), which the check does not use;
    * the greedy argmin policy is eps_report-optimal at the starts: its
      rollout cost, the path mean of the running cost plus the terminal
      cost, exceeds V(0, start) by at most EPS_REPORT_TOL (+ 3 SE).

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
                worst = min(worst, float(r + SUPERMARTINGALE_TOL + 3.0 * sig))
                per_start = term.mean(axis=-1)
                worst_pointwise = min(worst_pointwise,
                                      float(per_start.min()) + SUPERMARTINGALE_TOL)
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
    eps_ok = bool((gaps <= EPS_REPORT_TOL + 3.0 * (cost_se + surface.se[0].max())).all())

    return {
        "supermartingale_margin": worst,
        "supermartingale_pointwise": worst_pointwise,
        "supermartingale_ok": bool(supermartingale_ok),
        "sup_value": sup_V,
        "value_bound": L * (T + 1.0),
        "bound_ok": bool(bound_ok),
        "lipschitz_observed": lip,
        "lipschitz_bound": lipschitz_bound,
        "lipschitz_bound_structure": _structure_lipschitz(coeffs, ensemble),
        "lipschitz_ok": bool(lipschitz_ok),
        "eps_report": eps_obs,
        "eps_ok": eps_ok,
        "passed": bool(supermartingale_ok and bound_ok and lipschitz_ok and eps_ok),
    }
