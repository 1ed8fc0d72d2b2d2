"""Simulated filtered probability space.

Uniform time grids, seeded Brownian ensembles, and least-squares
regression surrogates for conditional expectations, in the style of
Longstaff-Schwartz.  Everything is deterministic given (seed, shape):
under ``cli.run`` the same inputs reproduce the same bits on any host;
library calls outside it follow the caller's BLAS thread count, which
can move the projections' last bits.

Classes
-------
TimeGrid        uniform knots 0 = t_0 < ... < t_n = T
WienerEnsemble  n_paths independent m-dimensional Brownian paths
PathSlice       read-only view of path history up to a knot
CondExpOperator pre-factorized projector for one knot, onto the
                powers of W that polynomial_basis returns
"""

from __future__ import annotations

import struct

import numpy as np

from .exceptions import CapacityError

__all__ = [
    "TimeGrid",
    "WienerEnsemble",
    "PathSlice",
    "CondExpOperator",
    "sample_ensemble",
    "subset_paths",
    "polynomial_basis",
]

# binary ensemble container: magic, m, n_steps, n_paths, seed, T
_MAGIC = b"SHJ1"
_HEADER = struct.Struct("<4sQQQQd")

# refuse ensembles beyond ~2 GiB of increments (see _check_size)
MAX_ELEMENTS = 250_000_000
_DRAW_PATHS = 16_384       # paths per block in sampling and in save


class TimeGrid:
    """Uniform partition of [0, T] into n_steps steps."""

    __slots__ = ("T", "n_steps", "dt", "knots")

    def __init__(self, T, n_steps):
        T = float(T)
        n_steps = int(n_steps)
        if not np.isfinite(T) or T <= 0.0:
            raise ValueError("horizon T must be positive and finite")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.T = T
        self.n_steps = n_steps
        self.dt = T / n_steps
        self.knots = np.linspace(0.0, T, n_steps + 1)
        self.knots.setflags(write=False)

    def index_of(self, t):
        """Knot index of time t; raises if t is not a knot."""
        k = int(round(float(t) / self.dt))
        if not 0 <= k <= self.n_steps or abs(self.knots[k] - t) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"t={t!r} is not a knot of this grid")
        return k

    def subgrid(self):
        """Every (n_steps // 8)-th knot and the horizon: about nine knots."""
        n = self.n_steps
        return sorted(set(range(0, n + 1, max(1, n // 8))) | {n})

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.n_steps == other.n_steps
            and self.T == other.T
        )


class WienerEnsemble:
    """A batch of independent Brownian paths sampled on a TimeGrid.

    Increments have law N(0, dt * I_m), stored knot-major, so the
    cross-path read at a knot is a contiguous row; ``increments`` is
    their transposed view with the path-major shape (n_paths, n_steps, m).
    W, their running sum from W_0 = 0, is stored at every s-th knot only,
    s = ceil(sqrt(n_steps)); ``value_at`` replays the knots in between and
    keeps the last replayed row, so the readers of one knot share it.
    """

    __slots__ = ("grid", "m", "n_paths", "seed", "increments", "_s", "_w",
                 "_row")

    def __init__(self, grid, m, n_paths, seed, increments):
        self.grid = grid
        self.m = int(m)
        self.n_paths = int(n_paths)
        self.seed = int(seed)
        if increments.shape != (self.n_paths, grid.n_steps, self.m):
            raise ValueError("increment array shape mismatch")
        # no copy when the caller hands in a knot-major buffer's transpose
        inc = np.ascontiguousarray(increments.transpose(1, 0, 2), dtype=float)
        inc.setflags(write=False)
        self.increments = inc.transpose(1, 0, 2)
        self._s = int(np.ceil(np.sqrt(grid.n_steps)))
        self._w = np.zeros((grid.n_steps // self._s + 1,) + inc.shape[1:])
        for j in range(1, len(self._w)):
            self._w[j] = self._replay(j * self._s)
        self._w.setflags(write=False)
        self._row = (0, self._w[0])

    def _replay(self, k):
        """W at knot k > 0, added up from the checkpoint below in the order
        of np.cumsum, whose first row is dW_0 itself, not 0 + dW_0."""
        c = (k - 1) // self._s * self._s
        w = (self._w[c // self._s] + self.increments[:, c] if c
             else self.increments[:, 0].copy())
        for i in range(c + 1, k):
            w += self.increments[:, i]
        w.setflags(write=False)
        return w

    def value_at(self, k):
        """Path values at knot k, shape (n_paths, m): a contiguous,
        read-only row, from at most s - 1 row adds."""
        if not 0 <= k <= self.grid.n_steps:
            raise IndexError(f"knot {k} is not in 0..{self.grid.n_steps}")
        if not k % self._s:
            return self._w[k // self._s]
        # one (knot, row) tuple: no thread pairs a knot with another's row
        row = self._row
        if row[0] != k:
            self._row = row = (k, self._replay(k))
        return row[1]

    def slice_at(self, k, terminal_ok=False):
        return PathSlice(self, k, terminal_ok=terminal_ok)

    def save(self, path):
        """Write a little-endian binary container, increments path-major,
        copied and written one block of paths at a time."""
        header = _HEADER.pack(
            _MAGIC, self.m, self.grid.n_steps, self.n_paths, self.seed, self.grid.T
        )
        with open(path, "wb") as fh:
            fh.write(header)
            for p in range(0, self.n_paths, _DRAW_PATHS):
                fh.write(np.ascontiguousarray(
                    self.increments[p:p + _DRAW_PATHS], "<f8"))


def _check_size(m, n_paths, n_steps):
    """Reject ensembles without a Brownian coordinate, with fewer than two
    paths (no sample statistics), or over the MAX_ELEMENTS budget.  At the
    budget an ensemble holds about 2 GiB of increments, W's checkpoints add
    1/ceil(sqrt(n_steps)) of that, and sampling one draw block more."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_paths * n_steps * m > MAX_ELEMENTS:
        raise CapacityError(
            f"ensemble of {n_paths}x{n_steps}x{m} increments exceeds budget"
        )


def sample_ensemble(grid, m, n_paths, seed):
    """Draw a fresh Brownian ensemble.

    Parameters
    ----------
    grid : TimeGrid
    m : int
        Brownian dimension (>= 1).
    n_paths : int
        Number of paths (>= 2 so that sample statistics exist).
    seed : int
        PCG64 stream seed; identical seeds give bit-identical ensembles.
    """
    m = int(m)
    n_paths = int(n_paths)
    _check_size(m, n_paths, grid.n_steps)
    rng = np.random.default_rng(int(seed))
    # drawn path-major, which fixes the stream, in blocks of whole paths,
    # which keeps it; scaled into knot-major rows
    inc = np.empty((grid.n_steps, n_paths, m))
    for p in range(0, n_paths, _DRAW_PATHS):
        rows = inc[:, p:p + _DRAW_PATHS].transpose(1, 0, 2)
        np.multiply(rng.standard_normal(rows.shape), np.sqrt(grid.dt), out=rows)
    return WienerEnsemble(grid, m, n_paths, int(seed), inc.transpose(1, 0, 2))


def subset_paths(ensemble, index):
    """New ensemble restricted to the given path indices."""
    # a gather of whole knot-major rows, the one copy made
    rows = np.arange(ensemble.n_paths)[index]
    inc = np.take(ensemble.increments.transpose(1, 0, 2), rows, axis=1)
    if inc.ndim != 3 or inc.shape[1] < 2:
        raise ValueError("path subset must keep at least two paths")
    return WienerEnsemble(ensemble.grid, ensemble.m, inc.shape[1],
                          ensemble.seed, inc.transpose(1, 0, 2))


class PathSlice:
    """History of an ensemble up to a fixed knot.

    Coefficient callables receive one of these instead of the raw
    ensemble, so reading past the current knot is a structural error
    rather than a silent bug.  Terminal access is granted only to
    payoff evaluation.
    """

    __slots__ = ("ensemble", "k", "terminal_ok")

    def __init__(self, ensemble, k, terminal_ok=False):
        self.ensemble = ensemble
        self.k = int(k)
        self.terminal_ok = bool(terminal_ok)

    @property
    def n_paths(self):
        return self.ensemble.n_paths

    @property
    def current(self):
        """W at the slice knot, shape (n_paths, m)."""
        return self.ensemble.value_at(self.k)

    @property
    def terminal(self):
        """W at the horizon; allowed only if the slice was opened terminal_ok."""
        if not self.terminal_ok:
            raise ValueError("terminal value requested from a non-terminal slice")
        return self.ensemble.value_at(self.ensemble.grid.n_steps)

    def at(self, t):
        """W at a knot <= the slice knot (or any knot when terminal_ok)."""
        j = self.ensemble.grid.index_of(t)
        if j > self.k and not self.terminal_ok:
            raise ValueError(f"knot {j} is in the future of this slice (k={self.k})")
        return self.ensemble.value_at(j)


def _path_mean_se(a):
    """Mean of a over its last (path) axis and the standard error of that
    mean; the error is 0 for a single column."""
    mean = a.mean(axis=-1)
    n = a.shape[-1]
    if n == 1:
        return mean, np.zeros(mean.shape)
    return mean, a.std(axis=-1, ddof=1) / np.sqrt(n)


class _PowerBasis:
    """Powers of the current Brownian value, designed in one pass.

    Row p of the (F, n_paths) design is row p - 1 times row 1, which is
    w, so no feature goes through ``pow``.
    """

    def __init__(self, degree):
        self.names = ["1"] + [f"w^{p}" for p in range(1, degree + 1)]

    def design(self, ensemble, k):
        if ensemble.m != 1:
            raise ValueError("polynomial_basis needs a one-dimensional "
                             f"ensemble, got m={ensemble.m}")
        phi = np.empty((len(self.names), ensemble.n_paths))
        phi[0] = 1.0
        phi[1:2] = ensemble.value_at(k)[:, 0]      # no row 1 at degree 0
        for p in range(2, len(self.names)):
            np.multiply(phi[p - 1], phi[1], out=phi[p])
        return phi.T


def polynomial_basis(degree=3):
    """Powers 1, w, ..., w^degree of the current Brownian value.

    Powers are running products, never ``**``: w^3 is (w*w)*w.  The
    design reads W once per knot, and an ensemble with m != 1 raises.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return _PowerBasis(degree)


class CondExpOperator:
    """Least-squares conditional-expectation surrogate at one knot.

    Keeps the design phi and the F x F inverse of the normal equations,
    so many target batches project cheaply, in two passes over the
    design: coef = (targets @ phi) @ inv.T, then coef @ phi.T.
    Singular designs fall back to ridge with
    lambda = 1e-8 * trace(G)/n_features and set ``used_ridge``.
    At knot 0 the sigma-algebra is trivial and the operator is the
    plain sample mean whatever the basis.
    """

    def __init__(self, ensemble, k, basis):
        self.k = int(k)
        self.n_paths = ensemble.n_paths
        self.used_ridge = False
        if self.k == 0:
            self.design = None
            self._inv = None
            return
        phi = basis.design(ensemble, self.k)
        if not np.isfinite(phi).all():
            raise ValueError("non-finite basis features")
        self.design = phi
        gram = phi.T @ phi
        lam = 0.0
        # relative rank test on the Gram spectrum
        w = np.linalg.eigvalsh(gram)
        if w[0] <= 1e-12 * max(w[-1], 1e-300):
            lam = 1e-8 * np.trace(gram) / gram.shape[0]
            self.used_ridge = True
        self._inv = np.linalg.inv(gram + lam * np.eye(gram.shape[0]))

    def apply(self, targets):
        """Project targets onto the span of the features.

        targets may be (n_paths,) or (..., n_paths); projection acts on
        the last axis.  Returns predictions of the same shape.
        """
        if self.k == 0:
            targets = self._checked(targets)
            mean = targets.mean(axis=-1, keepdims=True)
            return np.broadcast_to(mean, targets.shape).copy()
        return self.predict(self.coefficients(targets))

    def coefficients(self, targets):
        """Coefficients (..., n_features) of the projection of targets
        (..., n_paths) on the features; knots after the first only."""
        return (self._checked(targets) @ self.design) @ self._inv.T

    def predict(self, coef):
        """The projection (..., n_paths) that coefficients coef describe."""
        return coef @ self.design.T

    def _checked(self, targets):
        targets = np.asarray(targets, float)
        if targets.shape[-1] != self.n_paths:
            raise ValueError("targets last axis must equal n_paths")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite regression targets")
        return targets
