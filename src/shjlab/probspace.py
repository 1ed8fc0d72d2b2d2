"""Simulated filtered probability space.

Uniform time grids, seeded Brownian ensembles, and least-squares
regression surrogates for conditional expectations, in the style of
Longstaff-Schwartz.  Everything is deterministic given (seed, shape):
the same inputs always reproduce the same bits.

Classes
-------
TimeGrid        uniform knots 0 = t_0 < ... < t_n = T
WienerEnsemble  n_paths independent m-dimensional Brownian paths
PathSlice       read-only view of path history up to a knot
RegressionBasis ordered feature maps on path prefixes
CondExpOperator pre-factorized projector for one knot
"""

from __future__ import annotations

import itertools
import struct

import numpy as np

from .exceptions import CapacityError

__all__ = [
    "TimeGrid",
    "WienerEnsemble",
    "PathSlice",
    "RegressionBasis",
    "CondExpOperator",
    "sample_ensemble",
    "merge_ensembles",
    "subset_paths",
    "polynomial_basis",
    "cond_expect",
]

# binary ensemble container: magic, m, n_steps, n_paths, seed, T
_MAGIC = b"SHJ1"
_HEADER = struct.Struct("<4sQQQQd")

# refuse ensembles beyond ~2 GiB of increments
MAX_ELEMENTS = 250_000_000


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
        if isinstance(t, (int, np.integer)):
            k = int(t)
            if not 0 <= k <= self.n_steps:
                raise ValueError(f"knot index {k} outside [0, {self.n_steps}]")
            return k
        k = int(round(float(t) / self.dt))
        if not 0 <= k <= self.n_steps or abs(self.knots[k] - t) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"t={t!r} is not a knot of this grid")
        return k

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.n_steps == other.n_steps
            and self.T == other.T
        )

    def __repr__(self):
        return f"TimeGrid(T={self.T}, n_steps={self.n_steps})"


class WienerEnsemble:
    """A batch of independent Brownian paths sampled on a TimeGrid.

    Increments have law N(0, dt * I_m) and are stored path-major with
    shape (n_paths, n_steps, m).  Values at knots are the running sums
    with W_0 = 0.
    """

    __slots__ = ("grid", "m", "n_paths", "seed", "increments", "_values")

    def __init__(self, grid, m, n_paths, seed, increments):
        self.grid = grid
        self.m = int(m)
        self.n_paths = int(n_paths)
        self.seed = int(seed)
        if increments.shape != (self.n_paths, grid.n_steps, self.m):
            raise ValueError("increment array shape mismatch")
        self.increments = increments
        self.increments.setflags(write=False)
        vals = np.zeros((self.n_paths, grid.n_steps + 1, self.m))
        np.cumsum(increments, axis=1, out=vals[:, 1:, :])
        vals.setflags(write=False)
        self._values = vals

    @property
    def values(self):
        """Path values at all knots, shape (n_paths, n_steps + 1, m)."""
        return self._values

    def value_at(self, k):
        """Path values at knot k, shape (n_paths, m)."""
        return self._values[:, k, :]

    def slice_at(self, k, terminal_ok=False):
        return PathSlice(self, k, terminal_ok=terminal_ok)

    def with_permuted_future(self, k, perm):
        """Copy with increments at step indices >= k permuted across paths.

        Leaves every path's history up to knot k untouched; used by
        adaptedness audits (anything measurable at knot k must be
        bit-identical under this operation).
        """
        inc = self.increments.copy()
        inc[:, k:, :] = inc[perm, k:, :]
        return WienerEnsemble(self.grid, self.m, self.n_paths, self.seed, inc)

    def save(self, path):
        """Write the ensemble to a little-endian binary container."""
        header = _HEADER.pack(
            _MAGIC, self.m, self.grid.n_steps, self.n_paths, self.seed, self.grid.T
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(self.increments, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise ValueError("truncated ensemble file")
            magic, m, n_steps, n_paths, seed, T = _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            body = fh.read()
        expect = n_paths * n_steps * m * 8
        if len(body) != expect:
            raise ValueError(f"ensemble body has {len(body)} bytes, expected {expect}")
        inc = np.frombuffer(body, dtype="<f8").astype(float).reshape(n_paths, n_steps, m)
        return cls(TimeGrid(T, n_steps), m, n_paths, seed, inc)


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
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if n_paths * grid.n_steps * m > MAX_ELEMENTS:
        raise CapacityError(
            f"ensemble of {n_paths}x{grid.n_steps}x{m} increments exceeds budget"
        )
    rng = np.random.default_rng(int(seed))
    inc = rng.standard_normal((n_paths, grid.n_steps, m)) * np.sqrt(grid.dt)
    return WienerEnsemble(grid, m, n_paths, int(seed), inc)


def merge_ensembles(first, second):
    """Stack two independent ensembles into one on the product space.

    Coordinates 0..m1-1 come from ``first``, the rest from ``second``.
    Both must share the grid and path count; independence is the
    caller's responsibility (distinct seeds).
    """
    if first.grid != second.grid:
        raise ValueError("ensembles live on different grids")
    if first.n_paths != second.n_paths:
        raise ValueError("ensembles have different path counts")
    inc = np.concatenate([first.increments, second.increments], axis=-1)
    return WienerEnsemble(
        first.grid, first.m + second.m, first.n_paths, first.seed, inc
    )


def subset_paths(ensemble, index):
    """New ensemble restricted to the given path indices."""
    inc = np.ascontiguousarray(ensemble.increments[np.asarray(index)])
    if inc.ndim != 3 or inc.shape[0] < 2:
        raise ValueError("path subset must keep at least two paths")
    return WienerEnsemble(
        ensemble.grid, ensemble.m, inc.shape[0], ensemble.seed, inc
    )


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


class RegressionBasis:
    """Ordered list of feature maps on path prefixes.

    Each feature map is called as fm(ensemble, k) and must return a
    scalar or an (n_paths,) array that reads only path data up to knot k.
    """

    def __init__(self, feature_maps, names=None):
        if not feature_maps:
            raise ValueError("at least one feature map required")
        self.feature_maps = list(feature_maps)
        self.names = list(names) if names is not None else [
            f"phi{i}" for i in range(len(feature_maps))
        ]
        if len(self.names) != len(self.feature_maps):
            raise ValueError("names/feature_maps length mismatch")

    def __len__(self):
        return len(self.feature_maps)

    def design(self, ensemble, k):
        """Feature matrix at knot k, shape (n_paths, n_features)."""
        n = ensemble.n_paths
        cols = np.empty((n, len(self.feature_maps)))
        for j, fm in enumerate(self.feature_maps):
            cols[:, j] = np.broadcast_to(np.asarray(fm(ensemble, k), float), (n,))
        return cols


def _monomial_exponents(n_vars, degree):
    out = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            alpha = [0] * n_vars
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def polynomial_basis(degree=3, coords=None):
    """Monomials of the current Brownian value up to a total degree.

    The first feature is the constant 1; then all monomials of the
    selected W coordinates of total degree 1..degree.  coords=None
    selects coordinate 0 of a one-dimensional ensemble; multi-d
    ensembles must name their coordinates.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    one_d = coords is None
    if one_d:
        coords = (0,)

    def make(alpha):
        def fm(ens, k):
            if one_d and ens.m != 1:
                raise ValueError("polynomial_basis needs coords when m > 1")
            w = ens.value_at(k)
            out = None
            for c, p in zip(coords, alpha):
                if p:
                    # from the first factor on: a pure power is w ** p
                    term = w[:, c] ** p
                    out = term if out is None else out * term
            return out

        return fm

    maps = [lambda ens, k: 1.0]
    names = ["1"]
    for alpha in _monomial_exponents(len(coords), degree):
        maps.append(make(alpha))
        names.append("w^" + "".join(map(str, alpha)))
    return RegressionBasis(maps, names)


class CondExpOperator:
    """Least-squares conditional-expectation surrogate at one knot.

    Factorizes the normal equations once so many target batches can be
    projected cheaply.  Singular designs fall back to ridge with
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
            self._solve = None
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
        self._solve = np.linalg.inv(gram + lam * np.eye(gram.shape[0])) @ phi.T

    def apply(self, targets):
        """Project targets onto the span of the features.

        targets may be (n_paths,) or (..., n_paths); projection acts on
        the last axis.  Returns predictions of the same shape.
        """
        targets = np.asarray(targets, float)
        if targets.shape[-1] != self.n_paths:
            raise ValueError("targets last axis must equal n_paths")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite regression targets")
        if self.k == 0:
            mean = targets.mean(axis=-1, keepdims=True)
            return np.broadcast_to(mean, targets.shape).copy()
        coef = targets @ self._solve.T
        return coef @ self.design.T


def cond_expect(ensemble, t, targets, basis):
    """Regression estimate of E[targets | F_t] per path.

    Parameters
    ----------
    ensemble : WienerEnsemble
    t : float or int
        Knot time (or knot index) at which to condition.
    targets : (n_paths,) array
    basis : RegressionBasis
    """
    k = ensemble.grid.index_of(t)
    return CondExpOperator(ensemble, k, basis).apply(targets)
