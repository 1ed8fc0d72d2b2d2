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
CondExpOperator pre-factorized projector for one knot, onto the
                monomial features that polynomial_basis returns
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
    "CondExpOperator",
    "sample_ensemble",
    "subset_paths",
    "polynomial_basis",
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
        """Read an ensemble that save wrote.

        The header is checked as sample_ensemble checks its arguments,
        the size budget before the body is read; the increments must be
        finite.
        """
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) != _HEADER.size:
                raise ValueError("truncated ensemble file")
            magic, m, n_steps, n_paths, seed, T = _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            _check_size(m, n_paths, n_steps)
            grid = TimeGrid(T, n_steps)
            body = fh.read()
        expect = n_paths * n_steps * m * 8
        if len(body) != expect:
            raise ValueError(f"ensemble body has {len(body)} bytes, expected {expect}")
        inc = np.frombuffer(body, dtype="<f8").astype(float).reshape(n_paths, n_steps, m)
        if not np.isfinite(inc).all():
            raise ValueError("ensemble file holds non-finite increments")
        return cls(grid, m, n_paths, seed, inc)


def _check_size(m, n_paths, n_steps):
    """Reject ensembles without a Brownian coordinate, with fewer than two
    paths (no sample statistics), or over the MAX_ELEMENTS budget."""
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
    inc = rng.standard_normal((n_paths, grid.n_steps, m)) * np.sqrt(grid.dt)
    return WienerEnsemble(grid, m, n_paths, int(seed), inc)


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


def _monomial_exponents(n_vars, degree):
    out = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            alpha = [0] * n_vars
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


class _MonomialBasis:
    """Monomials of selected W coordinates, designed in one pass.

    Row j of the (F, n_paths) design is the left-to-right product of the
    earlier rows in ``_factors[j]``, so no feature goes through ``pow``.
    """

    def __init__(self, degree, coords, one_d):
        self.one_d = one_d
        exps = _monomial_exponents(len(coords), degree)
        self.names = ["1"] + ["w^" + "".join(map(str, a)) for a in exps]
        # rows 1..len(coords) are W itself; degree 0 reads no W at all
        self.coords = list(coords) if degree else []
        row = {a: j for j, a in enumerate(exps, 1)}

        def pure(c, p):
            return row[tuple(p * (i == c) for i in range(len(coords)))]

        self._factors = {}
        for alpha in exps[len(coords):]:
            nz = [c for c, p in enumerate(alpha) if p]
            if len(nz) == 1:
                c, = nz
                self._factors[row[alpha]] = [pure(c, alpha[c] - 1), pure(c, 1)]
            else:
                self._factors[row[alpha]] = [pure(c, alpha[c]) for c in nz]

    def design(self, ensemble, k):
        if self.one_d and ensemble.m != 1:
            raise ValueError("polynomial_basis needs coords when m > 1")
        phi = np.empty((len(self.names), ensemble.n_paths))
        phi[0] = 1.0
        phi[1:len(self.coords) + 1] = ensemble.value_at(k)[:, self.coords].T
        for j, (first, *rest) in self._factors.items():
            np.multiply(phi[first], phi[rest[0]], out=phi[j])
            for f in rest[1:]:
                np.multiply(phi[j], phi[f], out=phi[j])
        return phi.T


def polynomial_basis(degree=3, coords=None):
    """Monomials of the current Brownian value up to a total degree.

    The first feature is the constant 1; then all monomials of the
    selected W coordinates of total degree 1..degree.  coords=None
    selects coordinate 0 of a one-dimensional ensemble; multi-d
    ensembles must name their coordinates.

    Powers are running products, never ``**``: w^3 is (w*w)*w, and a
    mixed monomial multiplies its pure powers in coords order, so
    w^21 is (w0*w0)*w1.  The design reads W once per knot.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    one_d = coords is None
    return _MonomialBasis(degree, (0,) if one_d else coords, one_d)


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
        targets = np.asarray(targets, float)
        if targets.shape[-1] != self.n_paths:
            raise ValueError("targets last axis must equal n_paths")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite regression targets")
        if self.k == 0:
            mean = targets.mean(axis=-1, keepdims=True)
            return np.broadcast_to(mean, targets.shape).copy()
        coef = (targets @ self.design) @ self._inv.T
        return coef @ self.design.T
