"""Controlled-ODE coefficient sets and the five built-in scenarios.

A coefficient set bundles the drift beta(t, x, v, w), running cost
f(t, x, v, w) and terminal cost G(x, w) of a control problem together
with the finite control grid and the declared uniform bound L.  The
path argument w is a PathSlice (None for path-independent sets), so a
coefficient can only read Brownian history up to the evaluation time
(terminal history for G).

Problems are one-dimensional: one state, one control and one Brownian
coordinate.  Shapes: x always carries an explicit trailing state axis
of length 1.  beta returns x.shape, f and G return x.shape[:-1].

Every set has the structure of the paper's control-only equation, and
its constructor checks it: the control enters additively,
beta = beta0(t, x) + c(v) and f = f0(t, x) + g(v), so min_v (beta p + f)
is beta0 p + f0 plus the lower envelope of the lines c(v) p + g(v);
beta and f are affine in x, which kernel averages reproduce; and
neither reads the path, so they have one value per node.  Only G may
read the path; it broadcasts an (n_paths,)-shaped factor into its result.

So a set is its lines: beta(t, x, v_j) = a_j(t) + b(t) x and
f(t, x, v_j) = a^f_j(t) + b^f(t) x, which every read of beta and f in the
library uses (_at_controls); a set without lines, such as a MollifiedSet,
is evaluated control by control instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .probspace import TimeGrid, WienerEnsemble

__all__ = [
    "CoefficientSet",
    "DECLARED",
    "scenario",
    "scenario_names",
    "inapplicable_pipelines",
    "control_grid",
    "reach_radius",
    "probe_lattice",
]

# the structure check's probe times, and its tolerance relative to the
# size of the probed values
_PROBE_TIMES = (0.0, 0.625)
_PROBE_TOL = 1e-12


def control_grid(lo=-1.0, hi=1.0, n_points=21):
    """Uniform finite control set on [lo, hi], shape (n_points, 1)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return np.linspace(lo, hi, n_points)[:, None]


def _one_component(x):
    """x as a float array whose trailing axis, of length 1, is the state."""
    x = np.asarray(x, float)
    if x.shape[-1:] != (1,):
        raise ValueError(f"points need a trailing state axis of length 1, "
                         f"got shape {x.shape}")
    return x


@dataclass
class CoefficientSet:
    """Drift/cost/terminal data of one control problem.

    Attributes
    ----------
    controls : (n_controls, 1) finite control set; ties in minimizations
        are broken toward the lowest row index.
    beta, f, G : vectorized callables, see module docstring.
    L : declared uniform bound (sup norms and Lipschitz constants of
        beta, f, G are all <= L); finite and positive.
    lip_x : spatial Lipschitz bound, 0 < lip_x <= L; used to size
        smoothing levels.
    drift_growth : (a, b), finite and >= 0, with |beta(t,x,v,w)| <= a + b|x|;
        gives the sharp reachable-set radius used for lattices and probe
        grids.
    deterministic : True when G does not read the path argument (beta
        and f never do).
    n_controls : number of rows of controls, set from them.

    The constructor raises ValueError on bad constants, and, naming the
    map and control, on a beta or f without the module docstring's
    structure: on probe_lattice of the reach of |x0| <= 1 over unit time,
    at two times (on paths that differ, unless deterministic), each must
    have one value per node, vanishing second differences in x, and a
    constant offset from control 0.  On a deterministic set, G, beta and
    f are probed with w=None, and a map that fails there is a ValueError
    naming it.
    """

    # the state dimension, a constant rather than a field: approximants
    # do not carry it over, and benchmark tracers read it on the base set
    d = 1

    controls: np.ndarray
    beta: Callable
    f: Callable
    G: Callable
    L: float
    lip_x: float
    drift_growth: tuple = (1.0, 0.0)
    deterministic: bool = True
    n_controls: int = field(init=False)

    def __post_init__(self):
        self.controls = np.atleast_2d(np.asarray(self.controls, float))
        if self.controls.shape[1] != 1:
            raise ValueError("controls must have shape (n_controls, 1)")
        self.n_controls = self.controls.shape[0]
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"declared bound L must be finite and positive, "
                             f"got {self.L!r}")
        if not 0 < self.lip_x <= self.L:
            raise ValueError(f"lip_x must lie in (0, L] = (0, {self.L!r}], "
                             f"got {self.lip_x!r}")
        growth = tuple(self.drift_growth)
        if len(growth) != 2 or not all(math.isfinite(c) and c >= 0
                                       for c in growth):
            raise ValueError(f"drift_growth must be two finite numbers >= 0, "
                             f"got {self.drift_growth!r}")
        _check_structure(self)
        self._lines = {}

    def lines(self, t, w=None):
        """(a, b, a_f, b_f): beta(t, x, v_j) = a[j] + b x and
        f(t, x, v_j) = a_f[j] + b_f x, read off the maps (wrapped or not)
        at x = 0 and 1 once per t; the slopes are control 0's.  The maps
        do not read the path, so any w, on any thread, caches equal lines.
        """
        if t not in self._lines:
            x = np.array([[0.0], [1.0]])

            def read(m, shape):    # rows: each control's map at 0 and at 1
                return np.array([np.broadcast_to(m(t, x, v, w), shape).ravel()
                                 for v in self.controls]).T

            (b0, b1), (f0, f1) = read(self.beta, x.shape), read(self.f, (2,))
            self._lines[t] = (b0, b1[0] - b0[0], f0, f1[0] - f0[0])
        return self._lines[t]


# declared constants of a problem: every field but its maps; approximants
# of a set carry these over unchanged
DECLARED = tuple(f.name for f in fields(CoefficientSet)
                 if f.name not in ("beta", "f", "G"))


def _check_structure(coeffs):
    """ValueError naming the map and control unless beta and f have the
    structure the module docstring states, on the probes of the class
    docstring, and, on a deterministic set, unless G, beta and f
    evaluate with w=None."""
    x = probe_lattice(reach_radius(coeffs, 1.0, 1.0))[:, None, :]
    slices = [None] * len(_PROBE_TIMES)
    if not coeffs.deterministic:     # three paths apart after knot 0
        grid = TimeGrid(1.0, 8)
        inc = np.repeat([[[-0.25]], [[0.0]], [[0.5]]], grid.n_steps, axis=1)
        ens = WienerEnsemble(grid, 1, 3, 0, inc)
        slices = [ens.slice_at(grid.index_of(t)) for t in _PROBE_TIMES]

    def probe(name, where, *args):
        try:
            return np.asarray(getattr(coeffs, name)(*args), float)
        except (AttributeError, TypeError) as exc:   # read through None
            if not coeffs.deterministic:
                raise
            raise ValueError(
                f"{name}{where} fails with w=None ({type(exc).__name__}: "
                f"{exc}): a deterministic set must not read the path") from exc

    if coeffs.deterministic:
        probe("G", "", x, None)
    for name, shape in (("beta", x.shape), ("f", x.shape[:-1])):
        vals = np.empty((coeffs.n_controls, len(_PROBE_TIMES), x.shape[0]))
        for j, v in enumerate(coeffs.controls):
            for i, (t, w) in enumerate(zip(_PROBE_TIMES, slices)):
                out = probe(name, f" at control {j}", t, x, v, w)
                try:
                    vals[j, i] = np.broadcast_to(out, shape).ravel()
                except ValueError:
                    raise ValueError(
                        f"{name} at control {j} returns shape {out.shape} on "
                        f"{shape[0]} nodes: it must have one value per node "
                        f"and not read the path") from None
        tol = _PROBE_TOL * max(1.0, float(np.abs(vals).max()))
        curved = ~(np.abs(np.diff(vals, 2)).max(axis=(1, 2)) <= tol)
        shift = vals - vals[:1]
        moving = ~(np.abs(shift - shift[:, :1, :1]).max(axis=(1, 2)) <= tol)
        for j in np.flatnonzero(curved | moving):   # the first one raises
            raise ValueError(
                f"{name} at control {j} is " + (
                    "not affine in x" if curved[j] else
                    f"not control-separable: {name}(v) - {name}(v_0) "
                    f"varies with t or x"))


def reach_radius(coeffs, x0_max, T, margin=0.0):
    """Radius of a box certain to contain every Euler trajectory.

    Uses |beta| <= a + b|x| and Gronwall: |X_t| <= (|x0| + a t) e^{b t}.
    """
    a, b = coeffs.drift_growth
    return float((abs(x0_max) + a * T) * np.exp(b * T) + margin)


def probe_lattice(radius, n_points=67):
    """Centered probe points, shape (n_points, 1).

    The default count is odd, which keeps 0 among them: kinks sit there.
    """
    return np.linspace(-radius, radius, n_points)[:, None]


# ---------------------------------------------------------------------------
# control sweeps

def _running_argmin(scores, idx_dtype=int, start=0):
    """Running minimum of same-shape scores in control index order.

    Returns the smallest score and its control index, the first score
    being control start's (ties keep the lowest).  Only one control's
    scores are held at a time, so memory does not grow with the grid.
    """
    best = best_idx = better = None
    for j, total in enumerate(scores, start):
        if best is None:
            best = np.array(total, float)        # owned: selected in place
            best_idx = np.full(best.shape, start, idx_dtype)
        else:
            better = np.less(total, best, out=better)   # one mask, reused
            np.copyto(best, total, where=better)
            np.copyto(best_idx, idx_dtype(j), where=better)
    return best, best_idx


def _halves(work, n, pool=None):
    """(work(0, mid), work(mid, n)), mid = (n + 1) // 2, the upper half on
    the thread pool while the caller does the lower one, and on the caller
    too without a pool or if not started by then: a busy pool costs no
    wait, and a call from one of the pool's own threads cannot deadlock.
    """
    mid = (n + 1) // 2
    later = None if pool is None else pool.submit(work, mid, n)
    low = work(0, mid)
    if later is None or later.cancel():
        return low, work(mid, n)
    return low, later.result()


def _split_argmin(score, n, idx_dtype=int, pool=None):
    """_running_argmin of score(0), ..., score(n - 1), the upper half of
    the controls scored on the thread pool while the caller scores the
    lower half (_halves; all in one loop on the caller without a pool).

    The halves merge where the upper half's best is strictly lower, so
    an exact tie keeps the lower index, as in the sequential loop; every
    score is the same call, so for NaN-free scores the result is the
    loop's bit for bit (a NaN compares false, and the two may then
    disagree).
    """
    if pool is None or n < 2:
        return _running_argmin(map(score, range(n)), idx_dtype)
    (best, idx), (hi, hi_idx) = _halves(
        lambda a, b: _running_argmin(map(score, range(a, b)), idx_dtype, a),
        n, pool)
    better = hi < best
    np.copyto(best, hi, where=better)
    np.copyto(idx, hi_idx, where=better)
    return best, idx


def _at_controls(coeffs, t, x, w, idx, at=None):
    """(beta, f) at points of x (..., 1), each at its control idx.

    The points are x's, or with at, an index tuple into a shape that
    x.shape[:-1] broadcasts to, the ones at picks there; idx broadcasts
    against them.  A set with lines is read as a[j] + b x and
    a_f[j] + b_f x.  Any other (a MollifiedSet) evaluates each control it
    uses on the whole x, then takes the points: a kernel average's last
    bits depend on the shape it is evaluated on, so only the whole x
    gives the bits of the per-control evaluation.
    """
    lead = x.shape[:-1]
    # the point of x behind each picked point
    pick = ... if at is None else tuple(
        i if n > 1 else 0 for i, n in zip(at[len(at) - len(lead):], lead))
    if getattr(coeffs, "lines", None) is not None:
        a, b, af, bf = coeffs.lines(t, w)
        xs = x[..., 0][pick]
        # at a zero slope the x term is a signed zero: it moves no value
        return tuple(c[idx] + s * xs if s else np.asarray(c[idx])
                     for c, s in ((a, b), (af, bf)))
    n = math.prod(lead)
    used, rank = _used_controls(idx, coeffs.n_controls)
    beta = np.empty((used.size, n))
    f = np.empty(beta.shape)
    for r, j in enumerate(used):
        v = coeffs.controls[j]
        beta[r] = np.broadcast_to(coeffs.beta(t, x, v, w), x.shape)[..., 0].ravel()
        f[r] = np.broadcast_to(coeffs.f(t, x, v, w), lead).ravel()
    rows = rank * n + np.arange(n).reshape(lead)[pick]
    return np.take(beta, rows), np.take(f, rows)


def _used_controls(idx, n_controls):
    """(used, rank): the controls an index table uses, in index order,
    and each entry's row among them."""
    used = np.bincount(np.ravel(idx), minlength=n_controls) > 0
    return np.flatnonzero(used), np.take(np.cumsum(used) - 1, idx)


def _node_tables(coeffs, t, x, w, controls):
    """(len(controls), n) tables of beta and f: _at_controls of each
    listed control at each of x's n points."""
    controls = np.asarray(controls, np.intp)
    idx = np.broadcast_to(controls.reshape((-1,) + (1,) * (x.ndim - 1)),
                          controls.shape + x.shape[:-1])
    beta, f = _at_controls(coeffs, t, x, w, idx)
    return beta.reshape(controls.size, -1), f.reshape(controls.size, -1)


def _table_rows(idx, n):
    """Flat offsets into (n_controls, n) tables: point (i, e) of an (n, E)
    index table (or a scalar control) reads node i at control idx[i, e]."""
    return np.asarray(idx, np.intp) * n + np.arange(n)[:, None]


# ---------------------------------------------------------------------------
# built-in scenarios

_CAP = 10.0      # terminal distances are capped, which keeps G bounded
_PULL = 0.5      # mean reversion of the linear-drift scenario


def _control_drift(t, x, v, w):
    return np.zeros_like(x) + np.asarray(v, float)


def _pulled_drift(t, x, v, w):
    return -_PULL * x + np.asarray(v, float)


def _zero_drift(t, x, v, w):
    return np.zeros_like(x)


def _no_run_cost(t, x, v, w):
    return np.zeros(x.shape[:-1])


def _unit_run_cost(t, x, v, w):
    return np.ones(x.shape[:-1])


def _control_energy(t, x, v, w):
    vv = float(np.sum(np.square(v)))
    return np.full(x.shape[:-1], 0.1 * vv)


def _capped_distance(x, w):
    return np.clip(np.linalg.norm(x, axis=-1), 0.0, _CAP)


def _target_distance(x, w):
    # distance to a target revealed at the horizon
    target = np.tanh(w.terminal[:, 0])
    dist = np.subtract(x[..., 0], target)   # the one temporary
    np.abs(dist, out=dist)
    return np.clip(dist, 0.0, _CAP, out=dist)


def _no_terminal_cost(x, w):
    return np.zeros(x.shape[:-1])


# (CLI pipeline, its check that needs a kink) for the pipelines that do
# not apply to a value flat in x: no gap to fit a slope to, no L_tilde > 0
_NEEDS_KINK = (("mollify", "ladder_slope"), ("envelopes", "gradient_bound"),
               ("full-uniqueness", "mollify.ladder_slope"))

# name -> (number of controls, pipelines that do not apply, the fields
# that tell the problem apart)
_SCENARIOS = {
    "eikonal": (21, (), dict(beta=_control_drift, f=_no_run_cost,
                             G=_capped_distance, L=_CAP + 2.0)),
    "linear-drift": (21, (), dict(beta=_pulled_drift, f=_control_energy,
                                  G=_capped_distance, L=_CAP + 5.0,
                                  drift_growth=(1.0, _PULL))),
    "random-target": (21, (), dict(beta=_control_drift, f=_no_run_cost,
                                   G=_target_distance, L=_CAP + 2.0,
                                   deterministic=False)),
    "constant-run-cost": (3, _NEEDS_KINK, dict(
        beta=_zero_drift, f=_unit_run_cost, G=_no_terminal_cost, L=1.0,
        drift_growth=(0.0, 0.0))),
    "zeros": (3, _NEEDS_KINK, dict(beta=_zero_drift, f=_no_run_cost,
                                   G=_no_terminal_cost, L=1.0,
                                   drift_growth=(0.0, 0.0))),
}


def scenario(name):
    """A built-in problem; unknown names raise KeyError.

    Every built-in has a uniform control grid on [-1, 1] and lip_x = 1.
    Other problems are plain CoefficientSet values.
    """
    try:
        n_points, _, problem = _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {scenario_names()}") from None
    return CoefficientSet(controls=control_grid(-1.0, 1.0, n_points),
                          lip_x=1.0, **problem)


def scenario_names():
    return sorted(_SCENARIOS)


def inapplicable_pipelines(name):
    """pipeline -> the check that cannot pass on built-in name, for each
    CLI pipeline that does not apply to it."""
    return dict(_SCENARIOS[name][1])
