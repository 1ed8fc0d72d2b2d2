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
Path-dependent sets broadcast an (n_paths,)-shaped factor into the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

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

# running coefficients a set may declare affine in x
AFFINE_NAMES = ("beta", "f")


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
        beta, f, G are all <= L).
    lip_x : spatial Lipschitz bound, <= L; used to size smoothing levels.
    drift_growth : (a, b) with |beta(t,x,v,w)| <= a + b|x|; gives the
        sharp reachable-set radius used for lattices and probe grids.
    deterministic : True when no coefficient reads the path argument.
    affine : names among "beta" and "f" of the running coefficients that
        are affine in x.  A property of the problem, like lip_x: the
        unit-mass symmetric smoothing kernel reproduces affine maps, so
        approximants pass these through unsmoothed.
    control_separable : True when the control enters additively,
        beta = beta0(t, x, w) + c(v) and f = f0(t, x, w) + g(v).  Then
        min_v (beta p + f) is beta0 p + f0 plus the lower envelope of the
        lines c(v) p + g(v), which the Hamiltonian looks up.
        Kernel averages keep the property up to roundoff.
    n_controls : number of rows of controls, set from them.
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
    affine: tuple = ()
    control_separable: bool = False
    n_controls: int = field(init=False)

    def __post_init__(self):
        self.controls = np.atleast_2d(np.asarray(self.controls, float))
        if self.controls.shape[1] != 1:
            raise ValueError("controls must have shape (n_controls, 1)")
        self.n_controls = self.controls.shape[0]
        if self.L <= 0:
            raise ValueError("declared bound L must be positive")
        self.affine = tuple(self.affine)
        unknown = set(self.affine) - set(AFFINE_NAMES)
        if unknown:
            raise ValueError(f"affine names {sorted(unknown)} not among "
                             f"{AFFINE_NAMES}")


# declared constants of a problem: every field but its maps; approximants
# of a set carry these over unchanged
DECLARED = tuple(f.name for f in fields(CoefficientSet)
                 if f.name not in ("beta", "f", "G"))


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

def _argmin_sweep(coeffs, t, x, w, score, idx_dtype=int):
    """Running minimum of score(beta, f) over the control grid, in index order.

    score maps one control's drift and running cost at (t, x, w) to
    (total, *companions).  Returns the smallest total, its control index
    (ties keep the lowest) and the companions at that index.  Only one
    control is held at a time, so memory does not grow with the grid.
    """
    def scores():
        for v in coeffs.controls:
            yield score(np.asarray(coeffs.beta(t, x, v, w), float),
                        np.asarray(coeffs.f(t, x, v, w), float))
    return _running_argmin(scores(), idx_dtype)


def _running_argmin(scores, idx_dtype=int):
    """Running minimum of the totals of (total, *companions) scored in
    control index order; returns what _argmin_sweep does."""
    best = best_idx = carried = better = None
    for j, (total, *companions) in enumerate(scores):
        if best is None:
            best = np.array(total, float)        # owned: selected in place
            best_idx = np.zeros(best.shape, idx_dtype)
            carried = [np.array(c) for c in companions]
        else:
            better = np.less(total, best, out=better)   # one mask, reused
            np.copyto(best, total, where=better)
            np.copyto(best_idx, idx_dtype(j), where=better)
            for c, old in zip(companions, carried):
                np.copyto(old, c, where=better)
    return best, best_idx, carried


def _policy_sweep(coeffs, t, x, w, idx, evaluate, shapes):
    """Evaluate each point at the control idx assigns to it.

    Only the controls idx uses are evaluated, in ascending order.
    evaluate(beta, f) returns one array per entry of shapes; point p of
    each output is read from the arrays computed at control idx[p].
    """
    outs = [np.empty(shape) for shape in shapes]
    used = np.bincount(np.ravel(idx), minlength=coeffs.n_controls)
    for j in np.flatnonzero(used):
        v = coeffs.controls[j]
        b = np.asarray(coeffs.beta(t, x, v, w), float)
        fv = np.asarray(coeffs.f(t, x, v, w), float)
        mask = idx == j
        for out, vals in zip(outs, evaluate(b, fv)):
            # copy in place: boolean-index temporaries fragment the heap
            np.copyto(out, vals, where=mask.reshape(
                mask.shape + (1,) * (out.ndim - mask.ndim)))
    return outs


def _node_tables(coeffs, t, x, w, controls):
    """Drift and running cost of the listed controls at the nodes x (n, 1, 1).

    Returns (beta, f), two (n_controls, n) tables holding a row per
    listed control (the other rows stay 0), or None as soon as a control's
    beta or f carries a path axis: one value per node is what lets every
    path column share a node's Euler image.  The maps see x itself, so
    each entry has the bits the sweeps compute.
    """
    beta = np.zeros((coeffs.n_controls, x.shape[0]))
    f = np.zeros(beta.shape)
    for j in controls:
        v = coeffs.controls[j]
        b = np.asarray(coeffs.beta(t, x, v, w), float)
        fv = np.asarray(coeffs.f(t, x, v, w), float)
        if (np.broadcast_shapes(b.shape, x.shape) != x.shape
                or np.broadcast_shapes(fv.shape, x.shape[:-1]) != x.shape[:-1]):
            return None
        beta[j] = np.broadcast_to(b, x.shape)[:, 0, 0]
        f[j] = np.broadcast_to(fv, x.shape[:-1])[:, 0]
    return beta, f


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
    return np.clip(np.abs(x[..., 0] - target), 0.0, _CAP)


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

    Every built-in has a uniform control grid on [-1, 1], lip_x = 1,
    drift and running cost affine in x, and a control that enters both
    additively.  Other problems are plain CoefficientSet values.
    """
    try:
        n_points, _, problem = _SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"known: {scenario_names()}") from None
    return CoefficientSet(controls=control_grid(-1.0, 1.0, n_points),
                          lip_x=1.0, affine=("beta", "f"),
                          control_separable=True, **problem)


def scenario_names():
    return sorted(_SCENARIOS)


def inapplicable_pipelines(name):
    """pipeline -> the check that cannot pass on built-in name, for each
    CLI pipeline that does not apply to it."""
    return dict(_SCENARIOS[name][1])
