"""Controlled-ODE coefficient sets and the built-in scenario registry.

A coefficient set bundles the drift beta(t, x, v, w), running cost
f(t, x, v, w) and terminal cost G(x, w) of a control problem together
with the finite control grid and the declared uniform bound L.  The
path argument w is a PathSlice (None for path-independent sets), so a
coefficient can only read Brownian history up to the evaluation time
(terminal history for G).

Shapes: x always carries an explicit trailing state axis of length d.
beta returns x.shape, f and G return x.shape[:-1].  Path-dependent
sets broadcast an (n_paths,)-shaped factor into the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CoefficientSet",
    "register_scenario",
    "scenario",
    "scenario_names",
    "control_grid",
    "reach_radius",
    "probe_lattice",
    "a1_audit",
]

MAX_STATE_DIM = 3
# running coefficients a set may declare affine in x
AFFINE_NAMES = ("beta", "f")


def control_grid(lo=-1.0, hi=1.0, n_points=21, dim=1):
    """Uniform finite control set, shape (n_points**dim, dim)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return _tensor_points([np.linspace(lo, hi, n_points)] * dim)


def _tensor_points(axes):
    """All combinations of the 1-D axes as rows; the last axis varies fastest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


@dataclass
class CoefficientSet:
    """Drift/cost/terminal data of one control problem.

    Attributes
    ----------
    d, n : state and control dimension
    controls : (n_controls, n) finite control set; ties in minimizations
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
    """

    name: str
    d: int
    n: int
    controls: np.ndarray
    beta: Callable
    f: Callable
    G: Callable
    L: float
    lip_x: float
    drift_growth: tuple = (1.0, 0.0)
    deterministic: bool = True
    m_required: int = 1
    affine: tuple = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.d <= MAX_STATE_DIM:
            raise ValueError(f"state dimension d={self.d} outside 1..{MAX_STATE_DIM}")
        if self.n < 1:
            raise ValueError("control dimension must be >= 1")
        self.controls = np.atleast_2d(np.asarray(self.controls, float))
        if self.controls.shape[1] != self.n:
            raise ValueError("control grid does not match control dimension")
        if self.L <= 0:
            raise ValueError("declared bound L must be positive")
        self.affine = tuple(self.affine)
        unknown = set(self.affine) - set(AFFINE_NAMES)
        if unknown:
            raise ValueError(f"affine names {sorted(unknown)} not among "
                             f"{AFFINE_NAMES}")

    @property
    def n_controls(self):
        return self.controls.shape[0]


def reach_radius(coeffs, x0_max, T, margin=0.0):
    """Radius of a box certain to contain every Euler trajectory.

    Uses |beta| <= a + b|x| and Gronwall: |X_t| <= (|x0| + a t) e^{b t}.
    """
    a, b = coeffs.drift_growth
    return float((abs(x0_max) + a * T) * np.exp(b * T) + margin)


def probe_lattice(radius, d, n_points=None):
    """Centered cubic probe lattice of about 2^d * 33 points."""
    if n_points is None:
        n_points = int(np.ceil((2.0**d * 33.0) ** (1.0 / d)))
        if n_points % 2 == 0:
            n_points += 1  # keep 0 in the lattice: kinks sit there
    return _tensor_points([np.linspace(-radius, radius, n_points)] * d)


# ---------------------------------------------------------------------------
# control sweeps

def _argmin_sweep(coeffs, t, x, w, score, idx_dtype=int):
    """Running minimum of score(beta, f) over the control grid.

    score maps one control's drift and running cost at (t, x, w) to
    (total, *companions).  Returns the smallest total, its control index
    (ties keep the lowest) and the companions at that index.  Only one
    control is held at a time, so memory does not grow with the grid.
    """
    best = best_idx = carried = None
    for j in range(coeffs.n_controls):
        v = coeffs.controls[j]
        b = np.asarray(coeffs.beta(t, x, v, w), float)
        fv = np.asarray(coeffs.f(t, x, v, w), float)
        total, *companions = score(b, fv)
        if best is None:
            best = np.asarray(total, float)
            best_idx = np.zeros(best.shape, idx_dtype)
            carried = companions
        else:
            better = total < best
            best = np.where(better, total, best)
            best_idx = np.where(better, idx_dtype(j), best_idx)
            carried = [np.where(np.broadcast_to(better, c.shape), c, old)
                       for c, old in zip(companions, carried)]
    return best, best_idx, carried


def _policy_sweep(coeffs, t, x, w, idx, evaluate, shapes):
    """Evaluate each point at the control idx assigns to it.

    Only the controls in np.unique(idx) are evaluated.  evaluate(beta, f)
    returns one array per entry of shapes; point p of each output is read
    from the arrays computed at control idx[p].
    """
    outs = [np.empty(shape) for shape in shapes]
    for j in np.unique(idx):
        v = coeffs.controls[j]
        b = np.asarray(coeffs.beta(t, x, v, w), float)
        fv = np.asarray(coeffs.f(t, x, v, w), float)
        mask = idx == j
        for out, vals in zip(outs, evaluate(b, fv)):
            # copy in place: boolean-index temporaries fragment the heap
            np.copyto(out, vals, where=mask.reshape(
                mask.shape + (1,) * (out.ndim - mask.ndim)))
    return outs


# ---------------------------------------------------------------------------
# registry

_REGISTRY = {}


def register_scenario(name, builder):
    """Register a coefficient-set builder under a scenario name."""
    if not callable(builder):
        raise ValueError("builder must be callable")
    _REGISTRY[name] = builder


def scenario(name, **params):
    """Instantiate a registered scenario; unknown names raise KeyError."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return builder(**params)


def scenario_names():
    return sorted(_REGISTRY)


def _clip_dist(x, cap=10.0):
    return np.clip(np.linalg.norm(x, axis=-1), 0.0, cap)


def _eikonal(n_points=21, cap=10.0):
    def beta(t, x, v, w):
        return np.zeros_like(x) + np.asarray(v, float)

    def f(t, x, v, w):
        return np.zeros(x.shape[:-1])

    def G(x, w):
        return _clip_dist(x, cap)

    return CoefficientSet(
        name="eikonal",
        d=1,
        n=1,
        controls=control_grid(-1.0, 1.0, n_points),
        beta=beta,
        f=f,
        G=G,
        L=cap + 2.0,
        lip_x=1.0,
        drift_growth=(1.0, 0.0),
        deterministic=True,
        affine=("beta", "f"),
        params={"n_points": n_points, "cap": cap},
    )


def _linear_drift(n_points=21, pull=0.5, cap=10.0):
    def beta(t, x, v, w):
        return -pull * x + np.asarray(v, float)

    def f(t, x, v, w):
        vv = float(np.sum(np.square(v)))
        return np.full(x.shape[:-1], 0.1 * vv)

    def G(x, w):
        return _clip_dist(x, cap)

    return CoefficientSet(
        name="linear-drift",
        d=1,
        n=1,
        controls=control_grid(-1.0, 1.0, n_points),
        beta=beta,
        f=f,
        G=G,
        L=cap + 5.0,
        lip_x=1.0,
        drift_growth=(1.0, pull),
        deterministic=True,
        affine=("beta", "f"),
        params={"n_points": n_points, "pull": pull, "cap": cap},
    )


def _random_target(n_points=21, cap=10.0):
    # terminal cost: distance to a target revealed at the horizon
    def beta(t, x, v, w):
        return np.zeros_like(x) + np.asarray(v, float)

    def f(t, x, v, w):
        return np.zeros(x.shape[:-1])

    def G(x, w):
        target = np.tanh(w.terminal[:, 0])
        return np.clip(np.abs(x[..., 0] - target), 0.0, cap)

    return CoefficientSet(
        name="random-target",
        d=1,
        n=1,
        controls=control_grid(-1.0, 1.0, n_points),
        beta=beta,
        f=f,
        G=G,
        L=cap + 2.0,
        lip_x=1.0,
        drift_growth=(1.0, 0.0),
        deterministic=False,
        m_required=1,
        affine=("beta", "f"),
        params={"n_points": n_points, "cap": cap},
    )


def _constant_run_cost(n_points=3):
    def beta(t, x, v, w):
        return np.zeros_like(x)

    def f(t, x, v, w):
        return np.ones(x.shape[:-1])

    def G(x, w):
        return np.zeros(x.shape[:-1])

    return CoefficientSet(
        name="constant-run-cost",
        d=1,
        n=1,
        controls=control_grid(-1.0, 1.0, n_points),
        beta=beta,
        f=f,
        G=G,
        L=1.0,
        lip_x=1.0,
        drift_growth=(0.0, 0.0),
        deterministic=True,
        affine=("beta", "f"),
        params={"n_points": n_points},
    )


def _zeros(n_points=3):
    def beta(t, x, v, w):
        return np.zeros_like(x)

    def f(t, x, v, w):
        return np.zeros(x.shape[:-1])

    def G(x, w):
        return np.zeros(x.shape[:-1])

    return CoefficientSet(
        name="zeros",
        d=1,
        n=1,
        controls=control_grid(-1.0, 1.0, n_points),
        beta=beta,
        f=f,
        G=G,
        L=1.0,
        lip_x=1.0,
        drift_growth=(0.0, 0.0),
        deterministic=True,
        affine=("beta", "f"),
        params={"n_points": n_points},
    )


register_scenario("eikonal", _eikonal)
register_scenario("linear-drift", _linear_drift)
register_scenario("random-target", _random_target)
register_scenario("constant-run-cost", _constant_run_cost)
register_scenario("zeros", _zeros)


# ---------------------------------------------------------------------------
# declared-bound audit

def a1_audit(coeffs, ensemble=None):
    """Empirical check of the declared uniform bound on sampled probes.

    Evaluates |beta|, |f|, |G| and their spatial difference quotients
    between consecutive probes of the default probe lattice on the reach
    of |x0| <= 1, at the knots nearest 5 equally spaced times (per path
    when the set reads the ensemble; t = 0 and horizon 1 without one),
    and compares against coeffs.L.  Returns a report dict with observed
    maxima; ``passed`` is True when all stay <= L.
    """
    radius = reach_radius(coeffs, 1.0, 1.0 if ensemble is None else ensemble.grid.T)
    probes = probe_lattice(radius, coeffs.d)
    if ensemble is not None:
        times = np.linspace(0.0, ensemble.grid.T, 5)
        knots = sorted({ensemble.grid.index_of(round(t / ensemble.grid.dt) * ensemble.grid.dt) for t in times})
    else:
        knots = [0]

    x = probes[:, None, :]  # (n_probes, 1, d) broadcasting against paths
    sup_val = 0.0
    sup_quot = 0.0
    for k in knots:
        t = 0.0 if ensemble is None else ensemble.grid.knots[k]
        w = None if coeffs.deterministic else ensemble.slice_at(k)
        wT = None if coeffs.deterministic else ensemble.slice_at(k, terminal_ok=True)
        for v in coeffs.controls:
            b = np.asarray(coeffs.beta(t, x, v, w))
            c = np.asarray(coeffs.f(t, x, v, w))
            sup_val = max(sup_val, float(np.abs(b).max()), float(np.abs(c).max()))
            sup_quot = max(sup_quot, _max_quotient(b, probes))
            sup_quot = max(sup_quot, _max_quotient(c[..., None], probes))
        g = np.asarray(coeffs.G(x, wT))
        sup_val = max(sup_val, float(np.abs(g).max()))
        sup_quot = max(sup_quot, _max_quotient(g[..., None], probes))

    return {
        "L": coeffs.L,
        "sup_value": sup_val,
        "sup_quotient": sup_quot,
        "radius": radius,
        "passed": bool(sup_val <= coeffs.L + 1e-12 and sup_quot <= coeffs.L + 1e-9),
    }


def _max_quotient(vals, probes):
    # difference quotients along consecutive probe rows
    dv = np.abs(vals[1:] - vals[:-1]).max(axis=tuple(range(1, vals.ndim)))
    dx = np.linalg.norm(probes[1:] - probes[:-1], axis=-1)
    ok = dx > 0
    if not ok.any():
        return 0.0
    return float((dv[ok] / dx[ok]).max())
