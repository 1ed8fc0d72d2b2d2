"""Experiment runner: config in, seeded pipelines out, tables on disk.

Every output table carries the config hash in a comment line; data go
to files, progress to stderr.  Re-running an identical config under
``run()`` rewrites byte-identical tables for any worker count and any
host core count.  ``run()`` opens one thread pool of ``workers`` threads
per pipeline (none at one worker).  It runs independent ladder items,
or the two BSDE solves, merged in a fixed order; ``jhat`` also runs
each level's error bound while ``value_V`` runs; and ``value_V`` scores
half of each regression knot's controls on it, merged as the
sequential loop picks.  An envelope rung and ``value_V``'s noisy pick
read split each knot's node rows into the same two halves at any worker
count, the upper one on the pool (coeffs._halves), and only elementwise
work and per-row path reductions: never a regression ``predict`` or a
``MollifiedSet`` evaluation, whose bits depend on their shape.  No work
item changes its arithmetic with the thread it runs on, and numpy's
OpenBLAS runs on one thread (manifest ``blas_threads``; null if not
found).  A ``jhat`` ladder item streams its policy cost, majorant and
residual probe (_policy_cost_knots, _majorant_knot, _residual_probe) one
knot at a time, and the base cost keeps its mean rows only.

``run()`` also holds glibc's heap across the pipeline (manifest
``heap_hold``; null off glibc): freed lattice-by-path temporaries stay
mapped for the next stage instead of being trimmed and faulted back in,
and are handed back when the pipeline ends.  The manifest records the
pipeline's ``minor_faults`` and the process's ``peak_rss_mb`` (null
where ``resource`` is missing).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import dataclasses
import functools
import glob
import hashlib
import itertools
import json
import math
import numbers
import os
import platform
import sys
from dataclasses import dataclass

try:
    import resource
except ImportError:     # not on Windows
    resource = None

import numpy as np

from . import __version__
from .bsde import (BsdeSpec, _majorant_knot, _policy_cost_knots,
                   backward_knots, error_bound_bsde)
from .coeffs import (inapplicable_pipelines, reach_radius, scenario,
                     scenario_names)
from .exceptions import AccuracyError, CapacityError, IntegrationError
from .fields import sample_adapted_field
from .probspace import TimeGrid, _path_mean_se, sample_ensemble
from .smoothing import (MollifiedSet, bump_kernel, error_processes,
                        fit_functional_approximant, linear_growth_penalty)
from .valuefn import (BoxLattice, ControlPolicy, _value_lipschitz, value_V,
                      value_audit)
from .viscosity import (_residual_probe, _side_report, build_envelopes,
                        estimate_decomposition, residual_check,
                        sandwich_report)

__all__ = ["ExperimentConfig", "run", "main", "PIPELINES"]

PIPELINES = (
    "simulate", "value", "bsde", "mollify", "jhat", "envelopes",
    "viscosity-check", "full-uniqueness",
)


@dataclass
class ExperimentConfig:
    """Serializable description of one experiment family."""

    scenario: str = "eikonal"
    T: float = 1.0
    n_steps: int = 32
    n_paths: int = 4000
    n_paths_bsde: int = 100000
    seed_w: int = 20240901
    seed_b: int = 20241001
    x0_max: float = 2.0
    lattice_h: float = 0.01
    ladder_h: float = 0.05
    lattice_margin: float = 0.25
    levels: tuple = (4, 8, 16)
    eps_ladder: tuple = (0.2, 0.1, 0.05)
    delta_ladder: tuple = (0.2, 0.1, 0.05)
    n_intervals: int = 4
    tolerance_scale: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), f.default))
        if self.T <= 0 or self.n_steps < 1 or min(self.n_paths,
                                                  self.n_paths_bsde) < 2:
            raise ValueError("T, n_steps, path counts must be positive")
        for name in ("levels", "eps_ladder", "delta_ladder"):
            vals = getattr(self, name)
            if not vals or any(v <= 0 for v in vals):
                raise ValueError(f"{name} must be nonempty and positive")
        if min(self.lattice_h, self.ladder_h) <= 0:
            raise ValueError("lattice spacings must be positive")
        if self.x0_max <= 0:
            raise ValueError("x0_max must be positive")
        if min(self.seed_w, self.seed_b) < 0:
            raise ValueError("seeds must be non-negative")
        if self.seed_w == self.seed_b:
            raise ValueError("seed_w and seed_b must differ")
        if self.tolerance_scale <= 0:
            raise ValueError("tolerance_scale must be positive")
        if self.n_intervals < 4:
            raise ValueError(f"n_intervals must be >= 4, "
                             f"got {self.n_intervals}")

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def digest(self):
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _typed(name, value, default):
    """value checked against, and cast to, the type of the field default.

    Integers must not be bools; floats accept integers, so 1 and 1.0 give
    one digest, and must be finite.  Tuple elements follow the default's
    elements, and lists become tuples.
    """
    def fits(v, like):
        if isinstance(like, str):
            return isinstance(v, str)
        kind = numbers.Integral if isinstance(like, int) else numbers.Real
        return isinstance(v, kind) and not isinstance(v, bool)

    def cast(v, like):
        try:
            out = type(like)(v)
        except OverflowError:       # an integer beyond the float range
            out = math.inf
        if isinstance(out, float) and not math.isfinite(out):
            raise ValueError(f"{name}={value!r} is not finite")
        return out

    if isinstance(default, tuple):
        like = default[0]
        if isinstance(value, (tuple, list)) and all(fits(v, like) for v in value):
            return tuple(cast(v, like) for v in value)
    elif fits(value, default):
        return cast(value, default)
    raise ValueError(f"{name}={value!r} does not match the type of its default "
                     f"{default!r}")


def _say(msg):
    print(msg, file=sys.stderr)


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path, digest, columns, rows):
    with open(path, "w") as fh:
        fh.write(f"# config {digest}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_items(path, digest, items):
    """Ladder items as a table; the columns are the item keys, in order,
    but for per-knot dicts, which only the JSON reports carry."""
    columns = [key for key, v in items[0].items() if not isinstance(v, dict)]
    _write_csv(path, digest, columns, [[r[c] for c in columns] for r in items])


def _write_json(path, payload):
    # strict JSON: a NaN or infinity raises ValueError before the file opens
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _slope(xs, ys):
    """Least-squares slope of log ys against log xs; None for fewer than
    two distinct xs, where no line is determined, and for a y <= 0, which
    has no logarithm."""
    if len(set(xs)) < 2 or min(ys) <= 0:
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _grid_ens(cfg):
    grid = TimeGrid(cfg.T, cfg.n_steps)
    coeffs = scenario(cfg.scenario)
    ens = sample_ensemble(grid, 1, cfg.n_paths, cfg.seed_w)
    return grid, coeffs, ens


def _lattice(cfg, coeffs, h=None, extra_margin=0.0):
    # one Euler step of drift headroom: backward steps from edge points
    # leave the reachable set by up to |beta| dt before clamping.  Snap
    # to whole cells so the origin stays a lattice point.
    a, b = coeffs.drift_growth
    radius = reach_radius(coeffs, cfg.x0_max, cfg.T)
    fan = (a + b * radius) * cfg.T / cfg.n_steps
    h = cfg.lattice_h if h is None else h
    extra = h * np.ceil((fan + extra_margin) / h)
    return BoxLattice.for_problem(
        coeffs, cfg.T, cfg.x0_max, h, margin=cfg.lattice_margin + extra,
    )


def _pipe_simulate(cfg, out, scale, pool):
    grid, coeffs, ens = _grid_ens(cfg)
    ens.save(os.path.join(out, "ensemble_w.bin"))
    rows = []
    for k in range(grid.n_steps + 1):
        w = ens.value_at(k)
        for c in range(ens.m):
            rows.append((k, grid.knots[k], c, w[:, c].mean(),
                         w[:, c].var(ddof=1) if k else 0.0))
    _write_csv(os.path.join(out, "simulate_summary.csv"), cfg.digest(),
               ("knot", "t", "coord", "mean", "var"), rows)
    # terminal variance should match the horizon within sampling error
    vT = ens.value_at(grid.n_steps).var(ddof=1, axis=0)
    band = 4.0 * cfg.T * np.sqrt(2.0 / (cfg.n_paths - 1)) * scale
    return {"terminal_variance": bool(np.all(np.abs(vT - cfg.T) <= band))}


def _pipe_value(cfg, out, scale, pool):
    grid, coeffs, ens = _grid_ens(cfg)
    lat = _lattice(cfg, coeffs)
    surface = value_V(coeffs, ens, lat, clamp_tol=0.05, pool=pool)
    rows = []
    for k in range(grid.n_steps + 1):
        for i in range(lat.n_points):
            rows.append((k, grid.knots[k], i, lat.points[i, 0],
                         surface.mean[k, i], surface.se[k, i]))
    _write_csv(os.path.join(out, "value_surface.csv"), cfg.digest(),
               ("knot", "t", "point", "x0", "mean", "se"), rows)

    starts = np.linspace(-cfg.x0_max, cfg.x0_max, 5)[:, None]
    audit = value_audit(coeffs, ens, surface, starts,
                        abs_tol=0.01 * scale, eps_report_tol=0.05 * scale)
    _write_json(os.path.join(out, "value_report.json"), {
        "supermartingale_margin": audit["supermartingale_margin"],
        "supermartingale_pointwise": audit["supermartingale_pointwise"],
        "sup_value": audit["sup_value"],
        "value_bound": audit["value_bound"],
        "lipschitz_observed": audit["lipschitz_observed"],
        "lipschitz_bound": audit["lipschitz_bound"],
        "lipschitz_bound_structure": audit["lipschitz_bound_structure"],
        "eps_report": audit["eps_report"],
        "passed": audit["passed"],
    })
    return {"value_audit": bool(audit["passed"])}


def _pipe_bsde(cfg, out, scale, pool):
    grid = TimeGrid(cfg.T, cfg.n_steps)
    n = grid.n_steps

    def chain(case):
        # each case samples its own ensemble, so the two run side by side,
        # and reduces each knot as the backward sweep leaves it
        name, seed, generator = case
        ens = sample_ensemble(grid, 1, cfg.n_paths_bsde, seed)
        w_n = ens.value_at(n)[:, 0]
        spec = BsdeSpec(ens, np.abs(w_n) if generator else w_n, generator)
        knots = ((k, y, z[:, 0].mean()) for k, y, z, *_ in backward_knots(spec))
        rows, rms = [], []
        for k, y, zbar in itertools.chain([(n, spec.terminal, 0.0)], knots):
            rows.append((name, k, grid.knots[k], *_path_mean_se(y), zbar))
            rms.append(float(np.sqrt(np.mean((y - ens.value_at(k)[:, 0])**2))))
        return rows[::-1], max(rms), float(y.mean())

    (mart, rms, _), (noise, _, y0) = _ordered_map(chain, (
        ("terminal_w", cfg.seed_w, None),
        ("noise_magnitude", cfg.seed_b, lambda t, w: np.abs(w.current[:, 0])),
    ), pool)
    _write_csv(os.path.join(out, "bsde_summary.csv"), cfg.digest(),
               ("case", "knot", "t", "mean_Y", "se_Y", "mean_Z"), mart + noise)

    z_gap = float(max(abs(row[-1] - 1.0) for row in mart[:-1]))
    y_exact = (5.0 / 3.0) * np.sqrt(2.0 / np.pi)
    # E|W_T| plus the left Riemann sum of E|W_t| that the solver integrates
    y_discrete = float(np.sqrt(2.0 / np.pi) * (
        np.sqrt(grid.T) + grid.dt * np.sum(np.sqrt(grid.knots[:-1]))))
    bounds = {"martingale_y": 0.02 * scale, "martingale_z": 0.05 * scale,
              "noise_magnitude_start": 0.02 * scale}
    checks = {name: value <= bound for (name, bound), value in zip(
        bounds.items(), (rms, z_gap, abs(y0 - y_discrete)))}
    _write_json(os.path.join(out, "bsde_report.json"), {
        "martingale_rms": rms, "z_gap": z_gap, "y0": y0, "y0_exact": y_exact,
        "y0_discrete": y_discrete, "checks": checks, "bounds": bounds,
    })
    return checks


def _pipe_mollify(cfg, out, scale, pool):
    grid, coeffs, ens = _grid_ens(cfg)
    # unit mass of the kernel via 64-point Gauss-Legendre, an independent
    # route from the tanh-sinh normalizer inside bump_kernel
    nodes, wts = np.polynomial.legendre.leggauss(64)
    mass_err = abs(float(np.sum(wts * bump_kernel(nodes[:, None]))) - 1.0)

    probe = np.linspace(-3.0, 3.0, 201)[:, None]
    h_vals, dh_vals = linear_growth_penalty(probe)
    h0 = float(linear_growth_penalty(np.zeros((1, 1)))[0][0])
    h3 = float(linear_growth_penalty(np.full((1, 1), 3.0))[0][0])
    dh_max = float(np.max(np.abs(dh_vals)))

    radius = float(np.max(np.abs(_lattice(cfg, coeffs).points)))
    xs = np.linspace(-radius, radius, 241)[:, None]
    wT = None if coeffs.deterministic else ens.slice_at(grid.n_steps,
                                                        terminal_ok=True)
    base_g = np.asarray(coeffs.G(xs[:, None, :], wT), float)
    rows = []
    gaps = []
    for level in cfg.levels:
        ml = MollifiedSet(coeffs, level=level)
        gap = float(np.max(np.abs(
            np.asarray(ml.G(xs[:, None, :], wT), float) - base_g)))
        gaps.append(gap)
        rows.append((level, gap, coeffs.lip_x / level))
    _write_csv(os.path.join(out, "mollify_ladder.csv"), cfg.digest(),
               ("level", "sup_gap", "bound"), rows)
    slope = _slope(cfg.levels, gaps)
    checks = {
        "unit_mass": mass_err <= 1e-8 * scale,
        "penalty_origin": abs(h0) <= 1e-9 * scale,
        "penalty_at_3": abs(h3 - 2.0) <= 1e-6 * scale,
        "penalty_gradient": dh_max <= 1.0 + 1e-9 * scale,
        "ladder_bound": all(g <= coeffs.lip_x / l + 1e-12
                            for g, l in zip(gaps, cfg.levels)),
        "ladder_slope": (slope is not None
                         and abs(slope + 1.0) <= 0.3 * scale),
    }
    _write_json(os.path.join(out, "mollify_report.json"), {
        "mass_err": mass_err, "h0": h0, "h3": h3, "dh_max": dh_max,
        "gaps": dict(zip(map(str, cfg.levels), gaps)), "slope": slope,
        "checks": checks,
    })
    return checks


def _level_bound(coeffs, ens, level, radius, gain):
    """A level's mollified set, BSDE error bound and error scale delta,
    none of which reads the policy."""
    ml = MollifiedSet(coeffs, level=level)
    errors = error_processes(coeffs, ml, ens, radius=radius)
    return (ml, error_bound_bsde(errors, gain=gain, ensemble=ens),
            float(errors.scale(gain)))


def _jhat_item(scale, coeffs, ens, lat, pol, base_means, level, level_bound):
    # policy cost, majorant and residual probe, chained knot by knot:
    # only the probes, the terminal values and the mean rows are kept
    ml, bound, delta = level_bound.result()
    means, probes = [], {}
    for k, u_k, *_ in _policy_cost_knots(ml, ens, pol, lat):
        values, drift = _majorant_knot(k, u_k, lat, bound, ml, pol, ens)
        means.append(values.mean(axis=1))
        if drift is None:
            terminal = values
        else:
            probes[k] = _residual_probe(coeffs, ens, k, lat,
                                        lat.gradient(values), drift)
        del values, drift       # not alive while the sweep steps
    rep = _side_report(terminal, lat, probes, coeffs, ens, "super",
                       0.02 * scale)
    norm_gap = float(np.max(np.abs(np.stack(means) - base_means.result())))
    return {
        "level": level,
        "delta": delta,
        "bound_sup": bound.sup_rms(),
        "residual_margin": rep["margin"],
        "terminal_margin": rep["terminal_margin"],
        "passed_super": bool(rep["passed"]),
        "norm_gap": norm_gap,
        "C": bound.sup_rms() / delta if delta > 0 else 0.0,
    }


def _pipe_jhat(cfg, out, scale, pool):
    grid, coeffs, ens = _grid_ens(cfg)
    lat = _lattice(cfg, coeffs, h=cfg.ladder_h)
    radius = float(np.max(np.abs(lat.points)))
    gain = _value_lipschitz(coeffs, cfg.T)
    # the level bounds do not read the policy: on a pool they run while
    # value_V does
    bounds = [_later(pool, _level_bound, coeffs, ens, level, radius, gain)
              for level in cfg.levels]
    surface = value_V(coeffs, ens, lat, clamp_tol=0.05, pool=pool)
    pol = ControlPolicy.feedback(surface)
    # the base cost's mean rows, knot n first, as the items stack theirs
    base_means = _later(pool, lambda: np.stack([
        mean for _, _, mean, _ in _policy_cost_knots(coeffs, ens, pol, lat)]))
    items = [_later(pool, _jhat_item, scale, coeffs, ens, lat, pol,
                    base_means, level, bound)
             for level, bound in zip(cfg.levels, bounds)]
    base_means.result()     # its failure comes first, as without a pool
    results = [it.result() for it in items]
    _write_items(os.path.join(out, "jhat_ladder.csv"), cfg.digest(), results)
    cs = [r["C"] for r in results if r["C"] > 0]
    gaps = [r["norm_gap"] for r in results]
    checks = {
        "residual_super": all(r["passed_super"] for r in results),
        "norm_decreasing": all(gaps[i] >= gaps[i + 1] - 1e-12
                               for i in range(len(gaps) - 1)),
        "C_stable": (max(cs) / min(cs) <= 2.0) if cs else True,
    }
    _write_json(os.path.join(out, "jhat_report.json"),
                {"items": results, "checks": checks})
    return checks


def _envelope_item(cfg, scale, coeffs, ens_w, ens_b, lat, surface, pool,
                   eps, delta):
    fa = fit_functional_approximant(
        coeffs, ens_w, n_intervals=cfg.n_intervals, eps_target=eps,
        x_radius=float(np.max(np.abs(lat.points))),
    )
    pair = build_envelopes(coeffs, fa, ens_w, ens_b, eps, delta,
                           lattice=lat, tol=0.02 * scale, pool=pool)
    rep = sandwich_report(pair, surface, pool=pool)
    return {
        "eps": eps,
        "delta": delta,
        "L_tilde": pair.params["L_tilde"],
        "K_bar": pair.params["K_bar"],
        "gap_upper": rep["gap_upper"],
        "gap_lower": rep["gap_lower"],
        "upper_margin": rep["upper_margin"],
        "lower_margin": rep["lower_margin"],
        "order_ok": bool(rep["order_ok"]),
        "upper_passed": bool(pair.reports["upper"]["passed"]),
        "lower_passed": bool(pair.reports["lower"]["passed"]),
        "upper_knot_margins": pair.reports["upper"]["knot_margins"],
        "lower_knot_margins": pair.reports["lower"]["knot_margins"],
    }


def _envelope_grid(cfg, out, scale, pool):
    grid, coeffs, ens_w = _grid_ens(cfg)
    ens_b = sample_ensemble(grid, 1, cfg.n_paths, cfg.seed_b)
    extra = 4.0 * max(cfg.delta_ladder) * np.sqrt(cfg.T)
    lat = _lattice(cfg, coeffs, h=cfg.ladder_h, extra_margin=extra)
    surface = value_V(coeffs, ens_w, lat, clamp_tol=0.05, pool=pool)
    items = [(eps, delta) for eps in cfg.eps_ladder
             for delta in cfg.delta_ladder]

    def item(pt):
        return _envelope_item(cfg, scale, coeffs, ens_w, ens_b, lat,
                              surface, pool, *pt)

    results = _ordered_map(item, items, pool)
    _write_items(os.path.join(out, "envelope_grid.csv"), cfg.digest(), results)
    checks = {
        "ordering": all(r["order_ok"] for r in results),
        "residual_sides": all(r["upper_passed"] and r["lower_passed"]
                              for r in results),
    }
    return results, checks


def _pipe_envelopes(cfg, out, scale, pool):
    results, checks = _envelope_grid(cfg, out, scale, pool)
    coeffs = scenario(cfg.scenario)
    lip_v = _value_lipschitz(coeffs, cfg.T)
    checks["gradient_bound"] = all(0.0 < r["L_tilde"] <= lip_v for r in results)
    _write_json(os.path.join(out, "envelopes_report.json"),
                {"items": results, "checks": checks})
    return checks


def _pipe_viscosity_check(cfg, out, scale, pool):
    grid, coeffs, ens = _grid_ens(cfg)
    lat = BoxLattice.centered(cfg.x0_max, 0.5)

    probe = sample_adapted_field(
        lambda t, x, w: np.broadcast_to(w.current[:, 0] ** 2,
                                        (x.shape[0], w.n_paths)),
        grid, lat, ens)
    est = estimate_decomposition(probe, ens)
    drift_vals = np.concatenate([est.drift[k].ravel() for k in est.drift])
    corr = min(
        float(np.corrcoef(est.noise[k][0, :, 0],
                          2.0 * ens.value_at(k)[:, 0])[0, 1])
        for k in range(1, grid.n_steps)
    )
    checks = {
        "drift_recovery": abs(float(drift_vals.mean()) - 1.0) <= 0.05 * scale,
        "noise_correlation": corr >= 0.99,
    }

    rows = []
    if cfg.scenario == "eikonal":
        lo = cfg.T + 0.3
        lat_far = BoxLattice(lo, lo + 1.4, 0.1)
        exact = sample_adapted_field(
            lambda t, x, w: np.broadcast_to(
                np.maximum(np.abs(x[:, :, 0]) - (cfg.T - t), 0.0),
                (x.shape[0], w.n_paths)),
            grid, lat_far, ens)
        est2 = estimate_decomposition(exact, ens)
        rep = residual_check(est2, coeffs, ens, "super", tol=0.03 * scale)
        for k, mu in rep["probe_mean"].items():
            for i in range(mu.size):
                rows.append((k, grid.knots[k], i, lat_far.points[i, 0],
                             mu[i], rep["probe_se"][k][i]))
        checks["exact_solution_residual"] = bool(rep["passed"])
    _write_csv(os.path.join(out, "residual_table.csv"), cfg.digest(),
               ("knot", "t", "point", "x", "mean", "se"), rows)
    _write_json(os.path.join(out, "viscosity_report.json"), {
        "drift_mean": float(drift_vals.mean()),
        "noise_corr_min": corr,
        "checks": checks,
    })
    return checks


def _pipe_full_uniqueness(cfg, out, scale, pool):
    checks = {}
    checks.update({f"mollify.{k}": v
                   for k, v in _pipe_mollify(cfg, out, scale, pool).items()})
    checks.update({f"jhat.{k}": v
                   for k, v in _pipe_jhat(cfg, out, scale, pool).items()})
    results, env_checks = _envelope_grid(cfg, out, scale, pool)
    xs = [r["eps"] + r["delta"] for r in results]
    gaps = [r["gap_upper"] + r["gap_lower"] for r in results]
    slope = _slope(xs, gaps)
    K1 = max(g / x for g, x in zip(gaps, xs))
    checks.update({f"envelopes.{k}": v for k, v in env_checks.items()})
    checks["sandwich.slope"] = (slope is not None
                                and abs(slope - 1.0) <= 0.3 * scale)
    _write_json(os.path.join(out, "uniqueness_report.json"), {
        "K1": K1, "slope": slope,
        "grid": results, "checks": checks,
    })
    return checks


def _ordered_map(fn, items, pool):
    if pool is None or len(items) <= 1:
        return [fn(it) for it in items]
    return list(pool.map(fn, items))


class _Later:
    """fn(*args), run at the first result() call: a pool-less future,
    so a run without a pool keeps the sequential order of work."""

    def __init__(self, fn, *args):
        self._call = functools.partial(fn, *args)
        self._value = None

    def result(self):
        if self._call is not None:
            self._value = self._call()
            self._call = None
        return self._value


def _later(pool, fn, *args):
    """fn(*args) submitted to pool, or deferred to its result() without
    one."""
    return _Later(fn, *args) if pool is None else pool.submit(fn, *args)


@contextlib.contextmanager
def _worker_pool(workers):
    """The pipeline's one thread pool, or None for one worker.  Queued
    work is cancelled on the way out, so a failed stage does not wait
    for the items after it."""
    if workers <= 1:
        yield None
        return
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


_RUNNERS = {
    "simulate": _pipe_simulate,
    "value": _pipe_value,
    "bsde": _pipe_bsde,
    "mollify": _pipe_mollify,
    "jhat": _pipe_jhat,
    "envelopes": _pipe_envelopes,
    "viscosity-check": _pipe_viscosity_check,
    "full-uniqueness": _pipe_full_uniqueness,
}


@functools.cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or
    None, said once on stderr, when it is not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                  "libscipy_openblas*.so"))
    lib = ctypes.CDLL(libs[0]) if libs else None
    put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if put is None:
        _say("numpy's OpenBLAS not found: BLAS threads are not pinned, so "
             "tables may depend on the host core count")
        return None
    get = lib.scipy_openblas_get_num_threads64_
    get.restype, get.argtypes = ctypes.c_int, []
    put.restype, put.argtypes = None, [ctypes.c_int]
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, restoring the caller's count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    caller = get()
    put(1)
    try:
        yield
    finally:
        put(caller)


# glibc's mallopt parameters (malloc.h) and the values _held_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_HOLD = {"mmap_threshold": 32 << 20, "trim_threshold": 16 << 20}


@functools.cache
def _glibc():
    """(mallopt, malloc_trim) of the process's C library, or None, said
    once on stderr, when it is not glibc."""
    if platform.libc_ver()[0] != "glibc":
        _say("glibc not found: the heap is not held, so pages freed "
             "between stages are faulted back in")
        return None
    libc = ctypes.CDLL(None)
    mallopt, trim = libc.mallopt, libc.malloc_trim
    mallopt.restype, mallopt.argtypes = ctypes.c_int, [ctypes.c_int] * 2
    trim.restype, trim.argtypes = ctypes.c_int, [ctypes.c_size_t]
    return mallopt, trim


@contextlib.contextmanager
def _held_heap():
    """Run the block with glibc's heap held, trimming it on every exit.

    glibc's dynamic thresholds settle near the size of the largest freed
    block, so lattice-by-path arrays of a few MB set a trim threshold of
    twice that: each stage that frees a few of them trims the top of the
    heap, and the next allocation faults zeroed pages back in.  Fixed
    thresholds stop that.  The mmap threshold is glibc's own 64-bit
    ceiling, 32 MiB, so arrays above it are still mmapped and returned
    at once.  The trim threshold is the smallest of 8, 16, 32 and 64 MiB
    that removes the re-faults without raising the peak RSS of a 400k
    path BSDE solve.  Measured as the minor faults of ``run()`` on the
    ``sandwich`` benchmark workload / the peak RSS of the ``bsde-wide``
    process, 3 runs each on 2 CPUs, glibc 2.36:

    ==================  ==========  ================
    trim threshold      faults      peak RSS
    ==================  ==========  ================
    dynamic (default)   151k        982-986 MB
    8 MiB               71-73k      980-981 MB
    16 MiB              38k         979 MB
    32 MiB              38k         1,013-1,015 MB
    64 MiB              38k         1,022-1,023 MB
    ==================  ==========  ================

    mallopt cannot give back glibc's dynamic rule, so the two thresholds
    stay set after the block; malloc_trim(0) returns the held pages.
    """
    libc = _glibc()
    if libc is None:
        yield
        return
    mallopt, trim = libc
    mallopt(_M_MMAP_THRESHOLD, _HEAP_HOLD["mmap_threshold"])
    mallopt(_M_TRIM_THRESHOLD, _HEAP_HOLD["trim_threshold"])
    try:
        yield
    finally:
        trim(0)


@contextlib.contextmanager
def _resource_use(record):
    """Put the block's minor page faults and, after it, the process's
    peak RSS in MB into record; nothing where ``resource`` is missing."""
    if resource is None:
        yield
        return
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        yield
    finally:
        after = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is in KiB on Linux, in bytes on macOS
        scale = 1 << (20 if sys.platform == "darwin" else 10)
        record.update(minor_faults=after.ru_minflt - before,
                      peak_rss_mb=after.ru_maxrss / scale)


def _manifest(out_dir, pipeline, config, workers, usage=None):
    """finish(code, checks, error=None) writing out_dir/manifest.json,
    with what _resource_use put into usage by then.

    A config that failed validation is recorded as null (None here): it
    may hold NaN, which is not strict JSON.  A run that stopped before
    its pipeline records null faults and RSS.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "pipeline": pipeline,
        "config": None if config is None else json.loads(config.to_json()),
        "config_hash": None if config is None else config.digest(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "workers": workers,
        "blas_threads": None if _openblas() is None else 1,
        "heap_hold": None if _glibc() is None else dict(_HEAP_HOLD),
        "minor_faults": None,
        "peak_rss_mb": None,
    }

    def finish(code, checks, error=None):
        record = dict(manifest, checks=checks, **(usage or {}))
        if code:
            _say(f"[{pipeline}] {error}")
            record.update(error=error, exit_code=code)
        _write_json(os.path.join(out_dir, "manifest.json"), record)
        return code, checks

    return finish


def run(config, pipeline, out_dir, *, workers=None):
    """Execute one pipeline; returns (exit_code, checks dict).

    Exit code 0: every check passed; 1: a check or the computation
    failed; 2: bad invocation (a config field that fails validation,
    fewer than one worker, an unknown pipeline or scenario, a pipeline
    that does not apply to the scenario, envelope pieces that do not end
    on knots, or sizes over the capacity budget).
    manifest.json is written on every exit; a failed run records its
    ``error`` and ``exit_code`` there.
    """
    if workers is None:     # the CPUs this process may run on
        workers = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    try:
        # a validated copy: fields assigned after construction count too
        config = dataclasses.replace(config)
    except ValueError as exc:
        return _manifest(out_dir, pipeline, None, workers)(
            2, {}, f"bad config: {exc}")
    usage = {}
    finish = _manifest(out_dir, pipeline, config, workers, usage)
    if workers < 1:
        return finish(2, {}, f"workers must be >= 1, got {workers}")
    if pipeline not in _RUNNERS:
        return finish(2, {}, f"unknown pipeline {pipeline!r}; choose from "
                      f"{PIPELINES}")
    if config.scenario not in scenario_names():
        return finish(2, {}, f"unknown scenario {config.scenario!r}; known: "
                      f"{scenario_names()}")
    needs_kink = inapplicable_pipelines(config.scenario).get(pipeline)
    if needs_kink:
        return finish(2, {}, f"{pipeline} does not apply to scenario "
                      f"{config.scenario!r}: its value is flat in x, and "
                      f"the check {needs_kink} needs a kink")
    if (pipeline in ("envelopes", "full-uniqueness")
            and config.n_steps % config.n_intervals):
        return finish(2, {}, f"{pipeline} needs n_intervals "
                      f"({config.n_intervals}) to divide n_steps "
                      f"({config.n_steps}) so pieces end on knots")
    _say(f"[{pipeline}] scenario={config.scenario} hash={config.digest()} "
         f"workers={workers}")
    try:
        with (_resource_use(usage), _one_blas_thread(), _held_heap(),
              _worker_pool(workers) as pool):
            checks = _RUNNERS[pipeline](config, out_dir,
                                        config.tolerance_scale, pool)
    except (CapacityError, AccuracyError, IntegrationError, ValueError) as exc:
        code = 2 if isinstance(exc, CapacityError) else 1
        return finish(code, {"error": str(exc)}, f"failed: {exc}")
    failed = [k for k, v in checks.items() if not v]
    if failed:
        return finish(1, checks, f"failing checks: {', '.join(failed)}")
    _say(f"[{pipeline}] all {len(checks)} checks passed")
    return finish(0, checks)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shjlab",
        description="stochastic control / viscosity-residual experiments",
    )
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--pipeline", default="value",
                        help=f"one of {', '.join(PIPELINES)}")
    parser.add_argument("--scenario", default=None,
                        help=f"scenario override ({', '.join(scenario_names())})")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the W seed (B seed follows)")
    parser.add_argument("--workers", type=int, default=None,
                        help="threads of the run's one pool (ladder items, "
                        "level bounds, halves of regression knots and of "
                        "envelope knots' rows, BSDE solves), at least 1 "
                        "(default: the CPUs this process may use); the "
                        "halves are the same at any count")
    parser.add_argument("--tolerance-scale", type=float, default=None,
                        help="override the config's tolerance_scale")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
        else:
            cfg = ExperimentConfig()
        if args.scenario is not None:
            cfg = dataclasses.replace(cfg, scenario=args.scenario)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed_w=args.seed,
                                      seed_b=args.seed + 1000003)
        if args.tolerance_scale is not None:
            cfg = dataclasses.replace(cfg,
                                      tolerance_scale=args.tolerance_scale)
    except (OSError, json.JSONDecodeError) as exc:
        # nothing to record: the file could not be read or parsed
        _say(f"bad config: {exc}")
        return 2
    except (ValueError, TypeError) as exc:
        # a parsed config that fails validation leaves a manifest, as in run()
        finish = _manifest(args.out, args.pipeline, None, args.workers)
        return finish(2, {}, f"bad config: {exc}")[0]

    code, _ = run(cfg, args.pipeline, args.out, workers=args.workers)
    return code


if __name__ == "__main__":
    sys.exit(main())
