"""Sampled random fields with an optional drift/noise decomposition.

A field here is a function of (knot, lattice point, path).  When the
drift density and the noise integrand are attached, the telescoped
increment identity

    u(r, x) = u(T, x) - sum_k drift_k * dt - sum_k noise_k . dW_k

must close up to the attached residual; ``reconstruction_report``
measures how well it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .probspace import PathSlice

__all__ = [
    "AdaptedField",
    "sample_adapted_field",
    "reconstruction_report",
]

# the mismatch reconstruction_report allows beyond the decomposition's
# own residual
_RECONSTRUCTION_RTOL = 1e-6


@dataclass
class AdaptedField:
    """Per-knot, per-lattice-point, per-path samples of a random field.

    Parameters
    ----------
    grid : TimeGrid
    lattice : BoxLattice
        Spatial sample points; ``values[k]`` has one row per point.
    values : dict
        knot -> (n_points, n_paths) array.
    drift : dict or None
        knot -> (n_points, n_paths) drift density, defined at knots
        0..n-1.  Sign convention: increments of the field gain
        ``+ drift * dt``.
    noise : dict or None
        knot -> (n_points, n_paths, m) integrand against the Brownian
        increments.
    diagnostics : dict
    """

    grid: object
    lattice: object
    values: dict
    drift: dict | None = None
    noise: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.values:
            raise ValueError("field needs at least one sampled knot")
        shapes = {v.shape for v in self.values.values()}
        if len(shapes) != 1:
            raise ValueError(f"inconsistent value shapes {sorted(shapes)}")
        (shape,) = shapes
        if shape[0] != self.lattice.n_points:
            raise ValueError("values rows must match lattice points")

    @property
    def knots(self):
        return sorted(self.values)

    def at(self, k):
        if k not in self.values:
            raise KeyError(f"knot {k} not sampled; have {self.knots}")
        return self.values[k]

    def gradient(self, k):
        """Central-difference spatial gradient at knot k.

        Returns (n_points, n_paths, d); one-sided at the box faces.
        """
        return self.lattice.gradient(self.at(k))


def sample_adapted_field(fn, grid, lattice, ensemble):
    """Evaluate fn(t, x, w) on every knot x lattice x paths.

    fn receives t (float), x of shape (n_points, 1, d) and a PathSlice,
    and must broadcast to (n_points, n_paths).  Only the slice at the
    horizon may read terminal values.
    """
    x = lattice.points[:, None, :]
    values = {}
    for k in range(grid.n_steps + 1):
        w = PathSlice(ensemble, k, terminal_ok=k == grid.n_steps)
        sampled = np.asarray(fn(grid.knots[k], x, w), float)
        values[k] = np.broadcast_to(
            sampled, (lattice.n_points, ensemble.n_paths)
        ).copy()
    return AdaptedField(grid, lattice, values)


def reconstruction_report(afield, ensemble):
    """Check the telescoped increment identity against sampled values.

    Walking back from the last sampled knot, accumulate drift * dt plus
    noise . dW and compare with the stored samples.  Reports the RMS
    mismatch and its budget per knot, and the RMS at the knot closest to
    its budget; ``passed`` allows _RECONSTRUCTION_RTOL plus whatever
    residual the decomposition carries in its diagnostics.
    """
    if afield.drift is None or afield.noise is None:
        raise ValueError("field has no drift/noise decomposition")
    ks = afield.knots
    if ks != list(range(ks[0], ks[-1] + 1)):
        raise ValueError("reconstruction needs consecutive sampled knots")
    dt = afield.grid.dt
    resid_budget = afield.diagnostics.get("residual_rms", {})
    acc = afield.at(ks[-1]).astype(float).copy()
    rms = {}
    budget = {}
    running = 0.0
    for k in range(ks[-1] - 1, ks[0] - 1, -1):
        dW = ensemble.increments[:, k, :]
        acc = acc - afield.drift[k] * dt - np.einsum(
            "ipm,pm->ip", afield.noise[k], dW
        )
        gap = acc - afield.at(k)
        rms[k] = float(np.sqrt(np.mean(gap**2)))
        running += float(resid_budget.get(k, 0.0))
        budget[k] = _RECONSTRUCTION_RTOL + running
    worst = max(rms, key=lambda k: rms[k] - budget[k])
    return {
        "rms": rms,
        "budget": budget,
        "worst_rms": rms[worst],
        "passed": all(rms[k] <= budget[k] for k in rms),
    }
