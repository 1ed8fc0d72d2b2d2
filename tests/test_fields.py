"""Adapted random fields and the telescoped increment identity."""

import numpy as np
import pytest

from shjlab.fields import AdaptedField, reconstruction_report, sample_adapted_field
from shjlab.probspace import TimeGrid, sample_ensemble
from shjlab.valuefn import BoxLattice

SEED = 7
GRID = TimeGrid(1.0, 16)
LAT = BoxLattice.centered(1.0, 0.25)


def _ens(n_paths=64):
    return sample_ensemble(GRID, n_paths, SEED)


def _linear_field(a=0.5, b=2.0, n_paths=64):
    """u(t, x) = a t + b W_t with its exact drift/noise decomposition."""
    ens = _ens(n_paths)
    shape = (LAT.n_points, n_paths)
    values = {
        k: np.broadcast_to(a * GRID.knots[k] + b * ens.value_at(k)[:, 0], shape).copy()
        for k in range(GRID.n_steps + 1)
    }
    drift = {k: np.full(shape, a) for k in range(GRID.n_steps)}
    noise = {k: np.full(shape + (1,), b) for k in range(GRID.n_steps)}
    return ens, AdaptedField(GRID, LAT, values, drift, noise)


def test_field_validation():
    with pytest.raises(ValueError):
        AdaptedField(GRID, LAT, {})
    bad = {0: np.zeros((LAT.n_points, 4)), 1: np.zeros((LAT.n_points, 5))}
    with pytest.raises(ValueError):
        AdaptedField(GRID, LAT, bad)
    with pytest.raises(ValueError):
        AdaptedField(GRID, LAT, {0: np.zeros((LAT.n_points + 1, 4))})


def test_field_accessors():
    _, u = _linear_field()
    assert u.knots == list(range(17))
    assert u.drift is not None
    assert u.at(3).shape == (LAT.n_points, 64)
    with pytest.raises(KeyError):
        u.at(99)


def test_gradient_exact_where_stencil_allows():
    # central differences are exact on quadratics; the one-sided face
    # stencil is first order, exact on affine fields only
    x = LAT.points[:, 0]
    vals = {0: np.repeat((x**2 - 0.5 * x)[:, None], 3, axis=1)}
    u = AdaptedField(GRID, LAT, vals)
    g = u.gradient(0)
    assert g.shape == (LAT.n_points, 3, 1)
    np.testing.assert_allclose(g[1:-1, 1, 0], 2.0 * x[1:-1] - 0.5, atol=1e-12)
    aff = AdaptedField(GRID, LAT, {0: (3.0 * x - 1.0)[:, None]})
    np.testing.assert_allclose(aff.gradient(0)[:, 0, 0], 3.0, atol=1e-12)


def test_reconstruction_exact_on_linear_field():
    ens, u = _linear_field()
    report = reconstruction_report(u, ens)
    assert report["passed"]
    assert report["worst_rms"] < 1e-12


def test_reconstruction_of_shift_is_unchanged():
    ens, u = _linear_field()
    lifted = {k: v + 3.0 for k, v in u.values.items()}
    report = reconstruction_report(
        AdaptedField(GRID, LAT, lifted, u.drift, u.noise), ens)
    assert report["passed"]


def test_reconstruction_flags_wrong_drift():
    ens, u = _linear_field()
    broken = {k: d + 0.3 for k, d in u.drift.items()}
    v = AdaptedField(GRID, LAT, u.values, broken, u.noise)
    report = reconstruction_report(v, ens)
    assert not report["passed"]
    # mismatch accumulates linearly walking backwards from the horizon
    assert report["rms"][0] > report["rms"][GRID.n_steps - 1]


def test_reconstruction_requires_decomposition_and_consecutive_knots():
    ens = _ens()
    vals = {k: np.zeros((LAT.n_points, 64)) for k in (0, 2, 4)}
    u = AdaptedField(GRID, LAT, vals)
    with pytest.raises(ValueError):
        reconstruction_report(u, ens)
    d = {k: np.zeros((LAT.n_points, 64)) for k in (0, 2)}
    z = {k: np.zeros((LAT.n_points, 64, 1)) for k in (0, 2)}
    gappy = AdaptedField(GRID, LAT, vals, d, z)
    with pytest.raises(ValueError):
        reconstruction_report(gappy, ens)


def test_sample_adapted_field_broadcasts_and_gates():
    ens = _ens(32)
    u = sample_adapted_field(
        lambda t, x, w: x[..., 0] + w.current[:, 0], GRID, LAT, ens)
    assert u.at(0).shape == (LAT.n_points, 32)
    np.testing.assert_allclose(
        u.at(5), LAT.points[:, :1] + ens.value_at(5)[:, 0])
    # the path slice refuses terminal reads before the horizon: knot 0
    with pytest.raises(ValueError):
        sample_adapted_field(
            lambda t, x, w: x[..., 0] + w.terminal[:, 0], GRID, LAT, ens)
