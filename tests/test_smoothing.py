"""Mollification kernel, penalty function, and approximation errors."""

import numpy as np
import pytest

from shjlab.coeffs import DECLARED, scenario, scenario_names
from shjlab.probspace import TimeGrid, sample_ensemble
from shjlab.smoothing import (MollifiedSet, _bump_normalizer, _tanh_sinh,
                              _uniform_cell, bump_kernel, error_processes,
                              fit_functional_approximant, kernel_quadrature,
                              linear_growth_penalty)

SEED = 13
LEVELS = (2, 4, 8, 16)


def test_bump_kernel_support_and_symmetry():
    x = np.linspace(-2, 2, 401)[:, None]
    rho = bump_kernel(x)
    assert np.all(rho >= 0.0)
    assert np.all(rho[np.abs(x[:, 0]) >= 1.0] == 0.0)
    np.testing.assert_allclose(rho, rho[::-1], atol=1e-15)


def test_bump_kernel_unit_mass():
    # Gauss-Legendre route, independent of the radial normalizer
    xi, wi = np.polynomial.legendre.leggauss(64)
    mass = float(np.sum(wi * bump_kernel(xi[:, None])))
    assert abs(mass - 1.0) < 1e-8


def test_bump_normalizer_is_the_adaptive_quadrature_double():
    # the double scipy.integrate.quad gave (epsabs 1e-14, epsrel 1e-13)
    assert _bump_normalizer() == 2.2522836210435813


def test_tanh_sinh_integrates_smooth_and_endpoint_singular_maps():
    assert abs(_tanh_sinh(lambda x: 3.0 * x * x) - 1.0) < 1e-15
    # log x is unbounded at 0, where the rule's nodes cluster
    assert abs(_tanh_sinh(np.log) + 1.0) < 1e-14


def test_tanh_sinh_refuses_an_unresolved_integrand():
    # a spike of width 1e-3 falls between the nodes: the two steps disagree
    with pytest.raises(ArithmeticError, match="did not converge"):
        _tanh_sinh(lambda x: np.exp(-((x - 0.3) / 1e-3) ** 2))


def test_kernel_quadrature_nodes():
    nodes, weights = kernel_quadrature(4)
    assert nodes.shape == (17, 1)
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.abs(nodes).max() < 0.25
    assert np.all(weights > 0.0)


@pytest.mark.parametrize("level", LEVELS)
def test_mollified_abs_gap_bound(level):
    # |x| is 1-Lipschitz; the sup gap is c/level, peaking at the kink.
    # The eikonal terminal cost is |x| on [-1.5, 1.5] (its cap is 10)
    smooth = MollifiedSet(scenario("eikonal"), level).G
    xs = np.linspace(-1.5, 1.5, 301)[:, None]
    gap = np.abs(smooth(xs, None) - np.abs(xs[:, 0]))
    assert gap.max() <= 1.0 / level + 1e-12
    assert np.argmax(gap) == 150  # at the kink


def test_mollified_gap_scaling_slope():
    smooth_gaps = []
    for level in LEVELS:
        smooth = MollifiedSet(scenario("eikonal"), level).G
        smooth_gaps.append(float(smooth(np.zeros((1, 1)), None)[0]))
    ratios = np.array(smooth_gaps[:-1]) / np.array(smooth_gaps[1:])
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-10)
    slope = np.polyfit(np.log(LEVELS), np.log(smooth_gaps), 1)[0]
    assert abs(slope + 1.0) < 0.3


def test_penalty_function():
    probe = np.linspace(-3.0, 3.0, 201)[:, None]
    h, dh = linear_growth_penalty(probe)
    assert abs(float(linear_growth_penalty(np.zeros((1, 1)))[0][0])) < 1e-9
    assert abs(float(linear_growth_penalty(np.full((1, 1), 3.0))[0][0]) - 2.0) < 1e-6
    assert np.abs(dh).max() <= 1.0 + 1e-9
    # convex lower bound h > |x| - 2
    assert np.all(h >= np.abs(probe[:, 0]) - 2.0)
    # gradient consistent with finite differences
    eps = 1e-6
    hp = linear_growth_penalty(probe + eps)[0]
    hm = linear_growth_penalty(probe - eps)[0]
    np.testing.assert_allclose(dh[:, 0], (hp - hm) / (2 * eps), atol=1e-6)


def _penalty_by_hand(x):
    # the hinge and its gradient averaged over the shifted nodes, as
    # written out before the penalty went through the kernel average
    nodes, weights = kernel_quadrature(1)
    shifted = x[None, ...] - nodes.reshape((-1,) + (1,) * (x.ndim - 1)
                                           + (nodes.shape[1],))
    dist = np.linalg.norm(shifted, axis=-1)
    h = np.tensordot(weights, np.maximum(dist - 1.0, 0.0), axes=(0, 0))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[..., None] > 0,
                        shifted / np.maximum(dist[..., None], 1e-300), 0.0)
    grad_terms = np.where((dist > 1.0)[..., None], unit, 0.0)
    return h, np.tensordot(weights, grad_terms, axes=(0, 0))


@pytest.mark.parametrize("probe", [
    np.linspace(-3.0, 3.0, 201)[:, None],
    # two leading axes of points
    np.linspace(-2.0, 2.0, 81).reshape(9, 9, 1),
])
def test_penalty_matches_formula_bit_for_bit(probe):
    h, dh = linear_growth_penalty(probe)
    h_ref, dh_ref = _penalty_by_hand(probe)
    assert np.array_equal(h, h_ref) and np.array_equal(dh, dh_ref)


def test_kernel_and_penalty_reject_two_component_points():
    points = np.zeros((4, 2))
    for fn in (bump_kernel, linear_growth_penalty):
        with pytest.raises(ValueError, match="trailing state axis of length 1"):
            fn(points)


def test_mollified_set_wraps_coefficients():
    co = scenario("eikonal")
    ml = MollifiedSet(co, level=2)
    xs = np.linspace(-2, 2, 161)[:, None, None]
    gap = np.abs(np.asarray(ml.G(xs, None)) - np.asarray(co.G(xs, None)))
    assert 0.1 < gap.max() <= co.lip_x / 2 + 1e-12
    # drift is already smooth: mollification leaves it unchanged
    v = co.controls[5]
    np.testing.assert_allclose(np.asarray(ml.beta(0.3, xs, v, None)),
                               np.asarray(co.beta(0.3, xs, v, None)),
                               atol=1e-12)
    assert ml.n_controls == co.n_controls


@pytest.mark.parametrize("level", (4, 8, 16))
def test_error_processes_bounded_by_level(level):
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 8), 200, SEED)
    ml = MollifiedSet(co, level=level)
    errors = error_processes(co, ml, ens, radius=3.0)
    assert errors.dG.shape == (200,)
    assert errors.df.shape == (8, 200)
    assert errors.dG.max() <= co.lip_x / level + 1e-12
    assert errors.scale(1.0) <= errors.scale(5.0)


def test_error_processes_halve_with_level():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 8), 200, SEED)
    scales = [error_processes(co, MollifiedSet(co, level=l), ens,
                              radius=3.0).scale(1.0)
              for l in (4, 8, 16)]
    np.testing.assert_allclose(np.array(scales[:-1]) / np.array(scales[1:]),
                               2.0, rtol=1e-6)


def test_functional_approximant_eikonal_is_path_free():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 16), 2000, SEED)
    fa = fit_functional_approximant(co, ens, eps_target=0.1, x_radius=3.0)
    assert fa.w_grid is None  # no terminal separation: one term
    assert fa.deterministic
    assert fa.achieved["G_sup"] <= 0.1
    # beta and f are affine, so they pass through unsmoothed as the base
    # set's lines ...
    assert fa.lines(0.5) is co.lines(0.5)
    # ... while G keeps its mollified kink at x = 0
    kink = np.zeros((1, 1))
    assert np.asarray(fa.G(kink, None))[0] > np.asarray(co.G(kink, None))[0]


def test_functional_approximant_random_target():
    co = scenario("random-target")
    ens = sample_ensemble(TimeGrid(1.0, 16), 2000, SEED)
    fa = fit_functional_approximant(co, ens, eps_target=0.1, x_radius=3.0)
    assert not fa.deterministic
    assert fa.w_grid.size > 10  # hat expansion in the terminal Brownian value
    assert fa.achieved["G_sup"] <= 0.1
    # held-out paths agree with the base terminal cost
    probe = sample_ensemble(TimeGrid(1.0, 16), 500, SEED + 1)
    wT = probe.slice_at(16, terminal_ok=True)
    x = np.linspace(-2, 2, 41)[:, None, None]
    gap = np.abs(np.asarray(fa.G(x, wT)) - np.asarray(co.G(x, wT)))
    assert gap.max() <= 0.1 + 1e-9


def test_functional_approximant_payoff_grid():
    co = scenario("random-target")
    ens = sample_ensemble(TimeGrid(1.0, 16), 2000, SEED)
    fa = fit_functional_approximant(co, ens, eps_target=0.1, x_radius=3.0)
    xs = np.linspace(-2, 2, 21)
    ws = np.linspace(-2, 2, 11)
    plane = fa.payoff_grid(xs, ws)
    assert plane.shape == (21, 11)
    # plane evaluated column-wise matches the separated form near targets
    assert np.all(np.isfinite(plane))
    assert plane.min() >= -0.2


def _payoff_grid_by_hand(fa, xs, ws):
    # the hat-by-profile interpolation as payoff_grid wrote it out before
    # it read G on a synthetic terminal ensemble
    if fa.w_grid is None:
        g = np.asarray(fa.mollified.G(xs[:, None], None), float)
        return np.repeat(g[:, None], ws.size, axis=1)
    cell, frac = _uniform_cell(fa.w_grid, ws)
    xc, xfr = _uniform_cell(fa.x_fine, xs)
    prof = (1.0 - xfr)[None, :] * fa.slices[:, xc] \
        + xfr[None, :] * fa.slices[:, xc + 1]
    return (1.0 - frac)[None, :] * prof[cell, :].T \
        + frac[None, :] * prof[cell + 1, :].T


@pytest.mark.parametrize("name", ["random-target", "eikonal"])
def test_payoff_grid_matches_formula_bit_for_bit(name):
    ens = sample_ensemble(TimeGrid(1.0, 16), 2000, SEED)
    fa = fit_functional_approximant(scenario(name), ens, eps_target=0.1,
                                    x_radius=3.0)
    # ws runs past the hat grid on both sides, so the clamp is exercised
    xs = np.linspace(-3.5, 3.5, 57)
    ws = np.linspace(-6.0, 6.0, 31)
    assert np.array_equal(fa.payoff_grid(xs, ws), _payoff_grid_by_hand(fa, xs, ws))


@pytest.mark.parametrize("name", scenario_names())
def test_approximants_carry_declared_constants(name):
    co = scenario(name)
    ens = sample_ensemble(TimeGrid(1.0, 8), 200, SEED)
    fa = fit_functional_approximant(co, ens, eps_target=0.2, x_radius=2.0)
    for approx in (MollifiedSet(co, 4), fa):
        for attr in DECLARED:
            value, declared = getattr(approx, attr), getattr(co, attr)
            assert np.array_equal(value, declared), (type(approx), attr)
    # the terminal cost is separated exactly when the base reads the path
    assert (fa.w_grid is None) is co.deterministic
