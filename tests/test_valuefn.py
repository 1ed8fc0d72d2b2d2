"""Lattices, policies, dynamic-programming values, and their audits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shjlab import valuefn
from shjlab.bsde import policy_cost_surface
from shjlab.coeffs import CoefficientSet, scenario
from shjlab.dynamics import integrate
from shjlab.exceptions import AccuracyError
from shjlab.probspace import TimeGrid, _path_mean_se, sample_ensemble
from shjlab.valuefn import BoxLattice, ControlPolicy, value_V, value_audit

SEED = 11
GRID = TimeGrid(1.0, 32)


def _ens(n_paths=500, seed=SEED, m=1):
    return sample_ensemble(GRID, m, n_paths, seed)


def _rollout_cost(co, ens, policy, starts):
    """Path mean and SE of a policy's running plus terminal cost."""
    batch = integrate(co, ens, policy, starts)
    wT = None if co.deterministic else ens.slice_at(ens.grid.n_steps,
                                                    terminal_ok=True)
    return _path_mean_se(batch.total_cost + co.G(batch.terminal, wT))


def test_lattice_geometry():
    lat = BoxLattice.centered(2.0, 0.5)
    assert lat.n_points == 9 and lat.points.shape == (9, 1)
    np.testing.assert_allclose(lat.points[:, 0], np.linspace(-2, 2, 9))
    lat2 = BoxLattice(0.0, 2.1, 0.5)
    assert lat2.n_points == 5 and lat2.hi == 2.0
    with pytest.raises(ValueError):
        BoxLattice(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        BoxLattice(0.0, 1.0, 0.0)


def test_lattice_rejects_two_component_points():
    lat = BoxLattice.centered(1.0, 0.5)
    pos = np.zeros((3, 1, 2))
    for read in (lambda: lat.interp(np.zeros((lat.n_points, 1)), pos),
                 lambda: lat.nearest_flat(pos), lambda: lat.exits(pos)):
        with pytest.raises(ValueError, match="trailing state axis of length 1"):
            read()


def test_lattice_interp_is_exact_on_affine():
    lat = BoxLattice.centered(2.0, 0.25)
    vals = (3.0 * lat.points[:, 0] - 1.0)[:, None]
    pos = np.array([[-1.87], [0.0], [0.113], [1.99]])[:, None, :]
    out, n_clamped = lat.interp(vals, pos)
    np.testing.assert_allclose(out[:, 0], 3.0 * pos[:, 0, 0] - 1.0, atol=1e-13)
    assert n_clamped == 0
    # clamped reads count once and extend constantly
    out2, n2 = lat.interp(vals, np.array([[[5.0]]]))
    assert n2 == 1
    np.testing.assert_allclose(out2[0, 0], 3.0 * 2.0 - 1.0)


@pytest.mark.parametrize("E, n_eff", [(6, 6), (1, 6), (6, 1)])
def test_lattice_interp_matches_np_interp(E, n_eff):
    # non-affine fields, read column by column against np.interp, which
    # extends constantly past the ends just as the lattice clamp does
    rng = np.random.default_rng(SEED)
    lat = BoxLattice.centered(1.5, 0.1)
    vals = rng.standard_normal((lat.n_points, n_eff))
    pos = rng.uniform(lat.lo, lat.hi, (9, 4, E, 1))
    outside = [lat.lo - 0.3, lat.hi + 0.05, lat.hi + 7.0]
    pos[0, 0, 0, 0], pos[3, 2, -1, 0], pos[8, 3, 0, 0] = outside
    out, n_clamped = lat.interp(vals, pos)
    assert out.shape == (9, 4, max(E, n_eff))
    assert n_clamped == len(outside)
    for col in range(max(E, n_eff)):
        x = pos[..., min(col, E - 1), 0]
        ref = np.interp(x, lat.points[:, 0], vals[:, min(col, n_eff - 1)])
        np.testing.assert_allclose(out[..., col], ref, rtol=1e-12, atol=1e-12)


def _interp_by_corner(lat, values, pos):
    # reference: fancy-index both neighbours, the sum started from 0.0
    u = np.clip((pos[..., 0] - lat.lo) / lat.h, 0.0, lat.n_points - 1.0)
    i = np.minimum(u.astype(int), lat.n_points - 2)
    frac = u - i
    cols = np.arange(values.shape[1])
    return 0.0 + (1.0 - frac) * values[i, cols] + frac * values[i + 1, cols]


# d is the state dimension, the trailing axis of pos
@pytest.mark.parametrize("d", [1])
@pytest.mark.parametrize("E, n_eff", [(5, 5), (1, 5), (5, 1)])
def test_lattice_interp_matches_corner_reference_bit_for_bit(d, E, n_eff):
    rng = np.random.default_rng(SEED + d)
    lat = BoxLattice(-1.0, 1.0, 0.2)
    vals = rng.standard_normal((lat.n_points, n_eff))
    pos = rng.uniform(-1.3, 1.6, (7, 3, E, d))
    out, _ = lat.interp(vals, pos)
    assert out.tobytes() == _interp_by_corner(lat, vals, pos).tobytes()
    # a strided column, which values.ravel() has to copy
    grad = np.stack([vals, -vals], axis=-1)[..., 1]
    out, _ = lat.interp(grad, pos)
    assert out.tobytes() == _interp_by_corner(lat, grad, pos).tobytes()


@settings(max_examples=40, deadline=None)
@given(h=st.sampled_from([0.1, 0.25, 0.5]),
       slope=st.floats(-10.0, 10.0),
       offset=st.floats(-10.0, 10.0))
def test_lattice_gradient_and_lipschitz_exact_on_affine(h, slope, offset):
    lat = BoxLattice.centered(1.0, h)
    # two columns: the field and its negative
    u = slope * lat.points[:, 0] + offset
    vals = np.stack([u, -u], axis=1)
    grad = lat.gradient(vals)
    assert grad.shape == (lat.n_points, 2, 1)
    np.testing.assert_allclose(grad[:, 0, 0], slope, rtol=0, atol=1e-9)
    np.testing.assert_allclose(grad[:, 1, :], -grad[:, 0, :], rtol=0, atol=0)
    assert abs(lat.lipschitz(vals) - abs(slope)) <= 1e-9


def test_policy_constructors():
    pol = ControlPolicy.constant(4)
    assert pol.collapsed
    idx = np.zeros((GRID.n_steps, 7), int)
    open_pol = ControlPolicy.open_loop(idx)
    assert not open_pol.collapsed
    with pytest.raises(ValueError):
        ControlPolicy.open_loop(np.zeros((2, 3, 4), int))


def test_feedback_requires_argmin_tables():
    # a policy cost surface keeps no argmin tables
    co = scenario("zeros")
    lat = BoxLattice.centered(2.0, 0.5)
    u = policy_cost_surface(co, _ens(), ControlPolicy.constant(0), lat)
    with pytest.raises(ValueError):
        ControlPolicy.feedback(u)


def test_feedback_reads_every_knot_when_slices_are_strided(monkeypatch):
    # a small budget makes store_knots="auto" keep every other slice; the
    # greedy policy still needs an argmin table at every knot
    co = scenario("random-target")
    ens = sample_ensemble(TimeGrid(1.0, 16), 1, 300, SEED)
    lat = BoxLattice.for_problem(co, 1.0, 1.0, 0.1, margin=0.25)
    monkeypatch.setattr(valuefn, "AUTO_STORE_BUDGET", 17 * lat.n_points * 300 - 1)
    V = value_V(co, ens, lat, clamp_tol=0.05)
    assert sorted(V.slices) == list(range(0, 17, 2))
    assert sorted(V.argmin) == list(range(16))
    report = value_audit(co, ens, V, np.linspace(-1.0, 1.0, 3)[:, None])
    assert np.isfinite(report["eps_report"])


def test_zeros_value_identically_zero():
    co = scenario("zeros")
    lat = BoxLattice.centered(2.0, 0.5)
    V = value_V(co, _ens(), lat)
    assert np.abs(V.mean).max() == 0.0
    assert V.collapsed


def test_constant_run_cost_value_exact():
    # beta = 0, f = 1, G = 0: V(t, x) = T - t under left-endpoint costs
    co = scenario("constant-run-cost")
    lat = BoxLattice.centered(2.0, 0.5)
    V = value_V(co, _ens(), lat)
    for k in (0, 16, 32):
        np.testing.assert_allclose(V.mean[k], 1.0 - GRID.knots[k], atol=1e-13)


def test_eikonal_value_oracle():
    co = scenario("eikonal")
    lat = BoxLattice.centered(3.25, 0.05)
    V = value_V(co, _ens(), lat)
    # away from the moving kink |x| = T - t the lattice DP is exact:
    # the min picks the downhill control and every read lands on a
    # linear stretch of the previous slice
    assert abs(float(V.mean_at(0, np.array([[2.0]]))[0]) - 1.0) < 1e-10
    assert abs(float(V.mean_at(0, np.array([[0.0]]))[0])) < 1e-12
    assert abs(float(V.mean_at(0, np.array([[-2.0]]))[0]) - 1.0) < 1e-10
    # terminal slice is the exact terminal cost, no interpolation
    np.testing.assert_allclose(
        V.pathwise(32)[:, 0],
        np.asarray(co.G(lat.points[:, None, :], None))[:, 0], atol=0.0)


@pytest.mark.parametrize("h,bias_cap", [(0.05, 0.10), (0.025, 0.06),
                                        (0.01, 0.025), (0.005, 0.012)])
def test_eikonal_kink_bias_shrinks_with_h(h, bias_cap):
    # at x = +-1 the chord of the interpolant overshoots the traveling
    # kink; the overshoot is O(h) and must shrink as the lattice refines
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 64), 1, 8, SEED)
    lat = BoxLattice.centered(3.25, h)
    V = value_V(co, ens, lat, clamp_tol=0.05)
    bias = float(V.mean_at(0, np.array([[1.0]]))[0])
    assert 0.0 <= bias < bias_cap


def test_value_is_monotone_under_policies():
    co = scenario("eikonal")
    lat = BoxLattice.centered(3.25, 0.05)
    ens = _ens()
    V = value_V(co, ens, lat)
    # starts stay off x = +-1, where the O(h) kink bias puts the DP
    # surface above the (achievable) rollout cost
    starts = np.array([[-2.0], [0.0], [2.0]])
    for pol in (ControlPolicy.constant(0), ControlPolicy.feedback(V)):
        cost, se = _rollout_cost(co, ens, pol, starts)
        v0 = np.array([float(V.mean_at(0, s[None, :])[0]) for s in starts])
        assert np.all(cost >= v0 - 1e-9 - 3.0 * se)


def test_constant_policy_cost_oracle():
    # eikonal, v = -1 from x0: X_T = x0 - T, cost |x0 - 1| exactly
    co = scenario("eikonal")
    starts = np.array([[-2.0], [0.0], [0.7], [2.0]])
    cost, se = _rollout_cost(co, _ens(), ControlPolicy.constant(0), starts)
    np.testing.assert_allclose(cost, np.abs(starts[:, 0] - 1.0), atol=1e-12)
    np.testing.assert_allclose(se, 0.0)


@pytest.mark.parametrize("name", ["eikonal", "random-target"])
def test_eps_report_prices_the_greedy_rollout(name):
    # value_audit prices the greedy batch its supermartingale check
    # integrates; a rollout that records every knot costs the same
    co = scenario(name)
    ens = sample_ensemble(TimeGrid(1.0, 16), 1, 300, SEED)
    lat = BoxLattice.for_problem(co, 1.0, 1.0, 0.1, margin=0.25)
    V = value_V(co, ens, lat, clamp_tol=0.05)
    starts = np.linspace(-1.0, 1.0, 5)[:, None]
    cost, _ = _rollout_cost(co, ens, ControlPolicy.feedback(V), starts)
    v0 = np.array([float(V.mean_at(0, s[None, :])[0]) for s in starts])
    report = value_audit(co, ens, V, starts)
    assert report["eps_report"] == float((cost - v0).max())


def test_value_with_noise_and_regression_branch():
    co = scenario("random-target")
    lat = BoxLattice.centered(2.0, 0.25)
    ens = _ens(800)
    aux = sample_ensemble(GRID, 1, 800, SEED + 3)
    V = value_V(co, ens, lat, noise_level=0.1, noise_ensemble=aux,
                clamp_tol=0.2)
    assert not V.collapsed
    assert V.pathwise(0).shape == (lat.n_points, 800)
    assert np.all(np.isfinite(V.mean))
    # values live between zero cost and the worst terminal distance;
    # cross-path projections may overshoot slightly
    assert V.mean.min() >= -0.05
    assert V.mean.max() <= 3.05


def test_clamp_budget_raises():
    co = scenario("eikonal")
    lat = BoxLattice.centered(0.5, 0.25)   # far smaller than reachable
    with pytest.raises(AccuracyError):
        value_V(co, _ens(), lat, clamp_tol=0.01)


def _noisy_reference(co, ens, aux, lat, delta):
    """Per-control loop of the noisy one-column recursion, path by path.

    Returns the mean rows, se rows, argmin tables, the near-tie mask of
    each table (best and runner-up totals within 1e-12) and the share of
    Euler images that left the box.
    """
    grid = ens.grid
    x = lat.points[:, None, :]
    V = np.broadcast_to(co.G(x, None), (lat.n_points, 1)).copy()
    raw = np.broadcast_to(V, (lat.n_points, 1))
    mean, se, argmin, tied = {}, {}, {}, {}
    clamped = evals = 0
    for k in range(grid.n_steps, -1, -1):
        if k < grid.n_steps:
            dB = delta * aux.increments[:, k, :]
            totals, raws = [], []
            for v in co.controls:
                pos = x + grid.dt * co.beta(grid.knots[k], x, v, None) + dB
                vals, nc = lat.interp(V, pos)
                clamped += nc
                evals += vals.size
                vals += co.f(grid.knots[k], x, v, None) * grid.dt
                totals.append(vals.mean(axis=-1))
                raws.append(vals)
            totals = np.array(totals)                 # (n_controls, n_points)
            argmin[k] = np.argmin(totals, axis=0)
            ranked = np.sort(totals, axis=0)
            tied[k] = ranked[1] - ranked[0] <= 1e-12
            raw = np.take_along_axis(np.array(raws),
                                     argmin[k][None, :, None], 0)[0]
            V = raw.mean(axis=-1, keepdims=True)
        mean[k] = raw.mean(axis=-1)
        se[k] = (raw.std(axis=-1, ddof=1) / np.sqrt(raw.shape[-1])
                 if raw.shape[-1] > 1 else np.zeros(lat.n_points))
    return mean, se, argmin, tied, clamped / evals


@pytest.mark.parametrize("name,delta", [("eikonal", 0.3), ("linear-drift", 0.3),
                                        ("constant-run-cost", 0.05)])
def test_noisy_one_column_recursion_matches_reference(name, delta):
    # eikonal and constant-run-cost shift every node alike, so value_V
    # scores their controls by stencils; linear-drift keeps the sweep.
    # The small box makes a share of the noisy images leave it.
    co = scenario(name)
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 1, 300, SEED)
    aux = sample_ensemble(grid, 1, 300, SEED + 5)
    lat = BoxLattice.centered(1.2, 0.1)
    reads = []
    interp = lat.interp

    def counting(values, pos):
        out = interp(values, pos)
        reads.append(out[0].size)
        return out

    lat.interp = counting
    V = value_V(co, ens, lat, noise_level=delta, noise_ensemble=aux,
                clamp_tol=1.0)
    lat.interp = interp
    mean, se, argmin, tied, frac = _noisy_reference(co, ens, aux, lat, delta)

    assert V.diagnostics["clamp_fraction"] == frac > 0.0
    for k in range(grid.n_steps + 1):
        np.testing.assert_allclose(V.mean[k], mean[k], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(V.se[k], se[k], rtol=0.0, atol=1e-12)
    for k in range(grid.n_steps):
        got = V.argmin[k][:, 0]
        assert np.array_equal(got[~tied[k]], argmin[k][~tied[k]])
    # the stencil path interpolates each node and path once per knot
    per_knot = lat.n_points * ens.n_paths
    expect = per_knot * (1 if name != "linear-drift" else co.n_controls)
    assert sum(reads) == grid.n_steps * expect


@pytest.mark.parametrize("slope", [0.0, 1e-3])
def test_clamp_error_names_knot_control_and_face(slope):
    # control 1 drifts right, so the hi face takes the most exits; the
    # knot follows the noise.  slope 0 runs the stencil path, a drift
    # that varies across nodes the sweep
    grid = TimeGrid(1.0, 8)
    co = CoefficientSet(
        controls=np.array([[0.0], [4.0]]),
        beta=lambda t, x, v, w: slope * x + v,
        f=lambda t, x, v, w: np.zeros(x.shape[:-1]),
        G=lambda x, w: np.abs(x[..., 0]), L=5.0, lip_x=1.0)
    ens = sample_ensemble(grid, 1, 200, SEED)
    aux = sample_ensemble(grid, 1, 200, SEED + 1)
    lat = BoxLattice.centered(1.0, 0.1)
    x = lat.points[:, None, :]
    exits = np.zeros((grid.n_steps, co.n_controls, 2), int)
    for k in range(grid.n_steps):
        for j, v in enumerate(co.controls):
            pos = (x + grid.dt * co.beta(0.0, x, v, None)
                   + 0.5 * aux.increments[:, k, :])[..., 0]
            exits[k, j] = (pos < lat.lo).sum(), (pos > lat.hi).sum()
    k = int(np.argmax(exits.sum(axis=(1, 2))))
    assert np.argmax(exits[k].sum(axis=1)) == 1 and exits[k, 1, 1] > exits[k, 1, 0]
    with pytest.raises(AccuracyError,
                       match=f"most exits at knot {k}: control 1, face x0 hi "
                             f"\\({exits[k, 1, 1]} exits\\)"):
        value_V(co, ens, lat, noise_level=0.5, noise_ensemble=aux,
                clamp_tol=0.01)


def test_pathwise_reports_missing_knot(monkeypatch):
    # one knot over budget: slices are kept at every 4th knot only
    co = scenario("zeros")
    lat = BoxLattice.centered(2.0, 0.5)
    monkeypatch.setattr(valuefn, "AUTO_STORE_BUDGET", 33 * lat.n_points - 1)
    V = value_V(co, _ens(n_paths=20), lat)
    assert sorted(V.slices) == list(range(0, 33, 4))
    with pytest.raises(KeyError, match="knot 3 not stored"):
        V.pathwise(3)


def test_audit_zeros_scenario_clean():
    co = scenario("zeros")
    lat = BoxLattice.centered(2.0, 0.5)
    V = value_V(co, _ens(), lat)
    report = value_audit(co, _ens(), V, np.linspace(-1, 1, 3)[:, None])
    assert report["supermartingale_margin"] >= 0.0
    assert report["supermartingale_pointwise"] >= 0.0
    assert report["eps_report"] <= 1e-12
    assert report["passed"]


def test_audit_eikonal_fine_lattice():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 64), 1, 500, SEED)
    lat = BoxLattice.centered(3.25, 0.005)
    V = value_V(co, ens, lat, clamp_tol=0.05)
    report = value_audit(co, ens, V, np.linspace(-2, 2, 5)[:, None])
    assert report["passed"], report
    assert report["lipschitz_observed"] <= 1.0 + 1e-9
    assert report["sup_value"] <= report["value_bound"]


def test_audit_detects_broken_surface():
    co = scenario("eikonal")
    lat = BoxLattice.centered(3.25, 0.05)
    ens = _ens()
    V = value_V(co, ens, lat)
    # inflate the initial slice only: rollouts from t = 0 now beat it
    V.slices[0] = V.slices[0] + 0.5
    V.mean = V.mean.copy()
    V.mean[0] += 0.5
    report = value_audit(co, ens, V, np.zeros((1, 1)))
    assert not report["supermartingale_ok"]
    assert not report["passed"]
