"""Hamiltonians, residual checks, envelopes, and the FD cross-check."""

import concurrent.futures
import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shjlab import viscosity
from shjlab.coeffs import (_running_argmin, reach_radius, scenario,
                           scenario_names)
from shjlab.exceptions import AccuracyError
from shjlab.fields import AdaptedField, reconstruction_report
from shjlab.probspace import TimeGrid, sample_ensemble
from shjlab.smoothing import MollifiedSet, fit_functional_approximant
from shjlab.valuefn import BoxLattice, value_V
from shjlab.viscosity import (_control_lines, build_envelopes,
                              estimate_decomposition, hamiltonian,
                              residual_check, sandwich_report,
                              solve_hjb_fd_1d)

SEED = 41
GRID = TimeGrid(1.0, 16)


def _ens(n_paths, seed=SEED, m=1):
    return sample_ensemble(GRID, m, n_paths, seed)


def _fit(base, ens_w, eps):
    # probes and slices reach |x0| <= 1 with a unit margin
    return fit_functional_approximant(
        base, ens_w, eps_target=eps,
        x_radius=reach_radius(base, 1.0, GRID.T, margin=1.0))


def test_hamiltonian_eikonal():
    co = scenario("eikonal")
    p = np.array([[-2.0], [-0.3], [0.0], [0.3], [2.0]])
    val, idx = hamiltonian(co, 0.0, np.zeros_like(p), p)
    np.testing.assert_allclose(val, -np.abs(p[:, 0]), atol=1e-12)
    # ties at p = 0 resolve to the first control
    assert idx[2] == 0
    assert idx[0] == co.n_controls - 1 and idx[4] == 0


def test_hamiltonian_linear_drift_hand_value():
    # beta = -x/2 + v, f = |v|^2 / 10; at p = 0.3 the grid minimum sits
    # at v = -1: H = -x p / 2 - 0.3 + 0.1
    co = scenario("linear-drift")
    val, idx = hamiltonian(co, 0.0, np.array([2.0]), np.array([0.3]))
    np.testing.assert_allclose(val, -0.5, atol=1e-12)
    assert co.controls[int(idx)] == -1.0


# every built-in, its level-4 mollification and its tensor approximant
SET_KINDS = [(name, kind) for name in scenario_names()
             for kind in ("base", "mollified", "tensor")]
N_PATHS = 6
TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17]


@functools.lru_cache(maxsize=None)
def _problem(name, kind):
    co = scenario(name)
    if kind == "mollified":
        co = MollifiedSet(co, 4)
    elif kind == "tensor":
        co = fit_functional_approximant(
            co, sample_ensemble(TimeGrid(1.0, 8), 1, 200, SEED),
            eps_target=0.2, x_radius=2.0)
    # the path argument is a real slice: random-target reads it
    w = _ens(N_PATHS).slice_at(5)
    return co, w


def _sweep_reference(co, t, x, p, w):
    # the score and running minimum the Hamiltonian had before its
    # envelope path: every control, ties to the lowest index
    def scores():
        for v in co.controls:
            b = np.asarray(co.beta(t, x, v, w), float)
            shape = np.broadcast_shapes(b.shape, p.shape)
            yield (np.sum(np.broadcast_to(b, shape) * p, axis=-1)
                   + np.asarray(co.f(t, x, v, w), float))

    return _running_argmin(scores())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_envelope_hamiltonian_matches_sweep_bitwise(data):
    name, kind = data.draw(st.sampled_from(SET_KINDS))
    co, w = _problem(name, kind)
    t = data.draw(st.sampled_from([0.0, 0.3125]))
    breaks = _control_lines(co, t, w)[0]
    # exact breakpoints, their float neighbours, zeros and tiny values
    special = TINY + [float(b) for b in breaks] \
        + [float(np.nextafter(b, s)) for b in breaks for s in (-1.0, 1.0)]
    values = st.one_of(st.sampled_from(special),
                       st.floats(-3.0, 3.0, allow_nan=False))
    n_rows = data.draw(st.integers(1, 4))
    p = np.array(data.draw(st.lists(values, min_size=n_rows * N_PATHS,
                                    max_size=n_rows * N_PATHS)))
    x = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n_rows,
                                    max_size=n_rows)))
    layout = data.draw(st.sampled_from(["nodes", "flat", "shifted"]))
    if layout == "nodes":
        # lattice rows against a path axis
        x, p = x[:, None, None], p.reshape(n_rows, N_PATHS, 1)
    elif layout == "flat":
        x, p = np.repeat(x, N_PATHS)[:, None], p[:, None]
    else:
        # the envelope assembly's shifted points: one x per row and path
        shift = np.array(data.draw(st.lists(
            st.floats(-0.5, 0.5), min_size=N_PATHS, max_size=N_PATHS)))
        x = (x[:, None] + shift)[..., None]
        p = p.reshape(n_rows, N_PATHS, 1)
    val, idx = hamiltonian(co, t, x, p, w)
    ref_val, ref_idx = _sweep_reference(co, t, x, p, w)
    assert idx.dtype == ref_idx.dtype and np.array_equal(idx, ref_idx)
    assert val.shape == ref_val.shape
    assert np.array_equal(val.view(np.int64), ref_val.view(np.int64))


def test_envelope_ties_and_path_rows_on_eikonal():
    # p = 0 ties all 21 lines; rows of zeros next to rows without ties
    co, w = _problem("eikonal", "tensor")
    p = np.linspace(-1.0, 1.0, 4 * N_PATHS).reshape(4, N_PATHS, 1)
    p[1] = 0.0
    p[2, ::2] = -0.0
    x = np.linspace(-1.0, 1.0, 4)[:, None, None]
    val, idx = hamiltonian(co, 0.0, x, p, w)
    ref_val, ref_idx = _sweep_reference(co, 0.0, x, p, w)
    assert np.array_equal(idx, ref_idx) and not idx[1].any()
    assert np.array_equal(val.view(np.int64), ref_val.view(np.int64))


@pytest.mark.parametrize("kind", ["base", "mollified"])
def test_single_tied_point_scores_as_a_one_point_batch(kind):
    # x and p of shape (1,) leave no point axis; p = 0 ties every line
    co, w = _problem("eikonal", kind)
    val, idx = hamiltonian(co, 0.0, np.array([0.0]), np.array([0.0]), w)
    ref_val, ref_idx = hamiltonian(co, 0.0, np.array([[0.0]]),
                                   np.array([[0.0]]), w)
    assert np.shape(val) == np.shape(idx) == ()
    assert (val, idx) == (ref_val[0], ref_idx[0])


@pytest.mark.parametrize("name, kind", [("linear-drift", "tensor"),
                                        ("eikonal", "mollified")])
def test_non_finite_slopes_are_scored_as_the_sweep_scores_them(name, kind):
    co, w = _problem(name, kind)
    x = np.linspace(-1.0, 1.0, 4)[:, None, None]
    p = np.linspace(-1.0, 1.0, 4 * N_PATHS).reshape(4, N_PATHS, 1)
    p[0, 0], p[1, 1], p[2, 2] = np.nan, np.inf, -np.inf
    val, idx = hamiltonian(co, 0.0, x, p, w)
    ref_val, ref_idx = _sweep_reference(co, 0.0, x, p, w)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(val.view(np.int64), ref_val.view(np.int64))


def _sampled_field(ens, fn, lat):
    shape = (lat.n_points, ens.n_paths)
    return {
        k: np.broadcast_to(fn(GRID.knots[k], ens.value_at(k)[:, 0]), shape).copy()
        for k in range(GRID.n_steps + 1)
    }


def test_decomposition_recovers_linear_field():
    ens = _ens(400)
    lat = BoxLattice.centered(1.0, 0.5)
    vals = _sampled_field(ens, lambda t, w: 0.7 * t - 1.3 * w, lat)
    u = estimate_decomposition(AdaptedField(GRID, lat, vals), ens)
    for k in (0, 7, 15):
        np.testing.assert_allclose(u.drift[k], 0.7, atol=1e-8)
        np.testing.assert_allclose(u.noise[k], -1.3, atol=1e-8)
    report = reconstruction_report(u, ens)
    assert report["passed"]


def test_decomposition_squared_brownian():
    # d(W^2) = dt + 2 W dW: drift one, noise integrand twice the state
    ens = _ens(4_000)
    lat = BoxLattice.centered(1.0, 1.0)
    vals = _sampled_field(ens, lambda t, w: w**2, lat)
    u = estimate_decomposition(AdaptedField(GRID, lat, vals), ens)
    k = GRID.n_steps // 2
    assert abs(float(u.drift[k].mean()) - 1.0) < 0.1
    w_k = ens.value_at(k)[:, 0]
    corr = np.corrcoef(u.noise[k][0, :, 0], 2.0 * w_k)[0, 1]
    assert corr > 0.98


def test_decomposition_needs_paths_and_consecutive_knots():
    lat = BoxLattice.centered(1.0, 0.5)
    small = _ens(40)
    vals = _sampled_field(small, lambda t, w: w, lat)
    with pytest.raises(ValueError):
        estimate_decomposition(AdaptedField(GRID, lat, vals), small)
    ens = _ens(400)
    gappy = {k: np.zeros((lat.n_points, 400)) for k in (0, 2, 4)}
    with pytest.raises(ValueError):
        estimate_decomposition(AdaptedField(GRID, lat, gappy), ens)


def _exact_far_field(ens, lat):
    """u(t, x) = x - (T - t) on a lattice right of the traveling kink."""
    shape = (lat.n_points, ens.n_paths)
    vals = {
        k: np.broadcast_to(lat.points[:, :1] - (1.0 - GRID.knots[k]), shape).copy()
        for k in range(GRID.n_steps + 1)
    }
    drift = {k: np.ones(shape) for k in range(GRID.n_steps)}
    return AdaptedField(GRID, lat, vals, drift, None)


def test_residual_check_exact_solution_both_sides():
    # the exact eikonal solution has residual zero: it passes as a
    # supersolution and as a subsolution simultaneously
    co = scenario("eikonal")
    ens = _ens(16)
    lat = BoxLattice(1.3, 2.7, 0.1)
    u = _exact_far_field(ens, lat)
    for side in ("super", "sub"):
        report = residual_check(u, co, ens, side, tol=1e-9)
        assert report["passed"], report
        assert abs(report["margin"]) < 1e-9
        assert abs(report["terminal_margin"]) < 1e-12


def test_residual_check_sides_follow_their_probe_statistics():
    # a field whose probes differ: drift varying over points, knots and
    # paths, and a terminal slice on both sides of the terminal cost
    co = scenario("eikonal")
    ens = _ens(16)
    lat = BoxLattice(1.3, 2.7, 0.1)
    u = _exact_far_field(ens, lat)
    x = lat.points[:, :1]
    n = GRID.n_steps
    drift = {k: d + 0.3 * np.cos(3.0 * x + k) + 0.1 * ens.value_at(k)[:, 0]
             for k, d in u.drift.items()}
    vals = dict(u.values)
    vals[n] = vals[n] + 0.01 * np.sin(5.0 * x) * (1.0 + ens.value_at(n)[:, 0])
    field = AdaptedField(GRID, lat, vals, drift, None)
    gap = vals[n] - np.asarray(co.G(lat.points[:, None, :], None))
    for side, pick, three_se in (("super", np.min, 3.0),
                                 ("sub", np.max, -3.0)):
        rep = residual_check(field, co, ens, side, tol=0.02)
        knots = sorted(rep["probe_mean"])
        assert knots == list(range(n))
        # min of mean + 3 SE (super), max of mean - 3 SE (sub), over
        # points and knots
        margin = pick([pick(rep["probe_mean"][k] + three_se * rep["probe_se"][k])
                       for k in knots])
        assert rep["margin"] == margin
        extreme = pick(gap)
        assert rep["terminal_margin"] == extreme
        within = margin >= -0.02 if side == "super" else margin <= 0.02
        on_side = extreme >= -1e-9 if side == "super" else extreme <= 1e-9
        assert rep["passed"] == (within and on_side)
        # the terminal slice straddles the cost, so neither side holds
        assert not on_side
    assert gap.min() < -1e-9 and gap.max() > 1e-9


def test_residual_check_flags_wrong_drift():
    co = scenario("eikonal")
    ens = _ens(16)
    lat = BoxLattice(1.3, 2.7, 0.1)
    u = _exact_far_field(ens, lat)
    too_fast = AdaptedField(GRID, lat, u.values,
                            {k: 2.0 * d for k, d in u.drift.items()}, None)
    report = residual_check(too_fast, co, ens, "super", tol=0.02)
    assert report["margin"] < -0.02 and not report["passed"]
    # and the exact field fails the subsolution side once shifted up
    lifted = AdaptedField(GRID, lat, {k: v + 0.5 for k, v in u.values.items()},
                          u.drift, None)
    report = residual_check(lifted, co, ens, "sub", tol=0.02)
    assert report["terminal_margin"] > 1e-9 and not report["passed"]


def test_residual_check_validation():
    co = scenario("eikonal")
    ens = _ens(16)
    lat = BoxLattice(1.3, 2.7, 0.1)
    u = _exact_far_field(ens, lat)
    with pytest.raises(ValueError):
        residual_check(u, co, ens, side="diagonal")
    bare = AdaptedField(GRID, lat, u.values)
    with pytest.raises(ValueError):
        residual_check(bare, co, ens, "super")


def test_build_envelopes_validation():
    base = scenario("eikonal")
    ens_w = _ens(300)
    ens_b = _ens(300, seed=SEED + 5)
    fa = _fit(base, ens_w, 0.1)
    lat = BoxLattice.centered(3.3, 0.1)
    with pytest.raises(ValueError):
        build_envelopes(base, fa, ens_w, ens_b, 0.1, 0.0, lattice=lat)
    with pytest.raises(ValueError):
        build_envelopes(base, fa, ens_w, _ens(301, seed=SEED + 6), 0.1, 0.1,
                        lattice=lat)
    with pytest.raises(ValueError):
        build_envelopes(base, fa, ens_w, _ens(300, seed=SEED + 7, m=2), 0.1,
                        0.1, lattice=lat)
    # approximant too coarse for the requested eps
    with pytest.raises(ValueError):
        build_envelopes(base, fa, ens_w, ens_b, 1e-6, 0.1, lattice=lat)


def test_envelope_reads_off_the_lattice_raise():
    # the assembly reads the perturbed surface at x - delta_n B_k, which
    # wanders further than one noisy Euler step: a lattice that holds the
    # surface itself (its own clamp stays under budget) can be too small
    # for the envelopes, and that must not pass as a silent clamp
    base = scenario("eikonal")
    ens_w = _ens(300)
    ens_b = _ens(300, seed=SEED + 5)
    fa = _fit(base, ens_w, 0.05)
    with pytest.raises(AccuracyError, match=r"envelope reads left the "
                       r"lattice \(budget 5\.0%\); most at knot 16"):
        build_envelopes(base, fa, ens_w, ens_b, 0.1, 0.5,
                        lattice=BoxLattice.centered(2.0, 0.1))


def test_envelope_pair_squeezes_value(monkeypatch):
    base = scenario("eikonal")
    ens_w = _ens(300)
    ens_b = _ens(300, seed=SEED + 5)
    fa = _fit(base, ens_w, 0.05)
    # the reachable set from |x0| <= 2 plus the noise wander 4 delta sqrt(T)
    lat = BoxLattice.for_problem(base, GRID.T, 2.0, 0.1,
                                 margin=0.25 + 4.0 * 0.1 * np.sqrt(GRID.T))
    calls = []

    def counted(co, *args):
        calls.append(co is base)
        return hamiltonian(co, *args)

    monkeypatch.setattr(viscosity, "hamiltonian", counted)
    pair = build_envelopes(base, fa, ens_w, ens_b, 0.1, 0.1, lattice=lat)
    monkeypatch.undo()
    # the sandwich rung's shape: drift at the 8 subgrid knots below the
    # horizon, each with one Hamiltonian per half of the node rows at the
    # shifted points under the approximant and one per half at the nodes
    # under base, shared by both sides
    assert len(calls) == 32 and sum(calls) == 16
    for name, side in (("upper", "super"), ("lower", "sub")):
        rep = pair.reports[name]
        assert rep["passed"], rep
        ref = residual_check(getattr(pair, name), base, ens_w, side, tol=0.02)
        assert rep["passed"] == ref["passed"]
        assert rep["terminal_margin"] == ref["terminal_margin"]
        assert abs(rep["margin"] - ref["margin"]) <= 1e-12
        knots = list(range(0, GRID.n_steps, 2))
        assert list(rep["knot_margins"]) == list(ref["knot_margins"]) == knots
        np.testing.assert_allclose(list(rep["knot_margins"].values()),
                                   list(ref["knot_margins"].values()),
                                   rtol=0.0, atol=1e-12)
        pick = min if side == "super" else max
        assert rep["margin"] == pick(rep["knot_margins"].values())
    assert 0.0 < pair.params["L_tilde"] <= 1.0 + 1e-6
    assert pair.params["K_bar"] > 0.0
    V = value_V(base, ens_w, pair.upper.lattice, clamp_tol=0.05)
    report = sandwich_report(pair, V)
    assert report["order_ok"], report
    assert report["gap_upper"] > 0.0
    # a surface on a different lattice is rejected
    other = value_V(base, ens_w, BoxLattice.centered(3.3, 0.1),
                    clamp_tol=0.05)
    with pytest.raises(ValueError):
        sandwich_report(pair, other)


def _assert_same_bits(got, want):
    """got and want hold the same keys and items, and arrays and numbers
    of the same dtype, shape and bytes."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _assert_same_bits(got[key], want[key])
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)
    else:
        a, b = np.asarray(got), np.asarray(want)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["idle", "busy", "inside"])
@pytest.mark.parametrize("name", ["eikonal", "random-target"])
def test_pool_never_changes_the_envelopes(name, mode):
    # each knot's rows are split in the same two halves at any worker
    # count, the upper one on the pool: here its only thread is idle,
    # held busy (the caller takes both halves), or the one the rung runs
    # on, as for a ladder item on the CLI's pool.  Eikonal's noisy
    # surface takes the one-column stencil path, random-target's the
    # path-by-path one.  Every array and report has the bits of the
    # pool-less rung.
    base = scenario(name)
    ens_w = _ens(200)
    ens_b = _ens(200, seed=SEED + 5)
    fa = _fit(base, ens_w, 0.05)
    lat = BoxLattice.for_problem(base, GRID.T, 2.0, 0.1,
                                 margin=0.25 + 4.0 * 0.1 * np.sqrt(GRID.T))
    surface = value_V(base, ens_w, lat, clamp_tol=0.05)

    def rung(pool):
        pair = build_envelopes(base, fa, ens_w, ens_b, 0.1, 0.1,
                               lattice=lat, pool=pool)
        return [pair.params, pair.reports,
                pair.upper.values, pair.upper.drift,
                pair.lower.values, pair.lower.drift,
                sandwich_report(pair, surface, pool=pool)]

    want = rung(None)
    release = threading.Event()
    switch = sys.getswitchinterval()
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        held = pool.submit(release.wait, 300.0) if mode == "busy" else None
        # frequent switches, so a lost write to a shared row shows
        sys.setswitchinterval(1e-6)
        try:
            got = (pool.submit(rung, pool).result(timeout=300)
                   if mode == "inside" else rung(pool))
        finally:
            sys.setswitchinterval(switch)
            release.set()
        assert held is None or held.result()
    assert sorted(want[3]) == list(range(0, GRID.n_steps, 2))
    _assert_same_bits(got, want)


class _WithPlane:
    """A coefficient set whose terminal plane is given outright."""

    def __init__(self, base, plane):
        self.base = base
        self.plane = plane

    def __getattr__(self, name):
        return getattr(self.base, name)

    def payoff_grid(self, x_axis, y_axis):
        return self.plane


def test_fd_bilinear_plane_is_stationary():
    # beta = 0, f = 0, linear terminal plane: every term of the update
    # vanishes, ghost layers included
    co = scenario("zeros")
    x_axis = np.linspace(-1.0, 1.0, 21)
    y_axis = np.linspace(-2.0, 2.0, 17)
    plane = np.add.outer(2.0 * x_axis, 3.0 * y_axis)
    sol = solve_hjb_fd_1d(_WithPlane(co, plane), x_axis, y_axis, (0.75, 1.0),
                          0.1)
    np.testing.assert_allclose(sol.u, plane, atol=1e-12)
    np.testing.assert_allclose(sol.value_at(0.33, -0.21),
                               2.0 * 0.33 + 3.0 * -0.21, atol=1e-12)
    assert sol.value_at(99.0, 0.0) == pytest.approx(sol.value_at(1.0, 0.0))


def test_fd_constant_run_cost_quadrature():
    co = scenario("constant-run-cost")
    x_axis = np.linspace(-1.0, 1.0, 11)
    y_axis = np.linspace(-1.0, 1.0, 11)
    sol = solve_hjb_fd_1d(_WithPlane(co, np.zeros((11, 11))), x_axis, y_axis,
                          (0.5, 1.0), 0.0)
    np.testing.assert_allclose(sol.u, 0.5, atol=1e-12)
    # the CFL limit alone sets the step count
    assert sol.diagnostics["substeps"] == int(
        np.ceil(0.5 * sol.diagnostics["cfl_rate"] / 0.8))


def test_fd_validation():
    co = scenario("zeros")
    axis = np.linspace(-1.0, 1.0, 11)
    with pytest.raises(ValueError):
        solve_hjb_fd_1d(_WithPlane(co, np.zeros((11, 11))), axis, axis,
                        (1.0, 0.5), 0.1)
    with pytest.raises(ValueError):
        solve_hjb_fd_1d(_WithPlane(co, np.zeros((3, 3))), axis, axis,
                        (0.5, 1.0), 0.1)
