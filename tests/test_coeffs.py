"""Built-in scenarios and coefficient-set contracts."""

import concurrent.futures
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shjlab import valuefn
from shjlab.coeffs import (DECLARED, CoefficientSet, _at_controls, _halves,
                           _node_tables, _running_argmin, _split_argmin,
                           control_grid, probe_lattice, reach_radius,
                           scenario, scenario_names)
from shjlab.probspace import TimeGrid, WienerEnsemble, sample_ensemble
from shjlab.smoothing import MollifiedSet, fit_functional_approximant
from shjlab.valuefn import BoxLattice, value_V
from shjlab.viscosity import hamiltonian

SEED = 5
ALL_SCENARIOS = scenario_names()

# name -> (L, drift_growth, deterministic, n_controls); every built-in has
# controls on [-1, 1] and lip_x = 1
BUILT_INS = {
    "eikonal": (12.0, (1.0, 0.0), True, 21),
    "linear-drift": (15.0, (1.0, 0.5), True, 21),
    "random-target": (12.0, (1.0, 0.0), False, 21),
    "constant-run-cost": (1.0, (0.0, 0.0), True, 3),
    "zeros": (1.0, (0.0, 0.0), True, 3),
}

# beta and f at control 1, and G (target 0 for random-target), at X_PIN
X_PIN = np.array([-12.0, -0.5, 0.0, 2.0])
PINNED_VALUES = {
    "eikonal": ([1.0, 1.0, 1.0, 1.0], [0.0] * 4, [10.0, 0.5, 0.0, 2.0]),
    "linear-drift": ([7.0, 1.25, 1.0, 0.0], [0.1] * 4, [10.0, 0.5, 0.0, 2.0]),
    "random-target": ([1.0, 1.0, 1.0, 1.0], [0.0] * 4, [10.0, 0.5, 0.0, 2.0]),
    "constant-run-cost": ([0.0] * 4, [1.0] * 4, [0.0] * 4),
    "zeros": ([0.0] * 4, [0.0] * 4, [0.0] * 4),
}


def test_registry_contents():
    assert ALL_SCENARIOS == sorted(BUILT_INS)
    with pytest.raises(KeyError):
        scenario("not-a-scenario")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_built_in_problem_pinned(name):
    L, growth, deterministic, n_controls = BUILT_INS[name]
    co = scenario(name)
    assert co.d == 1 and co.controls.shape[1] == 1
    assert (co.L, co.lip_x, co.drift_growth) == (L, 1.0, growth)
    assert co.deterministic is deterministic
    assert co.n_controls == n_controls == co.controls.shape[0]
    assert co.controls[0, 0] == -1.0 and co.controls[-1, 0] == 1.0

    # terminal Brownian values 0 and artanh(0.5): targets 0 and 0.5
    inc = np.array([0.0, np.arctanh(0.5)]).reshape(2, 1, 1)
    ens = WienerEnsemble(TimeGrid(1.0, 1), 2, 0, inc)
    w = None if deterministic else ens.slice_at(0)
    wT = None if deterministic else ens.slice_at(1, terminal_ok=True)
    x = X_PIN[:, None, None]
    v = co.controls[-1]
    beta, f, G = PINNED_VALUES[name]
    np.testing.assert_array_equal(
        np.broadcast_to(co.beta(0.5, x, v, w), (4, 1, 1)).ravel(), beta)
    np.testing.assert_array_equal(
        np.broadcast_to(co.f(0.5, x, v, w), (4, 1)).ravel(), f)
    g = np.asarray(co.G(x, wT))
    np.testing.assert_array_equal(g[:, 0], G)
    if not deterministic:
        np.testing.assert_allclose(g[:, 1], [10.0, 1.0, 0.5, 1.5],
                                   rtol=0.0, atol=1e-15)


def test_declared_constants_are_the_problem_fields():
    assert set(DECLARED) == {"controls", "L", "lip_x", "drift_growth",
                             "deterministic", "n_controls"}


def test_control_grid():
    grid = control_grid(21)
    assert grid.shape == (21, 1)
    assert grid[0, 0] == -1.0 and grid[-1, 0] == 1.0
    np.testing.assert_allclose(np.diff(grid[:, 0]), 0.1)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_shape_contracts(name):
    co = scenario(name)
    ens = sample_ensemble(TimeGrid(1.0, 8), 40, SEED)
    w = None if co.deterministic else ens.slice_at(3)
    wT = None if co.deterministic else ens.slice_at(8, terminal_ok=True)
    x = np.linspace(-2, 2, 7).reshape(7, 1, 1)
    n_eff = 1 if co.deterministic else 40
    for v in co.controls[:: max(1, co.n_controls // 3)]:
        b = np.asarray(co.beta(0.5, x, v, w))
        assert b.shape[-1] == 1
        assert np.all(np.isfinite(b))
        f = np.asarray(co.f(0.5, x, v, w))
        assert f.shape in ((7, 1), (7, n_eff))
    g = np.asarray(co.G(x, wT))
    assert g.shape in ((7, 1), (7, n_eff))
    assert np.all(np.isfinite(g))


def _max_quotient(vals, probes):
    # difference quotients along consecutive probe rows
    dv = np.abs(vals[1:] - vals[:-1]).max(axis=tuple(range(1, vals.ndim)))
    dx = np.linalg.norm(probes[1:] - probes[:-1], axis=-1)
    ok = dx > 0
    return float((dv[ok] / dx[ok]).max()) if ok.any() else 0.0


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_declared_bound_holds(name):
    # |beta|, |f|, |G| and their quotients between consecutive probes of
    # the probe lattice on the reach of |x0| <= 1 stay within the declared
    # L, at the knots nearest 5 equally spaced times (knot 0 for a set
    # that reads no paths)
    co = scenario(name)
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 60, SEED)
    probes = probe_lattice(reach_radius(co, 1.0, grid.T))
    times = np.linspace(0.0, grid.T, 5)
    knots = [0] if co.deterministic else sorted(
        {grid.index_of(round(t / grid.dt) * grid.dt) for t in times})
    x = probes[:, None, :]
    sup_val = sup_quot = 0.0
    for k in knots:
        t = grid.knots[k]
        w = None if co.deterministic else ens.slice_at(k)
        wT = None if co.deterministic else ens.slice_at(k, terminal_ok=True)
        maps = [np.asarray(co.beta(t, x, v, w)) for v in co.controls]
        maps += [np.asarray(co.f(t, x, v, w))[..., None] for v in co.controls]
        maps.append(np.asarray(co.G(x, wT))[..., None])
        for vals in maps:
            sup_val = max(sup_val, float(np.abs(vals).max()))
            sup_quot = max(sup_quot, _max_quotient(vals, probes))
    assert sup_val <= co.L + 1e-12, (sup_val, co.L)
    assert sup_quot <= co.L + 1e-9, (sup_quot, co.L)


def test_eikonal_values():
    co = scenario("eikonal")
    x = np.array([[[0.5]], [[-2.0]], [[12.0]]])
    np.testing.assert_allclose(
        np.asarray(co.G(x, None)).ravel(), [0.5, 2.0, 10.0])
    # drift is the control itself, running cost vanishes
    v = co.controls[3]
    np.testing.assert_allclose(np.asarray(co.beta(0.1, x, v, None)),
                               np.broadcast_to(v, x.shape))
    assert np.all(np.asarray(co.f(0.1, x, v, None)) == 0.0)


def test_random_target_reads_terminal_path():
    co = scenario("random-target")
    ens = sample_ensemble(TimeGrid(1.0, 4), 25, SEED)
    wT = ens.slice_at(4, terminal_ok=True)
    x = np.zeros((3, 1, 1))
    g = np.asarray(co.G(x, wT))
    assert g.shape == (3, 25)
    assert g.std() > 0.0  # depends on the path
    np.testing.assert_allclose(g[0], np.abs(np.tanh(ens.value_at(4)[:, 0])))


def test_reach_radius_and_probes():
    co = scenario("eikonal")
    assert reach_radius(co, 2.0, 1.0) == pytest.approx(3.0)
    probes = probe_lattice(2.0)
    assert probes.shape == (67, 1) and probes[33, 0] == 0.0
    assert np.abs(probes).max() <= 2.0 + 1e-12


def test_coefficient_set_validation():
    good = scenario("zeros")
    with pytest.raises(ValueError, match="n_controls, 1"):
        CoefficientSet(controls=np.zeros((3, 2)), beta=good.beta, f=good.f,
                       G=good.G, L=1.0, lip_x=1.0)
    with pytest.raises(ValueError):
        CoefficientSet(controls=np.zeros((1, 1)), beta=good.beta, f=good.f,
                       G=good.G, L=-1.0, lip_x=1.0)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_affine_declaration_matches_kernel_average(name):
    # approximants pass beta and f through unsmoothed, which drops no
    # smoothing only if each equals its literal kernel average
    co = scenario(name)
    x = probe_lattice(reach_radius(co, 1.0, 1.0))[:, None, :]
    w = None
    if not co.deterministic:
        ens = sample_ensemble(TimeGrid(1.0, 8), 50, SEED)
        w = ens.slice_at(3)
    for level in (1, 8):
        moll = MollifiedSet(co, level)
        for v in co.controls[::max(1, co.n_controls // 4)]:
            for attr in ("beta", "f"):
                base = np.asarray(getattr(co, attr)(0.25, x, v, w), float)
                avg = np.asarray(getattr(moll, attr)(0.25, x, v, w), float)
                np.testing.assert_allclose(avg, base, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_control_separable_declaration_holds(name):
    # the Hamiltonian reads the control lines c(v) p + g(v) off at one
    # point: beta - beta(v_0) and f - f(v_0) must not depend on t, x or w
    co = scenario(name)
    x = probe_lattice(reach_radius(co, 1.0, 1.0))[:, None, :]
    w = None
    if not co.deterministic:
        w = sample_ensemble(TimeGrid(1.0, 8), 50, SEED).slice_at(3)
    for problem in (co, MollifiedSet(co, 4)):
        for t in (0.0, 0.625):
            for attr in ("beta", "f"):
                fn = getattr(problem, attr)
                ref = np.asarray(fn(t, x, co.controls[0], w), float)
                for v in co.controls:
                    shift = np.asarray(fn(t, x, v, w), float) - ref
                    np.testing.assert_allclose(shift, shift.flat[0],
                                               rtol=0.0, atol=1e-12)


# constructor arguments over scenario("zeros")'s five controls -> what the
# ValueError must name
REJECTED = {
    "beta-not-separable": (dict(beta=lambda t, x, v, w: v * x),
                           "beta at control 1 is not control-separable"),
    "beta-not-affine": (dict(beta=lambda t, x, v, w: np.abs(x) + v),
                        "beta at control 0 is not affine in x"),
    "f-not-affine": (dict(f=lambda t, x, v, w: np.abs(x[..., 0])),
                     "f at control 0 is not affine in x"),
    "beta-reads-the-path": (
        dict(beta=lambda t, x, v, w: v + np.tanh(w.current[:, 0])[:, None],
             deterministic=False),
        "beta at control 0 returns shape .* not read the path"),
    "f-reads-the-path": (dict(f=lambda t, x, v, w: w.current[:, 0]
                              * np.ones(x.shape[:-1]), deterministic=False),
                         "f at control 0 returns shape .* not read the path"),
    "G-reads-the-path-of-a-deterministic-set": (
        dict(G=scenario("random-target").G), "G fails with w=None"),
    "beta-reads-the-path-of-a-deterministic-set": (
        dict(beta=lambda t, x, v, w: v + np.tanh(w.current[:, 0])[:, None]),
        "beta at control 0 fails with w=None"),
    "L-nan": (dict(L=float("nan")), "L must be finite and positive"),
    "lip_x-above-L": (dict(L=1.0, lip_x=5.0), "lip_x must lie in"),
    "lip_x-negative": (dict(lip_x=-1.0), "lip_x must lie in"),
    "drift_growth-negative": (dict(drift_growth=(1.0, -2.0)),
                              "drift_growth must be two finite numbers >= 0"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_constructor_rejects_sets_off_the_structure(case):
    # beta and f must be affine in x, path-free and control-separable, and
    # the declared constants sane; each violation names where it is
    good = scenario("zeros")
    kw = dict(controls=control_grid(5), beta=good.beta,
              f=good.f, G=good.G, L=3.0, lip_x=1.0)
    CoefficientSet(**kw)
    changes, message = REJECTED[case]
    with pytest.raises(ValueError, match=message):
        CoefficientSet(**{**kw, **changes})


def test_sweeps_break_exact_ties_to_index_zero():
    # zeros: every control scores 0, so the argmin must be control 0 and
    # the reads at that choice are control 0's
    co = scenario("zeros")
    x = np.linspace(-1.0, 1.0, 5)[:, None, None]
    p = np.ones_like(x)
    calls = []

    def score(b, fv):
        calls.append(1)
        return np.sum(b * p, axis=-1) + fv

    def scores():
        for v in co.controls:
            yield score(co.beta(0.0, x, v, None), co.f(0.0, x, v, None))

    best, idx = _running_argmin(scores(), np.int8)
    assert len(calls) == co.n_controls
    assert idx.dtype == np.int8 and not idx.any()
    assert np.all(best == 0.0)

    beta, f = _at_controls(co, 0.0, x, None, idx)
    assert beta.shape == f.shape == idx.shape
    assert np.all(beta == 0.0) and np.all(f == 0.0)


# few distinct values, signed zeros among them, so exact ties fall
# within each half and across the two
_TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
_SCORE_STACKS = st.integers(1, 9).flatmap(lambda n: hnp.arrays(
    float, st.tuples(st.just(n), st.integers(1, 4), st.integers(1, 5)),
    elements=st.one_of(_TIED, st.floats(-1e3, 1e3))))


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(stack=_SCORE_STACKS)
def test_split_select_matches_the_sequential_loop(stack):
    want = _running_argmin(iter(stack), np.int8)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        got = _split_argmin(stack.__getitem__, len(stack), np.int8, pool)
    _assert_same_bits(got, want)
    _assert_same_bits(_split_argmin(stack.__getitem__, len(stack), np.int8),
                      want)


def test_split_select_ties_across_halves_keep_the_lower_index():
    # controls 1 and 4 tie for the minimum at every point, one in each
    # half; -0.0 and +0.0 compare equal, so the tie keeps control 1's -0.0
    stack = np.array([[1.0], [-0.0], [3.0], [1.0], [0.0]])[..., None]
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        best, idx = _split_argmin(stack.__getitem__, 5, np.int8, pool)
    assert idx.tolist() == [[1]] and np.signbit(best).all()


def _threads_of(stack, hold_lower):
    """A score function over stack that records each control's thread;
    with hold_lower, control 0 waits until the upper half has started."""
    threads = {}
    mid = (len(stack) + 1) // 2
    started = threading.Event()

    def score(j):
        threads[j] = threading.get_ident()
        if j >= mid:
            started.set()
        elif j == 0 and hold_lower:
            assert started.wait(10.0)
        return stack[j]

    return score, threads


def test_split_select_scores_the_upper_half_on_the_pool():
    stack = np.random.default_rng(SEED).normal(size=(21, 6, 3))
    score, threads = _threads_of(stack, hold_lower=True)
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        got = _split_argmin(score, len(stack), np.int8, pool)
    _assert_same_bits(got, _running_argmin(iter(stack), np.int8))
    caller = threading.get_ident()
    assert {threads[j] == caller for j in range(11)} == {True}
    assert {threads[j] == caller for j in range(11, 21)} == {False}


def test_split_select_scores_a_queued_half_inline():
    # the pool's only thread is held busy, so the upper half is still
    # queued when the caller is done with the lower one: it is cancelled
    # and scored on the caller, with the same result
    stack = np.random.default_rng(SEED).normal(size=(21, 6, 3))
    score, threads = _threads_of(stack, hold_lower=False)
    release = threading.Event()
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        try:
            got = _split_argmin(score, len(stack), np.int8, pool)
        finally:
            release.set()
        assert busy.result()
    _assert_same_bits(got, _running_argmin(iter(stack), np.int8))
    assert set(threads.values()) == {threading.get_ident()}


def test_halves_called_from_the_pools_only_thread_do_not_wait():
    # the upper half queues behind the call that submitted it, so that
    # call takes it back and does both halves itself
    threads = []

    def work(a, b):
        threads.append(threading.get_ident())
        return list(range(a, b))

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        inner = pool.submit(_halves, work, 5, pool)
        assert inner.result(timeout=10.0) == ([0, 1, 2], [3, 4])
    assert len(threads) == 2 and len(set(threads)) == 1
    assert _halves(work, 1) == ([0], [])


def _summing(values):
    return lambda a, b: float(values[a:b].sum())


def test_halves_leave_no_work_in_a_cancelled_entry():
    # with the pool's only thread busy the caller takes the upper half
    # back; the cancelled entry stays queued until the thread is free,
    # and must not keep the work's arrays alive until then
    release = threading.Event()
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        busy = pool.submit(release.wait, 10.0)
        try:
            values = np.arange(10.0)
            alive = weakref.ref(values)
            got = _halves(_summing(values), values.size, pool)
            del values
            assert alive() is None
        finally:
            release.set()
        assert busy.result()
    assert got == _halves(_summing(np.arange(10.0)), 10) == (10.0, 35.0)


def _tensor(co):
    return fit_functional_approximant(
        co, sample_ensemble(TimeGrid(1.0, 8), 200, SEED), eps_target=0.2,
        x_radius=2.0)


def _per_control(co, t, x, w):
    # every control's map evaluated on the whole x, as (n_controls, ...)
    return (np.stack([np.broadcast_to(co.beta(t, x, v, w), x.shape)[..., 0]
                      for v in co.controls]),
            np.stack([np.broadcast_to(co.f(t, x, v, w), x.shape[:-1])
                      for v in co.controls]))


def _affine_cost():
    # a running cost that moves with x, which no built-in has; its
    # constants keep the lines' read-off exact
    pulled = scenario("linear-drift")
    return CoefficientSet(
        controls=pulled.controls, beta=pulled.beta, G=pulled.G, L=16.0,
        lip_x=1.0, drift_growth=(1.0, 0.5),
        f=lambda t, x, v, w: 0.25 * x[..., 0] + 0.5 * float(v[0] * v[0]))


@pytest.mark.parametrize("name", ALL_SCENARIOS + ["affine-cost"])
def test_lines_reproduce_the_maps_bit_for_bit(name):
    base = _affine_cost() if name == "affine-cost" else scenario(name)
    w = sample_ensemble(TimeGrid(1.0, 8), 6, SEED).slice_at(3)
    nodes = BoxLattice.centered(3.0, 0.05).points[:, None, :]
    shift = np.linspace(-0.37, 0.41, 6)[:, None]
    mollified = MollifiedSet(base, 4)
    # kind -> (set, the maps its tables must reproduce): a tensor
    # approximant's beta and f are its base set's
    sets = {"base": (base, base), "tensor": (_tensor(base), base),
            "mollified": (mollified, mollified)}
    for kind, (co, maps) in sets.items():
        for t in (0.0, 0.6875):
            # lattice nodes, and one shifted point per node and path
            for x in (nodes, nodes + shift):
                beta, f = _node_tables(co, t, x, w, range(co.n_controls))
                ref_beta, ref_f = _per_control(maps, t, x, w)
                assert np.array_equal(beta, ref_beta.reshape(beta.shape)), kind
                assert np.array_equal(f, ref_f.reshape(f.shape)), kind
                # each point at its own control reads the same values
                idx = np.arange(x[..., 0].size).reshape(x.shape[:-1]) \
                    % co.n_controls
                b_at, f_at = _at_controls(co, t, x, w, idx)
                assert np.array_equal(
                    b_at, np.take_along_axis(ref_beta, idx[None], 0)[0])
                assert np.array_equal(
                    f_at, np.take_along_axis(ref_f, idx[None], 0)[0])
    assert not hasattr(mollified, "lines")


def _recording(co, sizes):
    # wrap the maps of co to record how many points each call sees
    for name in ("beta", "f"):
        def wrapped(t, x, v, w, _map=getattr(co, name)):
            sizes.append(np.size(x))
            return _map(t, x, v, w)
        setattr(co, name, wrapped)
    return co


@pytest.mark.parametrize("name", ["eikonal", "linear-drift"])
def test_sets_with_lines_never_evaluate_their_maps_point_by_point(monkeypatch,
                                                                 name):
    # a sandwich-shaped Hamiltonian call (shifted points against p with
    # exact ties) and one value_V knot read beta and f at two points
    sizes = []
    base = _recording(scenario(name), sizes)
    approx = _tensor(base)
    grid = TimeGrid(1.0, 1)
    ens = sample_ensemble(grid, 50, SEED)
    lattice = BoxLattice.for_problem(base, grid.T, 1.0, 0.05)
    rng = np.random.default_rng(SEED)
    x = lattice.points[:, None, :] + 0.1 * rng.standard_normal((1, 50, 1))
    p = rng.standard_normal(x.shape)
    p[::3] = 0.0
    del sizes[:]            # the fit's own reads
    monkeypatch.setattr(valuefn, "CLAMP_BUDGET", 1.0)
    for co in (base, approx):
        hamiltonian(co, 0.0, x, p, ens.slice_at(0))
        value_V(co, ens, lattice)
    assert sizes and max(sizes) <= 2
