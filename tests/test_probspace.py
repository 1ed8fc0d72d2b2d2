"""Time grids, seeded Brownian ensembles, and regression projections."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shjlab.exceptions import CapacityError
from shjlab.probspace import (_HEADER, _MAGIC, CondExpOperator, PathSlice,
                              TimeGrid, WienerEnsemble, polynomial_basis,
                              sample_ensemble, subset_paths)

SEED = 7


def test_time_grid_knots():
    grid = TimeGrid(2.0, 8)
    assert grid.dt == 0.25
    np.testing.assert_allclose(grid.knots, np.arange(9) * 0.25)
    assert grid.index_of(0.5) == 2
    with pytest.raises(ValueError):
        grid.index_of(0.13)


@pytest.mark.parametrize("T,n", [(0.0, 4), (1.0, 0), (-1.0, 4)])
def test_time_grid_rejects(T, n):
    with pytest.raises(ValueError):
        TimeGrid(T, n)


def test_sampling_is_seed_deterministic():
    grid = TimeGrid(1.0, 16)
    a = sample_ensemble(grid, 100, SEED)
    b = sample_ensemble(grid, 100, SEED)
    c = sample_ensemble(grid, 100, SEED + 1)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_increment_moments():
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 200_000, SEED)
    var = ens.increments.var(axis=(0, 2))
    np.testing.assert_allclose(var, grid.dt, rtol=0.02)
    # values telescope the increments from zero
    np.testing.assert_allclose(
        ens.value_at(8), ens.increments.sum(axis=1), atol=1e-12)
    assert np.all(ens.value_at(0) == 0.0)


def test_save_load_roundtrip(tmp_path):
    # the container read back by its header layout
    grid = TimeGrid(0.5, 4)
    ens = sample_ensemble(grid, 64, SEED)
    path = tmp_path / "ens.bin"
    ens.save(path)
    raw = path.read_bytes()
    assert _HEADER.unpack(raw[:_HEADER.size]) == (_MAGIC, 1, 4, 64, SEED, 0.5)
    body = np.frombuffer(raw[_HEADER.size:], "<f8").reshape(64, 4, 1)
    back = WienerEnsemble(grid, 64, SEED, body)
    assert np.array_equal(back.increments, ens.increments)
    for k in range(grid.n_steps + 1):
        assert back.value_at(k).tobytes() == ens.value_at(k).tobytes()


def test_knot_major_storage_keeps_the_path_major_views(tmp_path):
    grid = TimeGrid(1.0, 8)
    n_paths, n = 40, grid.n_steps
    ens = sample_ensemble(grid, n_paths, SEED)
    # path-major reference: the same stream, scaled in place of drawing
    inc = (np.random.default_rng(SEED).standard_normal((n_paths, n, 1))
           * np.sqrt(grid.dt))
    vals = np.concatenate([np.zeros((n_paths, 1, 1)),
                           np.cumsum(inc, axis=1)], axis=1)

    def check(e, inc, vals):
        assert e.increments.shape == inc.shape
        assert e.increments.tobytes() == inc.tobytes()
        assert not hasattr(e, "values")
        for k in range(n + 1):
            assert e.value_at(k).shape == vals[:, k].shape
            assert e.value_at(k).flags.c_contiguous
            assert e.value_at(k).tobytes() == vals[:, k].tobytes()
        for k in range(n):
            assert e.increments[:, k, :].flags.c_contiguous

    check(ens, inc, vals)
    path = tmp_path / "ens.bin"
    ens.save(path)
    assert path.read_bytes()[_HEADER.size:] == inc.tobytes()
    rows = [5, 0, 17, 39]
    check(subset_paths(ens, rows), inc[rows], vals[rows])


def test_save_writes_path_blocks(tmp_path):
    # seven blocks of paths: the bytes of one path-major copy, written
    # without holding that copy
    grid = TimeGrid(1.0, 32)
    ens = sample_ensemble(grid, 100_000, SEED)
    path = tmp_path / "ens.bin"
    tracemalloc.start()
    try:
        ens.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header = _HEADER.pack(_MAGIC, 1, 32, 100_000, SEED, 1.0)
    assert path.read_bytes() == header + ens.increments.astype(
        "<f8", copy=False).tobytes()
    assert peak < ens.increments.nbytes / 4


@pytest.mark.parametrize("n_steps", [1, 2, 7, 8, 9, 32, 33])
def test_value_at_replays_the_forward_cumsum(n_steps):
    # squares and non-squares; the last knot on a checkpoint (1, 2, 9)
    # and off one (7, 8, 32, 33)
    grid = TimeGrid(1.0, n_steps)
    ens = sample_ensemble(grid, 50, SEED)
    inc = ens.increments.copy()
    inc[3, 0, 0] = -0.0                   # cumsum keeps a leading -0.0
    ens = WienerEnsemble(grid, 50, SEED, inc)
    vals = np.concatenate([np.zeros((50, 1, 1)), np.cumsum(inc, axis=1)],
                          axis=1)
    for k in range(n_steps + 1):
        w = ens.value_at(k)
        assert w.flags.c_contiguous and not w.flags.writeable
        assert w.tobytes() == vals[:, k].tobytes()
    for k in (-1, n_steps + 1):
        with pytest.raises(IndexError):
            ens.value_at(k)


def test_shared_row_is_read_consistently_across_threads():
    # threads reading different knots replace the one kept row under
    # each other; every read must still be its own knot's row
    grid = TimeGrid(1.0, 33)
    ens = sample_ensemble(grid, 200, SEED)
    vals = np.concatenate([np.zeros((200, 1, 1)),
                           np.cumsum(ens.increments, axis=1)], axis=1)
    wrong = []

    def reader(seed):
        for k in np.random.default_rng(seed).integers(0, 34, 2000):
            if ens.value_at(k).tobytes() != vals[:, k].tobytes():
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_block_draw_matches_one_draw():
    # 40,000 paths span three draw blocks
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 40_000, SEED)
    one = (np.random.default_rng(SEED).standard_normal((40_000, 8, 1))
           * np.sqrt(grid.dt))
    assert ens.increments.tobytes() == one.tobytes()


@pytest.mark.parametrize("n_paths, error", [
    (1, ValueError),                      # one path: no sample statistics
    (10**9, CapacityError),               # refused before drawing
])
def test_sample_ensemble_rejects_bad_shapes(n_paths, error):
    with pytest.raises(error):
        sample_ensemble(TimeGrid(1.0, 4), n_paths, SEED)


def test_path_slice_terminal_gate():
    grid = TimeGrid(1.0, 4)
    ens = sample_ensemble(grid, 10, SEED)
    sl = PathSlice(ens, 2)
    with pytest.raises(ValueError):
        sl.terminal
    assert PathSlice(ens, 2, terminal_ok=True).terminal.shape == (10, 1)
    np.testing.assert_allclose(sl.at(0.25), ens.value_at(1))
    with pytest.raises(ValueError):
        sl.at(0.75)  # future of the slice knot


def test_subset_paths():
    a = sample_ensemble(TimeGrid(1.0, 4), 30, SEED)
    half = subset_paths(a, np.arange(15))
    assert half.n_paths == 15
    assert np.array_equal(half.increments, a.increments[:15])


def test_projection_at_origin_is_mean():
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 5000, SEED)
    op = CondExpOperator(ens, 0, polynomial_basis(3))
    target = ens.value_at(8)[:, 0] ** 2
    out = op.apply(target)
    np.testing.assert_allclose(out, target.mean(), atol=1e-12)


def test_projection_reproduces_basis_span():
    # targets inside the span come back exactly (lstsq identity)
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 4000, SEED)
    w = ens.value_at(5)[:, 0]
    op = CondExpOperator(ens, 5, polynomial_basis(3))
    np.testing.assert_allclose(op.apply(w**2 - 2.0 * w), w**2 - 2.0 * w,
                               atol=1e-10)


def test_projection_tower_property():
    # E[W_T | W_t] = W_t up to Monte-Carlo regression noise
    grid = TimeGrid(1.0, 8)
    ens = sample_ensemble(grid, 50_000, SEED)
    w_t = ens.value_at(4)[:, 0]
    est = CondExpOperator(ens, 4, polynomial_basis(3)).apply(
        ens.value_at(8)[:, 0])
    assert np.sqrt(np.mean((est - w_t) ** 2)) < 0.02


def test_ridge_fallback_on_degenerate_design():
    grid = TimeGrid(1.0, 4)
    # zero increments: every column but the constant one vanishes
    ens = WienerEnsemble(grid, 500, SEED, np.zeros((500, 4, 1)))
    op = CondExpOperator(ens, 2, polynomial_basis(3))
    out = op.apply(sample_ensemble(grid, 500, SEED).value_at(2)[:, 0])
    assert op.used_ridge
    assert np.all(np.isfinite(out))


def test_multi_target_projection_shapes():
    grid = TimeGrid(1.0, 4)
    ens = sample_ensemble(grid, 300, SEED)
    op = CondExpOperator(ens, 2, polynomial_basis(2))
    targets = np.stack([ens.value_at(3)[:, 0], ens.value_at(4)[:, 0]])
    assert op.apply(targets).shape == (2, 300)


@settings(max_examples=40, deadline=None)
@given(degree=st.integers(0, 4), k=st.integers(1, 8),
       n_paths=st.sampled_from([50, 400, 2000]),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_projection_is_idempotent_after_knot_0(degree, k, n_paths, seed,
                                               scale):
    ens = sample_ensemble(TimeGrid(1.0, 8), n_paths, SEED)
    op = CondExpOperator(ens, k, polynomial_basis(degree))
    y = scale * np.random.default_rng(seed).standard_normal(n_paths)
    once = op.apply(y)
    tol = 1e-9 * max(float(np.abs(y).max()), 1.0)
    assert np.abs(op.apply(once) - once).max() <= tol


def test_one_d_basis_columns_are_running_products():
    ens = sample_ensemble(TimeGrid(1.0, 4), 300, SEED)
    basis = polynomial_basis(3)
    assert basis.names == ["1", "w^1", "w^2", "w^3"]
    design = basis.design(ens, 2)
    w = ens.value_at(2)[:, 0]
    for p, col in enumerate([np.ones(300), w, w * w, (w * w) * w]):
        assert np.array_equal(design[:, p], col)


@pytest.mark.parametrize("n_targets", [1, 3])
def test_projection_matches_explicit_projector(n_targets):
    # reference: the (F, n) projector inv(G) @ phi.T formed explicitly
    ens = sample_ensemble(TimeGrid(1.0, 32), 50_000, SEED)
    basis = polynomial_basis(3)
    y = ens.value_at(32)[:, 0] ** 2 + np.arange(n_targets)[:, None]
    y = y[0] if n_targets == 1 else y
    for k in (1, 16, 31):
        phi = np.ascontiguousarray(basis.design(ens, k))
        solve = np.linalg.inv(phi.T @ phi) @ phi.T
        expect = (y @ solve.T) @ phi.T
        got = CondExpOperator(ens, k, basis).apply(y)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()
