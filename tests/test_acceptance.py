"""Acceptance gate: eleven end-to-end checks, one verdict line each.

Each test prints ``ACCEPTANCE n: PASS/FAIL`` with the observed numbers,
so a captured run reads as a scoreboard.  Tolerances are fixed here and
should not be loosened; oracle values are computed in-test by routes
independent of the library code under test.
"""

import time

import numpy as np
import pytest

from shjlab.bsde import (BsdeSpec, cost_majorant, error_bound_bsde,
                         policy_cost_surface, solve_bsde)
from shjlab.cli import ExperimentConfig, run
from shjlab.coeffs import scenario
from shjlab.dynamics import flow_audit
from shjlab.fields import AdaptedField, reconstruction_report
from shjlab.probspace import (TimeGrid, polynomial_basis, sample_ensemble,
                              subset_paths)
from shjlab.smoothing import (MollifiedSet, bump_kernel, error_processes,
                              fit_functional_approximant,
                              linear_growth_penalty)
from shjlab.valuefn import (BoxLattice, ControlPolicy, value_V, value_audit)
from shjlab.viscosity import (build_envelopes, estimate_decomposition,
                              residual_check, sandwich_report,
                              solve_hjb_fd_1d)

SEED_W = 11
SEED_B = 12
SEED_LADDER_W = 101
SEED_LADDER_B = 202


def _verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_eikonal_oracle():
    t0 = time.perf_counter()
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 64), 1, 20_000, SEED_W)
    V = value_V(co, ens, BoxLattice.centered(3.25, 0.05), clamp_tol=0.05)
    v_at_2 = float(V.mean_at(0, np.array([[2.0]]))[0])
    v_at_0 = float(V.mean_at(0, np.array([[0.0]]))[0])
    elapsed = time.perf_counter() - t0
    ok = (abs(v_at_2 - 1.0) <= 0.05 and abs(v_at_0) <= 0.02
          and elapsed < 60.0)
    _verdict(1, "eikonal oracle", ok,
             f"V(0,2)={v_at_2:.4f}, V(0,0)={v_at_0:.4f}, {elapsed:.1f}s")


def _tree_value(probes):
    """Exhaustive adapted-control optimum on a 4-step Gauss-Hermite tree.

    Controls shift the state by whole cells of a 0.025 lattice, so the
    backward sweep needs no interpolation; the terminal expectation
    (the only non-smooth integrand) uses a 64-node rule, the three
    branching levels use 16 nodes each.
    """
    dt = 0.25
    h = 0.025
    x_axis = np.arange(-4.0, 4.0 + h / 2.0, h)
    nx = x_axis.size
    shifts = np.round(np.linspace(-1.0, 1.0, 21) * dt / h).astype(int)
    pad = int(np.max(np.abs(shifts)))

    z16, q16 = np.polynomial.hermite_e.hermegauss(16)
    w16 = q16 / q16.sum()
    dw16 = z16 * np.sqrt(dt)
    z64, q64 = np.polynomial.hermite_e.hermegauss(64)
    w64 = q64 / q64.sum()
    dw64 = z64 * np.sqrt(dt)

    # depth-3 Brownian values and the terminal-layer expectation
    w3 = (dw16[:, None, None] + dw16[None, :, None]
          + dw16[None, None, :]).ravel()
    E = np.zeros((nx, w3.size))
    for j in range(64):
        target = np.tanh(w3 + dw64[j])
        E += w64[j] * np.clip(np.abs(x_axis[:, None] - target[None, :]),
                              0.0, 10.0)

    for depth in (3, 2, 1, 0):
        big = np.full((nx + 2 * pad, E.shape[1]), np.inf)
        big[pad:pad + nx] = E
        V = None
        for s in shifts:
            cand = big[pad + s: pad + s + nx]
            V = cand.copy() if V is None else np.minimum(V, cand)
        if depth == 0:
            break
        E = (V.reshape(nx, -1, 16) * w16).sum(axis=-1)

    idx = np.round((np.asarray(probes) - x_axis[0]) / h).astype(int)
    return V[idx, 0]


def test_criterion_02_brute_force_equivalence():
    co = scenario("random-target")
    grid = TimeGrid(1.0, 4)
    ens = sample_ensemble(grid, 1, 20_000, SEED_W)
    lat = BoxLattice.centered(3.0, 0.025)
    V = value_V(co, ens, lat, basis=polynomial_basis(5), clamp_tol=0.05)
    probes = np.linspace(-2.0, 2.0, 9)
    dp = np.array([float(V.mean_at(0, np.array([[x]]))[0]) for x in probes])
    oracle = _tree_value(probes)
    diffs = np.abs(dp - oracle)
    ok = bool(np.all(diffs <= 0.05))
    _verdict(2, "brute-force equivalence", ok,
             f"max|DP-tree|={diffs.max():.4f} at 9 probes (tol 0.05)")


def test_criterion_03_value_audits():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 64), 1, 500, SEED_W)
    V = value_V(co, ens, BoxLattice.centered(3.25, 0.005), clamp_tol=0.05)
    report = value_audit(co, ens, V, np.linspace(-2.0, 2.0, 5)[:, None],
                         abs_tol=0.01, eps_report_tol=0.05)
    ok = (report["supermartingale_ok"] and report["bound_ok"]
          and report["lipschitz_ok"] and report["eps_ok"])
    _verdict(3, "value-surface audits", ok,
             f"super margin={report['supermartingale_margin']:+.4f}, "
             f"sup|V|={report['sup_value']:.3f}<={report['value_bound']:.0f}, "
             f"Lip={report['lipschitz_observed']:.4f}"
             f"<={report['lipschitz_bound']:.1f}, "
             f"eps={report['eps_report']:.4f}")


def test_criterion_04_flow_audits():
    co = scenario("linear-drift")
    ens = sample_ensemble(TimeGrid(1.0, 32), 1, 10_000, SEED_W)
    # adapted bang-bang policy: per-path control read off the sign of W
    idx = np.stack([
        np.where(ens.value_at(k)[:, 0] >= 0.0, co.n_controls - 1, 0)
        for k in range(32)
    ])
    pol = ControlPolicy.open_loop(idx)
    xi = np.array([[-1.0], [0.0], [1.3]])
    report = flow_audit(co, ens, pol, xi, xi + 0.37)
    k_expected = float(np.exp(co.L) * (1.0 + co.L))
    ok = (report["restart_exact"]
          and report["growth_ratio"] <= 1.0
          and report["increment_ratio"] <= 1.0
          and report["stability_ratio"] <= 1.0
          and report["K"] == pytest.approx(k_expected))
    _verdict(4, "flow audits", ok,
             f"restart={report['restart_exact']}, "
             f"growth={report['growth_ratio']:.2e}, "
             f"increment={report['increment_ratio']:.2e}, "
             f"stability={report['stability_ratio']:.2e} (vs 1)")


def test_criterion_05_mollification():
    # independent mass quadrature: 64-node Gauss-Legendre on the support
    gl_x, gl_w = np.polynomial.legendre.leggauss(64)
    mass = float(np.sum(gl_w * bump_kernel(gl_x[:, None])))
    mass_ok = abs(mass - 1.0) <= 1e-8

    probe = np.linspace(-4.0, 4.0, 201)[:, None]
    h_vals, dh = linear_growth_penalty(probe)
    h0 = float(linear_growth_penalty(np.array([[0.0]]))[0][0])
    h3 = float(linear_growth_penalty(np.array([[3.0]]))[0][0])
    pen_ok = (abs(h0) <= 1e-9 and abs(h3 - 2.0) <= 1e-6
              and float(np.abs(dh).max()) <= 1.0 + 1e-9
              and bool(np.all(h_vals >= np.abs(probe[:, 0]) - 2.0)))

    co = scenario("eikonal")
    x = np.linspace(-3.0, 3.0, 601)[:, None, None]
    g = np.asarray(co.G(x, None))[:, 0]
    levels = np.array([2, 4, 8, 16])
    gaps = []
    for level in levels:
        gl = np.asarray(MollifiedSet(co, level).G(x, None))[:, 0]
        gaps.append(float(np.abs(gl - g).max()))
    gaps = np.array(gaps)
    bound_ok = bool(np.all(gaps <= co.lip_x / levels + 1e-12))
    slope = float(np.polyfit(np.log(levels), np.log(gaps), 1)[0])
    slope_ok = abs(slope + 1.0) <= 0.3

    ok = mass_ok and pen_ok and bound_ok and slope_ok
    _verdict(5, "mollification", ok,
             f"mass err={abs(mass - 1.0):.1e}, h(0)={h0:.1e}, h(3)={h3:.8f}, "
             f"max gap*l={float((gaps * levels).max()):.3f}<=lip, "
             f"slope={slope:.3f}")


def test_criterion_06_bsde_solver():
    grid = TimeGrid(1.0, 32)
    ens = sample_ensemble(grid, 1, 100_000, SEED_W)
    wT = ens.value_at(32)[:, 0]

    sol_m = solve_bsde(BsdeSpec(ens, wT))
    w = np.stack([ens.value_at(k)[:, 0] for k in range(32)])
    y_gap = float(np.sqrt(np.mean((sol_m.Y[:-1] - w) ** 2)))
    z_gap = float(np.sqrt(np.mean((sol_m.Z[..., 0] - 1.0) ** 2)))

    sol_y = solve_bsde(BsdeSpec(ens, np.abs(wT),
                                lambda t, w: np.abs(w.current[:, 0])))
    y0 = float(sol_y.Y[0].mean())
    y0_exact = (5.0 / 3.0) * np.sqrt(2.0 / np.pi)

    small = sample_ensemble(grid, 1, 3_000, SEED_B)
    ws = small.value_at(32)[:, 0]
    s1 = solve_bsde(BsdeSpec(small, ws, np.ones(32)))
    s2 = solve_bsde(BsdeSpec(small, ws**2))
    combo = solve_bsde(BsdeSpec(small, 2.0 * ws - 3.0 * ws**2,
                                2.0 * np.ones(32)))
    lin_gap = float(np.abs(combo.Y - (2.0 * s1.Y - 3.0 * s2.Y)).max())
    resid = 2.0 * max(s1.diagnostics["residual_rms"].max(),
                      s2.diagnostics["residual_rms"].max())

    ok = (y_gap <= 0.02 and z_gap <= 0.05 and abs(y0 - y0_exact) <= 0.02
          and lin_gap <= resid and lin_gap <= 1e-8)
    _verdict(6, "bsde solver", ok,
             f"|Y-W|rms={y_gap:.4f}, |Z-1|rms={z_gap:.4f}, "
             f"y0={y0:.4f} (exact {y0_exact:.4f}), linearity={lin_gap:.1e}")


def test_criterion_07_cost_majorant_ladder():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, 32), 1, 4_000, SEED_W)
    lat = BoxLattice.centered(3.4, 0.05)
    V = value_V(co, ens, lat, clamp_tol=0.05)
    pol = ControlPolicy.feedback(V)
    base_cost = policy_cost_surface(co, ens, pol, lat)
    gain = float(np.exp(co.L) * co.L * 2.0)
    radius = float(np.max(np.abs(lat.points)))

    margins, norms, cs = [], [], []
    for level in (4, 8, 16):
        molly = MollifiedSet(co, level)
        errors = error_processes(co, molly, ens, radius=radius)
        bound = error_bound_bsde(errors, gain, ens)
        surf = policy_cost_surface(molly, ens, pol, lat)
        jhat = cost_majorant(surf, bound, molly, pol, ens)
        rep = residual_check(jhat, co, ens, "super", tol=0.02)
        margins.append(rep["margin"])
        norms.append(float(np.max(np.abs(
            np.stack([jhat.at(k).mean(axis=1) for k in jhat.knots])
            - base_cost.mean))))
        cs.append(bound.sup_rms() / errors.scale(gain))

    margin_ok = all(m >= 0.0 for m in margins)   # margin: mean + 3 SE, no tol
    norm_ok = all(norms[i] >= norms[i + 1] - 1e-12 for i in range(2))
    c_ok = max(cs) / min(cs) <= 2.0
    ok = margin_ok and norm_ok and c_ok
    _verdict(7, "cost-majorant ladder", ok,
             f"margins={[f'{m:+.2e}' for m in margins]}, "
             f"norms={[f'{g:.4f}' for g in norms]}, "
             f"C spread={max(cs) / min(cs):.3f}")


def test_criterion_08_decomposition_estimator():
    grid = TimeGrid(1.0, 16)
    ens = sample_ensemble(grid, 1, 20_000, SEED_W)
    lat = BoxLattice.centered(1.0, 1.0)
    shape = (lat.n_points, ens.n_paths)

    def w_squared(e):
        return {k: np.broadcast_to(e.value_at(k)[:, 0] ** 2,
                                   (lat.n_points, e.n_paths)).copy()
                for k in range(17)}

    u = estimate_decomposition(AdaptedField(grid, lat, w_squared(ens)), ens)
    k_mid = 8
    drift_mean = float(u.drift[k_mid].mean())
    w_mid = ens.value_at(k_mid)[:, 0]
    corr = float(np.corrcoef(u.noise[k_mid][0, :, 0], 2.0 * w_mid)[0, 1])
    recon = reconstruction_report(u, ens, rtol=1e-6)

    # split halves compared through the drift-column regression
    # coefficient, whose standard error the fit reports directly
    halves = []
    for part in (np.arange(10_000), np.arange(10_000, 20_000)):
        sub = subset_paths(ens, part)
        uh = estimate_decomposition(
            AdaptedField(grid, lat, w_squared(sub)), sub)
        halves.append((float(uh.diagnostics["coef"][k_mid][0, 0]),
                       float(uh.diagnostics["coef_se"][k_mid][0, 0])))
    split_gap = abs(halves[0][0] - halves[1][0])
    pooled = np.hypot(halves[0][1], halves[1][1])

    ok = (abs(drift_mean - 1.0) <= 0.05 and corr >= 0.99 and recon["passed"]
          and split_gap <= 3.0 * pooled)
    _verdict(8, "decomposition estimator", ok,
             f"drift={drift_mean:.4f}, corr={corr:.5f}, "
             f"split gap={split_gap:.4f}<=3x{pooled:.4f}, "
             f"recon rms={recon['worst_rms']:.2e}")


def test_criterion_09_uniqueness_sandwich():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 16)
    ladder = (0.2, 0.1, 0.05)
    lines = []
    ok = True
    for name in ("eikonal", "random-target"):
        co = scenario(name)
        ens_w = sample_ensemble(grid, 1, 2_000, SEED_LADDER_W)
        ens_b = sample_ensemble(grid, 1, 2_000, SEED_LADDER_B)
        lat = BoxLattice.for_problem(co, 1.0, 2.0, 0.05,
                                     margin=0.25 + 4.0 * max(ladder))
        V = value_V(co, ens_w, lat, clamp_tol=0.05)
        radius = float(np.max(np.abs(lat.points)))
        gaps, sums, ordered = [], [], []
        for eps in ladder:
            fa = fit_functional_approximant(co, ens_w, eps_target=eps,
                                            x_radius=radius)
            for delta in ladder:
                pair = build_envelopes(co, fa, ens_w, ens_b, eps, delta,
                                       lattice=lat, tol=0.02, clamp_tol=0.05)
                rep = sandwich_report(pair, V)
                ordered.append(rep["order_ok"])
                gaps.append(rep["gap_upper"])
                sums.append(eps + delta)
        slope = float(np.polyfit(np.log(sums), np.log(gaps), 1)[0])
        k1 = float(np.max(np.array(gaps) / np.array(sums)))
        ok = ok and all(ordered) and abs(slope - 1.0) <= 0.3
        lines.append(f"{name}: order {sum(ordered)}/9, slope={slope:.3f}, "
                     f"K1={k1:.1f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _verdict(9, "uniqueness sandwich", ok,
             "; ".join(lines) + f"; {elapsed:.0f}s")


def test_criterion_10_fd_cross_check():
    co = scenario("eikonal")
    grid = TimeGrid(1.0, 32)
    delta = 0.1
    ens_w = sample_ensemble(grid, 1, 16, SEED_W)
    ens_b = sample_ensemble(grid, 1, 4_000, SEED_B)
    fa = fit_functional_approximant(co, ens_w, eps_target=0.05, x_radius=3.65)
    lat = BoxLattice.centered(3.65, 0.05)
    V_eps = value_V(fa, ens_w, lat, noise_level=delta, noise_ensemble=ens_b,
                    clamp_tol=0.05)
    k_start = 24                                  # last functional interval
    t_start = grid.knots[k_start]

    axis = np.linspace(-3.6, 3.6, 145)
    fd = solve_hjb_fd_1d(fa, axis, axis, (t_start, 1.0), delta)
    probes = np.linspace(-2.0, 2.0, 9)
    mc = np.array([float(V_eps.mean_at(k_start, np.array([[x]]))[0])
                   for x in probes])
    se = np.array([float(V_eps.se[k_start].max()) for _ in probes])
    fd_vals = np.array([float(fd.value_at(x, 0.0)) for x in probes])
    diffs = np.abs(fd_vals - mc)
    tol = np.maximum(0.03, 3.0 * se)
    ok = bool(np.all(diffs <= tol))
    _verdict(10, "fd cross-check", ok,
             f"max|FD-MC|={diffs.max():.4f} at 9 probes "
             f"(tol {tol.max():.3f}, {fd.diagnostics['substeps']} substeps)")


def test_criterion_11_reproducibility(tmp_path):
    cfg = ExperimentConfig(scenario="eikonal", n_steps=8, n_paths=500,
                           n_paths_bsde=20_000, seed_w=SEED_W, seed_b=SEED_B,
                           levels=(4, 8), eps_ladder=(0.2, 0.1),
                           delta_ladder=(0.2, 0.1))
    outputs = {}
    codes = []
    for workers in (1, 3):
        out = tmp_path / f"w{workers}"
        code, _ = run(cfg, "full-uniqueness", str(out), workers=workers)
        codes.append(code)
        outputs[workers] = {p.name: p.read_bytes()
                            for p in sorted(out.glob("*.csv"))}
    same_names = set(outputs[1]) == set(outputs[3])
    identical = same_names and all(
        outputs[1][name] == outputs[3][name] for name in outputs[1])
    ok = codes == [0, 0] and identical and len(outputs[1]) > 0
    _verdict(11, "reproducibility", ok,
             f"exit codes={codes}, {len(outputs[1])} csv files, "
             f"bit-identical={identical}")
