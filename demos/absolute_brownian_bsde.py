"""
    absolute_brownian_bsde
    ======================

    Regression solver for a backward pair (Y, Z) with terminal data
    |W_T| and running reward |W_t|: condition on the Brownian value at
    each knot, step Y backward through least squares, and extract Z
    from the covariation of the centered increment.  The closed form
    at the start is

        y_0 = E|W_T| + int_0^T E|W_t| dt = (5/3) sqrt(2 T / pi),

    i.e. 1.32980760... for T = 1.  The table compares the backward
    regression value Y_0 with the plain pathwise average of
    |W_T| + sum |W_k| dt.  Because the constant function sits in the
    regression basis, every projection preserves the cross-path mean,
    so the two columns agree to rounding by construction -- the sweep
    adds conditional structure (per-knot Y and the integrand Z), not a
    different estimate of the mean.  Both carry the same left-endpoint
    quadrature bias, about -0.012 at 32 steps, which is why the 64k
    row still sits below the closed form.

    The closing block restates the solver's two structural exactness
    properties: deterministic data collapses Z to zero at machine
    precision, and the whole map is linear, so solving a superposition
    equals superposing solutions.
"""

import numpy as np

from shjlab import TimeGrid, sample_ensemble, solve_bsde
from shjlab.bsde import BsdeSpec

SEED = 29
GRID = TimeGrid(1.0, 32)
Y0_EXACT = (5.0 / 3.0) * np.sqrt(2.0 / np.pi)


def two_routes(n_paths):
    ens = sample_ensemble(GRID, 1, n_paths, SEED)
    # (n_steps + 1, n_paths)
    w = np.stack([ens.value_at(k)[:, 0] for k in range(GRID.n_steps + 1)])
    spec = BsdeSpec(ens, np.abs(w[-1]), lambda t, ps: np.abs(ps.current[:, 0]))
    y0 = float(solve_bsde(spec).Y[0].mean())
    rollout = np.abs(w[-1]) + np.abs(w[:-1]).sum(axis=0) * GRID.dt
    return y0, float(rollout.mean()), float(rollout.std() / np.sqrt(n_paths))


def main():
    print(f"closed form y0 = {Y0_EXACT:.8f}   ({GRID.n_steps} steps)")
    print(f"{'paths':>8}   {'regression':>10}   {'rollout':>8}   {'+- se':>7}"
          f"   {'route gap':>9}")
    for n_paths in (1_000, 4_000, 16_000, 64_000):
        y0, naive, se = two_routes(n_paths)
        print(f"{n_paths:8d}   {y0:10.5f}   {naive:8.5f}   {se:7.5f}"
              f"   {abs(y0 - naive):9.1e}")

    ens = sample_ensemble(GRID, 1, 4_000, SEED)
    det = BsdeSpec(ens, np.full(4_000, 2.0), np.full(GRID.n_steps, 0.25))
    z_max = float(np.abs(solve_bsde(det).Z).max())
    print(f"\ndeterministic data: max |Z| = {z_max:.2e}")

    w_T = ens.value_at(GRID.n_steps)[:, 0]
    s1 = solve_bsde(BsdeSpec(ens, w_T, np.ones(GRID.n_steps)))
    s2 = solve_bsde(BsdeSpec(ens, w_T**2))
    combo = solve_bsde(BsdeSpec(ens, 2.0 * w_T - 3.0 * w_T**2,
                                2.0 * np.ones(GRID.n_steps)))
    gap = float(np.abs(combo.Y - (2.0 * s1.Y - 3.0 * s2.Y)).max())
    print(f"superposition gap max |Y(2a - 3b) - (2 Y(a) - 3 Y(b))| = {gap:.2e}")


if __name__ == "__main__":
    main()
