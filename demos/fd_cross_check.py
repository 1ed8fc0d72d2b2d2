"""
    fd_cross_check
    ==============

    Two independent routes to one regularized value function.  Route
    one is pathwise: backward dynamic programming over a Monte Carlo
    noise ensemble, conditional expectations by cross-path projection.
    Route two never sees a sample path: the smooth approximant's
    Hamilton-Jacobi-Bellman equation with the same noise level delta
    is integrated by an explicit upwind finite-difference scheme in
    the (state, noise) plane, monotone under its CFL substepping.

    The two solvers share no code beyond the coefficient callables, so
    agreement at interior probes is a genuine cross-check: a bug in
    the regression stack or in the stencil would show up as a
    systematic gap.  The table compares both routes at knot 24 of 32:
    the drift and running cost read no path and G reads only the
    terminal Brownian value, so from there on the field is a plain
    function of (t, state, accumulated noise).
"""

import numpy as np

from shjlab import BoxLattice, TimeGrid, sample_ensemble, scenario, value_V
from shjlab.smoothing import fit_functional_approximant
from shjlab.viscosity import solve_hjb_fd_1d

SEED_W = 11
SEED_B = 12
DELTA = 0.1


def main():
    co = scenario("eikonal")
    grid = TimeGrid(1.0, 32)
    ens_w = sample_ensemble(grid, 16, SEED_W)
    ens_b = sample_ensemble(grid, 2_000, SEED_B)
    fa = fit_functional_approximant(co, ens_w, eps_target=0.05, x_radius=3.65)

    lat = BoxLattice.centered(3.65, 0.05)
    V_eps = value_V(fa, ens_w, lat, noise_level=DELTA, noise_ensemble=ens_b)
    k_start = 24
    t_start = grid.knots[k_start]

    axis = np.linspace(-3.6, 3.6, 145)
    fd = solve_hjb_fd_1d(fa, axis, axis, (t_start, 1.0), DELTA)
    print(f"FD solve on [{t_start:.2f}, 1.00]: "
          f"{fd.diagnostics['substeps']} substeps "
          f"(CFL rate {fd.diagnostics['cfl_rate']:.1f}/s)")

    print(f"\n{'x':>6}   {'monte carlo':>11}   {'finite diff':>11}   {'gap':>9}")
    worst = 0.0
    for x in np.linspace(-2.0, 2.0, 9):
        mc = float(V_eps.mean_at(k_start, np.array([[x]]))[0])
        fdv = float(fd.value_at(x, 0.0))
        worst = max(worst, abs(fdv - mc))
        print(f"{x:+6.1f}   {mc:11.5f}   {fdv:11.5f}   {fdv - mc:+9.5f}")
    se = float(V_eps.se[k_start].max())
    print(f"\nworst gap {worst:.5f} against tolerance "
          f"max(0.03, 3 se) = {max(0.03, 3 * se):.5f}")


if __name__ == "__main__":
    main()
