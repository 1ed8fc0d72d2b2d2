"""
    eikonal_frontier
    ================

    Distance-to-target control in one dimension: drive at unit speed,
    pay the distance left at the horizon.  The value surface is the
    truncated cone V(t, x) = max(|x| - (T - t), 0), which makes the
    scenario a sharp oracle for the backward lattice recursion: away
    from the traveling kink |x| = T - t every interpolation lands on a
    linear stretch and the sweep is exact to rounding.

    On the kink itself the interpolant's chord overshoots by O(h); the
    second table tracks that bias as the lattice refines while the time
    grid stays fixed.  It is the one place where the discrete surface
    sits above the achievable rollout cost, which is why audits compare
    rollouts and surface in batch mean rather than pointwise.
"""

import numpy as np

from shjlab import BoxLattice, TimeGrid, sample_ensemble, scenario, value_V

SEED = 11
N_STEPS = 64
N_PATHS = 2_000


def main():
    co = scenario("eikonal")
    ens = sample_ensemble(TimeGrid(1.0, N_STEPS), N_PATHS, SEED)

    V = value_V(co, ens, BoxLattice.centered(3.25, 0.05))
    print("probe values at t = 0 (exact: max(|x| - 1, 0))")
    for x0 in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        v = float(V.mean_at(0, np.array([[x0]]))[0])
        exact = max(abs(x0) - 1.0, 0.0)
        print(f"  x0 = {x0:+.1f}   V = {v:8.5f}   exact = {exact:.5f}"
              f"   err = {v - exact:+.2e}")

    print("\nkink overshoot at x = +-1 versus lattice spacing")
    for h in (0.05, 0.025, 0.01, 0.005):
        Vh = value_V(co, ens, BoxLattice.centered(3.25, h))
        bias = float(Vh.mean_at(0, np.array([[1.0]]))[0])
        print(f"  h = {h:.3f}   V(0, 1) = {bias:.5f}   bias/h = {bias / h:.2f}")


if __name__ == "__main__":
    main()
