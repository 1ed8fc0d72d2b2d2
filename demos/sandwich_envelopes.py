"""
    sandwich_envelopes
    ==================

    Two-sided certification of a value surface.  The exact problem is
    replaced by a smooth functional approximant within eps, the
    approximant's dynamics get an independent noise of size delta, and
    the perturbed surface is shifted back along the noise path.  Adding
    and subtracting two bound processes -- one fed by the approximation
    gaps, one by the noise magnitude times an empirical gradient bound
    -- yields an upper field that must behave as a supermartingale
    along any admissible flow and a lower field that must behave as a
    submartingale along the optimal one.

    Each rung of the ladder below shrinks eps and delta together,
    builds the pair for the distance problem, checks both one-sided
    residual reports, and measures the squeeze against an
    independently computed value surface.  Ordering must hold with a
    statistical cushion at every rung, and the envelope width must
    fall linearly in the perturbation size: the fitted log-log slope
    against eps + delta should sit near 1, which is the uniqueness
    argument run numerically.  (The width constant is dominated by the
    noise correction K-bar = 4 L (L~ + 1); with L = 12 it is large,
    but it is a constant -- only the slope carries the argument.)
"""

import numpy as np

from shjlab import (BoxLattice, TimeGrid, reach_radius, sample_ensemble,
                    scenario, value_V)
from shjlab.smoothing import fit_functional_approximant
from shjlab.viscosity import build_envelopes, sandwich_report

SEED_W = 101
SEED_B = 202
GRID = TimeGrid(1.0, 16)
N_PATHS = 300
LADDER = (0.2, 0.1, 0.05)


def main():
    co = scenario("eikonal")
    ens_w = sample_ensemble(GRID, 1, N_PATHS, SEED_W)
    ens_b = sample_ensemble(GRID, 1, N_PATHS, SEED_B)

    x_radius = reach_radius(co, 1.0, GRID.T, margin=1.0)
    widths = []
    print(f"{'eps=delta':>9}   {'L~':>5}   {'K-bar':>6}   {'residuals':>9}"
          f"   {'ordered':>7}   {'width':>8}")
    for level in LADDER:
        fa = fit_functional_approximant(co, ens_w, eps_target=level,
                                        x_radius=x_radius)
        # the reachable set from |x0| <= 2 plus the noise wander
        lattice = BoxLattice.for_problem(
            co, GRID.T, 2.0, 0.1, margin=0.25 + 4.0 * level * np.sqrt(GRID.T))
        pair = build_envelopes(co, fa, ens_w, ens_b, level, level,
                               lattice=lattice)
        V = value_V(co, ens_w, lattice)
        rep = sandwich_report(pair, V)
        both = (pair.reports["upper"]["passed"]
                and pair.reports["lower"]["passed"])
        width = max(rep["gap_upper"], rep["gap_lower"])
        widths.append(width)
        print(f"{level:9.2f}   {pair.params['L_tilde']:5.3f}"
              f"   {pair.params['K_bar']:6.1f}"
              f"   {'ok' if both else 'FAIL':>9}"
              f"   {'yes' if rep['order_ok'] else 'NO':>7}   {width:8.4f}")

    slope = np.polyfit(np.log([2 * l for l in LADDER]), np.log(widths), 1)[0]
    print(f"\nfitted width ~ (eps + delta)^p with p = {slope:.3f} (target: 1)")


if __name__ == "__main__":
    main()
