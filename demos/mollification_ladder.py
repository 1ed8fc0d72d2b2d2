"""
    mollification_ladder
    ====================

    Discrete mollification of kinked problem data.  The smooth bump
    rho(x) = c exp(1/(|x|^2 - 1)) on the unit ball is sampled at
    Gauss-Legendre nodes and the weights renormalized to unit mass, so
    the discrete kernel keeps the three properties the analysis leans
    on: it preserves affine maps exactly, never raises a Lipschitz
    constant, and pulls a kinked function within lip / l of itself at
    smoothing level l.

    The ladder below mollifies the distance terminal cost |x| (capped
    far outside the probe window) at levels 2, 4, 8, 16 and reports
    the sup gap on
    a fine probe grid; gap * level hovers around a constant and the
    fitted log-log slope is -1.  The second block evaluates the convex
    linear-growth penalty h built from the same kernel: h vanishes
    near the origin, tracks |x| - 1 far out, and its gradient never
    exceeds unit length -- the certificate shape used when value
    functions must be pinned down at spatial infinity.
"""

import numpy as np

from shjlab import scenario
from shjlab.smoothing import MollifiedSet, kernel_quadrature, linear_growth_penalty

LEVELS = (2, 4, 8, 16)


def main():
    co = scenario("eikonal")
    probe = np.linspace(-3.0, 3.0, 601)[:, None]
    g0 = co.G(probe, None)

    print("terminal-cost mollification ladder (lip_x = 1)")
    print(f"{'level':>6}   {'nodes':>5}   {'sup gap':>9}   {'gap * l':>8}")
    gaps = []
    for level in LEVELS:
        ml = MollifiedSet(co, level)
        gap = float(np.abs(ml.G(probe, None) - g0).max())
        gaps.append(gap)
        print(f"{level:6d}   {ml.nodes.shape[0]:5d}   {gap:9.6f}   {gap * level:8.4f}")
    slope = np.polyfit(np.log(LEVELS), np.log(gaps), 1)[0]
    print(f"fitted log-log slope = {slope:+.3f} (exact rate: -1)")

    nodes, weights = kernel_quadrature(1)
    print(f"\nkernel: {nodes.shape[0]} nodes on (-1, 1), weight sum = "
          f"{weights.sum():.15f}")

    x = np.linspace(-3.0, 3.0, 201)[:, None]
    h, Dh = linear_growth_penalty(x)
    print("\nlinear-growth penalty h (vanishes near 0, ~ |x| - 1 far out)")
    for xv in (0.0, 1.0, 2.0, 3.0):
        i = int(np.argmin(np.abs(x[:, 0] - xv)))
        print(f"  h({xv:+.1f}) = {h[i]:8.5f}   lower bound |x| - 2 = {abs(xv) - 2:+.1f}")
    print(f"  max |Dh| on probe = {np.abs(Dh).max():.9f} (<= 1)")


if __name__ == "__main__":
    main()
