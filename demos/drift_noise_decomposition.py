"""
    drift_noise_decomposition
    =========================

    Reading a stochastic differential off Monte Carlo data.  The test
    field is u_t = W_t^2, whose decomposition is known in closed form:

        d(W_t^2) = 1 dt + 2 W_t dW_t,

    so the drift integrand is the constant 1 and the noise integrand
    is 2 W_t.  The estimator regresses cross-path increments on
    features times (dt, dW) per knot, then evaluates the fitted
    combinations along each path.  The table tracks the estimated
    drift (with the regression's own standard error) and the
    correlation of the fitted noise samples with 2 W at a few knots.

    The second block closes the loop: integrating the estimated
    integrands back up must reproduce the sampled field within a
    budget that grows with the per-knot regression residuals, and a
    drift deliberately biased by +0.3 must blow that budget -- the
    reconstruction report is the honesty check that keeps fitted
    decompositions falsifiable.
"""

import numpy as np

from shjlab import BoxLattice, TimeGrid, sample_ensemble
from shjlab.fields import AdaptedField, reconstruction_report
from shjlab.viscosity import estimate_decomposition

SEED = 5
N_PATHS = 8_000
GRID = TimeGrid(1.0, 16)
LAT_RADIUS = 1.0


def main():
    ens = sample_ensemble(GRID, 1, N_PATHS, SEED)
    lat = BoxLattice.centered(LAT_RADIUS, 1.0)
    values = {k: np.broadcast_to(ens.value_at(k)[:, 0] ** 2,
                                 (lat.n_points, N_PATHS)).copy()
              for k in range(GRID.n_steps + 1)}
    u = estimate_decomposition(AdaptedField(GRID, lat, values), ens)

    print("d(W^2) = 1 dt + 2 W dW, recovered from samples")
    print(f"{'knot':>5}   {'drift':>7}   {'+- se':>7}   {'corr(noise, 2W)':>15}")
    for k in (2, 6, 10, 14):
        coef = u.diagnostics["coef"][k]
        se = u.diagnostics["coef_se"][k]
        w_k = ens.value_at(k)[:, 0]
        corr = float(np.corrcoef(u.noise[k][0, :, 0], 2.0 * w_k)[0, 1])
        print(f"{k:5d}   {coef[0, 0]:7.4f}   {se[0, 0]:7.4f}   {corr:15.5f}")

    def report_line(label, field):
        rep = reconstruction_report(field, ens)
        print(f"{label}:  passed={str(rep['passed']):5s}  "
              f"knot 15: {rep['rms'][15]:.3e}/{rep['budget'][15]:.3e}  "
              f"knot 0: {rep['rms'][0]:.3e}/{rep['budget'][0]:.3e}")

    print("\nreconstruction rms / budget (budget accumulates the per-knot")
    print("regression residuals; honest rms grows like sqrt(steps) instead)")
    report_line("honest decomposition", u)
    biased_drift = {k: d + 0.3 for k, d in u.drift.items()}
    bad = AdaptedField(GRID, lat, dict(u.values), biased_drift,
                       dict(u.noise), diagnostics=dict(u.diagnostics))
    report_line("drift biased +0.3  ", bad)


if __name__ == "__main__":
    main()
