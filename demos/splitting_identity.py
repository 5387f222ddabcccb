"""The splitting identity, both sides.

Direct route: couple two Brownian paths (shared increments off the
perturbation region, rho-mixed on it) and measure how often they attain
their minima at the same grid time.

Spectral route: integrate, against the arc-sine law of the minimum
time, the product of two entrance-law survival correlations obtained by
pulling the region back through the scaling maps on either side of the
minimum.
"""

from splitnoise.coupled import argmin_coincidence, m_lambda_functional
from splitnoise.theorem import rhs_integral, verify_theorem
from splitnoise.timesets import TimeSet

A = TimeSet.parse("1/4..1/2")
RHO = 0.5
SEED = 20260810

print("Entrance-law machinery (start-time invariance)")
print("----------------------------------------------")
for t0 in (1 / 32, 1 / 8, 1 / 2):
    est = m_lambda_functional([(0.5, 0.75)], RHO, t0, 100_000, seed=SEED)
    print(f"  start {t0:<6.4f}: {est.mean:.4f} +- {est.stderr:.4f}")
print("  (same value: the restriction property of the entrance family; the")
print("  arc-sine integral below starts each factor at its region, like 1/2 here)")
print()

print(f"Both routes for A = {A}, rho = {RHO}")
print("----------------------------------------")
lhs = argmin_coincidence(A, RHO, 1 << 12, 20_000, seed=SEED + 1)
print(f"  direct   P(g = g'):      {lhs.mean:.4f} +- {lhs.stderr:.4f}")
rhs = rhs_integral(A, RHO, n_nodes=16, n_samples_per_node=10_000, seed=SEED + 2)
print(f"  arc-sine integral:       {rhs.mean:.4f} +- {rhs.stderr:.4f}")
print()

print("Full comparison with the coupled doubled-grid stability check")
print("-------------------------------------------------------------")
report = verify_theorem(A, RHO, seed=SEED + 3, lhs_n_grid=1 << 12, lhs_samples=20_000,
                        n_nodes=16, node_samples=10_000,
                        check_stability=True)
print(f"  lhs  {report.lhs.mean:.4f} +- {report.lhs.stderr:.4f}")
print(f"  rhs  {report.rhs.mean:.4f} +- {report.rhs.stderr:.4f}")
print(f"  discrepancy {report.discrepancy:+.4f}  (4 sigma = {4 * report.combined_stderr:.4f})")
print(f"  pass: {report.passed}   grid stability: {report.stability_ok}"
      f"  (doubled grid minus grid, paired: {report.grid_bias.mean:+.5f}"
      f" +- {report.grid_bias.stderr:.5f})")
print()

print("Edge cases")
print("----------")
empty = verify_theorem(TimeSet.empty(), RHO, seed=1, lhs_n_grid=256, lhs_samples=500,
                       n_nodes=4, node_samples=100)
print(f"  no perturbation: lhs = {empty.lhs.mean}, rhs = {empty.rhs.mean} (identical paths)")
full = rhs_integral(TimeSet.full(), RHO, 8, 100, seed=2)
print(f"  full perturbation: rhs = {full.mean} (no gaps to integrate over; "
      "the direct route is exactly 0 too)")
