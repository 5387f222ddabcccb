"""The spectral view of noise sensitivity.

The sign of the driven walk, seen as a function of the driving signs,
has an exact Fourier-Walsh spectrum.  Squared coefficients form a
probability law on coordinate subsets; correlations under partial
resampling are subset averages of rho^|subset|.  As the walk gets
longer the spectral mass drifts to large subsets and the correlation
dies -- noise sensitivity.
"""

import numpy as np

from splitnoise.coupled import discrete_phi
from splitnoise.timesets import TimeSet
from splitnoise.walsh import (
    exact_correlation,
    noise_functional,
    sgn_functional_table,
    sign_correlation_exact,
    spectral_measure,
    walsh_transform,
)

print("Spectrum of sgn(X_4)")
print("--------------------")
table = sgn_functional_table(4)
spectrum = walsh_transform(table)
mass = spectral_measure(spectrum)
order = np.argsort(-mass)
print("subset  coeff    mass")
for idx in order[:8]:
    members = [k + 1 for k in range(4) if idx >> k & 1]
    print(f"{str(members):10s} {spectrum.coefficients[idx]:+.4f}  {mass[idx]:.4f}")
print(f"total mass (Parseval): {mass.sum():.12f}")
print()

print("Two routes to the same correlation")
print("----------------------------------")
rho = np.array([0.5, 1.0, 0.2, 0.9])
via_spectrum = noise_functional(spectrum, rho)
via_average = exact_correlation(table, rho)
print(f"spectral route : {via_spectrum:.12f}")
print(f"averaging route: {via_average:.12f}")
print()

print("Noise sensitivity of the sign, exact values at rho = 1/2")
print("--------------------------------------------------------")
print("(even/odd lengths decay separately; sgn(0)=+1 lifts even ones)")
for n in range(2, 21, 2):
    full = sign_correlation_exact(np.full(n, 0.5))
    print(f"  n={n:2d}  E[sgn sgn'] = {full:.6f}")
print()

print("Partial perturbation keeps a nontrivial limit")
print("---------------------------------------------")
A = TimeSet.parse("1/4..1/2")
for n in (8, 64, 512, 4096):
    if n <= 20:
        # the Walsh oracle's own pattern: step k is perturbed iff k/n lies in A
        k = np.arange(n)
        val = sign_correlation_exact(np.where((4 * k >= n) & (2 * k <= n), 0.5, 1.0))
        print(f"  n={n:5d}  exact  {val:.6f}")
    else:
        est = discrete_phi(A, 0.5, n, 100_000, seed=5)
        print(f"  n={n:5d}  MC     {est.mean:.6f} +- {est.stderr:.6f}")
