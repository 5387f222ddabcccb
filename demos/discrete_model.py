"""Tour of the exact discrete model.

The driving walk Z determines the driven walk X: the reflection
identity recovers |X| and the parity of the last running-minimum time
of Z recovers the sign.  Everything is exact integer arithmetic, so we
can check the identities on every path of a given length.
"""

import numpy as np

from splitnoise.tanaka import (
    all_increment_patterns,
    identities_hold,
    local_time_positions,
    parity_signs,
    positions,
    x_to_z_increments,
    z_to_x_increments,
)

print("A single path, by hand")
print("----------------------")
dz = np.array([1 if c == "+" else -1 for c in "--+-++"])
dx = z_to_x_increments(dz)
z, x = positions(dz), positions(dx)
print(f"Z increments : {''.join('+' if s > 0 else '-' for s in dz)}")
print(f"Z positions  : {z}")
print(f"X positions  : {x}")
print(f"local time   : {local_time_positions(x)}")
print(f"Z + running max of -Z : {z + np.maximum.accumulate(-z)}")
print(f"|X + 1/2| - 1/2       : {np.abs(2 * x + 1) // 2}")
print(f"round trip x_to_z(z_to_x(Z)) == Z : {np.array_equal(x_to_z_increments(dx), dz)}")
print()

print("Sign recovery from Z alone")
print("--------------------------")
for n in range(dz.size + 1):
    s = parity_signs(z[: n + 1])
    print(f"  n={n}: parity sign {s:+d}   X_n = {x[n]:+d}")
print()

print("Exhaustive check, all paths of length 12")
print("----------------------------------------")
dx = all_increment_patterns(12)
print(f"paths checked : {dx.shape[0]}")
print(f"identities    : {'all hold' if identities_hold(dx).all() else 'FAILED'}")

dz = all_increment_patterns(14)
x_pos = positions(z_to_x_increments(dz))
ok = True
for n in range(15):
    got = parity_signs(positions(dz)[:, : n + 1])
    ok &= bool(np.array_equal(got, np.where(x_pos[:, n] >= 0, 1, -1)))
print(f"parity rule   : {'matches sgn(X_n) for all 2^14 paths, n <= 14' if ok else 'FAILED'}")
