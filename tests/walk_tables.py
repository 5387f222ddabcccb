"""Function tables that only the tests use."""

import numpy as np

from splitnoise.errors import DomainError
from splitnoise.walsh import FunctionTable


def walk_survival_table(n: int, start: int) -> FunctionTable:
    """Indicator that start + walk stays strictly positive for n steps.

    The discrete stand-in for the killed-path survival functional; used
    to validate the two-path correlation route against the spectrum.
    """
    if start <= 0:
        raise DomainError("starting height must be positive")
    idx = np.arange(1 << n, dtype=np.uint32)
    pos = np.full(1 << n, start, dtype=np.int32)
    alive = np.ones(1 << n, dtype=bool)
    for k in range(n):
        eps_k = 1 - 2 * ((idx >> np.uint32(k)) & 1).astype(np.int32)
        pos += eps_k
        alive &= pos > 0
    return FunctionTable(n, alive.astype(np.float64))
