"""Exact Fourier-Walsh analysis of functionals of +-1 increments.

Tables index the 2**n increment sign patterns by bitmask: bit k of the
index set means step k+1 is -1 (so index 0 is the all-plus path).  The
transform uses the probabilist's normalization 2**-n on the forward
pass, so coefficients are expectations and Parseval reads E[f^2].

The squared coefficients form the discrete spectral measure: the law of
a random coordinate subset S with P(S = T) = coeff(T)^2.  Correlations
of f under independent per-coordinate sign flips are then exactly
E[prod_{k in S} rho_k], which this module evaluates two independent
ways: through the spectrum, and through the per-coordinate averaging
operator applied to the raw table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ResourceLimitError

TABLE_CAP = 24  # 2**24-entry tables; desk-scale bound


def _check_size(n: int):
    if n < 1:
        raise DomainError(f"need at least one coordinate, got n={n}")
    if n > TABLE_CAP:
        raise ResourceLimitError(f"n={n} exceeds the table cap {TABLE_CAP}")


@dataclass(frozen=True)
class FunctionTable:
    """Real function on {+-1}^n, tabulated over all 2**n sign patterns."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _check_size(self.n)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.n,):
            raise DomainError(
                f"table for n={self.n} must have {1 << self.n} entries, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


# A 16x16 block times at most 1024 columns is under OpenBLAS's threading
# threshold (m*n*k <= 2**18), so every product below stays on one core:
# on a small machine waking a thread pool costs more than these products.
_BLOCK_BITS = 4
_COLUMNS = 1024


@functools.cache
def _hadamard_block() -> np.ndarray:
    """The 16x16 Sylvester-Hadamard matrix; its leading 2**r square is H_{2**r}."""
    h = np.ones((1, 1))
    for _ in range(_BLOCK_BITS):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, O(n 2**n).

    Each pass transforms four index bits at once, as a product with the
    16x16 Hadamard block (the last pass takes the remaining bits), so
    the table is read and written ceil(n/4) times, not n.  Every partial
    sum of a +-1 or 0/1 table is an integer below 2**53, so such tables
    transform exactly.
    """
    a = np.asarray(values, dtype=np.float64)
    size = a.size
    n = size.bit_length() - 1
    low = 0  # index bits below this one are done
    while low < n:
        bits = min(_BLOCK_BITS, n - low)
        block = _hadamard_block()[: 1 << bits, : 1 << bits]
        if low == 0:
            # rows of 2**bits consecutive entries, times the symmetric block
            rows = min(size >> bits, _COLUMNS)
            a = np.matmul(a.reshape(-1, rows, 1 << bits), block)
        else:
            # the block times (2**bits, cols) column stripes of stride 2**low
            cols = min(1 << low, _COLUMNS)
            shape = (-1, 1 << bits, (1 << low) // cols, cols)
            out = np.empty(size)
            np.matmul(block, a.reshape(shape).transpose(0, 2, 1, 3),
                      out=out.reshape(shape).transpose(0, 2, 1, 3))
            a = out
        low += bits
    return a.reshape(size)


def walsh_transform(table: FunctionTable) -> np.ndarray:
    """Analysis: coeff(T) = 2**-n sum_eps f(eps) prod_{k in T} eps_k.

    Returns the 2**n coefficients as one float array, indexed by the
    subset bitmask T.
    """
    coefficients = _fwht(table.values)
    coefficients /= 1 << table.n
    return coefficients


def spectral_measure(coefficients: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Probability table P(S = T) = coeff(T)^2 over subsets.

    Requires the source table to have unit norm (Parseval mass 1).
    """
    measure = coefficients**2
    mass = float(np.sum(measure))
    if abs(mass - 1.0) > tol:
        raise PreconditionError(f"spectrum mass {mass} is not 1 within {tol}")
    return measure


def _checked_rho(rho, n: int) -> np.ndarray:
    """rho as n per-step correlations, each in [-1, 1] (NaN is rejected)."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (n,):
        raise DomainError("rho vector length must match coordinate count")
    if not np.all(np.abs(rho) <= 1.0):
        raise DomainError("correlations must lie in [-1,1]")
    return rho


def _subset_weights(rho: np.ndarray) -> np.ndarray:
    """weights[T] = prod_{k in T} rho_k for every subset bitmask T."""
    w = np.ones(1)
    for r in rho:
        w = np.concatenate([w, w * r])
    return w


def noise_functional(coefficients: np.ndarray, rho: np.ndarray) -> float:
    """E[prod_{k in S} rho_k] under the spectral measure (up to total mass).

    Equals sum_T coeff(T)^2 prod_{k in T} rho_k; for a unit-norm source
    this is the correlation of f under per-coordinate rho_k-noise.  The
    coefficients must number 2**len(rho).
    """
    rho = _checked_rho(rho, np.size(rho))
    _check_size(rho.size)
    if np.shape(coefficients) != (1 << rho.size,):
        raise DomainError("coefficient array has wrong length")
    return float(np.sum(np.square(coefficients) * _subset_weights(rho)))


def _noise_operator(table: FunctionTable, rho: np.ndarray) -> np.ndarray:
    """Per-coordinate averaging (T_rho f)(eps) = E[f(eps') | eps].

    Coordinate k of eps' equals eps_k with probability (1+rho_k)/2,
    independently.  Applied as a tensor product of 2x2 mixes; never
    touches the Walsh domain.  The mix of a pair (x, y) differing in
    coordinate k is x - f (x - y), y + f (x - y) with f = (1 - rho_k)/2,
    done in place with one half-size scratch array.
    """
    rho = _checked_rho(rho, table.n)
    a = table.values.copy()
    size = a.size
    scratch = np.empty(size // 2)
    h = 1
    for r in rho:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        d = scratch.reshape(-1, h)
        np.subtract(x, y, out=d)
        d *= (1.0 - r) / 2.0
        x -= d
        y += d
        h *= 2
    return a


def exact_correlation(table: FunctionTable, rho: np.ndarray) -> float:
    """E[f(eps) f(eps')] for rho-resampled eps', by direct averaging.

    Independent of the Walsh route: computes f . T_rho f / 2**n.
    """
    return float(np.mean(table.values * _noise_operator(table, rho)))


# -- concrete functionals of the discrete Tanaka model --------------------

def sgn_functional_table(n: int) -> FunctionTable:
    """sgn(X_n) as a function of the driving increments, all 2**n paths.

    Walks the reconstruction X_{k+1} = X_k + sgn(X_k) eps_{k+1} once per
    prefix: after step k, x holds X_k for every pattern of the first k
    steps, and step k+1 doubles it into eps = +1 (bit k clear, the lower
    half of the index range) followed by eps = -1.
    """
    _check_size(n)
    x = np.zeros(1, dtype=np.int8)  # |X_k| <= k <= TABLE_CAP
    for _ in range(n):
        s = np.where(x >= 0, np.int8(1), np.int8(-1))
        x = np.concatenate([x + s, x - s])
    return FunctionTable(n, np.where(x >= 0, 1.0, -1.0))


def sign_correlation_exact(rho: np.ndarray) -> float:
    """Exact E[sgn(X_n) sgn(X'_n)] for per-step correlations rho (len n)."""
    rho = _checked_rho(rho, np.size(rho))
    table = sgn_functional_table(rho.size)
    return noise_functional(walsh_transform(table), rho)
