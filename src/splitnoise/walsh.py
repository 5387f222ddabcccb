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


@dataclass(frozen=True)
class ChaosSpectrum:
    """Walsh coefficients indexed by coordinate subsets (bitmask)."""

    n: int
    coefficients: np.ndarray

    def __post_init__(self):
        _check_size(self.n)
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (1 << self.n,):
            raise DomainError("coefficient array has wrong length")
        object.__setattr__(self, "coefficients", coeffs)


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, O(n 2**n)."""
    a = values.astype(np.float64, copy=True)
    h = 1
    size = a.size
    while h < size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        a[:, :h] += a[:, h:]
        a[:, h:] = left - a[:, h:]
        h *= 2
    return a.reshape(size)


def walsh_transform(table: FunctionTable) -> ChaosSpectrum:
    """Analysis: coeff(T) = 2**-n sum_eps f(eps) prod_{k in T} eps_k."""
    return ChaosSpectrum(table.n, _fwht(table.values) / (1 << table.n))


def spectral_measure(spectrum: ChaosSpectrum, tol: float = 1e-9) -> np.ndarray:
    """Probability table P(S = T) = coeff(T)^2 over subsets.

    Requires the source table to have unit norm (Parseval mass 1).
    """
    measure = spectrum.coefficients**2
    mass = float(np.sum(measure))
    if abs(mass - 1.0) > tol:
        raise PreconditionError(f"spectrum mass {mass} is not 1 within {tol}")
    return measure


def _subset_weights(rho: np.ndarray) -> np.ndarray:
    """weights[T] = prod_{k in T} rho_k for every subset bitmask T."""
    rho = np.asarray(rho, dtype=np.float64)
    w = np.ones(1)
    for r in rho:
        w = np.concatenate([w, w * r])
    return w


def noise_functional(spectrum: ChaosSpectrum, rho: np.ndarray) -> float:
    """E[prod_{k in S} rho_k] under the spectral measure (up to total mass).

    Equals sum_T coeff(T)^2 prod_{k in T} rho_k; for a unit-norm source
    this is the correlation of f under per-coordinate rho_k-noise.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (spectrum.n,):
        raise DomainError("rho vector length must match coordinate count")
    if np.any(np.abs(rho) > 1.0):
        raise DomainError("correlations must lie in [-1,1]")
    return float(np.sum(spectrum.coefficients**2 * _subset_weights(rho)))


def _noise_operator(table: FunctionTable, rho: np.ndarray) -> FunctionTable:
    """Per-coordinate averaging (T_rho f)(eps) = E[f(eps') | eps].

    Coordinate k of eps' equals eps_k with probability (1+rho_k)/2,
    independently.  Applied as a tensor product of 2x2 mixes; never
    touches the Walsh domain.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (table.n,):
        raise DomainError("rho vector length must match coordinate count")
    a = table.values.astype(np.float64, copy=True)
    size = a.size
    h = 1
    for r in rho:
        keep = (1.0 + r) / 2.0
        flip = (1.0 - r) / 2.0
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        a[:, :h] = keep * left + flip * a[:, h:]
        a[:, h:] = keep * a[:, h:] + flip * left
        h *= 2
    return FunctionTable(table.n, a.reshape(size))


def exact_correlation(table: FunctionTable, rho: np.ndarray) -> float:
    """E[f(eps) f(eps')] for rho-resampled eps', by direct averaging.

    Independent of the Walsh route: computes f . T_rho f / 2**n.
    """
    smoothed = _noise_operator(table, rho)
    return float(np.mean(table.values * smoothed.values))


# -- concrete functionals of the discrete Tanaka model --------------------

def sgn_functional_table(n: int) -> FunctionTable:
    """sgn(X_n) as a function of the driving increments, all 2**n paths.

    Walks the reconstruction X_{k+1} = X_k + sgn(X_k) eps_{k+1} in
    parallel over every sign pattern.
    """
    _check_size(n)
    idx = np.arange(1 << n, dtype=np.uint32)
    x = np.zeros(1 << n, dtype=np.int32)
    for k in range(n):
        eps_k = 1 - 2 * ((idx >> np.uint32(k)) & 1).astype(np.int32)
        x += np.where(x >= 0, eps_k, -eps_k)
    return FunctionTable(n, np.where(x >= 0, 1.0, -1.0))


def _walk_survival_table(n: int, start: int) -> FunctionTable:
    """Indicator that start + walk stays strictly positive for n steps.

    The discrete stand-in for the killed-path survival functional; used
    to validate the two-path correlation route against the spectrum.
    """
    _check_size(n)
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


def sign_correlation_exact(rho: np.ndarray) -> float:
    """Exact E[sgn(X_n) sgn(X'_n)] for per-step correlations rho (len n)."""
    rho = np.asarray(rho, dtype=np.float64)
    table = sgn_functional_table(rho.size)
    return noise_functional(walsh_transform(table), rho)
