"""Coupled-path Monte Carlo: perturbation patterns, coupling kernels and
the estimators.

A perturbation region A and a correlation level rho induce a per-step
correlation pattern on a uniform grid: rho where the step's left
endpoint lies in A, 1 elsewhere.  Pattern-1 steps of a coupled pair
share increments bitwise; pattern-rho steps are freshly mixed.  Every
estimator draws its coupled increments from one of two kernels:
_coupled_normals for Brownian pairs, _coupled_signs for +-1 walk pairs.

Path-survival functionals are estimated with Brownian-bridge crossing
weights on the uniform grid: given the grid values, each step
contributes the probability that the path (or pair) stays positive
inside the step.  This makes single-path survival exact in expectation
at any grid resolution; for a rho-coupled pair inside a perturbed step
the two crossing corrections are treated as conditionally independent,
an O(grid step) approximation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import EstimateWithError, RunningMoments, batch_sizes, derive_rng
from .timesets import TimeSet

STEP_CAP = 10**7  # grid steps per path: walk length, n_grid, node_steps

# fixed batch shapes (reproducibility: a pure function of the parameters)
_WALK_BATCH = 1 << 17
_SURVIVAL_BATCH = 1 << 16
_ARGMIN_ELEMENTS = 1 << 24  # target elements per (batch, grid) array

# estimator stream tags for seed derivation
_TAG_DISCRETE_PHI = 1
_TAG_ARGMIN = 2
_TAG_MLAMBDA = 4


# -- correlation patterns -------------------------------------------------

def make_pattern(region, rho: float, n: int, t_start: float = 0.0) -> np.ndarray:
    """Per-step rho on the n-step grid of [t_start, 1], each step sampled at its left endpoint.

    region is a TimeSet or a list of float (lo, hi) pairs.  rho lies in
    [0,1); a window starting after 0 (an entrance-law survival window)
    also accepts rho = 1, where the pair degenerates to a single path.
    Steps in the region get rho, the others 1; the step length is
    (1 - t_start) / n.
    """
    if not (0.0 <= rho < 1.0 or (t_start > 0.0 and rho == 1.0)):
        raise DomainError(f"rho={rho} outside [0,1{']' if t_start > 0.0 else ')'}")
    if n < 1:
        raise DomainError("need at least one step")
    if not t_start < 1.0:
        raise DomainError("empty time window")
    if n > STEP_CAP:
        raise ResourceLimitError(f"{n} grid steps exceed the cap {STEP_CAP}")
    pairs = region.as_pairs() if isinstance(region, TimeSet) else list(region)
    grid = t_start + np.arange(n) * (1.0 - t_start) / n
    inside = np.zeros(n, dtype=bool)
    for lo, hi in pairs:
        inside |= (grid >= lo) & (grid <= hi)
    return np.where(inside, rho, 1.0)


# -- coupling kernels --------------------------------------------------------

def _coupled_normals(rho, sqdt: float, rng: np.random.Generator,
                     shape) -> tuple[np.ndarray, np.ndarray]:
    """Coupled N(0, dt) increment pair (db, db') with per-step correlation rho.

    rho is a numpy scalar or an array that broadcasts against shape.
    db' = rho db + sqrt(1-rho^2) sqdt z with a fresh normal z; where
    rho = 1 it is db bitwise, and when every rho = 1 no second normal is
    drawn.
    """
    db = rng.standard_normal(shape) * sqdt
    shared = rho == 1.0
    # a scalar rho (one survival step) skips the array reduction and the
    # select: at small batches either costs as much as the step itself
    if shared.all() if shared.ndim else shared:
        return db, db
    mixed = rho * db + np.sqrt(1.0 - rho**2) * sqdt * rng.standard_normal(shape)
    return db, np.where(shared, db, mixed) if shared.ndim else mixed


_HALF = np.float32(0.5)


def _coupled_signs(u: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    """Coupled +-1 pair (eps, eps') from one float32 uniform per step.

    The four values of the pair take disjoint u-intervals: eps = -1 iff
    u >= 1/2, and eps' = -eps iff u mod 1/2 >= (1+rho)/4.  So eps and
    eps' are uniform signs with E[eps eps'] = rho, and eps' = eps
    wherever rho = 1.  rho is a scalar or broadcasts against u.
    """
    neg = u >= _HALF
    eps = 1 - 2 * neg.astype(np.int32)
    flip = (u - _HALF * neg) >= np.float32((1.0 + rho) / 4.0)
    return eps, np.where(flip, -eps, eps)


# -- discrete-model correlation estimator ----------------------------------

def discrete_phi(region: TimeSet, rho: float, n: int, n_samples: int,
                 seed: int) -> EstimateWithError:
    """MC estimate of E[sgn(X_n) sgn(X'_n)] for the pattern-coupled walk pair.

    X and X' are reconstructed step by step from the coupled driving
    increments via dX = sgn(X) dZ.
    """
    pattern = make_pattern(region, rho, n)
    moments = RunningMoments()
    for i, b in enumerate(batch_sizes(n_samples, _WALK_BATCH)):
        rng = derive_rng(seed, _TAG_DISCRETE_PHI, i)
        x = np.zeros(b, dtype=np.int32)
        x_prime = np.zeros(b, dtype=np.int32)
        for rho_k in pattern:
            eps, eps_prime = _coupled_signs(rng.random(b, dtype=np.float32), rho_k)
            x += np.where(x >= 0, eps, -eps)
            x_prime += np.where(x_prime >= 0, eps_prime, -eps_prime)
        prod = np.where(x >= 0, 1.0, -1.0) * np.where(x_prime >= 0, 1.0, -1.0)
        moments.add(prod)
    return EstimateWithError.from_moments(moments, seed)


# -- argmin coincidence (the left-hand side of the main identity) -----------

def argmin_coincidence(region: TimeSet, rho: float, n_grid: int, n_samples: int,
                       seed: int) -> EstimateWithError:
    """P(the coupled Brownian pair attains its grid minima at the same index).

    Ties are resolved to the smallest index, counted, and reported in
    extra; a tie fraction above 0.1% flags the run.
    """
    if n_grid < 2:
        raise DomainError("need at least two grid steps")
    pattern = make_pattern(region, rho, n_grid)
    sqdt = math.sqrt(1.0 / n_grid)
    batch = max(1, _ARGMIN_ELEMENTS // n_grid)
    moments = RunningMoments()
    n_ties = 0
    for i, b in enumerate(batch_sizes(n_samples, batch)):
        rng = derive_rng(seed, _TAG_ARGMIN, i)
        db, db_prime = _coupled_normals(pattern, sqdt, rng, (b, n_grid))
        idx, ties = _argmin_with_start(np.cumsum(db, axis=1))
        idx_p, ties_p = _argmin_with_start(np.cumsum(db_prime, axis=1))
        n_ties += int(np.count_nonzero(ties | ties_p))
        moments.add((idx == idx_p).astype(np.float64))
    tie_fraction = n_ties / max(moments.count, 1)  # from_moments rejects < 2 samples
    extra = {"tie_fraction": tie_fraction, "tie_flag": tie_fraction > 1e-3}
    return EstimateWithError.from_moments(moments, seed, extra=extra)


def _argmin_with_start(cumsum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmin over the path (0, cs_1, ..., cs_n) without materializing the 0."""
    minval = cumsum.min(axis=1)
    inner = cumsum.argmin(axis=1) + 1
    idx = np.where(minval >= 0.0, 0, inner)
    floor = np.minimum(minval, 0.0)
    count = (cumsum == floor[:, None]).sum(axis=1) + (floor == 0.0)
    return idx, count > 1


# -- killed-path survival machinery -----------------------------------------

def exact_survival_probability(y: float | np.ndarray, horizon: float) -> float | np.ndarray:
    """P(BM from height y stays positive over a window of length horizon).

    Reflection principle: equals P(|N(0, horizon)| < y) = erf(y / sqrt(2 horizon)).
    """
    return erf(np.asarray(y) / math.sqrt(2.0 * horizon))


def entrance_mass(t: float) -> float:
    """Total mass of the excursion entrance measure at time t: t**-1/2."""
    return t**-0.5


def entrance_heights(t: float, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray | float:
    """Heights from the normalized entrance density (y/t) exp(-y^2/2t).

    Inverse transform of the Rayleigh(sqrt(t)) law: y = sqrt(-2t ln U)
    with U uniform on (0,1].
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"entrance time {t} outside (0,1)")
    u = 1.0 - rng.random(size)  # (0,1]: keeps the log finite
    return np.sqrt(-2.0 * t * np.log(u))


def _bridge_noncrossing(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """P(the Brownian bridge between grid values a, b stays positive)."""
    expo = np.minimum(-2.0 * a * b / dt, 0.0)
    return np.where((a > 0.0) & (b > 0.0), -np.expm1(expo), 0.0)


def _joint_survival(y: np.ndarray, pattern: np.ndarray, dt: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Per-sample probability that both coupled paths from height y stay positive.

    Each step contributes the conditional no-crossing probability given
    the grid values: exact for shared-increment steps (the pair is
    parallel, so both stay positive iff the lower envelope does),
    factorized across the pair on rho-steps.
    """
    sqdt = math.sqrt(dt)
    w = np.asarray(y, dtype=np.float64).copy()
    w_prime = w.copy()
    weight = np.ones_like(w)
    for rho_k in pattern:
        db, db_prime = _coupled_normals(rho_k, sqdt, rng, w.shape)
        w_new = w + db
        w_prime_new = w_prime + db_prime
        if rho_k == 1.0:
            q = _bridge_noncrossing(np.minimum(w, w_prime),
                                    np.minimum(w_new, w_prime_new), dt)
        else:
            q = _bridge_noncrossing(w, w_new, dt) * _bridge_noncrossing(
                w_prime, w_prime_new, dt)
        weight *= q
        w, w_prime = w_new, w_prime_new
    return weight


def m_lambda_functional(region_pairs, rho: float, t0: float, n_samples: int,
                        seed: int, n_steps: int = 1024) -> EstimateWithError:
    """Entrance-law mixture of the two-path survival correlation.

    Estimates the spectral-sample functional E[rho^(points in the region)]
    for the splitting measure restricted to [t0,1]: heights enter at t0
    with weight t0**-1/2, and both coupled paths must survive to 1.
    Requires the region to lie inside [t0,1]; by the restriction
    consistency of the entrance family the value does not depend on the
    choice of t0 (this is a test target, not an assumption used here).
    """
    pairs = region_pairs.as_pairs() if isinstance(region_pairs, TimeSet) else list(region_pairs)
    if pairs and min(lo for lo, _ in pairs) < t0:
        raise PreconditionError(f"region must be supported on [{t0}, 1]")
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"start time {t0} outside (0,1)")
    pattern = make_pattern(pairs, rho, n_steps, t_start=t0)
    dt = (1.0 - t0) / n_steps
    mass = entrance_mass(t0)
    moments = RunningMoments()
    for i, b in enumerate(batch_sizes(n_samples, _SURVIVAL_BATCH)):
        rng = derive_rng(seed, _TAG_MLAMBDA, i)
        y = entrance_heights(t0, rng, b)
        moments.add(mass * _joint_survival(y, pattern, dt, rng))
    return EstimateWithError.from_moments(moments, seed)
