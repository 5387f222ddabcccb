"""Seeded, reproducible Monte Carlo plumbing.

Stream derivation rule: every estimator owns a 64-bit master seed and
draws batch i from ``default_rng(SeedSequence([seed, *tag, i]))``, where
``tag`` is a fixed integer path identifying the estimator (and, where
needed, the sub-task such as a quadrature node).  Batch sizes are fixed
functions of the call parameters, so a run is a deterministic function
of (parameters, seed) regardless of how batches would be scheduled.
A randomized quasi-Monte Carlo point set (ScrambledHalton) follows the
same rule: batch i's uniform fills come from ``[seed, *tag, i]``, and
batch 0's generator first draws the set's digit permutations.  Each
sampled estimate is its estimator's closed form, with no running sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError

SAMPLE_CAP = 10**9  # samples per estimator call
QMC_REPLICATES = 16  # independent randomizations behind a quasi-Monte Carlo estimate

_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


def _sequence(seed: int, path) -> np.random.SeedSequence:
    if seed < 0:
        raise DomainError(f"seed {seed} is negative")
    return np.random.SeedSequence([int(seed), *map(int, path)])


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for the sub-stream identified by path."""
    return np.random.default_rng(_sequence(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """Child master seed for a sub-estimator, from the same derivation rule."""
    return int(_sequence(seed, path).generate_state(1, np.uint64)[0])


def _check_samples(n_samples: int):
    """A sample count lies in [2, SAMPLE_CAP]: one sample has no stderr."""
    if n_samples < 2:
        raise DomainError(f"need at least two samples, got {n_samples}")
    if n_samples > SAMPLE_CAP:
        raise ResourceLimitError(f"{n_samples} samples exceed the cap {SAMPLE_CAP}")


def batch_sizes(n_samples: int, batch: int) -> list[int]:
    """Deterministic split of n_samples (checked) into batches of at most `batch`."""
    _check_samples(n_samples)
    full, rem = divmod(int(n_samples), int(batch))
    return [batch] * full + ([rem] if rem else [])


def _primes(count: int) -> tuple[int, ...]:
    """The first count primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


class ScrambledHalton:
    """Randomized Halton points in (0,1)^dims: n_points in all, in independent replicates.

    The points are split into R = min(QMC_REPLICATES, n_points)
    replicates of floor(n/R) or ceil(n/R) points (sizes), each an
    independently scrambled Halton point set (Owen, "Scrambled net
    variance for integrals of smooth functions", Ann. Statist. 25,
    1997).  Coordinate j of point i of a replicate is the radical
    inverse of i in the j-th prime b, with each digit level scrambled:
    sum_k pi_k(a_k) b^-k + b^-m U, where a_1, a_2, ... are the base-b
    digits of i, m is the number of levels a replicate's indices use
    (at least 1), each pi_k is its own uniformly random permutation of
    {0..b-1}, drawn per replicate, coordinate and level, and U is a
    uniform fill in (0,1] below the last level.  Every point is then
    exactly uniform, so each replicate mean is unbiased, and the R
    replicate means are independent: their spread gives a stderr with
    R - 1 degrees of freedom.  A replicate of b^k points puts exactly
    one point in each base-b interval of length b^-k, in every
    coordinate.  Every coordinate lies strictly inside (0,1): the fill
    keeps it above 0, and a sum that rounds to 1 is set to the largest
    double below 1.

    A permutation is the stable sort order of b random keys: random_raw
    words drawn by replicate, coordinate, level and digit, with the top
    bits that would count every row and the low bits that would hold a
    digit cleared, which keeps the point stream of the earlier packed
    keys.  Two digits tie, and keep their order, only when their other
    bits (more than 40 below 10^4 coordinates) are all equal.
    """

    def __init__(self, n_points: int, dims: int, batch: int, seed: int, *tag: int):
        _check_samples(n_points)
        self.replicates = min(QMC_REPLICATES, n_points)
        self.sizes = np.full(self.replicates, n_points // self.replicates)
        self.sizes[: n_points % self.replicates] += 1
        self._dims, self._chunk = dims, max(1, batch // self.replicates)
        self._seed, self._tag = seed, tag

    def batches(self):
        """Yield (labels, points): points (dims, count) in (0,1), labels (count,) their replicates.

        Batch i holds the next batch // R indices of every replicate, so
        memory stays O(batch * dims) at any n_points.  Its fills come
        from derive_rng(seed, *tag, i); batch 0's generator first draws
        the permutations.
        """
        reps, size, smallest = self.replicates, int(self.sizes[0]), int(self.sizes[-1])
        bases = _primes(self._dims)
        levels = [next(m for m in itertools.count(1) if b**m >= size) for b in bases]
        rng = derive_rng(self._seed, *self._tag, 0)
        keys = rng.bit_generator.random_raw((reps, sum(m * b for b, m in zip(bases, levels))))
        top, low = (reps * sum(levels)).bit_length(), max(bases).bit_length()
        keys &= np.uint64(((1 << (64 - top)) - 1) & ~((1 << low) - 1))
        tables = []  # per coordinate (m, b, R): level k's digits times b^-(k+1)
        for b, m in zip(bases, levels):
            block, keys = keys[:, :m * b], keys[:, m * b:]
            digits = block.reshape(reps, m, b).argsort(axis=-1, kind="stable")
            # Python's float power: numpy's can be 1 ulp off
            scale = np.array([float(b) ** -(k + 1) for k in range(m)])[:, None]
            tables.append(np.ascontiguousarray((digits * scale).transpose(1, 2, 0)))
        for index, first in enumerate(range(0, size, self._chunk)):
            count = min(self._chunk, size - first)
            if index:
                rng = derive_rng(self._seed, *self._tag, index)
            points = rng.random((self._dims, count, reps))
            np.subtract(1.0, points, out=points)
            i = np.arange(first, first + count)
            for coordinate, b, table in zip(points, bases, tables):
                coordinate *= float(b) ** -len(table)
                for k, level in enumerate(table):
                    coordinate += level.take(i // b**k % b, axis=0)
            np.minimum(points, _BELOW_ONE, out=points)
            labels = np.arange(count * reps) % reps
            points = points.reshape(self._dims, -1)
            if first + count > smallest:  # the last index of the shorter replicates
                keep = (first + np.arange(count)[:, None] < self.sizes).ravel()
                labels, points = labels[keep], points[:, keep]
            yield labels, points


@dataclass(frozen=True)
class EstimateWithError:
    """A point estimate with its Monte Carlo standard error.

    For a plain Monte Carlo estimate, stderr is the sample standard
    deviation over the per-sample values divided by sqrt(n_samples).  A
    randomized quasi-Monte Carlo estimate (from_replicates) is the mean
    of R independent replicate means, and its stderr comes from their
    spread, with R - 1 degrees of freedom, not from per-sample values.
    Exact (non-sampled) results carry stderr 0 and n_samples 0.
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int | None = None
    extra: dict = field(default=None, compare=False)

    @classmethod
    def exact(cls, value: float) -> "EstimateWithError":
        return cls(mean=float(value), stderr=0.0, n_samples=0, seed=None)

    @classmethod
    def from_replicates(cls, means: np.ndarray, n_samples: int, seed: int | None,
                        extra: dict | None = None) -> "EstimateWithError":
        """The mean of independent replicate means, with the stderr of their spread."""
        means = np.asarray(means, dtype=np.float64)
        if means.size < 2:
            raise DomainError(f"need at least two replicates, got {means.size}")
        return cls(mean=float(means.mean()),
                   stderr=float(means.std(ddof=1)) / math.sqrt(means.size),
                   n_samples=n_samples, seed=seed, extra=extra)

    def as_dict(self) -> dict:
        out = {
            "estimate": self.mean,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        if self.extra:
            out.update(self.extra)
        return out


def welch_dof(terms) -> float | None:
    """Welch-Satterthwaite degrees of freedom of a sum of independent variance terms.

    terms are (variance, dof) pairs; a dof of None is infinite.  The
    result is (sum v)^2 / sum(v^2 / dof) (Welch, Biometrika 34, 1947;
    Satterthwaite, Biometrics Bull. 2, 1946), or None when that
    denominator is 0.
    """
    terms = [(v, dof) for v, dof in terms if v > 0.0]
    denominator = sum(v * v / dof for v, dof in terms if dof is not None)
    return sum(v for v, _ in terms) ** 2 / denominator if denominator else None


def product_estimate(a: EstimateWithError, b: EstimateWithError) -> tuple[float, float]:
    """Mean and variance of the product of two independent estimates."""
    mean = a.mean * b.mean
    var = (a.stderr * b.mean) ** 2 + (b.stderr * a.mean) ** 2 + (a.stderr * b.stderr) ** 2
    return mean, var
