"""Seeded, reproducible Monte Carlo plumbing.

Stream derivation rule: every estimator owns a 64-bit master seed and
draws batch i from ``default_rng(SeedSequence([seed, *tag, i]))``, where
``tag`` is a fixed integer path identifying the estimator (and, where
needed, the sub-task such as a quadrature node).  Batch sizes are fixed
functions of the call parameters, so a run is a deterministic function
of (parameters, seed) regardless of how batches would be scheduled.
A randomized quasi-Monte Carlo point set (ScrambledHalton) follows the
same rule: batch i's uniform fills come from ``[seed, *tag, i]``, and
batch 0's generator first draws the set's digit permutations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError

SAMPLE_CAP = 10**9  # samples per estimator call
QMC_REPLICATES = 16  # independent randomizations behind a quasi-Monte Carlo estimate

# table reads per generation block (replicates x digit levels x points):
# bounds the generator's temporaries at any point count
_GATHER_BLOCK = 1 << 16
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


@functools.cache
def _primes(count: int) -> tuple[int, ...]:
    """The first count primes."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


@functools.lru_cache(maxsize=64)
def _halton_layout(dims: int, size: int, replicates: int):
    """The digit levels of the first dims primes for indices below size, and their tables.

    Coordinate j (prime b) has m_j >= 1 digit levels, with b^m_j >=
    size; a larger prime needs no more levels, so level k is used by
    coordinates 0..used[k]-1.  Each level has a table row of b entries
    per replicate, one replicate after another, rows by coordinate,
    then level.  Returns used and:

    - rows (3, levels, 1): each level's row start, b^k and b, ordered
      level-major (the rows from used[0] + ... + used[k-1] on are level
      k's);
    - keys: per table entry, its row in the top bits and its digit in
      the low bits, with the bits of mask between them free for a
      random sort key (digits = the low-bit mask);
    - weight: per table entry, b^-(k+1) of its level;
    - fills (dims, 1, 1): each coordinate's b^-m_j.
    """
    bases = _primes(dims)
    levels = [next(m for m in itertools.count(1) if b**m >= size) for b in bases]
    row_bases = [b for b, m in zip(bases, levels) for _ in range(m)]
    starts = itertools.accumulate(row_bases, initial=0)
    rows = [[(next(starts), b**k, b) for k in range(m)] for b, m in zip(bases, levels)]
    used = tuple(sum(m > k for m in levels) for k in range(levels[0]))
    level_major = np.array([rows[j][k] for k in range(levels[0]) for j in range(used[k])])
    n_rows = replicates * len(row_bases)
    row_bits, digit_bits = n_rows.bit_length(), max(bases).bit_length()
    row = np.repeat(np.arange(n_rows, dtype=np.uint64), np.tile(row_bases, replicates))
    digit = np.concatenate([np.arange(b, dtype=np.uint64) for b in row_bases] * replicates)
    keys = (row << np.uint64(64 - row_bits)) | digit
    weight = np.concatenate([np.full(b, float(b) ** -(k + 1))
                             for b, m in zip(bases, levels) for k in range(m)] * replicates)
    fills = np.array([float(b) ** -m for b, m in zip(bases, levels)])[:, None, None]
    tables = (level_major.T[:, :, None], keys, weight, fills)
    for array in tables:
        array.flags.writeable = False  # shared by every call
    digits = np.uint64((1 << digit_bits) - 1)
    mask = np.uint64((1 << (64 - row_bits)) - 1) & ~digits
    return used, tables, mask, digits


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

    A permutation is the order of its row's entries sorted by random
    keys: one sort of every row at once, each entry's row in the top
    bits of its key and its digit in the low bits.  Two entries of a
    row tie, and keep their digits' order, only when their random bits
    (more than 40 below 10^4 coordinates) are all equal.
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
        used, (rows, keys, weight, fills), mask, digits = _halton_layout(self._dims, size, reps)
        rng = derive_rng(self._seed, *self._tag, 0)
        order = rng.bit_generator.random_raw(keys.size)
        order &= mask
        order |= keys
        order.sort()
        order &= digits
        table = np.ascontiguousarray((order * weight).reshape(reps, -1).T)  # (entries, R)
        start, power, base = rows
        block = max(1, _GATHER_BLOCK // (reps * len(start)))
        for index, first in enumerate(range(0, size, self._chunk)):
            count = min(self._chunk, size - first)
            if index:
                rng = derive_rng(self._seed, *self._tag, index)
            points = rng.random((self._dims, count, reps))
            np.subtract(1.0, points, out=points)
            points *= fills
            for lo in range(0, count, block):
                i = np.arange(first + lo, first + min(count, lo + block))
                scrambled = table[start + i // power % base]  # (levels, indices, R)
                row = 0
                for n in used:
                    points[:n, lo:lo + i.size] += scrambled[row:row + n]
                    row += n
            np.minimum(points, _BELOW_ONE, out=points)
            labels = np.arange(count * reps) % reps
            points = points.reshape(self._dims, -1)
            if first + count > smallest:  # the last index of the shorter replicates
                keep = (first + np.arange(count)[:, None] < self.sizes).ravel()
                labels, points = labels[keep], points[:, keep]
            yield labels, points


@dataclass
class RunningMoments:
    """Streaming mean/variance with order-fixed pairwise combination."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).ravel()
        b = values.size
        if b == 0:
            return
        bmean = float(values.mean())
        bm2 = float(((values - bmean) ** 2).sum())
        total = self.count + b
        delta = bmean - self.mean
        self.mean += delta * b / total
        self.m2 += bm2 + delta * delta * self.count * b / total
        self.count = total


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
    def from_moments(cls, moments: RunningMoments, seed: int | None,
                     extra: dict | None = None) -> "EstimateWithError":
        """The sampled estimate; fewer than two samples would give no stderr."""
        if moments.count < 2:
            raise DomainError(f"need at least two samples, got {moments.count}")
        stderr = math.sqrt(moments.m2 / (moments.count - 1)) / math.sqrt(moments.count)
        return cls(mean=moments.mean, stderr=stderr, n_samples=moments.count,
                   seed=seed, extra=extra)

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


def product_estimate(a: EstimateWithError, b: EstimateWithError) -> tuple[float, float]:
    """Mean and variance of the product of two independent estimates."""
    mean = a.mean * b.mean
    var = (a.stderr * b.mean) ** 2 + (b.stderr * a.mean) ** 2 + (a.stderr * b.stderr) ** 2
    return mean, var
