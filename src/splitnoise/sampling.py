"""Seeded, reproducible Monte Carlo plumbing.

Stream derivation rule: every estimator owns a 64-bit master seed and
draws batch i from ``default_rng(SeedSequence([seed, *tag, i]))``, where
``tag`` is a fixed integer path identifying the estimator (and, where
needed, the sub-task such as a quadrature node).  Batch sizes are fixed
functions of the call parameters, so a run is a deterministic function
of (parameters, seed) regardless of how batches would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError

SAMPLE_CAP = 10**9  # samples per estimator call


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

    stderr is the sample standard deviation over the per-sample values
    divided by sqrt(n_samples); exact (non-sampled) results carry
    stderr 0 and n_samples 0.
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
