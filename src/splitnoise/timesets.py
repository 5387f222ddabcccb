"""Interval algebra for perturbation regions.

A perturbation region is a finite union of closed subintervals of [0,1]
with dyadic rational endpoints.  Endpoints are kept exact; sets obtained
by pulling a region back through an affine map are held as plain float
intervals (they only parameterize Monte Carlo correlation patterns).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, PreconditionError


@dataclass(frozen=True)
class DyadicRational:
    """Exact dyadic rational numerator / 2**log2_denominator in [0,1].

    Canonical form: numerator odd or zero, log2_denominator minimal.
    """

    numerator: int
    log2_denominator: int = 0

    def __post_init__(self):
        num, k = int(self.numerator), int(self.log2_denominator)
        if k < 0:
            raise DomainError(f"negative log2 denominator: {k}")
        while num != 0 and num % 2 == 0 and k > 0:
            num //= 2
            k -= 1
        if num == 0:
            k = 0
        if num < 0 or num > (1 << k):
            raise DomainError(f"dyadic value {num}/2^{k} outside [0,1]")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "log2_denominator", k)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "DyadicRational":
        den = frac.denominator
        k = den.bit_length() - 1
        if den != (1 << k):
            raise DomainError(f"{frac} is not dyadic")
        return cls(frac.numerator, k)

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        """Parse "3/8", "0", "1"; denominator must be a power of two."""
        return cls.from_fraction(Fraction(text.strip()))

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.log2_denominator)

    def __float__(self) -> float:
        return self.numerator / (1 << self.log2_denominator)

    def __str__(self) -> str:
        if self.log2_denominator == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.log2_denominator}"

    # exact comparisons through Fraction, not field tuples
    def __lt__(self, other: "DyadicRational") -> bool:
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other: "DyadicRational") -> bool:
        return self.as_fraction() <= other.as_fraction()

    def __gt__(self, other: "DyadicRational") -> bool:
        return self.as_fraction() > other.as_fraction()

    def __ge__(self, other: "DyadicRational") -> bool:
        return self.as_fraction() >= other.as_fraction()


class TimeSet:
    """Finite union of closed intervals in [0,1] with dyadic endpoints.

    Components are stored sorted and disjoint; touching components are
    merged at construction, so equality and complement are canonical.
    Instances are immutable and safe to share across estimator tasks.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[tuple[DyadicRational, DyadicRational]]):
        comps = list(components)
        for lo, hi in comps:
            if not lo < hi:
                raise DomainError(f"empty or inverted component [{lo}, {hi}]")
        object.__setattr__(self, "components", tuple(merge_intervals(comps)))

    def __setattr__(self, name, value):
        raise AttributeError("TimeSet is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "TimeSet":
        return cls(
            (DyadicRational.parse(lo), DyadicRational.parse(hi)) for lo, hi in pairs
        )

    @classmethod
    def parse(cls, text: str) -> "TimeSet":
        """Parse the "lo..hi,lo..hi" text form, e.g. "1/4..1/2,5/8..3/4".

        The empty string denotes the empty set; "0..1" the full interval.
        """
        text = text.strip()
        if not text:
            return cls(())
        pairs = []
        for part in text.split(","):
            try:
                lo, hi = part.split("..")
            except ValueError:
                raise DomainError(f"bad interval syntax: {part!r}") from None
            pairs.append((lo, hi))
        return cls.from_pairs(pairs)

    @classmethod
    def empty(cls) -> "TimeSet":
        return cls(())

    @classmethod
    def full(cls) -> "TimeSet":
        return cls(((DyadicRational(0), DyadicRational(1)),))

    # -- basic queries ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, TimeSet) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __bool__(self) -> bool:
        return bool(self.components)

    def __str__(self) -> str:
        return ",".join(f"{lo}..{hi}" for lo, hi in self.components)

    def __repr__(self) -> str:
        return f"TimeSet({str(self)!r})"

    def as_pairs(self) -> list[tuple[float, float]]:
        """Components as float pairs."""
        return [(float(lo), float(hi)) for lo, hi in self.components]

    def measure(self) -> float:
        return float(sum((hi.as_fraction() - lo.as_fraction()) for lo, hi in self.components))

    def is_full(self) -> bool:
        return self.as_pairs() == [(0.0, 1.0)]

    def contains(self, t: float) -> bool:
        """Closed membership: true iff t lies in some component (endpoints in)."""
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"time {t} outside [0,1]")
        return any(float(lo) <= t <= float(hi) for lo, hi in self.components)

    def complement_components(self) -> list[tuple[float, float]]:
        """Open gaps of [0,1] \\ A as float pairs, in order, nonempty only."""
        gaps = []
        prev = 0.0
        for lo, hi in self.as_pairs():
            if lo > prev:
                gaps.append((prev, lo))
            prev = hi
        if prev < 1.0:
            gaps.append((prev, 1.0))
        return gaps

    def boundary_times(self, t: float) -> tuple[float | None, float | None]:
        """For t outside the interior of A, the nearest A-times on each side.

        Returns (u, v) with u = sup{h < t : h in A} (None if A has no point
        before t) and v = inf{h > t : h in A} (None if none after).
        """
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"time {t} outside [0,1]")
        for lo, hi in self.as_pairs():
            if lo < t < hi:
                raise PreconditionError(f"t={t} lies in the interior of {self}")
        u = None
        v = None
        for lo, hi in self.as_pairs():
            if hi <= t:
                u = hi
            elif lo >= t and v is None:
                v = lo
        return u, v


def merge_intervals(pairs: Iterable[tuple]) -> list[tuple]:
    """Sort, drop empties, and merge overlapping/touching intervals.

    Endpoints are floats or DyadicRationals (exact comparisons).
    """
    items = sorted((lo, hi) for lo, hi in pairs if hi > lo)
    merged: list[tuple] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def affine_preimage(region: TimeSet | Sequence[tuple[float, float]],
                    scale: float, shift: float) -> list[tuple[float, float]]:
    """Pull the region back through x -> scale*x + shift, clipped to [0,1].

    Returns {x in [0,1] : scale*x + shift in region} as merged float
    intervals.  Exact rational arithmetic is not kept and components
    that clip to a single point are dropped: the result only
    parameterizes Monte Carlo correlation patterns, where measure-zero
    sets are invisible.
    """
    if scale == 0.0:
        raise DomainError("affine map must have nonzero scale")
    pairs = region.as_pairs() if isinstance(region, TimeSet) else list(region)
    out = []
    for lo, hi in pairs:
        a = (lo - shift) / scale
        b = (hi - shift) / scale
        if scale < 0:
            a, b = b, a
        a, b = max(a, 0.0) + 0.0, min(b, 1.0)  # +0.0 normalizes -0.0
        if b > a:
            out.append((a, b))
    return merge_intervals(out)
