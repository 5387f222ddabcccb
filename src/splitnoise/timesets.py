"""Interval algebra for perturbation regions.

A perturbation region is a finite union of closed subintervals of [0,1]
with dyadic rational endpoints, kept exact as fractions.Fraction.
Iterating a region yields its components as float (lo, hi) pairs, the
form every estimator reads; sets obtained by pulling a region back
through an affine map are plain lists of such pairs (they only
parameterize Monte Carlo correlation patterns).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError

# an integer, p/q or a decimal: no sign, exponent or digit separators
_ENDPOINT = re.compile(r"[0-9]+(/[0-9]+|\.[0-9]+)?")


def _endpoint(value) -> Fraction:
    """An exact dyadic endpoint in [0,1] from a Fraction, an int or text like "3/8"."""
    if isinstance(value, str):
        value = value.strip()
        if not _ENDPOINT.fullmatch(value):
            raise DomainError(f"bad endpoint {value!r}")
    try:
        frac = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"bad endpoint {value!r}") from None
    if frac.denominator & (frac.denominator - 1):
        raise DomainError(f"{frac} is not dyadic")
    if not 0 <= frac <= 1:
        raise DomainError(f"{frac} outside [0,1]")
    return frac


@dataclass(frozen=True)
class TimeSet:
    """Finite union of closed intervals in [0,1] with dyadic endpoints.

    Built from any iterable of (lo, hi) endpoint pairs (Fractions, ints or
    text); components are stored sorted and disjoint as Fraction pairs,
    touching components merged, so equality, text form and complement
    are canonical.  Every estimator reads the float image, so a region
    whose float endpoints lose a component or a gap (one shorter than
    the rounding, at 0 and 1 too) is a DomainError.  Instances are
    immutable and safe to share across estimator tasks.
    """

    components: tuple

    def __post_init__(self):
        comps = [(_endpoint(lo), _endpoint(hi)) for lo, hi in self.components]
        for lo, hi in comps:
            if not lo < hi:
                raise DomainError(f"empty or inverted component [{lo}, {hi}]")
        comps = _merge_intervals(comps)
        ends = [0, *(x for pair in comps for x in pair), 1]
        for a, b in zip(ends, ends[1:]):
            if a < b and not float(a) < float(b):
                raise DomainError(f"[{a}, {b}] vanishes in floating point")
        object.__setattr__(self, "components", tuple(comps))

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
        return cls(pairs)

    @classmethod
    def empty(cls) -> "TimeSet":
        return cls(())

    @classmethod
    def full(cls) -> "TimeSet":
        return cls(((0, 1),))

    def __iter__(self):
        """Components as float (lo, hi) pairs, in order."""
        return ((float(lo), float(hi)) for lo, hi in self.components)

    def __bool__(self) -> bool:
        return bool(self.components)

    def __str__(self) -> str:
        return ",".join(f"{lo}..{hi}" for lo, hi in self.components)

    def __repr__(self) -> str:
        return f"TimeSet({str(self)!r})"

    def is_full(self) -> bool:
        return self.components == ((0, 1),)

    def complement_components(self) -> list[tuple[float, float]]:
        """Open gaps of [0,1] \\ A as float pairs, in order, nonempty only."""
        gaps = []
        prev = 0.0
        for lo, hi in self:
            if lo > prev:
                gaps.append((prev, lo))
            prev = hi
        if prev < 1.0:
            gaps.append((prev, 1.0))
        return gaps


def _merge_intervals(pairs: Iterable[tuple]) -> list[tuple]:
    """Sort, drop empties, and merge overlapping/touching intervals.

    Endpoints are floats or Fractions (exact comparisons).
    """
    items = sorted((lo, hi) for lo, hi in pairs if hi > lo)
    merged: list[tuple] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def affine_preimage(region: Iterable[tuple[float, float]],
                    scale: float, shift: float) -> list[tuple[float, float]]:
    """Pull the region back through x -> scale*x + shift, clipped to [0,1].

    region is a TimeSet or a list of float (lo, hi) pairs.  Returns
    {x in [0,1] : scale*x + shift in region} as merged float intervals.
    Exact rational arithmetic is not kept and components that clip to a
    single point are dropped: the result only parameterizes Monte Carlo
    correlation patterns, where measure-zero sets are invisible.
    """
    if scale == 0.0:
        raise DomainError("affine map must have nonzero scale")
    out = []
    for lo, hi in region:
        a = (lo - shift) / scale
        b = (hi - shift) / scale
        if scale < 0:
            a, b = b, a
        a, b = max(a, 0.0) + 0.0, min(b, 1.0)  # +0.0 normalizes -0.0
        if b > a:
            out.append((a, b))
    return _merge_intervals(out)
