import numpy as np
import pytest
from fractions import Fraction

from splitnoise.errors import DomainError, PreconditionError
from splitnoise.timesets import (
    DyadicRational,
    TimeSet,
    affine_preimage,
    merge_intervals,
)


def test_dyadic_canonical_form():
    assert DyadicRational(2, 2) == DyadicRational(1, 1)
    assert DyadicRational(0, 5) == DyadicRational(0, 0)
    assert float(DyadicRational(3, 3)) == 0.375
    assert str(DyadicRational(3, 3)) == "3/8"
    assert str(DyadicRational(1, 0)) == "1"


def test_dyadic_parse_and_range():
    assert DyadicRational.parse("5/8").as_fraction() == Fraction(5, 8)
    with pytest.raises(DomainError):
        DyadicRational.parse("1/3")
    with pytest.raises(DomainError):
        DyadicRational(3, 1)  # 3/2 > 1


def test_timeset_parse_roundtrip():
    A = TimeSet.parse("1/4..1/2,5/8..3/4")
    assert str(A) == "1/4..1/2,5/8..3/4"
    assert TimeSet.parse("") == TimeSet.empty()
    assert TimeSet.parse("0..1").is_full()
    with pytest.raises(DomainError):
        TimeSet.parse("1/4-1/2")


def test_timeset_merges_touching_components():
    A = TimeSet.parse("1/4..1/2,1/2..3/4")
    assert A == TimeSet.parse("1/4..3/4")
    B = TimeSet.parse("5/8..3/4,1/4..1/2")
    assert str(B) == "1/4..1/2,5/8..3/4"


def test_contains_closed_endpoints():
    A = TimeSet.parse("1/4..1/2")
    assert A.contains(0.25)
    assert A.contains(0.5)
    assert not A.contains(0.6)
    assert not TimeSet.empty().contains(0.5)
    with pytest.raises(DomainError):
        A.contains(1.5)


def test_boundary_times_examples():
    A = TimeSet.parse("1/4..1/2")
    assert A.boundary_times(0.6) == (0.5, None)
    assert A.boundary_times(0.1) == (None, 0.25)
    B = TimeSet.parse("1/8..1/4,1/2..3/4")
    assert B.boundary_times(0.3) == (0.25, 0.5)
    with pytest.raises(PreconditionError):
        A.boundary_times(0.3)


def test_affine_preimage_examples():
    assert affine_preimage(TimeSet.parse("1/2..3/4"), 0.5, 0.5) == [(0.0, 0.5)]
    assert affine_preimage(TimeSet.parse("1/4..1/2"), 1.0, 0.0) == [(0.25, 0.5)]
    # x -> (1/2)(1-x), i.e. scale -1/2 shift 1/2
    assert affine_preimage(TimeSet.parse("1/4..1/2"), -0.5, 0.5) == [(0.0, 0.5)]
    with pytest.raises(DomainError):
        affine_preimage(TimeSet.parse("1/4..1/2"), 0.0, 0.5)


def test_affine_preimage_matches_membership_scan():
    # brute-force oracle: x is in the preimage iff scale*x+shift is in A
    A = TimeSet.parse("1/8..1/4,1/2..3/4")
    for scale, shift in [(-0.5, 0.5), (0.75, 0.25), (-0.6, 0.9), (2.0, -0.5)]:
        pre = affine_preimage(A, scale, shift)
        xs = np.linspace(0.0, 1.0, 20001)
        member = np.zeros(xs.size, dtype=bool)
        for lo, hi in pre:
            member |= (xs >= lo) & (xs <= hi)
        target = scale * xs + shift
        ok = (target >= 0) & (target <= 1)
        expect = np.zeros(xs.size, dtype=bool)
        expect[ok] = [A.contains(v) for v in target[ok]]
        # allow mismatch only within one grid cell of an interval edge or
        # of the [0,1] clip boundary (where point-degenerate components drop)
        edges = np.array([e for pair in pre for e in pair] + [0.0, 1.0])
        near_edge = np.zeros(xs.size, dtype=bool)
        for e in edges:
            near_edge |= np.abs(xs - e) <= 1e-4
        assert np.array_equal(member[~near_edge], expect[~near_edge])


def test_affine_preimage_roundtrip():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        k = rng.integers(1, 4)
        cuts = np.sort(rng.integers(0, 33, size=2 * k)) / 32.0
        pairs = [(DyadicRational(int(cuts[2 * i] * 32), 5), DyadicRational(int(cuts[2 * i + 1] * 32), 5))
                 for i in range(k) if cuts[2 * i] < cuts[2 * i + 1]]
        if not pairs:
            continue
        A = TimeSet(pairs)
        scale = float(rng.choice([0.5, 0.25, -0.5, -0.25]))
        shift = float(rng.integers(0, 5)) / 4.0
        pre = affine_preimage(A, scale, shift)
        # pull the preimage back through the inverse map: recovers A clipped
        # to the image of [0,1]
        back = affine_preimage(pre, 1.0 / scale, -shift / scale)
        lo_img, hi_img = sorted((shift, scale + shift))
        clipped = merge_intervals(
            (max(lo, lo_img, 0.0), min(hi, hi_img, 1.0)) for lo, hi in A.as_pairs()
        )
        assert len(back) == len(clipped)
        for (a1, b1), (a2, b2) in zip(back, clipped):
            assert a1 == pytest.approx(a2, abs=1e-12)
            assert b1 == pytest.approx(b2, abs=1e-12)


def test_partition_property_on_grid():
    # every grid point is in A or in a gap (relatively open in [0,1]),
    # never both; region endpoints belong to A
    A = TimeSet.parse("1/8..1/4,1/2..3/4")
    gaps = A.complement_components()
    edges = {e for pair in A.as_pairs() for e in pair}

    def in_gap(t):
        return any(
            (lo < t < hi) or (t == lo == 0.0) or (t == hi == 1.0)
            for lo, hi in gaps
        )

    for t in np.linspace(0, 1, 4001):
        in_a = A.contains(t)
        assert in_a ^ in_gap(t), (t, in_a)
        if float(t) in edges:
            assert in_a


def test_complement_tiles_unit_interval():
    A = TimeSet.parse("1/8..1/4,1/2..3/4")
    gaps = A.complement_components()
    assert gaps == [(0.0, 0.125), (0.25, 0.5), (0.75, 1.0)]
    total = A.measure() + sum(hi - lo for lo, hi in gaps)
    assert total == pytest.approx(1.0, abs=1e-15)
    assert TimeSet.empty().complement_components() == [(0.0, 1.0)]
    assert TimeSet.full().complement_components() == []


def test_timeset_immutable_and_hashable():
    A = TimeSet.parse("1/4..1/2")
    with pytest.raises(AttributeError):
        A.components = ()
    assert hash(A) == hash(TimeSet.parse("1/4..1/2"))
