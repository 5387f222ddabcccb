import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from splitnoise.errors import DomainError
from splitnoise.timesets import TimeSet, _merge_intervals, affine_preimage


def _contains(region, t):
    """Closed membership oracle: t lies in some component, endpoints included."""
    return any(lo <= t <= hi for lo, hi in region)


def test_dyadic_canonical_form():
    A = TimeSet.parse("2/4..3/4")
    assert str(A) == "1/2..3/4"
    assert A.components == ((Fraction(1, 2), Fraction(3, 4)),)
    assert str(TimeSet.parse("0/8..8/8")) == "0..1"
    assert list(TimeSet.parse("3/8..1")) == [(0.375, 1.0)]


def test_dyadic_parse_and_range():
    # not dyadic, outside [0,1], not a number, zero denominator, signed,
    # exponent form, three endpoints
    for text in ["1/3..1/2", "0..3/2", "x..1/2", "1/0..1/2", "-1/4..1/2",
                 "1e-3..1/2", "1/4..1/2..3/4"]:
        with pytest.raises(DomainError):
            TimeSet.parse(text)
    with pytest.raises(DomainError):
        TimeSet([(Fraction(1, 3), Fraction(1, 2))])


def test_timeset_rejects_what_vanishes_in_float():
    # every estimator reads float endpoints: a gap or a component shorter
    # than the rounding, inside or at 0 and 1, would drop out of the walk
    tiny = Fraction(1, 2**60)
    for pairs in [[(0, 1 - tiny)], [(0, Fraction(1, 2)), (Fraction(1, 2) + tiny, 1)],
                  [(Fraction(1, 4), Fraction(1, 4) + tiny)], [(Fraction(1, 2**1100), 1)]]:
        with pytest.raises(DomainError, match="vanishes in floating point"):
            TimeSet(pairs)
    # a gap of one float spacing survives
    B = TimeSet([(0, Fraction(1, 2)), (Fraction(1, 2) + Fraction(1, 2**53), 1)])
    assert len(B.complement_components()) == 1


def test_timeset_parse_roundtrip():
    A = TimeSet.parse("1/4..1/2,5/8..3/4")
    assert str(A) == "1/4..1/2,5/8..3/4"
    assert TimeSet.parse("") == TimeSet.empty()
    assert TimeSet.parse("0..1").is_full()
    assert TimeSet.parse(" 1/4 .. 0.5 ") == TimeSet.parse("1/4..1/2")
    with pytest.raises(DomainError):
        TimeSet.parse("1/4-1/2")


def test_timeset_merges_touching_components():
    A = TimeSet.parse("1/4..1/2,1/2..3/4")
    assert A == TimeSet.parse("1/4..3/4")
    B = TimeSet.parse("5/8..3/4,1/4..1/2")
    assert str(B) == "1/4..1/2,5/8..3/4"


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
        expect[ok] = [_contains(A, v) for v in target[ok]]
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
        pairs = [(Fraction(int(cuts[2 * i] * 32), 32), Fraction(int(cuts[2 * i + 1] * 32), 32))
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
        clipped = _merge_intervals(
            (max(lo, lo_img, 0.0), min(hi, hi_img, 1.0)) for lo, hi in A
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
    edges = {e for pair in A for e in pair}

    def in_gap(t):
        return any(
            (lo < t < hi) or (t == lo == 0.0) or (t == hi == 1.0)
            for lo, hi in gaps
        )

    for t in np.linspace(0, 1, 4001):
        in_a = _contains(A, t)
        assert in_a ^ in_gap(t), (t, in_a)
        if float(t) in edges:
            assert in_a


def test_complement_tiles_unit_interval():
    A = TimeSet.parse("1/8..1/4,1/2..3/4")
    gaps = A.complement_components()
    assert gaps == [(0.0, 0.125), (0.25, 0.5), (0.75, 1.0)]
    total = sum(hi - lo for lo, hi in list(A) + gaps)
    assert total == pytest.approx(1.0, abs=1e-15)
    assert TimeSet.empty().complement_components() == [(0.0, 1.0)]
    assert TimeSet.full().complement_components() == []


def test_timeset_immutable_and_hashable():
    A = TimeSet.parse("1/4..1/2")
    with pytest.raises(AttributeError):
        A.components = ()
    assert hash(A) == hash(TimeSet.parse("1/4..1/2"))


_DYADIC = st.integers(0, 10).flatmap(
    lambda k: st.builds(Fraction, st.integers(0, 1 << k), st.just(1 << k)))
_INTERVALS = st.lists(
    st.tuples(_DYADIC, _DYADIC).filter(lambda p: p[0] != p[1]).map(sorted), max_size=6)


@given(_INTERVALS)
def test_timeset_text_form_is_canonical(pairs):
    A = TimeSet(pairs)
    text = str(A)
    assert TimeSet.parse(text) == A
    comps = [tuple(map(Fraction, part.split(".."))) for part in text.split(",") if part]
    assert comps == list(A.components)
    # sorted, disjoint and not touching: merged
    assert all(lo < hi for lo, hi in comps)
    assert all(a[1] < b[0] for a, b in zip(comps, comps[1:]))
    # the same point set: endpoints have denominators up to 2^10, so the
    # grid of step 2^-11 holds every endpoint and a point inside every piece
    grid = [Fraction(i, 1 << 11) for i in range((1 << 11) + 1)]
    assert ([_contains(pairs, t) for t in grid]
            == [_contains(A.components, t) for t in grid])
    assert list(A) == [(float(lo), float(hi)) for lo, hi in A.components]


@given(st.one_of(st.text(), st.text(alphabet="0123456789/.,-+ e_")))
def test_timeset_parse_rejects_only_by_domain_error(text):
    try:
        TimeSet.parse(text)
    except DomainError:
        pass
