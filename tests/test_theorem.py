import math

import numpy as np
import pytest

from splitnoise.coupled import argmin_coincidence
from splitnoise.errors import DomainError, PreconditionError
from splitnoise import theorem
from splitnoise.sampling import EstimateWithError, derive_rng, derive_seed
from splitnoise.theorem import (
    _arcsine_nodes,
    _rhs_factors,
    rhs_integral,
    sensitivity_curve,
    verify_theorem,
)
from splitnoise.timesets import TimeSet, affine_preimage

EMPTY = TimeSet.empty()
FULL = TimeSet.full()
QUARTER_HALF = TimeSet.parse("1/4..1/2")


def test_arcsine_substitution_is_exact():
    # theta(t) is 0, 1/2 and 1 at t = 0, 1/2 and 1: one node's weight is
    # the arc-sine measure of its interval, and its time the midpoint's
    times, weight = _arcsine_nodes(0.0, 1.0, 1)
    assert weight == pytest.approx(1.0, abs=1e-15)
    assert times[0] == pytest.approx(0.5, abs=1e-15)
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        assert _arcsine_nodes(a, b, 1)[1] == pytest.approx(0.5, abs=1e-15)


def test_arcsine_nodes_weights():
    times, weight = _arcsine_nodes(0.0, 1.0, 64)
    assert len(times) * weight == pytest.approx(1.0, abs=1e-12)
    half, weight = _arcsine_nodes(0.0, 0.5, 64)
    assert len(half) * weight == pytest.approx(0.5, abs=1e-12)
    assert all(0.0 < t < 0.5 for t in half)


def test_arcsine_nodes_lie_strictly_inside_a_narrow_gap():
    # sin^2 rounds some nodes of a 2^-50 gap onto its ends; they are
    # clamped to the 7 floats strictly inside
    a, b = 0.5, 0.5 + 2.0**-50
    for n_nodes in (1, 8, 64):
        times, _ = _arcsine_nodes(a, b, n_nodes)
        assert all(a < t < b for t in times)


def theta(t):
    return 2.0 / math.pi * math.asin(math.sqrt(t))


_INTERIOR = [((0.25, 0.5), (True, True)), ((0.0, 0.25), (False, True)),
             ((0.5, 1.0), (True, False))]


@pytest.mark.parametrize("gap, interior", _INTERIOR, ids=["both", "upper", "lower"])
@pytest.mark.parametrize("beta", [0.084, 0.170, 0.337])
def test_graded_nodes_are_second_order_on_a_cusp(gap, interior, beta):
    # a factor vanishes like delta^beta at an interior end (beta 0.084 at
    # rho 0.9, 0.170 at 0.7, 0.337 at 0.3); in theta its integral is a Beta
    # function, and the graded rule's error falls by 4 per doubling
    ta, tb = theta(gap[0]), theta(gap[1])
    lower, upper = (beta if end else 0.0 for end in interior)
    exact = (tb - ta) ** (1.0 + lower + upper) * math.gamma(1 + lower) * math.gamma(1 + upper) \
        / math.gamma(2 + lower + upper)
    errors = []
    for n_nodes in (8, 16, 32, 64):
        times, weight = _arcsine_nodes(*gap, n_nodes, interior)
        th = np.array([theta(t) for t in times])
        errors.append(abs(np.sum(weight * (th - ta) ** lower * (tb - th) ** upper) - exact))
    assert all(coarse >= 3.5 * fine for coarse, fine in zip(errors, errors[1:]))


@pytest.mark.parametrize("gap, interior", _INTERIOR, ids=["both", "upper", "lower"])
def test_graded_node_weights_total_the_arcsine_measure(gap, interior):
    # the midpoint rule integrates g' = 2u or 2(1 - u) exactly, and
    # 6u(1 - u) with error 1/(2 n^2)
    for n_nodes in (1, 8, 24):
        times, weight = _arcsine_nodes(*gap, n_nodes, interior)
        excess = 1.0 + 0.5 / n_nodes**2 if all(interior) else 1.0
        assert weight.shape == (n_nodes,) and np.all(weight > 0.0)
        assert weight.sum() == pytest.approx((theta(gap[1]) - theta(gap[0])) * excess, rel=1e-12)
        assert all(gap[0] < t < gap[1] for t in times) and times == sorted(times)


def test_rhs_rejects_a_gap_with_no_float_inside_before_any_draw(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a factor was drawn before the gap was checked")

    monkeypatch.setattr(theorem, "m_lambda_functional", forbidden)
    region = TimeSet.parse("1/4..1/2,4503599627370497/9007199254740992..3/4")
    with pytest.raises(DomainError, match=r"the gap \(0.5, 0.5000000000000001\)"):
        rhs_integral(region, 0.5, 2, 100, seed=1)


def test_arcsine_mean_against_argmin_simulation():
    # quadrature of f(t)=t gives the arc-sine mean 1/2; cross-check with
    # the argmin time of a simulated Brownian path
    times, weight = _arcsine_nodes(0.0, 1.0, 256)
    quad = sum(weight * t for t in times)
    assert quad == pytest.approx(0.5, abs=1e-6)

    rng = derive_rng(100, 0)
    n_grid, n_samples = 2048, 20_000
    db = rng.standard_normal((n_samples, n_grid)) / math.sqrt(n_grid)
    cs = np.cumsum(db, axis=1)
    inner = cs.argmin(axis=1) + 1
    idx = np.where(cs.min(axis=1) >= 0, 0, inner)
    g = idx / n_grid
    se = g.std() / math.sqrt(n_samples)
    assert abs(g.mean() - quad) < 4 * se


def test_rhs_factors_empty_sides():
    left, right = _rhs_factors(0.6, QUARTER_HALF, 0.5, 100, seed=1)
    assert right == EstimateWithError.exact(1.0)
    assert left.n_samples == 100

    left, right = _rhs_factors(0.1, QUARTER_HALF, 0.5, 100, seed=1)
    assert left == EstimateWithError.exact(1.0)
    assert right.n_samples == 100

    with pytest.raises(PreconditionError):
        _rhs_factors(0.3, QUARTER_HALF, 0.5, 100, seed=1)


def test_rhs_factors_at_boundary_times():
    # a side is sampled exactly when the region has points on that side of
    # t: before the region, between components and after it; at 0 and 1 a
    # side's map degenerates, and no node lies there
    B = TimeSet.parse("1/8..1/4,1/2..3/4")
    for t in (0.0, 1.0):
        with pytest.raises(DomainError, match=f"t={t}"):
            _rhs_factors(t, B, 0.5, 100, seed=1)
    for t, sampled in [(0.05, (False, True)), (0.3, (True, True)), (0.9, (True, False))]:
        factors = _rhs_factors(t, B, 0.5, 100, seed=1)
        for est, side_sampled in zip(factors, sampled):
            if side_sampled:
                assert est.n_samples == 100, t
            else:
                assert est == EstimateWithError.exact(1.0), t
    with pytest.raises(PreconditionError):
        _rhs_factors(0.6, B, 0.5, 100, seed=1)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_rhs_factors_at_region_endpoints(t):
    # a touching side's pull-back starts at 0, where no entrance law starts
    with pytest.raises(PreconditionError, match=rf"t={t} is an endpoint of 1/4\.\.1/2"):
        _rhs_factors(t, QUARTER_HALF, 0.5, 100, seed=1)


def test_rhs_factor_pullback_set():
    # at t=1/4 the region [1/2,3/4] seen from the right is [1/3,2/3]
    pulled = affine_preimage(TimeSet.parse("1/2..3/4"), 1.0 - 0.25, 0.25)
    assert pulled[0][0] == pytest.approx(1 / 3)
    assert pulled[0][1] == pytest.approx(2 / 3)


def test_rhs_factors_at_rho_one_are_mass_conservation():
    # all correlations 1: both factors reduce to the entrance mass, i.e. 1
    left, right = _rhs_factors(0.6, QUARTER_HALF, 1.0, 20_000, seed=2)
    assert right.mean == 1.0
    assert abs(left.mean - 1.0) < 4 * left.stderr


def test_rhs_integral_edge_cases():
    assert rhs_integral(EMPTY, 0.5, 8, 100, seed=3) == EstimateWithError.exact(1.0)
    assert rhs_integral(FULL, 0.5, 8, 100, seed=3) == EstimateWithError.exact(0.0)
    # the node count is checked here, once, for every gap
    with pytest.raises(DomainError):
        rhs_integral(QUARTER_HALF, 0.5, 0, 100, seed=3)


def test_rhs_integral_frozen_regression_value():
    # pinned by the first cross-validated high-precision run (48 nodes x
    # 50k samples, 1536 steps): rhs = 0.62703 +- 0.00075 for this pair,
    # in agreement with the direct route at 2^13/2^14 grids
    est = rhs_integral(QUARTER_HALF, 0.5, 16, 10_000, seed=12)
    assert est.mean == pytest.approx(0.62703, abs=4 * est.stderr + 2e-3)
    assert 0.0 < est.mean < 1.0


def test_rhs_integral_monotone_in_region():
    small = rhs_integral(QUARTER_HALF, 0.5, 8, 4000, seed=4)
    large = rhs_integral(TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, 8, 4000,
                         seed=5)
    tol = 4 * math.hypot(small.stderr, large.stderr)
    assert small.mean >= large.mean - tol
    rows = small.extra["nodes"]
    assert {r["component"] for r in rows} == {0, 1}
    assert all(0 < r["t"] < 1 for r in rows)


def test_verify_theorem_empty_region():
    report = verify_theorem(EMPTY, 0.7, seed=6, lhs_n_grid=128, lhs_samples=500,
                            n_nodes=4, node_samples=100)
    assert report.lhs.mean == 1.0
    assert report.rhs.mean == 1.0
    assert report.passed
    assert report.combined_stderr == 0.0


def test_verify_theorem_full_region_rhs_zero():
    report = verify_theorem(FULL, 0.5, seed=7, lhs_n_grid=1 << 12,
                            lhs_samples=4000, n_nodes=4, node_samples=100)
    assert report.rhs.mean == 0.0
    assert report.lhs.mean < 0.05  # grid coincidences vanish with refinement


def test_direct_route_with_no_outer_gap_matches_rhs():
    # A touches both 0 and 1: no gap before A and no closed-form tail,
    # so the only shared label is the middle gap's
    region = TimeSet.parse("0..1/4,3/4..1")
    lhs = argmin_coincidence(region, 0.5, 2048, 20_000, seed=13)
    rhs = rhs_integral(region, 0.5, 16, 10_000, seed=14)
    assert abs(lhs.mean - rhs.mean) < 4 * math.hypot(lhs.stderr, rhs.stderr)
    assert lhs.extra["tie_fraction"] == 0.0


def test_verify_theorem_small_case_passes():
    report = verify_theorem(QUARTER_HALF, 0.5, seed=8, lhs_n_grid=1 << 10,
                            lhs_samples=5000, n_nodes=8, node_samples=5000)
    assert report.passed
    assert abs(report.discrepancy) <= 4 * report.combined_stderr
    d = report.as_dict()
    assert d["pass"] and "nodes" not in d["rhs"]


def test_grid_stability_check_is_not_vacuous_on_a_region_reaching_one():
    # on a region that touches 0 and reaches 1 each grid scores 0 or 1,
    # and at 100 samples no sample tells the two grids apart: the paired
    # sample stderr is 0, and the direct route reports 1/100 in its place
    region = TimeSet.parse("0..1/2,129/256..1")
    raw = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             refine=True).extra["grid_bias"]
    assert (raw.mean, raw.stderr) == (0.0, 0.01)
    report = verify_theorem(region, 0.5, seed=1, lhs_n_grid=4096, lhs_samples=100,
                            n_nodes=2, node_samples=100, check_stability=True)
    assert (report.grid_bias.mean, report.grid_bias.stderr) == (0.0, 0.01)
    assert report.stability_ok
    assert report.as_dict()["grid_bias"] == {"estimate": 0.0, "stderr": 0.01}
    # on 1/2..1 the first gap is integrated out, so samples are not 0 or
    # 1 and the paired stderr is a real sample stderr, not the floor
    region = TimeSet.parse("1/2..1")
    raw = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             refine=True).extra["grid_bias"]
    assert 0.0 < raw.stderr < 0.01
    # one step on A against two, at rho 0.9: the bias (about 0.02) fails
    # it, on the sample stderr
    report = verify_theorem(region, 0.9, seed=1, lhs_n_grid=2, lhs_samples=20_000,
                            n_nodes=2, node_samples=100, check_stability=True)
    raw = argmin_coincidence(region, 0.9, 2, 20_000, derive_seed(1, theorem._TAG_LHS),
                             refine=True).extra["grid_bias"]
    assert (report.grid_bias.mean, report.grid_bias.stderr) == (raw.mean, raw.stderr)
    assert report.grid_bias.mean > 4 * report.grid_bias.stderr > 0.0
    assert not report.stability_ok and not report.passed


def test_verdict_reports_z_score_and_variance_share():
    report = verify_theorem(QUARTER_HALF, 0.5, seed=8, lhs_n_grid=256, lhs_samples=500,
                            n_nodes=2, node_samples=500)
    d = report.as_dict()
    assert d["z_score"] == report.discrepancy / report.combined_stderr
    assert d["lhs_var_share"] == report.lhs.stderr**2 / report.combined_stderr**2
    assert 0.0 < d["lhs_var_share"] < 1.0
    # with no sampling error on either side neither is defined
    d = verify_theorem(EMPTY, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
                       n_nodes=2, node_samples=100).as_dict()
    assert d["z_score"] is None and d["lhs_var_share"] is None


def test_verdict_names_top_rhs_node():
    report = verify_theorem(TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, seed=8,
                            lhs_n_grid=256, lhs_samples=500, n_nodes=3,
                            node_samples=500)
    rows = report.rhs.extra["nodes"]
    terms = [r["weight"] ** 2 * ((r["left_stderr"] * r["right"]) ** 2
                                 + (r["right_stderr"] * r["left"]) ** 2
                                 + (r["left_stderr"] * r["right_stderr"]) ** 2)
             for r in rows]
    assert sum(terms) == pytest.approx(report.rhs.stderr**2, rel=1e-12)
    top = rows[int(np.argmax(terms))]
    node = report.as_dict()["rhs_top_node"]
    assert (node["component"], node["t"]) == (top["component"], top["t"])
    assert node["var_share"] == pytest.approx(max(terms) / sum(terms), rel=1e-12)
    assert 1 / len(rows) <= node["var_share"] <= 1.0
    assert "top_node" not in report.as_dict()["rhs"]
    # an exact right-hand side has no node to name
    d = verify_theorem(EMPTY, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
                       n_nodes=2, node_samples=100).as_dict()
    assert d["rhs_top_node"] is None


def test_sensitivity_curve_identical_at_rho_one():
    rows = sensitivity_curve(1.0, [4, 8, 16], 100, seed=9)
    assert all(est.mean == 1.0 and est.stderr == 0.0 for _, est in rows)


def test_sensitivity_curve_decreasing_trend():
    rows = sensitivity_curve(0.5, [8, 64, 1024], 20_000, seed=10)
    vals = [est.mean for _, est in rows]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(DomainError):
        sensitivity_curve(0.5, [8, 8], 100, seed=11)
