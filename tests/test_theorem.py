import math
import warnings

import numpy as np
import pytest
from scipy.special import stdtrit

from splitnoise.coupled import argmin_coincidence, m_lambda_functional
from splitnoise.errors import DomainError, PreconditionError
from splitnoise import theorem
from splitnoise.sampling import EstimateWithError, derive_rng, derive_seed, welch_dof
from splitnoise.theorem import (
    _TAG_NODE,
    _all_exact,
    _arcsine_nodes,
    _exact_factors,
    _pullback,
    _rhs_factors,
    _rule,
    _series_terms,
    band_multiplier,
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
    monkeypatch.setattr(theorem, "_exact_factors", forbidden)
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


def node_factors(t, region, rho, n_samples, seed):
    """The two factors at gap time t, a sampled side on derive_seed(seed, side)."""
    sides = list(_pullback(t, region))
    return tuple(_rhs_factors(sides, _series_terms(sides, rho), rho, n_samples, [seed]))


def is_exact_factor(est):
    # the grid's points, no sampling error and no replicates
    return est.n_samples == 32 * 16 and est.stderr == 0.0 and est.extra is None and 0 < est.mean < 1


def test_rhs_factors_empty_sides():
    # a one-component side is exact, an empty one exactly 1
    left, right = node_factors(0.6, QUARTER_HALF, 0.5, 100, seed=1)
    assert right == EstimateWithError.exact(1.0)
    assert is_exact_factor(left)

    left, right = node_factors(0.1, QUARTER_HALF, 0.5, 100, seed=1)
    assert left == EstimateWithError.exact(1.0)
    assert is_exact_factor(right)

    # a two-component side is sampled
    left, right = node_factors(0.9, TimeSet.parse("1/8..1/4,1/2..3/4"), 0.5, 100, seed=1)
    assert left.n_samples == 100 and left.extra == {"replicates": 16}
    assert right == EstimateWithError.exact(1.0)

    with pytest.raises(PreconditionError):
        _pullback(0.3, QUARTER_HALF)


def test_rhs_factors_at_boundary_times():
    # a side has a factor exactly when the region has points on that side
    # of t: before the region, between components and after it.  One
    # component is exact, two are sampled.  At 0 and 1 a side's map
    # degenerates, and no node lies there
    B = TimeSet.parse("1/8..1/4,1/2..3/4")
    for t in (0.0, 1.0):
        with pytest.raises(DomainError, match=f"t={t}"):
            node_factors(t, B, 0.5, 100, seed=1)
    for t, kinds in [(0.05, ("empty", "sampled")), (0.3, ("exact", "exact")),
                     (0.9, ("sampled", "empty"))]:
        factors = node_factors(t, B, 0.5, 100, seed=1)
        for est, kind in zip(factors, kinds):
            if kind == "sampled":
                assert est.n_samples == 100, t
            elif kind == "exact":
                assert is_exact_factor(est), t
            else:
                assert est == EstimateWithError.exact(1.0), t
    with pytest.raises(PreconditionError):
        node_factors(0.6, B, 0.5, 100, seed=1)


@pytest.mark.parametrize("t", [0.25, 0.5])
def test_rhs_factors_at_region_endpoints(t):
    # a touching side's pull-back starts at 0, where no entrance law starts
    with pytest.raises(PreconditionError, match=rf"t={t} is an endpoint of 1/4\.\.1/2"):
        node_factors(t, QUARTER_HALF, 0.5, 100, seed=1)


def test_rhs_factor_pullback_set():
    # at t=1/4 the region [1/2,3/4] seen from the right is [1/3,2/3]
    pulled = affine_preimage(TimeSet.parse("1/2..3/4"), 1.0 - 0.25, 0.25)
    assert pulled[0][0] == pytest.approx(1 / 3)
    assert pulled[0][1] == pytest.approx(2 / 3)


def test_rhs_factors_at_rho_one_are_mass_conservation():
    # all correlations 1: both factors reduce to the entrance mass, i.e. 1;
    # the exact one to the grid's accuracy, a sampled one at 4 sigma
    left, right = node_factors(0.6, QUARTER_HALF, 1.0, 20_000, seed=2)
    assert right.mean == 1.0
    assert left.n_samples == 32 * 16 and left.stderr == 0.0
    assert left.mean == pytest.approx(1.0, abs=1e-9)
    left, _ = node_factors(0.9, TimeSet.parse("1/8..1/4,1/2..3/4"), 1.0, 20_000, seed=2)
    assert left.n_samples == 20_000
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
    # and at a budget of 100 no walk of the top level, 49 paired walks at
    # 8192, tells the two grids apart: the paired sample stderr is 0, and
    # the direct route reports 1/49 in its place
    region = TimeSet.parse("0..1/2,129/256..1")
    two = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             refine=True)
    raw, top = two.extra["grid_bias"], two.extra["refined"].extra["levels"][-1]
    assert (top["grid"], top["samples"]) == (8192, 49)
    assert (raw.mean, raw.stderr) == (0.0, 1 / 49)
    # the floor's 4 / 49 is 14 allowances: the top level walks on, at most
    # fourfold a round, toward the 3334 walks a quarter allowance needs,
    # and stops at 49 * 4^3 = 3136, where the floor 1/3136 resolves it;
    # none of the walks tells the grids apart either
    report = verify_theorem(region, 0.5, seed=1, lhs_n_grid=4096, lhs_samples=100,
                            n_nodes=2, node_samples=100, check_stability=True)
    m = report.lhs_refined.extra["levels"][-1]["samples"]
    assert m == 49 * theorem._TOP_GROWTH ** 3 == 3136
    assert (report.grid_bias.mean, report.grid_bias.stderr) == (0.0, 1 / m)
    assert 4 / m <= theorem._GRID_RESOLUTION * report.as_dict()["grid_bias_allowance"]
    assert report.stability_ok
    assert report.as_dict()["grid_bias"] == {"estimate": 0.0, "stderr": 1 / m}
    # on 1/2..1 the first gap is integrated out, so samples are not 0 or
    # 1 and the paired stderr is a real sample stderr, not the floor
    region = TimeSet.parse("1/2..1")
    raw = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             refine=True).extra["grid_bias"]
    assert 0.0 < raw.stderr < 0.01
    # one step on A against two, at rho 0.9: the bias (about 0.02) fails
    # it, on the sample stderr.  The top level's 204 walks leave it
    # unresolved, and one round of walking on, fourfold, resolves it
    report = verify_theorem(region, 0.9, seed=1, lhs_n_grid=2, lhs_samples=20_000,
                            n_nodes=2, node_samples=100, check_stability=True)
    two = argmin_coincidence(region, 0.9, 2, 20_000, derive_seed(1, theorem._TAG_LHS),
                             refine=True)
    raw, allowance = two.extra["grid_bias"], report.as_dict()["grid_bias_allowance"]
    walks = two.extra["refined"].extra["levels"][-1]["samples"]
    assert walks == 204 and abs(raw.mean) - 4 * raw.stderr <= allowance
    assert report.lhs_refined.extra["levels"][-1]["samples"] == theorem._TOP_GROWTH * walks
    assert report.grid_bias.mean > 4 * report.grid_bias.stderr > 0.0
    assert report.grid_bias.mean - 4 * report.grid_bias.stderr > allowance
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


def rhs_node_terms(row):
    """A node's three product-variance terms: left's, right's and the cross term."""
    w, left, right = row["weight"], row["left"], row["right"]
    ls, rs = row["left_stderr"], row["right_stderr"]
    return [(w * ls * right) ** 2, (w * rs * left) ** 2, (w * ls * rs) ** 2]


def test_an_unresolved_stability_check_walks_on_until_resolved():
    # at n_grid 256 and 2000 samples the top level's 572 walks at 512 put
    # four stderrs of the grid bias at 1.5 allowances.  The check would
    # pass unresolved, so the top level walks on, to the walks its
    # variance predicts: the estimate and the levels below are the run's
    # without it, and the grid bias resolves a quarter allowance
    region, seed = QUARTER_HALF, derive_seed(2, theorem._TAG_LHS)
    first = argmin_coincidence(region, 0.7, 256, 2000, seed, refine=True)
    assert first.extra["refined"].extra["levels"][-1]["samples"] == 572
    report = verify_theorem(region, 0.7, seed=2, lhs_n_grid=256, lhs_samples=2000,
                            n_nodes=8, node_samples=100, check_stability=True)
    allowance = report.as_dict()["grid_bias_allowance"]
    assert 4 * first.extra["grid_bias"].stderr > allowance
    levels, before = ([{k: v for k, v in row.items() if k != "var_share"}
                       for row in est.extra["levels"]] for est in (report.lhs_refined, first.extra["refined"]))
    assert levels[-1]["grid"] == 512 and levels[-1]["samples"] > 572 * 16
    assert levels[:-1] == before[:-1]
    assert report.lhs == argmin_coincidence(region, 0.7, 256, 2000, seed)
    assert 0.0 < 4 * report.grid_bias.stderr <= theorem._GRID_RESOLUTION * allowance
    assert report.stability_ok and report.passed


def test_a_one_level_stability_check_walks_on_until_resolved():
    # at n_grid 16 and 500 samples the run is one level; the check adds a
    # top level at 32, which walks on like any other until four stderrs of
    # the grid bias are within a quarter allowance, and lhs is the run
    # without the check, bit for bit
    seed = derive_seed(1, theorem._TAG_LHS)
    plain = argmin_coincidence(QUARTER_HALF, 0.7, 16, 500, seed)
    assert len(plain.extra["levels"]) == 1
    report = verify_theorem(QUARTER_HALF, 0.7, seed=1, lhs_n_grid=16, lhs_samples=500,
                            n_nodes=2, node_samples=100, check_stability=True)
    allowance = report.as_dict()["grid_bias_allowance"]
    assert 0.0 < 4 * report.grid_bias.stderr <= theorem._GRID_RESOLUTION * allowance
    assert report.stability_ok
    assert [row["grid"] for row in report.lhs_refined.extra["levels"]] == [16, 32]
    assert report.lhs == plain


def test_verdict_band_is_a_student_t_band():
    # the band is a Student t quantile at the normal 4-sigma tail, at the
    # Welch-Satterthwaite dof of the two sides: the LHS's over its cells,
    # the RHS's over its factors' replicates (15 each)
    for nu, width in ((148, 4.12), (17, 5.26), (30, 4.65)):
        assert band_multiplier(nu) == pytest.approx(width, abs=0.005)
    assert band_multiplier(None) == band_multiplier(math.inf) == pytest.approx(4.0, abs=2e-4)
    assert all(band_multiplier(nu) > 4.0 for nu in (1, 2.5, 1e3, 1e9))
    report = verify_theorem(TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, seed=8, lhs_n_grid=256,
                            lhs_samples=500, n_nodes=2, node_samples=500)
    lhs, rhs = report.lhs, report.rhs
    cells = sum(row["strata"] for row in lhs.extra["levels"])
    assert 1.0 <= lhs.extra["dof"] <= cells
    # the RHS's over its factors' variance terms (3 per node, 15 dof each)
    # and the quadrature term of its exact middle gap, at infinite dof
    assert rhs.extra["replicates"] == 16 and rhs.extra["quadrature_error"] > 0.0
    assert rhs.extra["dof"] == pytest.approx(welch_dof(
        [(term, 15) for r in rhs.extra["nodes"] for term in rhs_node_terms(r)]
        + [(rhs.extra["quadrature_error"] ** 2, None)]), rel=1e-12)
    assert rhs.extra["dof"] >= 15.0
    d = report.as_dict()
    assert d["dof"] == welch_dof([(lhs.stderr**2, lhs.extra["dof"]),
                                  (rhs.stderr**2, rhs.extra["dof"])])
    assert d["threshold"] == band_multiplier(d["dof"]) > 4.0
    assert d["pass"] is (abs(d["discrepancy"]) <= d["threshold"] * d["combined_stderr"])
    # with no sampling error on either side there is no dof
    d = verify_theorem(EMPTY, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
                       n_nodes=2, node_samples=100).as_dict()
    assert d["dof"] is None and d["threshold"] == band_multiplier(None)


@pytest.mark.slow
def test_student_t_band_is_calibrated_at_the_five_percent_level():
    # paired independent direct-route runs with a budget of 100 walks at
    # n_grid 2048 (four levels from 256, three of them at their floors;
    # about 44 degrees of freedom per pair), whose mean difference is
    # exactly 0: over 1000 pairs the t band at the 5% level is exceeded in
    # 2.2-7.8% of them (4 binomial sigma), 6.3% here; the normal band's
    # 1.96 was exceeded in 7.1% of these pairs
    exceeded = 0
    for s in range(1000):
        a, b = (argmin_coincidence(QUARTER_HALF, 0.5, 2048, 100, seed=2 * s + k) for k in (0, 1))
        assert len(a.extra["levels"]) == 4
        dof = welch_dof([(a.stderr**2, a.extra["dof"]), (b.stderr**2, b.extra["dof"])])
        exceeded += abs(a.mean - b.mean) > stdtrit(dof, 0.975) * math.hypot(a.stderr, b.stderr)
    assert 0.022 <= exceeded / 1000 <= 0.078


def test_verdict_names_top_rhs_node():
    report = verify_theorem(TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, seed=8,
                            lhs_n_grid=256, lhs_samples=500, n_nodes=3,
                            node_samples=500)
    rows = report.rhs.extra["nodes"]
    terms = [sum(rhs_node_terms(r)) for r in rows]
    # the sampling part of the RHS variance is the node terms; the rest is
    # the quadrature error of the exact middle gap
    quadrature = report.rhs.extra["quadrature_error"]
    assert quadrature > 0.0
    assert sum(terms) == pytest.approx(report.rhs.stderr**2 - quadrature**2, rel=1e-12)
    top = rows[int(np.argmax(terms))]
    node = report.as_dict()["rhs_top_node"]
    assert (node["component"], node["t"]) == (top["component"], top["t"])
    assert node["var_share"] == pytest.approx(max(terms) / report.rhs.stderr**2, rel=1e-12)
    assert 1 / len(rows) <= max(terms) / sum(terms) and node["var_share"] <= 1.0
    assert "top_node" not in report.as_dict()["rhs"]
    # an exact right-hand side, and one whose factors are all exact, have no node to name
    d = verify_theorem(EMPTY, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
                       n_nodes=2, node_samples=100).as_dict()
    assert d["rhs_top_node"] is None
    d = verify_theorem(QUARTER_HALF, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
                       n_nodes=2, node_samples=100).as_dict()
    assert d["rhs_top_node"] is None and d["rhs"]["stderr"] == d["rhs"]["quadrature_error"] > 0.0


def test_sensitivity_curve_identical_at_rho_one():
    rows = sensitivity_curve(1.0, [4, 8, 16], 100, seed=9)
    assert all(est.mean == 1.0 and est.stderr == 0.0 for _, est in rows)


def test_sensitivity_curve_decreasing_trend():
    rows = sensitivity_curve(0.5, [8, 64, 1024], 20_000, seed=10)
    vals = [est.mean for _, est in rows]
    assert vals[0] > vals[1] > vals[2]
    with pytest.raises(DomainError):
        sensitivity_curve(0.5, [8, 8], 100, seed=11)


# -- exact one-component factors ---------------------------------------------

def exact_factor(a, b, rho):
    sides = [[(a, b)]]
    terms = _series_terms(sides, rho)
    assert terms[0] > 0, (a, b, rho)
    return float(_exact_factors(np.array([[a, b]]), rho, terms)[0])


# (a, b, rho): tau = 0, a pulled-back a near 1e-4 and 1e-6, a narrow component
_ORACLE_CASES = [(0.25, 0.5, 0.3), (0.4, 0.45, 0.9), (0.3, 1.0, 0.5), (1e-4, 0.3, 0.3),
                 (1e-4, 0.3, 0.9), (1e-6, 0.3, 0.5), (1e-6, 1.0, 0.9), (0.5, 0.6, 0.5)]


def test_exact_factors_reproduce_the_survival_table():
    # the factor table of the sampled survival stack, to its printed digits
    assert exact_factor(0.25, 0.5, 0.3) == pytest.approx(0.730449, abs=5e-7)
    assert exact_factor(0.4, 0.45, 0.9) == pytest.approx(0.962394, abs=5e-7)
    assert exact_factor(0.3, 1.0, 0.5) == pytest.approx(0.745514, abs=5e-7)


@pytest.mark.slow
@pytest.mark.parametrize("a, b, rho", _ORACLE_CASES)
def test_exact_factors_match_sampled_survival(a, b, rho):
    # the oracle shares no code with the series: the wedge-kernel survival
    # walk on 2^20 randomized-QMC points (fewer points read -3.7 and -3.5
    # sigma at a = 1e-4 and 1e-6 on one seed)
    est = m_lambda_functional([(a, b)], rho, a, 1 << 20, seed=3)
    assert abs(exact_factor(a, b, rho) - est.mean) < 4 * est.stderr


@pytest.mark.parametrize("a, b, rho", _ORACLE_CASES + [
    (0.3, 0.33, 0.5),  # L/a = 0.1: 25 terms, next to the cap
    (0.05, 0.9, 0.7),  # tau at the floor, 0.1 (L + kappa^2 a)
])
def test_exact_factor_grid_matches_a_fine_grid(monkeypatch, a, b, rho):
    # 32 x 16 nodes against 128 x 64, at the series' own term count
    terms = _series_terms([[(a, b)]], rho)
    assert terms[0] > 0
    lean = _exact_factors(np.array([[a, b]]), rho, terms)[0]
    monkeypatch.setattr(theorem, "_RADIAL_NODES", 128)
    monkeypatch.setattr(theorem, "_ANGULAR_NODES", 64)
    fine = _exact_factors(np.array([[a, b]]), rho, terms)[0]
    assert abs(lean - fine) < 1e-8


def test_exact_factor_series_stops_within_its_tail_bound():
    # twice the terms move no factor by more than the bound the count came from
    for a, b, rho in _ORACLE_CASES + [(0.3, 0.33, 0.5), (0.05, 0.9, 0.7)]:
        terms = _series_terms([[(a, b)]], rho)
        ends = np.array([[a, b]])
        assert abs(_exact_factors(ends, rho, terms)[0]
                   - _exact_factors(ends, rho, 2 * terms)[0]) <= 1e-10


def test_exact_factors_are_one_batch():
    # a batch's factors are each side's own, whatever else is in the batch
    ends = np.array(_ORACLE_CASES)[:, :2]
    for rho in (0.3, 0.9):
        sides = [[tuple(e)] for e in ends]
        terms = _series_terms(sides, rho)
        batch = _exact_factors(ends, rho, terms)
        alone = [_exact_factors(ends[i:i + 1], rho, terms[i:i + 1])[0] for i in range(len(ends))]
        assert batch == pytest.approx(alone, abs=1e-15)


@pytest.mark.parametrize("ratio", [1e-3, 1e-5])
def test_narrow_components_keep_sampling(ratio):
    # L/a = 1e-3 and 1e-5 would take hundreds and thousands of terms, past
    # the cap: the side is sampled, with finite values and no warnings
    a, rho = 0.4, 0.5
    sides = [[(a, a * (1.0 + ratio))]]
    with np.errstate(divide="raise", over="raise", invalid="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = _series_terms(sides, rho)
        assert terms[0] == 0
        est, = _rhs_factors(sides, terms, rho, 20_000, [5])
    assert est.n_samples == 20_000 and math.isfinite(est.mean) and est.stderr > 0.0
    other = m_lambda_functional(sides[0], rho, a, 20_000, seed=6)
    assert abs(est.mean - other.mean) < 4 * math.hypot(est.stderr, other.stderr)


def test_short_tails_keep_sampling():
    # a tail shorter than the angular nodes resolve is sampled; tau = 0 is exact
    rho = 0.5
    ends = [(0.3, 0.999), (0.3, 1.0 - 1e-12), (0.3, 1.0), (0.3, 0.8)]
    assert [bool(k) for k in _series_terms([[e] for e in ends], rho)] == \
        [False, False, True, True]


# -- the node rule's error in the RHS band -----------------------------------

@pytest.mark.parametrize("rho, reference", [(0.3, 0.587983), (0.7, 0.671679)])
@pytest.mark.parametrize("n_nodes", [8, 24])
def test_quadrature_error_covers_the_node_rule(rho, reference, n_nodes):
    # every factor of 1/4..1/2 is exact: the RHS's only error is the node
    # rule's, and its estimate (times the safety factor) covers the true one
    est = rhs_integral(QUARTER_HALF, rho, n_nodes, 100, seed=1)
    extra = est.extra
    assert extra["quadrature_error"] >= abs(est.mean - reference)
    assert est.stderr == extra["quadrature_error"] > 0.0
    assert "replicates" not in extra and extra["dof"] is None and extra["top_node"] is None
    # both gaps' nodes, two sides each, one empty, and the n/2-node rule's
    assert extra["exact_factors"] == 2 * (n_nodes + n_nodes // 2)
    assert est.n_samples == 32 * 16 * extra["exact_factors"]
    assert all(r["left_stderr"] == r["right_stderr"] == 0.0 for r in extra["nodes"])
    # no stream is read: the seed changes nothing but the echo
    other = rhs_integral(QUARTER_HALF, rho, n_nodes, 100, seed=2)
    assert (other.mean, other.stderr) == (est.mean, est.stderr)


def middle_sum(est):
    return sum(r["weight"] * r["left"] * r["right"] for r in est.extra["nodes"]
               if r["component"] == 1)


def test_quadrature_error_comes_only_from_exact_gaps():
    # on the split region only the middle gap is exact; at 6 nodes its
    # error estimate is against its own 3-node rule, |1 - (6/3)^2| = 3
    region = TimeSet.parse("1/4..1/2,5/8..3/4")
    est = rhs_integral(region, 0.5, 6, 400, seed=4)
    rows = est.extra["nodes"]
    coarse = middle_sum(rhs_integral(region, 0.5, 3, 400, seed=4))
    assert est.extra["quadrature_error"] == pytest.approx(
        2 * abs(middle_sum(est) - coarse) / 3, rel=1e-12)
    assert est.extra["exact_factors"] == 12 + 6 and est.extra["replicates"] == 16
    # the outer gaps' factors are sampled on the same streams as ever
    for r in rows:
        if r["component"] == 1:
            assert r["left_stderr"] == r["right_stderr"] == 0.0
            continue
        ni = [q["t"] for q in rows if q["component"] == r["component"]].index(r["t"])
        node_seed = derive_seed(4, _TAG_NODE, r["component"], ni)
        for side, pulled in enumerate(_pullback(r["t"], region)):
            if pulled:
                direct = m_lambda_functional(pulled, 0.5, pulled[0][0], 400,
                                             derive_seed(node_seed, side))
                assert (r[("left", "right")[side]], r[("left_stderr", "right_stderr")[side]]) \
                    == (direct.mean, direct.stderr)


def test_a_sampled_coarse_side_keeps_its_gap_term():
    # one node's coarse rule has two, nearer the gap's ends: on
    # 30/64..31/64 each gap's one node is exact, but one coarse node of
    # each sees a component too narrow for the series.  The gap keeps its
    # term, with that side sampled on its own stream
    region, rho = TimeSet.parse("30/64..31/64"), 0.3
    est = rhs_integral(region, rho, 1, 400, seed=3)
    assert all(r["left_stderr"] == r["right_stderr"] == 0.0 for r in est.extra["nodes"])
    assert est.extra["replicates"] == 16 and est.extra["exact_factors"] == 4
    assert est.n_samples == 4 * 32 * 16 + 2 * 400
    diffs = []
    for g, gap in enumerate(region.complement_components()):
        rule = _rule(region, gap, 2, rho)
        assert not _all_exact(rule)
        _, weights, sides, terms = rule
        factors = _rhs_factors(sides, terms, rho, 400,
                               [derive_seed(3, theorem._TAG_COARSE, g, ni) for ni in (0, 1)])
        coarse = sum(w * left.mean * right.mean
                     for w, left, right in zip(weights, factors[0::2], factors[1::2]))
        diffs.append(abs(sum(r["weight"] * r["left"] * r["right"]
                             for r in est.extra["nodes"] if r["component"] == g) - coarse))
    assert est.extra["quadrature_error"] == pytest.approx(2 * sum(diffs) / 0.75, rel=1e-12)
    assert est.stderr == est.extra["quadrature_error"] > 0.0


def test_quadrature_error_at_one_and_two_nodes():
    # one node is checked against two, two against one
    for n_nodes in (1, 2):
        est = rhs_integral(QUARTER_HALF, 0.5, n_nodes, 100, seed=1)
        assert est.extra["exact_factors"] == 2 * (n_nodes + (2 if n_nodes == 1 else 1))
        assert est.extra["quadrature_error"] > abs(est.mean - 0.625612)
