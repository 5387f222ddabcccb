import math
import warnings

import numpy as np
import pytest
from scipy.special import ive, stdtrit

from splitnoise.coupled import argmin_coincidence, m_lambda_functional
from splitnoise.errors import DomainError, PreconditionError
from splitnoise import coupled, theorem
from splitnoise.sampling import EstimateWithError, derive_rng, derive_seed, welch_dof
from splitnoise.theorem import (
    _TAG_NODE,
    _all_exact,
    _exact_factors,
    _gauss_nodes,
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
from test_coupled import floor_only

EMPTY = TimeSet.empty()
FULL = TimeSet.full()
QUARTER_HALF = TimeSet.parse("1/4..1/2")
SPLIT = TimeSet.parse("1/4..1/2,5/8..3/4")
# three components: every side of an outer gap's node sees all three and is
# sampled, while the middle gaps' sides have one or two components
SAMPLED = TimeSet.parse("1/8..1/4,3/8..1/2,5/8..3/4")


def theta(t):
    return 2.0 / math.pi * math.asin(math.sqrt(t))


_INTERIOR = [((0.25, 0.5), (True, True)), ((0.0, 0.25), (False, True)),
             ((0.5, 1.0), (True, False))]


def test_arcsine_substitution_is_exact():
    # theta(t) is 0, 1/3, 1/2, 2/3 and 1 at t = 0, 1/4, 1/2, 3/4 and 1, and
    # t = sin^2(pi theta / 2) integrates to theta/2 - sin(pi theta)/(2 pi)
    # in theta: the weights total the arc-sine measure of the gap, and the
    # times carry the substitution, for every pattern of interior ends
    def integral_of_t(ta, tb):
        return (tb - ta) / 2.0 - (math.sin(math.pi * tb) - math.sin(math.pi * ta)) / (2.0 * math.pi)

    for (a, b), interior, mass in [((0.0, 0.5), (False, True), 1 / 2), ((0.5, 1.0), (True, False), 1 / 2),
                                   ((0.25, 0.75), (True, True), 1 / 3)]:
        times, weights = _gauss_nodes(a, b, 24, interior)
        assert weights.sum() == pytest.approx(mass, abs=1e-15)
        assert weights @ times == pytest.approx(integral_of_t(theta(a), theta(b)), abs=1e-15)


def test_arcsine_nodes_lie_strictly_inside_a_narrow_gap():
    # sin^2 rounds some nodes of a 2^-50 gap onto its ends; they are
    # clamped to the 7 floats strictly inside
    a, b = 0.5, 0.5 + 2.0**-50
    for interior in (True, True), (False, True), (True, False):
        for n_nodes in (4, 8, 64):
            times, _ = _gauss_nodes(a, b, n_nodes, interior)
            assert all(a < t < b for t in times)


@pytest.mark.parametrize("gap, interior", _INTERIOR, ids=["both", "upper", "lower"])
@pytest.mark.parametrize("beta", [0.084, 0.170, 0.337])
def test_graded_nodes_are_second_order_on_a_cusp(gap, interior, beta):
    # a factor vanishes like delta^beta at an interior end (beta 0.084 at
    # rho 0.9, 0.170 at 0.7, 0.337 at 0.3); in theta its integral is a Beta
    # function.  The graded rule is far better than second order: its
    # error is O(n^-(6 beta + 6)), and from 4 to 32 nodes it fell by
    # 73-9030 per doubling, so by at least 2^6
    ta, tb = theta(gap[0]), theta(gap[1])
    lower, upper = (beta if end else 0.0 for end in interior)
    exact = (tb - ta) ** (1.0 + lower + upper) * math.gamma(1 + lower) * math.gamma(1 + upper) \
        / math.gamma(2 + lower + upper)
    errors = []
    for n_nodes in (4, 8, 16, 32):
        times, weights = _gauss_nodes(*gap, n_nodes, interior)
        th = np.array([theta(t) for t in times])
        errors.append(abs(np.sum(weights * (th - ta) ** lower * (tb - th) ** upper) - exact))
    assert all(coarse >= 64.0 * fine for coarse, fine in zip(errors, errors[1:]))


@pytest.mark.parametrize("gap, interior", _INTERIOR, ids=["both", "upper", "lower"])
def test_graded_node_weights_total_the_arcsine_measure(gap, interior):
    # as test_gauss_nodes_total_the_arcsine_measure, at more node counts:
    # a split gap needs two nodes a half to integrate g' exactly
    for n_nodes in (6, 7, 64):
        times, weights = _gauss_nodes(*gap, n_nodes, interior)
        assert weights.shape == (n_nodes,) and np.all(weights > 0.0)
        assert weights.sum() == pytest.approx(theta(gap[1]) - theta(gap[0]), rel=1e-12)
        assert all(gap[0] < t < gap[1] for t in times) and times == sorted(times)
        if all(interior):
            mid = (theta(gap[0]) + theta(gap[1])) / 2
            assert sum(theta(t) < mid for t in times) == n_nodes // 2


def test_rhs_rejects_a_gap_with_no_float_inside_before_any_draw(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a factor was drawn before the gap was checked")

    monkeypatch.setattr(theorem, "m_lambda_functional", forbidden)
    monkeypatch.setattr(theorem, "_exact_factors", forbidden)
    monkeypatch.setattr(theorem, "_pair_factors", forbidden)
    region = TimeSet.parse("1/4..1/2,4503599627370497/9007199254740992..3/4")
    with pytest.raises(DomainError, match=r"the gap \(0.5, 0.5000000000000001\)"):
        rhs_integral(region, 0.5, 2, 100, seed=1)


def test_arcsine_mean_against_argmin_simulation():
    # quadrature of f(t)=t over two halves graded toward 1/2 gives the
    # arc-sine mean 1/2; cross-check with the argmin time of a simulated
    # Brownian path
    quad = 0.0
    for gap, interior in (((0.0, 0.5), (False, True)), ((0.5, 1.0), (True, False))):
        times, weights = _gauss_nodes(*gap, 24, interior)
        quad += sum(w * t for w, t in zip(weights, times))
    assert quad == pytest.approx(0.5, abs=1e-14)

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


def is_exact_factor(est, components=1):
    # the grid's points, no sampling error and no replicates
    points = 32 * 16 if components == 1 else 2 * 40 * 24
    return est.n_samples == points and est.stderr == 0.0 and est.extra is None and 0 < est.mean < 1


def test_rhs_factors_empty_sides():
    # a one-component side is exact, an empty one exactly 1
    left, right = node_factors(0.6, QUARTER_HALF, 0.5, 100, seed=1)
    assert right == EstimateWithError.exact(1.0)
    assert is_exact_factor(left)

    left, right = node_factors(0.1, QUARTER_HALF, 0.5, 100, seed=1)
    assert left == EstimateWithError.exact(1.0)
    assert is_exact_factor(right)

    # a two-component side is exact too, and a three-component one sampled
    left, right = node_factors(0.9, TimeSet.parse("1/8..1/4,1/2..3/4"), 0.5, 100, seed=1)
    assert is_exact_factor(left, components=2)
    assert right == EstimateWithError.exact(1.0)
    left, right = node_factors(0.9, SAMPLED, 0.5, 100, seed=1)
    assert left.n_samples == 100 and left.extra == {"replicates": 16}
    assert right == EstimateWithError.exact(1.0)

    with pytest.raises(PreconditionError):
        _pullback(0.3, QUARTER_HALF)


def test_rhs_factors_at_boundary_times():
    # a side has a factor exactly when the region has points on that side
    # of t: before the region, between components and after it.  One and
    # two components are exact, three are sampled.  At 0 and 1 a side's
    # map degenerates, and no node lies there
    B = TimeSet.parse("1/8..1/4,1/2..3/4")
    for t in (0.0, 1.0):
        with pytest.raises(DomainError, match=f"t={t}"):
            node_factors(t, B, 0.5, 100, seed=1)
    for region, t, kinds in [(B, 0.05, ("empty", 2)), (B, 0.3, (1, 1)), (B, 0.9, (2, "empty")),
                             (SAMPLED, 0.05, ("empty", "sampled")), (SAMPLED, 0.3, (1, 2)),
                             (SAMPLED, 0.9, ("sampled", "empty"))]:
        factors = node_factors(t, region, 0.5, 100, seed=1)
        for est, kind in zip(factors, kinds):
            if kind == "sampled":
                assert est.n_samples == 100, t
            elif kind == "empty":
                assert est == EstimateWithError.exact(1.0), t
            else:
                assert is_exact_factor(est, components=kind), t
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
    # the exact one to the grid's accuracy, a sampled one at 4 sigma.  At
    # rho 1 the pair never parts, and a two-component side is sampled
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
    with pytest.raises(DomainError, match="rho=1.5"):
        rhs_integral(QUARTER_HALF, 1.5, 8, 100, seed=3)


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


def fixed_rhs(monkeypatch, mean, stderr):
    """Stand a fixed estimate in for the RHS: its band no longer moves the stability check's allowance."""
    monkeypatch.setattr(theorem, "rhs_integral", lambda *args: EstimateWithError(mean, stderr, 100, seed=0))


def spied_top_walks(monkeypatch):
    """The list every later call of theorem._top_walks appends its (lhs, walks, allowance, answer) to."""
    calls, top_walks = [], theorem._top_walks

    def spy(lhs, walks, allowance, cap):
        calls.append((lhs, walks, allowance, top_walks(lhs, walks, allowance, cap)))
        return calls[-1][-1]

    monkeypatch.setattr(theorem, "_top_walks", spy)
    return calls


def test_grid_stability_check_is_not_vacuous_on_a_region_reaching_one(monkeypatch):
    # on a region that touches 0 and reaches 1 each grid scores 0 or 1,
    # and at a budget of 100 no walk of the top level, 32 paired walks at
    # 8192 (no refined level below differs in any walk, so the predicted
    # variance is 0 and the top level takes the floor), tells the two
    # grids apart: the paired sample stderr is 0, and the direct route
    # reports 1/32 in its place
    region = TimeSet.parse("0..1/2,129/256..1")
    two = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             top_walks=floor_only)
    raw, top = two.extra["grid_bias"], two.extra["refined"].extra["levels"][-1]
    assert (top["grid"], top["samples"]) == (8192, 32)
    assert (raw.mean, raw.stderr) == (0.0, 1 / 32)
    # the floor's band, 4.0002 / 32 with no dof, is 22 allowances: the
    # top level walks on, at most fourfold a round, to 512 and then to
    # 834, a fifth more than the 695 walks that put the band within the
    # allowance; none of the walks tells the grids apart either.  The RHS
    # is 1.369539e-4 +- 2.54e-6
    fixed_rhs(monkeypatch, 1.369539e-4, 2.54e-6)
    calls = spied_top_walks(monkeypatch)
    report = verify_theorem(region, 0.5, seed=1, lhs_n_grid=4096, lhs_samples=100,
                            n_nodes=2, node_samples=100, check_stability=True)
    m = report.lhs_refined.extra["levels"][-1]["samples"]
    allowance, band = report.as_dict()["grid_bias_allowance"], report.as_dict()["grid_bias_threshold"]
    assert [walks for _, walks, _, _ in calls] == [0, 32, 128, 512, 834] and m == 834
    assert band == band_multiplier(None)
    assert (report.grid_bias.mean, report.grid_bias.stderr) == (0.0, 1 / m)
    assert band / m <= allowance < band / 512
    assert report.stability_ok
    # a floored stderr has no degrees of freedom
    assert report.as_dict()["grid_bias"] == {"estimate": 0.0, "stderr": 1 / m, "dof": None}
    # on 1/2..1 the first gap is integrated out, so samples are not 0 or
    # 1 and the paired stderr is a real sample stderr, not the floor
    region = TimeSet.parse("1/2..1")
    raw = argmin_coincidence(region, 0.5, 4096, 100, derive_seed(1, theorem._TAG_LHS),
                             top_walks=floor_only).extra["grid_bias"]
    assert 0.0 < raw.stderr < 0.01
    # n_grid 4 against 8 at rho 0.9: the bias (about 0.01) fails it, on
    # the sample stderr.  At seed 2 and 70 samples the run is one level,
    # and the top level's first round, the floor of 32 walks, leaves it
    # unresolved; walking on, at most fourfold a round, to 128 and then
    # 512 walks resolves it as material (the RHS 0.4455101 +- 2.67e-5)
    fixed_rhs(monkeypatch, 0.4455101, 2.67e-5)
    calls.clear()
    report = verify_theorem(region, 0.9, seed=2, lhs_n_grid=4, lhs_samples=70,
                            n_nodes=2, node_samples=100, check_stability=True)
    first, walks, allowance, _ = calls[1]
    raw, band = first.extra["grid_bias"], theorem._bias_band(first.extra["grid_bias"])
    assert walks == 32 and abs(raw.mean) - band * raw.stderr <= allowance < abs(raw.mean) + band * raw.stderr
    rounds = [walks for _, walks, _, _ in calls]
    assert rounds == [0, 32, 128, 512] and report.lhs_refined.extra["levels"][-1]["samples"] == 512
    assert all(more <= theorem._TOP_GROWTH * walks for walks, more in zip(rounds[1:], rounds[2:]))
    band = report.as_dict()["grid_bias_threshold"]
    assert report.grid_bias.mean > band * report.grid_bias.stderr > 0.0
    assert report.grid_bias.mean - band * report.grid_bias.stderr > allowance
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


def test_an_unresolved_stability_check_walks_on_until_resolved(monkeypatch):
    # at n_grid 256 and 2000 samples the top level's first round, 10 518
    # walks at 512, puts the grid bias's band at 1.2 allowances.  The
    # check is unresolved, so the top level walks on, to the walks its
    # variance predicts: the estimate and the levels below are the run's
    # without it, and the grid bias's band ends within the allowance.
    # The RHS is 0.6716799 +- 1.95e-5
    fixed_rhs(monkeypatch, 0.6716799, 1.95e-5)
    calls = spied_top_walks(monkeypatch)
    region, seed = QUARTER_HALF, derive_seed(2, theorem._TAG_LHS)
    report = verify_theorem(region, 0.7, seed=2, lhs_n_grid=256, lhs_samples=2000,
                            n_nodes=8, node_samples=100, check_stability=True)
    first, walks, allowance, _ = calls[1]
    assert walks == first.extra["refined"].extra["levels"][-1]["samples"] == 10518
    assert allowance == report.as_dict()["grid_bias_allowance"]
    raw, band = first.extra["grid_bias"], theorem._bias_band(first.extra["grid_bias"])
    assert abs(raw.mean) - band * raw.stderr <= allowance < abs(raw.mean) + band * raw.stderr
    levels, before = ([{k: v for k, v in row.items() if k != "var_share"}
                       for row in est.extra["levels"]] for est in (report.lhs_refined, first.extra["refined"]))
    assert levels[-1]["grid"] == 512 and levels[-1]["samples"] > 10518
    assert levels[:-1] == before[:-1]
    assert report.lhs == argmin_coincidence(region, 0.7, 256, 2000, seed)
    band = report.as_dict()["grid_bias_threshold"]
    assert 0.0 < abs(report.grid_bias.mean) + band * report.grid_bias.stderr <= allowance
    assert report.stability_ok and report.passed


def test_a_one_level_stability_check_walks_on_until_resolved(monkeypatch):
    # at n_grid 16 and 60 samples the run is one level; the check adds a
    # top level at 32, which walks on like any other, and lhs is the run
    # without the check, bit for bit.  The grid bias here lies near the
    # allowance (2.6e-3 against 2.2e-3, the RHS 0.6716799 +- 1.95e-5):
    # from a first round of 32 walks, the floor, it walks on to the cap of
    # 64 budgets, 3 840, where it is not resolved, so the check does not pass
    fixed_rhs(monkeypatch, 0.6716799, 1.95e-5)
    calls = spied_top_walks(monkeypatch)
    seed = derive_seed(1, theorem._TAG_LHS)
    plain = argmin_coincidence(QUARTER_HALF, 0.7, 16, 60, seed)
    assert len(plain.extra["levels"]) == 1
    report = verify_theorem(QUARTER_HALF, 0.7, seed=1, lhs_n_grid=16, lhs_samples=60,
                            n_nodes=2, node_samples=100, check_stability=True)
    rows = report.lhs_refined.extra["levels"]
    assert [row["grid"] for row in rows] == [16, 32]
    assert [walks for _, walks, _, _ in calls] == [0, 32, 128, 512, 2048, 3840]
    assert rows[-1]["samples"] == theorem._TOP_BUDGETS * 60 == 3840
    assert report.lhs == plain
    allowance, band = report.as_dict()["grid_bias_allowance"], report.as_dict()["grid_bias_threshold"]
    assert abs(report.grid_bias.mean) - band * report.grid_bias.stderr <= allowance
    assert abs(report.grid_bias.mean) + band * report.grid_bias.stderr > allowance
    assert not report.stability_ok and not report.passed


def test_the_walk_on_never_passes_its_cap():
    # a bias exactly at the allowance asks for as many walks as allowed,
    # here the cap, and once a batch of 2 no longer fits under the cap
    # nothing more is asked
    run = EstimateWithError(0.5, 0.01, 100, seed=1,
                            extra={"grid_bias": EstimateWithError(1e-3, 1e-3, 100, seed=1)})
    assert theorem._top_walks(run, 90, 1e-3, 100) == 100
    assert theorem._top_walks(run, 99, 1e-3, 100) is None


def test_the_stability_check_takes_its_band_at_its_own_dof(monkeypatch):
    # a grid bias of 5e-4 +- 1e-4 at 15 dof against an allowance of 1e-3
    # lies within it at 4 stderrs but not at band_multiplier(15), 5.5: the
    # walk-on asks for a fifth more than the walks that put the t band on
    # one side, and the verdict's check does not pass; at infinite dof
    # (4.0002) the same bias is resolved as a pass
    bias = EstimateWithError(5e-4, 1e-4, 100, seed=1, extra={"dof": 15})
    t = band_multiplier(15)
    assert 5e-4 + 4 * 1e-4 <= 1e-3 < 5e-4 + t * 1e-4
    run = EstimateWithError(0.5, 0.01, 100, seed=1, extra={"grid_bias": bias})
    assert theorem._top_walks(run, 100, 1e-3, 10**6) == math.ceil(1.2 * 100 * (t * 1e-4 / 5e-4) ** 2)
    bias.extra["dof"] = None
    assert theorem._top_walks(run, 100, 1e-3, 10**6) is None
    # the verdict, on a direct route that returns the same bias at 15 dof
    # and an allowance of 1e-3 (a combined stderr of 4e-3)

    def direct_route(*args, top_walks=None):
        est = EstimateWithError(0.5, 4e-3, 100, seed=0, extra={"tie_fraction": 0.0, "tie_flag": False})
        est.extra["refined"] = EstimateWithError(0.5005, 4e-3, 100, seed=0, extra=dict(est.extra))
        est.extra["grid_bias"] = EstimateWithError(5e-4, 1e-4, 100, seed=0, extra={"dof": 15})
        return est

    monkeypatch.setattr(theorem, "argmin_coincidence", direct_route)
    fixed_rhs(monkeypatch, 0.5, 0.0)
    d = verify_theorem(QUARTER_HALF, 0.5, seed=1, lhs_n_grid=16, lhs_samples=100, n_nodes=2,
                       node_samples=100, check_stability=True).as_dict()
    assert d["grid_bias_allowance"] == pytest.approx(1e-3, rel=1e-12)
    assert d["grid_bias_threshold"] == t and d["grid_bias"]["dof"] == 15
    assert d["grid_stability_ok"] is False and d["pass"] is False


def predicted_top_variance(rows):
    """The variance of one top-level walk that the levels below predict, computed apart from _top_walks.

    A refined level's variance per walk times its grid, pooled over those
    levels' walks, over twice the finest grid.
    """
    refined = rows[1:]
    pooled = sum(row["samples"] ** 2 * row["stderr"] ** 2 * row["grid"] for row in refined)
    return pooled / sum(row["samples"] for row in refined) / (2 * rows[-1]["grid"])


def test_the_top_levels_first_round_comes_from_its_prediction():
    # before the top level walks, _top_walks pools the refined levels
    # below into a variance per walk at 2 n_grid and asks for the walks
    # that variance needs for a stderr of the allowance / 6.5, at most the
    # cap; the top level's first round is its answer.  On a 4-level run
    # the answer equals the prediction computed apart; a one-level run has
    # no refined level, and the answer is None
    seen = []

    def hook(est, walks):
        seen.append((walks, est))
        return None if walks else theorem._top_walks(est, walks, 1e-4, 10**6)

    for n_grid, n, levels in ((1024, 4000, 4), (16, 20_000, 1)):
        seen.clear()
        est = argmin_coincidence(QUARTER_HALF, 0.5, n_grid, n, seed=97, top_walks=hook)
        (walks, before), (first, _) = seen
        rows = before.extra["levels"]
        assert walks == 0 and len(rows) == levels and "grid_bias" not in before.extra
        assert est.extra["refined"].extra["levels"][-1]["samples"] == first
        answer = theorem._top_walks(before, 0, 1e-4, 10**6)
        if levels == 1:
            assert answer is None and first == 32
            continue
        variance = predicted_top_variance(rows)
        assert variance > 0.0 and theorem._TOP_AIM == 6.5
        assert answer == first > 32
        assert answer == pytest.approx(variance * (6.5 / 1e-4) ** 2, abs=1.0)
        assert theorem._top_walks(before, 0, 1e-4, 100) == 100


def test_the_top_levels_first_round_is_its_prediction_for_the_allowance(monkeypatch):
    # before the top level walks, the hook asks for the walks its predicted
    # variance per walk needs for a stderr of the allowance / 6.5, at most
    # the cap, and the top level walks them, on 1/4..1/2 at rho 0.3; a
    # one-level run has no prediction, and its first round is the floor of
    # 32 walks, after which it walks on by its own variance
    calls = spied_top_walks(monkeypatch)
    for n_grid, n, levels in ((1024, 1200, 4), (64, 100, 1)):
        calls.clear()
        report = verify_theorem(QUARTER_HALF, 0.3, seed=4, lhs_n_grid=n_grid, lhs_samples=n,
                                n_nodes=8, node_samples=100, check_stability=True)
        before, walks, allowance, first = calls[0]
        assert walks == 0 and "grid_bias" not in before.extra
        assert len(before.extra["levels"]) == len(report.lhs.extra["levels"]) == levels
        if levels == 1:
            assert first is None and calls[1][1] == coupled._LEVEL_FLOOR == 32
        else:
            variance = predicted_top_variance(before.extra["levels"])
            assert first == pytest.approx(min(64 * n, variance * (6.5 / allowance) ** 2), abs=1.0)
            assert first > 32 and calls[1][1] == first
        assert report.lhs_refined.extra["levels"][-1]["samples"] >= calls[1][1]


def test_a_material_bias_on_one_level_fails_within_a_few_walks(monkeypatch):
    # one step on 1/2..1 against two at rho 0.9 (20 000 samples, seed 2,
    # 2 nodes of 100 points): a bias of 0.017 against an allowance of
    # 1.3e-4.  The run is one level, so the top level starts from the
    # floor of 32 walks and walks on by its own variance, to 128 and then
    # 197 walks, where the check fails; the cap is 1 280 000
    calls = spied_top_walks(monkeypatch)
    report = verify_theorem(TimeSet.parse("1/2..1"), 0.9, seed=2, lhs_n_grid=2, lhs_samples=20_000,
                            n_nodes=2, node_samples=100, check_stability=True)
    assert len(report.lhs.extra["levels"]) == 1 and calls[0][3] is None
    assert report.lhs_refined.extra["levels"][-1]["samples"] <= 2048
    band = report.as_dict()["grid_bias_threshold"]
    assert report.grid_bias.mean - band * report.grid_bias.stderr > report.as_dict()["grid_bias_allowance"]
    assert not report.stability_ok and not report.passed


def test_the_stability_check_on_the_single_interval_benchmark_case(monkeypatch):
    # theorem-check --A 1/4..1/2 --rho 0.3 --n-grid 4096 --samples 1200
    # --nodes 8 --node-samples 400 --check-stability: the top level's first
    # round at 8192 is fewer than the 573 walks it took when it was sized
    # as the rest of the budget (seed 3 then walks on, to 1 081), and lhs
    # is bit for bit the run without the check
    calls = spied_top_walks(monkeypatch)
    for seed in range(1, 6):
        calls.clear()
        checked = verify_theorem(QUARTER_HALF, 0.3, seed, 4096, 1200, 8, 400, check_stability=True)
        top = checked.lhs_refined.extra["levels"][-1]
        assert top["grid"] == 8192 and calls[0][1] == 0 and calls[0][3] < 573
        assert checked.stability_ok and checked.passed
        assert checked.lhs == verify_theorem(QUARTER_HALF, 0.3, seed, 4096, 1200, 8, 400).lhs


@pytest.mark.slow
def test_stability_checks_on_correct_code_pass_within_the_cap():
    # on 1/2..1 at rho 0.5, n_grid 32 and 200 samples the grid bias is
    # well inside the allowance: every check resolves as a pass, none
    # walks its top level to the cap of 64 budgets
    cap = theorem._TOP_BUDGETS * 200
    for seed in range(1, 101):
        report = verify_theorem(TimeSet.parse("1/2..1"), 0.5, seed=seed, lhs_n_grid=32,
                                lhs_samples=200, n_nodes=2, node_samples=100,
                                check_stability=True)
        assert report.stability_ok and report.passed, seed
        assert report.lhs_refined.extra["levels"][-1]["samples"] < cap, seed


def test_verdict_band_is_a_student_t_band():
    # the band is a Student t quantile at the normal 4-sigma tail, at the
    # Welch-Satterthwaite dof of the two sides: the LHS's over its cells,
    # the RHS's over its factors' replicates (15 each)
    for nu, width in ((148, 4.12), (17, 5.26), (30, 4.65)):
        assert band_multiplier(nu) == pytest.approx(width, abs=0.005)
    assert band_multiplier(None) == band_multiplier(math.inf) == pytest.approx(4.0, abs=2e-4)
    assert all(band_multiplier(nu) > 4.0 for nu in (1, 2.5, 1e3, 1e9))
    report = verify_theorem(SAMPLED, 0.5, seed=8, lhs_n_grid=256,
                            lhs_samples=500, n_nodes=2, node_samples=500)
    lhs, rhs = report.lhs, report.rhs
    cells = sum(row["strata"] for row in lhs.extra["levels"])
    assert 1.0 <= lhs.extra["dof"] <= cells
    # the RHS's over its factors' variance terms (3 per node, 15 dof each)
    # and the quadrature term of its exact middle gaps, at infinite dof
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
    report = verify_theorem(SAMPLED, 0.5, seed=8,
                            lhs_n_grid=256, lhs_samples=500, n_nodes=3,
                            node_samples=500)
    rows = report.rhs.extra["nodes"]
    terms = [sum(rhs_node_terms(r)) for r in rows]
    # the sampling part of the RHS variance is the node terms; the rest is
    # the quadrature error of the exact middle gaps
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
    for region in (QUARTER_HALF, SPLIT):
        d = verify_theorem(region, 0.5, seed=6, lhs_n_grid=128, lhs_samples=500,
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


# -- exact two-component factors ---------------------------------------------

def pair_factor(a1, b1, a2, b2, rho):
    ends = np.array([[a1, b1, a2, b2]])
    terms = theorem._pair_terms(ends, rho)
    assert terms[0] > 0, (a1, b1, a2, b2, rho)
    return float(theorem._pair_factors(ends, rho, terms)[0])


def split_side(t):
    """The two-component side of the split region at an outer gap's node t."""
    side, = (s for s in _pullback(t, SPLIT) if s)
    return tuple(x for component in side for x in component)


# the split region's sides nearest its interior ends: the 8-node rule's
# (entrance time 4.7e-6) and criterion 7's 24-node rule's (8.4e-9), and a
# side from each outer gap's middle
_SPLIT_SIDES = [split_side(_gauss_nodes(0.0, 0.25, 8, (False, True))[0][-1]),
                split_side(_gauss_nodes(0.75, 1.0, 8, (True, False))[0][0]),
                split_side(_gauss_nodes(0.0, 0.25, 24, (False, True))[0][-1]),
                split_side(_gauss_nodes(0.75, 1.0, 24, (True, False))[0][0]),
                split_side(0.1), split_side(0.9)]


def test_split_sides_reach_the_smallest_entrance_times():
    assert [side[0] for side in _SPLIT_SIDES[:4]] == pytest.approx(
        [4.73237651e-6, 4.73237651e-6, 8.42492e-9, 8.42492e-9], rel=1e-6)


@pytest.mark.slow
@pytest.mark.parametrize("side, rho", [(side, 0.5) for side in _SPLIT_SIDES[:2] + _SPLIT_SIDES[4:]]
                         + [(_SPLIT_SIDES[0], 0.1), (_SPLIT_SIDES[1], 0.9)])
def test_pair_factors_match_sampled_survival(side, rho):
    # the oracle shares no code with the grid: the wedge-kernel survival
    # walk on 2^20 randomized-QMC points
    a1, b1, a2, b2 = side
    est = m_lambda_functional([(a1, b1), (a2, b2)], rho, a1, 1 << 20, seed=3)
    assert abs(pair_factor(*side, rho) - est.mean) < 4 * est.stderr


def pair_sweep():
    """Random two-component sides inside the exact domain at rho 0-0.99, and the split region's."""
    rng = np.random.default_rng(11)
    cases = [(side, 0.5) for side in _SPLIT_SIDES] + [(_SPLIT_SIDES[2], 0.1), (_SPLIT_SIDES[3], 0.99)]
    while len(cases) < 40:
        rho = float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]))
        ends = np.sort(rng.uniform(0.0, 1.0, 4))
        if rng.random() < 0.3:
            ends[3] = 1.0
        if rng.random() < 0.2:
            ends[0] *= 1e-3
        if theorem._pair_terms(ends[None], rho)[0]:
            cases.append((tuple(ends), rho))
    return cases


@pytest.mark.slow
def test_pair_factor_grid_is_within_its_stated_error_of_a_finer_grid(monkeypatch):
    # every node count doubled, the second run's series to twice the nu,
    # and the first run's to twice its terms
    cases = pair_sweep()
    lean = [pair_factor(*side, rho) for side, rho in cases]
    terms = [int(theorem._pair_terms(np.array([side]), rho)[0]) for side, rho in cases]
    for name in ("_PAIR_V_NODES", "_PAIR_D_NODES", "_PAIR_S_NODES", "_PAIR_SIGMA0_NODES",
                 "_PAIR_SIGMA_NODES", "_PAIR_NU_SPAN"):
        monkeypatch.setattr(theorem, name, 2 * getattr(theorem, name))
    # the refined Bessel table, built afresh and kept out of the per-rho cache
    monkeypatch.setattr(theorem, "_pair_table", theorem._pair_table.__wrapped__)
    for (side, rho), value, count in zip(cases, lean, terms):
        fine = theorem._pair_factors(np.array([side]), rho, np.array([2 * count]))[0]
        assert abs(value - fine) <= theorem._PAIR_GRID_ERROR, (side, rho)
        assert 0.0 < value < 1.0


def test_pair_factors_are_one_batch():
    # a batch's factors are each side's own, whatever else is in the batch
    cases = pair_sweep()[:12]
    for rho in (0.3, 0.9):
        ends = np.array([side for side, _ in cases])
        terms = theorem._pair_terms(ends, rho)
        live = terms > 0
        batch = theorem._pair_factors(ends[live], rho, terms[live])
        alone = [theorem._pair_factors(ends[i:i + 1], rho, terms[i:i + 1])[0]
                 for i in np.flatnonzero(live)]
        assert batch == pytest.approx(alone, abs=1e-15)


def test_one_bessel_table_per_rho():
    # the second run's table depends on rho alone: it is built once per rho
    # for every two-component side, whichever rule or call evaluates them,
    # and every caller shares its read-only arrays
    theorem._pair_table.cache_clear()
    first = rhs_integral(SPLIT, 0.5, 8, 100, seed=1)
    assert theorem._pair_table.cache_info().misses == 1
    # 8 + 4 nodes per gap: one pair side per outer gap's node, two one-component
    # sides per middle gap's, whose 16-node rule adds two more per node
    assert first.extra["nodes_per_gap"] == [8, 16, 8]
    assert first.extra["exact_factors"] == 2 * (8 + 4) + 2 * (8 + 4 + 16)
    second = rhs_integral(SPLIT, 0.5, 8, 100, seed=2)
    assert (second.mean, second.stderr) == (first.mean, first.stderr)
    # from 4 nodes the outer gaps double to 8: two rounds read pair sides
    theorem._pair_table.cache_clear()
    assert rhs_integral(SPLIT, 0.5, 4, 100, seed=1).extra["nodes_per_gap"][::2] == [8, 8]
    assert theorem._pair_table.cache_info().misses == 1
    nu, sigma, kernel = theorem._pair_table(0.5)
    assert theorem._pair_table(0.5)[2] is kernel
    assert not any(array.flags.writeable for array in (nu, sigma, kernel))


def test_gauss_legendre_rules_are_built_once_and_read_only():
    # every caller shares the cached arrays, so none may write to them
    x, w = theorem._legendre(8)
    again = theorem._legendre(8)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0
    want = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(x, want[0]) and np.array_equal(w, want[1])


def full_pair_table(rho, banded=theorem._pair_table):
    """_pair_table with every (sigma0, sigma) entry evaluated: the band's zeros included."""
    alpha = math.acos(-rho)
    nu, sigma, _ = banded(rho)
    sigma0 = theorem._PAIR_SIGMA0_SPAN * theorem._chebyshev_nodes(theorem._PAIR_SIGMA0_NODES)[0] ** 2
    _, w = theorem._gauss_span(theorem._PAIR_SIGMA0_SPAN + theorem._PAIR_SIGMA_PAD,
                               theorem._PAIR_SIGMA_NODES)
    kernel = (2.0 / alpha) * sigma * w * np.exp(-(sigma - sigma0[:, None]) ** 2 / 2.0) * ive(
        nu[:, None, None], sigma * sigma0[:, None])
    return nu, sigma, kernel


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.9])
def test_banded_bessel_table_leaves_out_only_negligible_entries(rho):
    banded, full = theorem._pair_table(rho)[2], full_pair_table(rho)[2]
    assert np.abs(banded - full).max() <= 1e-30
    assert np.count_nonzero(banded) < banded.size / 2 and full.max() > 0.25


def test_banded_bessel_table_leaves_the_split_regions_factors(monkeypatch):
    # every two-component side of the split region's 8- and 4-node rules
    rules = [_rule(SPLIT, gap, n, 0.5)
             for gap in SPLIT.complement_components() for n in (8, 4)]
    ends = np.array([[x for component in side for x in component]
                     for rule in rules for side in rule[2] if len(side) == 2])
    terms = theorem._pair_terms(ends, 0.5)
    assert len(ends) == 24 and terms.all()
    banded = theorem._pair_factors(ends, 0.5, terms)
    monkeypatch.setattr(theorem, "_pair_table", full_pair_table)
    assert theorem._pair_factors(ends, 0.5, terms) == pytest.approx(banded, rel=0.0, abs=1e-15)


def test_pair_sides_outside_the_domain_keep_sampling(monkeypatch):
    # decided from the ends before anything is evaluated: a gap below its
    # floor (on [0.5, 0.6] u [0.61, 0.9] the grid reads 0.85392 where finer
    # grids and 2^20 RQMC points agree on 0.85224), a short tail, a grid
    # reaching past the Bessel table, rho 1, and three components
    def forbidden(*args, **kwargs):
        raise AssertionError("an exact factor was evaluated")

    monkeypatch.setattr(theorem, "_pair_factors", forbidden)
    monkeypatch.setattr(theorem, "_exact_factors", forbidden)
    sides = [[(0.5, 0.6), (0.61, 0.9)], [(0.2, 0.4), (0.6, 0.99)], [(0.2, 0.6), (0.7, 0.72)],
             [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]]
    for rho in (0.5, 1.0):
        assert _series_terms(sides, rho).tolist() == [0, 0, 0, 0]
    assert _series_terms([[(0.2, 0.4), (0.6, 0.99)]], 0.5)[0] == 0
    assert _series_terms([[(0.2, 0.4), (0.6, 0.95)]], 0.5)[0] > 0  # the tail past its floor
    short, = _rhs_factors(sides[:1], np.zeros(1, dtype=int), 0.5, 20_000, [7])
    assert short.n_samples == 20_000 and short.extra == {"replicates": 16}
    assert abs(short.mean - 0.8522396) < 4 * short.stderr


# -- the node rule's error in the RHS band -----------------------------------

def grid_floor(gaps, error=theorem._FACTOR_GRID_ERROR):
    """The exact factors' grid error over the gaps: twice it per node, times their arc-sine mass."""
    return 2 * error * sum(theta(b) - theta(a) for a, b in gaps)


def gap_floor(region, gap):
    """A Gauss-Legendre gap's floor: the pair grid error once a side at its nodes has two components."""
    two = any(len(side) == 2 for t in _gauss_nodes(*gap, 4, (gap[0] > 0.0, gap[1] < 1.0))[0]
              for side in _pullback(t, region))
    return grid_floor([gap], theorem._PAIR_GRID_ERROR if two else theorem._FACTOR_GRID_ERROR)


def nodes_run(start, final):
    """The nodes of every rule a gap ran from start to final nodes: the ceil(start/2)-node one first."""
    return -(-start // 2) + 2 * final - start


@pytest.mark.parametrize("rho, reference", [(0.3, 0.5879826957), (0.7, 0.6716798325)])
@pytest.mark.parametrize("n_nodes", [8, 24])
def test_quadrature_error_covers_the_node_rule(rho, reference, n_nodes):
    # every factor of 1/4..1/2 is exact: the RHS's only error is the node
    # rule's, and its estimate, never below the factors' own grid error,
    # covers the true one.  At rho 0.7 the upper gap's 8-node band, 3.04e-5,
    # exceeds the tolerance, and that gap doubles
    est = rhs_integral(QUARTER_HALF, rho, n_nodes, 100, seed=1)
    extra = est.extra
    assert extra["nodes_per_gap"] == ([8, 16] if (rho, n_nodes) == (0.7, 8) else [n_nodes, n_nodes])
    assert extra["quadrature_error"] >= abs(est.mean - reference)
    assert extra["quadrature_error"] >= grid_floor(QUARTER_HALF.complement_components())
    assert est.stderr == extra["quadrature_error"] == sum(extra["gap_errors"]) > 0.0
    assert "replicates" not in extra and extra["dof"] is None and extra["top_node"] is None
    # every node of each gap's rules, two sides each, one empty
    assert extra["exact_factors"] == sum(nodes_run(n_nodes, n) for n in extra["nodes_per_gap"])
    assert est.n_samples == 32 * 16 * extra["exact_factors"]
    assert all(r["left_stderr"] == r["right_stderr"] == 0.0 for r in extra["nodes"])
    # no stream is read: the seed changes nothing but the echo
    other = rhs_integral(QUARTER_HALF, rho, n_nodes, 100, seed=2)
    assert (other.mean, other.stderr) == (est.mean, est.stderr)


def exact_gap_sum(region, gap, n_nodes, rho):
    """The n_nodes-node rule's sum over a gap whose factors are all exact."""
    rule = _rule(region, gap, n_nodes, rho)
    assert _all_exact(rule)
    _, weights, sides, terms = rule
    factors = _rhs_factors(sides, terms, rho, 100, [])  # no side is sampled, no stream read
    return sum(float(w) * left.mean * right.mean
               for w, left, right in zip(weights, factors[0::2], factors[1::2]))


def gap_rows(est, g):
    return [r for r in est.extra["nodes"] if r["component"] == g]


_GAUSS_CASES = [("1/4..1/2", rho) for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)] + [
    (text, rho) for text in ("1/4..1/2,5/8..3/4", "0..1/4,3/4..1", "1/8..7/8")
    for rho in (0.1, 0.5, 0.99)]


@pytest.mark.parametrize("text, rho", _GAUSS_CASES)
def test_gauss_band_covers_the_node_rule_on_every_exact_gap(text, rho):
    # from 4 nodes up a gap whose factors are all exact takes the graded
    # Gauss-Legendre rule, banded by its distance from the rule at half its
    # nodes (ceil(n/2) in the first round) plus the grid floor, and doubles
    # while that band exceeds the tolerance; against 96-node values the
    # final rule's band covers its true error, gap by gap, and so does
    # |I_2n - I_n| alone at 2n = 16 and 32 (worst true/band ratio 0.22).
    # Every gap of these regions is exact, the split region's outer gaps
    # through their two-component sides, with the pair grid floor
    region = TimeSet.parse(text)
    gaps = region.complement_components()
    references = [exact_gap_sum(region, gap, 96, rho) for gap in gaps]
    for g, gap in enumerate(gaps):
        sums = {n: exact_gap_sum(region, gap, n, rho) for n in (8, 16, 32)}
        for n in (16, 32):
            assert abs(sums[n] - references[g]) <= abs(sums[n] - sums[n // 2]), (g, n)
    for n_nodes in (4, 8, 16, 24):
        est = rhs_integral(region, rho, n_nodes, 100, seed=1)
        assert "replicates" not in est.extra and est.stderr == est.extra["quadrature_error"]
        band = 0.0
        for g, (a, b) in enumerate(gaps):
            n = est.extra["nodes_per_gap"][g]
            rows = gap_rows(est, g)
            times, weights = _gauss_nodes(a, b, n, (a > 0.0, b < 1.0))
            assert [r["t"] for r in rows] == times and [r["weight"] for r in rows] == weights.tolist()
            fine = sum(r["weight"] * r["left"] * r["right"] for r in rows)
            coarse = exact_gap_sum(region, gaps[g], -(-n // 2), rho)
            gap_band = abs(fine - coarse) + gap_floor(region, gaps[g])
            assert est.extra["gap_errors"][g] == pytest.approx(gap_band, rel=1e-9)
            assert abs(fine - references[g]) <= gap_band, (g, n_nodes)
            # the gap stopped at the first count within the tolerance
            assert (n == n_nodes) or gap_band <= theorem._GAP_TOLERANCE, (g, n_nodes)
            band += gap_band
        assert est.extra["quadrature_error"] == pytest.approx(band, rel=1e-9)


def test_every_gap_takes_the_gauss_nodes():
    # node times and weights are _gauss_nodes' own, bit for bit, on gaps
    # with a sampled factor too (the outer gaps of SAMPLED see three
    # components), at the count each gap's final rule ran
    for region, n_nodes in [(QUARTER_HALF, 1), (QUARTER_HALF, 3), (SAMPLED, 2), (SAMPLED, 8), (SPLIT, 8)]:
        est = rhs_integral(region, 0.5, n_nodes, 100, seed=1)
        for g, (a, b) in enumerate(region.complement_components()):
            times, weights = _gauss_nodes(a, b, est.extra["nodes_per_gap"][g], (a > 0.0, b < 1.0))
            rows = gap_rows(est, g)
            assert [r["t"] for r in rows] == times, (region, n_nodes, g)
            assert [r["weight"] for r in rows] == weights.tolist()


def test_gauss_nodes_total_the_arcsine_measure():
    # the Gauss-Legendre rule integrates the graded map's derivative, a
    # polynomial of degree 2, exactly; a gap with two interior ends is
    # split at its theta midpoint into n // 2 + (n - n // 2) nodes
    for gap, interior in _INTERIOR:
        for n_nodes in (4, 5, 24):
            times, weights = _gauss_nodes(*gap, n_nodes, interior)
            assert weights.shape == (n_nodes,) and np.all(weights > 0.0)
            assert weights.sum() == pytest.approx(theta(gap[1]) - theta(gap[0]), rel=1e-12)
            assert all(gap[0] < t < gap[1] for t in times) and times == sorted(times)
            if all(interior):
                mid = (theta(gap[0]) + theta(gap[1])) / 2
                assert sum(theta(t) < mid for t in times) == n_nodes // 2


def test_quadrature_error_comes_only_from_exact_gaps():
    # on SAMPLED only the middle gaps are exact, their sides of one and two
    # components; 6 nodes run 8, the middle gaps' 8-node bands exceed the
    # tolerance, and each ends at 16 nodes, banded by its distance from its
    # own 8-node rule plus the pair grid floor, while the sampled outer
    # gaps keep 8 nodes and add nothing
    region = SAMPLED
    est = rhs_integral(region, 0.5, 6, 400, seed=4)
    rows = est.extra["nodes"]
    gaps = region.complement_components()
    assert est.extra["nodes_per_gap"] == [8, 16, 16, 8]
    assert est.extra["gap_errors"][0] == est.extra["gap_errors"][3] == 0.0
    band = 0.0
    for g in (1, 2):
        coarse = exact_gap_sum(region, gaps[g], 8, 0.5)
        band += abs(sum(r["weight"] * r["left"] * r["right"] for r in gap_rows(est, g)) - coarse)
    assert est.extra["quadrature_error"] == pytest.approx(
        band + grid_floor(gaps[1:3], theorem._PAIR_GRID_ERROR), rel=1e-12)
    # two exact sides a node on the middle gaps' 4-, 8- and 16-node rules
    assert est.extra["exact_factors"] == 2 * 2 * (4 + 8 + 16) and est.extra["replicates"] == 16
    # the outer gaps' factors are sampled on the same streams as ever
    for r in rows:
        if r["component"] in (1, 2):
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


def test_four_nodes_on_a_quarter_half_run_the_eight_node_rule():
    # every 4-node band exceeds the tolerance: each gap doubles to 8 nodes,
    # banded against its 4-node rule, and the result is the 8-node run's
    region, rho = QUARTER_HALF, 0.3
    doubled = rhs_integral(region, rho, 4, 400, seed=3)
    eight = rhs_integral(region, rho, 8, 400, seed=3)
    assert doubled.extra["nodes_per_gap"] == eight.extra["nodes_per_gap"] == [8, 8]
    assert (doubled.mean, doubled.stderr, doubled.extra["gap_errors"]) == \
        (eight.mean, eight.stderr, eight.extra["gap_errors"])


def test_a_coarse_rule_with_a_sampled_side_raises(monkeypatch):
    # the coarse rule of an exact gap has no sampled side
    # (test_the_coarse_rule_of_an_exact_gap_is_exact); were one sampled,
    # the run stops before any factor is evaluated, never banding that gap 0
    series_terms = theorem._series_terms

    def coarse_node_sampled(sides, rho):
        terms = series_terms(sides, rho)
        if len(sides) == 2 * 2:
            terms[:2] = 0
        return terms

    def forbidden(*args, **kwargs):
        raise AssertionError("a factor was evaluated")

    monkeypatch.setattr(theorem, "_series_terms", coarse_node_sampled)
    monkeypatch.setattr(theorem, "_rhs_factors", forbidden)
    with pytest.raises(RuntimeError, match="premise"):
        rhs_integral(QUARTER_HALF, 0.3, 4, 400, seed=3)


def random_region(rng):
    """A region of 1-4 components on the 1/64 grid, neither empty nor full; 3 in 10 touch 0 or 1."""
    k = int(rng.integers(1, 5))
    ends = np.sort(rng.choice(np.arange(1, 64), size=2 * k, replace=False))
    touch = rng.random()
    if touch < 0.15:
        ends[0] = 0
    elif touch < 0.3:
        ends[-1] = 64
    text = ",".join(f"{lo}/64..{hi}/64" for lo, hi in zip(ends[0::2], ends[1::2]))
    return TimeSet.parse(text)


def test_the_coarse_rule_of_an_exact_gap_is_exact():
    # _series_terms' premise, on 40 seeded random regions at rho 0.1-0.99
    # and 1, and on two whose pair side's tail is 1/20 of its second run,
    # _PAIR_TAIL_FLOOR, at every t (rounding once read it either side):
    # (a) along a gap the left side is exact on an interval reaching the
    # gap's lower end and the right side on one reaching its upper end;
    # (b) the coarse rule's nodes lie within the fine rule's span; and so
    # a fine rule with no sampled side has a coarse rule with none
    rng = np.random.default_rng(33)
    cases = [(random_region(rng), 1.0 if i % 8 == 0 else float(rng.uniform(0.1, 0.99)))
             for i in range(40)]
    cases += [(TimeSet.parse("20/64..28/64,43/64..63/64"), 0.78),
              (TimeSet.parse("1/64..21/64,26/64..39/64,51/64..54/64"), 0.84)]
    fines = exact_fines = 0
    for region, rho in cases:
        for a, b in region.complement_components():
            times = np.linspace(a, b, 202)[1:-1]
            sides = [side for t in times for side in _pullback(float(t), region)]
            exact = np.array([bool(k) or not side for k, side in zip(_series_terms(sides, rho), sides)])
            assert np.all(np.diff(exact[0::2].astype(int)) <= 0), (region, rho, (a, b))
            assert np.all(np.diff(exact[1::2].astype(int)) >= 0), (region, rho, (a, b))
            for n in (4, 5, 6, 7, 8, 9, 16, 24):
                fine, coarse = _rule(region, (a, b), n, rho), _rule(region, (a, b), -(-n // 2), rho)
                assert min(fine[0]) <= min(coarse[0]) and max(coarse[0]) <= max(fine[0])
                fines += 1
                if _all_exact(fine):
                    exact_fines += 1
                    assert _all_exact(coarse), (region, rho, (a, b), n)
    # the regions reach both outcomes
    assert 0 < exact_fines < fines


def test_quadrature_error_at_one_and_two_nodes():
    # below _GAUSS_MIN_NODES a gap's rule starts with that many nodes, so
    # 1-3 nodes give the 4-node result exactly, band and all, and 5-7 the
    # 8-node one; from 4 nodes every gap doubles at least once
    for rho, doubled in ((0.5, [8, 16]), (0.9, [8, 8])):
        four = rhs_integral(QUARTER_HALF, rho, 4, 100, seed=1)
        assert four.extra["nodes_per_gap"] == doubled
        assert four.extra["exact_factors"] == sum(nodes_run(4, n) for n in doubled)
        eight = rhs_integral(QUARTER_HALF, rho, 8, 100, seed=1)
        for n_nodes, start in ((1, four), (2, four), (3, four), (5, eight), (6, eight), (7, eight)):
            est = rhs_integral(QUARTER_HALF, rho, n_nodes, 100, seed=1)
            assert (est.mean, est.stderr, est.n_samples, est.extra) == \
                (start.mean, start.stderr, start.n_samples, start.extra)


# -- per-gap node doubling ---------------------------------------------------

def test_only_the_split_regions_middle_gap_doubles():
    # at 8 nodes the middle gap [1/2, 5/8] is banded 5.49e-4 against a true
    # error of 3.1e-6 and doubles once, to 16 nodes; the outer gaps' bands,
    # 2.2e-5 and 1.2e-5, are within the tolerance.  The RHS band falls from
    # 5.85e-4 to under 5e-5 and still covers the reference
    est = rhs_integral(SPLIT, 0.5, 8, 100, seed=1)
    extra = est.extra
    assert extra["nodes_per_gap"] == [8, 16, 8]
    assert all(error <= theorem._GAP_TOLERANCE for error in extra["gap_errors"])
    assert abs(est.mean - 0.48366183) <= extra["quadrature_error"] <= 5e-5
    assert est.stderr == extra["quadrature_error"] == sum(extra["gap_errors"])


def test_no_gap_doubles_on_a_quarter_half_at_rho_three_tenths():
    # the 8-node bands, 2.35e-5 and 2.70e-5, are within the tolerance: the
    # result is the 8-node rule's, as before gaps could double
    est = rhs_integral(QUARTER_HALF, 0.3, 8, 100, seed=1)
    assert est.extra["nodes_per_gap"] == [8, 8]
    assert (est.mean, est.stderr, est.extra["exact_factors"], est.n_samples) == \
        (0.5879827012224867, 5.0563276335712176e-05, 24, 12288)


@pytest.mark.parametrize("text, rho, mean, stderr", [
    ("1/4..1/2", 0.3, 0.5879826957453307, 8.388290455519728e-09),
    ("1/4..1/2", 0.7, 0.6716798325857818, 1.712676448323383e-08),
    ("1/4..1/2,5/8..3/4", 0.5, 0.4836618303406971, 1.38193800426703e-06)])
def test_criterion_seven_keeps_its_24_node_rules(text, rho, mean, stderr):
    # every band of criterion 7's RHS is within the tolerance at 24 nodes:
    # no gap doubles, and its numbers are the 24-node rule's, as before
    region = TimeSet.parse(text)
    est = rhs_integral(region, rho, 24, 20_000, seed=1)
    assert est.extra["nodes_per_gap"] == [24] * len(region.complement_components())
    assert (est.mean, est.stderr) == (mean, stderr)


def test_no_rule_is_evaluated_twice(monkeypatch):
    # one _rhs_factors call a round: the first takes every gap's starting
    # and coarse rules, each later one only the doubled gaps' new rules,
    # whose coarse rule is the last round's fine one
    calls = []
    evaluate = theorem._rhs_factors

    def spy(sides, *args):
        calls.append([(tuple(left), tuple(right)) for left, right in zip(sides[0::2], sides[1::2])])
        return evaluate(sides, *args)

    monkeypatch.setattr(theorem, "_rhs_factors", spy)
    for region, n_nodes, rounds in ((SPLIT, 8, [3 * (8 + 4), 16]), (QUARTER_HALF, 4, [2 * (4 + 2), 16, 16])):
        calls.clear()
        est = rhs_integral(region, 0.5, n_nodes, 100, seed=1)
        nodes = [node for call in calls for node in call]
        assert [len(call) for call in calls] == rounds
        assert len(set(nodes)) == len(nodes) == sum(nodes_run(n_nodes, n) for n in est.extra["nodes_per_gap"])


def test_with_no_tolerance_every_gap_doubles_up_to_the_node_cap(monkeypatch):
    # every band exceeds a tolerance of 0, its grid floor alone: each gap
    # stops at its starting count's largest power-of-two multiple within
    # NODE_CAP, here 64 to keep the rules small, with no error
    monkeypatch.setattr(theorem, "_GAP_TOLERANCE", 0.0)
    monkeypatch.setattr(theorem, "NODE_CAP", 64)
    for region, n_nodes, final in ((SPLIT, 5, 64), (SPLIT, 8, 64), (QUARTER_HALF, 20, 40)):
        est = rhs_integral(region, 0.5, n_nodes, 100, seed=1)
        assert est.extra["nodes_per_gap"] == [final] * len(region.complement_components())
        assert est.stderr == est.extra["quadrature_error"] > 0.0


def test_a_doubled_rule_with_a_sampled_side_is_never_evaluated(monkeypatch):
    # the split region's middle gap would double to 16 nodes; when a side of
    # that rule would be sampled, the rule is dropped before any factor of it
    # is evaluated, and the gap keeps its 8-node rule and band
    series_terms = theorem._series_terms

    def sixteen_sampled(sides, rho):
        terms = series_terms(sides, rho)
        if len(sides) == 2 * 16:
            terms[0] = 0
        return terms

    def forbidden(*args, **kwargs):
        raise AssertionError("a factor was sampled")

    monkeypatch.setattr(theorem, "_series_terms", sixteen_sampled)
    monkeypatch.setattr(theorem, "m_lambda_functional", forbidden)
    est = rhs_integral(SPLIT, 0.5, 8, 100, seed=1)
    assert est.extra["nodes_per_gap"] == [8, 8, 8]
    assert est.extra["gap_errors"][1] > theorem._GAP_TOLERANCE
    monkeypatch.setattr(theorem, "_GAP_TOLERANCE", math.inf)
    kept = rhs_integral(SPLIT, 0.5, 8, 100, seed=1)
    assert (est.mean, est.stderr, est.n_samples, est.extra) == (kept.mean, kept.stderr, kept.n_samples, kept.extra)


def test_five_nodes_run_eight_whose_band_covers_the_rule():
    # on 0..30/128 at rho 0.1 the 5-node rule crosses its 3-node one: its
    # true error, 2.3e-5, is 3.9 times |I_5 - I_3|, within the tolerance,
    # so its gap would never double.  5 nodes run 8, banded 5.7e-5, which
    # doubles the gap; the final band covers the error against 64 nodes
    region, rho = TimeSet.parse("0..30/128"), 0.1
    gap, = region.complement_components()
    reference = exact_gap_sum(region, gap, 64, rho)
    five, three = exact_gap_sum(region, gap, 5, rho), exact_gap_sum(region, gap, 3, rho)
    assert abs(five - three) < min(theorem._GAP_TOLERANCE, abs(five - reference) / 3)
    est = rhs_integral(region, rho, 5, 100, seed=1)
    assert est.extra["nodes_per_gap"] == [16]
    assert abs(est.mean - reference) <= est.extra["quadrature_error"]
