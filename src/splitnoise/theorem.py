"""Two independent routes to the limiting sign correlation, compared.

Left-hand side: the probability that a pattern-coupled Brownian pair
attains its minimum at the same time, simulated directly (exact off
the region, gridded on it).

Right-hand side: an arc-sine-weighted integral over the unperturbed
gaps.  At a gap time t the perturbation region is pulled back through
the two scaling maps x -> t + (1-t)x and x -> t(1-x), and each pulled-
back set gives an entrance-law survival-correlation factor.  A side of
one component is computed exactly, from a closed-form series on a
fixed Gauss-Legendre grid (_exact_factors); a side of more components,
or one the grid cannot resolve, is a randomized quasi-Monte Carlo
estimate (m_lambda_functional).  The quadrature substitutes
t = sin^2(pi theta / 2), under which the arc-sine weight becomes the
uniform measure in theta, so the endpoint singularities vanish
exactly; nodes are graded toward a gap's interior ends, where the
factors vanish like a small power of the distance.  On a gap whose
factors are all exact, the rule's own error is estimated from a coarser
rule and joins the band (rhs_integral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import erf, gammaln, hyp1f1, spherical_jn, stdtrit

from .coupled import (_TAIL_4SIGMA, _check_steps, _direct_plan, argmin_coincidence, discrete_phi,
                      m_lambda_functional)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import (SAMPLE_CAP, EstimateWithError, _check_samples, derive_seed,
                       product_estimate, welch_dof)
from .timesets import TimeSet, affine_preimage

NODE_CAP = 10**5  # quadrature nodes per gap

# sub-stream tags
_TAG_LHS = 101
_TAG_RHS = 102
_TAG_CURVE = 104
_TAG_NODE = 105
_TAG_COARSE = 106

# exact one-component factors (_exact_factors): Gauss-Legendre nodes in
# sqrt(r) on [0, _RADIAL_SPAN sqrt(L + kappa^2 a)] and in theta on (0, alpha/2),
# and the odd-term series stops once a bound on its tail falls below
# _SERIES_TOL.  A side keeps randomized QMC when that takes more than
# _TERM_CAP terms, or when its tail tau = 1 - b is positive but below
# _TAIL_FLOOR (L + kappa^2 a), where the angular nodes cannot resolve the
# edge layer of width sqrt(2 tau) / r.  Over 3000 random sides within these
# limits the grid was within 5e-9 of a 128 x 64 grid.
_RADIAL_NODES = 32
_ANGULAR_NODES = 16
_RADIAL_SPAN = 10.0
_SERIES_TOL = 1e-10
_TERM_CAP = 26
_TAIL_FLOOR = 0.1
# the node rule's error estimate is widened by this factor in the band.
# Against 192/384-node references, on 1/4..1/2 at rho 0.3-0.9 and at rho
# 0.5 on 0..1/4,3/4..1 and the middle gap of 1/4..1/2,5/8..3/4, the true
# error was 0.49-2.05 times the estimate over n = 1-4, 6, 8, 16 and 24,
# and 0.59-1.31 times from n = 8 up; only n = 2 at rho 0.9 exceeds 2
_QUADRATURE_SAFETY = 2.0

# the grid bias allowed, per combined stderr: a bias of a quarter sigma
# moves a 4-sigma test's false-alarm rate from 6.3e-5 to about 1e-4
_GRID_ALLOWANCE = 0.25
# the grid bias's 4-sigma band wanted, per allowance: the stability check
# then fails on any bias much above 1.25 allowances (_top_walks)
_GRID_RESOLUTION = 0.25
# the top level grows at most this many times over per round of walking on
_TOP_GROWTH = 4


def band_multiplier(dof: float | None) -> float:
    """How many stderrs wide a 4-sigma band with dof degrees of freedom is.

    The Student t quantile whose two-sided tail is the normal one at 4
    sigma, _TAIL_4SIGMA; None is infinite dof (4.0002).  Never below 4.
    """
    return max(4.0, float(stdtrit(math.inf if dof is None else dof, 1.0 - _TAIL_4SIGMA / 2.0)))


# the node grading of a gap, g(u) and g'(u), by which of its ends (lower, upper) are interior
_GRADINGS = {
    (True, False): (lambda u: u * u, lambda u: 2.0 * u),
    (False, True): (lambda u: 1.0 - (1.0 - u) ** 2, lambda u: 2.0 * (1.0 - u)),
    (True, True): (lambda u: u * u * (3.0 - 2.0 * u), lambda u: 6.0 * u * (1.0 - u)),
}


def _arcsine_nodes(a: float, b: float, n_nodes: int,
                   interior: tuple[bool, bool] = (False, False)) -> tuple[list[float], float | np.ndarray]:
    """Midpoint nodes realizing the arc-sine integral over [a,b], graded toward interior ends.

    Returns (times, weight) for the law dt / (pi sqrt(t(1-t))).  With
    t = sin^2(pi theta / 2) the law is uniform in theta, and theta =
    theta(a) + (theta(b) - theta(a)) g(u) at the midpoints u of n_nodes
    equal steps, each node weighing g'(u) (theta(b) - theta(a)) /
    n_nodes.  g depends on which ends are interior, that is, ends of
    region components, where a factor vanishes like delta^beta with
    beta = pi / (2 arccos(-rho)) - 1/2:

    - neither: g = u, and weight is the one float every node carries;
      over all of [0,1] the weights sum to 1;
    - lower: g = u^2; upper: g = 1 - (1 - u)^2; both: g = u^2 (3 - 2u).
      weight is then an array of per-node weights.  They total
      theta(b) - theta(a), times 1 + 1/(2 n_nodes^2) when both ends are
      interior (the midpoint rule's error on the quadratic g').

    On a delta^beta cusp the graded rule's error is O(n_nodes^-2); the
    equal-weight rule's is O(n_nodes^-(1 + beta)), and it reads high.
    sin^2 can round a node of a narrow gap onto an end, so every time is
    clamped to the floats strictly inside (a,b), which _check_nodes
    requires to exist.
    """
    ta, tb = (2.0 / math.pi * math.asin(math.sqrt(t)) for t in (a, b))
    u = (np.arange(n_nodes) + 0.5) / n_nodes
    if any(interior):
        g, slope = _GRADINGS[interior]
        thetas, weight = ta + (tb - ta) * g(u), (tb - ta) / n_nodes * slope(u)
    else:
        thetas, weight = ta + (tb - ta) * u, (tb - ta) / n_nodes
    lo, hi = math.nextafter(a, b), math.nextafter(b, a)
    return [min(max(math.sin(math.pi * th / 2.0) ** 2, lo), hi) for th in thetas], weight


def _check_nodes(n_nodes: int, region: TimeSet):
    """Check the node count, and that every gap of the region has a float strictly inside."""
    if n_nodes < 1:
        raise DomainError("need at least one node")
    if n_nodes > NODE_CAP:
        raise ResourceLimitError(f"{n_nodes} nodes per gap exceed the cap {NODE_CAP}")
    for a, b in region.complement_components():
        if math.nextafter(a, b) >= b:
            raise DomainError(f"the gap ({a!r}, {b!r}) of {region} has no float strictly "
                              "inside to put a quadrature node at")


def _pullback(t: float, region: TimeSet) -> tuple[list, list]:
    """The region as the two survival factors at gap time t see it.

    Returns (left, right): left is the region before t through
    x -> t(1-x), right the region after t through x -> t + (1-t)x, each
    a list of (lo, hi) components in [0,1], empty where the side has no
    region points.  t must lie strictly inside a gap: a t outside (0,1)
    is a DomainError, where a side's map degenerates, and a t in the
    region, endpoints included, is a PreconditionError.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"node time t={t} lies outside (0,1)")
    for lo, hi in region:
        if lo < t < hi:
            raise PreconditionError(f"t={t} lies in the interior of {region}")
        if t in (lo, hi):
            raise PreconditionError(f"t={t} is an endpoint of {region}")
    return tuple(affine_preimage(region, scale, t) for scale in (-t, 1.0 - t))


def _radial_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes s = r / sqrt(L + kappa^2 a) and weights of the radial integral against s exp(-s^2/2).

    Gauss-Legendre in u on (0,1), s = _RADIAL_SPAN u^2: near r = 0 a
    term grows like r^(1 + nu), a fractional power, which the rule in
    sqrt(r) integrates to about 1e-12 where the rule in r stops near
    4e-8 (tau = 0, a near 0.7, rho 0.7-0.9).  numpy's nodes, because
    scipy's roots_legendre loads scipy.linalg, 6 MB more resident.
    """
    u, w = leggauss(_RADIAL_NODES)
    u = (u + 1.0) / 2.0
    s = _RADIAL_SPAN * u * u
    return s, w * _RADIAL_SPAN * u * s * np.exp(-s * s / 2.0)


def _angular_weights(odd: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Angular nodes theta in (0, alpha/2) and weights W with f(theta) @ W[:, i] ~ int sin(nu_i theta) f.

    nu_i = odd_i pi / alpha.  The weights integrate sin(nu theta) times
    the degree-15 polynomial through f at the 16 Gauss-Legendre nodes
    exactly, at any nu (Filon's idea, on Legendre moments): with theta =
    alpha (x + 1) / 4, int_{-1}^{1} sin(omega (x + 1)) P_k(x) dx =
    2 j_k(omega) sin(omega + k pi / 2), omega = nu alpha / 4, and the
    interpolant's Legendre coefficients are exact Gauss sums.  A plain
    16-node sum would alias the high terms, whose sines swing n/4 times.
    """
    x, w = leggauss(_ANGULAR_NODES)
    k = np.arange(_ANGULAR_NODES)[:, None]
    omega = odd * math.pi / 4.0
    moments = 2.0 * spherical_jn(k, omega) * np.sin(omega + k * math.pi / 2.0)
    coefficients = (w[:, None] * legvander(x, _ANGULAR_NODES - 1)) * (k.T + 0.5)  # (node, k)
    return alpha / 4.0 * (x + 1.0), alpha / 4.0 * coefficients @ moments


def _series_terms(sides, rho: float) -> np.ndarray:
    """How many odd terms each pulled-back side's exact series takes: 0 where it is sampled.

    Decided from (a, b, rho) alone, before any factor is evaluated.  A
    side is exact when it is one component [a, b], its tail tau = 1 - b
    is 0 or at least _TAIL_FLOOR (L + kappa^2 a), and a bound on the
    series' tail falls below _SERIES_TOL within _TERM_CAP terms.  The
    bound (see _exact_factors for the terms): |A_n| <= min(4/nu,
    4c/(sqrt(pi) nu^2)), c = r/sqrt(2 tau), by the second mean value
    theorem, once on erf and once on its derivative; and M_nu(x) =
    E[(1 - S/x)_+^(nu/2)], S ~ Gamma(nu/2), is at most m_nu(x) =
    (1 + nu/(2x))^(-nu/2), which is log-concave in nu, so at each radial
    node the terms from n on total at most the n-th over 1 - (the ratio
    of the next to it).  The radial rule sums that bound.  The count
    grows like sqrt(a/L) on narrow components: 9-12 terms at L/a = 1,
    and the cap leaves L/a below 0.07 (rho 0) to 0.12 (rho 0.9) sampled.
    """
    terms = np.zeros(len(sides), dtype=int)
    one = [i for i, side in enumerate(sides) if len(side) == 1]
    if not one:
        return terms
    a, b = np.array([sides[i][0] for i in one]).T
    length, tau = b - a, 1.0 - b
    alpha, kappa2 = math.acos(-rho), 2.0 / (1.0 + rho)
    spread = length + kappa2 * a
    s, weight = _radial_rule()
    x = (kappa2 * a / (2.0 * length))[:, None] * s * s
    c = np.full_like(x, np.inf)
    tail = tau > 0.0
    c[tail] = np.sqrt(spread[tail] / (2.0 * tau[tail]))[:, None] * s
    scale = 2.0 / (alpha * np.sqrt(a))
    count = np.zeros(len(one), dtype=int)
    for k in range(1, _TERM_CAP + 1):  # the first term left out is n = 2k + 1
        nu, nu_next = (2 * k + 1) * math.pi / alpha, (2 * k + 3) * math.pi / alpha
        log_m = -nu / 2.0 * np.log1p(nu / (2.0 * x))
        log_next = -nu_next / 2.0 * np.log1p(nu_next / (2.0 * x))
        angular = np.minimum(4.0 / nu, 4.0 * c / (math.sqrt(math.pi) * nu * nu))
        bound = scale * ((angular * np.exp(log_m) / -np.expm1(log_next - log_m)) @ weight)
        count[(count == 0) & (bound <= _SERIES_TOL)] = k
        if count.all():
            break
    count[(tau > 0.0) & (tau < _TAIL_FLOOR * spread)] = 0
    terms[one] = count
    return terms


def _exact_factors(ends: np.ndarray, rho: float, terms: np.ndarray) -> np.ndarray:
    """The survival-correlation factors of one-component sides [a, b], in closed form.

    ends is (K, 2), terms the odd terms each side takes
    (_series_terms).  Heights enter at a; the pair walks the rho-run of
    length L = b - a, then the shared tail tau = 1 - b.  As a planar
    Brownian motion the pair lives in a wedge of angle alpha =
    arccos(-rho), enters on its bisector at radius kappa y (kappa^2 =
    2/(1 + rho)), and its Dirichlet heat kernel (Carslaw & Jaeger 1959)
    gives, with only odd n surviving the bisector's symmetry,

        F = 2/(alpha sqrt(a)) sum_n sin(n pi/2) int_0^inf s exp(-s^2/2) M_nu(x) A_n(r) ds,

    nu = n pi/alpha, r = s sqrt(L + kappa^2 a), x = kappa^2 a s^2/(2L).
    The entrance integral is closed: M_nu(x) = Gamma(1 + nu/2) x^(nu/2)
    1F1(nu/2; nu + 1; -x) / Gamma(nu + 1), in [0, 1], evaluated in logs.
    The angular factor A_n(r) = 2 int_0^(alpha/2) sin(nu theta)
    erf(r sin(theta)/sqrt(2 tau)) dtheta is 2/nu at tau = 0.  The grid
    is _RADIAL_NODES x _ANGULAR_NODES; each term loop iteration covers
    every side that still takes terms.  No code is shared with the
    sampled survival stack, which is its oracle.
    """
    a, b = ends.T
    length, tau = b - a, 1.0 - b
    alpha, kappa2 = math.acos(-rho), 2.0 / (1.0 + rho)
    s, weight = _radial_rule()
    x = (kappa2 * a / (2.0 * length))[:, None] * s * s
    log_x = np.log(x)
    odd = np.arange(1, 2 * int(terms.max()), 2)
    theta, angular = _angular_weights(odd, alpha)
    edge = np.ones((len(a), _RADIAL_NODES, _ANGULAR_NODES))
    tail = tau > 0.0
    r = np.sqrt(length + kappa2 * a)[:, None] * s
    edge[tail] = erf((r[tail] / np.sqrt(2.0 * tau[tail])[:, None])[:, :, None] * np.sin(theta))
    total = np.zeros(len(a))
    for i, n in enumerate(odd):
        live = terms > i
        nu = n * math.pi / alpha
        log_m = (gammaln(1.0 + nu / 2.0) - gammaln(nu + 1.0) + nu / 2.0 * log_x[live]
                 + np.log(hyp1f1(nu / 2.0, nu + 1.0, -x[live])))
        term = (np.exp(log_m) * (2.0 * edge[live] @ angular[:, i])) @ weight
        total[live] += term if i % 2 == 0 else -term
    return 2.0 / (alpha * np.sqrt(a)) * total


def _rhs_factors(sides, terms: np.ndarray, rho: float, n_samples: int,
                 node_seeds) -> list[EstimateWithError]:
    """One survival-correlation factor per pulled-back side.

    sides are in node order, each node's left side then its right.  A
    side with no region points is exactly 1.  A side with terms > 0
    (_series_terms) is exact: stderr 0, and n_samples the grid's
    _RADIAL_NODES x _ANGULAR_NODES points; all of them come from one
    _exact_factors call.  Any other side is m_lambda_functional at
    n_samples points on its node's stream for that side,
    derive_seed(node_seeds[i // 2], i % 2): the factor does not depend
    on its entrance time, so heights enter at the side's first point,
    inside (0,1) for a t inside a gap, with no run-in.
    """
    exact = np.flatnonzero(terms)
    values = dict(zip(exact.tolist(), _exact_factors(
        np.array([sides[i][0] for i in exact]), rho, terms[exact]))) if exact.size else {}
    factors = []
    for i, side in enumerate(sides):
        if i in values:
            factors.append(EstimateWithError(mean=float(values[i]), stderr=0.0,
                                             n_samples=_RADIAL_NODES * _ANGULAR_NODES))
        elif side:
            factors.append(m_lambda_functional(side, rho, side[0][0], n_samples,
                                               derive_seed(node_seeds[i // 2], i % 2)))
        else:
            factors.append(EstimateWithError.exact(1.0))
    return factors


def _rule(region: TimeSet, gap: tuple[float, float], n_nodes: int, rho: float):
    """The n_nodes-node rule on one gap: (node times, weights, pulled-back sides, their series terms)."""
    a, b = gap
    times, weights = _arcsine_nodes(a, b, n_nodes, (a > 0.0, b < 1.0))
    sides = [side for t in times for side in _pullback(t, region)]
    return times, np.broadcast_to(weights, n_nodes), sides, _series_terms(sides, rho)


def _all_exact(rule) -> bool:
    """Whether every side of a rule is exact or empty: no factor of it is sampled."""
    _, _, sides, terms = rule
    return all(k or not side for k, side in zip(terms, sides))


def rhs_integral(region: TimeSet, rho: float, n_nodes: int,
                 n_samples_per_node: int, seed: int) -> EstimateWithError:
    """Arc-sine integral of the factor products over the gaps of the region.

    Nodes are graded toward each gap's interior ends (_arcsine_nodes).
    A one-component side is exact (_exact_factors; every exact side of
    one RHS in one evaluation); any other side is randomized QMC on its
    own derived stream, derive_seed(derive_seed(seed, _TAG_NODE, gap,
    node), side).  The stderr combines two independent parts:

    - sampling: the per-node product variances, so it is propagated
      rather than a direct sample statistic.  Each sampled factor's
      variance comes from its randomized-QMC replicates, whose count is
      extra["replicates"] when some factor is sampled;
    - extra["quadrature_error"]: on each gap whose factors are all exact,
      a coarser rule of m = ceil(n/2) nodes (2 at n = 1) estimates the
      n-node rule's O(n^-2) error as |I_n - I_m| / |1 - (n/m)^2|.  The
      gaps' estimates add, times _QUADRATURE_SAFETY.  A coarse side the
      series cannot take is sampled, on derive_seed(derive_seed(seed,
      _TAG_COARSE, gap, node), side): its noise only widens the estimate
      on average.  A gap with a sampled factor adds nothing: its
      I_n - I_m would carry the sampling noise its nodes already band.

    n_samples counts every point evaluated, the coarse rule's included:
    n_samples_per_node per sampled factor and the grid's points per
    exact one; extra["exact_factors"] counts the exact sides.
    extra["dof"] is the Welch-Satterthwaite degrees of freedom of the
    node terms, each factor's variance term at its own dof, with the
    quadrature term at infinite dof.  Per-node diagnostics ride along
    in extra["nodes"], and extra["top_node"] names the node with the
    largest variance term (weight^2 x product variance): its component,
    t and share of stderr^2, or None when no factor is sampled.
    """
    _check_nodes(n_nodes, region)
    _check_samples(n_samples_per_node)  # before the exact regions' shortcut
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho={rho} outside [0,1]")
    if region.is_full():
        return EstimateWithError.exact(0.0)
    if not region:
        return EstimateWithError.exact(1.0)
    gaps = region.complement_components()
    fine = [_rule(region, gap, n_nodes, rho) for gap in gaps]
    coarse_n = 2 if n_nodes == 1 else -(-n_nodes // 2)
    coarse = {g: _rule(region, gaps[g], coarse_n, rho)
              for g, rule in enumerate(fine) if _all_exact(rule)}
    rules = fine + list(coarse.values())
    node_seeds = [derive_seed(seed, _TAG_NODE, g, ni) for g in range(len(gaps))
                  for ni in range(n_nodes)]
    node_seeds += [derive_seed(seed, _TAG_COARSE, g, ni) for g in coarse for ni in range(coarse_n)]
    factors = _rhs_factors([side for rule in rules for side in rule[2]],
                           np.concatenate([rule[3] for rule in rules]), rho,
                           n_samples_per_node, node_seeds)
    pairs = iter(zip(factors[0::2], factors[1::2]))  # each node's (left, right), rule by rule

    def dof(est):
        return est.extra["replicates"] - 1 if est.extra else None

    total = 0.0
    rows, node_vars, gap_sums = [], [], []
    var_terms = []  # (variance, dof) of each factor's part of a node's variance
    for g, (times, weights, _, _) in enumerate(fine):
        gap_sums.append(0.0)
        for t, weight, (left, right) in zip(times, weights, pairs):
            pm, pv = product_estimate(left, right)
            weight = float(weight)
            total += weight * pm
            gap_sums[g] += weight * pm
            node_vars.append(weight**2 * pv)
            var_terms += [((weight * left.stderr * right.mean) ** 2, dof(left)),
                          ((weight * right.stderr * left.mean) ** 2, dof(right)),
                          ((weight * left.stderr * right.stderr) ** 2, dof(left))]
            rows.append({
                "component": g, "t": t, "weight": weight,
                "left": left.mean, "left_stderr": left.stderr,
                "right": right.mean, "right_stderr": right.stderr,
            })
    quadrature = _QUADRATURE_SAFETY / abs(1.0 - (n_nodes / coarse_n) ** 2) * sum(
        abs(gap_sums[g] - sum(float(weight) * left.mean * right.mean
                              for weight, (left, right) in zip(rule[1], pairs)))
        for g, rule in coarse.items())
    var = sum(node_vars)
    top = int(np.argmax(node_vars))
    top_node = {"component": rows[top]["component"], "t": rows[top]["t"],
                "var_share": node_vars[top] / (var + quadrature**2)} if var else None
    extra = {"nodes": rows, "top_node": top_node}
    replicates = [est.extra["replicates"] for est in factors if est.extra]
    if replicates:
        extra["replicates"] = replicates[-1]
    extra.update(dof=welch_dof(var_terms + [(quadrature**2, None)]),
                 exact_factors=sum(int(np.count_nonzero(rule[3])) for rule in rules),
                 quadrature_error=quadrature)
    return EstimateWithError(mean=total, stderr=math.sqrt(var + quadrature**2),
                             n_samples=sum(est.n_samples for est in factors), seed=seed,
                             extra=extra)


@dataclass(frozen=True)
class TheoremReport:
    """Side-by-side record of the two routes and the 4-sigma verdict.

    dof is the verdict's Welch-Satterthwaite degrees of freedom and
    threshold its band in combined stderrs (band_multiplier).
    """

    region: str
    rho: float
    lhs: EstimateWithError
    rhs: EstimateWithError
    discrepancy: float
    combined_stderr: float
    passed: bool
    dof: float | None = None
    threshold: float = 4.0
    lhs_refined: EstimateWithError | None = None
    grid_bias: EstimateWithError | None = None
    stability_ok: bool | None = None

    def as_dict(self) -> dict:
        out = {
            "A": self.region,
            "rho": self.rho,
            "lhs": self.lhs.as_dict(),
            "rhs": {k: v for k, v in self.rhs.as_dict().items()
                    if k not in ("nodes", "top_node")},
            "discrepancy": self.discrepancy,
            "combined_stderr": self.combined_stderr,
            "pass": self.passed,
            "dof": self.dof,
            "threshold": self.threshold,
            # the quadrature node with the largest share of the RHS variance
            "rhs_top_node": (self.rhs.extra or {}).get("top_node"),
        }
        # how far apart the routes are and which side's error dominates;
        # both are undefined when neither side has sampling error
        var = self.combined_stderr**2
        out["z_score"] = self.discrepancy / self.combined_stderr if var else None
        out["lhs_var_share"] = self.lhs.stderr**2 / var if var else None
        if self.lhs_refined is not None:
            out["lhs_refined"] = self.lhs_refined.as_dict()
            # refined minus lhs, per sample of the one coupled run
            out["grid_bias"] = {"estimate": self.grid_bias.mean, "stderr": self.grid_bias.stderr}
            out["grid_bias_allowance"] = _GRID_ALLOWANCE * self.combined_stderr
            out["grid_stability_ok"] = self.stability_ok
        return out


def verify_theorem(region: TimeSet, rho: float, seed: int,
                   lhs_n_grid: int = 1 << 13, lhs_samples: int = 20_000,
                   n_nodes: int = 24, node_samples: int = 20_000,
                   check_stability: bool = False) -> TheoremReport:
    """Run both routes and compare at a 4-sigma band of their combined standard error.

    The band is band_multiplier(dof) combined stderrs, dof the
    Welch-Satterthwaite degrees of freedom of the two sides' variances,
    each at its own dof (the LHS's over its cells, the RHS's over its
    factors' replicates): a Student t band at the normal 4-sigma tail.
    With check_stability, the direct run, one level or several, gets one
    more level at the doubled grid (argmin_coincidence with refine), and
    that top level, the per-sample difference between the two grids on
    the same draws, is grid_bias.  No finite grid is unbiased, so the
    check asks whether the bias is both resolved and material: it fails
    when |grid_bias| less four of its own standard errors exceeds the
    allowance, _GRID_ALLOWANCE times the combined stderr.  Where it
    would pass with four stderrs above _GRID_RESOLUTION allowances, the
    top level walks on until they are within it or the check fails
    (_top_walks): lhs, the levels below the top, does not change, only
    lhs_refined and grid_bias.  A failed check fails the verdict, as
    does the tie flag of any level.  Every size, the doubled grid's
    included, is checked before the first draw; the top level walks at
    most SAMPLE_CAP in all.
    argmin_coincidence replaces a zero stderr where it is not exact, so
    no band here has width 0.
    """
    _check_nodes(n_nodes, region)
    _check_samples(node_samples)
    _direct_plan(region, rho, lhs_n_grid, lhs_samples, check_stability)
    # the RHS first: the check's allowance needs its stderr while the direct route walks
    rhs = rhs_integral(region, rho, n_nodes, node_samples, derive_seed(seed, _TAG_RHS))

    def top_walks(est, walks):
        return _top_walks(est, walks, _GRID_ALLOWANCE * math.hypot(est.stderr, rhs.stderr))

    lhs = argmin_coincidence(region, rho, lhs_n_grid, lhs_samples, derive_seed(seed, _TAG_LHS),
                             refine=check_stability, top_walks=top_walks)
    lhs_refined = lhs.extra.pop("refined", None)
    grid_bias = lhs.extra.pop("grid_bias", None)
    discrepancy = lhs.mean - rhs.mean
    combined = math.sqrt(lhs.stderr**2 + rhs.stderr**2)
    dof = welch_dof([(lhs.stderr**2, (lhs.extra or {}).get("dof")),
                     (rhs.stderr**2, (rhs.extra or {}).get("dof"))])
    threshold = band_multiplier(dof)
    stability_ok = None if grid_bias is None else (
        abs(grid_bias.mean) - 4.0 * grid_bias.stderr <= _GRID_ALLOWANCE * combined)
    tied = any(est.extra["tie_flag"] for est in (lhs, lhs_refined) if est is not None)
    return TheoremReport(
        region=str(region), rho=rho, lhs=lhs, rhs=rhs,
        discrepancy=discrepancy, combined_stderr=combined,
        passed=(abs(discrepancy) <= threshold * combined and not tied
                and stability_ok is not False), dof=dof, threshold=threshold,
        lhs_refined=lhs_refined, grid_bias=grid_bias, stability_ok=stability_ok,
    )


def _top_walks(lhs: EstimateWithError, walks: int, allowance: float) -> int | None:
    """The top-level walks that resolve a refined run's grid bias to the allowance, or None.

    lhs is the run so far, walks its top level's.  None when the check
    needs no more: four stderrs are within _GRID_RESOLUTION allowances
    already, or it fails already (more walks would only confirm a
    resolved bias).  Otherwise a fifth more than the top level's
    variance predicts: walks times (stderr / wanted)^2, or 1 / wanted
    where no pair differed and the stderr is the floor 1 / walks
    (argmin_coincidence); at most _TOP_GROWTH times walks, so that a
    bias the next round resolves as material stops there, and at most
    SAMPLE_CAP.
    """
    bias = lhs.extra["grid_bias"]
    wanted = _GRID_RESOLUTION * allowance / 4.0
    if bias.stderr <= wanted or abs(bias.mean) - 4.0 * bias.stderr > allowance:
        return None
    need = 1.0 / wanted if bias.stderr == 1.0 / walks else walks * (bias.stderr / wanted) ** 2
    return min(SAMPLE_CAP, _TOP_GROWTH * walks, math.ceil(1.2 * need))


def sensitivity_curve(rho: float, n_list, n_samples: int,
                      seed: int) -> list[tuple[int, EstimateWithError]]:
    """Full-interval perturbation correlation of the walk model along n_list.

    The estimates decay toward 0 as n grows, however close rho is to 1;
    at rho = 1 the walks are identical and every value is exactly 1.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise DomainError("walk lengths must be strictly ascending")
    for n in n_list:  # every size and the seed before the first draw
        _check_steps(n)
    _check_samples(n_samples)
    seeds = [derive_seed(seed, _TAG_CURVE, i) for i in range(len(n_list))]
    if rho == 1.0:
        return [(n, EstimateWithError.exact(1.0)) for n in n_list]
    return [(n, discrete_phi(TimeSet.full(), rho, n, n_samples, row_seed))
            for n, row_seed in zip(n_list, seeds)]
