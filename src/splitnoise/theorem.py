"""Two independent routes to the limiting sign correlation, compared.

Left-hand side: the probability that a pattern-coupled Brownian pair
attains its minimum at the same time, simulated directly (exact off
the region, gridded on it).

Right-hand side: an arc-sine-weighted integral over the unperturbed
gaps.  At a gap time t the perturbation region is pulled back through
the two scaling maps x -> t + (1-t)x and x -> t(1-x), and each pulled-
back set gives an entrance-law survival-correlation factor.  A side of
one component is computed exactly, from a closed-form series on a
fixed Gauss-Legendre grid (_exact_factors), and so is a side of two,
from the same wedge kernel in three stages on a fixed grid
(_pair_factors) with one Bessel table per rho, evaluated on its band
(_pair_table); a side of three or more components, or one its grid
cannot resolve, is a randomized quasi-Monte Carlo estimate
(m_lambda_functional).  The quadrature substitutes
t = sin^2(pi theta / 2), under which the arc-sine weight becomes the
uniform measure in theta, so the endpoint singularities vanish
exactly; every gap takes a Gauss-Legendre rule in theta graded toward
its interior ends (_gauss_nodes), where the factors vanish like a small
power of the distance, at _GAUSS_MIN_NODES nodes or more.  On a gap
whose factors are all exact, the rule's own error is estimated from the
rule at half its nodes and joins the band, and the gap doubles its
nodes while that estimate exceeds _GAP_TOLERANCE (rhs_integral).  Every
Gauss-Legendre rule is built once per node count (_legendre).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.special import erf, gammaln, hyp1f1, ive, spherical_jn, stdtrit

from .coupled import (_TAIL_4SIGMA, _check_steps, _direct_plan, argmin_coincidence,
                      discrete_phi, m_lambda_functional)
from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import (SAMPLE_CAP, EstimateWithError, _check_samples, derive_seed,
                       product_estimate, welch_dof)
from .timesets import TimeSet, affine_preimage

# quadrature nodes per gap, asked for or reached by doubling.  A
# Gauss-Legendre gap's rule solves an n x n eigenproblem (leggauss), n^3
# in time and n^2 in memory: theorem-check --A 1/4..1/2 --rho 0.5 takes
# 2.2-3.8 s and 98 MB at 1000 nodes, 4.2 s and 139 MB at 2000 (2 cores,
# numpy 2.4)
NODE_CAP = 1000

# sub-stream tags
_TAG_LHS = 101
_TAG_RHS = 102
_TAG_CURVE = 104
_TAG_NODE = 105

# exact one-component factors (_exact_factors): Gauss-Legendre nodes in
# sqrt(r) on [0, _RADIAL_SPAN sqrt(L + kappa^2 a)] and in theta on (0, alpha/2),
# and the odd-term series stops once a bound on its tail falls below
# _SERIES_TOL.  A side keeps randomized QMC when that takes more than
# _TERM_CAP terms, or when its tail tau = 1 - b is positive but below
# _TAIL_FLOOR (L + kappa^2 a), where the angular nodes cannot resolve the
# edge layer of width sqrt(2 tau) / r.  Over 3000 random sides within these
# limits the grid was within _FACTOR_GRID_ERROR of a 128 x 64 grid, which
# therefore floors every Gauss-Legendre gap's band: twice it (two factors
# of at most 1 per node) times the gap's arc-sine mass.
_RADIAL_NODES = 32
_ANGULAR_NODES = 16
_FACTOR_GRID_ERROR = 5e-9
_RADIAL_SPAN = 10.0
_SERIES_TOL = 1e-10
_TERM_CAP = 26
_TAIL_FLOOR = 0.1
# the fewest nodes a gap's rule takes: fewer asked for run this many, and
# 5-7 twice it (rhs_integral).  Below it the rule's error estimate is
# unsafe: at 3 nodes against 2 the true error reached 0.99 of it, and the
# 1-node rule that would check 2 nodes leaves one half of a gap with two
# interior ends without a node.  At 5-7 it can vanish where the rules
# cross: at 5 nodes against 3 on 0..30/128, rho 0.1, the true error was
# 3.9 times it
_GAUSS_MIN_NODES = 4
# an exact gap whose band exceeds this doubles its node count (rhs_integral).
# Two bands at it add about 1% to the verdict's variance at the direct
# route's stderr on 1/4..1/2 at rho 0.3 (6e-4 at 4096 x 1200); the 8-node
# bands there are 2.4e-5 and 2.7e-5, the split region's outer gaps' at rho
# 0.5 2.3e-5 and 1.3e-5, and its middle gap's 5.5e-4, 3.1e-6 at 16 nodes
_GAP_TOLERANCE = 3e-5

# exact two-component factors (_pair_factors): Gauss-Legendre nodes in v on
# [0, _PAIR_V_SPAN sqrt(b1)] before the gap and [0, _PAIR_V_SPAN sqrt(a2)]
# after it, in d on [0, _PAIR_D_SPAN sqrt((1 - rho) L1 / 2)]; the entrance
# table takes _PAIR_S_NODES Chebyshev nodes in sqrt(s) on [0, _RADIAL_SPAN],
# the Bessel table _PAIR_SIGMA0_NODES in sqrt(sigma0) on [0,
# _PAIR_SIGMA0_SPAN] and _PAIR_SIGMA_NODES Gauss-Legendre nodes in sigma
# _PAIR_SIGMA_PAD beyond, evaluated where |sigma - sigma0| <=
# _PAIR_SIGMA_BAND (_pair_table), and the second run's series every odd
# term with nu up to _PAIR_NU_SPAN.  A side keeps randomized QMC when its
# gap is below _PAIR_GAP_FLOOR (L1 + kappa^2 a1), where the v nodes cannot
# resolve the gap's kernel, when its tail is positive but below
# _PAIR_TAIL_FLOOR L2, or when its grid reaches past the Bessel table
# (_pair_terms).  Over 3000 random sides within these limits, rho
# 0-0.99, a third of them near the gap floor, the grid was within 4.0e-7
# of one refined 2x in every direction; _PAIR_GRID_ERROR, which floors the
# band as _FACTOR_GRID_ERROR does, leaves a margin of 2.5.
_PAIR_V_NODES = 40
_PAIR_D_NODES = 24
_PAIR_S_NODES = 32
_PAIR_SIGMA0_NODES = 40
_PAIR_SIGMA_NODES = 64
_PAIR_V_SPAN = 6.5
_PAIR_D_SPAN = 6.0
_PAIR_SIGMA0_SPAN = 30.0
_PAIR_SIGMA_PAD = 8.0
_PAIR_SIGMA_BAND = 12.0
_PAIR_NU_SPAN = 40.0
_PAIR_GAP_FLOOR = 0.06
_PAIR_TAIL_FLOOR = 0.05
_PAIR_GRID_ERROR = 1e-6
# sides per _pair_factors evaluation: its arrays then take about 3 MB at the peak
_PAIR_BATCH = 4

# the grid bias allowed, 4-sigma band included, per combined stderr: a bias
# of a quarter sigma moves a 4-sigma test's false alarms from 6.3e-5 to 1e-4
_GRID_ALLOWANCE = 0.25
# the top level grows at most this many times over per round of walking
# on, and walks at most this many times the run's budget in all
_TOP_GROWTH = 4
_TOP_BUDGETS = 64
# the top level's first round aims its stderr at the allowance over this,
# from its predicted variance (_top_walks).  theorem-check on
# 1/4..1/2 at rho 0.3, n_grid 4096, 1200 samples, seeds 3301-3400, every
# check passing: at 6.5 the top level ends at 328 / 360 / 492 / 932 walks
# (p10 / median / p90 / max), 3% of seeds past the 573 a budget-sized top
# level took; at 5.5 at 244 / 331 / 582 / 956, 12% past 573
_TOP_AIM = 6.5


def band_multiplier(dof: float | None) -> float:
    """How many stderrs wide a 4-sigma band with dof degrees of freedom is.

    The Student t quantile whose two-sided tail is the normal one at 4
    sigma, _TAIL_4SIGMA; None is infinite dof (4.0002).  Never below 4.
    """
    return max(4.0, float(stdtrit(math.inf if dof is None else dof, 1.0 - _TAIL_4SIGMA / 2.0)))


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-node Gauss-Legendre rule on [-1, 1], built once per n.

    leggauss solves an n x n eigenproblem on every call; NODE_CAP bounds
    n.  The arrays are read-only: every caller shares them.
    """
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _theta(t: float) -> float:
    """The arc-sine law's distribution function: t = sin^2(pi theta / 2)."""
    return 2.0 / math.pi * math.asin(math.sqrt(t))


# the grading of a gap (or half-gap) with one interior end, g(u) and g'(u)
_GRADINGS = {
    (True, False): (lambda u: u**3, lambda u: 3.0 * u * u),
    (False, True): (lambda u: 1.0 - (1.0 - u) ** 3, lambda u: 3.0 * (1.0 - u) ** 2),
}


def _gauss_thetas(ta: float, tb: float, n_nodes: int,
                  interior: tuple[bool, bool]) -> tuple[np.ndarray, np.ndarray]:
    """Graded Gauss-Legendre nodes in theta on [ta, tb] and their weights (_gauss_nodes)."""
    if all(interior):
        mid, low = (ta + tb) / 2.0, n_nodes // 2
        halves = (_gauss_thetas(ta, mid, low, (True, False)),
                  _gauss_thetas(mid, tb, n_nodes - low, (False, True)))
        return tuple(np.concatenate(parts) for parts in zip(*halves))
    x, w = _legendre(n_nodes)
    u = (x + 1.0) / 2.0
    g, slope = _GRADINGS[interior]
    return ta + (tb - ta) * g(u), (tb - ta) / 2.0 * w * slope(u)


def _gauss_nodes(a: float, b: float, n_nodes: int,
                 interior: tuple[bool, bool]) -> tuple[list[float], np.ndarray]:
    """Gauss-Legendre nodes realizing the arc-sine integral over [a,b], graded toward interior ends.

    The rule of every gap (rhs_integral).  Returns (times, weights) for
    the law dt / (pi sqrt(t(1-t))).  With t = sin^2(pi theta / 2) the law
    is uniform in theta, and theta = theta(a) + (theta(b) - theta(a)) g(u)
    at the n_nodes Gauss-Legendre nodes u on [0,1], weighing (theta(b) -
    theta(a)) w g'(u).  g grades toward the interior ends, ends of region
    components, where a factor vanishes like delta^beta with beta = pi /
    (2 arccos(-rho)) - 1/2: g = u^3 toward a lower one and 1 - (1 - u)^3
    toward an upper one (_GRADINGS); every gap of a region neither empty
    nor full has one.  A gap with both ends interior is split at its
    theta midpoint, into n_nodes // 2 nodes graded toward its lower end
    and the rest toward its upper end: one map graded toward both ends
    has a kink at the midpoint, which costs the rule its order.  Under
    u^3 the cusp goes like u^(3 beta + 2), which the rule integrates at
    O(n^-(6 beta + 6)) or better; the factors are smooth elsewhere.  The
    weights total theta(b) - theta(a) and the times ascend strictly
    inside (a,b): sin^2 can round a node of a narrow gap onto an end, so
    the times are clamped to the floats inside, which _check_nodes
    requires to exist.
    """
    thetas, weights = _gauss_thetas(_theta(a), _theta(b), n_nodes, interior)
    lo, hi = math.nextafter(a, b), math.nextafter(b, a)
    return [min(max(math.sin(math.pi * th / 2.0) ** 2, lo), hi) for th in thetas], weights


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
    u, w = _legendre(_RADIAL_NODES)
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
    x, w = _legendre(_ANGULAR_NODES)
    k = np.arange(_ANGULAR_NODES)[:, None]
    omega = odd * math.pi / 4.0
    moments = 2.0 * spherical_jn(k, omega) * np.sin(omega + k * math.pi / 2.0)
    coefficients = (w[:, None] * legvander(x, _ANGULAR_NODES - 1)) * (k.T + 0.5)  # (node, k)
    return alpha / 4.0 * (x + 1.0), alpha / 4.0 * coefficients @ moments


def _series_terms(sides, rho: float) -> np.ndarray:
    """How many odd terms each pulled-back side's exact series takes: 0 where it is sampled.

    Decided from the sides' ends and rho alone, before any factor is
    evaluated.  A one-component side [a, b] is exact when its tail tau =
    1 - b is 0 or at least _TAIL_FLOOR (L + kappa^2 a) and _term_counts
    finds its terms within _TERM_CAP.  A two-component side is exact
    within _pair_terms' domain; its count is its first run's.  A side of
    three or more components is sampled.

    A gap whose n-node rule has no sampled side has none at ceil(n/2)
    nodes (rhs_integral).  (a) At t = p + delta in a gap (p, q) the left
    side starts at a = delta/t, its lengths the region's over t (the right
    side likewise, delta = q - t, 1 - t for t).  Its component count, rho
    and tail ratio tau/L2 stay fixed, and each condition worsens as delta
    grows: a/L = delta/L0 grows, tau/(L + kappa^2 a) and the pair's gap
    ratio against _PAIR_GAP_FLOOR fall, sigma0 grows with sqrt(a2/L2).
    _term_counts' bound falls through its prefactor 1/sqrt(a) = sqrt(1 +
    p/delta) but rises with x ~ delta through m_nu, and where it met
    _SERIES_TOL (2e5 points, 20 000 random sides) its elasticity in delta
    was 1.76 or more.  So each side is exact on an interval reaching its
    interior end.  (b) For m <= n the m-node rule's nodes lie within the
    n-node rule's span (_gauss_nodes): Legendre zeros interlace, the
    grading ascends, and split halves get floor(m/2) <= floor(n/2) and
    m - floor(m/2) <= n - floor(n/2) nodes.  So the coarse nodes are
    exact (test_the_coarse_rule_of_an_exact_gap_is_exact).
    """
    terms = np.zeros(len(sides), dtype=int)
    one = [i for i, side in enumerate(sides) if len(side) == 1]
    if one:
        a, b = np.array([sides[i][0] for i in one]).T
        length, tau = b - a, 1.0 - b
        count = _term_counts(a, length, tau, rho)
        count[(tau > 0.0) & (tau < _TAIL_FLOOR * (length + 2.0 / (1.0 + rho) * a))] = 0
        terms[one] = count
    two = [i for i, side in enumerate(sides) if len(side) == 2]
    if two:
        terms[two] = _pair_terms(np.array([[*sides[i][0], *sides[i][1]] for i in two]), rho)
    return terms


def _term_counts(a: np.ndarray, length: np.ndarray, tau: np.ndarray, rho: float) -> np.ndarray:
    """How many odd terms the one-component series of a run [a, a + length] then a tail tau takes.

    0 where a bound on the series' tail stays above _SERIES_TOL through
    _TERM_CAP terms.  The bound (see _exact_factors for the terms): |A_n|
    <= min(4/nu, 4c/(sqrt(pi) nu^2)), c = r/sqrt(2 tau), by the second
    mean value theorem, once on erf and once on its derivative; and
    M_nu(x) = E[(1 - S/x)_+^(nu/2)], S ~ Gamma(nu/2), is at most m_nu(x)
    = (1 + nu/(2x))^(-nu/2), which is log-concave in nu, so at each
    radial node the terms from n on total at most the n-th over 1 - (the
    ratio of the next to it).  The radial rule sums that bound.  The
    count grows like sqrt(a/L) on narrow components: 9-12 terms at L/a =
    1, and the cap leaves L/a below 0.07 (rho 0) to 0.12 (rho 0.9)
    sampled.
    """
    alpha, kappa2 = math.acos(-rho), 2.0 / (1.0 + rho)
    s, weight = _radial_rule()
    x = (kappa2 * a / (2.0 * length))[:, None] * s * s
    c = np.full_like(x, np.inf)
    tail = tau > 0.0
    c[tail] = np.sqrt((length + kappa2 * a)[tail] / (2.0 * tau[tail]))[:, None] * s
    scale = 2.0 / (alpha * np.sqrt(a))
    count = np.zeros(len(a), dtype=int)
    for k in range(1, _TERM_CAP + 1):  # the first term left out is n = 2k + 1
        nu, nu_next = (2 * k + 1) * math.pi / alpha, (2 * k + 3) * math.pi / alpha
        log_m = -nu / 2.0 * np.log1p(nu / (2.0 * x))
        log_next = -nu_next / 2.0 * np.log1p(nu_next / (2.0 * x))
        angular = np.minimum(4.0 / nu, 4.0 * c / (math.sqrt(math.pi) * nu * nu))
        bound = scale * ((angular * np.exp(log_m) / -np.expm1(log_next - log_m)) @ weight)
        count[(count == 0) & (bound <= _SERIES_TOL)] = k
        if count.all():
            break
    return count


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
    1F1(nu/2; nu + 1; -x) / Gamma(nu + 1), in [0, 1] (_entrance).
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
    odd = np.arange(1, 2 * int(terms.max()), 2)
    theta, angular = _angular_weights(odd, alpha)
    edge = np.ones((len(a), _RADIAL_NODES, _ANGULAR_NODES))
    tail = tau > 0.0
    r = np.sqrt(length + kappa2 * a)[:, None] * s
    edge[tail] = erf((r[tail] / np.sqrt(2.0 * tau[tail])[:, None])[:, :, None] * np.sin(theta))
    total = np.zeros(len(a))
    for i, n in enumerate(odd):
        live = terms > i
        term = (_entrance(n * math.pi / alpha, x[live]) * (2.0 * edge[live] @ angular[:, i])) @ weight
        total[live] += term if i % 2 == 0 else -term
    return 2.0 / (alpha * np.sqrt(a)) * total


def _entrance(nu: float, x: np.ndarray) -> np.ndarray:
    """M_nu(x) = Gamma(1 + nu/2) x^(nu/2) 1F1(nu/2; nu + 1; -x) / Gamma(nu + 1), evaluated in logs."""
    return np.exp(gammaln(1.0 + nu / 2.0) - gammaln(nu + 1.0) + nu / 2.0 * np.log(x)
                  + np.log(hyp1f1(nu / 2.0, nu + 1.0, -x)))


def _pair_terms(ends: np.ndarray, rho: float) -> np.ndarray:
    """The first run's odd terms for each two-component side [a1, b1] u [a2, b2]: 0 where it is sampled.

    ends is (K, 4).  Decided from the ends and rho alone.  A side is
    exact when rho < 1 (at 1 the pair never parts and d is 0 for good),
    its first run's series, with no tail, stops within _TERM_CAP terms
    (_term_counts), its gap g is at least _PAIR_GAP_FLOOR (L1 + kappa^2
    a1), its tail tau is 0 or at least _PAIR_TAIL_FLOOR L2, and its grid
    after the gap stays on the Bessel table: sigma0 = r0 / sqrt(L2) at
    the grid's far corner is at most _PAIR_SIGMA0_SPAN (_pair_factors).
    A gap below its floor is the case the v nodes cannot resolve: on
    [0.5, 0.6] u [0.61, 0.9] at rho 0.5 (g = 0.013 (L1 + kappa^2 a1)) the
    grid reads 0.85392 where 80 or more v nodes read 0.85224.
    """
    if rho == 1.0:
        return np.zeros(len(ends), dtype=int)
    a1, b1, a2, b2 = ends.T
    kappa2, c = 2.0 / (1.0 + rho), math.sqrt(1.0 - rho * rho)
    length, gap, run, tau = b1 - a1, a2 - b1, b2 - a2, 1.0 - b2
    count = _term_counts(a1, length, np.zeros_like(a1), rho)
    top = _PAIR_V_SPAN * np.sqrt(a2)
    far = top + 2.0 * _PAIR_D_SPAN * np.sqrt((1.0 - rho) * length / 2.0)
    sigma0 = np.hypot(top, (far - rho * top) / c) / np.sqrt(run)
    # tau / run is the same at every t of a gap; at 12 decimals rounding cannot flip one at its floor
    count[(gap < _PAIR_GAP_FLOOR * (length + kappa2 * a1))
          | ((tau > 0.0) & (np.round(tau / run, 12) < _PAIR_TAIL_FLOOR)) | (sigma0 > _PAIR_SIGMA0_SPAN)] = 0
    return count


def _chebyshev_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Chebyshev nodes of the first kind on [0,1] and their barycentric weights."""
    angle = (2 * np.arange(n) + 1) * math.pi / (2 * n)
    return (1.0 - np.cos(angle)) / 2.0, (-1.0) ** np.arange(n) * np.sin(angle)


def _chebyshev_matrix(u: np.ndarray, n: int) -> np.ndarray:
    """The barycentric matrix (K, n, P) that interpolates from _chebyshev_nodes(n) to u (K, P) in [0,1]."""
    nodes, weights = _chebyshev_nodes(n)
    matrix = np.subtract(u[:, None, :], nodes[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(weights[:, None], matrix, out=matrix)
        total = matrix.sum(axis=1, keepdims=True)
        matrix /= total
    on_node = ~np.isfinite(total[:, 0])
    matrix.transpose(0, 2, 1)[on_node] = u[on_node][:, None] == nodes
    return matrix


def _odd_sine_sum(phi: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_i coefficients[:, i] sin((2i + 1) phi) for phi (K, P) and coefficients (K, N, P).

    By the three-term recurrence sin((m + 2) phi) = 2 cos(2 phi) sin(m phi) - sin((m - 2) phi).
    """
    sine = np.sin(phi)
    previous, step = -sine, 2.0 * np.cos(2.0 * phi)
    total = coefficients[:, 0] * sine
    for i in range(1, coefficients.shape[1]):
        sine, previous = step * sine - previous, sine
        total += coefficients[:, i] * sine
    return total


def _gauss_span(top, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [0, top] for each top, top.shape + (n,) each."""
    x, w = _legendre(n)
    top = np.asarray(top)[..., None]
    return top * (x + 1.0) / 2.0, top * w / 2.0


@functools.cache
def _pair_table(rho: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The second run's Bessel table: its terms' nu, the sigma nodes and K (term, sigma0 node, sigma node).

    K_n[i, j] = (2/alpha) sigma_j w_j exp(-(sigma_j - sigma0_i)^2 / 2)
    ive(nu_n, sigma_j sigma0_i), the wedge kernel over a run of length L2
    in the scaled radii sigma = r / sqrt(L2), so that it depends on rho
    alone; the sigma0 nodes are _chebyshev_nodes' in sqrt(sigma0 /
    _PAIR_SIGMA0_SPAN).  Only the band |sigma_j - sigma0_i| <=
    _PAIR_SIGMA_BAND is evaluated, 46% of the entries, and the rest are
    0: at rho 0.1-0.99 each entry left out is at most 5.2e-32, against a
    largest entry of 0.24-0.44.  Built once per rho, its arrays read-only.
    """
    alpha = math.acos(-rho)
    terms = math.ceil((_PAIR_NU_SPAN * alpha / math.pi + 1.0) / 2.0)
    nu = np.arange(1, 2 * terms, 2) * math.pi / alpha
    sigma0 = _PAIR_SIGMA0_SPAN * _chebyshev_nodes(_PAIR_SIGMA0_NODES)[0] ** 2
    sigma, w = _gauss_span(_PAIR_SIGMA0_SPAN + _PAIR_SIGMA_PAD, _PAIR_SIGMA_NODES)
    i, j = np.nonzero(np.abs(sigma - sigma0[:, None]) <= _PAIR_SIGMA_BAND)
    kernel = np.zeros((len(nu), len(sigma0), len(sigma)))
    kernel[:, i, j] = (2.0 / alpha) * sigma[j] * w[j] * np.exp(-(sigma[j] - sigma0[i]) ** 2 / 2.0) * ive(
        nu[:, None], sigma[j] * sigma0[i])
    nu.flags.writeable = sigma.flags.writeable = kernel.flags.writeable = False
    return nu, sigma, kernel


def _pair_factors(ends: np.ndarray, rho: float, terms: np.ndarray) -> np.ndarray:
    """The survival-correlation factors of two-component sides [a1, b1] u [a2, b2], in closed form.

    ends is (K, 4), terms each side's first-run count (_pair_terms); the
    sides are evaluated _PAIR_BATCH at a time.  The pair walks the
    rho-run L1 = b1 - a1, the shared gap g = a2 - b1, the rho-run L2 =
    b2 - a2 and the shared tail tau = 1 - b2.  Every stage
    is evaluated on one grid per side in v = min(W, W') and d = |W -
    W'|/2, whose v nodes span sqrt(b1) before the gap and sqrt(a2) after
    it, with the wedge geometry of _exact_factors (alpha = arccos(-rho),
    kappa^2 = 2/(1 + rho), the Dirichlet heat kernel of Carslaw & Jaeger
    1959):

    1. entrance and first run: the density of (v, d) at b1 is 8/(c alpha
       sqrt(a1) R^2) sum_odd sin(n pi/2) sin(nu theta) exp(-s^2/2)
       M_nu(x), c = sqrt(1 - rho^2), R^2 = L1 + kappa^2 a1, r = s R the
       radius and theta the angle of (W, W') in the wedge, x = kappa^2 a1
       s^2/(2 L1) and M_nu from _entrance.  M_nu is tabulated once
       per side on Chebyshev nodes in sqrt(s) up to _RADIAL_SPAN (beyond
       it exp(-s^2/2) is below 2e-22) and interpolated to the grid;
    2. the gap moves v alone, killed at 0: the v nodes after the gap are
       reached through phi_g(v' - v) - phi_g(v' + v), one nv x nv matrix
       per side, with d unchanged.  The v nodes before the gap follow the
       first run's own scale, which a long gap would otherwise leave to a
       few nodes;
    3. second run and tail: from polar (r0, theta0) the survival is S =
       sum_odd sin(nu theta0) c_n(sigma0), sigma0 = r0/sqrt(L2), c_n =
       K_n A_n with K_n from _pair_table, shared by every side, and A_n
       the angular factor of _exact_factors at tau, on the sigma nodes
       (2/nu at tau = 0); c_n is interpolated from the table's sigma0
       nodes to the grid.  Only odd n survive: the tail's survival is
       symmetric about the bisector.

    The factor is the grid's sum of the density times the gap-propagated
    S.  No code is shared with the sampled survival stack, which is its
    oracle.
    """
    if len(ends) > _PAIR_BATCH:
        return np.concatenate([_pair_factors(ends[i:i + _PAIR_BATCH], rho, terms[i:i + _PAIR_BATCH])
                               for i in range(0, len(ends), _PAIR_BATCH)])
    a1, b1, a2, b2 = ends.T
    k = len(ends)
    alpha, kappa2, c = math.acos(-rho), 2.0 / (1.0 + rho), math.sqrt(1.0 - rho * rho)
    length, gap, run, tau = b1 - a1, a2 - b1, b2 - a2, 1.0 - b2
    d, wd = _gauss_span(_PAIR_D_SPAN * np.sqrt((1.0 - rho) * length / 2.0), _PAIR_D_NODES)
    v1, wv1 = _gauss_span(_PAIR_V_SPAN * np.sqrt(b1), _PAIR_V_NODES)
    v2, wv2 = _gauss_span(_PAIR_V_SPAN * np.sqrt(a2), _PAIR_V_NODES)

    def polar(v):
        """Radius and wedge angle over pi/alpha of the grid (v, d) on the branch W = v <= W': (K, nv nd)."""
        w, w_prime = v[:, :, None], v[:, :, None] + 2.0 * d[:, None, :]
        b = (w_prime - rho * w) / c
        return (np.hypot(w, b).reshape(k, -1),
                ((math.asin(rho) + np.arctan2(b, w)) * (math.pi / alpha)).reshape(k, -1))

    # 1. the density at b1, from the entrance table in s
    r, phi = polar(v1)
    s = r / np.sqrt(length + kappa2 * a1)[:, None]
    top = np.minimum(s.max(axis=1), _RADIAL_SPAN)
    interpolate = _chebyshev_matrix(np.sqrt(np.minimum(s / top[:, None], 1.0)), _PAIR_S_NODES)
    nodes = top[:, None] * _chebyshev_nodes(_PAIR_S_NODES)[0] ** 2
    x = (kappa2 * a1 / (2.0 * length))[:, None] * nodes * nodes
    odd = np.arange(1, 2 * int(terms.max()), 2)
    nu = odd * math.pi / alpha
    entrance = np.zeros((k, len(odd), _PAIR_S_NODES))
    for i, n in enumerate(nu):
        live = terms > i
        entrance[live, i] = _entrance(n, x[live])
    entrance *= np.where(odd % 4 == 1, 1.0, -1.0)[:, None]
    density = np.exp(-s * s / 2.0) * _odd_sine_sum(phi, entrance @ interpolate)
    density *= (8.0 / (c * alpha * np.sqrt(a1) * (length + kappa2 * a1)))[:, None]

    # 3. the survival of the second run and tail from the grid after the gap
    nu, sigma, bessel = _pair_table(rho)
    angular = np.broadcast_to(2.0 / nu, (k, len(sigma), len(nu))).copy()
    tail = tau > 0.0
    if tail.any():
        theta, weights = _angular_weights(np.arange(1, 2 * len(nu), 2), alpha)
        edge = erf((np.sqrt(run[tail] / (2.0 * tau[tail]))[:, None] * sigma)[:, :, None]
                   * np.sin(theta))
        angular[tail] = 2.0 * edge @ weights
    coefficients = np.einsum("nij,kjn->kni", bessel, angular)
    r0, phi0 = polar(v2)
    interpolate = _chebyshev_matrix(
        np.sqrt(np.minimum(r0 / (np.sqrt(run)[:, None] * _PAIR_SIGMA0_SPAN), 1.0)), _PAIR_SIGMA0_NODES)
    survival = _odd_sine_sum(phi0, coefficients @ interpolate)

    # 2. the gap's killed kernel from the v nodes before it to those after
    def normal(z):
        return np.exp(-z * z / (2.0 * gap[:, None, None])) / np.sqrt(2.0 * math.pi * gap)[:, None, None]

    kernel = (normal(v2[:, None, :] - v1[:, :, None]) - normal(v2[:, None, :] + v1[:, :, None])) \
        * wv2[:, None, :]
    propagated = kernel @ survival.reshape(k, _PAIR_V_NODES, _PAIR_D_NODES)
    return np.einsum("kv,kd,kvd,kvd->k", wv1, wd, density.reshape(propagated.shape), propagated)


def _rhs_factors(sides, terms: np.ndarray, rho: float, n_samples: int,
                 node_seeds) -> list[EstimateWithError]:
    """One survival-correlation factor per pulled-back side.

    sides are in node order, each node's left side then its right.  A
    side with no region points is exactly 1.  A side with terms > 0
    (_series_terms) is exact: stderr 0, and n_samples its grid's points,
    _RADIAL_NODES x _ANGULAR_NODES for one component and 2 x
    _PAIR_V_NODES x _PAIR_D_NODES for two.  All the one-component sides
    come from one _exact_factors call and all the two-component ones from
    one _pair_factors call.  Any other side is m_lambda_functional at
    n_samples points on its node's stream for that side,
    derive_seed(node_seeds[i // 2], i % 2): the factor does not depend
    on its entrance time, so heights enter at the side's first point,
    inside (0,1) for a t inside a gap, with no run-in.
    """
    values = {}
    for count, evaluate in ((1, _exact_factors), (2, _pair_factors)):
        exact = [i for i in np.flatnonzero(terms).tolist() if len(sides[i]) == count]
        if exact:
            ends = np.array([[x for component in sides[i] for x in component] for i in exact])
            values.update(zip(exact, evaluate(ends, rho, terms[exact])))
    factors = []
    for i, side in enumerate(sides):
        if i in values:
            factors.append(EstimateWithError(mean=float(values[i]), stderr=0.0, n_samples=(
                _RADIAL_NODES * _ANGULAR_NODES if len(side) == 1 else 2 * _PAIR_V_NODES * _PAIR_D_NODES)))
        elif side:
            factors.append(m_lambda_functional(side, rho, side[0][0], n_samples,
                                               derive_seed(node_seeds[i // 2], i % 2)))
        else:
            factors.append(EstimateWithError.exact(1.0))
    return factors


def _rule(region: TimeSet, gap: tuple[float, float], n_nodes: int, rho: float):
    """The n_nodes-node rule on one gap: (node times, weights, pulled-back sides, their series terms)."""
    a, b = gap
    times, weights = _gauss_nodes(a, b, n_nodes, (a > 0.0, b < 1.0))
    sides = [side for t in times for side in _pullback(t, region)]
    return times, weights, sides, _series_terms(sides, rho)


def _grid_error(rule) -> float:
    """The grid error of a rule's least accurate factor: _PAIR_GRID_ERROR once a side has two components."""
    return _PAIR_GRID_ERROR if any(len(side) == 2 for side in rule[2]) else _FACTOR_GRID_ERROR


def _all_exact(rule) -> bool:
    """Whether every side of a rule is exact or empty: no factor of it is sampled."""
    _, _, sides, terms = rule
    return all(k or not side for k, side in zip(terms, sides))


def _gap_sum(rule, pairs) -> float:
    """A rule's arc-sine sum over its gap, from its nodes' (left, right) factors."""
    return sum(float(weight) * left.mean * right.mean for weight, (left, right) in zip(rule[1], pairs))


def rhs_integral(region: TimeSet, rho: float, n_nodes: int,
                 n_samples_per_node: int, seed: int) -> EstimateWithError:
    """Arc-sine integral of the factor products over the gaps of the region.

    Every gap starts with the graded Gauss-Legendre rule (_gauss_nodes)
    at n_nodes nodes, at _GAUSS_MIN_NODES where n_nodes is fewer and at
    twice it where n_nodes lies between: 1-3 nodes give the 4-node result
    and 5-7 the 8-node one, whose band cannot vanish as a 5-7-node rule's
    can against its coarse rule.  A side of one or two components is
    exact within the domain _series_terms decides from its ends
    (_exact_factors, _pair_factors; every exact side of a round in one
    evaluation per component count); any other side is randomized QMC on
    its own derived stream, derive_seed(derive_seed(seed, _TAG_NODE, gap,
    node), side).  The stderr combines two independent parts:

    - sampling: the per-node product variances, so it is propagated
      rather than a direct sample statistic.  Each sampled factor's
      variance comes from its randomized-QMC replicates, whose count is
      extra["replicates"] when some factor is sampled;
    - extra["quadrature_error"], the sum of extra["gap_errors"]: on each
      gap whose factors are all exact, the same rule at m = ceil(n/2)
      nodes, all exact too (_series_terms), estimates the n-node rule's
      error.  The gap's band is |I_n - I_m|, which overstates the error
      because the rule converges so much faster than the m-node one,
      plus twice its arc-sine mass times the grid error of its least
      accurate factor, the factors' own error: _FACTOR_GRID_ERROR, or
      _PAIR_GRID_ERROR once a side has two components (_grid_error).  A
      gap with a sampled factor adds 0: its I_n - I_m would carry the
      sampling noise its nodes already band.

    Then each exact gap whose band exceeds _GAP_TOLERANCE doubles its
    node count, round by round, and its n-node rule becomes the coarse
    one of the 2n-node rule, banded by the same update, so no rule is
    evaluated twice; a round evaluates only the doubled gaps.  A gap
    stops once its band is within the tolerance, when 2n would pass
    NODE_CAP, or when a side of its 2n-node rule would be sampled
    (_series_terms, decided before any factor is evaluated): it then
    keeps its n-node rule and band.

    n_samples counts every point evaluated, the coarser rules' included:
    n_samples_per_node per sampled factor and the grid's points per
    exact one; extra["exact_factors"] counts the exact sides, and
    extra["nodes_per_gap"] is the node count each gap's final rule ran,
    whose nodes extra["nodes"] lists.  extra["dof"] is the
    Welch-Satterthwaite degrees of freedom of the node terms, each
    factor's variance term at its own dof, with the quadrature term at
    infinite dof.  extra["top_node"] names the node with the largest
    variance term (weight^2 x product variance): its component, t and
    share of stderr^2, or None when no factor is sampled.
    """
    _check_nodes(n_nodes, region)
    n_nodes = max(n_nodes, _GAUSS_MIN_NODES if n_nodes <= _GAUSS_MIN_NODES else 2 * _GAUSS_MIN_NODES)
    _check_samples(n_samples_per_node)  # before the exact regions' shortcut
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho={rho} outside [0,1]")
    if region.is_full():
        return EstimateWithError.exact(0.0)
    if not region:
        return EstimateWithError.exact(1.0)
    gaps = region.complement_components()
    factors, evaluated = [], []

    def evaluate(rules, node_seeds=()):
        """Each rule's (left, right) factor pairs, node by node, from one _rhs_factors call."""
        new = _rhs_factors([side for rule in rules for side in rule[2]],
                           np.concatenate([rule[3] for rule in rules]), rho,
                           n_samples_per_node, node_seeds)
        factors.extend(new)
        evaluated.extend(rules)
        pairs = iter(zip(new[0::2], new[1::2]))
        return [[next(pairs) for _ in rule[0]] for rule in rules]

    final = [_rule(region, gap, n_nodes, rho) for gap in gaps]
    # the factors' own error over each gap: its sides' component counts are the same at every node
    floors = [2.0 * _grid_error(rule) * (_theta(b) - _theta(a)) for rule, (a, b) in zip(final, gaps)]
    coarse = {g: _rule(region, gaps[g], -(-n_nodes // 2), rho) for g, rule in enumerate(final) if _all_exact(rule)}
    if not all(map(_all_exact, coarse.values())):
        raise RuntimeError(f"_series_terms' premise fails on {region} at rho={rho} from {n_nodes} nodes")
    pairs = evaluate(final + list(coarse.values()), [derive_seed(seed, _TAG_NODE, g, ni)
                                                     for g in range(len(gaps)) for ni in range(n_nodes)])
    final_pairs = pairs[:len(gaps)]
    sums = {g: _gap_sum(rule, p) for (g, rule), p in zip(coarse.items(), pairs[len(gaps):])}
    gap_errors = [0.0] * len(gaps)
    fine = {g: (final[g], final_pairs[g]) for g in coarse}
    while fine:
        doubled = {}
        for g, (rule, p) in fine.items():  # each band against the gap's last, coarser rule
            fine_sum = _gap_sum(rule, p)
            gap_errors[g] = abs(fine_sum - sums[g]) + floors[g]
            final[g], final_pairs[g], sums[g] = rule, p, fine_sum
            if gap_errors[g] > _GAP_TOLERANCE and 2 * len(rule[0]) <= NODE_CAP:
                doubled[g] = _rule(region, gaps[g], 2 * len(rule[0]), rho)
        doubled = {g: rule for g, rule in doubled.items() if _all_exact(rule)}
        fine = dict(zip(doubled, zip(doubled.values(), evaluate(list(doubled.values()))))) if doubled else {}

    def dof(est):
        return est.extra["replicates"] - 1 if est.extra else None

    total = 0.0
    rows, node_vars = [], []
    var_terms = []  # (variance, dof) of each factor's part of a node's variance
    for g, ((times, weights, _, _), p) in enumerate(zip(final, final_pairs)):
        for t, weight, (left, right) in zip(times, weights, p):
            pm, pv = product_estimate(left, right)
            weight = float(weight)
            total += weight * pm
            node_vars.append(weight**2 * pv)
            var_terms += [((weight * left.stderr * right.mean) ** 2, dof(left)),
                          ((weight * right.stderr * left.mean) ** 2, dof(right)),
                          ((weight * left.stderr * right.stderr) ** 2, dof(left))]
            rows.append({
                "component": g, "t": t, "weight": weight,
                "left": left.mean, "left_stderr": left.stderr,
                "right": right.mean, "right_stderr": right.stderr,
            })
    quadrature = sum(gap_errors, 0.0)
    var = sum(node_vars)
    top = int(np.argmax(node_vars))
    top_node = {"component": rows[top]["component"], "t": rows[top]["t"],
                "var_share": node_vars[top] / (var + quadrature**2)} if var else None
    extra = {"nodes": rows, "top_node": top_node}
    replicates = [est.extra["replicates"] for est in factors if est.extra]
    if replicates:
        extra["replicates"] = replicates[-1]
    extra.update(dof=welch_dof(var_terms + [(quadrature**2, None)]),
                 exact_factors=sum(int(np.count_nonzero(rule[3])) for rule in evaluated),
                 quadrature_error=quadrature, nodes_per_gap=[len(rule[0]) for rule in final],
                 gap_errors=gap_errors)
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
            out["grid_bias"] = {"estimate": self.grid_bias.mean, "stderr": self.grid_bias.stderr,
                                "dof": (self.grid_bias.extra or {}).get("dof")}
            out["grid_bias_allowance"] = _GRID_ALLOWANCE * self.combined_stderr
            out["grid_bias_threshold"] = _bias_band(self.grid_bias)
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
    more level at the doubled grid (argmin_coincidence with top_walks),
    and that top level, the per-sample difference between the two grids
    on the same draws, is grid_bias.  No finite grid is unbiased, so the
    check passes when |grid_bias| plus its band, the same t band at its
    own dof (_bias_band), is within the allowance, _GRID_ALLOWANCE times
    the combined stderr.  On several levels the top level's first round
    is the walks its predicted variance needs for a stderr of the
    allowance / _TOP_AIM; on one level, with nothing to predict from, it
    is argmin_coincidence's floor of a few walks.  Until the band lies
    on one side of the allowance it walks on (_top_walks, at most
    _TOP_BUDGETS times lhs_samples in all).  lhs, the levels below the
    top, does not change.  A check that does not pass fails the verdict,
    as does the tie flag of any level.  Every size, the doubled grid's
    included, is checked before the first draw.
    argmin_coincidence replaces a zero stderr where it is not exact, so
    no band here has width 0.
    """
    _check_nodes(n_nodes, region)
    _check_samples(node_samples)
    _direct_plan(region, rho, lhs_n_grid, lhs_samples, check_stability)
    # the RHS first: the check's allowance needs its stderr while the direct route walks
    rhs = rhs_integral(region, rho, n_nodes, node_samples, derive_seed(seed, _TAG_RHS))

    def top_walks(est, walks):
        return _top_walks(est, walks, _GRID_ALLOWANCE * math.hypot(est.stderr, rhs.stderr),
                          min(SAMPLE_CAP, _TOP_BUDGETS * lhs_samples))

    lhs = argmin_coincidence(region, rho, lhs_n_grid, lhs_samples, derive_seed(seed, _TAG_LHS),
                             top_walks=top_walks if check_stability else None)
    lhs_refined = lhs.extra.pop("refined", None)
    grid_bias = lhs.extra.pop("grid_bias", None)
    discrepancy = lhs.mean - rhs.mean
    combined = math.sqrt(lhs.stderr**2 + rhs.stderr**2)
    dof = welch_dof([(lhs.stderr**2, (lhs.extra or {}).get("dof")),
                     (rhs.stderr**2, (rhs.extra or {}).get("dof"))])
    threshold = band_multiplier(dof)
    stability_ok = None if grid_bias is None else (
        abs(grid_bias.mean) + _bias_band(grid_bias) * grid_bias.stderr <= _GRID_ALLOWANCE * combined)
    tied = any(est.extra["tie_flag"] for est in (lhs, lhs_refined) if est is not None)
    return TheoremReport(
        region=str(region), rho=rho, lhs=lhs, rhs=rhs,
        discrepancy=discrepancy, combined_stderr=combined,
        passed=(abs(discrepancy) <= threshold * combined and not tied
                and stability_ok is not False), dof=dof, threshold=threshold,
        lhs_refined=lhs_refined, grid_bias=grid_bias, stability_ok=stability_ok,
    )


def _bias_band(bias: EstimateWithError) -> float:
    """How many stderrs wide the grid bias's band is: the verdict's t band at its own dof."""
    return band_multiplier((bias.extra or {}).get("dof"))


def _top_walks(lhs: EstimateWithError, walks: int, allowance: float, cap: int) -> int | None:
    """The top-level walks that resolve a refined run's stability check, or None.

    lhs is the run so far, walks its top level's.  Before the top level
    walks (walks 0) its first round is the walks its predicted variance
    per walk needs for a stderr of allowance / _TOP_AIM, at most cap.  A
    refined level's variance per walk times its grid is nearly flat
    (1/4..1/2 at rho 0.3, n_grid 4096, 1200 samples, seed 5: 1.27e-3,
    1.43e-3, 1.77e-3, 1.72e-3 and 7.3e-4 at grids 256-4096, and 1.57e-3
    at the top level's 8192), so the prediction is that product, pooled
    over the walks of the refined levels below (lhs.extra["levels"]
    after the first), over twice the finest grid.  A one-level run has
    no refined level, and gets None (as does a prediction of 0): its top
    level starts from argmin_coincidence's floor and walks on by its own
    variance.  The check is resolved once the grid bias's band,
    _bias_band stderrs wide, lies on one side of the allowance (passed
    within it, failed beyond).  Until then the top level gets a fifth
    more walks than its variance predicts for the stderr wanted, ||bias|
    - allowance| / _bias_band: walks times (stderr / wanted)^2, 1 /
    wanted where no pair differed and the stderr is the floor 1 / walks
    (argmin_coincidence); at most _TOP_GROWTH times walks a round, so
    that a check the next round resolves stops there, and at most cap in
    all, which a bias near the allowance would otherwise far exceed.  A
    check unresolved at the cap does not pass.
    """
    if not walks:
        refined = [(row["samples"], row["samples"] * row["stderr"] ** 2, row["grid"])
                   for row in lhs.extra["levels"][1:]]
        if not refined:
            return None
        pooled = sum(n * v * grid for n, v, grid in refined) / sum(n for n, _, _ in refined)
        variance = pooled / (2 * refined[-1][2])
        return min(cap, math.ceil(variance * (_TOP_AIM / allowance) ** 2)) if variance else None
    bias = lhs.extra["grid_bias"]
    wanted = abs(abs(bias.mean) - allowance) / _bias_band(bias)
    if bias.stderr <= wanted or walks + 2 > cap:  # resolved, or no batch of 2 fits under the cap
        return None
    need = (math.inf if wanted == 0.0 else 1.0 / wanted if bias.stderr == 1.0 / walks
            else walks * (bias.stderr / wanted) ** 2)
    return math.ceil(min(cap, _TOP_GROWTH * walks, 1.2 * need))


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
