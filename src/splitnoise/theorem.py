"""Two independent routes to the limiting sign correlation, compared.

Left-hand side: the probability that a pattern-coupled Brownian pair
attains its minimum at the same time, simulated directly (exact off
the region, gridded on it).

Right-hand side: an arc-sine-weighted integral over the unperturbed
gaps.  At a gap time t the perturbation region is pulled back through
the two scaling maps x -> t + (1-t)x and x -> t(1-x), and each pulled-
back set feeds an entrance-law survival-correlation estimate (a
randomized quasi-Monte Carlo one, m_lambda_functional).  The
quadrature substitutes t = sin^2(pi theta / 2), under which the
arc-sine weight becomes the uniform measure in theta, so the endpoint
singularities vanish exactly; nodes are graded toward a gap's interior
ends, where the factors vanish like a small power of the distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupled import _check_steps, argmin_coincidence, discrete_phi, m_lambda_functional
from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import EstimateWithError, _check_samples, derive_seed, product_estimate
from .timesets import TimeSet, affine_preimage

NODE_CAP = 10**5  # quadrature nodes per gap

# sub-stream tags
_TAG_LHS = 101
_TAG_RHS = 102
_TAG_CURVE = 104
_TAG_NODE = 105


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


def _rhs_factors(t: float, region: TimeSet, rho: float, n_samples: int,
                 seed: int) -> tuple[EstimateWithError, EstimateWithError]:
    """The two pulled-back survival-correlation factors at gap time t.

    Returns (left, right): left sees the region before t through
    x -> t(1-x), right the region after t through x -> t + (1-t)x.  A
    side with no region points is exactly 1.  t must lie strictly
    inside a gap: a t outside (0,1) is a DomainError, where a side's
    map degenerates, and a t in the region, endpoints included, is a
    PreconditionError.
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"node time t={t} lies outside (0,1)")
    for lo, hi in region:
        if lo < t < hi:
            raise PreconditionError(f"t={t} lies in the interior of {region}")
        if t in (lo, hi):
            raise PreconditionError(f"t={t} is an endpoint of {region}")
    factors = []
    for side, scale in enumerate((-t, 1.0 - t)):
        pulled = affine_preimage(region, scale, t)
        # the factor does not depend on its entrance time, so heights enter at
        # the region's first point, inside (0,1) for a t inside a gap: no run-in
        factors.append(m_lambda_functional(pulled, rho, pulled[0][0], n_samples,
                                           derive_seed(seed, side))
                       if pulled else EstimateWithError.exact(1.0))
    return tuple(factors)


def rhs_integral(region: TimeSet, rho: float, n_nodes: int,
                 n_samples_per_node: int, seed: int) -> EstimateWithError:
    """Arc-sine integral of the factor products over the gaps of the region.

    Nodes are graded toward each gap's interior ends (_arcsine_nodes).
    Node factors use independent derived streams; the variance combines
    the per-node product variances, so stderr here is propagated rather
    than a direct sample statistic.  Each factor's variance comes from
    its extra["replicates"] randomized-QMC replicates, and so does the
    count reported here.  Per-node diagnostics ride along in
    extra["nodes"], and extra["top_node"] names the node with the
    largest variance term (weight^2 x product variance): its component,
    t and share of the total, or None when the total is 0.
    """
    _check_nodes(n_nodes, region)
    _check_samples(n_samples_per_node)  # before the exact regions' shortcut
    if region.is_full():
        return EstimateWithError.exact(0.0)
    if not region:
        return EstimateWithError.exact(1.0)
    total = 0.0
    var = 0.0
    count = 0
    rows = []
    node_vars = []
    for ci, (a, b) in enumerate(region.complement_components()):
        times, weights = _arcsine_nodes(a, b, n_nodes, (a > 0.0, b < 1.0))
        for ni, (t, weight) in enumerate(zip(times, np.broadcast_to(weights, len(times)))):
            node_seed = derive_seed(seed, _TAG_NODE, ci, ni)
            left, right = _rhs_factors(t, region, rho, n_samples_per_node, node_seed)
            pm, pv = product_estimate(left, right)
            weight = float(weight)
            total += weight * pm
            node_vars.append(weight**2 * pv)
            var += node_vars[-1]
            count += left.n_samples + right.n_samples
            replicates = (left.extra or right.extra)["replicates"]
            rows.append({
                "component": ci, "t": t, "weight": weight,
                "left": left.mean, "left_stderr": left.stderr,
                "right": right.mean, "right_stderr": right.stderr,
            })
    top = int(np.argmax(node_vars))
    top_node = {"component": rows[top]["component"], "t": rows[top]["t"],
                "var_share": node_vars[top] / var} if var else None
    return EstimateWithError(mean=total, stderr=math.sqrt(var), n_samples=count, seed=seed,
                             extra={"nodes": rows, "top_node": top_node,
                                    "replicates": replicates})


@dataclass(frozen=True)
class TheoremReport:
    """Side-by-side record of the two routes and the 4-sigma verdict."""

    region: str
    rho: float
    lhs: EstimateWithError
    rhs: EstimateWithError
    discrepancy: float
    combined_stderr: float
    passed: bool
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
            out["grid_stability_ok"] = self.stability_ok
        return out


def verify_theorem(region: TimeSet, rho: float, seed: int,
                   lhs_n_grid: int = 1 << 13, lhs_samples: int = 20_000,
                   n_nodes: int = 24, node_samples: int = 20_000,
                   check_stability: bool = False) -> TheoremReport:
    """Run both routes and compare at four combined standard errors.

    With check_stability, the one direct run also walks the doubled grid
    from the same draws (argmin_coincidence with refine), and the paired
    per-sample difference, grid_bias, must lie within four of its own
    standard errors.  A disagreement fails the check, as does the tie
    flag of either grid.  Every size, the doubled grid's included, is
    checked before the first draw.  argmin_coincidence replaces a zero
    stderr where it is not exact, so no band here has width 0.
    """
    _check_nodes(n_nodes, region)
    _check_samples(node_samples)
    lhs = argmin_coincidence(region, rho, lhs_n_grid, lhs_samples,
                             derive_seed(seed, _TAG_LHS), refine=check_stability)
    rhs = rhs_integral(region, rho, n_nodes, node_samples, derive_seed(seed, _TAG_RHS))
    lhs_refined = lhs.extra.pop("refined", None)
    grid_bias = lhs.extra.pop("grid_bias", None)
    discrepancy = lhs.mean - rhs.mean
    combined = math.sqrt(lhs.stderr**2 + rhs.stderr**2)
    stability_ok = None if grid_bias is None else abs(grid_bias.mean) <= 4.0 * grid_bias.stderr
    tied = any(est.extra["tie_flag"] for est in (lhs, lhs_refined) if est is not None)
    return TheoremReport(
        region=str(region), rho=rho, lhs=lhs, rhs=rhs,
        discrepancy=discrepancy, combined_stderr=combined,
        passed=(abs(discrepancy) <= 4.0 * combined and not tied
                and stability_ok is not False),
        lhs_refined=lhs_refined, grid_bias=grid_bias, stability_ok=stability_ok,
    )


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
