"""Coupled-path Monte Carlo: coupling kernels and the estimators.

A perturbation region A and a correlation level rho couple a pair of
paths: their increments correlate at rho on A and are shared bitwise
elsewhere.  Only the walk estimator, discrete_phi, works per step: it
packs 64 +-1 steps into a random word, toggles the steps whose left
endpoint lies in A with exact Bernoulli bits, and by the parity rule
needs only the two walks' running minima.  The Brownian routes turn
standard normals into scalar-rho increment pairs with one kernel,
_couple, at rho on a piece of A and at 1 on a shared piece: the direct
route on fresh draws, survival on given normals.

The argmin coincidence (the direct route) is exact across the gaps
of A, where the pair shares its increments, and gridded only on A.
It is multilevel: the grids double up to n_grid from a coarsest grid
of at least 16, the samples follow Giles' allocation from a stated
variance and cost model, and each level above the first walks its grid
and derives the grid below from the same draws, scoring the
difference.  The first and the last gap take no draw:
their shared minima are integrated out in closed form, through
bivariate-normal probabilities (Owen 1956), and, beside them, the
first middle gap's minimum in three pieces.  The pair's displacement over A
and its middle gaps is stratified: each batch draws its end points in
polar cells of the plane (_polar_cells, from plain uniforms), and the
walk goes toward them as a chain of bridge steps, one per middle gap
and per block of A's steps; the estimate weighs the cell means.  It
uses none of the survival kernels below.

Path-survival functionals are estimated without a grid, by one rule:
up to the end of the last rho-run, each piece (a shared stretch at
correlation 1 or a rho-run at rho) is one coupled step of its whole
length, weighted by the Dirichlet heat kernel of the wedge
{W > 0, W' > 0} (_wedge_noncrossing): the probability that the pair
stays positive inside the piece given its ends.  At correlation 1 the
pair moves in parallel and the kernel is the lower path's bridge step.
The shared tail is the reflection closed form.  No crossing weight is
factorised across the pair, so survival carries no grid bias.  Its
points are randomized quasi-Monte Carlo (sampling.ScrambledHalton, 16
independent replicates), turned into heights and normals by inverse
transforms; the direct route and the walk draw plain streams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
from scipy.special import erf, erfc, ive, ndtr, ndtri, owens_t

from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import (SAMPLE_CAP, EstimateWithError, ScrambledHalton, _check_samples,
                       batch_sizes, derive_rng)

STEP_CAP = 10**7  # steps per path: walk length, n_grid, --node-steps
_TAIL_4SIGMA = 6.33e-5  # P(|Z| > 4) for a standard normal Z

# fixed batch shapes (reproducibility: a pure function of the parameters)
_WALK_BATCH = 1 << 17
_SURVIVAL_BATCH = 1 << 16
_ARGMIN_BATCH = 1 << 11  # samples per batch on the direct route
# elements per array in one block of A's steps: the fastest of 2^13, 2^15,
# 2^17 and 2^19 on 1/4..1/2 at n_grid 4096, 1200 samples, plain and refined;
# from 2^17 up (2^19 plain) the block's temporaries page-fault on every call
_ARGMIN_BLOCK = 1 << 15
# the multilevel direct route: the coarsest grid, the fewest samples a
# level takes, and a sample's cost beyond its steps on A, in steps.  A
# walk's time per sample, less about 0.07 us per step on A, is 0.8-1.1
# us on 1/4..1/2 and 2-6 us on 1/4..1/2,5/8..3/4 (three-piece end
# scores) at 2048 samples a batch, and 4-16 us at 64; at 96 steps (about
# 7 us) the multilevel run takes no longer than the one-level run at
# n_grid 4096 on either region (measured on 2 cores, numpy 2.4)
_COARSEST_GRID = 16
_LEVEL_FLOOR = 32
_SAMPLE_COST = 96
# the variance model that allocates the samples: a sample of the
# level at grid g >= 2 n0 varies (_LEVEL_DECAY * _COARSEST_GRID / g) times
# as much as a plain one.  Measured at n_grid 4096, 1200 samples: 0.017
# (1/4..1/2 at rho 0.3), 0.037 (1/4..1/2,5/8..3/4 at 0.5), 0.09
# (1/8..1/4,3/8..1/2,5/8..3/4 at 0.5) and 0.16 (1/4..1/2 at 0.9)
_LEVEL_DECAY = 0.1

# wedge kernel: the truncation error allowed in one weight (the product
# stands in below this crossing probability, and a sample's Bessel series
# stops at this term size), and the angular energy beyond which the
# series cancels to rounding noise
_SERIES_TOL = 1e-13
_SERIES_GAP = 20.0

# estimator stream tags for seed derivation
_TAG_DISCRETE_PHI = 1
_TAG_ARGMIN = 2
_TAG_MLAMBDA = 4


# -- argument checks ----------------------------------------------------------

def _check_rho(rho: float):
    if not 0.0 <= rho < 1.0:
        raise DomainError(f"rho={rho} outside [0,1)")


def _check_steps(n: int):
    if n < 1:
        raise DomainError("need at least one step")
    if n > STEP_CAP:
        raise ResourceLimitError(f"{n} grid steps exceed the cap {STEP_CAP}")


def _check_grid(n_grid: int):
    if n_grid < 2:
        raise DomainError("need at least two grid steps")
    _check_steps(n_grid)


# -- coupling kernel ---------------------------------------------------------

def _couple(rho: float, sqdt: float, z: np.ndarray,
            z_prime: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The coupling kernel: increments db = sqdt z and db' = rho db + sqrt(1-rho^2) sqdt z'.

    Given standard normals z and z', it works in place on them; at
    rho = 1, db' is db itself and z' is not read.
    """
    z *= sqdt
    if rho == 1.0:
        return z, z
    z_prime *= math.sqrt(1.0 - rho**2) * sqdt
    z_prime += rho * z
    return z, z_prime


# -- discrete-model correlation estimator ----------------------------------

def discrete_phi(region, rho: float, n: int, n_samples: int,
                 seed: int) -> EstimateWithError:
    """MC estimate of E[sgn(X_n) sgn(X'_n)] for the walk pair coupled on the region.

    Parity rule: sgn(X_n) = (-1)^(min_{k<=n} Z_k), so each sample is
    (-1)^(m + m') with m, m' the running minima of the two driving walks;
    X and X' are never reconstructed.

    Packed draws: bit k of a random_raw word is the sign of step k of a
    64-step block of Z (set means -1).  Z' is Z with the bits of a flip
    word toggled, masked to the steps whose left endpoint lies in the
    region.  Flip bits are exact Bernoulli((1 - rho)/2) (_bernoulli_word),
    so E[eps eps'] = rho on every perturbed step, and Z' = Z bitwise
    elsewhere.  The minima advance 16 steps at a time through the
    displacement and lowest-prefix tables of _prefix_tables.  Of the N =
    n_samples signs only the count of odd m + m' is kept: the mean is
    (N - 2 odd) / N, and the stderr sqrt((1 - mean^2) / (N - 1)) is the
    sample stderr of N values +-1.
    """
    _check_rho(rho)
    _check_steps(n)
    masks = _word_masks(region, n)
    flip = ((1.0 - rho) / 2.0).as_integer_ratio()
    odd = 0
    for i, b in enumerate(batch_sizes(n_samples, _WALK_BATCH)):
        low = _pair_minima(masks, n, flip, b, derive_rng(seed, _TAG_DISCRETE_PHI, i))
        odd += int(np.count_nonzero((low[0] + low[1]) & 1))
    mean = (n_samples - 2 * odd) / n_samples
    return EstimateWithError(mean, math.sqrt((1.0 - mean * mean) / (n_samples - 1)),
                             n_samples, seed)


def _word_masks(region, n: int) -> np.ndarray:
    """One uint64 per 64-step block of the n-step walk, bit k set iff step k is perturbed.

    Step k is perturbed iff its left endpoint k/n lies in a (lo, hi)
    component of the region (a TimeSet or float pairs).
    """
    grid = np.arange(n) / n
    bits = np.zeros(-(-n // 64) * 64, dtype=bool)
    for lo, hi in region:
        bits[:n] |= (grid >= lo) & (grid <= hi)
    return np.packbits(bits, bitorder="little").view("<u8")


@functools.cache
def _prefix_tables() -> tuple[np.ndarray, np.ndarray]:
    """Displacement D[p] and lowest prefix M[p] of the 16-step walk coded by p.

    Bit k of p set means step k is -1.  M[p] is the lowest of the 17
    partial sums, the empty one included, so M[p] <= 0.
    """
    p = np.arange(1 << 16)
    d = np.zeros(p.size, dtype=np.int64)
    m = np.zeros_like(d)
    for k in range(16):
        d += 1 - 2 * ((p >> k) & 1)
        np.minimum(m, d, out=m)
    d.flags.writeable = m.flags.writeable = False  # shared by every call
    return d, m


def _bernoulli_word(ratio: tuple[int, int], rng: np.random.Generator,
                    b: int) -> np.ndarray:
    """b words of independent bits, each set with probability exactly num / den.

    ratio = (num, den) with den a power of two, as float.as_integer_ratio
    gives it.  Each bit compares a uniform U with q = num / den =
    0.q_1 q_2 ... q_K, one random word per binary digit of U, from the
    first digit down, and is set iff U < q.  A bit stays open while U's
    digits equal q's: a 1-digit of q sets the open bits whose U-digit is
    0, and a 0-digit closes the open bits whose U-digit is 1.  Each digit
    closes about half of the open bits, so the words stop after about
    log2(64 b) digits, not K.
    """
    num, den = ratio
    acc = np.zeros(b, dtype=np.uint64)
    open_bits = np.full(b, ~np.uint64(0))
    for j in reversed(range(den.bit_length() - 1)):
        word = rng.bit_generator.random_raw(b)
        if num >> j & 1:
            acc |= open_bits & ~word
            open_bits &= word
        else:
            open_bits &= ~word
        if j and not open_bits.any():  # every bit decided: no more words
            break
    return acc


def _coupled_words(mask, flip: tuple[int, int], rng: np.random.Generator,
                   b: int) -> np.ndarray:
    """Coupled +-1 steps of b walk pairs over one 64-step block, as words (2, b).

    Bit k of a word is step k, set meaning -1.  Row 1 is row 0 with the
    steps in mask toggled by Bernoulli(num / den) flip bits, flip =
    (num, den); with
    no bit in mask it is row 0 and no flip word is drawn.
    """
    words = np.empty((2, b), dtype=np.uint64)
    words[0] = rng.bit_generator.random_raw(b)
    words[1] = words[0]
    if mask:
        words[1] ^= _bernoulli_word(flip, rng, b) & mask
    return words


def _pair_minima(masks: np.ndarray, n: int, flip: tuple[int, int], b: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Running minima (2, b) of b coupled n-step walk pairs, Z then Z'.

    Per 16-step chunk p of each walk: low = min(low, z + M[p]) and
    z += D[p].  The unused steps of a last partial chunk are zeroed to
    +1 steps, which cannot lower the minimum.
    """
    d_table, m_table = _prefix_tables()
    z = np.zeros((2, b), dtype=np.int64)
    low = np.zeros((2, b), dtype=np.int64)
    for j, mask in enumerate(masks):
        # arithmetic shifts of the signed view, then the chunk's low bits
        signed = _coupled_words(mask, flip, rng, b).view(np.int64)
        for shift in range(0, min(64, n - 64 * j), 16):
            p = (signed >> shift) & min(0xFFFF, (1 << (n - 64 * j - shift)) - 1)
            np.minimum(low, z + m_table[p], out=low)
            z += d_table[p]
    return low


# -- argmin coincidence (the left-hand side of the main identity) -----------

def argmin_coincidence(region, rho: float, n_grid: int, n_samples: int,
                       seed: int, refine: bool = False, top_walks=None) -> EstimateWithError:
    """P(the coupled Brownian pair attains its minimum at the same time).

    The pair is walked over the pieces of [0,1] in time order.  Each
    path keeps its lowest candidate minimum and a label for where it
    lies (time 0 and every shared gap have a label both paths share):

    - a shared gap between components of A is one exact step: both
      paths move by one increment d and get the same bridge minimum,
      (d - sqrt(d^2 + 2 L E)) / 2 above their start with E ~ Exp(1),
      under the gap's label; on a region with an outer gap the first
      middle gap's minimum is integrated out instead (_end_scores);
    - a component of A is walked in coupled steps, and each path gets
      the exact bridge minimum of every step from the step's two grid
      values, under a label of its own: for rho < 1 the continuous
      argmins inside A coincide with probability 0;
    - the first gap [0, lo] and the last gap, ending at 1, take no
      draw.  Heights are measured from W(lo): the first gap's minimum
      is then -X with X ~ sqrt(lo) |Z|, shared by both paths and
      independent of the rest, and the last gap's minimum lies Y ~
      sqrt(L) |Z'| below each path's end.  A sample scores the
      probability of coincidence given its walk with X and Y
      integrated out (_outer_gaps, through bivariate-normal
      probabilities: Owen, "Tables for computing bivariate normal
      probabilities", Ann. Math. Statist. 27, 1956).  With no first
      gap only the last is integrated out (_last_gap), so the empty
      region gives exactly 1; the full region gives exactly 0.

    The estimate is multilevel (Giles, "Multilevel Monte Carlo path
    simulation", Oper. Res. 56, 2008): the grids double from a coarsest
    grid n0 >= min(_COARSEST_GRID, n_grid) up to n_grid, level 0 is the
    plain walk at n0, and level l >= 1 walks the grid n_l with the grid
    n_(l-1) derived from the same draws (refine below) and scores fine
    minus coarse.  A component of length x takes 2^l ceil(n0 x) steps
    at level l, so the levels telescope exactly.  Levels are
    independent, their streams keyed by grid and batch.  _levels gives
    level l Giles' count, proportional to sqrt(V_l / C_l), at a cost of
    n_samples walks at n_grid (C_l: steps on A plus _SAMPLE_COST per
    sample; V_l: a fixed variance model, _LEVEL_DECAY), or
    _LEVEL_FLOOR where that count falls below it, and takes the n0 of
    least modelled variance: n_grid, one level of n_samples walks, when
    no chain beats it.

    Each level is stratified on what the score depends on most: the
    pair's displacement from the start of A to the end of its last
    component.  Each batch draws that end point from _polar_cells and
    walks the middle gaps and A's steps as bridges toward it
    (_coincidence_walk), so a sample has the free walk's law given its
    cell.  A batch's estimate weighs its cell means by the cells'
    probabilities, and its variance comes from each cell's own samples
    (_stratified: one degree of freedom per cell of 2 samples); the
    batches weigh b / N.  Batches hold 2048 samples, and a last batch
    of 1 joins the one before, so every batch holds at least one cell.
    extra["dof"] is the Welch-Satterthwaite degrees of freedom over
    every level's cells, extra["strata"] the number of cells, and
    extra["levels"] one row per level: its grid, samples, strata,
    estimate (its term of the sum), stderr and var_share.  n_samples
    reports the budget, in walks at n_grid.

    The one approximation left: inside a rho-step the two paths'
    minima are drawn independently given the step's ends.  The bias
    this leaves shrinks as the grid on A is refined.  A sample is tied
    when a path's best candidate equals another of its candidates in
    floating point; a tie fraction above 0.1% on any level flags the
    run, and tie_fraction is the largest level's.

    With refine, the budget is n_samples walks at 2 n_grid, and a top
    level at 2 n_grid follows the levels of the run without refine:
    extra["refined"] is the estimate at 2 n_grid, the sum of every
    level, and extra["grid_bias"] the top level alone, the paired
    per-sample difference between the grids n_grid and 2 n_grid.  The
    estimate itself is the sum of the other levels, bit for bit the run
    without refine, and the top level takes the rest of the budget, at
    least 2 walks.  top_walks, when given, may ask the top level for
    more walks: it is called with the result and the top level's walks,
    and returns the walks the top level should have, or None.  The top
    level then walks the difference in more batches, numbered on from
    its own, and the result is formed again; this repeats until it
    returns None or no more than it has.  The estimate and the levels
    below do not change.

    A 4-sigma band of width 0 cannot fail, so on a region neither empty
    nor full, with n = n_samples, a stderr of 0 is replaced.  The
    estimate gets s = (1 - q^(1/n)) / 4, q = _TAIL_4SIGMA: 4 s is the
    largest p with (1 - p)^n >= q, the exact binomial bound of a count
    of 0 (or n) at 4 sigma.  A grid_bias of stderr 0 gets 1 / m, the
    stderr of one paired sample in m that differs by 1, where m is the
    top level's walks.
    A replaced stderr has no dof.
    """
    levels = _direct_plan(region, rho, n_grid, n_samples, refine)
    # per level: sums of b times the batch estimate of its term, b^2 times
    # its variance and b^4 times its Welch term, and its tied samples
    sums = np.zeros((len(levels), 3))
    ties = np.zeros(len(levels))

    def walk(k, sizes, first=0):
        """Walk level k's batches of the given sizes, numbered from first, into its sums."""
        grid, steps, walk_refine, _ = levels[k]
        components = [(lo, hi, m) for (lo, hi), m in zip(region, steps)]
        for i, b in enumerate(sizes, first):
            rng = derive_rng(seed, _TAG_ARGMIN, grid, i)
            target, cell, weight = _polar_cells(b, rng)
            values, tied = _coincidence_walk(components, rho, target, rng, walk_refine)
            diff = values[-1] - values[0] if walk_refine else values[0]
            mean, var, welch = _stratified(diff[None], cell, weight)
            sums[k] += [b * mean[0], b * b * var[0], b**4 * welch[0]]
            ties[k] += np.count_nonzero(tied.any(axis=0))

    def result():
        """The estimate of the levels walked so far, with refine its refined run and grid bias."""
        n = np.array([float(sum(level[3])) for level in levels])
        means, tied = sums / np.transpose([n, n * n, n**4]), ties / n
        floor = (1.0 - _TAIL_4SIGMA ** (1.0 / n_samples)) / 4.0
        shown = [(grid, sizes) for grid, _, _, sizes in levels]
        below = len(levels) - refine  # the levels the estimate sums
        est = _level_sum(means[:below], shown[:below], tied[:below], region, floor, n_samples, seed)
        if refine:
            est.extra["refined"] = _level_sum(means, shown, tied, region, floor, n_samples, seed)
            est.extra["grid_bias"] = _nonzero_stderr(
                EstimateWithError(float(means[-1, 0]), math.sqrt(means[-1, 1]), n_samples, seed),
                region, 1.0 / float(n[-1]))
        return est

    for k, level in enumerate(levels):
        walk(k, level[3])
    est = result()
    while refine and top_walks is not None:
        grid, steps, walk_refine, sizes = levels[-1]
        total = top_walks(est, sum(sizes))
        if total is None or total <= sum(sizes):
            return est
        more = _batches(max(2, total - sum(sizes)))
        walk(len(levels) - 1, more, len(sizes))
        levels[-1] = (grid, steps, walk_refine, sizes + more)
        est = result()
    return est


def _direct_plan(region, rho: float, n_grid: int, n_samples: int, refine: bool):
    """Check a direct-route run's arguments and sizes, before any draw, and give its levels (_levels)."""
    _check_rho(rho)
    _check_grid(n_grid)
    _check_steps((1 + refine) * n_grid)  # the finest grid walked
    return _levels([hi - lo for lo, hi in region], n_grid, n_samples, refine)


def _level_sum(sums: np.ndarray, levels, ties: np.ndarray, region, floor: float,
               n_samples: int, seed: int) -> EstimateWithError:
    """The sum of the levels' terms: sums (levels, 3) holds each one's mean, variance and Welch term.

    levels are each level's reported grid and batch sizes, ties its tie fraction.
    """
    mean, var, welch = (float(sum(column)) for column in sums.T)
    rows = [{"grid": grid, "samples": sum(sizes), "strata": sum(b // 2 for b in sizes),
             "estimate": float(m), "stderr": math.sqrt(v), "var_share": float(v / var) if var else None}
            for (grid, sizes), (m, v, _) in zip(levels, sums)]
    fraction = float(ties.max())
    return _nonzero_stderr(EstimateWithError(mean, math.sqrt(var), n_samples, seed, extra={
        "tie_fraction": fraction, "tie_flag": fraction > 1e-3,
        "strata": sum(row["strata"] for row in rows),
        "dof": var * var / welch if welch else None, "levels": rows}), region, floor)


def _nonzero_stderr(est: EstimateWithError, region, floor: float) -> EstimateWithError:
    """est, with a stderr of 0 reported as floor, and no dof, on a region neither empty nor full."""
    if est.stderr == 0.0 and region and not region.is_full():
        if est.extra:
            est.extra["dof"] = None
        return replace(est, stderr=floor)
    return est


def _levels(lengths, n_grid: int, n_samples: int, refine: bool):
    """The levels of a run, coarsest first: (grid, steps per component, refine walk, batch sizes).

    A chain from the coarsest grid n0 doubles up to n_grid; a component
    of length x takes grid / n0 * ceil(n0 x) steps, and every level but
    the first walks its grid refined.  Samples follow Giles' allocation
    on a stated model: a sample of level l costs C_l, the steps it walks
    on A plus _SAMPLE_COST, and varies V_l, 1 at l = 0 and _LEVEL_DECAY
    * _COARSEST_GRID / n_l above (in units of one plain sample's); the
    budget B is n_samples times the cost of the walk at n_grid.  The
    counts of least variance, sum V_l / N_l, at cost B with none below
    _LEVEL_FLOOR hold the fewest top levels at the floor that leave the
    others at it or above, and give the others
    N_l = min(SAMPLE_CAP, floor(B' sqrt(V_l / C_l) / (sum over those k of sqrt(V_k C_k)))),
    with B' what the held levels leave of B.  Of the chains from
    every n0 down to min(_COARSEST_GRID, n_grid) whose floors fit and
    whose levels walk at most STEP_CAP steps, the run takes the one of
    least modelled variance; one level of n_samples walks at n_grid
    (variance 1 / n_samples) is the choice when no chain beats it.

    With refine the budget is n_samples walks at 2 n_grid: the levels
    are those without refine, and the rest of the budget goes to a top
    level at 2 n_grid, walked refined, last (at least 2 samples).
    Every level's steps and batch sizes are checked here, before the
    first draw.
    """
    _check_samples(n_samples)  # the budget is a sample count
    budget = n_samples * (sum(math.ceil(n_grid * x) for x in lengths) + _SAMPLE_COST)

    def steps(grid, base):
        return [grid // base * math.ceil(base * x) for x in lengths]

    chain, counts, least = [n_grid], [n_samples], 1.0 / n_samples
    grids = [n_grid]
    while grids[0] % 2 == 0 and grids[0] // 2 >= min(_COARSEST_GRID, n_grid):
        base = grids[0] // 2
        grids = [base] + grids
        walked = [sum(steps(grid, base)) for grid in grids]
        var = [1.0] + [_LEVEL_DECAY * _COARSEST_GRID / grid for grid in grids[1:]]
        cost = [m + _SAMPLE_COST for m in walked]
        for held in range(len(grids)):  # the counts fall with l: hold the top ones at the floor
            free = len(grids) - held
            scale = (budget - _LEVEL_FLOOR * sum(cost[free:])) / sum(
                math.sqrt(v * c) for v, c in zip(var[:free], cost[:free]))
            plan = [min(SAMPLE_CAP, math.floor(scale * math.sqrt(v / c)))
                    for v, c in zip(var[:free], cost[:free])] + [_LEVEL_FLOOR] * held
            if plan[free - 1] >= _LEVEL_FLOOR:
                break
        if plan[0] >= _LEVEL_FLOOR and max(walked) <= STEP_CAP:
            total = sum(v / n for v, n in zip(var, plan))
            if total < least:
                chain, counts, least = grids, plan, total
    base = chain[0]
    levels = [(grid, steps(grid, base), grid > base, n) for grid, n in zip(chain, counts)]
    if refine:
        top = steps(2 * n_grid, base)
        cost = sum(top) + _SAMPLE_COST
        spent = sum(n * (sum(s) + _SAMPLE_COST) for _, s, _, n in levels)
        levels.append((2 * n_grid, top, True, max(2, (n_samples * cost - spent) // cost)))
    plan = []
    for grid, s, walk_refine, n in levels:
        if s:  # the steps one path walks, on every component
            _check_steps(sum(s))
        plan.append((grid, s, walk_refine, _batches(n)))
    return plan


def _batches(n: int) -> list[int]:
    """n samples (checked) in batches of at most _ARGMIN_BATCH, a last batch of 1 joining the one before."""
    sizes = batch_sizes(n, _ARGMIN_BATCH)
    if sizes[-1] == 1:
        sizes[-2:] = [sizes[-2] + 1]
    return sizes


def _polar_cells(b: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b stratified standard normal pairs (2, b), each point's cell (b,), and the cells' probabilities.

    The plane is cut into c = b // 2 cells: m = isqrt(c) radial bands
    of equal probability, band k holding the radii with 1 - exp(-r^2/2)
    in [k / m, (k + 1) / m), and band k cut into s_k equal angular
    sectors, s_k = floor((k + 1) c / m) - floor(k c / m).  Cell j of
    band k has probability 1 / (m s_k).  Points 2i and 2i + 1 lie in
    cell i; the last cell also takes point b - 1 when b is odd.  Each
    point is N(0, I) given its cell, from two plain uniforms u, v (Box
    and Muller): r = sqrt(-2 ln(1 - (k + u) / m)) at the angle
    2 pi (j + v) / s_k.
    """
    cells = b // 2
    bands = math.isqrt(cells)
    sectors = np.diff(np.arange(bands + 1) * cells // bands)
    band = np.repeat(np.arange(bands), sectors)
    sector = np.arange(cells) - np.repeat(np.cumsum(sectors) - sectors, sectors)
    cell = np.minimum(np.arange(b) // 2, cells - 1)
    u, v = rng.random((2, b))
    k, s = band[cell], sectors[band[cell]]
    radius = np.sqrt(-2.0 * np.log((bands - k - u) / bands))
    angle = (2.0 * math.pi) * (sector[cell] + v) / s
    return radius * np.array([np.cos(angle), np.sin(angle)]), cell, 1.0 / (bands * sectors[band])


def _stratified(values: np.ndarray, cell: np.ndarray,
                weight: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stratified estimate of each row of values (k, b), its variance and its Welch term.

    cell is each sample's cell and weight each cell's probability.  The
    weighted cell means are divided by the weights' own sum, summed in
    the same order, so a row of ones gives exactly 1 (and of zeros 0).
    The variance is the sum of the cells' terms v = weight^2 s^2 /
    count, s^2 the sample variance of a cell's own samples, and the
    Welch term the sum of v^2 / (count - 1), the denominator of the
    Welch-Satterthwaite degrees of freedom (Welch, Biometrika 34, 1947).
    """
    count = np.bincount(cell)
    means = np.array([np.bincount(cell, row) for row in values]) / count
    dev = values - means[:, cell]
    var = np.array([np.bincount(cell, row * row) for row in dev]) / (count * (count - 1.0))
    total = weight.sum()
    terms = var * (weight / total) ** 2
    return ((means * weight).sum(axis=1) / total, terms.sum(axis=1),
            (terms * terms / (count - 1.0)).sum(axis=1))


# minima inside A: one label per path (W' keeps its label on both levels)
_OWN_LABELS = np.array([[-1], [-2], [-2]])


def _coincidence_walk(components, rho: float, target: np.ndarray, rng: np.random.Generator,
                      refine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample coincidence probability and tie flag of b pairs walked over [0,1].

    components are (lo, hi, steps) in time order, and target (2, b)
    holds standard normals: the end point, scaled to unit variance, of
    each pair's (S, D) = ((W + W') / sqrt(2), (W - W') / sqrt(2)) from
    the start of A to the end of its last component.  S and D are
    independent Brownian motions, at variance rates 1 + rho and 1 - rho
    on A and 2 and 0 on a shared gap.  The middle gaps and A's blocks of
    steps are walked as pieces, each a bridge step toward the target: a
    piece of variance v, with V left (its own included), moves each
    coordinate by (v / V) of what is left to go plus N(0, v (V - v) / V)
    noise, and the last piece moves exactly what is left.

    On a region with an outer gap the first middle gap's minimum is not
    drawn: the walk keeps its start heights, its rise and one uniform
    per sample, and _end_scores integrates it out in three pieces once
    every other candidate is known.  Later middle gaps are drawn, and so
    is every middle gap of a region that touches 0 and reaches 1, where
    a sample then scores exactly 0 or 1.

    Both results are (levels, b): with refine the grid of step pairs,
    then the grid walked.  Axis 0 of every state array is the path: W,
    W', and with refine W' on the grid of step pairs.  A's steps are
    walked in blocks of about _ARGMIN_BLOCK elements per array (an even
    step count with refine: no pair straddles two blocks), whose
    temporaries are allocated once per shape (scratch) and reused.  Each
    block offers every path's lowest bridge minimum as a candidate,
    which also carries the tie test across blocks.
    """
    b = target.shape[1]
    rows = 2 + refine
    scratch = functools.cache(lambda name, shape: np.empty(shape))
    head = components[0][0] if components else 0.0  # the first gap's length
    w = np.zeros((rows, b))  # heights from W(head)
    # time 0, where both paths start; after a first gap, none yet (the
    # gap's minimum is integrated out at the end)
    best = np.full((rows, b), np.inf if head > 0.0 else 0.0)
    label = np.zeros((rows, b), dtype=np.int64)
    tied = np.zeros((rows, b), dtype=bool)

    def offer(candidate, own_label, own_tie=False):
        lower = candidate < best
        tied[...] = np.where(lower, own_tie, tied | (candidate == best))
        label[...] = np.where(lower, own_label, label)
        np.minimum(best, candidate, out=best)

    block = max(1, _ARGMIN_BLOCK // b)
    block += block % 2  # even, so a refined walk's blocks are the plain walk's
    pieces = []  # (steps, dt, label): a middle gap is one step under its label, 0 on A
    now = head
    for k, (lo, hi, steps) in enumerate(components):
        if lo > now:
            pieces.append((1, lo - now, k + 1))
        pieces += [(min(block, steps - first), (hi - lo) / steps, 0)
                   for first in range(0, steps, block)]
        now = hi
    # each piece's variance in S and D, and the variance left from it on
    var = np.reshape([(2.0 * dt, 0.0) if gap else (m * dt * (1.0 + rho), m * dt * (1.0 - rho))
                      for m, dt, gap in pieces], (-1, 2))
    var_left = np.cumsum(var[::-1], axis=0)[::-1]
    left = target * np.sqrt(var.sum(axis=0))[:, None]  # (S, D) still to go
    # with an outer gap the first middle gap is integrated out at the end;
    # with none every sample scores 0 or 1, and the gap is drawn
    smooth = None if head > 0.0 or now < 1.0 else False
    for (m, dt, gap), v, v_left in zip(pieces, var, var_left):
        moving = 1 if gap else 2  # a shared gap moves S alone
        step = left[:moving] * (v / v_left)[:moving, None]
        step += rng.standard_normal((moving, b)) * np.sqrt(v * (v_left - v) / v_left)[:moving, None]
        left[:moving] -= step
        if gap:
            d = step[0] * math.sqrt(0.5)
            if smooth is None:
                smooth = (w.copy(), d, dt, rng.random(b))
            else:
                root = rng.standard_exponential(b)
                root *= 2.0 * dt
                offer(w + _bridge_low(d, root), gap)
            w += d
            continue
        move = np.array([step[0] + step[1], step[0] - step[1]]) * math.sqrt(0.5)
        lows, own_tie, moves = _one_level_block(rho, dt, (m, b), move, rng, scratch, refine)
        lows += w
        offer(lows, _OWN_LABELS[:rows], own_tie)
        w += moves
    levels = list(range(rows - 1, 0, -1))  # with refine, the grid of step pairs first
    same = label[0] == label[levels]
    return _end_scores(w, best, same, head, 1.0 - now, smooth or None), tied[0] | tied[levels]


def _end_scores(w: np.ndarray, best: np.ndarray, same: np.ndarray, head: float,
                tail: float, gap=None) -> np.ndarray:
    """Per-level coincidence probability (levels, b) of pairs walked to the last gap.

    w and best (rows, b) are each path's end height and lowest
    candidate, from W(head); row 0 is W and the rows after it the W' of
    each level, last first.  same (levels, b) says whether W's
    candidate and a level's W' candidate share a label.  The outer gaps
    of lengths head and tail are integrated out.

    gap, if given, is a middle gap left out of best: (start, d, L, u),
    the paths' heights (rows, b) at its start, its rise d (b,), its
    length and a uniform (b,).  Its minimum M below the start has
    P(M < m) = F(m) = exp(-2 m (m - d) / L) for m < min(0, d), and path
    p takes the gap iff M < u_p = best_p - start_p.  The three pieces
    of M's law, neither path takes it, the one with the larger u_p
    does, both do (and only then share its label), are weighed by F and
    each scored at one inverse-transform draw, (d - sqrt(d^2 - 2 L ln
    s)) / 2 for s uniform on the piece's range of F, from the one
    uniform u.
    """
    pairs = [[0, r] for r in range(w.shape[0] - 1, 0, -1)]
    e, a = (np.concatenate([x[pair] for pair in pairs], axis=1) for x in (w, best))
    same = same.reshape(-1)
    if gap is not None:  # the three pieces, side by side
        start, d, length, u = gap
        start = np.concatenate([start[pair] for pair in pairs], axis=1)
        d, u = np.tile(d, len(pairs)), np.tile(u, len(pairs))
        low = a - start  # the gap's minimum takes a path below this
        log_f = np.where(low < np.minimum(d, 0.0), -2.0 * low * (low - d) / length, 0.0)
        lo, hi = log_f.min(axis=0), log_f.max(axis=0)
        ratio = np.exp(lo - hi)
        # ln s on the pieces F < F(min u) and F(min u) <= F < F(max u)
        both = _bridge_low(d, -2.0 * length * (lo + np.log1p(-u)))
        one = _bridge_low(d, -2.0 * length * (hi + np.log1p(-(1.0 - ratio) * u)))
        taker = np.arange(2)[:, None] == np.argmax(log_f, axis=0)
        weights = np.array([-np.expm1(hi), np.exp(hi) * (1.0 - ratio), np.exp(lo)])
        e = np.tile(e, 3)
        a = np.concatenate([a, np.where(taker, start + one, a), start + both], axis=1)
        same = np.concatenate([same, np.zeros_like(same), np.ones_like(same)])
    scores = _outer_gaps(e, a, same, head, tail) if head > 0.0 else _last_gap(e - a, same, tail)
    if gap is not None:
        scores = (weights * scores.reshape(3, -1)).sum(axis=0)
    return scores.reshape(len(pairs), -1)


def _lowest(lows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's lowest candidate in lows (m, b), and whether another one equals it."""
    low = lows.min(axis=0)
    return low, np.add.reduce(lows == low, axis=0, dtype=np.intp) > 1


def _one_level_block(rho: float, dt: float, shape, move: np.ndarray,
                     rng: np.random.Generator, scratch, refine: bool = False):
    """Lowest bridge minima, their tie flags and the moves of W, W' over shape = (m, b) steps.

    The block moves W and W' by move (2, b): each path's free coupled
    steps are shifted by one constant so that they sum to its move, the
    exact coupled bridge (the steps less their mean are independent of
    their sum).  Minima are relative to each path's position before the
    block; scratch(name, shape) hands out the block's reusable arrays.
    With refine (m even) a third row is W' on the grid of step pairs,
    from the same draws: steps (g0, g1) of W and (h0, h1) of W' make one
    step where W' rises by h0 + h1 with midpoint noise
    eta = ((h0 - h1) - rho (g0 - g1)) / (2 sqrt(1 - rho^2)).
    As (h0 - h1) / 2 = rho (g0 - g1) / 2 + sqrt(1 - rho^2) eta, eta is
    N(0, dt / 2), the midpoint's spread given the ends, independent of
    W's noise and of both rises: the law at half the grid.  The shifts
    cancel in eta.  Its candidate is the lower of the two half-step
    bridge minima, on W''s exponentials; W's minima and both moves are
    the same on both grids.
    """
    pair = scratch("steps", (2, *shape))
    _couple(rho, math.sqrt(dt), *rng.standard_normal((2, *shape), out=pair))
    shift = move - pair.sum(axis=1)
    shift /= shape[0]
    pair += shift[:, None]
    expo = rng.standard_exponential(out=scratch("expo", (2, *shape)))
    expo *= 2.0 * dt
    start, low = scratch("start", shape), scratch("low", shape)
    lows, moves = np.empty((2, 2 + refine, shape[1]))
    ties = np.empty((2 + refine, shape[1]), dtype=bool)
    for path, db in enumerate(pair):
        np.cumsum(db, axis=0, out=start)
        moves[path] = start[-1]
        start -= db
        if refine and path:  # before start takes W''s minima
            g, h = pair
            eta, half, other = (scratch(name, start[::2].shape) for name in ("eta", "half", "other"))
            np.subtract(h[::2], h[1::2], out=eta)
            np.subtract(g[::2], g[1::2], out=other)
            other *= rho
            eta -= other
            eta *= 0.5 / math.sqrt(1.0 - rho**2)
            np.add(h[::2], h[1::2], out=half)
            half *= 0.5
            np.subtract(half, eta, out=other)  # the second half's rise
            eta += half  # the first half's rise
            _bridge_low(other, expo[1, 1::2], out=half)
            half += eta
            np.minimum(half, _bridge_low(eta, expo[1, ::2], out=other), out=half)
            half += start[::2]
            lows[2], ties[2] = _lowest(half)
            moves[2] = moves[1]
        start += _bridge_low(db, expo[path], out=low)
        lows[path], ties[path] = _lowest(start)
    return lows, ties, moves


def _last_gap(height: np.ndarray, same: np.ndarray, length: float) -> np.ndarray:
    """P(the pair's minima coincide), given the pair before a shared last gap ending at 1.

    height (2, b) is each path's height above its best candidate, same
    whether the two best candidates share a label.  The gap's minimum
    is below -h with probability erfc(h / sqrt(2 length)) (reflection).
    Both paths' minima then fall in the gap, and coincide, with
    probability erfc at the larger height; neither does with
    probability erf at the smaller one, and they coincide iff same.
    """
    if length <= 0.0:
        return same.astype(np.float64)
    x = height / math.sqrt(2.0 * length)
    return erfc(x.max(axis=0)) + same * erf(x.min(axis=0))


def _outer_gaps(e: np.ndarray, a: np.ndarray, same: np.ndarray, lo: float,
                length: float) -> np.ndarray:
    """P(the pair's minima coincide), given its walk from W(lo) to the last gap of this length.

    e (2, b) is each path's end height and a its lowest candidate, both
    from W(lo); same says whether the two candidates share a label (a
    middle gap).  The first gap's minimum is -X with X ~ sigma |Z|,
    sigma^2 = lo, and the last gap's lies Y ~ tau |Z'| below each end,
    tau^2 = length.  Both minima fall in the first gap iff X > alpha =
    max(-a) and X - Y > -min e; both in the last iff Y > beta =
    max(e - a) and Y - X > max e; neither iff X < min(-a) and Y <
    min(e - a), and then they coincide iff same.  As -min e <= alpha
    and max e <= beta, each of the first two is one bivariate-normal
    probability in (Z, (sigma Z - tau Z') / sqrt(sigma^2 + tau^2)).
    """
    sigma = math.sqrt(lo)
    alpha = -a.min(axis=0) / sigma
    value = 2.0 * ndtr(-alpha)  # P(X > alpha)
    inside = erf(-a.max(axis=0) / (sigma * math.sqrt(2.0)))  # P(X < min(-a))
    if length <= 0.0:
        return value + same * inside
    tau = math.sqrt(length)
    spread = math.hypot(sigma, tau)
    rise = e - a
    beta = rise.max(axis=0) / tau
    value -= 4.0 * _binormal_cdf(-alpha, -e.min(axis=0) / spread, -sigma / spread)
    value += 2.0 * ndtr(-beta) - 4.0 * _binormal_cdf(-beta, e.max(axis=0) / spread, -tau / spread)
    return value + same * inside * erf(rise.min(axis=0) / (tau * math.sqrt(2.0)))


def _binormal_cdf(h: np.ndarray, k: np.ndarray, r: float) -> np.ndarray:
    """P(Z1 < h, Z2 < k) for standard normals at correlation r, |r| < 1; h, k not both 0.

    Owen (1956), through his T function:
    Phi(h) / 2 + Phi(k) / 2 - T(h, (k - r h) / (h c)) - T(k, (h - r k) / (k c)) - b0
    with c = sqrt(1 - r^2), and b0 = 1/2 iff h k < 0, or h k = 0 and
    h + k < 0.  At h = 0 the first T is T(0, +-inf) = +-1/4, on the sign
    of k; adding 0.0 turns -0.0 into 0.0, so that sign is k's.
    """
    h, k = h + 0.0, k + 0.0
    c = math.sqrt(1.0 - r * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = owens_t(h, (k - r * h) / (h * c)) + owens_t(k, (h - r * k) / (k * c))
    hk = h * k
    return 0.5 * (ndtr(h) + ndtr(k)) - t - 0.5 * ((hk < 0.0) | ((hk == 0.0) & (h + k < 0.0)))


def _bridge_low(d: np.ndarray, root: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exact minimum, less its start, of a Brownian bridge that rises by d over time length.

    (d - sqrt(d^2 + root)) / 2 with root = 2 length E and E ~ Exp(1):
    the inverse transform of P(min < m) = exp(-2 m (m - d) / length)
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003,
    ch. 6).  out, if given, must not be d.
    """
    low = np.multiply(d, d, out=out)
    low += root
    np.sqrt(low, out=low)
    low -= d
    low *= -0.5
    return low


# -- killed-path survival machinery -----------------------------------------

def _exact_survival_probability(y: float | np.ndarray, horizon: float) -> float | np.ndarray:
    """P(BM from height y stays positive over a window of length horizon).

    Reflection principle: equals P(|N(0, horizon)| < y) = erf(y / sqrt(2 horizon)).
    """
    return erf(np.asarray(y) / math.sqrt(2.0 * horizon))


def _heights_at(t: float, u: np.ndarray | float) -> np.ndarray | float:
    """Heights from the normalized entrance density (y/t) exp(-y^2/2t), at uniforms u in [0,1).

    Inverse transform of the Rayleigh(sqrt(t)) law: y = sqrt(-2t ln(1 - u)),
    where 1 - u in (0,1] keeps the log finite.
    """
    return np.sqrt(-2.0 * t * np.log(1.0 - u))


def _bridge_noncrossing(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """P(the Brownian bridge between grid values a, b stays positive)."""
    expo = np.minimum(-2.0 * a * b / dt, 0.0)
    return np.where((a > 0.0) & (b > 0.0), -np.expm1(expo), 0.0)


def _wedge_noncrossing(w: np.ndarray, w_new: np.ndarray, w_prime: np.ndarray,
                       w_prime_new: np.ndarray, rho: float, run: float) -> np.ndarray:
    """P(the rho-correlated bridge pair stays in {W > 0, W' > 0}) over one step.

    It weighs every piece of the survival walk: at rho on a rho-run, at
    1 on a shared stretch.  The step takes (W, W') from (w, w') to
    (w_new, w'_new) in time run.
    B1 = W, B2 = (W' - rho W) / sqrt(1 - rho^2) is a planar Brownian
    motion, in which the quadrant is a wedge of angle alpha =
    arccos(-rho).  With polar coordinates (r, theta) measured from its
    edge at -asin(rho) and z = r r' / run, the wedge's Dirichlet heat
    kernel over the free one is

        (4 pi / alpha) exp(z (1 - cos(theta - theta')))
            * sum_{n >= 1} sin(n pi theta / alpha) sin(n pi theta' / alpha) ive(n pi / alpha, z)

    (Carslaw & Jaeger 1959, the wedge problems).  The two one-path
    crossing probabilities p, p' bound the product's error:
    |exact - (1 - p)(1 - p')| <= min(p, p'), so the series is summed
    only where both exceed _SERIES_TOL.  rho = 0 is the product exactly;
    at rho = 1 the pair moves in parallel and it is the lower path's
    bridge step.

    The terms exceed their sum by exp(z (1 - cos(theta - theta'))).
    Beyond _SERIES_GAP the series would cancel to rounding noise, and
    the product stands in; a free step reaches that energy with
    probability below exp(-_SERIES_GAP), so the mean moves by less.
    """
    if rho == 1.0:
        return _bridge_noncrossing(np.minimum(w, w_prime),
                                   np.minimum(w_new, w_prime_new), run)
    q = _bridge_noncrossing(w, w_new, run) * _bridge_noncrossing(w_prime, w_prime_new, run)
    if rho == 0.0:
        return q
    exponent = 2.0 * np.maximum(w * w_new, w_prime * w_prime_new) / run
    near = np.flatnonzero((q > 0.0) & (exponent < -math.log(_SERIES_TOL)))
    if near.size:
        q[near] = _wedge_series(w[near], w_new[near], w_prime[near],
                                w_prime_new[near], rho, run, q[near])
    return q


def _wedge_series(w, w_new, w_prime, w_prime_new, rho: float, run: float,
                  product: np.ndarray) -> np.ndarray:
    """The Bessel series of _wedge_noncrossing for endpoints inside the wedge.

    Each sample sums terms until its own term bound, ive(nu, z) times
    the prefactor, drops below _SERIES_TOL: ive decreases in nu, so the
    term count follows each sample's z, not the batch's largest.
    Samples past _SERIES_GAP keep their half-plane product.  A batch
    that starts on the diagonal w = w' has theta = alpha / 2, where
    every even term vanishes, so only odd n are summed.
    """
    edge = math.asin(rho)
    alpha = 0.5 * math.pi + edge
    c = math.sqrt(1.0 - rho * rho)

    def polar(a, b):
        b2 = (b - rho * a) / c
        return np.hypot(a, b2), edge + np.arctan2(b2, a)

    r, theta = polar(w, w_prime)
    r_new, theta_new = polar(w_new, w_prime_new)
    z = r * r_new / run
    gap = z * (1.0 - np.cos(theta - theta_new))
    scale = (4.0 * math.pi / alpha) * np.exp(np.minimum(gap, _SERIES_GAP))
    total = np.zeros_like(z)
    live = np.flatnonzero(gap <= _SERIES_GAP)
    step = 2 if np.array_equal(w, w_prime) else 1
    n = 1 - step
    while live.size:
        n += step
        nu = n * math.pi / alpha
        term = ive(nu, z[live])
        total[live] += np.sin(nu * theta[live]) * np.sin(nu * theta_new[live]) * term
        live = live[term * scale[live] > _SERIES_TOL]
    return np.where(gap <= _SERIES_GAP, np.clip(scale * total, 0.0, 1.0), product)


def _joint_survival(y: np.ndarray, pairs, rho: float, t0: float,
                    normals: np.ndarray) -> np.ndarray:
    """Per-sample probability that both coupled paths from height y at t0 stay positive to 1.

    pairs are the sorted, disjoint rho-runs inside [t0, 1], each of
    positive length.  One rule, no grid: each piece before the tail, a
    shared stretch at correlation 1 (the run-in from t0 or a gap between
    runs; skipped at zero length) or a rho-run at rho, is one coupled
    step of its whole length weighted by the exact wedge kernel.  The
    stretch after the last run is the reflection closed form, with no
    draw, so the only approximation left is floating point.

    normals holds the steps' standard normals, one row per shared
    stretch and two per rho-run, in time order; _couple turns them into
    increments in place.
    """
    w = np.asarray(y, dtype=np.float64).copy()
    w_prime = w.copy()
    weight = np.ones_like(w)
    now, row = t0, 0
    for lo, hi in pairs:
        for run, r, width in ((lo - now, 1.0, 1), (hi - lo, rho, 2)):
            if run > 0.0:
                db, db_prime = _couple(r, math.sqrt(run), *normals[row:row + width])
                row += width
                w_new, w_prime_new = w + db, w_prime + db_prime
                weight *= _wedge_noncrossing(w, w_new, w_prime, w_prime_new, r, run)
                w, w_prime = w_new, w_prime_new
        now = hi
    if now < 1.0:
        low = np.maximum(np.minimum(w, w_prime), 0.0)
        weight *= _exact_survival_probability(low, 1.0 - now)
    return weight


def m_lambda_functional(region_pairs, rho: float, t0: float, n_samples: int,
                        seed: int, n_steps: int = 1024) -> EstimateWithError:
    """Entrance-law mixture of the two-path survival correlation.

    Estimates the spectral-sample functional E[rho^(points in the region)]
    for the splitting measure restricted to [t0,1]: heights enter at t0
    with weight t0**-1/2, and both coupled paths must survive to 1.
    Requires the region to be disjoint intervals inside [t0,1]; by the
    restriction consistency of the entrance family the value does not
    depend on the choice of t0.  That is what lets the theorem's RHS
    start at the region's first point, with no run-in; the tests and
    consistency-check verify it.  The walk has no grid; n_steps is kept, and
    checked against the step cap, because the benchmark tracer reads it.

    The n_samples points are randomized quasi-Monte Carlo: a
    ScrambledHalton set in QMC_REPLICATES independent replicates, all
    walked in one _joint_survival pass per _SURVIVAL_BATCH points.
    Coordinate 0 gives the entrance height (_heights_at); then, in time
    order, each shared stretch takes one coordinate and each rho-run
    two, mapped to standard normals by ndtri.  The estimate is the mean
    of the replicate means, and its stderr their spread (R - 1 degrees
    of freedom, R = extra["replicates"]).
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"start time {t0} outside (0,1)")
    pairs = sorted(region_pairs)
    ends = [t0, *(x for pair in pairs for x in pair), 1.0]
    if any(b < a for a, b in zip(ends, ends[1:])):
        raise PreconditionError(f"region must be disjoint intervals in [{t0}, 1]")
    if any(lo >= hi for lo, hi in pairs):
        raise PreconditionError(f"region components must have positive length, got {pairs}")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho={rho} outside [0,1]")
    _check_steps(n_steps)
    # a coordinate for the height, one per shared stretch before a run, two per run
    dims = 1 + sum((lo > now) + 2 for now, (lo, _) in zip(ends[::2], pairs))
    points = ScrambledHalton(n_samples, dims, _SURVIVAL_BATCH, seed, _TAG_MLAMBDA)
    sums = np.zeros(points.replicates)
    for labels, u in points.batches():
        y = _heights_at(t0, u[0])
        weight = _joint_survival(y, pairs, rho, t0, ndtri(u[1:], out=u[1:]))
        sums += np.bincount(labels, weight, minlength=points.replicates)
    mass = t0**-0.5  # the excursion entrance measure's total mass at t0
    return EstimateWithError.from_replicates(mass * sums / points.sizes, n_samples, seed,
                                             extra={"replicates": points.replicates})
