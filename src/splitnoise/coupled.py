"""Coupled-path Monte Carlo: coupling kernels and the estimators.

A perturbation region A and a correlation level rho couple a pair of
paths: their increments correlate at rho on A and are shared bitwise
elsewhere.  Only the walk estimator, discrete_phi, works per step: it
packs 64 +-1 steps into a random word, toggles the steps whose left
endpoint lies in A with exact Bernoulli bits, and by the parity rule
needs only the two walks' running minima.  The Brownian routes turn
standard normals into scalar-rho increment pairs with one kernel,
_couple, at rho on a piece of A and at 1 on a shared piece: the direct
route on fresh draws (_coupled_normals), survival on given normals.

The argmin coincidence (the direct route) is exact across the gaps
of A, where the pair shares its increments, and gridded only on A;
with refine, it walks the doubled grid and derives the grid from the
same draws.  The first and the last gap take no draw: their shared
minima are integrated out in closed form, through bivariate-normal
probabilities (Owen 1956).  It uses none of the survival kernels below.

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
from .sampling import EstimateWithError, RunningMoments, ScrambledHalton, batch_sizes, derive_rng

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

def _coupled_normals(rho: float, sqdt: float, rng: np.random.Generator,
                     shape, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Coupled N(0, dt) increment pair (db, db') at correlation rho, from rng's normals.

    _couple on fresh standard normals: two per increment pair, db's then
    z's, written to out, a (2, *shape) array, when one is given; at
    rho = 1 only db's are drawn.
    """
    if rho == 1.0:
        return _couple(1.0, sqdt, rng.standard_normal(shape))
    return _couple(rho, sqdt, *rng.standard_normal((2, *shape), out=out))


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
    displacement and lowest-prefix tables of _prefix_tables.
    """
    _check_rho(rho)
    _check_steps(n)
    masks = _word_masks(region, n)
    flip = ((1.0 - rho) / 2.0).as_integer_ratio()
    moments = RunningMoments()
    for i, b in enumerate(batch_sizes(n_samples, _WALK_BATCH)):
        rng = derive_rng(seed, _TAG_DISCRETE_PHI, i)
        low = _pair_minima(masks, n, flip, b, rng)
        moments.add(1 - 2 * ((low[0] + low[1]) & 1))
    return EstimateWithError.from_moments(moments, seed)


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
                       seed: int, refine: bool = False) -> EstimateWithError:
    """P(the coupled Brownian pair attains its minimum at the same time).

    The pair is walked over the pieces of [0,1] in time order.  Each
    path keeps its lowest candidate minimum and a label for where it
    lies (time 0 and every shared gap have a label both paths share):

    - a shared gap between components of A is one exact step: both
      paths move by one N(0, L) increment d and get the same bridge
      minimum, (d - sqrt(d^2 + 2 L E)) / 2 above their start with
      E ~ Exp(1), under the gap's label;
    - a component of A is ceil(n_grid * length) coupled steps, and each
      path gets the exact bridge minimum of every step from the step's
      two grid values, under a label of its own: for rho < 1 the
      continuous argmins inside A coincide with probability 0;
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

    The one approximation left: inside a rho-step the two paths'
    minima are drawn independently given the step's ends.  The bias
    this leaves shrinks as the grid on A is refined.  A sample is tied
    when a path's best candidate equals another of its candidates in
    floating point; a tie fraction above 0.1% flags the run.

    With refine, the run walks the doubled grid, and the coarse grid is
    derived from the same draws (_one_level_block): extra["refined"] is
    the estimate at 2 n_grid, with its own tie fields, and
    extra["grid_bias"] the mean and stderr of the per-sample
    difference, refined minus this estimate.  Each level has exactly
    its own grid's law; the paired difference has a far smaller spread
    than two independent runs.

    A 4-sigma band of width 0 cannot fail, so a zero stderr is replaced
    on a region neither empty nor full.  There (on one that touches 0
    and reaches 1, each sample scores 0 or 1) a level whose n samples
    are all equal gets s = (1 - q^(1/n)) / 4, q = _TAIL_4SIGMA: 4 s is
    the largest p with (1 - p)^n >= q, the exact binomial bound of a
    count of 0 (or n) at 4 sigma.  A grid_bias gets 1 / n, the stderr
    of one sample that differs by 1, the least nonzero stderr 0/1
    scores can give.
    """
    _check_rho(rho)
    _check_grid(n_grid)
    _check_steps((1 + refine) * n_grid)  # the grid walked
    components = [(lo, hi, (1 + refine) * math.ceil(n_grid * (hi - lo))) for lo, hi in region]
    levels = [RunningMoments() for _ in range(1 + refine)]
    bias = RunningMoments()
    n_ties = np.zeros(len(levels), dtype=np.int64)
    for i, b in enumerate(batch_sizes(n_samples, _ARGMIN_BATCH)):
        rng = derive_rng(seed, _TAG_ARGMIN, i)
        values, tied = _coincidence_walk(components, rho, b, rng, refine)
        for moments, value in zip(levels, values):
            moments.add(value)
        n_ties += np.count_nonzero(tied, axis=1)
        if refine:
            bias.add(values[1] - values[0])
    fractions = n_ties / levels[0].count  # batch_sizes rejects fewer than 2 samples
    est, *refined = [
        _nonzero_stderr(EstimateWithError.from_moments(moments, seed, extra={
            "tie_fraction": float(fraction), "tie_flag": bool(fraction > 1e-3)}),
            region, (1.0 - _TAIL_4SIGMA ** (1.0 / moments.count)) / 4.0)
        for moments, fraction in zip(levels, fractions)
    ]
    if refine:
        est.extra["refined"] = refined[0]
        est.extra["grid_bias"] = _nonzero_stderr(EstimateWithError.from_moments(bias, seed),
                                                 region, 1.0 / bias.count)
    return est


def _nonzero_stderr(est: EstimateWithError, region, floor: float) -> EstimateWithError:
    """est, with a stderr of 0 reported as floor on a region neither empty nor full."""
    return replace(est, stderr=floor) if est.stderr == 0.0 and region and not region.is_full() else est


# minima inside A: one label per path (W' keeps its label on both levels)
_OWN_LABELS = np.array([[-1], [-2], [-2]])


def _coincidence_walk(components, rho: float, b: int, rng: np.random.Generator,
                      refine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample coincidence probability and tie flag of b pairs walked over [0,1].

    components are (lo, hi, steps) in time order.  Both results are
    (levels, b): with refine the grid of step pairs, then the grid
    walked.  Axis 0 of every state array is the path: W, W', and with
    refine W' on the grid of step pairs.  A's steps are walked in blocks
    of about _ARGMIN_BLOCK elements per array (an even step count with
    refine: no pair straddles two blocks), whose temporaries are
    allocated once per shape (scratch) and reused.  Each block offers
    every path's lowest bridge minimum as a candidate, which also
    carries the tie test across blocks.
    """
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

    now = head
    for k, (lo, hi, steps) in enumerate(components):
        if lo > now:
            run = lo - now
            d = rng.standard_normal(b) * math.sqrt(run)
            root = rng.standard_exponential(b)
            root *= 2.0 * run
            offer(w + _bridge_low(d, root), k + 1)
            w += d
        dt = (hi - lo) / steps
        block = max(1, _ARGMIN_BLOCK // b)
        if refine:
            block += block % 2
        for first in range(0, steps, block):
            shape = (min(block, steps - first), b)
            lows, own_tie, moves = _one_level_block(rho, dt, shape, rng, scratch, refine)
            lows += w
            offer(lows, _OWN_LABELS[:rows], own_tie)
            w += moves
        now = hi
    levels = range(rows - 1, 0, -1)  # with refine, the grid of step pairs first
    if head > 0.0:
        values = [_outer_gaps(w[[0, r]], best[[0, r]], label[0] == label[r], head, 1.0 - now)
                  for r in levels]
    else:
        values = [_last_gap((w - best)[[0, r]], label[0] == label[r], 1.0 - now) for r in levels]
    return np.array(values), tied[0] | tied[list(levels)]


def _lowest(lows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's lowest candidate in lows (m, b), and whether another one equals it."""
    low = lows.min(axis=0)
    return low, np.add.reduce(lows == low, axis=0, dtype=np.intp) > 1


def _one_level_block(rho: float, dt: float, shape, rng: np.random.Generator, scratch,
                     refine: bool = False):
    """Lowest bridge minima, their tie flags and the moves of W, W' over shape = (m, b) steps.

    Minima are relative to each path's position before the block;
    scratch(name, shape) hands out the block's reusable arrays.  With
    refine (m even) a third row is W' on the grid of step pairs, from the
    same draws: steps (g0, g1) of W and (h0, h1) of W' make one step where
    W' rises by h0 + h1 with midpoint noise
    eta = ((h0 - h1) - rho (g0 - g1)) / (2 sqrt(1 - rho^2)).
    As (h0 - h1) / 2 = rho (g0 - g1) / 2 + sqrt(1 - rho^2) eta, eta is
    N(0, dt / 2), the midpoint's spread given the ends, independent of
    W's noise and of both rises: the law at half the grid.  Its
    candidate is the lower of the two half-step bridge minima, on W''s
    exponentials; W's minima and both moves are the same on both grids.
    """
    pair = _coupled_normals(rho, math.sqrt(dt), rng, shape, out=scratch("steps", (2, *shape)))
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


def _entrance_heights(t: float, rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray | float:
    """Heights from the normalized entrance density at fresh uniforms of rng (_heights_at)."""
    return _heights_at(t, rng.random(size))


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
