"""Coupled-path Monte Carlo: coupling kernels and the estimators.

A perturbation region A and a correlation level rho couple a pair of
paths: their increments correlate at rho on A and are shared bitwise
elsewhere.  Only the walk estimator, discrete_phi, works per step: it
packs 64 +-1 steps into a random word, toggles the steps whose left
endpoint lies in A with exact Bernoulli bits, and by the parity rule
needs only the two walks' running minima.  The Brownian routes draw
scalar-rho increment pairs from one kernel, _coupled_normals, at rho
on a piece of A and at 1 on a shared piece.

The argmin coincidence (the direct route) is exact across the gaps
of A, where the pair shares its increments, and gridded only on A.
It uses none of the survival kernels below.

Path-survival functionals are estimated without a grid, by one rule:
up to the end of the last rho-run, each piece (a shared stretch at
correlation 1 or a rho-run at rho) is one coupled step of its whole
length, weighted by the Dirichlet heat kernel of the wedge
{W > 0, W' > 0} (_wedge_noncrossing): the probability that the pair
stays positive inside the piece given its ends.  At correlation 1 the
pair moves in parallel and the kernel is the lower path's bridge step.
The shared tail is the reflection closed form.  No crossing weight is
factorised across the pair, so survival carries no grid bias.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf, erfc, ive

from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import EstimateWithError, RunningMoments, batch_sizes, derive_rng

STEP_CAP = 10**7  # steps per path: walk length, n_grid, --node-steps, --steps

# fixed batch shapes (reproducibility: a pure function of the parameters)
_WALK_BATCH = 1 << 17
_SURVIVAL_BATCH = 1 << 16
_ARGMIN_ELEMENTS = 1 << 22  # target batch samples x n_grid on the direct route

# wedge kernel: crossing probability below which the half-plane product
# is exact, the term size at which a sample's Bessel series stops, and
# the angular energy beyond which the series cancels to rounding noise
_SERIES_CUT = 1e-13
_SERIES_TOL = 1e-16
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


# -- coupling kernel ---------------------------------------------------------

def _coupled_normals(rho: float, sqdt: float, rng: np.random.Generator,
                     shape) -> tuple[np.ndarray, np.ndarray]:
    """Coupled N(0, dt) increment pair (db, db') at correlation rho.

    db' = rho db + sqrt(1-rho^2) sqdt z with a fresh normal z; at rho = 1
    it is db itself and no second normal is drawn.
    """
    db = rng.standard_normal(shape) * sqdt
    if rho == 1.0:
        return db, db
    return db, rho * db + math.sqrt(1.0 - rho**2) * sqdt * rng.standard_normal(shape)


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
    gives it.  One uniform word per binary digit of num / den, from the
    last digit (num's lowest bit) to the first: a 1 ORs the word into the
    accumulator, a 0 ANDs it.  A bit set with probability P before digit
    d is set with probability (d + P) / 2 after it, which builds
    0.d_1 d_2 ... d_K.
    """
    num, den = ratio
    acc = np.zeros(b, dtype=np.uint64)
    for j in range(den.bit_length() - 1):
        word = rng.bit_generator.random_raw(b)
        if num >> j & 1:
            acc |= word
        else:
            acc &= word
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
                       seed: int) -> EstimateWithError:
    """P(the coupled Brownian pair attains its minimum at the same time).

    The pair is walked over the pieces of [0,1] in time order.  Each
    path keeps its lowest candidate minimum and a label for where it
    lies (time 0 and every shared gap have a label both paths share):

    - a shared gap (before A or between its components) is one exact
      step: both paths move by one N(0, L) increment d and get the same
      bridge minimum, (d - sqrt(d^2 + 2 L E)) / 2 above their start with
      E ~ Exp(1), under the gap's label;
    - a component of A is ceil(n_grid * length) coupled steps, and each
      path gets the exact bridge minimum of every step from the step's
      two grid values, under a label of its own: for rho < 1 the
      continuous argmins inside A coincide with probability 0;
    - the last gap, ending at 1, is closed form with no draw
      (_last_gap), so the empty region gives exactly 1; the full region
      gives exactly 0.

    The one approximation left: inside a rho-step the two paths'
    minima are drawn independently given the step's ends.  The bias
    this leaves shrinks as the grid on A is refined.  A sample is tied
    when a path's best candidate equals another of its candidates in
    floating point; a tie fraction above 0.1% flags the run.
    """
    _check_rho(rho)
    if n_grid < 2:
        raise DomainError("need at least two grid steps")
    _check_steps(n_grid)
    components = [(lo, hi, math.ceil(n_grid * (hi - lo))) for lo, hi in region]
    batch = max(1, _ARGMIN_ELEMENTS // n_grid)
    moments = RunningMoments()
    n_ties = 0
    for i, b in enumerate(batch_sizes(n_samples, batch)):
        rng = derive_rng(seed, _TAG_ARGMIN, i)
        value, tied = _coincidence_walk(components, rho, b, rng)
        n_ties += int(np.count_nonzero(tied))
        moments.add(value)
    tie_fraction = n_ties / moments.count  # batch_sizes rejects < 2 samples
    extra = {"tie_fraction": tie_fraction, "tie_flag": tie_fraction > 1e-3}
    return EstimateWithError.from_moments(moments, seed, extra=extra)


_OWN_LABELS = np.array([[-1], [-2]])  # minima inside A: one label per path


def _coincidence_walk(components, rho: float, b: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample coincidence probability and tie flag of b pairs walked over [0,1].

    components are (lo, hi, steps) in time order.  Axis 0 of every
    state array is the path, W then W'.
    """
    w = np.zeros((2, b))
    best = np.zeros((2, b))  # time 0, where both paths start
    label = np.zeros((2, b), dtype=np.int64)
    tied = np.zeros((2, b), dtype=bool)

    def offer(candidate, own_label, own_tie=False):
        lower = candidate < best
        tied[...] = np.where(lower, own_tie, tied | (candidate == best))
        label[...] = np.where(lower, own_label, label)
        np.minimum(best, candidate, out=best)

    now = 0.0
    for k, (lo, hi, steps) in enumerate(components):
        if lo > now:
            run = lo - now
            d = rng.standard_normal(b) * math.sqrt(run)
            offer(w + _bridge_minimum(d, run, rng), k + 1)
            w += d
        dt = (hi - lo) / steps
        lowest = np.empty((2, b))
        own_tie = np.empty((2, b), dtype=bool)
        for path, db in enumerate(_coupled_normals(rho, math.sqrt(dt), rng, (b, steps))):
            ends = np.cumsum(db, axis=1)  # grid values relative to w
            lows = _bridge_minimum(db, dt, rng)
            lows += ends
            lows -= db
            low = lows.min(axis=1)
            own_tie[path] = np.count_nonzero(lows == low[:, None], axis=1) > 1
            lowest[path] = w[path] + low
            w[path] += ends[:, -1]
        offer(lowest, _OWN_LABELS, own_tie)
        now = hi
    return _last_gap(w - best, label[0] == label[1], 1.0 - now), tied[0] | tied[1]


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


def _bridge_minimum(d: np.ndarray, length: float, rng: np.random.Generator) -> np.ndarray:
    """Exact minimum of a Brownian bridge that rises by d over time length, less its start.

    (d - sqrt(d^2 + 2 length E)) / 2 with E ~ Exp(1): the inverse
    transform of P(min < m) = exp(-2 m (m - d) / length) (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2003, ch. 6).
    """
    root = rng.standard_exponential(d.shape)
    root *= 2.0 * length
    root += d * d
    np.sqrt(root, out=root)
    root -= d
    root *= -0.5
    return root


# -- killed-path survival machinery -----------------------------------------

def exact_survival_probability(y: float | np.ndarray, horizon: float) -> float | np.ndarray:
    """P(BM from height y stays positive over a window of length horizon).

    Reflection principle: equals P(|N(0, horizon)| < y) = erf(y / sqrt(2 horizon)).
    """
    return erf(np.asarray(y) / math.sqrt(2.0 * horizon))


def entrance_mass(t: float) -> float:
    """Total mass of the excursion entrance measure at time t: t**-1/2."""
    return t**-0.5


def entrance_heights(t: float, rng: np.random.Generator,
                     size: int | None = None) -> np.ndarray | float:
    """Heights from the normalized entrance density (y/t) exp(-y^2/2t).

    Inverse transform of the Rayleigh(sqrt(t)) law: y = sqrt(-2t ln U)
    with U uniform on (0,1].
    """
    if not 0.0 < t < 1.0:
        raise DomainError(f"entrance time {t} outside (0,1)")
    u = 1.0 - rng.random(size)  # (0,1]: keeps the log finite
    return np.sqrt(-2.0 * t * np.log(u))


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
    only where both exceed _SERIES_CUT.  rho = 0 is the product exactly;
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
    near = np.flatnonzero((q > 0.0) & (exponent < -math.log(_SERIES_CUT)))
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
    Samples past _SERIES_GAP keep their half-plane product.
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
    n = 0
    while live.size:
        n += 1
        nu = n * math.pi / alpha
        term = ive(nu, z[live])
        total[live] += np.sin(nu * theta[live]) * np.sin(nu * theta_new[live]) * term
        live = live[term * scale[live] > _SERIES_TOL]
    return np.where(gap <= _SERIES_GAP, np.clip(scale * total, 0.0, 1.0), product)


def _joint_survival(y: np.ndarray, pairs, rho: float, t0: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Per-sample probability that both coupled paths from height y at t0 stay positive to 1.

    pairs are the sorted, disjoint rho-runs inside [t0, 1], each of
    positive length.  One rule, no grid: each piece before the tail, a
    shared stretch at correlation 1 (the run-in from t0 or a gap between
    runs; skipped at zero length) or a rho-run at rho, is one coupled
    step of its whole length weighted by the exact wedge kernel.  The
    stretch after the last run is the reflection closed form, with no
    draw, so the only approximation left is floating point.
    """
    w = np.asarray(y, dtype=np.float64).copy()
    w_prime = w.copy()
    weight = np.ones_like(w)
    now = t0
    for lo, hi in pairs:
        for run, r in ((lo - now, 1.0), (hi - lo, rho)):
            if run > 0.0:
                db, db_prime = _coupled_normals(r, math.sqrt(run), rng, w.shape)
                w_new, w_prime_new = w + db, w_prime + db_prime
                weight *= _wedge_noncrossing(w, w_new, w_prime, w_prime_new, r, run)
                w, w_prime = w_new, w_prime_new
        now = hi
    if now < 1.0:
        low = np.maximum(np.minimum(w, w_prime), 0.0)
        weight *= exact_survival_probability(low, 1.0 - now)
    return weight


def m_lambda_functional(region_pairs, rho: float, t0: float, n_samples: int,
                        seed: int, n_steps: int = 1024) -> EstimateWithError:
    """Entrance-law mixture of the two-path survival correlation.

    Estimates the spectral-sample functional E[rho^(points in the region)]
    for the splitting measure restricted to [t0,1]: heights enter at t0
    with weight t0**-1/2, and both coupled paths must survive to 1.
    Requires the region to be disjoint intervals inside [t0,1]; by the
    restriction consistency of the entrance family the value does not
    depend on the choice of t0 (this is a test target, not an
    assumption used here).  The walk has no grid; n_steps is kept, and
    checked against the step cap, because the benchmark tracer reads it
    and consistency-check --steps reaches it.
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
    mass = entrance_mass(t0)
    moments = RunningMoments()
    for i, b in enumerate(batch_sizes(n_samples, _SURVIVAL_BATCH)):
        rng = derive_rng(seed, _TAG_MLAMBDA, i)
        y = entrance_heights(t0, rng, b)
        moments.add(mass * _joint_survival(y, pairs, rho, t0, rng))
    return EstimateWithError.from_moments(moments, seed)
