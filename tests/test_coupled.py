import ast
import functools
import inspect
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf, ive, ndtr

from splitnoise import coupled, tanaka, theorem, walsh
from splitnoise.coupled import (
    STEP_CAP,
    _SERIES_GAP,
    _bridge_low,
    _bridge_noncrossing,
    _bernoulli_word,
    _binormal_cdf,
    _couple,
    _coupled_words,
    _exact_survival_probability,
    _heights_at,
    _joint_survival,
    _last_gap,
    _outer_gaps,
    _pair_minima,
    _polar_cells,
    _prefix_tables,
    _wedge_noncrossing,
    _word_masks,
    argmin_coincidence,
    discrete_phi,
    m_lambda_functional,
)
from splitnoise.errors import DomainError, PreconditionError, ResourceLimitError
from splitnoise.sampling import SAMPLE_CAP, batch_sizes, derive_rng
from splitnoise.timesets import TimeSet
from splitnoise.walsh import noise_functional, walsh_transform
from walk_tables import walk_survival_table

FULL = TimeSet.full()
EMPTY = TimeSet.empty()
QUARTER_HALF = TimeSet.parse("1/4..1/2")


def oracle_rho(region, rho, n):
    """The oracles' per-step rho, in exact arithmetic: step k is perturbed iff lo <= k/n <= hi."""
    return np.array([rho if any(lo <= Fraction(k, n) <= hi for lo, hi in region.components)
                     else 1.0 for k in range(n)])


def floor_only(est, walks):
    """A top_walks hook that asks for nothing: the top level walks its first round, the floor of 32 walks."""
    return None


def one_level_walks(region, rho, n_grid, n, seed, refine=False):
    """Each batch of a one-level direct-route run at n_grid, walked by the kernels.

    Yields (values, tied, cell, weight) per batch of at most 2048 samples,
    each batch from its own derive_rng(seed, i).
    """
    components = [(lo, hi, (1 + refine) * math.ceil(n_grid * (hi - lo))) for lo, hi in region]
    for i, b in enumerate(batch_sizes(n, 2048)):
        rng = derive_rng(seed, i)
        target, cell, weight = _polar_cells(b, rng)
        values, tied = coupled._coincidence_walk(components, rho, target, rng, refine)
        yield values, tied, cell, weight


def one_level(region, rho, n_grid, n, seed):
    """The one-level stratified estimate and stderr at n_grid: batches weigh b / n."""
    mean = var = 0.0
    for values, _, cell, weight in one_level_walks(region, rho, n_grid, n, seed):
        m, v, _ = coupled._stratified(values, cell, weight)
        mean, var = mean + cell.size * m[0] / n, var + (cell.size / n) ** 2 * v[0]
    return mean, math.sqrt(var)


def test_word_masks_examples():
    assert _word_masks(QUARTER_HALF, 8)[0] == 0b11100  # steps 2, 3, 4
    assert _word_masks(QUARTER_HALF, 13)[0] == 0b1110000  # steps 4, 5, 6
    assert np.array_equal(_word_masks(FULL, 80), [2**64 - 1, 2**16 - 1])
    assert np.array_equal(_word_masks(EMPTY, 80), [0, 0])
    with pytest.raises(DomainError):
        discrete_phi(FULL, 1.0, 8, 100, seed=0)
    with pytest.raises(DomainError):
        discrete_phi(FULL, -0.1, 8, 100, seed=0)


def flip_ratio(rho):
    """The flip probability (1 - rho)/2 as an exact (numerator, power-of-two denominator)."""
    return ((1.0 - rho) / 2.0).as_integer_ratio()


def coupled_walk(region, rho, n, rng, size):
    """Coupled sign pair (size, n) from the estimator's word kernel, n <= 64."""
    words = _coupled_words(_word_masks(region, n)[0], flip_ratio(rho), rng, size)
    bits = (words[..., None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    signs = 1 - 2 * bits.astype(np.int64)
    return signs[0], signs[1]


def coupled_bm(region, rho, n, rng, size):
    """Coupled Brownian increments (size, n) on [0,1] from the estimators' kernel.

    One kernel call at rho draws the perturbed steps, one at 1 the others.
    """
    perturbed = oracle_rho(region, rho, n) < 1.0
    k, sqdt = int(np.count_nonzero(perturbed)), math.sqrt(1.0 / n)
    db, db_p = np.empty((2, size, n))
    db[:, perturbed], db_p[:, perturbed] = _couple(rho, sqdt, *rng.standard_normal((2, size, k)))
    db[:, ~perturbed], db_p[:, ~perturbed] = _couple(1.0, sqdt, rng.standard_normal((size, n - k)))
    return db, db_p


def test_coupled_walk_marginals_and_coupling():
    rng = derive_rng(3, 0)
    eps, eps_p = coupled_walk(EMPTY, 0.5, 8, rng, size=2000)
    assert np.array_equal(eps, eps_p)

    n = 100_000
    eps, eps_p = coupled_walk(FULL, 0.5, 4, derive_rng(4, 0), size=n)
    corr = (eps * eps_p).mean(axis=0)
    assert np.all(np.abs(corr - 0.5) < 3 / math.sqrt(n))
    assert np.all(np.abs(eps_p.mean(axis=0)) < 4 / math.sqrt(n))

    eps, eps_p = coupled_walk(FULL, 0.0, 4, derive_rng(5, 0), size=n)
    assert np.all(np.abs((eps * eps_p).mean(axis=0)) < 3 / math.sqrt(n))


def test_coupled_bm_identical_when_unperturbed():
    db, db_p = coupled_bm(EMPTY, 0.5, 64, derive_rng(6, 0), size=100)
    assert np.array_equal(np.cumsum(db, axis=1), np.cumsum(db_p, axis=1))


def test_coupled_bm_pattern_one_steps_match_bitwise():
    db, db_p = coupled_bm(QUARTER_HALF, 0.5, 32, derive_rng(7, 0), size=500)
    ones = oracle_rho(QUARTER_HALF, 0.5, 32) == 1.0
    assert np.array_equal(db[:, ones], db_p[:, ones])
    assert not np.array_equal(db[:, ~ones], db_p[:, ~ones])
    # a scalar rho, as in the survival step loop, mixes the whole step
    db, db_p = _couple(np.float64(0.5), 0.25, *derive_rng(7, 1).standard_normal((2, 500)))
    assert not np.any(db == db_p)


def test_coupled_bm_terminal_moments():
    # var(B_1) = 1; cov(B_1, B'_1) = |A^c| + rho |A| = 7/8 for A=[1/4,1/2], rho=1/2
    n = 100_000
    db, db_p = coupled_bm(QUARTER_HALF, 0.5, 64, derive_rng(8, 0), size=n)
    b1, b1p = db.sum(axis=1), db_p.sum(axis=1)
    se = 3 / math.sqrt(n)
    assert abs(b1.var() - 1.0) < 3 * se
    assert abs(b1p.var() - 1.0) < 3 * se
    assert abs((b1 * b1p).mean() - 7 / 8) < 3 * se


def test_coupled_bm_increment_variance_one_percent():
    for inc in coupled_bm(FULL, 0.5, 16, derive_rng(9, 0), size=100_000):
        assert abs(inc.var() * 16 - 1.0) < 0.01


def test_discrete_phi_unperturbed_is_exactly_one():
    est = discrete_phi(EMPTY, 0.5, 64, 1000, seed=1)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_discrete_phi_is_the_sign_count():
    # three batches: the estimate is a count of odd minimum sums over
    # every batch's stream, with the closed-form stderr of n values +-1
    n_samples, n, rho, seed = 2 * coupled._WALK_BATCH + 1001, 24, 0.5, 31
    est = discrete_phi(QUARTER_HALF, rho, n, n_samples, seed=seed)
    masks, flip = _word_masks(QUARTER_HALF, n), flip_ratio(rho)
    signs = []
    for i, b in enumerate(batch_sizes(n_samples, coupled._WALK_BATCH)):
        low = _pair_minima(masks, n, flip, b, derive_rng(seed, coupled._TAG_DISCRETE_PHI, i))
        signs.append(1 - 2 * ((low[0] + low[1]) & 1))
    assert len(signs) == 3
    signs = np.concatenate(signs)
    odd = int(np.count_nonzero(signs < 0))
    mean = (n_samples - 2 * odd) / n_samples
    assert est.n_samples == n_samples and est.mean == mean
    assert est.stderr == math.sqrt((1.0 - mean * mean) / (n_samples - 1))
    assert est.stderr == pytest.approx(signs.std(ddof=1) / math.sqrt(n_samples), rel=1e-12)
    est = discrete_phi(EMPTY, rho, n, n_samples, seed=seed)
    assert (est.mean, est.stderr) == (1.0, 0.0)


def test_discrete_phi_matches_walsh_oracle():
    from splitnoise.walsh import sign_correlation_exact

    # n = 1, 13, 17, 20 end off the 16-step chunk and inside the 64-step word
    cases = [(FULL, 0.5, 16, 200_000, 21), (QUARTER_HALF, 0.3, 16, 200_000, 22)]
    cases += [(region, 0.5, n, 100_000, 600 + n)
              for region in (FULL, QUARTER_HALF) for n in (1, 13, 17, 20)]
    for region, rho, n, n_samples, seed in cases:
        exact = sign_correlation_exact(oracle_rho(region, rho, n))
        est = discrete_phi(region, rho, n, n_samples, seed=seed)
        # a region that misses every step (n = 1 on 1/4..1/2) is exact
        assert (abs(est.mean - exact) < 4 * est.stderr
                or (est.stderr == 0.0 and est.mean == exact))


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.5, 0.9])
def test_flip_bits_are_exact_bernoulli(rho):
    # every bit of a flip word is set with probability (1 - rho)/2
    b = 20_000
    q = (1.0 - rho) / 2.0
    words = _bernoulli_word(flip_ratio(rho), derive_rng(61, 0), b)
    ones = np.unpackbits(words.view(np.uint8)).sum()
    se = math.sqrt(q * (1.0 - q) / (64 * b))
    assert abs(ones / (64 * b) - q) < 4 * se


class _DigitWords:
    """A stand-in bit source: word i holds digit i (first digit first) of U_k = k/8 at bit k."""

    def __init__(self):
        self.words = [np.array([sum(((k >> (2 - i)) & 1) << k for k in range(8))],
                               dtype=np.uint64) for i in range(3)]
        self.bit_generator = self

    def random_raw(self, b):
        return self.words.pop(0)


def test_flip_bits_compare_every_three_digit_uniform():
    # q = 3/8: of the eight 3-digit uniforms k/8 exactly k = 0, 1, 2 lie below q
    word = _bernoulli_word((3, 8), _DigitWords(), 1)
    assert int(word[0]) & 0xFF == 0b111


def test_flip_bits_only_on_perturbed_steps():
    mask = _word_masks(QUARTER_HALF, 64)[0]
    assert mask == sum(1 << k for k in range(16, 33))  # steps 16..32: k/64 in [1/4, 1/2]
    words = _coupled_words(mask, flip_ratio(0.5), derive_rng(62, 0), 5000)
    flips = words[0] ^ words[1]
    assert not np.any(flips & ~mask)
    assert np.count_nonzero(flips) > 0


def test_prefix_tables_match_cumsum():
    # D[p] is the 16-step displacement, M[p] the lowest partial sum
    # (the empty one included) of the walk whose step k is -1 iff bit k of p
    d, m = _prefix_tables()
    p = np.arange(1 << 16)
    steps = 1 - 2 * ((p[:, None] >> np.arange(16)) & 1)
    sums = np.cumsum(steps, axis=1)
    assert np.array_equal(d, sums[:, -1])
    assert np.array_equal(m, np.minimum(sums.min(axis=1), 0))


def cumsum_block(rho, dt, shape, move, rng, refine):
    """_one_level_block transcribed with each path's running sums from np.cumsum.

    Every other operation is _one_level_block's, in its order.
    """
    pair = rng.standard_normal((2, *shape))
    _couple(rho, math.sqrt(dt), *pair)
    pair += ((move - pair.sum(axis=1)) / shape[0])[:, None]
    expo = rng.standard_exponential((2, *shape)) * (2.0 * dt)
    lows, ties, moves = np.empty((3, 2 + refine, shape[1]))
    for path, db in enumerate(pair):
        start = np.cumsum(db, axis=0)
        moves[path] = start[-1]
        start -= db
        if refine and path:
            g, h = pair
            eta = ((h[::2] - h[1::2]) - rho * (g[::2] - g[1::2])) * (0.5 / math.sqrt(1.0 - rho**2))
            half = (h[::2] + h[1::2]) * 0.5
            first, second = eta + half, half - eta
            low = np.minimum(_bridge_low(second, expo[1, 1::2]) + first,
                             _bridge_low(first, expo[1, ::2])) + start[::2]
            lows[2], ties[2] = coupled._lowest(low)
            moves[2] = moves[1]
        start += _bridge_low(db, expo[path])
        lows[path], ties[path] = coupled._lowest(start)
    return lows, ties.astype(bool), moves


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("shape", [(16, 2048), (56, 584), (40, 64)], ids=["full", "wide", "narrow"])
def test_one_level_block_is_bit_identical_to_cumsum(shape, refine):
    # blocks as the direct route cuts them, from a full batch to one too
    # narrow for the row adds: the running sums add the same numbers in
    # the same order as np.cumsum, so nothing differs in the last bit
    rho, dt = 0.3, 1.0 / 4096
    move = derive_rng(45, 1).standard_normal((2, shape[1])) * math.sqrt(shape[0] * dt)
    scratch = functools.cache(lambda name, size: np.empty(size))
    got = coupled._one_level_block(rho, dt, shape, move, derive_rng(45, 0), scratch, refine)
    want = cumsum_block(rho, dt, shape, move, derive_rng(45, 0), refine)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_discrete_phi_uses_no_oracle(monkeypatch):
    # the estimator must not share code with the Walsh and tanaka oracles
    def forbidden(*args, **kwargs):
        raise AssertionError("discrete_phi called an oracle")

    patched = []
    for module in (walsh, tanaka):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:  # private helpers included
                assert all(value is not fn for value in vars(coupled).values())
                monkeypatch.setattr(module, name, forbidden)
                patched.append(name)
    assert {"_fwht", "_noise_operator", "_sgn", "walsh_transform", "parity_signs"} <= set(patched)
    for text in ("", "1/4..1/2", "0..1"):
        est = discrete_phi(TimeSet.parse(text), 0.5, 100, 1000, seed=63)
        assert -1.0 <= est.mean <= 1.0


def test_discrete_phi_resource_cap():
    with pytest.raises(ResourceLimitError):
        discrete_phi(FULL, 0.5, 10**7 + 1, 100, seed=0)


def test_argmin_coincidence_unperturbed():
    est = argmin_coincidence(EMPTY, 0.5, 256, 500, seed=2)
    assert est.mean == 1.0
    assert est.extra["tie_fraction"] == 0.0


def test_argmin_coincidence_independent_paths_rare():
    est = argmin_coincidence(FULL, 0.0, 1 << 10, 4000, seed=3)
    assert est.mean < 0.05


def test_argmin_coincidence_full_region_is_exactly_zero():
    # every candidate minimum lies inside A, where the two paths' labels differ
    for rho in (0.0, 0.9):
        est = argmin_coincidence(FULL, rho, 256, 1000, seed=4)
        assert (est.mean, est.stderr) == (0.0, 0.0)


def test_two_level_run_has_each_grids_law():
    # 4 steps on A at rho 0.9, where the grid bias is about 0.005: the
    # one level at n_grid must match a plain run there, the refined run
    # one at 2 n_grid, and the top level's paired difference must resolve
    # the bias, here over a top level of 7 692 walks at 32
    two = argmin_coincidence(QUARTER_HALF, 0.9, 16, 200_000, seed=81,
                             top_walks=lambda est, walks: None if walks else 7692)
    refined, bias = two.extra["refined"], two.extra["grid_bias"]
    plains = []
    for level, n_grid, seed in ((two, 16, 82), (refined, 32, 83)):
        plains.append(argmin_coincidence(QUARTER_HALF, 0.9, n_grid, 200_000, seed=seed))
        assert abs(level.mean - plains[-1].mean) < 4 * math.hypot(level.stderr, plains[-1].stderr)
        assert level.extra["tie_fraction"] == 0.0
    assert bias.mean == pytest.approx(refined.mean - two.mean, abs=1e-12)
    assert bias.mean > 4 * bias.stderr
    # the paired band is narrower than the band of two independent runs
    # of the top level's walks, one on each grid
    walks = refined.extra["levels"][-1]["samples"]
    independent = math.hypot(*(plain.stderr for plain in plains)) * math.sqrt(200_000 / walks)
    assert bias.stderr < independent / 2


def test_refined_level_is_the_plain_walk_at_twice_the_grid(monkeypatch):
    # a one-level run's top level walks the draws of the plain run at
    # 2 n_grid of as many walks (streams are keyed by grid and batch), and
    # its fine grid is that run's walk bit for bit (with an even block of
    # steps and 2 ceil(n_grid len) = ceil(2 n_grid len) on every
    # component).  At these budgets _levels keeps one level at n_grid on
    # components of 1/4 up to n_grid 64 (from 256 a chain from 128 beats
    # it), and on components of 1/64, 4 steps at 256, up to n_grid 512:
    # levels cannot save where _SAMPLE_COST is most of a walk
    walk, rows = coupled._coincidence_walk, []

    def recording(components, rho, target, rng, refine=False):
        values, tied = walk(components, rho, target, rng, refine)
        if refine or components[0][2] == fine:  # the top level, or the plain run at 2 n_grid
            rows.append((values[-1], tied[-1]))
        return values, tied

    monkeypatch.setattr(coupled, "_coincidence_walk", recording)
    cases = [(64, text) for text in ("1/4..1/2", "1/4..1/2,5/8..3/4", "0..1/4", "3/4..1")]
    cases += [(256, text) for text in ("1/4..17/64", "1/4..17/64,5/8..41/64", "0..1/64", "63/64..1")]
    for n_grid, text in cases:
        region = TimeSet.parse(text)
        lengths = [hi - lo for lo, hi in region]
        fine = 2 * math.ceil(n_grid * lengths[0])
        for n_samples in (2048, 3072):
            assert len(coupled._levels(lengths, n_grid, n_samples, False)) == 1
            rows.clear()
            two = argmin_coincidence(region, 0.5, n_grid, n_samples, seed=85, top_walks=floor_only)
            top = rows[:]
            rows.clear()
            levels = two.extra["refined"].extra["levels"]
            assert [row["grid"] for row in levels] == [n_grid, 2 * n_grid]
            plain = argmin_coincidence(region, 0.5, 2 * n_grid, levels[-1]["samples"], seed=85)
            assert plain.stderr > 0.0 and len(plain.extra["levels"]) == 1
            assert len(top) == len(rows) > 0
            for (values, tied), (plain_values, plain_tied) in zip(top, rows):
                assert np.array_equal(values, plain_values) and np.array_equal(tied, plain_tied)


def test_top_walks_extends_only_the_top_level():
    # the hook sees each result and the top level's walks, 0 before its
    # first round (None there gives the floor of 32 walks), and
    # the top level walks on, in batches numbered on from its own, until
    # the hook asks for no more than it has; the estimate and the levels
    # below do not change, on a multilevel run and on a one-level run alike
    asked = []

    def hook(est, walks):
        asked.append((walks, est.extra["grid_bias"].stderr if walks else None))
        return {32: 3000, 3000: 2999}.get(walks)

    plain = argmin_coincidence(QUARTER_HALF, 0.7, 256, 2000, seed=7, top_walks=floor_only)
    more = argmin_coincidence(QUARTER_HALF, 0.7, 256, 2000, seed=7, top_walks=hook)
    assert [walks for walks, _ in asked] == [0, 32, 3000]
    assert asked[1][1] == plain.extra["grid_bias"].stderr > asked[2][1]
    assert (more.mean, more.stderr, more.extra["levels"]) == \
        (plain.mean, plain.stderr, plain.extra["levels"])
    # each level's row, less its share of a total the top level is part of
    fine, coarse = ([{k: v for k, v in row.items() if k != "var_share"}
                     for row in est.extra["refined"].extra["levels"]] for est in (more, plain))
    assert fine[:-1] == coarse[:-1] and (fine[-1]["grid"], fine[-1]["samples"]) == (512, 3000)
    assert more.extra["grid_bias"].stderr == asked[2][1]
    # one level at n_grid 16, and a top level of 32 walks at 32
    plain = argmin_coincidence(QUARTER_HALF, 0.7, 16, 500, seed=7, top_walks=floor_only)
    more = argmin_coincidence(QUARTER_HALF, 0.7, 16, 500, seed=7,
                              top_walks=lambda est, walks: {32: 300, 300: 299}.get(walks))
    assert (more.mean, more.stderr, more.extra["levels"]) == \
        (plain.mean, plain.stderr, plain.extra["levels"])
    rows = more.extra["refined"].extra["levels"]
    assert [(row["grid"], row["samples"]) for row in rows] == [(16, 500), (32, 300)]
    assert more.extra["grid_bias"].stderr < plain.extra["grid_bias"].stderr


def test_check_stability_leaves_the_run_at_n_grid_as_it_is():
    # with one level or several, a hook adds a top level at 2 n_grid and
    # leaves the levels below it, and so the estimate, bit for bit as
    # without it; a hook that asks for nothing gives the floor of 32 walks
    for text, n_grid, n in (("1/4..1/2", 1024, 3000), ("1/4..1/2,5/8..3/4", 1024, 3000),
                            ("1/4..1/2", 64, 100)):
        region = TimeSet.parse(text)
        two = argmin_coincidence(region, 0.5, n_grid, n, seed=85, top_walks=floor_only)
        plain = argmin_coincidence(region, 0.5, n_grid, n, seed=85)
        assert (len(plain.extra["levels"]) > 1) == (n_grid > 64)
        assert (two.mean, two.stderr, two.extra) == \
            (plain.mean, plain.stderr, {**plain.extra, "refined": two.extra["refined"],
                                        "grid_bias": two.extra["grid_bias"]})
        refined, bias = two.extra["refined"], two.extra["grid_bias"]
        rows = refined.extra["levels"]
        shares = [row.pop("var_share") for row in rows + plain.extra["levels"]]
        assert rows[:-1] == plain.extra["levels"] and rows[-1]["grid"] == 2 * n_grid
        assert sum(shares[:len(rows)]) == pytest.approx(1.0, abs=1e-12)
        assert (bias.mean, bias.stderr) == (rows[-1]["estimate"], rows[-1]["stderr"])
        assert refined.mean == pytest.approx(two.mean + bias.mean, abs=1e-15)
        assert rows[-1]["samples"] == 32


def test_the_hook_is_the_top_levels_switch():
    # argmin_coincidence has no refine parameter: a top level at 2 n_grid
    # is walked iff a top_walks hook is given, and then the result always
    # has a grid bias.  The hook's first call, with walks 0, sees the
    # levels below and no grid bias, and the first round is its answer,
    # at least the floor of 32 walks (None, 0 and 5 all give 32): on a
    # multilevel run and on a one-level run alike
    assert "refine" not in inspect.signature(argmin_coincidence).parameters
    for n_grid, n, levels in ((1024, 4000, 4), (16, 500, 1)):
        plain = argmin_coincidence(QUARTER_HALF, 0.5, n_grid, n, seed=97)
        assert len(plain.extra["levels"]) == levels
        assert not {"refined", "grid_bias"} & set(plain.extra)
        for answer, first in ((None, 32), (0, 32), (5, 32), (100, 100)):
            seen = []

            def hook(est, walks):
                seen.append((walks, est))
                return None if walks else answer

            est = argmin_coincidence(QUARTER_HALF, 0.5, n_grid, n, seed=97, top_walks=hook)
            assert [walks for walks, _ in seen] == [0, first]
            assert seen[0][1].extra["levels"] == plain.extra["levels"]
            assert "grid_bias" not in seen[0][1].extra
            assert (est.mean, est.stderr) == (plain.mean, plain.stderr)
            assert est.extra["grid_bias"].stderr > 0.0
            assert est.extra["refined"].extra["levels"][-1]["samples"] == first


def test_refined_walk_is_the_plain_walk_at_twice_the_grid():
    # the kernel: with 2 ceil(n_grid len) = ceil(2 n_grid len) on every
    # component, the refined walk's fine row is the plain walk at 2 n_grid
    # on the same draws, bit for bit, at every batch size (blocks are even)
    for text in ("1/4..1/2", "1/4..1/2,5/8..3/4", "0..1/2", "1/2..1"):
        region = TimeSet.parse(text)
        for b in (2048, 1024, 1200, 37):
            target = derive_rng(85, b).standard_normal((2, b))
            refined = coupled._coincidence_walk(
                [(lo, hi, 2 * math.ceil(256 * (hi - lo))) for lo, hi in region], 0.5,
                target, derive_rng(85, 0), refine=True)
            plain = coupled._coincidence_walk(
                [(lo, hi, math.ceil(512 * (hi - lo))) for lo, hi in region], 0.5,
                target, derive_rng(85, 0))
            assert refined[0].shape == (2, b) and plain[0].shape == (1, b)
            assert np.array_equal(refined[0][1], plain[0][0])
            assert np.array_equal(refined[1][1], plain[1][0])


@pytest.mark.parametrize("text", ["1/4..1/2", "1/4..1/2,5/8..3/4",
                                  "1/8..1/4,3/8..1/2,5/8..3/4"])
def test_multilevel_estimate_matches_one_level_at_the_finest_grid(text):
    # the levels telescope to the walk at n_grid: the multilevel run (from
    # 128) and a one-level run there agree at 4 sigma, and at the same
    # budget its stderr is no worse, at 1024 and at 256 alike
    region = TimeSet.parse(text)
    for n_grid in (1024, 256):
        est = argmin_coincidence(region, 0.5, n_grid, 20_000, seed=92)
        assert len(est.extra["levels"]) > 1 and est.extra["levels"][-1]["grid"] == n_grid
        mean, stderr = one_level(region, 0.5, n_grid, 20_000, seed=93)
        assert abs(est.mean - mean) < 4 * math.hypot(est.stderr, stderr)
        assert est.stderr <= 1.05 * stderr


def giles_plan(lengths, n_grid, n, base):
    """The chain from base up to n_grid: its grids, steps and counts, modelled variance and budget.

    Level l costs its steps on A plus _SAMPLE_COST a sample and varies
    V_0 = 1, V_l = _LEVEL_DECAY 16 / n_l; the budget is n walks at n_grid.
    The top `held` levels hold 32 samples, the others Giles' counts for the
    budget left, with held the fewest that leaves every count at 32 or more.
    """
    grids = [base << k for k in range(round(math.log2(n_grid // base)) + 1)]
    steps = [sum(grid // base * math.ceil(base * x) for x in lengths) for grid in grids]
    cost = [m + coupled._SAMPLE_COST for m in steps]
    var = [1.0] + [coupled._LEVEL_DECAY * 16 / grid for grid in grids[1:]]
    budget = n * (sum(math.ceil(n_grid * x) for x in lengths) + coupled._SAMPLE_COST)
    for held in range(len(grids)):
        free = len(grids) - held
        left = budget - 32 * sum(cost[free:])
        total = sum(math.sqrt(v * c) for v, c in zip(var[:free], cost[:free]))
        counts = [min(SAMPLE_CAP, math.floor(left * math.sqrt(v / c) / total))
                  for v, c in zip(var[:free], cost[:free])] + [32] * held
        if counts[free - 1] >= 32:
            break
    return grids, steps, counts, sum(v / k for v, k in zip(var, counts)), budget


def assert_top_level(lengths, n_grid, n, plan):
    """refine keeps the plan and adds a top level at 2 n_grid, with no walks until the plan has walked."""
    two = coupled._levels(lengths, n_grid, n, True)
    assert two[:-1] == plan
    fine = [2 * math.ceil(n_grid * x) for x in lengths]
    assert two[-1] == (2 * n_grid, fine, True, [])


def test_levels_follow_the_fixed_allocation():
    # Giles' closed form from the stated variance and cost model, with
    # the top levels held at the floor of 32 where it would give fewer,
    # within the budget of n walks at n_grid, on the chain of least
    # modelled variance among every coarsest grid down to 16 whose floors
    # fit, and the one-level run of variance 1 / n
    cases = [([0.25], 4096, 1200, 128, 0), ([0.25], 1024, 20_000, 128, 0),
             ([0.25], 2048, 100, 256, 3), ([0.25], 4096, 72, 2048, 1),
             ([0.25, 0.125], 4096, 1200, 128, 0), ([0.25, 0.125], 2048, 100, 128, 4),
             ([0.25, 0.125], 4096, 72, 1024, 2)]
    for lengths, n_grid, n, base, held in cases:
        plan = coupled._levels(lengths, n_grid, n, False)
        grids, steps, counts, least, budget = giles_plan(lengths, n_grid, n, base)
        assert [grid for grid, *_ in plan] == grids
        assert [sum(level[3]) for level in plan] == counts and min(counts) >= 32
        assert counts.count(32) == held
        assert [sum(level[1]) for level in plan] == steps
        assert sum(k * (m + coupled._SAMPLE_COST) for k, m in zip(counts, steps)) <= budget
        assert least < 1 / n
        for other in (n_grid >> k for k in range(1, round(math.log2(n_grid // 16)) + 1)):
            _, _, others, var, _ = giles_plan(lengths, n_grid, n, other)
            assert others[0] < 32 or var >= least
        assert [level[2] for level in plan] == [False] + [True] * (len(plan) - 1)
        assert_top_level(lengths, n_grid, n, plan)
    # when no chain's model beats 1 / n (a grid of 128 or less, a small
    # budget) the run is one level of n walks, and refine adds the top level
    lengths = [0.25]
    for n_grid, n in ((128, 20_000), (64, 100), (16, 20_000), (4096, 60), (256, 100)):
        for base in (n_grid >> k for k in range(1, round(math.log2(n_grid // 16)) + 1)):
            _, _, counts, var, _ = giles_plan(lengths, n_grid, n, base)
            assert counts[0] < 32 or var >= 1 / n
        plan = coupled._levels(lengths, n_grid, n, False)
        assert plan == [(n_grid, [n_grid // 4], False, batch_sizes(n, 2048))]
        assert_top_level(lengths, n_grid, n, plan)


def test_levels_stay_within_the_caps(monkeypatch):
    # every level takes at most SAMPLE_CAP samples, however large the
    # budget, and no level of the chosen chain walks more than STEP_CAP
    # steps: on a component of 0.3 the level at 4096 of the chain from 128
    # walks 32 ceil(38.4) = 1248 steps, of the one from 256 1232
    plan = coupled._levels([0.25], 8192, 2 * 10**8, False)
    assert len(plan) > 1 and sum(plan[0][3]) == SAMPLE_CAP
    assert max(sum(level[3]) for level in plan) == SAMPLE_CAP
    plan = coupled._levels([0.3], 4096, 1200, False)
    assert plan[0][0] == 128 and sum(plan[-1][1]) == 1248
    monkeypatch.setattr(coupled, "STEP_CAP", 1247)
    plan = coupled._levels([0.3], 4096, 1200, False)
    assert plan[0][0] == 256 and plan[-1][0] == 4096
    assert max(sum(level[1]) for level in plan) == 1232
    with pytest.raises(ResourceLimitError):  # the top level of 32 ceil(0.3 256) steps
        coupled._levels([0.3], 4096, 1200, True)


def test_a_small_budget_falls_back_to_one_level():
    # at 100 walks of n_grid 64 a top level held at the floor of 32 would
    # leave level 0 only 73 samples, and at 60 walks of n_grid 4096 only 51,
    # too few to beat the one-level run: the run is the plain walk at
    # n_grid, all the samples in one level, and a top_walks hook adds the
    # top level at 2 n_grid (at its floor of 32 walks on both) and leaves
    # it as it is
    for n_grid, n, top in ((64, 100, 32), (4096, 60, 32)):
        plain = argmin_coincidence(QUARTER_HALF, 0.5, n_grid, n, seed=94)
        two = argmin_coincidence(QUARTER_HALF, 0.5, n_grid, n, seed=94, top_walks=floor_only)
        for est in (plain, two):
            assert [(row["grid"], row["samples"]) for row in est.extra["levels"]] == [(n_grid, n)]
            assert est.extra["strata"] == n // 2 and est.extra["levels"][0]["var_share"] == 1.0
        refined = two.extra["refined"]
        assert [(row["grid"], row["samples"]) for row in refined.extra["levels"]] == \
            [(n_grid, n), (2 * n_grid, top)]
        assert refined.extra["strata"] == n // 2 + top // 2
        bias = two.extra["grid_bias"]
        assert bias.mean == pytest.approx(refined.mean - two.mean, abs=1e-15)


def test_any_tied_level_flags_the_run(monkeypatch):
    # ties on one level's walks alone raise the flag, at that level's
    # fraction: the level at 256, the first refined one of the chain from
    # 128 that _levels picks for 4000 walks at 1024
    walk = coupled._coincidence_walk

    def tied_at_256(components, rho, target, rng, refine=False):
        values, tied = walk(components, rho, target, rng, refine)
        if components[0][2] == 64:  # the walk at grid 256 on 1/4..1/2
            tied[:, :3] = True
        return values, tied

    monkeypatch.setattr(coupled, "_coincidence_walk", tied_at_256)
    est = argmin_coincidence(QUARTER_HALF, 0.5, 1024, 4000, seed=95)
    rows = est.extra["levels"]
    assert [row["grid"] for row in rows] == [128, 256, 512, 1024]
    batches = len(batch_sizes(rows[1]["samples"], 2048))
    assert est.extra["tie_flag"] and est.extra["tie_fraction"] == 3 * batches / rows[1]["samples"]
    monkeypatch.undo()
    est = argmin_coincidence(QUARTER_HALF, 0.5, 1024, 4000, seed=95)
    assert not est.extra["tie_flag"] and est.extra["tie_fraction"] == 0.0
    rows = est.extra["levels"]
    assert sum(row["var_share"] for row in rows) == pytest.approx(1.0, abs=1e-12)
    assert est.stderr ** 2 == pytest.approx(sum(row["stderr"] ** 2 for row in rows), rel=1e-12)


def test_two_level_run_is_exact_on_exact_regions():
    for region, value in ((EMPTY, 1.0), (FULL, 0.0)):
        two = argmin_coincidence(region, 0.5, 256, 1000, seed=84, top_walks=floor_only)
        for level in (two, two.extra["refined"]):
            assert (level.mean, level.stderr) == (value, 0.0)
        bias = two.extra["grid_bias"]
        assert (bias.mean, bias.stderr) == (0.0, 0.0)


def test_a_zero_grid_bias_stderr_is_one_walk_in_its_level(monkeypatch):
    # when every walk of the top level, which grid_bias comes from, scores
    # alike on both grids, its stderr is 1 / (the top level's walks), on a
    # multilevel run and on a one-level run alike
    walk = coupled._coincidence_walk

    def alike_at_2048(components, rho, target, rng, refine=False):
        values, tied = walk(components, rho, target, rng, refine)
        if refine and components[0][2] == 512:  # the top level, 2048 on 1/4..1/2
            values[-1] = values[0]
        return values, tied

    monkeypatch.setattr(coupled, "_coincidence_walk", alike_at_2048)
    for n, grids in ((3000, [128, 256, 512, 1024, 2048]), (80, [1024, 2048])):
        two = argmin_coincidence(QUARTER_HALF, 0.5, 1024, n, seed=96, top_walks=floor_only)
        rows = two.extra["refined"].extra["levels"]
        assert [row["grid"] for row in rows] == grids
        assert 2 <= rows[-1]["samples"] < n
        bias = two.extra["grid_bias"]
        assert (bias.mean, bias.stderr) == (0.0, 1.0 / rows[-1]["samples"])


@pytest.mark.parametrize("refine", [False, True])
def test_every_batch_holds_a_cell(refine):
    # 2049 samples would leave a last batch of 1 at 2048 a batch; it
    # joins the batch before, so every batch holds a cell of 2 or 3, the
    # top level's of at least 2 walks included
    hook = floor_only if refine else None
    for n in (2, 3, 2049, 4097):
        est = argmin_coincidence(QUARTER_HALF, 0.5, 64, n, seed=86, top_walks=hook)
        levels = (est, est.extra["refined"]) if refine else (est,)
        for level in levels:
            rows = level.extra["levels"]
            assert math.isfinite(level.mean) and level.stderr > 0.0 and level.n_samples == n
            assert rows[0]["samples"] == n and all(row["samples"] >= 2 for row in rows)
            assert [row["strata"] for row in rows] == [row["samples"] // 2 for row in rows]
            assert level.extra["strata"] == sum(row["strata"] for row in rows)
        if refine:
            assert est.extra["grid_bias"].stderr > 0.0
        for region, value in ((EMPTY, 1.0), (FULL, 0.0)):
            est = argmin_coincidence(region, 0.5, 64, n, seed=86, top_walks=hook)
            assert (est.mean, est.stderr) == (value, 0.0)


@pytest.mark.parametrize("b", [2, 3, 5, 23, 2048])
def test_polar_cells_are_stratified_normal_pairs(b):
    # 23 samples make 11 cells in 3 bands of 3, 4 and 4 sectors
    rng = derive_rng(87, b)
    z, cell, weight = _polar_cells(b, rng)
    cells = b // 2
    bands = math.isqrt(cells)
    sectors = np.diff(np.arange(bands + 1) * cells // bands)  # per band
    first = np.cumsum(sectors) - sectors  # each band's first cell
    band_of = np.repeat(np.arange(bands), sectors)  # per cell
    assert z.shape == (2, b)
    assert np.array_equal(weight, 1.0 / (bands * sectors[band_of]))
    assert abs(weight.sum() - 1.0) <= 1e-15
    assert np.array_equal(np.bincount(cell), [2] * (cells - 1) + [2 + b % 2])
    # each point lies in its own cell: its band by 1 - exp(-r^2/2), its
    # sector by angle, in the cell order band by band
    band = np.floor(-np.expm1(-0.5 * (z * z).sum(axis=0)) * bands).astype(int)
    assert np.array_equal(band, band_of[cell])
    angle = np.arctan2(z[1], z[0]) % (2.0 * math.pi)
    sector = np.floor(angle / (2.0 * math.pi) * sectors[band]).astype(int)
    assert np.array_equal(first[band] + sector, cell)
    # pooled with the cells' probabilities, the points are N(0, I): mean,
    # variance, covariance and P(|z| < 1) at 4 sigma over the batches
    batches = max(100, 20_000 // b)
    stats = []
    for _ in range(batches):
        z, cell, weight = _polar_cells(b, rng)
        f = np.vstack([z, z * z, z[0] * z[1], (z * z).sum(axis=0) < 1.0])
        stats.append((np.array([np.bincount(cell, row) for row in f]) / np.bincount(cell)) @ weight)
    stats = np.array(stats)
    exact = [0.0, 0.0, 1.0, 1.0, 0.0, -math.expm1(-0.5)]
    spread = stats.std(axis=0, ddof=1) / math.sqrt(batches)
    assert np.all(np.abs(stats.mean(axis=0) - exact) < 4 * spread)


WALK_REGIONS = ["1/4..1/2", "1/4..1/2,5/8..3/4", "0..1/2", "1/2..1", "0..1/4,3/4..1"]


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("text", WALK_REGIONS)
def test_conditioned_walk_ends_on_the_stratified_target(monkeypatch, text, refine):
    # the pair's (S, D) displacement over A and its middle gaps is the
    # target scaled by its variance: (1 + rho, 1 - rho) per unit of A and
    # (2, 0) per unit of a middle gap
    targets, ends = [], []
    polar_cells, end_scores = coupled._polar_cells, coupled._end_scores

    def cells(b, rng):
        out = polar_cells(b, rng)
        targets.append(out[0])
        return out

    def scores(w, *args):
        ends.append(w.copy())
        return end_scores(w, *args)

    monkeypatch.setattr(coupled, "_polar_cells", cells)
    monkeypatch.setattr(coupled, "_end_scores", scores)
    region, rho = TimeSet.parse(text), 0.5
    est = argmin_coincidence(region, rho, 64, 3000, seed=88, top_walks=floor_only if refine else None)
    parts = list(region)
    inside = sum(hi - lo for lo, hi in parts)
    gaps = sum(lo - prev_hi for (_, prev_hi), (lo, _) in zip(parts, parts[1:]))
    scale = np.sqrt([[(1.0 + rho) * inside + 2.0 * gaps], [(1.0 - rho) * inside]])
    rows = (est.extra["refined"] if refine else est).extra["levels"]
    assert len(targets) == len(ends) == sum(len(coupled._batches(row["samples"])) for row in rows)
    for target, w in zip(targets, ends):
        for other in w[1:]:
            end = np.array([w[0] + other, w[0] - other]) / math.sqrt(2.0)
            assert np.allclose(end, scale * target, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("text, rho, law", [
    # (W, W') from the start of A after the first component, after the
    # middle gap and at the end: the free walk's variance and covariance
    ("1/4..1/2,5/8..3/4", 0.5, [(0.25, 0.125), (0.375, 0.25), (0.5, 0.3125)]),
    ("0..1/4,3/4..1", 0.3, [(0.25, 0.075), (0.75, 0.575), (1.0, 0.65)]),
])
def test_conditioned_walk_has_the_free_walks_law(monkeypatch, text, rho, law):
    moves, ends = [], []
    block, end_scores = coupled._one_level_block, coupled._end_scores

    def recording_block(rho, dt, shape, move, rng, scratch, refine=False):
        out = block(rho, dt, shape, move, rng, scratch, refine)
        moves.append((shape[0], out[2].copy()))
        return out

    def scores(w, *args):
        ends.append(w.copy())
        return end_scores(w, *args)

    monkeypatch.setattr(coupled, "_one_level_block", recording_block)
    monkeypatch.setattr(coupled, "_end_scores", scores)
    region, n_grid, n = TimeSet.parse(text), 64, 100 * 2048
    argmin_coincidence(region, rho, n_grid, n, seed=89)
    steps = [math.ceil(n_grid * (hi - lo)) for lo, hi in region]
    blocks = iter(moves)
    positions = [[], [], []]  # after the first component, after the gap, at the end
    for end in ends:
        walked = []
        for count in steps:
            total = 0
            while count:
                m, move = next(blocks)
                total, count = total + move, count - m
            walked.append(total)
        positions[0].append(walked[0])
        positions[1].append(end - walked[1])
        positions[2].append(end)
    for position, (var, cov) in zip(positions, law):
        x, y = np.concatenate(position, axis=1)
        assert x.size == n
        for value, exact in ((x, 0.0), (y, 0.0), (x * x, var), (y * y, var), (x * y, cov)):
            assert abs(value.mean() - exact) < 4 * value.std() / math.sqrt(n)


def test_stratified_stderr_beats_plain_and_is_calibrated(monkeypatch):
    # each sample is marginally a plain sample, so the per-sample
    # variance of the same run gives the plain Monte Carlo stderr
    values = []
    end_scores = coupled._end_scores

    def scores(*args):
        out = end_scores(*args)
        values.append(out[0])
        return out

    monkeypatch.setattr(coupled, "_end_scores", scores)
    n = 20_000
    est = argmin_coincidence(QUARTER_HALF, 0.3, 256, n, seed=90)
    plain = np.concatenate(values).var(ddof=1) / n
    assert est.stderr**2 <= 0.5 * plain
    monkeypatch.undo()
    # over 200 seeds the estimates spread as far as the reported stderr says
    ests = [argmin_coincidence(QUARTER_HALF, 0.3, 64, 400, seed=s) for s in range(200)]
    spread = np.std([est.mean for est in ests], ddof=1)
    rms = math.sqrt(np.mean([est.stderr**2 for est in ests]))
    assert 0.8 <= spread / rms <= 1.25


def bridge_minimum(d, length, rng):
    """The exact bridge minimum of a step of this length that rises by d, drawn as in a gap of the direct route."""
    return _bridge_low(d, 2.0 * length * rng.standard_exponential(d.shape))


def test_bridge_minimum_matches_reflection():
    # over a free step d ~ N(0, L) the bridge minimum is the minimum of
    # Brownian motion on [0, L]: P(min > -a) = erf(a / sqrt(2 L))
    rng = derive_rng(41, 0)
    length, n = 0.75, 200_000
    d = rng.standard_normal(n) * math.sqrt(length)
    low = bridge_minimum(d, length, rng)
    assert np.all(low <= np.minimum(d, 0.0))
    for a in (0.1, 0.5, 1.0, 2.0):
        p = math.erf(a / math.sqrt(2.0 * length))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(low > -a) - p) < 4 * se


def sampled_last_gap(height, same, length, rng):
    """The last gap taken as one sampled shared step: a path's minimum moves
    into the gap iff the gap's bridge minimum lies below -height."""
    d = rng.standard_normal(height.shape[1]) * math.sqrt(length)
    inside = bridge_minimum(d, length, rng) < -height
    return np.where(inside[0] & inside[1], 1.0, np.where(inside[0] | inside[1], 0.0, same))


@pytest.mark.parametrize("length", [0.05, 0.5])
def test_last_gap_closed_form_matches_sampled_tail(length):
    rng = derive_rng(42, 0)
    n = 200_000
    height = rng.exponential(0.4, size=(2, n))
    same = rng.random(n) < 0.5
    closed = _last_gap(height, same, length)
    sampled = sampled_last_gap(height, same, length, rng)
    diff = sampled - closed
    assert abs(diff.mean()) < 4 * diff.std(ddof=1) / math.sqrt(n)
    assert closed.var() < sampled.var()  # the closed form is the conditional mean
    assert np.array_equal(_last_gap(height, same, 0.0), same.astype(float))


def test_binormal_cdf_matches_quadrature():
    # P(Z1 < h, Z2 < k) = integral over x < h of phi(x) Phi((k - r x) / c),
    # across every branch of Owen's b0: h k < 0, h = 0 and k = 0, both
    # signs; at random r, on both sides of each switch of Genz's node count
    # (0.3, 0.75) and of the switch to Owen's T (0.925), and near -1,
    # where a fixed Gauss-Legendre rule fails
    rng = derive_rng(43, 0)
    h, k = rng.normal(0.0, 1.5, size=(2, 60))
    h[:10], k[10:20] = 0.0, 0.0
    h[20:25], k[25:30] = -0.0, -0.0
    r = -rng.random(60) * 0.99
    switches = [s * x for x in (0.3, 0.75, coupled._GENZ_MAX_R) for s in (1.0, -1.0)]
    edges = [x for s in switches for x in (math.nextafter(s, 0.0), s, math.nextafter(s, 2.0 * s))]
    r[:len(edges)] = edges
    r[-3:] = -0.95, -0.99, -0.999
    for hi, ki, ri in zip(h, k, r):
        c = math.sqrt(1.0 - ri * ri)
        exact = integrate.quad(lambda x: math.exp(-x * x / 2.0) * ndtr((ki - ri * x) / c),
                               -np.inf, hi, epsabs=1e-15, limit=200)[0] / math.sqrt(2.0 * math.pi)
        assert _binormal_cdf(np.array([hi]), np.array([ki]), ri)[0] == \
            pytest.approx(exact, abs=1e-13)


def test_genz_nodes_are_built_once_per_correlation():
    # the node constants are cached per r and shared by every call, so
    # they are immutable; the node count follows |r|
    nodes = coupled._genz_nodes(-0.5)
    assert coupled._genz_nodes(-0.5) is nodes and isinstance(nodes, tuple)
    assert [len(coupled._genz_nodes(r)) for r in (-0.29, -0.3, -0.74, -0.75, -0.925)] == \
        [6, 12, 12, 20, 20]
    # the weights total asin(r) / 2 pi: the integral of 1 over [0, asin r]
    assert sum(w for w, _, _ in nodes) == pytest.approx(math.asin(-0.5) / (2.0 * math.pi), rel=1e-15)


def drawn_first_gap(e, a, same, lo, rng):
    """Heights above the best candidate, and shared-label flags, with the first
    gap drawn as one shared step: its minimum from W(lo) is the bridge minimum
    less the gap's rise."""
    d = rng.standard_normal(e.shape[1]) * math.sqrt(lo)
    gap = bridge_minimum(d, lo, rng) - d
    below = gap < a
    same = np.where(below[0] & below[1], True, np.where(below[0] | below[1], False, same))
    return e - np.minimum(gap, a), same


@pytest.mark.parametrize("length", [0.3, 0.0])
@pytest.mark.parametrize("same", [True, False])
def test_outer_gaps_closed_form_matches_drawn_gaps(length, same):
    # both outer gaps drawn as shared steps, a million times, against the
    # closed form with both integrated out
    rng = derive_rng(44, 0)
    n, lo = 1_000_000, 0.25
    a = -rng.exponential(0.4, size=(2, n))
    e = a + rng.exponential(0.5, size=(2, n))
    flags = np.full(n, same)
    closed = _outer_gaps(e, a, flags, lo, length)
    sampled = sampled_last_gap(*drawn_first_gap(e, a, flags, lo, rng), length, rng)
    diff = sampled - closed
    assert abs(diff.mean()) < 4 * diff.std(ddof=1) / math.sqrt(n)
    assert closed.var() < sampled.var()


@pytest.mark.parametrize("text, rho", [("1/4..1/2", 0.3), ("1/4..1/2,5/8..3/4", 0.5),
                                       ("1/2..1", 0.5)])
def test_integrated_first_gap_matches_drawn_gap_on_the_same_walks(monkeypatch, text, rho):
    # each A walk of a one-level run is scored twice: with the first gap
    # integrated out, and with it drawn as one shared step before the
    # last gap's closed form
    n = 20_000
    region = TimeSet.parse(text)
    integrated = list(one_level_walks(region, rho, 256, n, seed=45))
    rng = derive_rng(46, 0)
    monkeypatch.setattr(coupled, "_outer_gaps", lambda e, a, same, lo, length: _last_gap(
        *drawn_first_gap(e, a, same, lo, rng), length))
    drawn = np.concatenate([values[0] for values, *_ in one_level_walks(region, rho, 256, n,
                                                                          seed=45)])
    diff = drawn - np.concatenate([values[0] for values, *_ in integrated])
    assert drawn.size == diff.size == n
    assert abs(diff.mean()) < 4 * diff.std(ddof=1) / math.sqrt(n)
    # the stratified stderr falls by at least a fifth against the drawn gap's
    var = sum((cell.size / n) ** 2 * coupled._stratified(values, cell, weight)[1][0]
              for values, _, cell, weight in integrated)
    assert math.sqrt(var) <= 0.8 * drawn.std(ddof=1) / math.sqrt(n)


def drawn_middle_gap(w, best, same, head, tail, gap, rng, end_scores=coupled._end_scores):
    """The end scores with the first middle gap drawn: its bridge minimum
    from the gap's start, under the gap's label, offered to both paths."""
    start, d, length, _ = gap
    low = start + bridge_minimum(d, length, rng)
    takes = low < best
    levels = list(range(w.shape[0] - 1, 0, -1))
    same = np.where(takes[0] & takes[levels], True,
                    np.where(takes[0] | takes[levels], False, same))
    return end_scores(w, np.minimum(best, low), same, head, tail)


@pytest.mark.parametrize("text, rho", [("1/4..1/2,5/8..3/4", 0.5), ("0..1/4,3/4..7/8", 0.3),
                                       ("1/8..1/4,3/8..1/2,5/8..3/4", 0.5)])
def test_three_piece_gap_matches_the_drawn_gap_on_the_same_walks(monkeypatch, text, rho):
    # every walk is scored twice, with the first middle gap's minimum
    # integrated out in three pieces and with it drawn; with three
    # components the second middle gap is drawn in both
    pairs = []
    end_scores, rng = coupled._end_scores, derive_rng(47, 0)

    def both(w, best, same, head, tail, gap=None):
        assert gap is not None
        pairs.append((end_scores(w, best, same, head, tail, gap),
                      drawn_middle_gap(w, best, same, head, tail, gap, rng, end_scores)))
        return pairs[-1][0]

    monkeypatch.setattr(coupled, "_end_scores", both)
    n = 20_000
    for _ in one_level_walks(TimeSet.parse(text), rho, 256, n, seed=48, refine=True):
        pass
    pieces, drawn = (np.concatenate([pair[k] for pair in pairs], axis=1) for k in (0, 1))
    assert pieces.shape == (2, n)
    for diff in pieces - drawn:
        assert abs(diff.mean()) < 4 * diff.std(ddof=1) / math.sqrt(n)
    assert np.all((pieces >= 0.0) & (pieces <= 1.0))
    assert pieces.var(axis=1).max() < drawn.var(axis=1).min()


def test_middle_gap_is_drawn_on_a_region_with_no_outer_gap(monkeypatch):
    # with no outer gap every sample scores 0 or 1 when the middle gap is
    # drawn, so it is integrated out only beside an outer gap
    gaps, values = [], []
    end_scores = coupled._end_scores

    def scores(w, best, same, head, tail, gap=None):
        gaps.append(gap)
        values.append(end_scores(w, best, same, head, tail, gap))
        return values[-1]

    monkeypatch.setattr(coupled, "_end_scores", scores)
    for text, smoothed in (("0..1/4,3/4..1", False), ("0..1/4,3/4..7/8", True),
                           ("1/8..1/4,3/4..1", True)):
        gaps.clear()
        values.clear()
        argmin_coincidence(TimeSet.parse(text), 0.5, 64, 2000, seed=96)
        assert gaps and all((gap is not None) is smoothed for gap in gaps)
        scored = np.concatenate(values, axis=None)
        assert bool(np.all((scored == 0.0) | (scored == 1.0))) is not smoothed


def test_three_piece_gap_tames_the_level_difference():
    # on the split region the middle gap's label jumped between grids when
    # drawn: the difference between 1024 and 2048 had kurtosis 2785 over
    # these 8000 samples; with the gap in three pieces it is 26-28
    diff = np.concatenate([values[1] - values[0] for values, *_ in one_level_walks(
        TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, 1024, 8000, seed=91, refine=True)])
    assert diff.size == 8000
    assert np.mean((diff - diff.mean()) ** 4) / diff.var() ** 2 < 100


# no outer gap, a last gap, a first gap, and both with a smoothed middle gap
CONTROL_REGIONS = ("1/4..1/2", "0..1/2", "1/2..1", "1/4..1/2,5/8..3/4")


def recorded_keeps(monkeypatch):
    """The list every later call of coupled._own_keep appends its (arguments, result) to."""
    calls, own_keep = [], coupled._own_keep

    def recording(*args):
        calls.append((args, own_keep(*args)))
        return calls[-1][1]

    monkeypatch.setattr(coupled, "_own_keep", recording)
    return calls


@pytest.mark.parametrize("text", CONTROL_REGIONS)
def test_own_keep_is_the_end_score_of_a_path_paired_with_itself(monkeypatch, text):
    # a path paired with itself coincides unless its argmin lies in A, or
    # its best candidate lies in a middle gap (same = label >= 0): its end
    # score is one minus the closed form's product, on every row
    calls = recorded_keeps(monkeypatch)
    for _ in one_level_walks(TimeSet.parse(text), 0.5, 64, 3000, seed=31, refine=True):
        pass
    assert len(calls) == 2
    for (w, best, label, head, tail, gap), keep in calls:
        assert keep.shape == w.shape == (3, w.shape[1]) and (gap is not None) == ("," in text)
        for p in range(3):
            pair_gap = None if gap is None else (gap[0][[p, p]], *gap[1:])
            score = coupled._end_scores(w[[p, p]], best[[p, p]], (label[p] >= 0)[None],
                                        head, tail, pair_gap)
            assert np.abs(keep[p] - (1.0 - score[0])).max() < 1e-12
        assert 0.0 < keep.min() and keep.max() < 1.0


@pytest.mark.slow
@pytest.mark.parametrize("text", CONTROL_REGIONS)
def test_each_path_misses_a_at_its_arcsine_probability(monkeypatch, text):
    # Levy's arc-sine law: one path's argmin lies in A with probability
    # mu(A), the sum of (2 / pi)(asin sqrt hi - asin sqrt lo), and one
    # path's bridge minima are exact on every grid, so each row's control
    # 1 - keep (W, W' and W' on the coarse grid) has mean 1 - mu(A) even
    # at grid 16
    region = TimeSet.parse(text)
    mu = sum(2 / math.pi * (math.asin(math.sqrt(hi)) - math.asin(math.sqrt(lo))) for lo, hi in region)
    calls = recorded_keeps(monkeypatch)
    n, mean, var = 1 << 20, 0.0, 0.0
    for _, _, cell, weight in one_level_walks(region, 0.5, 16, n, seed=32, refine=True):
        m, v, _ = coupled._stratified(1.0 - calls.pop()[1], cell, weight)
        mean, var = mean + cell.size * m / n, var + (cell.size / n) ** 2 * v
    assert mean.shape == (3,)
    assert np.all(np.abs(mean - (1.0 - mu)) < 4 * np.sqrt(var))


# argmin_coincidence(region, 0.5, 256, 3000, seed=61) with a top level, before
# the control: its mean and stderr, the refined mean, and the grid bias, with
# the top level at the floor of 32 walks (at 512)
UNCONTROLLED = {
    "1/4..1/2": (0.624992219367134, 0.0019630714526286367, 0.625818877648032,
                 0.0008266582808979586, 0.0005217965286431525),
    "0..1/2": (0.3813277842454093, 0.0022997665672694076, 0.38259786846562677,
               0.0012700842202174843, 0.0009580480495650182),
    "1/2..1": (0.3836152235417783, 0.002320199856409843, 0.3836820615916722,
               6.683804989387576e-05, 0.0007783127624582543),
    "1/4..1/2,5/8..3/4": (0.4825281897399745, 0.003049763526238218, 0.483791372014796,
                          0.0012631822748214536, 0.0006824208165210166),
}


@pytest.mark.parametrize("text", CONTROL_REGIONS)
def test_the_arcsine_control_takes_no_draw(monkeypatch, text):
    # at weight 0 the direct route gives the estimates it gave before the
    # control (to 1e-12: numpy's vectorised exp and log may differ in the
    # last bit between CPUs); at 0.45 it agrees with them at 4 sigma, on
    # the same draws, with a stderr at least a third smaller
    region = TimeSet.parse(text)

    def run():
        est = argmin_coincidence(region, 0.5, 256, 3000, seed=61, top_walks=floor_only)
        bias = est.extra["grid_bias"]
        return est, (est.mean, est.stderr, est.extra["refined"].mean, bias.mean, bias.stderr)

    monkeypatch.setattr(coupled, "_CONTROL_WEIGHT", 0.0)
    plain, values = run()
    assert values == pytest.approx(UNCONTROLLED[text], rel=1e-12, abs=0.0)
    monkeypatch.setattr(coupled, "_CONTROL_WEIGHT", 0.45)
    est, _ = run()
    assert abs(est.mean - plain.mean) < 4 * math.hypot(est.stderr, plain.stderr)
    assert est.stderr < 2 / 3 * plain.stderr
    assert est.extra["strata"] == plain.extra["strata"]


def test_the_arcsine_control_is_off_where_every_score_is_0_or_1(monkeypatch):
    # on a region that touches 0 and reaches 1 each sample scores exactly
    # 0 or 1, and the binomial floor stands: no control is formed, and the
    # run at 0.45 is the run at weight 0, bit for bit
    def forbidden(*args, **kwargs):
        raise AssertionError("a control was formed")

    for text in ("0..1/4,3/4..1", "0..1"):
        region = TimeSet.parse(text)
        monkeypatch.setattr(coupled, "_own_keep", forbidden)
        est = argmin_coincidence(region, 0.5, 256, 3000, seed=61, top_walks=floor_only)
        monkeypatch.undo()
        monkeypatch.setattr(coupled, "_CONTROL_WEIGHT", 0.0)
        plain = argmin_coincidence(region, 0.5, 256, 3000, seed=61, top_walks=floor_only)
        monkeypatch.undo()
        assert (est.mean, est.stderr, est.extra) == (plain.mean, plain.stderr, plain.extra)


def test_argmin_coincidence_uses_no_survival_kernel(monkeypatch):
    # the two sides of the theorem must not share code: every function
    # of coupled's survival section, and the Bessel function, is off limits
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route called a survival kernel")

    # the section's start and its functions from one read of the file, so
    # that an edit to it while the suite runs cannot split the two
    source = Path(coupled.__file__).read_text()
    section = 1 + next(i for i, line in enumerate(source.splitlines())
                       if line.startswith("# -- killed-path survival"))
    survival = [node.name for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.lineno > section]
    assert {"_exact_survival_probability", "_heights_at", "_bridge_noncrossing",
            "_wedge_noncrossing", "_wedge_series", "_joint_survival",
            "m_lambda_functional"} <= set(survival)
    assert "argmin_coincidence" not in survival and "_bridge_low" not in survival
    for name in survival + ["ive"]:
        monkeypatch.setattr(coupled, name, forbidden)
    # nor the RHS's exact factors, which live in theorem
    for name in ("_exact_factors", "_entrance", "_series_terms", "_radial_rule", "_angular_weights"):
        monkeypatch.setattr(theorem, name, forbidden)
    assert not {"hyp1f1", "spherical_jn", "theorem"} & set(vars(coupled))
    for text in ("1/4..1/2,5/8..3/4", "0..1/4,3/4..1", ""):
        for refine in (False, True):
            est = argmin_coincidence(TimeSet.parse(text), 0.5, 256, 200, seed=5,
                                     top_walks=floor_only if refine else None)
            assert 0.0 <= est.mean <= 1.0


def test_estimators_are_deterministic():
    a = discrete_phi(QUARTER_HALF, 0.5, 32, 5000, seed=77)
    b = discrete_phi(QUARTER_HALF, 0.5, 32, 5000, seed=77)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    a = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78)
    b = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    a = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78, top_walks=floor_only)
    b = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78, top_walks=floor_only)
    for key in ("refined", "grid_bias"):
        assert (a.extra[key].mean, a.extra[key].stderr) == (b.extra[key].mean, b.extra[key].stderr)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    a = m_lambda_functional([(0.5, 0.75)], 0.5, 0.125, 4000, seed=79, n_steps=128)
    b = m_lambda_functional([(0.5, 0.75)], 0.5, 0.125, 4000, seed=79, n_steps=128)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_entrance_sampler():
    rng = derive_rng(12, 0)
    assert _heights_at(0.25, rng.random()) > 0
    y = _heights_at(1 / 16, rng.random(100_000))
    assert np.all(y > 0)
    # Rayleigh moments: E[y] = sqrt(pi t / 2), E[y^2] = 2t
    t = 1 / 16
    assert y.mean() == pytest.approx(math.sqrt(math.pi * t / 2), rel=0.01)
    assert (y**2).mean() == pytest.approx(2 * t, rel=0.02)


def test_entrance_mass_conservation_closed_form():
    # weight times exact survival probability integrates to one
    for t, seed in ((1 / 16, 13), (1 / 4, 14)):
        rng = derive_rng(seed, 0)
        y = _heights_at(t, rng.random(400_000))
        vals = t**-0.5 * _exact_survival_probability(y, 1.0 - t)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se + 1e-3


def fixed_height_survival(y, pairs, rho, t0, n_samples, seed):
    """Mean and stderr of the two-path survival weight from a fixed height."""
    vals = _joint_survival(np.full(n_samples, float(y)), pairs, rho, t0,
                           derive_rng(seed, 0).standard_normal((3 * len(pairs), n_samples)))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


def test_survival_corr_matches_reflection():
    # one bridge step over a whole shared stretch, which the survival walk
    # takes in place of per-step weights, is exact in expectation
    s = 0.75
    for y in (0.3, 0.8, 1.5):
        z = derive_rng(31, 0).standard_normal(100_000)
        vals = _bridge_noncrossing(np.full(z.size, y), y + math.sqrt(s) * z, s)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - _exact_survival_probability(y, s)) < 4 * se + 1e-4
    z = derive_rng(32, 0).standard_normal(1000)
    vals = _bridge_noncrossing(np.full(z.size, 100.0), 100.0 + math.sqrt(s) * z, s)
    assert vals.mean() == pytest.approx(1.0, abs=1e-12)


def test_shared_pattern_survival_is_closed_form():
    # a window with no rho-run is the reflection tail alone: no draw
    y = np.array([0.3, 0.8, 1.5, 100.0])
    rng = derive_rng(31, 0)
    state = rng.bit_generator.state
    vals = _joint_survival(y, [], 0.5, 0.25, np.empty((0, y.size)))
    assert np.array_equal(vals, _exact_survival_probability(y, 0.75))
    assert rng.bit_generator.state == state


def window_pattern(region, rho, n, t0):
    """Per-step rho on the n-step grid of [t0, 1], each step sampled at its left endpoint."""
    grid = t0 + np.arange(n) * (1.0 - t0) / n
    inside = np.zeros(n, dtype=bool)
    for lo, hi in region:
        inside |= (grid >= lo) & (grid <= hi)
    return np.where(inside, rho, 1.0)


def _stepwise_survival(y, pattern, dt, rng):
    """Reference: every grid step drawn and weighted on its own, the pair's
    crossing weights factorised inside rho-steps."""
    sqdt = math.sqrt(dt)
    w = np.array(y, dtype=np.float64)
    w_p = w.copy()
    weight = np.ones_like(w)
    for rho_k in pattern:
        db = rng.standard_normal(w.shape) * sqdt
        if rho_k == 1.0:
            db_p = db
            low = np.minimum(w, w_p)
            weight *= _bridge_noncrossing(low, low + db, dt)
        else:
            db_p = rho_k * db + math.sqrt(1.0 - rho_k**2) * sqdt * rng.standard_normal(w.shape)
            weight *= (_bridge_noncrossing(w, w + db, dt)
                       * _bridge_noncrossing(w_p, w_p + db_p, dt))
        w, w_p = w + db, w_p + db_p
    return weight


@pytest.mark.parametrize("region", [[(0.5, 0.75)], [(0.2, 0.35), (0.55, 0.7)]],
                         ids=["one-component", "two-components"])
def test_collapsed_survival_matches_stepwise(region):
    # one exact step per shared stretch and per rho-run keeps the mean of
    # the per-step walk (whose factorised rho-step weight is O(dt) off)
    # and lowers the per-sample variance
    t0, n_steps, n_samples = 0.125, 128, 100_000
    pat = window_pattern(region, 0.5, n_steps, t0)
    dt = (1.0 - t0) / n_steps
    rng = derive_rng(51, 0)
    ref = _stepwise_survival(_heights_at(t0, rng.random(n_samples)), pat, dt, rng)
    rng = derive_rng(52, 0)
    fast = _joint_survival(_heights_at(t0, rng.random(n_samples)), region, 0.5, t0,
                           rng.standard_normal((3 * len(region), n_samples)))
    se = math.hypot(ref.std(ddof=1), fast.std(ddof=1)) / math.sqrt(n_samples)
    assert abs(ref.mean() - fast.mean()) < 4 * se
    assert fast.var(ddof=1) < ref.var(ddof=1)


def test_survival_corr_monotone_in_height():
    vals = [fixed_height_survival(y, [(0.5, 1.0)], 0.5, 0.25, 50_000, seed=34)[0]
            for y in (0.2, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_wedge_kernel_at_the_ends_of_rho():
    # rho = 0: two independent half-planes, the product of one-path
    # weights; rho -> 0 approaches it through the series; rho = 1: one path
    rng = derive_rng(37, 0)
    w, w_new, w_p, w_p_new = rng.random((4, 10_000)) * 0.5
    run = 0.3
    product = _bridge_noncrossing(w, w_new, run) * _bridge_noncrossing(w_p, w_p_new, run)
    assert np.array_equal(_wedge_noncrossing(w, w_new, w_p, w_p_new, 0.0, run), product)
    for rho in (1e-13, 1e-15):
        q = _wedge_noncrossing(w, w_new, w_p, w_p_new, rho, run)
        assert np.abs(q - product).max() <= 1e-12
    shifted = w_p - w + w_new  # a shared step moves both paths alike
    low, low_new = np.minimum(w, w_p), np.minimum(w_new, shifted)
    assert np.array_equal(_wedge_noncrossing(w, w_new, w_p, shifted, 1.0, run),
                          _bridge_noncrossing(low, low_new, run))


def fine_grid_pair_survival(ends, rho, run, n_steps, n_samples, seed):
    """Mean and stderr of the survival of a rho-correlated bridge pair on a
    fine grid: the pair is pinned at both ends, and each step's crossing
    weights are factorised, an O(step) approximation."""
    (a, b), (a_p, b_p) = ends
    dt = run / n_steps
    frac = np.arange(1, n_steps + 1) / n_steps
    rng = derive_rng(seed, 0)
    vals = []
    for _ in range(n_samples // 1000):
        free = np.cumsum(rng.standard_normal((2, 1000, n_steps)), axis=2) * math.sqrt(dt)
        free[1] = rho * free[0] + math.sqrt(1.0 - rho**2) * free[1]
        weight = np.ones(1000)
        for (start, end), path in zip(ends, free):
            bridge = start + path - frac * (path[:, -1:] - (end - start))
            bridge = np.hstack([np.full((1000, 1), start), bridge])
            weight *= _bridge_noncrossing(bridge[:, :-1], bridge[:, 1:], dt).prod(axis=1)
        vals.append(weight)
    vals = np.concatenate(vals)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


@pytest.mark.parametrize("rho", [0.5, 0.9])
@pytest.mark.parametrize("ends, run", [
    (((0.1, 0.2), (0.1, 0.15)), 0.3),
    (((0.3, 0.2), (0.2, 0.4)), 0.25),
], ids=["near-corner", "inside"])
def test_wedge_kernel_matches_fine_grid(rho, ends, run):
    (a, b), (a_p, b_p) = ends
    exact = _wedge_noncrossing(*(np.array([v]) for v in (a, b, a_p, b_p)), rho, run)[0]
    mean, se = fine_grid_pair_survival(ends, rho, run, 1024, 10_000, seed=38)
    assert abs(exact - mean) < 4 * se
    if ends[0] == (0.1, 0.2) and rho == 0.5:
        # the one-step factorised weight (0.0119) is far outside that band
        factorised = (_bridge_noncrossing(np.array([a]), np.array([b]), run)
                      * _bridge_noncrossing(np.array([a_p]), np.array([b_p]), run))[0]
        assert exact == pytest.approx(0.0313, abs=1e-4)
        assert abs(factorised - mean) > 4 * se


def test_wedge_kernel_lies_in_unit_interval():
    # far, near-corner and wide-angle endpoints, at rho close to 1 too
    rng = derive_rng(39, 0)
    ends = np.concatenate([rng.exponential(1.0, (4, 20_000)),
                           rng.exponential(1e-3, (4, 2_000)),
                           rng.exponential(10.0, (4, 2_000))], axis=1)
    # W falls to its edge while W' leaves its own: wide-angle steps
    ends[:, :500] *= [[1.0], [1e-3], [1e-3], [1.0]]
    for rho in (0.1, 0.5, 0.9, 0.999):
        for run in (1e-3, 0.3, 1.0):
            q = _wedge_noncrossing(*ends, rho, run)
            assert np.all((q >= 0.0) & (q <= 1.0))


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("run", [1e-3, 0.3, 1.0])
def test_wedge_series_odd_terms_on_the_diagonal(monkeypatch, rho, run):
    # a batch that starts on w = w' sums odd terms only; one appended
    # off-diagonal sample forces every term on the same samples
    rng = derive_rng(40, 0)
    w, w_new, w_p_new = rng.exponential(math.sqrt(run), (3, 5_000))
    alpha = math.acos(-rho)
    orders = []
    monkeypatch.setattr(coupled, "ive", lambda nu, z: orders.append(nu) or ive(nu, z))
    diagonal = _wedge_noncrossing(w, w_new, w.copy(), w_p_new, rho, run)
    assert orders and all(round(nu * alpha / math.pi) % 2 == 1 for nu in orders)
    extra = math.sqrt(run) * np.array([0.5, 0.4, 0.3, 0.6])
    ends = [np.append(v, e) for v, e in zip((w, w_new, w.copy(), w_p_new), extra)]
    every = _wedge_noncrossing(*ends, rho, run)[:-1]
    # the terms exceed their sum by exp(gap), the step's angular energy,
    # and so does the rounding in either sum: 1e-12 where gap is 0
    c = math.sqrt(1.0 - rho**2)
    b2 = (w_p_new - rho * w_new) / c
    z = w * math.sqrt(2.0 / (1.0 + rho)) * np.hypot(w_new, b2) / run
    gap = z * (1.0 - np.cos(alpha / 2 - math.asin(rho) - np.arctan2(b2, w_new)))
    bound = 1e-12 * np.exp(np.minimum(gap, _SERIES_GAP))
    assert np.all(np.abs(diagonal - every) <= bound)


def test_m_lambda_does_not_depend_on_run_splitting():
    # a rho-run taken as one exact step or as four equal exact steps
    one = m_lambda_functional([(0.5, 0.75)], 0.5, 0.125, 100_000, seed=45)
    quarters = [(0.5 + k / 16, 0.5 + (k + 1) / 16) for k in range(4)]
    four = m_lambda_functional(quarters, 0.5, 0.125, 100_000, seed=46)
    assert abs(one.mean - four.mean) < 4 * math.hypot(one.stderr, four.stderr)


def test_discrete_bridge_identity():
    # the two-path survival correlation of the coupled walk equals the
    # spectral-noise functional of the survival table: the discrete
    # validation of the survival-correlation route
    n, start, rho = 12, 2, 0.5
    table = walk_survival_table(n, start)
    exact = noise_functional(walsh_transform(table), oracle_rho(FULL, rho, n))

    n_samples = 200_000
    eps, eps_p = coupled_walk(FULL, rho, n, derive_rng(36, 0), size=n_samples)
    bits = np.arange(n, dtype=np.uint32)
    mask = ((eps < 0).astype(np.uint32) << bits).sum(axis=1)
    mask_p = ((eps_p < 0).astype(np.uint32) << bits).sum(axis=1)
    vals = table.values[mask] * table.values[mask_p]
    se = vals.std() / math.sqrt(n_samples)
    assert abs(vals.mean() - exact) < 4 * se


def test_m_lambda_mass_conservation():
    est = m_lambda_functional([], 0.5, 0.25, 100_000, seed=41, n_steps=256)
    assert abs(est.mean - 1.0) < 4 * est.stderr + 1e-3


def test_m_lambda_independent_copies_oracle():
    # rho = 0 over the whole window: both survivals are independent given
    # the entrance height, so the value is the entrance integral of the
    # squared survival probability -- checked by quadrature
    t0 = 0.25
    est = m_lambda_functional([(t0, 1.0)], 0.0, t0, 100_000, seed=42, n_steps=512)

    def integrand(y):
        return (y * t0**-1.5 * math.exp(-y * y / (2 * t0))
                * erf(y / math.sqrt(2 * (1 - t0))) ** 2)

    truth, _ = integrate.quad(integrand, 0, np.inf)
    assert 0.0 < est.mean < 1.0
    assert abs(est.mean - truth) < 4 * est.stderr + 2e-3


def test_m_lambda_start_time_invariance():
    region = [(0.5, 0.75)]
    a = m_lambda_functional(region, 0.5, 1 / 32, 150_000, seed=43, n_steps=512)
    b = m_lambda_functional(region, 0.5, 1 / 8, 150_000, seed=44, n_steps=512)
    assert abs(a.mean - b.mean) < 4 * math.hypot(a.stderr, b.stderr)
    # entering at the region's first point, with no run-in, as the RHS does
    c = m_lambda_functional(region, 0.5, 0.5, 150_000, seed=47, n_steps=512)
    for d in (a, b):
        assert abs(c.mean - d.mean) < 4 * math.hypot(c.stderr, d.stderr)


def test_m_lambda_replicate_stderr_is_calibrated_and_beats_plain_mc():
    # the one-component factor as the RHS takes it (heights enter at the
    # region), at 400 points in 16 replicates, over 200 seeds
    region, rho, t0, n = [(0.5, 0.75)], 0.5, 0.5, 400
    ests = [m_lambda_functional(region, rho, t0, n, seed=s) for s in range(200)]
    assert all(est.n_samples == n and est.extra == {"replicates": 16} for est in ests)
    means = np.array([est.mean for est in ests])
    empirical = means.var(ddof=1)
    reported = np.mean([est.stderr**2 for est in ests])
    assert 0.75 <= reported / empirical <= 1.33
    # plain Monte Carlo on the same kernel: fresh heights and normals
    rng = derive_rng(53, 0)
    y = _heights_at(t0, rng.random(100_000))
    plain = t0**-0.5 * _joint_survival(y, region, rho, t0, rng.standard_normal((2, y.size)))
    assert abs(means.mean() - plain.mean()) < 4 * math.sqrt(empirical / 200 + plain.var() / y.size)
    assert math.sqrt(empirical) <= 0.5 * plain.std(ddof=1) / math.sqrt(n)


def test_m_lambda_at_small_sample_counts():
    # fewer points than replicates: one point each; 17 leaves one replicate with two
    for n, replicates in ((2, 2), (17, 16)):
        est = m_lambda_functional([(0.5, 0.75)], 0.5, 0.5, n, seed=48)
        assert est.n_samples == n and est.extra == {"replicates": replicates}
        assert 0.0 < est.mean < 2.0 and est.stderr > 0.0


@pytest.mark.slow
def test_m_lambda_memory_at_a_million_points():
    # the batches keep every array O(_SURVIVAL_BATCH * coordinates): the
    # plain Monte Carlo estimator this replaced peaked at 9.6 MiB here
    m_lambda_functional([(0.5, 0.75)], 0.5, 1 / 32, 100, seed=49)  # caches warm
    tracemalloc.start()
    try:
        est = m_lambda_functional([(0.5, 0.75)], 0.5, 1 / 32, 1_000_000, seed=49)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_samples == 1_000_000 and est.stderr > 0.0
    assert peak <= 1.5 * 9.6 * 2**20


def test_argmin_coincidence_uses_no_quasi_monte_carlo(monkeypatch):
    # the direct route draws its own streams: no point set, no ndtri
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route called quasi-Monte Carlo code")

    for name in ("ScrambledHalton", "ndtri"):
        monkeypatch.setattr(coupled, name, forbidden)
    est = argmin_coincidence(TimeSet.parse("1/4..1/2,5/8..3/4"), 0.5, 256, 200, seed=5,
                             top_walks=floor_only)
    assert 0.0 <= est.mean <= 1.0


def test_m_lambda_preconditions():
    with pytest.raises(PreconditionError):
        m_lambda_functional([(0.1, 0.5)], 0.5, 0.25, 100, seed=0)
    with pytest.raises(DomainError):
        m_lambda_functional([(0.5, 0.75)], 0.5, 0.0, 100, seed=0)
    # a bad start time is named as such, not as a region outside [t0, 1]
    with pytest.raises(DomainError, match="start time 2.0"):
        m_lambda_functional([(0.5, 0.75)], 0.5, 2.0, 100, seed=0)
    with pytest.raises(PreconditionError):
        m_lambda_functional([(0.5, 0.75), (0.6, 0.8)], 0.5, 0.25, 100, seed=0)
    with pytest.raises(PreconditionError):
        m_lambda_functional([(0.5, 1.5)], 0.5, 0.25, 100, seed=0)
    # a component of zero length would be a wedge step over no time
    with pytest.raises(PreconditionError):
        m_lambda_functional([(0.5, 0.5)], 0.5, 0.25, 100, seed=1)
    for rho in (-0.1, 1.1):
        with pytest.raises(DomainError):
            m_lambda_functional([(0.5, 0.75)], rho, 0.25, 100, seed=0)
    # the walk has no grid, but a grid size is still checked
    with pytest.raises(DomainError):
        m_lambda_functional([(0.5, 0.75)], 0.5, 0.25, 100, seed=0, n_steps=0)
    with pytest.raises(ResourceLimitError):
        m_lambda_functional([(0.5, 0.75)], 0.5, 0.25, 100, seed=0, n_steps=STEP_CAP + 1)
    # one sample has no stderr, so no 4-sigma check could use it
    for n_samples in (-1, 0, 1):
        with pytest.raises(DomainError):
            m_lambda_functional([(0.5, 0.75)], 0.5, 0.25, n_samples, seed=0, n_steps=8)
