import numpy as np
import pytest

from splitnoise.errors import DomainError, PreconditionError, ResourceLimitError
from splitnoise.tanaka import all_increment_patterns, positions, z_to_x_increments
from splitnoise.walsh import (
    TABLE_CAP,
    FunctionTable,
    _fwht,
    _noise_operator,
    _subset_weights,
    exact_correlation,
    noise_functional,
    sgn_functional_table,
    sign_correlation_exact,
    spectral_measure,
    walsh_transform,
)
from walk_tables import walk_survival_table


def brute_force_coefficients(values: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    # independent O(4^n) oracle: coeff(T) = mean over patterns of f(eps) * prod_{k in T} eps_k,
    # the product being -1 to the number of bits T shares with the pattern's index;
    # values may hold one table per column
    shared = np.bitwise_and.outer(subsets.astype(np.int32),
                                  np.arange(len(values), dtype=np.int32))
    for shift in (16, 8, 4, 2, 1):  # xor-fold the shared bits down to their parity
        shared ^= shared >> shift
    return (1.0 - 2.0 * (shared & 1)) @ values / len(values)


def test_sgn_table_small():
    assert np.array_equal(sgn_functional_table(1).values, [1.0, -1.0])
    # index order ++, -+, +-, --
    assert np.array_equal(sgn_functional_table(2).values, [1.0, -1.0, 1.0, 1.0])
    t = sgn_functional_table(7)
    assert set(np.unique(t.values)) == {-1.0, 1.0}


def test_sgn_table_matches_walk_reconstruction():
    for n in range(1, 15):
        x_end = positions(z_to_x_increments(all_increment_patterns(n)))[:, -1]
        assert np.array_equal(sgn_functional_table(n).values, np.where(x_end >= 0, 1.0, -1.0))


def test_table_cap():
    with pytest.raises(ResourceLimitError):
        sgn_functional_table(25)
    with pytest.raises(DomainError):
        FunctionTable(2, np.ones(3))


def test_walsh_constant_table():
    c = walsh_transform(FunctionTable(3, np.ones(8)))
    assert c.dtype == np.float64
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_walsh_n2_sign_coefficients():
    c = walsh_transform(sgn_functional_table(2))
    assert np.array_equal(c, [0.5, 0.5, -0.5, 0.5])


def test_walsh_matches_brute_force():
    # every n up to 13 covers each remainder of n modulo the transform's
    # four bits per pass; integer tables have integer partial sums, so
    # they must match exactly
    rng = np.random.default_rng(5)
    for n in range(1, 14):
        sign = sgn_functional_table(n).values
        survival = walk_survival_table(n, 2).values
        noise = rng.standard_normal(1 << n)
        tables = np.stack([sign, survival, noise], axis=1)
        fast = np.stack([_fwht(t) for t in tables.T], axis=1) / (1 << n)
        for start in range(0, 1 << n, 1024):
            subsets = np.arange(start, min(start + 1024, 1 << n))
            brute = brute_force_coefficients(tables, subsets)
            assert np.array_equal(fast[subsets, :2], brute[:, :2]), n
            assert np.max(np.abs(fast[subsets, 2] - brute[:, 2])) <= 1e-12, n


def test_walsh_roundtrip_and_parseval():
    rng = np.random.default_rng(17)
    for n in (2, 5, 9):
        table = FunctionTable(n, rng.standard_normal(1 << n))
        coefficients = walsh_transform(table)
        # synthesis is the unnormalized transform of the coefficients
        back = _fwht(coefficients)
        assert np.allclose(back, table.values, atol=1e-12)
        assert np.sum(coefficients**2) == pytest.approx(
            np.mean(table.values**2), abs=1e-12)


def test_spectral_measure():
    assert np.array_equal(spectral_measure(walsh_transform(sgn_functional_table(1))), [0.0, 1.0])
    m = spectral_measure(walsh_transform(sgn_functional_table(2)))
    assert np.array_equal(m, [0.25, 0.25, 0.25, 0.25])
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        spectral_measure(np.array([1.0, 1.0]))


def test_empty_mass_equals_direct_mean():
    for n in (3, 8, 13):
        table = sgn_functional_table(n)
        assert walsh_transform(table)[0] == pytest.approx(
            table.values.mean(), abs=1e-12
        )


def test_subset_weights():
    w = _subset_weights([0.5, 0.25])
    assert np.array_equal(w, [1.0, 0.5, 0.25, 0.125])


def test_noise_functional_examples():
    c = walsh_transform(sgn_functional_table(2))
    assert noise_functional(c, np.ones(2)) == pytest.approx(1.0, abs=1e-12)
    assert noise_functional(c, np.zeros(2)) == pytest.approx(c[0] ** 2, abs=1e-12)
    assert noise_functional(c, np.array([0.5, 0.5])) == pytest.approx(9 / 16, abs=1e-12)
    with pytest.raises(DomainError):
        noise_functional(c, np.array([0.5]))
    with pytest.raises(DomainError):
        noise_functional(c, np.array([1.5, 0.0]))


def test_noise_functional_checks_a_plain_array():
    # the coefficient array carries no n of its own: rho fixes it, and
    # every mismatch is a DomainError before numpy broadcasting sees it
    c = np.full(8, 2.0**-1.5)
    rho = np.full(3, 0.5)
    assert noise_functional(c, rho) == pytest.approx(27 / 64, abs=1e-12)
    for bad in (c[:4], c[:7], np.append(c, 0.0), c.reshape(2, 4)):
        with pytest.raises(DomainError, match="coefficient array has wrong length"):
            noise_functional(bad, rho)
    for bad_rho in (rho[:2], np.full(4, 0.5), np.full((3, 1), 0.5), 0.5, []):
        with pytest.raises(DomainError):
            noise_functional(c, bad_rho)
    for bad in (1.5, -1.0000001, np.nan):
        with pytest.raises(DomainError):
            noise_functional(c, np.array([0.5, bad, 0.5]))
    with pytest.raises(ResourceLimitError):
        noise_functional(np.ones(4), np.full(TABLE_CAP + 1, 0.5))


def test_exact_correlation_edge_cases():
    table = sgn_functional_table(5)
    assert exact_correlation(table, np.ones(5)) == pytest.approx(1.0, abs=1e-12)
    mean = table.values.mean()
    assert exact_correlation(table, np.zeros(5)) == pytest.approx(mean**2, abs=1e-12)


def test_every_route_rejects_correlations_outside_unit_interval():
    table = sgn_functional_table(4)
    coefficients = walsh_transform(table)
    for bad in (1.5, -1.5, np.nan):
        rho = np.array([bad, 0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            exact_correlation(table, rho)
        with pytest.raises(DomainError):
            noise_functional(coefficients, rho)
        with pytest.raises(DomainError):
            sign_correlation_exact(rho)


def test_noise_functional_equals_exact_correlation():
    # the central oracle identity: spectrum route vs averaging route
    rng = np.random.default_rng(23)
    for trial in range(40):
        n = int(rng.integers(1, 11))
        table = FunctionTable(n, rng.standard_normal(1 << n))
        rho = rng.uniform(-1, 1, size=n)
        via_spectrum = noise_functional(walsh_transform(table), rho)
        via_average = exact_correlation(table, rho)
        assert via_spectrum == pytest.approx(via_average, abs=1e-10)


def test_noise_operator_is_smoothing():
    table = FunctionTable(4, np.random.default_rng(3).standard_normal(16))
    smoothed = _noise_operator(table, np.full(4, 0.5))
    assert np.mean(smoothed**2) <= np.mean(table.values**2)
    assert smoothed.mean() == pytest.approx(table.values.mean(), abs=1e-12)


def test_sign_correlation_exact_values():
    assert sign_correlation_exact(np.array([0.5])) == pytest.approx(0.5, abs=1e-12)
    assert sign_correlation_exact(np.full(2, 0.5)) == pytest.approx(9 / 16, abs=1e-12)


def test_full_interval_decay_within_parity():
    # even and odd walk lengths each decay strictly; the sgn(0)=+1
    # asymmetry lifts even lengths above their odd neighbours
    vals = {n: sign_correlation_exact(np.full(n, 0.5)) for n in range(6, 21)}
    for n in range(6, 19):
        assert vals[n + 2] < vals[n], f"no decay from n={n} to n={n+2}"
    assert vals[20] < vals[6]


def test_walk_survival_table():
    t = walk_survival_table(3, 2)
    # dies only if both first steps go down
    expect = np.ones(8)
    expect[3] = 0.0  # steps -,-,+
    expect[7] = 0.0  # steps -,-,-
    assert np.array_equal(t.values, expect)
    with pytest.raises(DomainError):
        walk_survival_table(3, 0)


def test_survival_table_oracle_identity():
    table = walk_survival_table(12, 2)
    rho = np.full(12, 0.6)
    assert noise_functional(walsh_transform(table), rho) == pytest.approx(
        exact_correlation(table, rho), abs=1e-12
    )
