import numpy as np
import pytest

from splitnoise.errors import DomainError, PreconditionError, ResourceLimitError
from splitnoise.tanaka import all_increment_patterns, positions, z_to_x_increments
from splitnoise.walsh import (
    ChaosSpectrum,
    FunctionTable,
    _fwht,
    _noise_operator,
    _subset_weights,
    _walk_survival_table,
    exact_correlation,
    noise_functional,
    sgn_functional_table,
    sign_correlation_exact,
    spectral_measure,
    walsh_transform,
)


def brute_force_coefficient(values: np.ndarray, subset: int) -> float:
    # independent O(4^n) oracle: sum over patterns of f(eps) * prod eps_k
    n = int(np.log2(values.size))
    total = 0.0
    for idx in range(values.size):
        chi = (-1) ** bin(subset & idx).count("1")
        total += values[idx] * chi
    return total / values.size


def test_sgn_table_small():
    assert np.array_equal(sgn_functional_table(1).values, [1.0, -1.0])
    # index order ++, -+, +-, --
    assert np.array_equal(sgn_functional_table(2).values, [1.0, -1.0, 1.0, 1.0])
    t = sgn_functional_table(7)
    assert set(np.unique(t.values)) == {-1.0, 1.0}


def test_sgn_table_matches_walk_reconstruction():
    n = 10
    x_end = positions(z_to_x_increments(all_increment_patterns(n)))[:, -1]
    assert np.array_equal(sgn_functional_table(n).values, np.where(x_end >= 0, 1.0, -1.0))


def test_table_cap():
    with pytest.raises(ResourceLimitError):
        sgn_functional_table(25)
    with pytest.raises(DomainError):
        FunctionTable(2, np.ones(3))


def test_walsh_constant_table():
    s = walsh_transform(FunctionTable(3, np.ones(8)))
    assert s.coefficients[0] == 1.0
    assert np.all(s.coefficients[1:] == 0.0)


def test_walsh_n2_sign_coefficients():
    s = walsh_transform(sgn_functional_table(2))
    assert np.array_equal(s.coefficients, [0.5, 0.5, -0.5, 0.5])


def test_walsh_matches_brute_force():
    rng = np.random.default_rng(5)
    for n in (1, 3, 6):
        table = FunctionTable(n, rng.standard_normal(1 << n))
        s = walsh_transform(table)
        for subset in range(1 << n):
            assert s.coefficients[subset] == pytest.approx(
                brute_force_coefficient(table.values, subset), abs=1e-12
            )


def test_walsh_roundtrip_and_parseval():
    rng = np.random.default_rng(17)
    for n in (2, 5, 9):
        table = FunctionTable(n, rng.standard_normal(1 << n))
        spectrum = walsh_transform(table)
        # synthesis is the unnormalized transform of the coefficients
        back = _fwht(spectrum.coefficients)
        assert np.allclose(back, table.values, atol=1e-12)
        assert np.sum(spectrum.coefficients**2) == pytest.approx(
            np.mean(table.values**2), abs=1e-12)


def test_spectral_measure():
    assert np.array_equal(spectral_measure(walsh_transform(sgn_functional_table(1))), [0.0, 1.0])
    m = spectral_measure(walsh_transform(sgn_functional_table(2)))
    assert np.array_equal(m, [0.25, 0.25, 0.25, 0.25])
    assert m.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        spectral_measure(ChaosSpectrum(1, np.array([1.0, 1.0])))


def test_empty_mass_equals_direct_mean():
    for n in (3, 8, 13):
        table = sgn_functional_table(n)
        assert walsh_transform(table).coefficients[0] == pytest.approx(
            table.values.mean(), abs=1e-12
        )


def test_subset_weights():
    w = _subset_weights([0.5, 0.25])
    assert np.array_equal(w, [1.0, 0.5, 0.25, 0.125])


def test_noise_functional_examples():
    s = walsh_transform(sgn_functional_table(2))
    assert noise_functional(s, np.ones(2)) == pytest.approx(1.0, abs=1e-12)
    assert noise_functional(s, np.zeros(2)) == pytest.approx(s.coefficients[0] ** 2, abs=1e-12)
    assert noise_functional(s, np.array([0.5, 0.5])) == pytest.approx(9 / 16, abs=1e-12)
    with pytest.raises(DomainError):
        noise_functional(s, np.array([0.5]))
    with pytest.raises(DomainError):
        noise_functional(s, np.array([1.5, 0.0]))


def test_exact_correlation_edge_cases():
    table = sgn_functional_table(5)
    assert exact_correlation(table, np.ones(5)) == pytest.approx(1.0, abs=1e-12)
    mean = table.values.mean()
    assert exact_correlation(table, np.zeros(5)) == pytest.approx(mean**2, abs=1e-12)


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
    assert np.mean(smoothed.values**2) <= np.mean(table.values**2)
    assert smoothed.values.mean() == pytest.approx(table.values.mean(), abs=1e-12)


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
    t = _walk_survival_table(3, 2)
    # dies only if both first steps go down
    expect = np.ones(8)
    expect[3] = 0.0  # steps -,-,+
    expect[7] = 0.0  # steps -,-,-
    assert np.array_equal(t.values, expect)
    with pytest.raises(DomainError):
        _walk_survival_table(3, 0)


def test_survival_table_oracle_identity():
    table = _walk_survival_table(12, 2)
    rho = np.full(12, 0.6)
    assert noise_functional(walsh_transform(table), rho) == pytest.approx(
        exact_correlation(table, rho), abs=1e-12
    )
