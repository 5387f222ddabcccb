import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

from splitnoise.coupled import (
    _coupled_normals,
    _coupled_signs,
    _joint_survival,
    argmin_coincidence,
    discrete_phi,
    entrance_heights,
    entrance_mass,
    exact_survival_probability,
    m_lambda_functional,
    make_pattern,
)
from splitnoise.errors import DomainError, PreconditionError, ResourceLimitError
from splitnoise.sampling import derive_rng
from splitnoise.timesets import TimeSet
from splitnoise.walsh import (
    noise_functional,
    walk_survival_table,
    walsh_transform,
)

FULL = TimeSet.full()
EMPTY = TimeSet.empty()
QUARTER_HALF = TimeSet.parse("1/4..1/2")


def test_make_pattern_examples():
    assert np.all(make_pattern(FULL, 0.3, 16) == 0.3)
    assert np.all(make_pattern(EMPTY, 0.3, 16) == 1.0)
    pat = make_pattern(QUARTER_HALF, 0.3, 8)
    assert np.array_equal(pat, [1, 1, 0.3, 0.3, 0.3, 1, 1, 1])
    with pytest.raises(DomainError):
        make_pattern(FULL, 1.0, 8)
    with pytest.raises(DomainError):
        make_pattern(FULL, -0.1, 8)


def test_make_pattern_on_interval():
    pat = make_pattern([(0.5, 0.75)], 0.4, 6, t_start=0.25)
    # grid left endpoints 0.25,0.375,0.5,0.625,0.75,0.875
    assert np.array_equal(pat, [1, 1, 0.4, 0.4, 0.4, 1])
    # a survival window after 0 admits rho = 1 (one path); [0,1] does not
    assert np.all(make_pattern([(0.5, 0.75)], 1.0, 6, t_start=0.25) == 1.0)
    with pytest.raises(DomainError):
        make_pattern([], 0.4, 6, t_start=1.0)


def coupled_walk(pattern, rng, size):
    """Coupled sign pair from the estimator's kernel, one uniform per step."""
    u = rng.random((size, pattern.size), dtype=np.float32)
    return _coupled_signs(u, pattern)


def coupled_bm(pattern, rng, size):
    """Coupled Brownian increments on [0,1] from the estimators' kernel."""
    return _coupled_normals(pattern, math.sqrt(1.0 / pattern.size), rng,
                            (size, pattern.size))


def test_coupled_walk_marginals_and_coupling():
    rng = derive_rng(3, 0)
    pat = make_pattern(EMPTY, 0.5, 8)
    eps, eps_p = coupled_walk(pat, rng, size=2000)
    assert np.array_equal(eps, eps_p)

    n = 100_000
    pat = make_pattern(FULL, 0.5, 4)
    eps, eps_p = coupled_walk(pat, derive_rng(4, 0), size=n)
    corr = (eps * eps_p).mean(axis=0)
    assert np.all(np.abs(corr - 0.5) < 3 / math.sqrt(n))
    assert np.all(np.abs(eps_p.mean(axis=0)) < 4 / math.sqrt(n))

    pat0 = make_pattern(FULL, 0.0, 4)
    eps, eps_p = coupled_walk(pat0, derive_rng(5, 0), size=n)
    assert np.all(np.abs((eps * eps_p).mean(axis=0)) < 3 / math.sqrt(n))


def test_coupled_bm_identical_when_unperturbed():
    db, db_p = coupled_bm(make_pattern(EMPTY, 0.5, 64), derive_rng(6, 0), size=100)
    assert np.array_equal(np.cumsum(db, axis=1), np.cumsum(db_p, axis=1))


def test_coupled_bm_pattern_one_steps_match_bitwise():
    pat = make_pattern(QUARTER_HALF, 0.5, 32)
    db, db_p = coupled_bm(pat, derive_rng(7, 0), size=500)
    ones = pat == 1.0
    assert np.array_equal(db[:, ones], db_p[:, ones])
    assert not np.array_equal(db[:, ~ones], db_p[:, ~ones])
    # a scalar rho, as in the survival step loop, mixes the whole step
    db, db_p = _coupled_normals(np.float64(0.5), 0.25, derive_rng(7, 1), (500,))
    assert not np.any(db == db_p)


def test_coupled_bm_terminal_moments():
    # var(B_1) = 1; cov(B_1, B'_1) = |A^c| + rho |A| = 7/8 for A=[1/4,1/2], rho=1/2
    n = 100_000
    db, db_p = coupled_bm(make_pattern(QUARTER_HALF, 0.5, 64), derive_rng(8, 0), size=n)
    b1, b1p = db.sum(axis=1), db_p.sum(axis=1)
    se = 3 / math.sqrt(n)
    assert abs(b1.var() - 1.0) < 3 * se
    assert abs(b1p.var() - 1.0) < 3 * se
    assert abs((b1 * b1p).mean() - 7 / 8) < 3 * se


def test_coupled_bm_increment_variance_one_percent():
    pat = make_pattern(FULL, 0.5, 16)
    for inc in coupled_bm(pat, derive_rng(9, 0), size=100_000):
        assert abs(inc.var() * pat.size - 1.0) < 0.01


def test_discrete_phi_unperturbed_is_exactly_one():
    est = discrete_phi(EMPTY, 0.5, 64, 1000, seed=1)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_discrete_phi_matches_walsh_oracle():
    from splitnoise.walsh import sign_correlation_exact

    for region, rho, seed in [(FULL, 0.5, 21), (QUARTER_HALF, 0.3, 22)]:
        n = 16
        exact = sign_correlation_exact(make_pattern(region, rho, n))
        est = discrete_phi(region, rho, n, 200_000, seed=seed)
        assert abs(est.mean - exact) < 4 * est.stderr


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


def test_estimators_are_deterministic():
    a = discrete_phi(QUARTER_HALF, 0.5, 32, 5000, seed=77)
    b = discrete_phi(QUARTER_HALF, 0.5, 32, 5000, seed=77)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    a = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78)
    b = argmin_coincidence(QUARTER_HALF, 0.5, 128, 2000, seed=78)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)
    a = m_lambda_functional([(0.5, 0.75)], 0.5, 0.125, 4000, seed=79, n_steps=128)
    b = m_lambda_functional([(0.5, 0.75)], 0.5, 0.125, 4000, seed=79, n_steps=128)
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_entrance_sampler():
    rng = derive_rng(12, 0)
    assert entrance_heights(0.25, rng) > 0
    assert entrance_mass(0.25) == 2.0
    with pytest.raises(DomainError):
        entrance_heights(0.0, rng)
    with pytest.raises(DomainError):
        entrance_heights(1.0, rng)

    # weighted unit expectation is the entrance mass t**-1/2
    y = entrance_heights(1 / 16, rng, 100_000)
    assert np.all(y > 0)
    # Rayleigh moments: E[y] = sqrt(pi t / 2), E[y^2] = 2t
    t = 1 / 16
    assert y.mean() == pytest.approx(math.sqrt(math.pi * t / 2), rel=0.01)
    assert (y**2).mean() == pytest.approx(2 * t, rel=0.02)


def test_entrance_mass_conservation_closed_form():
    # weight times exact survival probability integrates to one
    for t, seed in ((1 / 16, 13), (1 / 4, 14)):
        rng = derive_rng(seed, 0)
        y = entrance_heights(t, rng, 400_000)
        vals = entrance_mass(t) * exact_survival_probability(y, 1.0 - t)
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) < 4 * se + 1e-3


def fixed_height_survival(y, pattern, dt, n_samples, seed):
    """Mean and stderr of the two-path survival weight from a fixed height."""
    vals = _joint_survival(np.full(n_samples, float(y)), pattern, dt, derive_rng(seed, 0))
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n_samples)


def test_survival_corr_matches_reflection():
    pat = make_pattern([], 0.5, 128, t_start=0.25)
    dt = 0.75 / 128
    for y in (0.3, 0.8, 1.5):
        mean, se = fixed_height_survival(y, pat, dt, 100_000, seed=31)
        truth = exact_survival_probability(y, 0.75)
        assert abs(mean - truth) < 4 * se + 1e-4
    mean, _ = fixed_height_survival(100.0, pat, dt, 1000, seed=32)
    assert mean == pytest.approx(1.0, abs=1e-12)


def test_survival_corr_monotone_in_height():
    pat = make_pattern([(0.5, 1.0)], 0.5, 128, t_start=0.25)
    vals = [fixed_height_survival(y, pat, 0.75 / 128, 50_000, seed=34)[0]
            for y in (0.2, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_discrete_bridge_identity():
    # the two-path survival correlation of the coupled walk equals the
    # spectral-noise functional of the survival table: the discrete
    # validation of the survival-correlation route
    n, start, rho = 12, 2, 0.5
    table = walk_survival_table(n, start)
    pat = make_pattern(FULL, rho, n)
    exact = noise_functional(walsh_transform(table), pat)

    n_samples = 200_000
    eps, eps_p = coupled_walk(pat, derive_rng(36, 0), size=n_samples)
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


def test_m_lambda_preconditions():
    with pytest.raises(PreconditionError):
        m_lambda_functional([(0.1, 0.5)], 0.5, 0.25, 100, seed=0)
    with pytest.raises(DomainError):
        m_lambda_functional([(0.5, 0.75)], 0.5, 0.0, 100, seed=0)
    # one sample has no stderr, so no 4-sigma check could use it
    for n_samples in (-1, 0, 1):
        with pytest.raises(DomainError):
            m_lambda_functional([(0.5, 0.75)], 0.5, 0.25, n_samples, seed=0, n_steps=8)
