"""Acceptance gate: each criterion prints one PASS/FAIL line (run with -s)."""

import json
import math
import time

import numpy as np
import pytest

from splitnoise.cli import main as cli_main
from splitnoise.coupled import (
    _exact_survival_probability,
    _heights_at,
    discrete_phi,
    m_lambda_functional,
)
from splitnoise.sampling import derive_rng
from splitnoise.tanaka import (
    all_increment_patterns,
    identities_hold,
    parity_signs,
    positions,
    x_to_z_increments,
    z_to_x_increments,
)
from splitnoise.theorem import rhs_integral, verify_theorem
from splitnoise.timesets import TimeSet
from splitnoise.walsh import (
    FunctionTable,
    exact_correlation,
    noise_functional,
    sgn_functional_table,
    sign_correlation_exact,
    walsh_transform,
)

FULL = TimeSet.full()
EMPTY = TimeSet.empty()


def _report(k: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k} failed: {detail}"


def test_criterion_1_discrete_identity_suite():
    start = time.monotonic()
    dx = all_increment_patterns(12)
    identities = bool(identities_hold(dx).all())
    dz = x_to_z_increments(dx)
    roundtrip = np.array_equal(z_to_x_increments(dz), dx) and np.array_equal(
        x_to_z_increments(z_to_x_increments(dx)), dx
    )
    elapsed = time.monotonic() - start
    ok = identities and roundtrip and elapsed < 10.0
    _report(1, ok, f"all 4096 length-12 paths: identities={identities}, "
                   f"round-trip exact={roundtrip}, {elapsed:.2f}s < 10s")


def test_criterion_2_parity_rule():
    dz = all_increment_patterns(14)
    z_pos = positions(dz)
    x_pos = positions(z_to_x_increments(dz))
    failures = 0
    for n in range(15):
        got = parity_signs(z_pos[:, : n + 1])
        failures += int((got != np.where(x_pos[:, n] >= 0, 1, -1)).sum())
    _report(2, failures == 0, f"2^14 paths, all n <= 14: {failures} failures")


def test_criterion_3_spectral_oracle_identity():
    rng = derive_rng(303, 0)
    worst_gap = 0.0
    worst_parseval = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 13))
        table = FunctionTable(n, rng.standard_normal(1 << n))
        rho = rng.uniform(-1.0, 1.0, size=n)
        coefficients = walsh_transform(table)
        worst_gap = max(worst_gap, abs(
            noise_functional(coefficients, rho) - exact_correlation(table, rho)))
        worst_parseval = max(worst_parseval, abs(
            np.sum(coefficients**2) - np.mean(table.values**2)))
    for n in range(1, 21):
        table = sgn_functional_table(n)
        rho = rng.uniform(0.0, 1.0, size=n)
        coefficients = walsh_transform(table)
        worst_gap = max(worst_gap, abs(
            noise_functional(coefficients, rho) - exact_correlation(table, rho)))
        worst_parseval = max(worst_parseval, abs(np.sum(coefficients**2) - 1.0))
    ok = worst_gap < 1e-10 and worst_parseval < 1e-12
    _report(3, ok, f"100 random tables (n<=12) + sign tables (n<=20): "
                   f"max |spectral-averaging| gap {worst_gap:.2e} < 1e-10, "
                   f"max Parseval defect {worst_parseval:.2e} < 1e-12")


def test_criterion_4_noise_sensitivity():
    start = time.monotonic()
    vals = {n: sign_correlation_exact(np.full(n, 0.5)) for n in range(6, 21)}
    # strict decay within each parity class (sgn(0)=+1 lifts even lengths
    # above odd neighbours, so consecutive lengths interleave)
    even_ok = all(vals[n + 2] < vals[n] for n in range(6, 19, 2))
    odd_ok = all(vals[n + 2] < vals[n] for n in range(7, 18, 2))
    endpoint_ok = vals[20] < vals[6]
    est = discrete_phi(FULL, 0.5, 1 << 14, 100_000, seed=404)
    mc_ok = abs(est.mean) < 0.05
    elapsed = time.monotonic() - start
    ok = even_ok and odd_ok and endpoint_ok and mc_ok and elapsed < 120.0
    _report(4, ok, f"exact decay n=6..20 (per parity, endpoints {vals[6]:.4f} -> "
                   f"{vals[20]:.4f}); MC at n=2^14: {est.mean:+.4f} "
                   f"(|.| < 0.05), {elapsed:.0f}s < 120s")


def test_criterion_5_entrance_law_mass():
    details = []
    ok = True
    for t, seed in ((1 / 16, 505), (1 / 4, 506)):
        y = _heights_at(t, derive_rng(seed, 0).random(1_000_000))
        vals = t**-0.5 * _exact_survival_probability(y, 1.0 - t)
        mean = float(vals.mean())
        ok &= abs(mean - 1.0) <= 0.01
        details.append(f"t={t}: {mean:.4f}")
    _report(5, ok, "weighted survival expectation (1e6 samples) " +
            ", ".join(details) + " within 1.00 +- 0.01")


@pytest.mark.slow
def test_criterion_6_lemma_consequence():
    region = [(0.5, 0.75)]
    a = m_lambda_functional(region, 0.5, 1 / 32, 1_000_000, seed=606, n_steps=1024)
    b = m_lambda_functional(region, 0.5, 1 / 8, 1_000_000, seed=607, n_steps=1024)
    gap = abs(a.mean - b.mean)
    tol = 4.0 * math.hypot(a.stderr, b.stderr)
    _report(6, gap <= tol,
            f"restriction consistency at t0=1/32 vs 1/8 (1e6 samples): "
            f"{a.mean:.4f} vs {b.mean:.4f}, |diff| {gap:.4f} <= 4 sigma {tol:.4f}")


# first cross-validated high-precision run (frozen): the two routes agreed
# within combined error at 50k-100k samples per estimate
_REGRESSION = {
    ("1/4..1/2", 0.3): 0.589,
    ("1/4..1/2", 0.5): 0.627,
    ("1/4..1/2", 0.7): 0.677,
    ("1/4..1/2,5/8..3/4", 0.5): 0.486,
}


@pytest.mark.slow
def test_criterion_7_main_theorem_desk_scale():
    start = time.monotonic()
    suite = [("1/4..1/2", 0.3, 707), ("1/4..1/2", 0.7, 708),
             ("1/4..1/2,5/8..3/4", 0.5, 709)]
    all_ok = True
    lines = []
    for text, rho, seed in suite:
        report = verify_theorem(
            TimeSet.parse(text), rho, seed=seed,
            lhs_n_grid=1 << 13, lhs_samples=20_000,
            n_nodes=24, node_samples=20_000,
            check_stability=True,
        )
        case_ok = (report.passed and report.stability_ok
                   and report.combined_stderr <= 0.01
                   and abs(report.lhs.mean - _REGRESSION[(text, rho)]) < 0.02)
        # every side has one or two components, so every factor is exact:
        # the RHS band is the node rule's error, reported next to it.  A
        # single interval has two sides per node, one of them empty; the
        # split region four on its middle gap's nodes and two, one empty,
        # on each outer gap's
        rhs = report.as_dict()["rhs"]
        exact = 2 * (24 + 12) if "," not in text else 4 * (24 + 12)
        case_ok &= (rhs["exact_factors"] == exact and "replicates" not in rhs
                    and rhs["stderr"] == rhs["quadrature_error"] > 0.0)
        all_ok &= case_ok
        lines.append(
            f"A={text} rho={rho}: lhs {report.lhs.mean:.4f} rhs {report.rhs.mean:.4f} "
            f"|d|={abs(report.discrepancy):.4f} <= {4 * report.combined_stderr:.4f}, "
            f"stability={report.stability_ok}")
    elapsed = time.monotonic() - start
    all_ok &= elapsed < 1800.0
    _report(7, all_ok, "; ".join(lines) + f"; total {elapsed:.0f}s < 30min")


def test_criterion_8_boundary_cases():
    report = verify_theorem(EMPTY, 0.5, seed=808, lhs_n_grid=256,
                            lhs_samples=1000, n_nodes=4, node_samples=100)
    empty_ok = report.lhs.mean == 1.0 and report.rhs.mean == 1.0 and report.passed
    full = rhs_integral(FULL, 0.5, 8, 100, seed=809)
    full_ok = full.mean == 0.0 and full.stderr == 0.0
    _report(8, empty_ok and full_ok,
            f"empty region: lhs={report.lhs.mean}, rhs={report.rhs.mean}; "
            f"full region: rhs={full.mean} exactly")


def test_criterion_9_cli_reproducibility(tmp_path):
    runs = [
        ["mc-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "512",
         "--samples", "2000", "--seed", "9"],
        ["discrete-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n", "64",
         "--samples", "2000", "--seed", "9"],
        ["walsh-spectrum", "--n", "6", "--top", "10"],
        ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "512",
         "--samples", "1000", "--nodes", "4", "--node-samples", "1000",
         "--node-steps", "128", "--seed", "9"],
        ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
         "--t0", "1/32,1/8", "--samples", "5000", "--seed", "9"],
        ["sensitivity-curve", "--rho", "0.5", "--n-list", "8,16",
         "--samples", "2000", "--seed", "9"],
    ]
    identical = True
    for i, argv in enumerate(runs):
        out1 = tmp_path / f"run{i}_a.out"
        out2 = tmp_path / f"run{i}_b.out"
        cli_main(argv + ["--out", str(out1)])
        cli_main(argv + ["--out", str(out2)])
        identical &= out1.read_bytes() == out2.read_bytes()
    _report(9, identical, f"{len(runs)} CLI commands repeated with the same "
                          "seed: payloads byte-identical")
