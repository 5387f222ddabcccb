"""The benchmark workloads: their inputs, the package calls, the output checks.

Each workload is one closed-loop caller: `run(name, seed, size, checks)`
makes one pass that ends in checked verdicts and returns its headline
standard error, the estimates it produced and a fingerprint of every
output (identical inputs must give an identical fingerprint).  The
package is driven only through `splitnoise.cli.main`, in-process, and
through its public library functions for the exact oracles.

Functions are looked up on their modules at call time (`walsh.x`, not a
local `x`), so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from splitnoise import cli, coupled, sampling, tanaka, walsh
from splitnoise.timesets import TimeSet

# the direct-route values frozen by the acceptance suite (tests/test_acceptance.py)
REFERENCE_LHS = {("1/4..1/2", 0.3): 0.589, ("1/4..1/2,5/8..3/4", 0.5): 0.486}
REFERENCE_SLACK = 0.0005

# sizes per workload; "tiny" is for the smoke test only
SIZES = {
    "theorem_single": {
        "full": {"n_grid": 4096, "samples": 1200, "nodes": 8,
                 "node_samples": 400, "node_steps": 1024},
        "tiny": {"n_grid": 256, "samples": 600, "nodes": 2,
                 "node_samples": 300, "node_steps": 64},
    },
    "theorem_split": {
        "full": {"n_grid": 4096, "samples": 1200, "nodes": 8,
                 "node_samples": 800, "node_steps": 1024},
        "tiny": {"n_grid": 256, "samples": 600, "nodes": 2,
                 "node_samples": 300, "node_steps": 64},
    },
    "walk_curve": {
        "full": {"curve_n": [256, 1024, 4096], "curve_samples": 10000,
                 "short_n": [10, 14, 18], "short_samples": 20000,
                 "spectrum_n": 20, "spectrum_top": 64, "tanaka_n": 16},
        "tiny": {"curve_n": [1024, 4096], "curve_samples": 20000,
                 "short_n": [6, 10], "short_samples": 4000,
                 "spectrum_n": 10, "spectrum_top": 16, "tanaka_n": 8},
    },
}


class Checks:
    """Named pass/fail results; a raised exception is a failed check."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok) -> bool:
        self.results.append((name, bool(ok)))
        return bool(ok)

    def sampled(self, name: str, n_samples, stderr) -> bool:
        """A 4-sigma comparison needs real samples on every side."""
        return self.add(f"{name} sampled (n >= 2, stderr > 0)", n_samples >= 2 and stderr > 0)

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


@dataclass
class Outcome:
    stderr: float = float("nan")
    estimates: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def fingerprint(self) -> str:
        text = json.dumps([self.outputs, self.estimates], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _cli(checks: Checks, argv: list[str]) -> str | None:
    """Run the CLI in-process; the payload if it exited 0, else None."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any crash is a failed check
        code = f"{type(exc).__name__}: {exc}"
    if not checks.add(f"{argv[0]} exit 0 (got {code})" if code != 0 else f"{argv[0]} exit 0",
                      code == 0):
        return None
    return buf.getvalue()


def _guard(checks: Checks, name: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any crash is a failed check
        checks.add(f"{name} raised {type(exc).__name__}: {exc}", False)
        return None


def _within_4sigma(a: float, b: float, *stderrs: float) -> bool:
    return abs(a - b) <= 4.0 * math.sqrt(sum(s * s for s in stderrs))


# -- theorem-check workloads -------------------------------------------------

def _theorem(checks: Checks, seed: int, sizes: dict, region: str, rho: float,
             stability: bool) -> Outcome:
    argv = ["theorem-check", "--A", region, "--rho", repr(rho), "--seed", str(seed),
            "--n-grid", str(sizes["n_grid"]), "--samples", str(sizes["samples"]),
            "--nodes", str(sizes["nodes"]), "--node-samples", str(sizes["node_samples"]),
            "--node-steps", str(sizes["node_steps"])]
    if stability:
        argv.append("--check-stability")
    out = Outcome()
    text = _cli(checks, argv)
    if text is None:
        return out
    out.outputs.append(text)
    res = json.loads(text)["results"]
    lhs, rhs = res["lhs"], res["rhs"]
    out.stderr = res["combined_stderr"]
    out.estimates = {"lhs": lhs["estimate"], "lhs_stderr": lhs["stderr"],
                     "rhs": rhs["estimate"], "rhs_stderr": rhs["stderr"],
                     "combined_stderr": res["combined_stderr"]}
    sides = {"lhs": lhs, "rhs": rhs}
    if stability:
        sides["lhs_refined"] = res["lhs_refined"]
        out.estimates["lhs_refined"] = res["lhs_refined"]["estimate"]
    sampled = all([checks.sampled(key, side["n_samples"], side["stderr"])
                   for key, side in sides.items()])
    checks.add("pass", res["pass"] is True)
    checks.add("tie_flag false", not any(sides[k]["tie_flag"] for k in sides if k != "rhs"))
    if not sampled:
        return out
    checks.add("lhs and rhs agree at 4 sigma",
               _within_4sigma(lhs["estimate"], rhs["estimate"], lhs["stderr"], rhs["stderr"]))
    ref = REFERENCE_LHS[(region, rho)]
    checks.add(f"lhs within 4 stderr + {REFERENCE_SLACK} of frozen {ref}",
               abs(lhs["estimate"] - ref) <= 4.0 * lhs["stderr"] + REFERENCE_SLACK)
    if stability:
        refined = sides["lhs_refined"]
        checks.add("grid_stability_ok",
                   res["grid_stability_ok"] is True
                   and _within_4sigma(lhs["estimate"], refined["estimate"],
                                      lhs["stderr"], refined["stderr"]))
    return out


def theorem_single(checks, seed, sizes):
    return _theorem(checks, seed, sizes, "1/4..1/2", 0.3, stability=True)


def theorem_split(checks, seed, sizes):
    return _theorem(checks, seed, sizes, "1/4..1/2,5/8..3/4", 0.5, stability=False)


# -- the discrete model, checked three ways ---------------------------------

_SHORT_REGION = "1/4..1/2"
_SHORT_RHO = 0.5
_TAG_SHORT = 9


def _short_rho(n: int) -> np.ndarray:
    """Per-step correlations of the region: step k is perturbed iff k/n lies in [1/4, 1/2]."""
    k = np.arange(n)
    return np.where((4 * k >= n) & (2 * k <= n), _SHORT_RHO, 1.0)


def walk_curve(checks, seed, sizes):
    out = Outcome()
    n_list = sizes["curve_n"]
    text = _cli(checks, ["sensitivity-curve", "--rho", "0.5",
                         "--n-list", ",".join(map(str, n_list)),
                         "--samples", str(sizes["curve_samples"]), "--seed", str(seed)])
    if text is not None:
        out.outputs.append(text)
        rows = list(csv.DictReader(io.StringIO(text)))
        if checks.add("curve has one row per n", [int(r["n"]) for r in rows] == n_list):
            for r in rows:
                checks.sampled(f"curve n={r['n']}", int(r["n_samples"]), float(r["stderr"]))
                out.estimates[f"curve_{r['n']}"] = float(r["estimate"])
            last = rows[-1]
            out.stderr = float(last["stderr"])
            checks.add(f"|phi| < 0.05 at n={last['n']}", abs(float(last["estimate"])) < 0.05)

    region = TimeSet.parse(_SHORT_REGION)
    for i, n in enumerate(sizes["short_n"]):
        rho = _short_rho(n)
        spectral = _guard(checks, f"spectral n={n}", walsh.sign_correlation_exact, rho)
        table = _guard(checks, f"table n={n}", walsh.sgn_functional_table, n)
        averaging = None if table is None else _guard(
            checks, f"averaging n={n}", walsh.exact_correlation, table, rho)
        est = _guard(checks, f"discrete_phi n={n}", coupled.discrete_phi, region, _SHORT_RHO, n,
                     sizes["short_samples"], sampling.derive_seed(seed, _TAG_SHORT, i))
        if spectral is None or averaging is None or est is None:
            continue
        out.estimates[f"exact_{n}"] = spectral
        out.estimates[f"mc_{n}"] = est.mean
        checks.add(f"walsh and averaging agree at n={n}", abs(spectral - averaging) <= 1e-10)
        if checks.sampled(f"discrete_phi n={n}", est.n_samples, est.stderr):
            checks.add(f"MC and exact agree at 4 sigma, n={n}",
                       _within_4sigma(est.mean, spectral, est.stderr))

    top = sizes["spectrum_top"]
    text = _cli(checks, ["walsh-spectrum", "--n", str(sizes["spectrum_n"]), "--top", str(top)])
    if text is not None:
        out.outputs.append(text)
        rows = list(csv.DictReader(io.StringIO(text)))
        mass = [float(r["squared_mass"]) for r in rows]
        checks.add("spectrum lists the top subsets by mass",
                   len(rows) == top
                   and len({r["subset_bitmask"] for r in rows}) == top
                   and all(a >= b for a, b in zip(mass, mass[1:]))
                   and all(float(r["coefficient"]) ** 2 == m for r, m in zip(rows, mass))
                   and 0.0 < sum(mass) <= 1.0 + 1e-12)

    n = sizes["tanaka_n"]
    patterns = _guard(checks, "all_increment_patterns", tanaka.all_increment_patterns, n)
    if patterns is not None:
        _tanaka_exhaustive(checks, patterns, n)
    return out


def _tanaka_exhaustive(checks: Checks, patterns: np.ndarray, n: int):
    """Both reflection identities, the round trip and the parity rule on all 2^n paths."""
    ok = _guard(checks, "identities_hold", tanaka.identities_hold, patterns)
    checks.add(f"reflection identities hold on all 2^{n} paths", ok is not None and ok.all())
    dx = _guard(checks, "z_to_x_increments", tanaka.z_to_x_increments, patterns)
    if dx is None:
        return
    back = _guard(checks, "x_to_z_increments", tanaka.x_to_z_increments, dx)
    checks.add(f"x_to_z inverts z_to_x on all 2^{n} paths",
               back is not None and np.array_equal(back, patterns))
    z_pos, x_pos = tanaka.positions(patterns), tanaka.positions(dx)
    wrong = 0
    for k in range(n + 1):
        signs = _guard(checks, "parity_signs", tanaka.parity_signs, z_pos[:, : k + 1])
        wrong += patterns.shape[0] if signs is None else int(
            np.count_nonzero(signs != np.where(x_pos[:, k] >= 0, 1, -1)))
    checks.add(f"parity rule recovers sgn(X_k) for all 2^{n} paths and k <= {n}", wrong == 0)


WORKLOADS = {
    "theorem_single": theorem_single,
    "theorem_split": theorem_split,
    "walk_curve": walk_curve,
}


def run(name: str, seed: int, size: str, checks: Checks) -> Outcome:
    return WORKLOADS[name](checks, seed, SIZES[name][size])
