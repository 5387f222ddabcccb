"""Command-line front door for seeded, reproducible experiment runs.

Every run is a pure function of its configuration: the JSON payload
echoes the full configuration and carries no wall-clock data, so a
repeated run with the same flags is byte-identical.

Exit codes: 0 success, 1 theorem check failed at tolerance, 2 usage
error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .coupled import _check_grid, _check_steps, argmin_coincidence, discrete_phi, m_lambda_functional
from .errors import DomainError, PreconditionError, ResourceLimitError
from .sampling import derive_seed, welch_dof
from .theorem import band_multiplier, sensitivity_curve, verify_theorem
from .timesets import TimeSet
from .walsh import sgn_functional_table, walsh_transform


def _payload(command: str, params: dict, results: dict) -> str:
    doc = {
        "command": command,
        "version": __version__,
        "parameters": params,
        "results": results,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(header: list[str], rows) -> str:
    """A CSV document: the header line, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None):
    """Write text to the file out, or to stdout; a failed open, write or close is a usage error."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--A", default="", help='perturbation region, e.g. "1/4..1/2,5/8..3/4"; empty = none')
    p.add_argument("--rho", type=float, default=None, help="perturbed-step correlation")
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--out", default=None, help="write the JSON payload here instead of stdout")


# flags that must be present after the config merge
_REQUIRED = {
    "discrete-phi": ("rho", "n"),
    "walsh-spectrum": ("n",),
    "mc-phi": ("rho",),
    "theorem-check": ("rho",),
    "sensitivity-curve": ("rho", "n_list"),
    "consistency-check": ("rho",),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splitnoise",
        description="Noise-sensitivity experiments for the discrete Tanaka model.",
    )
    ap.add_argument("--config", default=None,
                    help="JSON file of flag values (long names without dashes); explicit flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discrete-phi", help="walk-pair sign correlation by Monte Carlo")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="walk length")
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("walsh-spectrum", help="exact spectrum of the sign functional as CSV")
    p.add_argument("--n", type=int, default=None, help="number of steps")
    p.add_argument("--top", type=int, default=None, help="keep only the K heaviest subsets")
    p.add_argument("--out", default=None)

    p = sub.add_parser("mc-phi", help="argmin-coincidence probability of the coupled Brownian pair")
    _add_common(p)
    p.add_argument("--n-grid", type=int, default=1 << 13)
    p.add_argument("--n-grid-list", default=None,
                   help="comma-separated grids; emits a CSV convergence table instead of JSON")
    p.add_argument("--samples", type=int, default=20_000,
                   help="direct-route budget, in samples walked at --n-grid")

    p = sub.add_parser("theorem-check", help="compare the direct and arc-sine-integral routes")
    _add_common(p)
    p.add_argument("--n-grid", type=int, default=1 << 13)
    p.add_argument("--samples", type=int, default=20_000,
                   help="direct-route budget, in samples walked at --n-grid "
                        "(at twice it with --check-stability)")
    p.add_argument("--nodes", type=int, default=24, help="quadrature nodes per gap")
    p.add_argument("--node-samples", type=int, default=20_000,
                   help="points per sampled RHS factor; exact one-component factors ignore it")
    p.add_argument("--node-steps", type=int, default=1024,
                   help="checked and echoed; survival factors have no grid")
    p.add_argument("--check-stability", action="store_true",
                   help="walk one more level, twice --n-grid against it on the same draws, "
                        "and check the grid bias it measures")
    p.add_argument("--factors-csv", default=None, help="write per-node factors here")

    p = sub.add_parser("sensitivity-curve", help="full-interval correlation along walk lengths, CSV")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n-list", default=None, help="comma-separated ascending walk lengths")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("consistency-check", help="entrance-start invariance of the mixture functional")
    _add_common(p)
    p.add_argument("--t0", default="1/32,1/8", help="comma-separated pair of start times (fractions ok)")
    p.add_argument("--samples", type=int, default=200_000)
    return ap


def _merge_config(argv: list[str], ap: argparse.ArgumentParser) -> argparse.Namespace:
    """Parse argv with each --config value as a --key=value token before the explicit flags.

    True gives a bare flag, false or null no token, a list its comma-joined
    items; argparse types every value, and the last (explicit) flag wins.
    """
    args = ap.parse_args(argv)
    if args.config:
        try:
            with open(args.config) as fh:
                stored = json.load(fh)
        except (OSError, ValueError) as exc:
            ap.error(f"cannot read --config {args.config}: {exc}")
        if not isinstance(stored, dict):
            ap.error(f"--config {args.config} must hold a JSON object")
        stored.pop("command", None)
        unknown = sorted(k for k in stored if not hasattr(args, k.replace("-", "_")))
        if unknown:
            ap.error(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        tokens = []
        for key, value in stored.items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            if value is not False and value is not None:
                tokens.append("--" + key.replace("_", "-") + ("" if value is True else f"={value}"))
        # the subcommand is the first token that is not the --config value
        i = 0
        while argv[i] != args.command or (i and argv[i - 1] == "--config"):
            i += 1
        args = ap.parse_args(argv[: i + 1] + tokens + argv[i + 1 :])
    for dest in _REQUIRED.get(args.command, ()):
        if getattr(args, dest, None) is None:
            ap.error(f"{args.command} requires --{dest.replace('_', '-')}")
    return args


def _parse_list(text: str, flag: str, parse=int) -> list:
    """Comma-separated values of one flag; a bad token is a domain error."""
    try:
        return [parse(tok.strip()) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{flag} takes comma-separated numbers, got {text!r}") from None


# -- command bodies --------------------------------------------------------

def _run_discrete_phi(args) -> int:
    region = TimeSet.parse(args.A)
    est = discrete_phi(region, args.rho, args.n, args.samples, args.seed)
    params = {"A": str(region), "rho": args.rho, "n": args.n,
              "samples": args.samples, "seed": args.seed}
    _emit(_payload("discrete-phi", params, est.as_dict()), args.out)
    return 0


def _run_mc_phi(args) -> int:
    region = TimeSet.parse(args.A)
    if args.n_grid_list is not None:
        grids = _parse_list(args.n_grid_list, "--n-grid-list")
        for g in grids:  # every grid first; the first run checks the rest before it draws
            _check_grid(g)
        rows = []
        for i, g in enumerate(grids):
            est = argmin_coincidence(region, args.rho, g, args.samples,
                                     derive_seed(args.seed, i))
            rows.append([g, repr(est.mean), repr(est.stderr), est.n_samples,
                         repr(est.extra["tie_fraction"])])
        _emit(_csv(["n_grid", "estimate", "stderr", "n_samples", "tie_fraction"], rows),
              args.out)
        return 0
    est = argmin_coincidence(region, args.rho, args.n_grid, args.samples, args.seed)
    params = {"A": str(region), "rho": args.rho, "n_grid": args.n_grid,
              "samples": args.samples, "seed": args.seed}
    _emit(_payload("mc-phi", params, est.as_dict()), args.out)
    return 0


def _run_walsh_spectrum(args) -> int:
    if args.top is not None and args.top < 1:
        raise DomainError(f"--top {args.top} must be at least 1")
    coefficients = walsh_transform(sgn_functional_table(args.n))
    mass = coefficients**2
    candidates = np.arange(mass.size)
    if args.top is not None and args.top < mass.size:
        # only the masses at or above the top-th largest can be listed
        kth = np.partition(mass, mass.size - args.top)[mass.size - args.top]
        candidates = np.flatnonzero(mass >= kth)
    order = candidates[np.argsort(-mass[candidates], kind="stable")][: args.top]
    rows = [[int(idx), repr(float(coefficients[idx])), repr(float(mass[idx]))]
            for idx in order]
    _emit(_csv(["subset_bitmask", "coefficient", "squared_mass"], rows), args.out)
    return 0


def _run_theorem_check(args) -> int:
    region = TimeSet.parse(args.A)
    _check_steps(args.node_steps)  # survival has no grid: checked and echoed only
    report = verify_theorem(
        region, args.rho, seed=args.seed,
        lhs_n_grid=args.n_grid, lhs_samples=args.samples,
        n_nodes=args.nodes, node_samples=args.node_samples,
        check_stability=args.check_stability,
    )
    if args.factors_csv:
        fields = ["component", "t", "weight", "left", "left_stderr", "right", "right_stderr"]
        rows = (report.rhs.extra or {}).get("nodes", [])
        _emit(_csv(fields, ([row[k] for k in fields] for row in rows)), args.factors_csv)
    params = {"A": str(region), "rho": args.rho, "n_grid": args.n_grid,
              "samples": args.samples, "nodes": args.nodes,
              "node_samples": args.node_samples, "node_steps": args.node_steps,
              "check_stability": args.check_stability, "seed": args.seed}
    _emit(_payload("theorem-check", params, report.as_dict()), args.out)
    return 0 if report.passed else 1


def _run_sensitivity_curve(args) -> int:
    n_list = _parse_list(args.n_list, "--n-list")
    rows = sensitivity_curve(args.rho, n_list, args.samples, args.seed)
    _emit(_csv(["n", "estimate", "stderr", "n_samples"],
               ([n, repr(est.mean), repr(est.stderr), est.n_samples] for n, est in rows)),
          args.out)
    return 0


def _run_consistency_check(args) -> int:
    region = TimeSet.parse(args.A)
    starts = _parse_list(args.t0, "--t0", lambda tok: float(Fraction(tok)))
    if len(starts) != 2:
        raise DomainError("--t0 takes exactly two comma-separated start times")
    runs = [
        m_lambda_functional(region, args.rho, t0, args.samples, derive_seed(args.seed, i))
        for i, t0 in enumerate(starts)
    ]
    gap = abs(runs[0].mean - runs[1].mean)
    # a 4-sigma band at the Welch-Satterthwaite dof of the two replicate spreads
    dof = welch_dof([(est.stderr**2, est.extra["replicates"] - 1) for est in runs])
    threshold = band_multiplier(dof)
    tol = threshold * (runs[0].stderr**2 + runs[1].stderr**2) ** 0.5
    params = {"A": str(region), "rho": args.rho, "t0": starts,
              "samples": args.samples, "seed": args.seed}
    results = {
        "runs": [est.as_dict() for est in runs],
        "difference": gap,
        "dof": dof,
        "threshold": threshold,
        "tolerance": tol,
        "consistent": gap <= tol,
    }
    _emit(_payload("consistency-check", params, results), args.out)
    return 0 if gap <= tol else 1


_COMMANDS = {
    "discrete-phi": _run_discrete_phi,
    "walsh-spectrum": _run_walsh_spectrum,
    "mc-phi": _run_mc_phi,
    "theorem-check": _run_theorem_check,
    "sensitivity-curve": _run_sensitivity_curve,
    "consistency-check": _run_consistency_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _build_parser()
    args = _merge_config(argv, ap)
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"error kind=resource message={exc}", file=sys.stderr)
        print(f"The requested size exceeds the desk-scale cap: {exc}", file=sys.stderr)
        return 3
    except (DomainError, PreconditionError) as exc:
        print(f"error kind=domain message={exc}", file=sys.stderr)
        print(f"Invalid arguments: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
