"""In-memory span tracing of the splitnoise layers, from outside the package.

`instrumented(tracer)` replaces each public function of the layer
modules by a timing wrapper, in every splitnoise module that holds a
reference to it (for example `theorem.argmin_coincidence` as well as
`coupled.argmin_coincidence`), and puts the originals back on exit.
Spans are kept in memory as (id, name, parent, run, start, end, attrs)
and only written out when the benchmark ends.  The package never sees
the tracer, so its payloads do not change.

`layer_metrics` turns the spans of one run into the per-layer metrics
named in BENCHMARK.json.  `.s` is inclusive busy time, `.self_s` is
busy time minus wrapped children; counts such as grid steps are
computed from call arguments, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# timesets is interval bookkeeping with no measurable cost: not traced
LAYERS = ("cli", "theorem", "coupled", "walsh", "tanaka", "sampling")


# -- computed counts, from bound call arguments and the result ------------

def _argmin_attrs(args, result):
    samples = args["n_samples"]
    return {"grid_steps": args["n_grid"] * samples, "samples": samples,
            "tied_samples": result.extra["tie_fraction"] * samples}


def _mlambda_attrs(args, result):
    return {"path_steps": args["n_samples"] * args["n_steps"]}


def _discrete_phi_attrs(args, result):
    return {"walk_steps": args["n"] * args["n_samples"]}


def _walsh_transform_attrs(args, result):
    n = args["table"].n
    return {"butterflies": n << (n - 1)}


def _identities_attrs(args, result):
    return {"path_steps": int(np.asarray(args["dx"]).size)}


def _verify_attrs(args, result):
    combined = result.combined_stderr
    share = result.lhs.stderr**2 / combined**2 if combined > 0 else 1.0
    return {"lhs_var_share": share}


ATTRS = {
    "coupled.argmin_coincidence": _argmin_attrs,
    "coupled.m_lambda_functional": _mlambda_attrs,
    "coupled.discrete_phi": _discrete_phi_attrs,
    "walsh.walsh_transform": _walsh_transform_attrs,
    "tanaka.identities_hold": _identities_attrs,
    "theorem.verify_theorem": _verify_attrs,
}


class Tracer:
    """Collects nested spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs_of else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else None, self.run, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[6] = attrs_of(bound.arguments, result)
            return result

        return traced

    def records(self):
        keys = ("id", "name", "parent", "run", "start", "end", "attrs")
        return [dict(zip(keys, span)) for span in self.spans]


def _layer_functions(module, layer):
    if layer == "cli":
        return ["main"]  # the one entry point; parsing and emission are its self time
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer's public functions wherever the package looks them up."""
    for layer in LAYERS:
        importlib.import_module(f"splitnoise.{layer}")
    modules = [m for key, m in sys.modules.items()
               if key == "splitnoise" or key.startswith("splitnoise.")]
    patched = []
    try:
        for layer in LAYERS:
            module = sys.modules[f"splitnoise.{layer}"]
            for name in _layer_functions(module, layer):
                original = getattr(module, name)
                wrapper = tracer.wrap(f"{layer}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            patched.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(patched):
            setattr(holder, attr, original)


# -- per-layer metrics ------------------------------------------------------

# (metric, unit, better); every name here is a per_layer entry of BENCHMARK.json
PER_LAYER = [
    ("coupled.argmin_coincidence.s", "s", "lower"),
    ("coupled.argmin_coincidence.calls", "count", "lower"),
    ("coupled.argmin_coincidence.grid_steps", "count", "lower"),
    ("coupled.argmin_coincidence.grid_steps_per_s", "1/s", "higher"),
    ("coupled.argmin_coincidence.tie_fraction", "ratio", "lower"),
    ("coupled.m_lambda_functional.s", "s", "lower"),
    ("coupled.m_lambda_functional.calls", "count", "lower"),
    ("coupled.m_lambda_functional.path_steps", "count", "lower"),
    ("coupled.m_lambda_functional.path_steps_per_s", "1/s", "higher"),
    ("theorem.rhs_integral.s", "s", "lower"),
    ("theorem.rhs_integral.self_s", "s", "lower"),
    ("theorem.rhs_integral.factor_estimates", "count", "lower"),
    ("theorem.verify_theorem.s", "s", "lower"),
    ("theorem.verify_theorem.self_s", "s", "lower"),
    ("theorem.verify_theorem.lhs_var_share", "ratio", "lower"),
    ("coupled.discrete_phi.s", "s", "lower"),
    ("coupled.discrete_phi.calls", "count", "lower"),
    ("coupled.discrete_phi.walk_steps", "count", "lower"),
    ("coupled.discrete_phi.walk_steps_per_s", "1/s", "higher"),
    ("theorem.sensitivity_curve.s", "s", "lower"),
    ("theorem.sensitivity_curve.self_s", "s", "lower"),
    ("walsh.sgn_functional_table.s", "s", "lower"),
    ("walsh.walsh_transform.s", "s", "lower"),
    ("walsh.walsh_transform.butterflies", "count", "lower"),
    ("walsh.exact_correlation.s", "s", "lower"),
    ("walsh.noise_functional.s", "s", "lower"),
    ("tanaka.identities_hold.s", "s", "lower"),
    ("tanaka.identities_hold.path_steps", "count", "lower"),
    ("tanaka.x_to_z_increments.s", "s", "lower"),
    ("tanaka.z_to_x_increments.s", "s", "lower"),
    ("tanaka.parity_signs.s", "s", "lower"),
    ("sampling.derive_rng.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.trace_overhead", "ratio", "lower"),
]


def span_summary(spans, run):
    """Per function name: calls, inclusive and self seconds, summed attrs."""
    mine = [s for s in spans if s[3] == run]
    child_time = defaultdict(float)
    for s in mine:
        if s[2] is not None:
            child_time[s[2]] += s[5] - s[4]
    by_id = {s[0]: s for s in mine}
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)})
    for s in mine:
        row = out[s[1]]
        row["calls"] += 1
        row["s"] += s[5] - s[4]
        row["self_s"] += s[5] - s[4] - child_time[s[0]]
        for key, value in (s[6] or {}).items():
            row["attrs"][key] += value
    # factor estimates: survival estimates made under an RHS integral
    factors = 0
    for s in mine:
        if s[1] == "coupled.m_lambda_functional":
            parent = s[2]
            while parent is not None and by_id[parent][1] != "theorem.rhs_integral":
                parent = by_id[parent][2]
            factors += parent is not None
    out["theorem.rhs_integral"]["attrs"]["factor_estimates"] = factors
    return {name: {**row, "attrs": dict(row["attrs"])} for name, row in out.items()}


def layer_metrics(summary: dict) -> dict:
    """The traced per-layer metrics of one run (process.* are added by the caller)."""

    def get(name, key):
        row = summary.get(name)
        if row is None:
            return 0.0
        return row[key] if key in ("calls", "s", "self_s") else row["attrs"].get(key, 0.0)

    def rate(name, key):
        seconds = get(name, "s")
        return get(name, key) / seconds if seconds > 0 else 0.0

    argmin = "coupled.argmin_coincidence"
    samples = get(argmin, "samples")
    verify_calls = get("theorem.verify_theorem", "calls")
    out = {
        f"{argmin}.grid_steps_per_s": rate(argmin, "grid_steps"),
        f"{argmin}.tie_fraction": get(argmin, "tied_samples") / samples if samples else 0.0,
        "coupled.m_lambda_functional.path_steps_per_s":
            rate("coupled.m_lambda_functional", "path_steps"),
        "coupled.discrete_phi.walk_steps_per_s": rate("coupled.discrete_phi", "walk_steps"),
        "theorem.verify_theorem.lhs_var_share":
            get("theorem.verify_theorem", "lhs_var_share") / verify_calls if verify_calls else 0.0,
    }
    for metric, unit, _ in PER_LAYER:
        if metric in out or metric.startswith("process."):
            continue
        name, key = metric.rsplit(".", 1)
        value = get(name, key)
        out[metric] = int(value) if unit == "count" else value
    return out
