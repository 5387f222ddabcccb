"""The benchmark's tracer reads call arguments by name: a tiny traced pass must record them.

perfbench/tracing.py binds each traced call to its signature and reads
arguments such as m_lambda_functional(n_samples, n_steps),
argmin_coincidence(n_grid) and walsh_transform(table).n.  A renamed
argument would only show up as a crash under `--trace 1`, so this
makes one small traced pass in-process and checks every recorded attr.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from splitnoise import cli, coupled, tanaka, walsh
from splitnoise.timesets import TimeSet

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_records_every_attrs_function(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        code = cli.main(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "64",
                         "--samples", "100", "--nodes", "2", "--node-samples", "100",
                         "--node-steps", "8", "--seed", "1"])
        walsh.sign_correlation_exact(np.full(4, 0.5))
        tanaka.identities_hold(tanaka.all_increment_patterns(4))
        coupled.discrete_phi(TimeSet.parse("1/4..1/2"), 0.5, 8, 100, seed=1)
    capsys.readouterr()
    assert code in (0, 1)
    recorded = {}
    for span in tracer.records():
        if span["name"] in tracing.ATTRS:
            recorded.setdefault(span["name"], []).append(span["attrs"])
    assert set(recorded) == set(tracing.ATTRS)
    for name, attrs_list in recorded.items():
        for attrs in attrs_list:
            assert attrs, name
            assert all(math.isfinite(v) for v in attrs.values()), (name, attrs)
    # the originals are back once the pass ends
    assert not hasattr(coupled.m_lambda_functional, "__wrapped__")
