"""Every demo script runs to the end and reports no failed check."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "discrete_model",
    pytest.param("spectrum_and_sensitivity", marks=pytest.mark.slow),
    pytest.param("splitting_identity", marks=pytest.mark.slow),
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out and "FAILED" not in out
