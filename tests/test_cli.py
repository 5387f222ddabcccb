import json

import pytest

from splitnoise import theorem
from splitnoise.cli import main
from splitnoise.coupled import STEP_CAP
from splitnoise.sampling import SAMPLE_CAP, EstimateWithError
from splitnoise.theorem import NODE_CAP


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mc_phi_unperturbed(capsys):
    code, out, _ = run_cli(
        ["mc-phi", "--A", "", "--rho", "0.5", "--n-grid", "64",
         "--samples", "2000", "--seed", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["estimate"] == 1.0
    assert doc["parameters"]["seed"] == 7
    assert doc["version"]


def test_walsh_spectrum_csv(capsys):
    code, out, _ = run_cli(["walsh-spectrum", "--n", "2", "--top", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "subset_bitmask,coefficient,squared_mass"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert sorted(float(r[1]) for r in rows) == [-0.5, 0.5, 0.5, 0.5]
    assert all(float(r[2]) == 0.25 for r in rows)


def test_discrete_phi_payload(capsys):
    code, out, _ = run_cli(
        ["discrete-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n", "32",
         "--samples", "2000", "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert -1.0 <= doc["results"]["estimate"] <= 1.0
    assert doc["results"]["n_samples"] == 2000


def test_byte_identical_reruns(tmp_path, capsys):
    args = ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5",
            "--n-grid", "512", "--samples", "1000", "--nodes", "4",
            "--node-samples", "1000", "--node-steps", "128", "--seed", "7"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_theorem_check_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "factors.csv"
    code, out, _ = run_cli(
        ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5",
         "--n-grid", "1024", "--samples", "4000", "--nodes", "6",
         "--node-samples", "4000", "--node-steps", "256", "--seed", "7",
         "--factors-csv", str(csv_path)], capsys)
    doc = json.loads(out)
    assert {"lhs", "rhs", "discrepancy", "combined_stderr", "pass"} <= set(doc["results"])
    assert code == (0 if doc["results"]["pass"] else 1)
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == ["component", "t", "weight", "left",
                                 "left_stderr", "right", "right_stderr"]


def test_mc_phi_convergence_table(capsys):
    code, out, _ = run_cli(
        ["mc-phi", "--A", "1/4..1/2", "--rho", "0.5",
         "--n-grid-list", "128,256", "--samples", "1000", "--seed", "4"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_grid,estimate,stderr,n_samples,tie_fraction"
    assert len(lines) == 3
    assert [line.split(",")[0] for line in lines[1:]] == ["128", "256"]


def test_sensitivity_curve_csv(capsys):
    code, out, _ = run_cli(
        ["sensitivity-curve", "--rho", "1.0", "--n-list", "4,8,16",
         "--samples", "100", "--seed", "1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,estimate,stderr,n_samples"
    assert [line.split(",")[1] for line in lines[1:]] == ["1.0", "1.0", "1.0"]


def test_consistency_check(capsys):
    code, out, _ = run_cli(
        ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
         "--t0", "1/32,1/8", "--samples", "20000", "--steps", "256",
         "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["consistent"]
    assert len(doc["results"]["runs"]) == 2


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc-phi", "--rho", "not-a-number"])
    assert exc.value.code == 2


def test_domain_error_exit_2(capsys):
    code, _, err = run_cli(
        ["mc-phi", "--A", "1/3..1/2", "--rho", "0.5", "--n-grid", "64",
         "--samples", "100", "--seed", "1"], capsys)
    assert code == 2
    assert err.splitlines()[0].startswith("error kind=domain")


def test_resource_error_exit_3(capsys):
    code, _, err = run_cli(["walsh-spectrum", "--n", "30"], capsys)
    assert code == 3
    assert err.splitlines()[0].startswith("error kind=resource")


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"A": "", "rho": 0.5, "n-grid": 64,
                               "samples": 500, "seed": 9}))
    code, out, _ = run_cli(
        ["--config", str(cfg), "mc-phi", "--samples", "250"], capsys)
    assert code == 0
    doc = json.loads(out)
    # config supplies defaults; the explicit flag wins
    assert doc["parameters"]["samples"] == 250
    assert doc["parameters"]["n_grid"] == 64
    assert doc["parameters"]["seed"] == 9


def exit_code(argv, capsys):
    """Exit code and stderr of a run; any exception but SystemExit fails the test."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("text, words", [
    (None, ["config"]),
    ("{not json", ["config"]),
    ('["rho", 0.5]', ["config"]),
    ('{"rho": 0.5, "sampels": 100}', ["config", "sampels"]),
    ('{"rho": 0.5, "samples": "many"}', ["--samples", "many"]),
    ('{"rho": 0.5, "n-list": [8, 16]}', ["config", "n-list"]),
], ids=["missing", "malformed", "not-an-object", "unknown-key", "untyped-value",
        "other-command-key"])
def test_bad_config_exit_2(tmp_path, capsys, text, words):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    code, err = exit_code(["--config", str(cfg), "mc-phi", "--n-grid", "64",
                           "--samples", "100"], capsys)
    assert code == 2
    assert all(word in err for word in words)


def test_config_values_are_typed(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rho": 1.0, "n-list": [4, 8], "samples": 100}))
    code, out, _ = run_cli(["--config", str(cfg), "sensitivity-curve"], capsys)
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["4", "8"]
    # true is a bare flag, false no flag at all
    small = ["theorem-check", "--A", "", "--rho", "0.5", "--n-grid", "64",
             "--samples", "100", "--nodes", "2", "--node-steps", "8"]
    for value in (True, False):
        cfg.write_text(json.dumps({"check-stability": value}))
        code, out, _ = run_cli(["--config", str(cfg), *small], capsys)
        assert code == 0
        assert ("grid_stability_ok" in json.loads(out)["results"]) is value


_THEOREM_SMALL = ["--n-grid", "64", "--samples", "100", "--nodes", "2",
                  "--node-steps", "8"]


@pytest.mark.parametrize("argv", [
    ["mc-phi", "--rho", "0.5", "--n-grid-list", "128,x", "--samples", "100"],
    ["sensitivity-curve", "--rho", "0.5", "--n-list", "8,1.5", "--samples", "100"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--t0", "1/32,zz",
     "--samples", "100", "--steps", "8"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--samples", "0",
     "--steps", "8"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--samples", "1",
     "--steps", "8"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "1",
     *_THEOREM_SMALL],
    ["discrete-phi", "--rho", "1", "--n", "8", "--samples", "100"],
    ["mc-phi", "--rho", "1", "--n-grid", "64", "--samples", "100"],
    ["theorem-check", "--rho", "1", "--node-samples", "100", *_THEOREM_SMALL],
], ids=["n-grid-list", "n-list", "t0", "samples-0", "samples-1", "node-samples-1",
        "discrete-phi-rho-1", "mc-phi-rho-1", "theorem-check-rho-1"])
def test_bad_input_exit_2(capsys, argv):
    code, err = exit_code(argv, capsys)
    assert code == 2
    assert err.splitlines()[0].startswith("error kind=domain")


@pytest.mark.parametrize("tied_run, means, stderr", [
    (None, (1.0, 1.0), 0.0),
    (0, (1.0, 1.0), 0.0),
    (1, (1.0, 1.0), 0.0),
    (None, (0.5, 0.9), 0.001),
], ids=["no-ties", "lhs", "lhs-refined", "unstable-grid"])
def test_tie_flag_joins_verdict(monkeypatch, capsys, tied_run, means, stderr):
    """A tie flag on either direct run, or a doubled grid that disagrees, fails the check."""
    runs = []

    def direct_route(*args):
        tied = len(runs) == tied_run
        mean = means[len(runs)]
        runs.append(args)
        return EstimateWithError(mean, stderr, 100, seed=0,
                                 extra={"tie_fraction": 0.01 * tied, "tie_flag": tied})

    monkeypatch.setattr(theorem, "argmin_coincidence", direct_route)
    # the other route agrees with the first direct run
    monkeypatch.setattr(theorem, "rhs_integral",
                        lambda *args: EstimateWithError(means[0], stderr, 100, seed=0))
    code, out, _ = run_cli(["theorem-check", "--A", "", "--rho", "0.5",
                            "--check-stability"], capsys)
    results = json.loads(out)["results"]
    assert len(runs) == 2 and results["discrepancy"] == 0.0
    stable = means[0] == means[1]
    assert results["grid_stability_ok"] is stable
    assert results["pass"] is (tied_run is None and stable)
    assert code == (0 if tied_run is None and stable else 1)


@pytest.mark.parametrize("argv", [
    ["mc-phi", "--rho", "0.5", "--n-grid", str(STEP_CAP + 1), "--samples", "100"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-steps", str(STEP_CAP + 1),
     "--n-grid", "64", "--samples", "100", "--nodes", "2", "--node-samples", "100"],
    ["mc-phi", "--rho", "0.5", "--n-grid", "64", "--samples", str(SAMPLE_CAP + 1)],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--nodes", str(NODE_CAP + 1),
     "--n-grid", "64", "--samples", "100", "--node-steps", "8"],
], ids=["steps", "node-steps", "samples", "nodes"])
def test_size_cap_exit_3(capsys, argv):
    code, err = exit_code(argv, capsys)
    assert code == 3
    assert err.splitlines()[0].startswith("error kind=resource")
