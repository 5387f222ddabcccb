import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from splitnoise import coupled, theorem
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


def test_walsh_spectrum_top_is_prefix_of_full_listing(capsys):
    code, out, _ = run_cli(["walsh-spectrum", "--n", "10"], capsys)
    assert code == 0
    full = out.splitlines()
    mass = [float(line.split(",")[2]) for line in full[1:]]
    # a cut inside a run of equal nonzero masses: ties keep index order
    tie = next(k for k in range(1, len(mass)) if mass[k - 1] == mass[k] > 0.0)
    for k in (1, 5, tie, 1023, 1024, 5000):
        code, out, _ = run_cli(["walsh-spectrum", "--n", "10", "--top", str(k)], capsys)
        assert code == 0
        assert out.splitlines() == full[: k + 1]


def test_walsh_spectrum_payload_is_pinned(capsys):
    # the stdout of the n = 16 listing, fixed when the transform was one bit per pass
    code, out, _ = run_cli(["walsh-spectrum", "--n", "16", "--top", "32"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "caf9d1010655e0c5e6c86fe13d9d876350a58ae1646ae9256b1019510387f8ff")


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


@pytest.mark.parametrize("region", ["", "0..1"], ids=["empty", "full"])
def test_theorem_check_exact_region_writes_header_only_csv(region, tmp_path, capsys):
    # no quadrature runs on these regions, so the factor table is empty
    csv_path = tmp_path / "factors.csv"
    code, out, _ = run_cli(
        ["theorem-check", "--A", region, "--rho", "0.5", "--n-grid", "64",
         "--samples", "100", "--nodes", "2", "--node-samples", "100", "--seed", "7",
         "--factors-csv", str(csv_path)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["pass"] is True
    assert csv_path.read_text().splitlines() == [
        "component,t,weight,left,left_stderr,right,right_stderr"]


def test_theorem_check_echoes_check_stability(capsys):
    # the flag changes the results, so the payload's parameters carry it
    for flag, value in (([], False), (["--check-stability"], True)):
        code, out, _ = run_cli(["theorem-check", "--A", "", "--rho", "0.5", "--seed", "7",
                                "--node-samples", "100", *_THEOREM_SMALL, *flag], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"]["check_stability"] is value
        assert ("grid_stability_ok" in doc["results"]) is value


# a gap of 2^-50 after 1/2 holds 7 floats; one of 2^-53 holds none
_NARROW_GAP = "0..1/2,562949953421313/1125899906842624..1"
_ULP_GAP = "1/4..1/2,4503599627370497/9007199254740992..3/4"


def test_theorem_check_on_a_narrow_gap_gives_a_verdict(capsys):
    code, out, _ = run_cli(["theorem-check", "--A", _NARROW_GAP, "--rho", "0.5",
                            "--n-grid", "64", "--samples", "400", "--nodes", "8",
                            "--node-samples", "200", "--seed", "1"], capsys)
    assert code == (0 if json.loads(out)["results"]["pass"] else 1)


def test_theorem_check_rejects_a_gap_with_no_float_inside(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("the direct route ran before the gap was checked")

    monkeypatch.setattr(theorem, "argmin_coincidence", forbidden)
    code, err = exit_code(["theorem-check", "--A", _ULP_GAP, "--rho", "0.5",
                           "--node-samples", "100", *_THEOREM_SMALL], capsys)
    assert code == 2
    assert err.splitlines()[0].startswith("error kind=domain")
    assert "the gap (0.5, 0.5000000000000001)" in err


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


@pytest.mark.parametrize("argv, flag", [
    (["theorem-check", "--A", "1/4..1/2,5/8..3/4", "--rho", "0.5", "--n-grid", "256",
      "--samples", "500", "--nodes", "2", "--node-samples", "500", "--seed", "3"],
     "--node-steps"),
], ids=["theorem-check"])
def test_grid_flags_change_no_result(capsys, argv, flag):
    """Survival is grid-free: the step flag is checked and echoed, nothing more."""
    docs = []
    for steps in ("128", "1024"):
        code, out, _ = run_cli(argv + [flag, steps], capsys)
        assert code in (0, 1)
        docs.append(json.loads(out))
    assert docs[0]["results"] == docs[1]["results"]
    key = flag[2:].replace("-", "_")
    assert [doc["parameters"][key] for doc in docs] == [128, 1024]


def test_consistency_check(capsys):
    code, out, _ = run_cli(
        ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
         "--t0", "1/32,1/8", "--samples", "20000", "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["consistent"]
    assert len(doc["results"]["runs"]) == 2


def test_consistency_check_band_is_a_student_t_band(capsys):
    # two factors of 15 degrees of freedom each: the band is the t quantile
    # at the Welch-Satterthwaite dof (up to 30) at the normal 4-sigma tail
    code, out, _ = run_cli(
        ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
         "--t0", "1/32,1/8", "--samples", "2000", "--seed", "5"], capsys)
    results = json.loads(out)["results"]
    runs = results["runs"]
    sigma = math.hypot(runs[0]["stderr"], runs[1]["stderr"])
    assert 15.0 <= results["dof"] <= 30.0
    assert results["threshold"] == theorem.band_multiplier(results["dof"]) >= 4.65
    assert results["tolerance"] == results["threshold"] * sigma
    assert results["consistent"] is (results["difference"] <= results["tolerance"])
    assert code == (0 if results["consistent"] else 1)


def test_survival_errors_name_their_replicates(capsys):
    # each sampled factor's stderr is the spread of 16 randomized-QMC
    # replicate means, and the payloads say so next to it
    code, out, _ = run_cli(
        ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
         "--t0", "1/32,1/8", "--samples", "2000", "--seed", "5"], capsys)
    assert code == 0
    assert [run["replicates"] for run in json.loads(out)["results"]["runs"]] == [16, 16]
    # the outer gaps of a two-component region see two components: sampled
    code, out, _ = run_cli(["theorem-check", "--A", "1/4..1/2,5/8..3/4", "--rho", "0.5",
                            "--seed", "7", "--node-samples", "100", *_THEOREM_SMALL], capsys)
    results = json.loads(out)["results"]
    assert results["rhs"]["replicates"] == 16 and "replicates" not in results["lhs"]
    assert results["rhs"]["exact_factors"] > 0
    # every side of 1/4..1/2 has one component: all exact, no replicates,
    # and the band is the node rule's error
    code, out, _ = run_cli(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--seed", "7",
                            "--node-samples", "100", *_THEOREM_SMALL], capsys)
    rhs = json.loads(out)["results"]["rhs"]
    assert "replicates" not in rhs and rhs["exact_factors"] > 0
    assert rhs["n_samples"] >= 2 and rhs["stderr"] == rhs["quadrature_error"] > 0.0


def test_direct_route_reports_its_strata(capsys):
    # the LHS is stratified in cells of 2 samples (3 in a batch's last
    # cell when its size is odd), and the payloads say how many, as the
    # RHS names its replicates
    code, out, _ = run_cli(["mc-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "64",
                            "--samples", "2049", "--seed", "3"], capsys)
    assert code == 0 and json.loads(out)["results"]["strata"] == 1024
    code, out, _ = run_cli(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--seed", "7",
                            "--node-samples", "100", *_THEOREM_SMALL, "--check-stability"],
                           capsys)
    results = json.loads(out)["results"]
    rows = results["lhs_refined"]["levels"]
    assert results["lhs"]["strata"] == rows[0]["strata"] == 50
    assert results["lhs_refined"]["strata"] == 50 + rows[-1]["strata"]
    assert rows[-1]["strata"] == rows[-1]["samples"] // 2
    assert "strata" not in results["rhs"]


def test_direct_route_reports_its_levels(capsys):
    # a multilevel run lists every level, coarsest first: its grid,
    # samples, strata, term of the sum, stderr and share of the variance;
    # with --check-stability the refined run adds the top level at 2 n_grid
    code, out, _ = run_cli(["mc-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "1024",
                            "--samples", "4000", "--seed", "3"], capsys)
    results = json.loads(out)["results"]
    rows = results["levels"]
    assert code == 0 and [row["grid"] for row in rows] == [128, 256, 512, 1024]
    assert set(rows[0]) == {"grid", "samples", "strata", "estimate", "stderr", "var_share"}
    assert results["strata"] == sum(row["strata"] for row in rows)
    assert results["estimate"] == pytest.approx(sum(row["estimate"] for row in rows), abs=1e-12)
    assert sum(row["var_share"] for row in rows) == pytest.approx(1.0, abs=1e-12)
    assert results["n_samples"] == 4000 and results["dof"] > 0
    code, out, _ = run_cli(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--seed", "7",
                            "--n-grid", "1024", "--samples", "4000", "--nodes", "2",
                            "--node-samples", "100", "--node-steps", "8", "--check-stability"],
                           capsys)
    results = json.loads(out)["results"]
    lhs, refined = results["lhs"]["levels"], results["lhs_refined"]["levels"]
    assert [row["grid"] for row in refined] == [row["grid"] for row in lhs] + [2048]
    assert results["grid_bias"] == {"estimate": refined[-1]["estimate"],
                                    "stderr": refined[-1]["stderr"]}


def test_theorem_check_imports_no_scipy_stats():
    # the point generator is numpy only: scipy.stats would double the
    # process's resident memory
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import contextlib, io, sys\n"
              "from splitnoise import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    cli.main(['theorem-check', '--A', '1/4..1/2,5/8..3/4', '--rho', '0.5',"
              " '--n-grid', '64', '--samples', '100', '--nodes', '2', '--node-samples', '100'])\n"
              "print('scipy.stats' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_all_equal_lhs_samples_get_a_binomial_stderr(capsys):
    # on a region that touches 0 and reaches 1 each sample scores 0 or
    # 1, and at 200 samples all of them score 0 in most runs: the LHS
    # stderr is then the zero-count binomial bound over 4, not 0, and
    # the verdict holds
    code, out, _ = run_cli(
        ["theorem-check", "--A", "0..1/2,129/256..1", "--rho", "0.5", "--n-grid", "256",
         "--samples", "200", "--nodes", "4", "--node-samples", "400", "--seed", "0"], capsys)
    results = json.loads(out)["results"]
    assert results["lhs"]["estimate"] == 0.0
    assert results["lhs"]["stderr"] == (1.0 - 6.33e-5 ** (1 / 200)) / 4
    assert 4 * results["lhs"]["stderr"] == pytest.approx(0.047, abs=5e-4)
    assert results["combined_stderr"] > results["lhs"]["stderr"]
    assert results["pass"] and code == 0
    # the direct route reports the same bound on its own
    code, out, _ = run_cli(
        ["mc-phi", "--A", "0..1/2,129/256..1", "--rho", "0.5", "--n-grid", "256",
         "--samples", "200", "--seed", "1"], capsys)
    results = json.loads(out)["results"]
    assert results["estimate"] == 0.0
    assert results["stderr"] == (1.0 - 6.33e-5 ** (1 / 200)) / 4
    assert code == 0
    # on 1/256..1 the first gap is integrated out: samples are no longer
    # 0 or 1, and the stderr is a real sample stderr, not the floor
    code, out, _ = run_cli(
        ["mc-phi", "--A", "1/256..1", "--rho", "0.5", "--n-grid", "256",
         "--samples", "200", "--seed", "1"], capsys)
    results = json.loads(out)["results"]
    assert results["estimate"] > 0.0
    assert 0.0 < results["stderr"] < (1.0 - 6.33e-5 ** (1 / 200)) / 4
    assert code == 0


def test_consistency_check_has_no_steps_flag(capsys):
    # survival has no grid, so the step flag is gone: an unknown argument
    code, err = exit_code(["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
                           "--samples", "100", "--steps", "8"], capsys)
    assert code == 2
    assert "--steps" in err


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


def exact_region_cases(bad_flags):
    """theorem-check argvs and ids: the empty and the full region, each with one bad flag.

    Their RHS is exact, but its size flags are still checked.
    """
    cases = [(name, text, flag, value) for name, text in (("empty", ""), ("full", "0..1"))
             for flag, value in bad_flags]
    argvs = [["theorem-check", "--A", text, "--rho", "0.5", "--node-samples", "100",
              *_THEOREM_SMALL, flag, value] for _, text, flag, value in cases]
    return argvs, [f"{name}-region{flag[1:]}" for name, _, flag, _ in cases]


_EXACT_BAD = exact_region_cases([("--nodes", "0"), ("--node-samples", "1"),
                                 ("--node-steps", "0")])
_EXACT_CAP = exact_region_cases([("--nodes", str(NODE_CAP + 1)),
                                 ("--node-samples", str(SAMPLE_CAP + 1)),
                                 ("--node-steps", str(STEP_CAP + 1))])


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="no /dev/full device to fail a write")


@pytest.mark.parametrize("argv", [
    ["mc-phi", "--rho", "0.5", "--n-grid-list", "128,x", "--samples", "100"],
    ["sensitivity-curve", "--rho", "0.5", "--n-list", "8,1.5", "--samples", "100"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--t0", "1/32,zz",
     "--samples", "100"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--samples", "0"],
    ["consistency-check", "--A", "1/2..3/4", "--rho", "0.5", "--samples", "1"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "1",
     *_THEOREM_SMALL],
    ["discrete-phi", "--rho", "1", "--n", "8", "--samples", "100"],
    ["mc-phi", "--rho", "1", "--n-grid", "64", "--samples", "100"],
    ["theorem-check", "--rho", "1", "--node-samples", "100", *_THEOREM_SMALL],
    ["walsh-spectrum", "--n", "3", "--top", "0"],
    ["walsh-spectrum", "--n", "3", "--top", "-3"],
    ["discrete-phi", "--rho", "0.5", "--n", "8", "--samples", "100", "--seed", "-1"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "100",
     "--seed", "-1", *_THEOREM_SMALL],
    ["sensitivity-curve", "--rho", "1", "--n-list", "8,16", "--seed", "-1"],
    ["mc-phi", "--A", "x..1/2", "--rho", "0.5"],
    ["mc-phi", "--A", "1/0..1/2", "--rho", "0.5"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", "64",
     "--samples", "100", "--nodes", "2", "--node-samples", "100", "--node-steps", "0"],
    ["mc-phi", "--rho", "0.5", "--n-grid-list=", "--samples", "100"],
    ["mc-phi", "--rho", "0.5", "--n-grid-list", "64,1", "--samples", "100"],
    ["sensitivity-curve", "--rho", "1", "--n-list", "0,8", "--samples", "100"],
    ["sensitivity-curve", "--rho", "1", "--n-list", "8,16", "--samples", "1"],
    ["sensitivity-curve", "--rho", "1", "--n-list", "8,16", "--samples", "-5"],
    ["mc-phi", "--rho", "0.5", "--n-grid", "64", "--samples", "10",
     "--out", "/nonexistent/x"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "100",
     *_THEOREM_SMALL, "--factors-csv", "/nonexistent/x.csv"],
    # the open succeeds and the write fails
    pytest.param(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "100",
                  *_THEOREM_SMALL, "--out", "/dev/full"], marks=_NEEDS_DEV_FULL),
    pytest.param(["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-samples", "100",
                  *_THEOREM_SMALL, "--factors-csv", "/dev/full"], marks=_NEEDS_DEV_FULL),
    pytest.param(["sensitivity-curve", "--rho", "0.5", "--n-list", "8,16", "--samples", "100",
                  "--out", "/dev/full"], marks=_NEEDS_DEV_FULL),
    # a gap of 2^-60 vanishes in float, at 1 and between components
    ["theorem-check", "--A", "0..1152921504606846975/1152921504606846976", "--rho", "0.5",
     "--node-samples", "100", *_THEOREM_SMALL],
    ["theorem-check", "--A", "0..1/2,576460752303423489/1152921504606846976..1",
     "--rho", "0.5", "--node-samples", "100", *_THEOREM_SMALL],
    *_EXACT_BAD[0],
], ids=["n-grid-list", "n-list", "t0", "samples-0", "samples-1", "node-samples-1",
        "discrete-phi-rho-1", "mc-phi-rho-1", "theorem-check-rho-1", "top-0",
        "top-negative", "discrete-phi-seed-negative", "theorem-check-seed-negative",
        "sensitivity-curve-rho-one-seed-negative", "endpoint-not-a-number",
        "endpoint-zero-denominator", "node-steps-0", "n-grid-list-empty", "n-grid-list-1",
        "sensitivity-curve-rho-one-n-0", "sensitivity-curve-rho-one-samples-1",
        "sensitivity-curve-rho-one-samples-negative", "out-unwritable",
        "factors-csv-unwritable", "out-full", "factors-csv-full", "csv-out-full",
        "last-gap-vanishes", "inner-gap-vanishes", *_EXACT_BAD[1]])
def test_bad_input_exit_2(capsys, argv):
    code, err = exit_code(argv, capsys)
    assert code == 2
    assert err.splitlines()[0].startswith("error kind=domain")


def test_bad_start_time_is_named(capsys):
    code, err = exit_code(["consistency-check", "--A", "1/2..3/4", "--rho", "0.5",
                           "--t0", "1/32,2", "--samples", "100"], capsys)
    assert code == 2
    assert "start time 2.0" in err.splitlines()[0]


@pytest.mark.parametrize("tied_run, means, stderr", [
    (None, (1.0, 1.0), 0.0),
    (0, (1.0, 1.0), 0.0),
    (1, (1.0, 1.0), 0.0),
    (None, (0.5, 0.9), 0.001),
], ids=["no-ties", "lhs", "lhs-refined", "unstable-grid"])
def test_tie_flag_joins_verdict(monkeypatch, capsys, tied_run, means, stderr):
    """A tie flag on either grid of the one coupled run, or a grid bias beyond 4 sigma, fails the check."""
    runs = []

    def level(i):
        tied = i == tied_run
        return EstimateWithError(means[i], stderr, 100, seed=0,
                                 extra={"tie_fraction": 0.01 * tied, "tie_flag": tied})

    def direct_route(*args, refine=False, top_walks=None):
        runs.append(refine)
        est = level(0)
        est.extra["refined"] = level(1)
        est.extra["grid_bias"] = EstimateWithError(means[1] - means[0], stderr, 100, seed=0)
        return est

    monkeypatch.setattr(theorem, "argmin_coincidence", direct_route)
    # the other route agrees with the direct route on the grid
    monkeypatch.setattr(theorem, "rhs_integral",
                        lambda *args: EstimateWithError(means[0], stderr, 100, seed=0))
    code, out, _ = run_cli(["theorem-check", "--A", "", "--rho", "0.5",
                            "--check-stability"], capsys)
    results = json.loads(out)["results"]
    assert runs == [True] and results["discrepancy"] == 0.0
    assert results["grid_bias"] == {"estimate": means[1] - means[0], "stderr": stderr}
    assert results["lhs_refined"]["estimate"] == means[1]
    assert "refined" not in results["lhs"] and "grid_bias" not in results["lhs"]
    stable = means[0] == means[1]
    assert results["grid_stability_ok"] is stable
    assert results["pass"] is (tied_run is None and stable)
    assert code == (0 if tied_run is None and stable else 1)


def test_an_immaterial_grid_bias_passes_the_stability_check(capsys):
    # at n_grid 1024 and 40k samples the top level, 16 842 paired walks at
    # 2048 (the budget the levels up to 1024 leave), measures a bias of
    # about 1e-4 (3.2 of its stderrs), which no finite grid avoids.  Its
    # 4-sigma band is 0.72 of the allowance (a quarter of the combined
    # stderr, whose RHS part is the 8-node rule's error, 6.1e-4), so the
    # run is made again with the top level the check needs: its band is
    # below a quarter of the allowance, so the check fails on any bias
    # much above the allowance; this one is a small share of the
    # verdict's band, and the two routes agree
    code, out, _ = run_cli(["theorem-check", "--A", "1/4..1/2", "--rho", "0.9",
                            "--n-grid", "1024", "--samples", "40000", "--nodes", "8",
                            "--node-samples", "400", "--seed", "3", "--check-stability"], capsys)
    results = json.loads(out)["results"]
    bias, allowance = results["grid_bias"], results["grid_bias_allowance"]
    assert 0.0 < 4 * bias["stderr"] <= allowance / 4
    top = results["lhs_refined"]["levels"][-1]
    assert top["grid"] == 2048 and top["samples"] > 16842
    assert allowance == results["combined_stderr"] / 4
    assert abs(bias["estimate"]) - 4 * bias["stderr"] <= allowance
    assert results["grid_stability_ok"] is True and results["pass"] is True
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["mc-phi", "--rho", "0.5", "--n-grid", str(STEP_CAP + 1), "--samples", "100"],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--node-steps", str(STEP_CAP + 1),
     "--n-grid", "64", "--samples", "100", "--nodes", "2", "--node-samples", "100"],
    ["mc-phi", "--rho", "0.5", "--n-grid", "64", "--samples", str(SAMPLE_CAP + 1)],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--nodes", str(NODE_CAP + 1),
     "--n-grid", "64", "--samples", "100", "--node-steps", "8"],
    ["sensitivity-curve", "--rho", "1", "--n-list", f"8,{STEP_CAP + 1}", "--samples", "100"],
    ["sensitivity-curve", "--rho", "1", "--n-list", "8,16", "--samples", str(SAMPLE_CAP + 1)],
    ["theorem-check", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid", str(STEP_CAP // 2 + 1),
     "--check-stability", "--samples", "100", "--nodes", "2", "--node-samples", "100"],
    # a list is checked in full before its first entry runs
    ["mc-phi", "--A", "1/4..1/2", "--rho", "0.5", "--n-grid-list", f"4096,{STEP_CAP + 1}",
     "--samples", "100"],
    ["sensitivity-curve", "--rho", "0.5", "--n-list", f"4096,{STEP_CAP + 1}", "--samples", "100"],
    *_EXACT_CAP[0],
], ids=["steps", "node-steps", "samples", "nodes", "sensitivity-curve-rho-one-n",
        "sensitivity-curve-rho-one-samples", "doubled-grid", "n-grid-list",
        "sensitivity-curve-n", *_EXACT_CAP[1]])
def test_size_cap_exit_3(monkeypatch, capsys, argv):
    # every cap is checked before the first draw: neither the direct
    # route's walk nor the walk pairs' minima run
    def forbidden(*args):
        raise AssertionError("a draw came before the size checks")

    monkeypatch.setattr(coupled, "_coincidence_walk", forbidden)
    monkeypatch.setattr(coupled, "_pair_minima", forbidden)
    code, err = exit_code(argv, capsys)
    assert code == 3
    assert err.splitlines()[0].startswith("error kind=resource")
