"""Command-line front end: outputs, exit codes, determinism."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from ferrojet import solver
from ferrojet.cli import RunConfig, _make_parser, main, parse_config_file
from ferrojet.errors import ParameterError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_dispersion_outputs(tmp_path):
    rc = main(["dispersion", "--gamma", "5", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "dispersion_summary.json")
    assert summary["schema_version"] == "1"
    assert summary["regime"] == "strong"
    assert summary["c0_squared"] == 2.0
    header = (tmp_path / "dispersion.csv").read_text().splitlines()[0]
    assert header == "k,f,c2,g"


def test_dispersion_weak_summary(tmp_path):
    rc = main(["dispersion", "--gamma", "15", "--out", str(tmp_path)])
    assert rc == 0
    summary = read_json(tmp_path / "dispersion_summary.json")
    assert summary["regime"] == "weak"
    assert summary["omega"] == pytest.approx(2.675240200697746, abs=1e-9)


def test_validation_exit_code(tmp_path, capsys):
    rc = main(["dispersion", "--gamma", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"


def test_wnl_output(tmp_path):
    rc = main(["wnl", "--gamma", "5", "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json(tmp_path / "wnl.json")
    assert payload["d0"] == 0.875
    assert payload["extraction"]["max_rel_err"] <= 1e-8


def test_wnl_extraction_weak(tmp_path):
    rc = main(["wnl", "--gamma", "15", "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json(tmp_path / "wnl.json")
    assert payload["extraction"]["max_rel_err"] <= 1e-6
    assert payload["extraction"]["d_resolution"] == "f(omega)^2"


def test_wnl_rejects_critical(tmp_path):
    assert main(["wnl", "--gamma", "9", "--out", str(tmp_path)]) == 2


def test_solve_kdv(tmp_path):
    rc = main(["solve", "--branch", "kdv", "--gamma", "5",
               "--epsilon", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    report = read_json(tmp_path / "solve_kdv.json")["reports"][0]
    assert report["converged"] and report["final_residual"] <= 1e-9
    assert (tmp_path / "profile_kdv_eps0p1.csv").exists()
    assert (tmp_path / "eta_kdv_eps0p1.csv").exists()
    assert (tmp_path / "spectrum_kdv_eps0p1.csv").exists()
    solves = report["diagnostics"]["linear_solves"]
    assert len(solves) == len(report["residual_history"]) - 1
    assert all(entry["relative_residual"] <= solver.GMRES_RTOL for entry in solves)


def test_solve_epsilon_ladder_runs_in_ascending_order(tmp_path):
    rc = main(["solve", "--branch", "kdv", "--gamma", "5",
               "--epsilon", "0.2", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    reports = read_json(tmp_path / "solve_kdv.json")["reports"]
    assert [r["epsilon"] for r in reports] == [0.1, 0.2]  # ascending eps
    assert all(r["converged"] for r in reports)
    assert (tmp_path / "profile_kdv_eps0p2.csv").exists()


def test_solve_ladder_keeps_converged_rungs(tmp_path, capsys):
    # the eps = 0.5 rung fails; the two that converge are still written
    rc = main(["solve", "--branch", "gzcs", "--gamma", "5",
               "--epsilon", "0.5", "0.45", "0.1", "--out", str(tmp_path)])
    assert rc == 3
    reports = read_json(tmp_path / "solve_gzcs.json")["reports"]
    assert [r["epsilon"] for r in reports] == [0.1, 0.45, 0.5]
    assert [r["status"] for r in reports] == ["converged", "converged", "error"]
    assert all(r["converged"] and "diagnostics" in r for r in reports[:2])
    assert reports[2]["error"] == "ConvergenceError" and reports[2]["message"]
    # the failed rung keeps its partial Newton history
    history = reports[2]["residual_history"]
    assert len(history) >= 2 and len(reports[2]["linear_solves"]) == len(history)
    assert (tmp_path / "profile_gzcs_eps0p1.csv").exists()
    assert not (tmp_path / "profile_gzcs_eps0p5.csv").exists()
    (err,) = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert err["epsilon"] == 0.5 and err["error"] == "ConvergenceError"


def test_solve_flags_a_collapse_to_the_flat_state(tmp_path):
    # the cold NLS seed at gamma = 15, eps = 0.2 falls to eta = 0
    rc = main(["solve", "--branch", "gzcs", "--gamma", "15",
               "--epsilon", "0.2", "--out", str(tmp_path)])
    assert rc == 3
    (report,) = read_json(tmp_path / "solve_gzcs.json")["reports"]
    assert report["status"] == "flat_state" and report["converged"]
    assert report["diagnostics"]["amplitude_ratio"] < solver.FLAT_STATE_RATIO
    assert (tmp_path / "profile_gzcs_eps0p2.csv").exists()
    assert (tmp_path / "spectrum_gzcs_eps0p2.csv").exists()


def test_converge_does_not_count_a_collapsed_rung(tmp_path, capsys):
    # the eps = 0.2 rung converges to the flat state, as in the test above:
    # the ladder is partial, and the slope is fitted through the other two
    rc = main(["converge", "--branch", "gzcs", "--gamma", "15",
               "--epsilon", "0.2", "0.1", "0.05", "--out", str(tmp_path)])
    assert rc == 3
    assert read_json(tmp_path / "converge.json")["complete"] is False
    eps, converged = np.loadtxt(tmp_path / "converge.csv", delimiter=",",
                                skiprows=1, usecols=(0, 3), unpack=True)
    assert list(converged[eps == 0.2]) == [0.0]
    assert list(converged[eps != 0.2]) == [1.0, 1.0]
    assert "partial ladder" in capsys.readouterr().err


def test_converge_keeps_the_rungs_solve_keeps(tmp_path, capsys):
    # the eps = 0.3 seed crosses the rod (GeometryError); the ladder keeps
    # the two rungs that converge, writes solve's files and fits through them
    rc = main(["converge", "--branch", "gzcs", "--gamma", "5", "--law",
               "custom", "--nu2", "2.24", "--nu3", "0", "--epsilon", "0.3",
               "0.05", "0.025", "--out", str(tmp_path)])
    assert rc == 3
    assert read_json(tmp_path / "converge.json")["complete"] is False
    eps, error, residual, converged = np.loadtxt(
        tmp_path / "converge.csv", delimiter=",", skiprows=1, unpack=True)
    assert list(eps) == [0.3, 0.05, 0.025]  # descending, as before
    assert np.isnan(error[0]) and np.isnan(residual[0]) and converged[0] == 0.0
    assert np.all(np.isfinite(error[1:])) and list(converged[1:]) == [1.0, 1.0]
    reports = read_json(tmp_path / "solve_gzcs.json")["reports"]
    assert [r["status"] for r in reports] == ["converged", "converged", "error"]
    assert reports[2]["epsilon"] == 0.3
    assert reports[2]["error"] == "GeometryError" and reports[2]["message"]
    assert (tmp_path / "profile_gzcs_eps0p05.csv").exists()
    assert not (tmp_path / "profile_gzcs_eps0p3.csv").exists()
    err = capsys.readouterr().err.splitlines()
    (obj,) = [json.loads(line) for line in err if line.startswith("{")]
    assert obj["epsilon"] == 0.3 and obj["error"] == "GeometryError"
    assert "partial ladder" in err[-1]


def test_solve_keeps_a_strong_regime_wave_converged(tmp_path):
    rc = main(["solve", "--branch", "gzcs", "--gamma", "5",
               "--epsilon", "0.2", "--out", str(tmp_path)])
    assert rc == 0
    (report,) = read_json(tmp_path / "solve_gzcs.json")["reports"]
    assert report["status"] == "converged"
    assert report["diagnostics"]["amplitude_ratio"] > solver.FLAT_STATE_RATIO


def test_solve_error_entry_keeps_newton_history(tmp_path):
    # a single eps is solved in-process
    rc = main(["solve", "--branch", "gzcs", "--gamma", "5",
               "--epsilon", "0.5", "--out", str(tmp_path)])
    assert rc == 3
    (entry,) = read_json(tmp_path / "solve_gzcs.json")["reports"]
    # the rung fails at its fifth iterate, whose Jacobian is so ill-conditioned
    # that GMRES stalls near its 1e-12 tolerance: by stagnation if that solve
    # lands just below it, else by the GMRES miss
    assert entry["status"] == "error"
    assert re.match(r"Newton stagnation|GMRES missed", entry["message"])
    history = entry["residual_history"]
    assert len(history) >= 2 and len(entry["linear_solves"]) == len(history)
    assert history == sorted(history, reverse=True)


def test_solve_rejects_repeated_epsilon(tmp_path, capsys):
    rc = main(["solve", "--branch", "kdv", "--gamma", "5",
               "--epsilon", "0.3", "0.3", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    assert not (tmp_path / "solve_kdv.json").exists()


def test_converge_rejects_repeated_epsilon(tmp_path):
    # two distinct points would pass the "at least 3" check as three
    rc = main(["converge", "--branch", "kdv", "--gamma", "5",
               "--epsilon", "0.1", "0.1", "0.05", "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "converge.json").exists()


def test_solve_rejects_zero_epsilon(tmp_path):
    rc = main(["solve", "--branch", "gzcs", "--gamma", "5",
               "--epsilon", "0", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("branch", ["kdv", "nls+", "nls-"])
def test_solve_rejects_epsilon_above_envelope_bound(branch, tmp_path, capsys):
    # rejected while validating, before any output or solve
    out = tmp_path / "out"
    rc = main(["solve", "--branch", branch, "--gamma", "5", "--epsilon", "0.1",
               "0.4", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError" and "0.3" in err["message"]
    assert not out.exists()


def test_solve_rejects_cutoff_outside_reduction(tmp_path, capsys):
    # delta = 1.0 >= omega / 3 = 0.892 at gamma = 15
    rc = main(["solve", "--branch", "nls+", "--gamma", "15", "--epsilon", "0.1",
               "--delta", "1.0", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError" and "delta" in err["message"]
    assert not (tmp_path / "solve_nlsplus.json").exists()


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("branch, option", [
    ("gzcs", ["--delta", "50"]),
])
def test_rejects_option_the_branch_does_not_take(tmp_path, capsys, command,
                                                 branch, option):
    rc = main([command, "--branch", branch, "--gamma", "5", "--epsilon",
               "0.2", "0.1", "0.05", *option, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    assert option[0].lstrip("-") in err["message"]
    assert not list(tmp_path.glob("solve_*.json"))
    assert not (tmp_path / "converge.json").exists()


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("branch", ["kdv", "nls+", "nls-", "gzcs"])
def test_k_order_is_an_unknown_flag(tmp_path, capsys, command, branch):
    # the surface operator has one order, 2; argparse exits 2 on the flag
    gamma = "5" if branch in ("gzcs", "kdv") else "15"
    with pytest.raises(SystemExit) as info:
        main([command, "--branch", branch, "--gamma", gamma, "--epsilon",
              "0.2", "0.1", "0.05", "--k-order", "2", "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --k-order 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_k_order_is_an_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k_order = 2\n")
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--branch", "gzcs", "--gamma", "5",
               "--epsilon", "0.1", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    assert err["message"] == f"{cfg}:1: unknown key 'k_order'"
    assert not out.exists()


def test_readme_lists_the_parser_flags():
    parser = _make_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {opt for sub in subparsers.choices.values() for a in sub._actions
             for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("Flags:")
    listed = set(re.findall(r"--[a-z0-9][a-z0-9-]*",
                            readme[start:readme.index(". ", start)]))
    assert listed == flags


@pytest.mark.parametrize("option", [
    ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
    ["--grid-l", "nan"], ["--grid-l", "0"], ["--grid-n", "0"],
    ["--grid-n", "1"], ["--grid-n", "2"], ["--delta", "nan"],
    ["--nu2", "nan"], ["--nu2", "inf"], ["--nu3", "inf"],
], ids=lambda option: option[0].lstrip("-") + "=" + option[1])
def test_solve_rejects_bad_numbers(tmp_path, capsys, option):
    # unchecked, each runs a solve: to a stagnation (tol 0, -1, NaN), a NaN
    # residual (grid L NaN, a custom law's nu2 NaN or inf), one step (tol
    # inf), the default grid (grid L or N 0), a grid error inside the solve
    # (N 1 or 2), with delta NaN a converged flat state or, with nu3 inf
    # (KdV does not read it), a finished solve
    name, value = option[0].lstrip("-"), option[1]
    if name in ("nu2", "nu3"):
        option = ["--law", "custom", *option]
    rc = main(["solve", "--branch", "kdv", "--gamma", "5", "--epsilon", "0.1",
               *option, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    if name in ("nu2", "nu3"):  # named, not as the nu'(1) stencil it poisons
        assert err["message"] == f"law's {name} must be finite: got {value}"
    assert not list(tmp_path.glob("solve_*.json"))


@pytest.mark.parametrize("gamma", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["solve", "--branch", "kdv", "--epsilon", "0.1"],
    ["solve", "--branch", "nls+", "--epsilon", "0.1"],
    ["solve", "--branch", "nls-", "--epsilon", "0.1"],
    ["solve", "--branch", "gzcs", "--epsilon", "0.1"],
    ["dispersion"],
    ["wnl"],
], ids=lambda command: command[2] if command[0] == "solve" else command[0])
def test_rejects_non_finite_gamma(tmp_path, capsys, command, gamma):
    # unchecked, NaN failed g''(omega) > 0 (exit 3) and inf never left the
    # bisection for omega
    rc = main([*command, "--gamma", gamma, "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ParameterError"
    assert err["message"] == f"gamma must be finite and exceed 1, got {gamma}"
    assert not list(tmp_path.iterdir())


def test_branch_options_default_to_unset():
    assert RunConfig().delta is None
    RunConfig(branch="kdv", delta=2.0).validate()
    with pytest.raises(ParameterError):
        RunConfig(branch="gzcs", delta=2.0).validate()


def test_smallest_grid_n_is_four():
    RunConfig(grid_n=4).validate()  # SpectralGrid's smallest grid


def test_metadata_records_the_run_configuration(tmp_path):
    rc = main(["solve", "--branch", "kdv", "--gamma", "5", "--epsilon", "0.1",
               "--delta", "0.3", "--grid-n", "2048", "--out", str(tmp_path)])
    assert rc == 0
    config = read_json(tmp_path / "run_metadata.json")["config"]
    assert config["delta"] == 0.3 and config["grid_n"] == 2048
    assert config["grid_l"] is None and "k_order" not in config
    assert config["tol"] == 1e-10
    report = read_json(tmp_path / "solve_kdv.json")["reports"][0]
    assert report["grid"]["N"] == 2048


def test_gzcs_epsilon_bound_is_wider():
    RunConfig(branch="gzcs", epsilon=[0.4]).validate()
    RunConfig(branch="gzcs", epsilon=[solver.TRAVELLING_WAVE_EPS_MAX]).validate()
    with pytest.raises(ParameterError):
        RunConfig(branch="gzcs", epsilon=[0.6]).validate()


def test_checks_suite_passes(tmp_path, capsys):
    rc = main(["checks", "--suite", "specfun", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in out
    lines = (tmp_path / "checks_specfun.csv").read_text().splitlines()
    assert lines[0] == "name,value,target,error,tol,passed"
    assert all(line.endswith(",1") for line in lines[1:])


def test_checks_greens_rows_identify_parameters(tmp_path):
    import csv

    rc = main(["checks", "--suite", "greens", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "checks_greens.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert any("k=20.0, r=0.9" in r["name"] for r in rows)
    assert all(float(r["passed"]) == 1.0 for r in rows)


def test_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "gamma = 7.0\n"
        "law = linear\n"
        "epsilon = 0.2 0.1\n"
    )
    outdir = tmp_path / "out"
    rc = main(["dispersion", "--config", str(cfg), "--out", str(outdir)])
    assert rc == 0
    assert read_json(outdir / "dispersion_summary.json")["gamma"] == 7.0
    # command line wins over the file
    rc = main(["dispersion", "--config", str(cfg), "--gamma", "5",
               "--out", str(outdir)])
    assert read_json(outdir / "dispersion_summary.json")["gamma"] == 5.0


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma = 5\nwhatever = 3\n")
    with pytest.raises(ParameterError):
        parse_config_file(cfg)


def test_deterministic_outputs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["dispersion", "--gamma", "7", "--out", str(d)]) == 0
    assert (d1 / "dispersion.csv").read_bytes() == (d2 / "dispersion.csv").read_bytes()
    assert (d1 / "dispersion_summary.json").read_bytes() == (
        d2 / "dispersion_summary.json"
    ).read_bytes()


def test_float_round_trip_precision(tmp_path):
    assert main(["dispersion", "--gamma", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "dispersion.csv").read_text().splitlines()
    k, f, c2, g = (float(tok) for tok in lines[2].split(","))
    from ferrojet.dispersion import make_profile

    p = make_profile(5.0)
    assert f == p.f(k)  # 17 significant digits round-trip exactly
    assert c2 == p.c2(k)


@pytest.mark.parametrize("branch, gamma, extra", [
    ("kdv", "5", ["--delta", "2"]),
    ("nls+", "15", []),
])
def test_reconstructed_eta_has_one_wave_on_a_short_envelope_box(
        tmp_path, branch, gamma, extra):
    # the reconstruction box must be the envelope's own: on a wider one the
    # periodic envelope repeats and a second wave shows at the box edge
    rc = main(["solve", "--branch", branch, "--gamma", gamma, "--epsilon", "0.1",
               "--grid-l", "20", *extra, "--out", str(tmp_path)])
    assert rc == 0
    tag = branch.replace("+", "plus")
    z, eta = np.loadtxt(tmp_path / f"eta_{tag}_eps0p1.csv", delimiter=",",
                        skiprows=1, unpack=True)
    L = -z[0]
    peak = np.max(np.abs(eta))
    assert np.max(np.abs(eta[np.abs(z) > 0.75 * L])) <= 1e-2 * peak
