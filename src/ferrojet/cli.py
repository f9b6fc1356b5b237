"""Command-line front end: configuration, orchestration, plot-ready output.

Subcommands
    dispersion   tabulate f, c^2, g over a wavenumber grid + regime summary
    wnl          weakly nonlinear constants + operator-extraction comparison
    solve        Newton solves (kdv | nls+ | nls- | gzcs) over an epsilon
                 ladder, one rung after another in ascending epsilon
    converge     solve's ladder, then the error slope fitted over its rungs
    checks       oracle suites with a pass/fail table

Configuration comes from an optional flat key = value file (# comments)
overridden by command-line flags.  Data files are deterministic: floats are
written with 17 significant digits and carry no timestamps; the single
run_metadata.json holds the wall-clock stamp.

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Errors are
mirrored as one JSON object on stderr.  ``solve`` and ``converge`` run one
ladder, which keeps the rungs that converged: each failed epsilon gets its
own stderr object and an ``error`` entry in ``solve_*.json``, and the exit
code is still 3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import checks as checks_mod
from . import solver
from .dispersion import make_profile
from .errors import (
    ConvergenceError,
    ExistenceError,
    GeometryError,
    GridError,
    ParameterError,
    RegimeError,
)
from .operators import extract_wnl_coefficients
from .specfun import f_ratio
from .spectral import SpectralField, SpectralGrid
from .wnl import MagnetizationLaw, wnl_coeffs

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

_VALIDATION_ERRORS = (ParameterError, RegimeError, GridError)
_NUMERICAL_ERRORS = (ConvergenceError, ExistenceError, GeometryError)
BRANCHES = ("kdv", "nls+", "nls-", "gzcs")
LAWS = ("linear", "custom")


def _fmt(x) -> str:
    return "%.17g" % float(x)


@dataclass
class RunConfig:
    gamma: float = 5.0
    law_kind: str = "linear"
    nu2: float = 1.0
    nu3: float = 0.0
    epsilon: list = field(default_factory=lambda: [0.1])
    grid_l: Optional[float] = None
    grid_n: Optional[int] = None
    delta: Optional[float] = None
    branch: str = "kdv"
    suite: str = "specfun"
    tol: float = 1e-10
    out: Path = Path(".")

    def law(self) -> MagnetizationLaw:
        """The configured law; ``validate`` has checked a custom one."""
        if self.law_kind == "custom":
            return MagnetizationLaw.from_derivatives(self.nu2, self.nu3)
        return MagnetizationLaw.linear()

    def validate(self) -> None:
        # a config file's names, which no parser choices have checked
        for key, value, choices in (("branch", self.branch, BRANCHES),
                                    ("suite", self.suite, tuple(checks_mod.SUITES)),
                                    ("law", self.law_kind, LAWS)):
            if value not in choices:
                raise ParameterError(f"{key} must be one of "
                                     f"{', '.join(choices)}; got {value!r}")
        if not 1.0 < self.gamma < np.inf:  # NaN fails too
            raise ParameterError(f"gamma must be finite and exceed 1, got {self.gamma}")
        # a law is checked here, before any output, whether or not the
        # command reads it; the linear law has nu2 = 1 and nu3 = 0 only
        if self.law_kind == "custom":
            self.law().validate()
        elif (self.nu2, self.nu3) != (1.0, 0.0):  # NaN differs too
            raise ParameterError(
                f"the linear law has nu2 = 1 and nu3 = 0, got nu2 = {self.nu2}, "
                f"nu3 = {self.nu3}; use --law custom")
        eps_max = (solver.TRAVELLING_WAVE_EPS_MAX if self.branch == "gzcs"
                   else solver.ENVELOPE_EPS_MAX)
        if len(set(self.epsilon)) != len(self.epsilon):
            raise ParameterError(f"epsilon values must be distinct, got {self.epsilon}")
        for eps in self.epsilon:
            if not (0.0 < eps <= eps_max):
                raise ParameterError(
                    f"epsilon must lie in (0, {eps_max:g}] for branch "
                    f"{self.branch!r}, got {eps}"
                )
        # SpectralGrid's own rule; N = 0 would fall back to the default N
        if self.grid_n is not None and (self.grid_n < 4
                                        or self.grid_n & (self.grid_n - 1)):
            raise ParameterError(
                f"grid N must be a power of two >= 4, got {self.grid_n}")
        # written as "not > 0" so that NaN fails too
        if self.delta is not None and not self.delta > 0.0:
            raise ParameterError("delta must be positive")
        solver._check_tol(self.tol)
        if self.grid_l is not None and not 0.0 < self.grid_l < np.inf:
            raise ParameterError(
                f"grid L must be finite and positive, got {self.grid_l}")
        # an option the branch does not take is an error, not a no-op
        if self.branch == "gzcs" and self.delta is not None:
            raise ParameterError("delta (the envelope cutoff width) does not "
                                 "apply to branch 'gzcs'")


_CONFIG_FLOAT = {"gamma", "nu2", "nu3", "delta", "tol", "grid_l"}


def parse_config_file(path: Path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; keys match flags."""
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "epsilon":
            out[key] = [float(tok) for tok in value.replace(",", " ").split()]
        elif key in _CONFIG_FLOAT:
            out[key] = float(value)
        elif key == "grid_n":
            out[key] = int(value)
        elif key in {"law", "law_kind"}:
            out["law_kind"] = value
        elif key in {"branch", "suite", "out"}:
            out[key] = value
        else:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
    return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in parse_config_file(Path(args.config)).items():
            setattr(cfg, key, Path(value) if key == "out" else value)
    for key in ("gamma", "nu2", "nu3", "grid_l", "grid_n", "delta", "tol",
                "branch", "suite"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "law", None) is not None:
        cfg.law_kind = args.law
    if getattr(args, "epsilon", None):
        cfg.epsilon = list(args.epsilon)
    if getattr(args, "out", None) is not None:
        cfg.out = Path(args.out)
    cfg.validate()
    return cfg


# -- output helpers --------------------------------------------------------------


def _write_csv(path: Path, header: list, columns: list) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_metadata(outdir: Path, command: str, cfg: RunConfig) -> None:
    # every setting but the output directory, so none can be left out
    config = asdict(cfg)
    del config["out"]
    config["law"] = config.pop("law_kind")
    meta = {
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "config": config,
    }
    _write_json(outdir / "run_metadata.json", meta)


def _field_csv(path: Path, field_obj: SpectralField, axis_name: str) -> None:
    vals = field_obj.values
    if np.iscomplexobj(vals):
        _write_csv(path, [axis_name, "re", "im"],
                   [field_obj.grid.z, vals.real, vals.imag])
    else:
        _write_csv(path, [axis_name, "value"], [field_obj.grid.z, vals])


def _spectrum_csv(path: Path, field_obj: SpectralField) -> None:
    order = np.argsort(field_obj.grid.k)
    c = field_obj.coeffs[order]
    _write_csv(path, ["k", "re", "im"],
               [field_obj.grid.k[order], c.real, c.imag])


def _eps_tag(eps: float) -> str:
    return ("%g" % eps).replace(".", "p")


# -- subcommands -----------------------------------------------------------------


def cmd_dispersion(cfg: RunConfig) -> int:
    profile = make_profile(cfg.gamma)
    k_hi = max(10.0, 3.0 * profile.omega + 5.0)
    k = np.linspace(0.0, k_hi, 2001)
    _write_csv(cfg.out / "dispersion.csv", ["k", "f", "c2", "g"],
               [k, f_ratio(k), profile.c2(k), profile.g(k)])
    _write_json(cfg.out / "dispersion_summary.json", {
        "gamma": cfg.gamma,
        "regime": profile.regime.value,
        "omega": profile.omega,
        "c0_squared": profile.c0_squared,
        "solvable": profile.solvable,
    })
    return EXIT_OK


def cmd_wnl(cfg: RunConfig) -> int:
    law = cfg.law()
    coeffs = wnl_coeffs(cfg.gamma, law)
    record = extract_wnl_coefficients(cfg.gamma, law)
    # gamma, regime and omega are the coefficients' own; the record repeats them
    extraction = asdict(record)
    for key in ("gamma", "regime", "omega"):
        del extraction[key]
    extraction["max_rel_err"] = record.max_rel_err
    payload = {**asdict(coeffs), "regime": coeffs.regime.value,
               "extraction": extraction}
    _write_json(cfg.out / "wnl.json", payload)
    return EXIT_OK


def _report_payload(rep: solver.SolveReport, gamma: float) -> dict:
    diag = {
        k: (float(v) if np.isscalar(v) and not isinstance(v, str) else v)
        for k, v in rep.diagnostics.items()
    }
    return {
        "branch": rep.branch,
        "gamma": gamma,
        "epsilon": rep.epsilon,
        "converged": rep.converged,
        "iterations": rep.iterations,
        "final_residual": rep.final_residual,
        "final_residual_l2": rep.final_residual_l2,
        "residual_history": [float(r) for r in rep.residual_history],
        "grid": {"L": rep.solution.grid.L, "N": rep.solution.grid.N},
        "diagnostics": diag,
    }


def _solve_one(cfg: RunConfig, branch: str, eps: float):
    law = cfg.law()
    grid = None
    if cfg.grid_l is not None or cfg.grid_n is not None:
        # each flag replaces its own dimension of the grid the solver would
        # choose; the solver's regime check runs first, so gamma = 9 reports
        # its RegimeError, not wave_grid's missing carrier
        auto = (solver.wave_grid(solver.travelling_wave_profile(cfg.gamma), eps,
                                 solver.DEFAULT_SCALED_L)
                if branch == "gzcs" else solver.default_scaled_grid())
        grid = SpectralGrid.make(cfg.grid_l or auto.L, cfg.grid_n or auto.N)
    if branch == "kdv":
        kwargs = {} if cfg.delta is None else {"delta": cfg.delta}
        rep = solver.solve_full_dispersion_kdv(cfg.gamma, law, eps, grid=grid,
                                               tol=cfg.tol, **kwargs)
    elif branch in ("nls+", "nls-"):
        sign = +1 if branch.endswith("+") else -1
        rep = solver.solve_full_dispersion_nls(cfg.gamma, law, eps, sign,
                                               grid=grid, delta=cfg.delta,
                                               tol=cfg.tol)
    else:
        rep = solver.solve_travelling_wave(cfg.gamma, law, eps, grid=grid,
                                           tol=cfg.tol)
    return rep


def _reconstruct_for_report(cfg, rep, eps):
    # the target box is the envelope's own, eps z in [-L, L): a wider one
    # would show the periodic envelope's next copy as a second wave
    profile = make_profile(cfg.gamma)
    target = solver.wave_grid(profile, eps, rep.solution.grid.L)
    return solver.reconstruct_eta(rep.solution, eps, profile.regime,
                                  profile.omega, target)


def _run_ladder(cfg: RunConfig) -> list:
    """Solve each eps in ascending order, write each solved rung's CSVs and
    every rung's entry in ``solve_*.json``, and return the entries; a rung
    that raises is reported on stderr and the others kept."""
    branch = cfg.branch
    tag = branch.replace("+", "plus").replace("-", "minus")
    reports = []
    for eps in sorted(cfg.epsilon):
        try:
            rep = _solve_one(cfg, branch, eps)
        except _NUMERICAL_ERRORS as exc:
            error = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps({"epsilon": eps, **error}), file=sys.stderr)
            if isinstance(exc, ConvergenceError):
                error["residual_history"] = [float(r) for r in exc.residual_history]
                error["linear_solves"] = exc.linear_solves
            reports.append({"branch": branch, "gamma": cfg.gamma,
                            "epsilon": eps, "status": "error", **error})
            continue
        eps_tag = _eps_tag(eps)
        axis = "Z" if branch != "gzcs" else "z"
        _field_csv(cfg.out / f"profile_{tag}_eps{eps_tag}.csv", rep.solution, axis)
        _spectrum_csv(cfg.out / f"spectrum_{tag}_eps{eps_tag}.csv", rep.solution)
        if branch != "gzcs":
            eta = _reconstruct_for_report(cfg, rep, eps)
            _field_csv(cfg.out / f"eta_{tag}_eps{eps_tag}.csv", eta, "z")
        reports.append({**_report_payload(rep, cfg.gamma),
                        "status": solver.rung_status(rep)})
    _write_json(cfg.out / f"solve_{tag}.json", {"reports": reports})
    return reports


def cmd_solve(cfg: RunConfig) -> int:
    failed = any(r["status"] != "converged" for r in _run_ladder(cfg))
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_converge(cfg: RunConfig) -> int:
    """``solve``'s ladder, then the error slope fitted over its rungs."""
    if len(cfg.epsilon) < 3:
        raise ParameterError("converge needs at least 3 epsilon values")
    branch = cfg.branch
    error_key = {
        "kdv": "deviation_from_kdv",
        "nls+": "deviation_from_nls",
        "nls-": "deviation_from_nls",
        "gzcs": "normalized_deviation",
    }[branch]
    rungs = _run_ladder(cfg)[::-1]  # descending eps, as converge.csv lists them
    study = solver.convergence_study(
        [r["epsilon"] for r in rungs],
        [r["diagnostics"][error_key] if "diagnostics" in r else np.nan
         for r in rungs],
        [r.get("final_residual", np.nan) for r in rungs],
        [r["status"] == "converged" for r in rungs],
    )
    _write_csv(cfg.out / "converge.csv",
               ["epsilon", "error", "residual", "converged"],
               [study.epsilons, study.errors, study.residuals,
                [float(c) for c in study.converged]])
    _write_json(cfg.out / "converge.json", {
        "branch": branch,
        "gamma": cfg.gamma,
        "error_key": error_key,
        "slope": study.slope,
        "fit_residual": study.fit_residual,
        "complete": study.complete,
    })
    if not study.complete:
        print("warning: partial ladder (some solves failed)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_checks(cfg: RunConfig) -> int:
    import csv
    import io

    rows = checks_mod.run_suite(cfg.suite)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "target", "error", "tol", "passed"])
    for r in rows:
        writer.writerow([r.name, _fmt(r.value), _fmt(r.target), _fmt(r.error),
                         _fmt(r.tol), _fmt(float(r.passed))])
    (cfg.out / f"checks_{cfg.suite}.csv").write_text(buf.getvalue())
    n_fail = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.suite}: {r.name} (error={r.error:.3e}, tol={r.tol:g})")
        n_fail += 0 if r.passed else 1
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    return EXIT_NUMERICAL if n_fail else EXIT_OK


# -- entry point -------------------------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferrojet",
        description="Solitary waves on a ferrofluid jet: dispersion, "
                    "weakly nonlinear constants, Newton solves, oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--gamma", type=float)
        p.add_argument("--law", choices=LAWS)
        p.add_argument("--nu2", type=float)
        p.add_argument("--nu3", type=float)
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: current)")

    p = sub.add_parser("dispersion", help="dispersion relation tables")
    common(p)

    p = sub.add_parser("wnl", help="weakly nonlinear constants + extraction")
    common(p)

    for name in ("solve", "converge"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--branch", choices=BRANCHES, default=None)
        p.add_argument("--epsilon", type=float, nargs="+")
        p.add_argument("--grid-n", dest="grid_n", type=int)
        p.add_argument("--grid-l", dest="grid_l", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--tol", type=float)

    p = sub.add_parser("checks", help="oracle check suites")
    common(p)
    p.add_argument("--suite", choices=sorted(checks_mod.SUITES), default=None)
    return parser


_COMMANDS = {
    "dispersion": cmd_dispersion,
    "wnl": cmd_wnl,
    "solve": cmd_solve,
    "converge": cmd_converge,
    "checks": cmd_checks,
}


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        _write_metadata(cfg.out, args.command, cfg)
        return _COMMANDS[args.command](cfg)
    except _VALIDATION_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
