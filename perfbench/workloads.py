"""Workload inputs, one pass over each workload's solves, and its correctness gate.

A workload is a fixed list of solves.  The seed only jitters gamma by at
most ``GAMMA_JITTER``, a range that keeps every grid size fixed, so each
seed times the same amount of work on slightly different inputs.  Seed 0
gives the nominal parameters.
"""

from __future__ import annotations

import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ferrojet import cli, solver
from ferrojet.wnl import MagnetizationLaw

NAMES = ("gzcs_ladder", "envelope_ladder", "bvp_oracle")

GAMMA_STRONG = 5.0
GAMMA_WEAK = 15.0
# The weak-regime grid at eps = 0.2 keeps N = 1024 for gamma <= 15.25 and
# doubles at 15.5; 0.2 stays inside that range on both sides.
GAMMA_JITTER = 0.2

DEFECT_TOL = 1e-12  # even_defect / subspace_defect (acceptance criteria 8, 9)
ORACLE_GAP_TOL = 1e-4  # acceptance criterion 9
TOL = 1e-10  # the solvers' default; criterion 9 also runs the oracle at it

LAW = MagnetizationLaw.linear()


@dataclass(frozen=True)
class Solve:
    label: str
    branch: str  # "gzcs", "gzcs-oracle", "kdv", "nls+" or "nls-"
    gamma: float
    eps: float


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    solves: tuple
    # labels in decreasing eps; the deviation must decrease along each
    ladders: tuple = ()


@dataclass
class Result:
    """One solve of one pass, as the gate and the size record need it."""

    solve: Solve
    seconds: float = 0.0
    converged: bool = False
    iterations: int = 0
    n: int = 0
    dim: int = 0
    deviation: float = float("nan")
    defect: float = float("nan")
    solution: bytes = b""
    error: str = ""
    failures: list = field(default_factory=list)


def _gammas(seed: int) -> tuple:
    if seed == 0:
        return GAMMA_STRONG, GAMMA_WEAK
    rng = random.Random(seed)
    return (GAMMA_STRONG + rng.uniform(-GAMMA_JITTER, GAMMA_JITTER),
            GAMMA_WEAK + rng.uniform(-GAMMA_JITTER, GAMMA_JITTER))


def make_inputs(name: str, seed: int) -> Workload:
    """The workload's solves for this seed."""
    gs, gw = _gammas(seed)
    if name == "gzcs_ladder":
        solves = [Solve(f"gzcs g{gs:.4f} e{e:g}", "gzcs", gs, e)
                  for e in (0.2, 0.1, 0.05)]
        solves.append(Solve(f"gzcs g{gw:.4f} e0.2", "gzcs", gw, 0.2))
        ladders = (tuple(s.label for s in solves[:3]),)
    elif name == "envelope_ladder":
        solves = [Solve(f"kdv g{gs:.4f} e{e:g}", "kdv", gs, e)
                  for e in (0.3, 0.2, 0.1, 0.05)]
        for branch in ("nls+", "nls-"):
            solves += [Solve(f"{branch} g{gw:.4f} e{e:g}", branch, gw, e)
                       for e in (0.2, 0.1, 0.05)]
        ladders = tuple(tuple(s.label for s in solves if s.branch == b)
                        for b in ("kdv", "nls+", "nls-"))
    elif name == "bvp_oracle":
        solves = [Solve(f"gzcs g{gs:.4f} e0.1", "gzcs", gs, 0.1),
                  Solve(f"oracle g{gs:.4f} e0.1", "gzcs-oracle", gs, 0.1)]
        ladders = ()
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return Workload(name, seed, tuple(solves), ladders)


# -- one solve -------------------------------------------------------------------


def _run_direct(s: Solve, res: Result) -> None:
    rep = solver.solve_travelling_wave(
        s.gamma, LAW, s.eps, dn_oracle=s.branch == "gzcs-oracle", tol=TOL)
    res.converged = bool(rep.converged)
    res.iterations = int(rep.iterations)
    res.n = rep.solution.grid.N
    res.dim = res.n // 2 + 1  # even (cosine) subspace
    res.deviation = float(rep.diagnostics["normalized_deviation"])
    res.defect = float(rep.diagnostics["even_defect"])
    res.solution = rep.solution.values.tobytes()


def _run_cli(s: Solve, res: Result, outdir: Path) -> None:
    """``ferrojet solve`` in-process; one eps per call, so no worker pool starts."""
    outdir.mkdir(parents=True)
    argv = ["solve", "--branch", s.branch, "--gamma", repr(s.gamma),
            "--epsilon", repr(s.eps), "--out", str(outdir)]
    if s.branch == "kdv":
        argv += ["--delta", "2"]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ferrojet solve exited with code {code}")
    tag = s.branch.replace("+", "plus").replace("-", "minus")
    (rep,) = json.loads((outdir / f"solve_{tag}.json").read_text())["reports"]
    diag = rep["diagnostics"]
    res.converged = bool(rep["converged"])
    res.iterations = int(rep["iterations"])
    res.n = int(rep["grid"]["N"])
    if s.branch == "kdv":
        res.dim = res.n // 2 + 1
        res.deviation = float(diag["deviation_from_kdv"])
        res.defect = float(diag["even_defect"])
    else:
        res.dim = res.n  # conjugate-even subspace: N real coordinates
        res.deviation = float(diag["deviation_from_nls"])
        res.defect = float(diag["subspace_defect"])
    # the CSV holds every value to 17 significant digits, so equal bytes
    # mean bit-identical profiles
    res.solution = b"".join(
        (outdir / f"{kind}_{tag}_eps{('%g' % s.eps).replace('.', 'p')}.csv").read_bytes()
        for kind in ("profile", "eta")
    )


def bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def run_pass(work: Workload, outdir: Path) -> list:
    """Every solve of the workload under its own ``try``, then the gate."""
    results = []
    for i, s in enumerate(work.solves):
        res = Result(s)
        t0 = time.perf_counter()
        try:
            if s.branch in ("gzcs", "gzcs-oracle"):
                _run_direct(s, res)
            else:
                _run_cli(s, res, outdir / f"solve{i}")
        except Exception as exc:  # a failed solve is counted, not fatal to the pass
            traceback.print_exc(file=sys.stderr)
            res.error = f"{type(exc).__name__}: {exc}"
        res.seconds = time.perf_counter() - t0
        results.append(res)
    gate(work, results)
    return results


# -- correctness gate -------------------------------------------------------------


def gate(work: Workload, results: list) -> None:
    """Fill ``failures`` of each result; a solve with any failure counts as failed."""
    by_label = {r.solve.label: r for r in results}
    for r in results:
        if r.error:
            r.failures.append(f"raised {r.error}")
            continue
        if not r.converged:
            r.failures.append("did not converge")
        if not r.defect <= DEFECT_TOL:
            r.failures.append(f"symmetry defect {r.defect:.2e} > {DEFECT_TOL:g}")
    for ladder in work.ladders:
        for prev, cur in zip(ladder, ladder[1:]):
            a, b = by_label[prev], by_label[cur]
            if not b.deviation < a.deviation:
                b.failures.append(
                    f"deviation {b.deviation:.4g} does not drop below "
                    f"{a.deviation:.4g} of {prev}")
    if work.name == "bvp_oracle":
        plain, oracle = results
        if plain.solution and oracle.solution:
            gap = float(np.max(np.abs(
                np.frombuffer(oracle.solution) - np.frombuffer(plain.solution))))
        else:
            gap = float("inf")
        if not gap <= ORACLE_GAP_TOL:
            oracle.failures.append(f"oracle gap {gap:.2e} > {ORACLE_GAP_TOL:g}")
