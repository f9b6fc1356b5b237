"""Outside-in layer trace of ferrojet.

No program code changes: ``Tracer.install`` replaces public functions and
methods of the ferrojet modules, and numpy's FFT entry points, with wrappers
that record a span per call, and ``Tracer.restore`` puts the originals back.
Each span keeps its parent's id, so self times follow from the spans; all
spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict

import numpy as np

from ferrojet import cli, dispersion, dno, operators, solver, spectral, wnl
from ferrojet.specfun import besseli, besselk


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "work")

    def __init__(self, sid, parent, name):
        self.id, self.parent, self.name = sid, parent, name
        self.t0 = self.t1 = 0.0
        self.work = 0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, work=None):
        """``fn`` recording one span per call; ``work(args, kwargs, out)`` counts its work."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name)
            spans.append(span)
            stack.append(span.id)
            span.t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, work=None, wrap=None):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        fn = original if wrap is None else wrap(original)
        setattr(owner, attr, self.wrap(fn, name, work))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _traced_problem(self, factory):
        """A problem factory whose problems trace their residual and Jacobian calls."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            p = factory(*args, **kwargs)
            p.residual = self.wrap(p.residual, "solver.residual")
            p.jv_batch = self.wrap(p.jv_batch, "solver.jv_batch")
            if p.prepare is not None:
                p.prepare = self.wrap(p.prepare, "solver.prepare")
            if p.geometry_ok is not None:
                p.geometry_ok = self.wrap(p.geometry_ok, "solver.geometry_ok")
            return p

        return make

    def install(self) -> None:
        for fname, real in (("fft", False), ("ifft", False),
                            ("rfft", True), ("irfft", True)):
            self.patch(np.fft, fname, "spectral.fft", _fft_work(fname, real))
        self.patch(spectral.SpectralGrid, "product_values", "spectral.product",
                   _product_rows)

        self.patch(operators, "wave_residual", "operators.residual")
        self.patch(operators, "pressure_jacobian_fields", "operators.linearize")
        self.patch(operators.KineticLinearization, "__init__", "operators.linearize")
        self.patch(operators, "pressure_jvp", "operators.jv")
        self.patch(operators.KineticLinearization, "apply", "operators.jv",
                   lambda a, k, out: _rows(a[1]))

        self.patch(dno.SolutionOperator, "__init__", "dno.build")
        self.patch(dno, "greens_kernel", "dno.greens_kernel",
                   lambda a, k, out: out["G"].size)
        self.patch(dno, "solve_flattened_bvp", "dno.bvp_solve")
        self.patch(dno.SolutionOperator, "apply", "dno.sweep")

        for fname in ("kdv_problem", "fd_kdv_problem", "fd_nls_problem",
                      "travelling_wave_problem"):
            self.patch(solver, fname, "solver.problem", wrap=self._traced_problem)
        self.patch(solver.SolverProblem, "assemble_jacobian", "solver.assemble",
                   lambda a, k, out: a[0].dim)
        for fname in ("solve_stationary_kdv", "solve_full_dispersion_kdv",
                      "solve_full_dispersion_nls", "solve_travelling_wave"):
            self.patch(solver, fname, "solver.solve",
                       lambda a, k, out: out.iterations)
        self.patch(solver, "reconstruct_eta", "solver.reconstruct")

        # by-name imports: each module holds its own reference
        for mod in (dispersion, solver, wnl, cli):
            self.patch(mod, "make_profile", "dispersion.make_profile")
        for fname in ("kdv_coeffs", "nls_coeffs"):
            self.patch(solver, fname, "wnl.coeffs")

        self.patch(cli, "main", "cli.main")


def _rows(a) -> int:
    shape = np.shape(a)
    return math.prod(shape[:-1])


def _product_rows(args, kwargs, out) -> int:
    factors = args[1]
    rows = math.prod(np.broadcast_shapes(*(np.shape(f)[:-1] for f in factors)))
    return rows * len(factors)


def _fft_work(fname, real):
    """(points, flops) of one call: 5 n log2 n per complex transform, half that per real one."""
    per_point = 2.5 if real else 5.0

    def work(args, kwargs, out):
        axis = kwargs.get("axis", -1)
        n = kwargs.get("n") or (np.shape(args[0])[axis] if fname == "rfft"
                                else out.shape[axis])
        rows = out.size // out.shape[axis]
        return (rows * n, rows * per_point * n * math.log2(n))

    return work


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(spans) -> dict:
    """Per-layer numbers from one traced pass (name -> (value, unit))."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum((s.seconds for s in by_name[name]), 0.0)

    def work(name, i=None):
        return sum(s.work if i is None else s.work[i] for s in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def solve_time_below(span):
        out = 0.0
        for c in children[span.id]:
            out += c.seconds if c.name == "solver.solve" else solve_time_below(c)
        return out

    sweeps, bvps = calls("dno.sweep"), calls("dno.bvp_solve")
    iters, res_evals = work("solver.solve"), calls("solver.residual")
    dirs = work("operators.jv")  # pressure_jvp spans count 0, apply spans their rows
    return {
        "dno.build.calls": (calls("dno.build"), "count"),
        "dno.build_s": (total("dno.build"), "s"),
        "dno.greens_kernel_s": (total("dno.greens_kernel"), "s"),
        "dno.greens_kernel.points": (work("dno.greens_kernel"), "count"),
        "dno.bvp_solves": (bvps, "count"),
        "dno.sweeps": (sweeps, "count"),
        "dno.sweep_ms": (1e3 * ratio(total("dno.sweep"), sweeps), "ms"),
        "dno.sweeps_per_bvp": (ratio(sweeps, bvps), "ratio"),
        "spectral.product.calls": (calls("spectral.product"), "count"),
        "spectral.product.rows": (work("spectral.product"), "count"),
        "spectral.product_s": (total("spectral.product"), "s"),
        "spectral.fft.calls": (calls("spectral.fft"), "count"),
        "spectral.fft.points": (work("spectral.fft", 0), "count"),
        "spectral.fft_s": (total("spectral.fft"), "s"),
        "spectral.fft.gflop_computed": (1e-9 * work("spectral.fft", 1), "GFLOP"),
        "operators.jv.dirs": (dirs, "count"),
        "operators.jv_ms_per_dir": (1e3 * ratio(total("operators.jv"), dirs), "ms"),
        "operators.linearize_s": (total("operators.linearize"), "s"),
        "operators.residual.calls": (calls("operators.residual"), "count"),
        "operators.residual_s": (total("operators.residual"), "s"),
        "solver.newton_iters": (iters, "count"),
        "solver.assemblies": (calls("solver.assemble"), "count"),
        "solver.assemble_s": (total("solver.assemble"), "s"),
        "solver.jv_ms_per_dir": (
            1e3 * ratio(total("solver.assemble"), work("solver.assemble")), "ms"),
        "solver.residual_evals": (res_evals, "count"),
        "solver.step_accept_ratio": (ratio(iters, res_evals), "ratio"),
        "solver.self_s": (sum((s.seconds - sum(c.seconds for c in children[s.id])
                               for s in by_name["solver.solve"]), 0.0), "s"),
        "dispersion.make_profile.calls": (calls("dispersion.make_profile"), "count"),
        "dispersion.make_profile_s": (total("dispersion.make_profile"), "s"),
        "wnl.coeffs_s": (total("wnl.coeffs"), "s"),
        "cli.self_s": (sum((s.seconds - solve_time_below(s)
                            for s in by_name["cli.main"]), 0.0), "s"),
    }


def self_times(spans) -> dict:
    """Self time per span name, for the attribution table."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    out = defaultdict(float)
    for s in spans:
        out[s.name] += s.seconds - child_time[s.id]
    return dict(out)


# -- special functions, timed in isolation -------------------------------------------------

PROBE_POINTS = 1 << 18


def _build_arguments() -> np.ndarray:
    """Bessel arguments the SolutionOperator build evaluates for bvp_oracle.

    The box is the eps = 0.1 strong-regime grid (L = 400, N = 1024) and the
    radial nodes are those of ``RadialGrid.make()``; the quadrature panels
    copy the rule of ``dno._panels`` (24 Gauss nodes on [0, r], 16 per dyadic
    panel on [r, 1]) so the argument set stays fixed when the build changes.  An even
    stride keeps ``PROBE_POINTS`` of them.
    """
    x = np.pi * np.arange(1, 513) / 400.0
    xg_in, _ = np.polynomial.legendre.leggauss(24)
    xg_out, _ = np.polynomial.legendre.leggauss(16)
    args = []
    for ri in dno.RadialGrid.make().r:
        nodes = [0.5 * ri * (xg_in + 1.0)]
        a = ri
        while a < 1.0:
            b = min(2.0 * a, 1.0)
            nodes.append(0.5 * (b - a) * (xg_out + 1.0) + a)
            a = b
        q = np.concatenate(nodes)
        args += [np.outer(x, np.minimum(ri, q)).ravel(),
                 np.outer(x, np.maximum(ri, q)).ravel()]
    allx = np.concatenate(args)
    return allx[:: max(1, allx.size // PROBE_POINTS)][:PROBE_POINTS]


def specfun_probe(repeats: int = 3) -> dict:
    """ns per point of scaled K and I (orders 0 and 1), median of ``repeats``."""
    x = _build_arguments()
    out = {}
    for key, fn in (("specfun.k_ns_per_pt", besselk), ("specfun.i_ns_per_pt", besseli)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(0, x, scaled=True)
            fn(1, x, scaled=True)
            times.append(time.perf_counter() - t0)
        out[key] = (1e9 * statistics.median(times) / (2 * x.size), "ns")
    return out
