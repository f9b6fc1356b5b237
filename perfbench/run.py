"""Benchmark of ferrojet's solve workloads.

    python3 perfbench/run.py --workload gzcs_ladder --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports the package from ``src/``.

``--trace 0`` first times ``SETUP_REPEATS`` fresh processes that import
ferrojet and generate the inputs, then repeats untraced passes over the
workload's solves until ``--seconds`` have passed (at least one pass) and
reports the end-to-end metrics as medians over the passes.

``--trace 1`` makes one untraced pass and one traced pass, checks that both
give bit-identical solutions, and reports the per-layer metrics of the
traced pass, the tracing overhead and the isolated special-function timing.

``--workload all`` runs every workload, each in its own process, and prints
a summary.  The last line of standard output is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
NAMES = ("gzcs_ladder", "envelope_ladder", "bvp_oracle")

# One BLAS thread: the dense LU and the kernel matrix products then run the
# same way on every machine with at least one core, and the results repeat
# bit for bit.  numpy's FFT is single-threaded either way.
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 5
SETUP_PROBE = "import sys, workloads; workloads.make_inputs(sys.argv[1], int(sys.argv[2]))"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def _setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import ferrojet and build the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), **BLAS_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls and rounds the time up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_PROBE, name, str(seed)],
                       env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _timed_pass(workloads, work, outdir: Path):
    t0 = time.perf_counter()
    results = workloads.run_pass(work, outdir)
    return time.perf_counter() - t0, results


def _print_pass(k: int, wall: float, results) -> None:
    print(f"pass {k}: {wall:.3f} s")
    for r in results:
        status = "ok" if not r.failures else "FAILED: " + "; ".join(r.failures)
        print(f"  {r.solve.label:<24} N={r.n:<5} dim={r.dim:<5} "
              f"iters={r.iterations:<3} {r.seconds:8.3f} s  {status}")


def _run_untraced(workloads, work, seconds: float, tmp: Path):
    setup = _setup_seconds(work.name, work.seed)
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        wall, results = _timed_pass(workloads, work, tmp / f"pass{len(passes)}")
        _print_pass(len(passes), wall, results)
        passes.append((wall, results))
    metrics = {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "solve_max_s": (statistics.median(max(r.seconds for r in res)
                                          for _, res in passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MiB"),
    }
    return [r for _, res in passes for r in res], metrics


def _run_traced(workloads, work, tmp: Path):
    import tracer

    ref_wall, ref = _timed_pass(workloads, work, tmp / "untraced")
    _print_pass(0, ref_wall, ref)
    t = tracer.Tracer()
    t.install()
    try:
        wall, traced = _timed_pass(workloads, work, tmp / "traced")
    finally:
        t.restore()
    _print_pass(1, wall, traced)
    for r, q in zip(ref, traced):
        if r.solution != q.solution:
            q.failures.append("traced solution differs from the untraced one")

    metrics = tracer.layer_metrics(t.spans)
    metrics["cli.bytes_written"] = (workloads.bytes_written(tmp / "traced"), "B")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - ref_wall, "s")
    metrics.update(tracer.specfun_probe())

    print(f"traced pass: {len(t.spans)} spans; largest self times:")
    selfs = sorted(tracer.self_times(t.spans).items(), key=lambda kv: -kv[1])
    for name, sec in selfs[:10]:
        print(f"  {name:<26} {sec:9.3f} s  {100.0 * sec / wall:5.1f}%")
    return ref + traced, metrics


def _run_all(args) -> int:
    summary, attempted, failed, correct = {}, 0, 0, True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
        for metric, value in out["metrics"].items():
            summary[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ferrojet" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a ferrojet checkout; {SRC / 'ferrojet'} or {SPEC} "
              "is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    spec = json.loads(SPEC.read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = workloads.make_inputs(args.workload, args.seed)
    print("meta: " + json.dumps({"workload": work.name, "seed": work.seed,
                                  "trace": args.trace, **_metadata()}))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT))
    try:
        if args.trace:
            results, metrics = _run_traced(workloads, work, tmp)
        else:
            results, metrics = _run_untraced(workloads, work, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(1 for r in results if r.failures)
    correct = failed == 0
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != expected:
        print(f"error: metric names or units differ from {SPEC.name}: "
              f"missing {sorted(expected.items() - emitted.items())}, "
              f"extra {sorted(emitted.items() - expected.items())}", file=sys.stderr)
        correct = False
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / len(results):.6g} ratio "
          f"({failed} of {len(results)} solves failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
