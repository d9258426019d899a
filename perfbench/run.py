"""Benchmark of the lpmanifolds Lyapunov-Perron pipeline.

    python3 perfbench/run.py --workload graph_sweep --seed 1 --seconds 15

Workloads: graph_sweep, mmt_scaling, quasilinear (see perfbench/README.md).
Run from the repository root; the package is imported from ./src.  The run
sets up the workload, repeats whole rounds of its timed operations until
--seconds have passed, checks the outputs of the last round, prints a report
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
times one round untraced and one traced, and the metrics are the per-layer
ones.  Timings are in reference-speed seconds (speed.py), which removes the
changing speed of a shared host.  Exit code 0 when the run completed
(whether or not a check failed), 2 when the package cannot be imported or
the arguments are invalid.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS is pinned to one thread before numpy is first imported.
_BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _BLAS_THREADS

# The host-speed sampler (it imports numpy) runs for the whole process; the
# set-up clock starts once it runs, before the package is imported.
import speed  # noqa: E402

SAMPLER = speed.SpeedSampler()
SAMPLER.start()
T_START = SAMPLER.clock()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# setup samples per run: the in-process setup plus fresh interpreters
SETUP_REPEATS = {"graph_sweep": 3, "mmt_scaling": 2, "quasilinear": 3}
WORKLOAD_NAMES = tuple(SETUP_REPEATS)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes (perfbench/smoke.py)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this fresh interpreter and exit")
    return ap.parse_args(argv)


def load_package():
    """Import the package from ./src; exits 2 when it is not there."""
    if not os.path.isdir(os.path.join(SRC, "lpmanifolds")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import lpmanifolds
    import workloads
    return lpmanifolds, workloads


def make_workload(workloads, args):
    scale = workloads.Scale.smoke() if args.smoke else workloads.Scale()
    return workloads.WORKLOADS[args.workload](args.seed, scale)


def setup_in_child(args) -> float:
    """Set-up time measured in a fresh interpreter (import included)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_rounds(wl, workloads, seconds: float):
    """Repeat whole rounds until `seconds` of wall time have passed (at
    least one round)."""
    res = workloads.RoundResult(clock=SAMPLER)
    start = SAMPLER.clock()
    rounds = 0
    while True:
        mark = SAMPLER.clock()
        wl.round(res)
        res.time("round_s", SAMPLER.elapsed(mark))
        rounds += 1
        if time.perf_counter() - start[0] >= seconds:
            break
    return res, rounds, SAMPLER.elapsed(start)


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    openblas, blas_threads = _openblas_info()
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "n/a (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "n/a"
    return proc.stdout.strip() or "n/a"


def _openblas_info() -> tuple[str, str]:
    """(version, threads) of the OpenBLAS libraries loaded in this process."""
    import ctypes
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    versions, threads = [], []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads"
                                       f"{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}",
                                 None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            versions.append(get_config().decode().split()[1])
            threads.append(str(get_threads()))
            break
    return ("/".join(versions) or "n/a", "/".join(threads) or "n/a")


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit,
            "samples": len(values)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("error: --seconds must be nonnegative", file=sys.stderr)
        return 2
    lpm, workloads = load_package()
    wl = make_workload(workloads, args)
    wl.setup()
    setup_first = SAMPLER.elapsed(T_START)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    meta = metadata(args.seed)
    print(f"# workload={args.workload} trace={args.trace} "
          f"seconds={args.seconds:g}" + (" smoke" if args.smoke else ""))
    for key, val in meta.items():
        print(f"# {key}={val}")

    if args.trace:
        metrics, res, checks = traced_run(lpm, workloads, wl, args)
    else:
        metrics, res, checks = plain_run(workloads, wl, args, setup_first)

    for c in checks:
        print(f"check {'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    for f in res.failures:
        print(f"failed operation: {f}")
    for name, m in metrics.items():
        extra = f" (median of {m['samples']})" if "samples" in m else ""
        print(f"metric {name} = {m['value']} {m['unit']}{extra}")
    correct = (bool(checks) and all(c.passed for c in checks)
               and all(m["value"] is not None for m in metrics.values()))
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()}}))
    return 0


def plain_run(workloads, wl, args, setup_first):
    setups = [setup_first]
    repeats = 2 if args.smoke else SETUP_REPEATS[args.workload]
    for _ in range(repeats - 1):
        setups.append(setup_in_child(args))
    res, rounds, busy = run_rounds(wl, workloads, args.seconds)
    print(f"# rounds={rounds} measured_s={busy:.3f} "
          f"setup_samples={' '.join(f'{s:.3f}' for s in setups)} "
          f"host_speed_median={statistics.median(SAMPLER.speeds):.3f} "
          f"speed_samples={len(SAMPLER.speeds)}")
    for name, values in res.timings.items():
        print(f"figure {name} = {statistics.median(values):.6g} "
              f"(median of {len(values)})")
    checks = run_checks(wl, res)
    metrics = {
        "setup_s": median_metric(setups, "s"),
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        "round_s": timing_metric(res, "round_s", "s"),
        "solves_per_s": timing_metric(res, "solves_per_s", "1/s"),
        "small_job_s": timing_metric(res, wl.SMALL_JOB, "s"),
        "large_job_s": timing_metric(res, wl.LARGE_JOB, "s"),
    }
    return metrics, res, checks


def run_checks(wl, res) -> list:
    """The workload's output checks; a check that raises fails the run."""
    try:
        return wl.check(res)
    except Exception as exc:  # report any failure inside a check
        traceback.print_exc()
        from workloads import Check
        return [Check("checks", False, f"{type(exc).__name__}: {exc}")]


def timing_metric(res, figure: str, unit: str) -> dict:
    samples = res.timings.get(figure)
    if not samples:
        return {"value": None, "unit": unit, "samples": 0}
    return median_metric(samples, unit)


def traced_run(lpm, workloads, wl, args):
    import tracing
    # untraced reference round, then a traced set-up and round
    res_plain, _, plain_s = run_rounds(wl, workloads, 0.0)
    tracer = tracing.Tracer()
    tracer.install(lpm)
    try:
        traced_wl = make_workload(workloads, args)
        traced_wl.setup()
        res, _, traced_s = run_rounds(traced_wl, workloads, 0.0)
        stats = tracer.take()
        checks = run_checks(traced_wl, res)
        check_stats = tracer.take()
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans_{args.workload}_{args.seed}.npz")
    n_spans = tracer.dump(path)
    print(f"# spans={n_spans} written to "
          f"{os.path.relpath(path, ROOT)}")
    print(f"# untraced round {plain_s:.3f} s, traced round {traced_s:.3f} s")
    print("# set-up and round, heaviest spans by self time:")
    for line in tracing.span_table(stats):
        print("#   " + line)
    metrics = tracing.layer_metrics(stats, check_stats)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_s / plain_s - 1.0), "unit": "%"}
    res.attempted += res_plain.attempted
    res.failed += res_plain.failed
    res.failures = res_plain.failures + res.failures
    return metrics, res, checks


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.stop()
    sys.exit(code)
