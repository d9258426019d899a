"""Reduced-size run of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with `--smoke` (smaller grids and a
coarser MMT time step), once untraced and once traced, and asserts that:

- the last line is one JSON object with exactly the keys the benchmark
  prints, and the run reports correct outputs;
- every end-to-end metric (untraced) or per-layer metric (traced) is
  emitted with a number and its unit;
- every output check of the workload ran;
- only the two 63-mode probe operations fail, two per round.

Exits 0 when all of it holds.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# check names each workload must report (mmt7 runs several base points)
EXPECTED_CHECKS = {
    "graph_sweep": [r"saddle1\.analytic", r"rd\.odd", r"rd\.shift_pi",
                    r"rd\.constant_line", r"rd\.oracle"],
    "mmt_scaling": [rf"mmt{n}(\[\d+\])?\.{kind}"
                    for n in (7, 17, 33)
                    for kind in ("spectrum", "lyapunov", "jacobian", "energy",
                                 "decay")],
    "quasilinear": [r"quasi\d+\.routes", r"quasi\d+\.oracle",
                    r"picard\d+\.solve_ivp"],
}
# failed operations per attempted operation, by workload
FAILED_SHARE = {"graph_sweep": 0.0, "mmt_scaling": 2 / 9, "quasilinear": 0.0}


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    result, text = run(workload, trace)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("outputs not correct")
    attempted, failed = result.get("attempted", 0), result.get("failed", -1)
    if attempted < 1 or failed != round(FAILED_SHARE[workload] * attempted):
        problems.append(f"attempted {attempted}, failed {failed}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if (got is None or got.get("unit") != m["unit"]
                or not isinstance(got.get("value"), (int, float))):
            problems.append(f"metric {m['name']}: {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    ran = re.findall(r"^check (?:PASS|FAIL) (\S+):", text, re.M)
    for pattern in EXPECTED_CHECKS[workload]:
        if not any(re.fullmatch(pattern, name) for name in ran):
            problems.append(f"check {pattern} did not run")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures = 0
    for wl in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, wl["name"], trace)
            status = "ok" if not problems else "FAILED"
            print(f"smoke {wl['name']} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
