"""`lpman manifold` output against CSVs and summary lines recorded from an
earlier release (tests/data/manifold_<case>.csv and .summary).

The CSV must stay the same across releases: identical base, iterations and
status columns, exact zeros kept exact, the h columns within
1e-12 max|h|, and the diagnostic columns within the roundoff they inherit
from the orbit.  A change that only reorders sums passes; a change of the
manifold, of the iteration count or of a sample's status fails.

To re-record after an intended change of the output, run the commands
of CASES with `--out tests/data/manifold_<case>.csv` and save the printed
summary line as tests/data/manifold_<case>.summary.
"""

import math
from pathlib import Path

import pytest

from lpmanifolds.cli import main

DATA = Path(__file__).parent / "data"

CASES = {
    "saddle1": ["--model", "saddle1", "--grid", "21"],
    "saddle1_stable": ["--model", "saddle1", "--side", "stable",
                       "--grid", "21"],
    "rd": ["--model", "rd", "--lambda-param", "2", "--modes", "6",
           "--grid", "5"],
    "mmt": ["--model", "mmt", "--half-width", "3", "--grid", "3"],
    # the wide cases, whose split parts the sweeps take in mode blocks: MMT-33
    # (d_rest = 64, 4x4 blocks) and rd at 20 modes (d_rest = 18, 1x1 blocks,
    # exact zeros in the axis samples)
    "mmt33": ["--model", "mmt", "--half-width", "16", "--grid", "3"],
    "rd20": ["--model", "rd", "--lambda-param", "2", "--modes", "20",
             "--grid", "3"],
}

# Relative tolerance of the least-squares decay slope and of the summary's
# slope estimates.  They are fits to logs and ratios of orbit and graph
# values; a relative change of 1e-12 in those values moves them by about
# as much, so 1e-9 leaves a margin of a thousand.
FIT_RTOL = 1e-9
# fp_residual (the last sweep increment) and the invariance residuals are
# differences of two computed states, each of the size of the base and h
# columns.  Rounding moves each state by some ulps of that scale whatever the
# size of the difference, so these columns get an absolute tolerance of
# 1e-12 times the largest |base| or |h| of the file.
RESIDUAL_RTOL_OF_SCALE = 1e-12


def _read_csv(text):
    header, *rows = text.splitlines()
    return header.split(","), [r.split(",") for r in rows]


def _summary(text):
    return dict(tok.split("=", 1) for tok in text.split())


def _close(got, want, abs_tol, rel_tol=0.0):
    """Equal within tolerance, with exact zeros exact and NaN kept NaN."""
    if math.isnan(want):
        return math.isnan(got)
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_manifold_output_matches_recorded_release(case, tmp_path, capsys):
    out = tmp_path / "graph.csv"
    assert main(["manifold", *CASES[case], "--out", str(out)]) == 0
    header, rows = _read_csv(out.read_text())
    want_header, want_rows = _read_csv(
        (DATA / f"manifold_{case}.csv").read_text())
    assert header == want_header
    assert len(rows) == len(want_rows)

    base_cols = [i for i, c in enumerate(header) if c.startswith("base")]
    h_cols = [i for i, c in enumerate(header) if c.startswith("h")]
    exact = base_cols + [header.index("iterations"), header.index("status")]
    residual = [header.index("fp_residual"),
                header.index("invariance_residual")]
    fit = header.index("lambda_fit")
    h_max = max(abs(float(r[i])) for r in want_rows for i in h_cols)
    scale = max(abs(float(r[i])) for r in want_rows
                for i in base_cols + h_cols)
    for row, want in zip(rows, want_rows):
        for i in exact:
            assert row[i] == want[i], (header[i], row, want)
        for i in h_cols:
            assert _close(float(row[i]), float(want[i]), 1e-12 * h_max), (
                header[i], row, want)
        for i in residual:
            assert _close(float(row[i]), float(want[i]),
                          RESIDUAL_RTOL_OF_SCALE * scale), (header[i], row,
                                                            want)
        assert _close(float(row[fit]), float(want[fit]), 0.0, FIT_RTOL)

    got = _summary(capsys.readouterr().out)
    want = _summary((DATA / f"manifold_{case}.summary").read_text())
    assert got.keys() == want.keys()
    assert (got["samples"], got["ok"]) == (want["samples"], want["ok"])
    for key in ("tangency_slope", "lipschitz_low"):
        assert _close(float(got[key]), float(want[key]), 0.0, FIT_RTOL), key
    assert _close(float(got["max_invariance"]), float(want["max_invariance"]),
                  RESIDUAL_RTOL_OF_SCALE * scale)
