"""`lpman picard` output against CSVs and summary lines recorded from an
earlier release (tests/data/picard_<case>.csv and .summary).

The output must stay the same across releases: the same iteration count,
the same time column, exact zeros kept exact and every state within
1e-12 max|v| of the file, and the summary's two floats within the
tolerances below.  A change that only reorders sums passes; a change of the
orbit, of the iteration count or of the reference flow fails.

To re-record after an intended change of the output, run the two commands
of CASES with `--out tests/data/picard_<case>.csv` and save the printed
summary line as tests/data/picard_<case>.summary.
"""

from pathlib import Path

import pytest

from lpmanifolds.cli import main

DATA = Path(__file__).parent / "data"

# the MMT case takes a coarser step than the default 1e-3, whose CSV is ten
# times the size
CASES = {
    "saddle1": ["--model", "saddle1"],
    "mmt": ["--model", "mmt", "--dt", "0.01"],
}

# A state may move by rounding within 1e-12 max|v| (STATE_RTOL_OF_SCALE).
STATE_RTOL_OF_SCALE = 1e-12
# contraction_factor is, in both cases, the ratio of the first two sweep
# increments, each at least 5e-4 while max|v| is at most 1.2: a move of the
# states within the tolerance above moves each increment by at most about
# 2.4e-12 / 5e-4 relative, and the ratio by twice that, 1e-8 with a margin.
FACTOR_RTOL = 1e-8
# reference_discrepancy is the difference of two computed end states, so it
# takes the states' absolute tolerance.


def _read_csv(text):
    header, *rows = text.splitlines()
    return header.split(","), [r.split(",") for r in rows]


def _summary(text):
    return dict(tok.split("=", 1) for tok in text.split())


def _close(got, want, abs_tol, rel_tol=0.0):
    """Equal within tolerance, with exact zeros exact."""
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_picard_output_matches_recorded_release(case, tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    assert main(["picard", *CASES[case], "--out", str(out)]) == 0
    header, rows = _read_csv(out.read_text())
    want_header, want_rows = _read_csv(
        (DATA / f"picard_{case}.csv").read_text())
    assert header == want_header
    assert len(rows) == len(want_rows)
    scale = max(abs(float(x)) for r in want_rows for x in r[1:])
    for row, want in zip(rows, want_rows):
        assert row[0] == want[0]
        for got_v, want_v in zip(row[1:], want[1:]):
            assert _close(float(got_v), float(want_v),
                          STATE_RTOL_OF_SCALE * scale), (row, want)

    got = _summary(capsys.readouterr().out)
    want = _summary((DATA / f"picard_{case}.summary").read_text())
    assert got.keys() == want.keys()
    assert got["iterations"] == want["iterations"]
    assert _close(float(got["contraction_factor"]),
                  float(want["contraction_factor"]), 0.0, FACTOR_RTOL)
    assert _close(float(got["reference_discrepancy"]),
                  float(want["reference_discrepancy"]),
                  STATE_RTOL_OF_SCALE * scale)
