"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The criteria, their sample sets and their fixed tolerances live in
`lpmanifolds.verify.CRITERIA`, which `lpman verify` runs too; criterion NN
runs here as `test_NN_<name>`.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion report.
"""

from lpmanifolds.verify import CRITERIA


def _criterion_test(name, check):
    def test():
        ok, detail = check()
        print(f"ACCEPTANCE {name[:2]} {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
        assert ok, detail

    test.__name__ = test.__qualname__ = f"test_{name}"
    return test


for _name, _check in CRITERIA:
    globals()[f"test_{_name}"] = _criterion_test(_name, _check)
