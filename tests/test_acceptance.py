"""Acceptance criteria and structural checks, one test per entry of the
`lpman verify` registry, each printing a PASS/FAIL line.

The checks, their sample sets and their fixed tolerances live in
`lpmanifolds.verify.CHECKS`, which `lpman verify` runs too: criterion NN
runs here as `test_NN_<name>`, a structural check as `test_<name>`, so each
runs under pytest's warning policy.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-check report.
"""

from lpmanifolds.verify import CHECKS, CRITERIA


def _check_test(name, check):
    def test():
        ok, detail = check()
        print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)
        assert ok, detail

    test.__name__ = test.__qualname__ = f"test_{name}"
    return test


for _name, _check in CHECKS:
    globals()[f"test_{_name}"] = _check_test(_name, _check)


def test_criteria_are_numbered_in_order():
    # a criterion dropped from the registry would drop its test silently
    numbers = [name.split("_", 1)[0] for name, _ in CRITERIA]
    assert len(numbers) >= 13
    assert numbers == [f"{i:02d}" for i in range(1, len(numbers) + 1)]
    assert CHECKS[:len(CRITERIA)] == CRITERIA
