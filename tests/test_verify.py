import pytest

from regcrystals.verify import run_suites


CASES = [
    ("ladder", 7, None),
    ("crystal", 10, None),
    ("mullineux", 9, None),
    ("core", 6, None),
    ("lyle", 6, None),
    ("paget", 4, None),
    ("split", 5, (4,)),
]


@pytest.mark.parametrize(
    "suite, max_size, e_values", CASES, ids=[f"{suite}-{size}" for suite, size, _ in CASES]
)
def test_suite_passes_at_a_small_bound(suite, max_size, e_values):
    results = run_suites([suite], max_size=max_size, e_values=e_values)
    assert results
    for result in results:
        assert result.ok and result.checked > 0, result.line()


def test_first_failure_is_reported_and_counted(lyle_fails_at_2_1):
    dominance, equality = run_suites(["lyle"], max_size=4, e_values=(3,))
    # 2,1 is the sixth partition of size <= 4 in enumeration order
    assert dominance.line() == (
        "FAIL lyle.dominance_always_holds checked=6 counterexample: 2,1 e=3"
    )
    assert equality.line() == "PASS lyle.equality_iff_all_hooks_steep_or_shallow checked=12"
