import pytest

from regcrystals import verify
from regcrystals.verify import iter_suites, run_suites


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


def test_each_suite_is_yielded_before_the_next_one_runs(monkeypatch):
    started = []
    for name in ("core", "ladder"):
        suite, *rest = verify._SUITES[name]

        def recording(max_size, e_values, name=name, suite=suite):
            started.append(name)
            yield from suite(max_size, e_values)

        monkeypatch.setitem(verify._SUITES, name, (recording, *rest))
    per_suite = iter_suites(["core", "ladder"], max_size=3)
    assert started == []
    core = next(per_suite)
    assert started == ["core"] and {r.suite for r in core} == {"core"}
    assert {r.suite for r in next(per_suite)} == {"ladder"} and started == ["core", "ladder"]


@pytest.mark.parametrize("names, e", [(["split"], 1), (["all"], 0), (["paget", "core"], -2)])
def test_moduli_are_checked_before_any_suite_runs(monkeypatch, names, e):
    started = []
    for name, (suite, *rest) in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, name, (lambda *args: started.append(1), *rest))
    with pytest.raises(ValueError, match=r"suite \w+ runs e >= 2, got e = "):
        iter_suites(names, max_size=3, e_values=(e,))
    assert started == []


@pytest.mark.parametrize("name", ["ladder", "crystal"])
def test_suites_with_fixed_moduli_reject_e_values_when_named(name):
    for e in (3, -1):
        with pytest.raises(ValueError, match=f"^suite {name} runs fixed moduli and takes no e values$"):
            iter_suites([name], max_size=2, e_values=(e,))
    # under "all" the suite still runs, at its own moduli
    named = [r for r in run_suites(["all"], max_size=2, e_values=(3,)) if r.suite == name]
    assert named == run_suites([name], max_size=2)
