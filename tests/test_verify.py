import pytest

from regcrystals.verify import run_suites


@pytest.mark.parametrize("suite, max_size", [("ladder", 7), ("crystal", 10), ("mullineux", 9)])
def test_suite_passes_at_a_small_bound(suite, max_size):
    results = run_suites([suite], max_size=max_size)
    assert results
    for result in results:
        assert result.ok and result.checked > 0, result.line()
