from dataclasses import replace

import pytest

from regcrystals import crystals, verify


@pytest.fixture
def lyle_fails_at_2_1(monkeypatch):
    """verify's Lyle check, reporting non-dominance for 2,1 and otherwise unchanged."""
    real = verify.lyle_check

    def check(la, e):
        report = real(la, e)
        return replace(report, dominates=False) if la.parts == (2, 1) else report

    monkeypatch.setattr(verify, "lyle_check", check)


@pytest.fixture
def count_walks(monkeypatch):
    """count_walks(name) wraps crystals.<name> and returns the list it
    appends the arguments of each later call to."""

    def install(name):
        real, walks = getattr(crystals, name), []

        def counting(*args):
            walks.append(args)
            return real(*args)

        monkeypatch.setattr(crystals, name, counting)
        return walks

    return install
