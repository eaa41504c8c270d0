from dataclasses import replace

import pytest

from regcrystals import crystals, verify
from regcrystals.partitions import Partition


@pytest.fixture
def lyle_fails_at_2_1(monkeypatch):
    """verify's Lyle check, reporting non-dominance for 2,1 and otherwise unchanged."""
    real = verify.lyle_check

    def check(la, e):
        report = real(la, e)
        return replace(report, dominates=False) if la.parts == (2, 1) else report

    monkeypatch.setattr(verify, "lyle_check", check)


@pytest.fixture
def oracle_fails_at_3_1(monkeypatch):
    """verify's Mullineux oracle, returning the empty partition for 3,1 with
    the 'min' residue choice and otherwise unchanged."""
    real = verify.mullineux_oracle

    def oracle(la, e, residue_choice="min"):
        image = real(la, e, residue_choice)
        return Partition() if la.parts == (3, 1) and residue_choice == "min" else image

    monkeypatch.setattr(verify, "mullineux_oracle", oracle)


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
