from dataclasses import replace

import pytest

from regcrystals import verify


@pytest.fixture
def lyle_fails_at_2_1(monkeypatch):
    """verify's Lyle check, reporting non-dominance for 2,1 and otherwise unchanged."""
    real = verify.lyle_check

    def check(la, e):
        report = real(la, e)
        return replace(report, dominates=False) if la.parts == (2, 1) else report

    monkeypatch.setattr(verify, "lyle_check", check)
