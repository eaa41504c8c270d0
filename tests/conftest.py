import importlib
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
    the 'min' residue choice and otherwise unchanged; a ``known`` table is
    passed through, so it keeps the real oracle's images."""
    real = verify.mullineux_oracle

    def oracle(la, e, residue_choice="min", **table):
        image = real(la, e, residue_choice, **table)
        return Partition() if la.parts == (3, 1) and residue_choice == "min" else image

    monkeypatch.setattr(verify, "mullineux_oracle", oracle)


# the modules that hold the crystal kernels by name; the package exports the
# function mullineux under the module's name
KERNEL_HOLDERS = (crystals, importlib.import_module("regcrystals.mullineux"))


@pytest.fixture
def replace_kernel(monkeypatch):
    """replace_kernel(name, fake) sets crystals.<name>, and the same function
    in every module that imported it by name, to fake; returns the real one."""

    def install(name, fake):
        real = getattr(crystals, name)
        for module in KERNEL_HOLDERS:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, fake)
        return real

    return install


@pytest.fixture
def count_walks(replace_kernel):
    """count_walks(name) wraps crystals.<name> wherever it is held and
    returns the list it appends the arguments of each later call to."""

    def install(name):
        walks = []

        def counting(*args):
            walks.append(args)
            return real(*args)

        real = replace_kernel(name, counting)
        return walks

    return install
