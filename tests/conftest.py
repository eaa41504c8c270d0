import importlib
import signal
import threading

import pytest

from regcrystals import crystals, verify
from regcrystals.partitions import Partition


# Wall-clock seconds a test may run before it fails.  The slowest test takes
# about 4 s; a kernel fault that never ends a step loop would otherwise hang
# the run while its memory grows.
TEST_DEADLINE_S = 120


@pytest.fixture(autouse=True)
def deadline(request):
    """Fail the test, naming its node id, once it has run TEST_DEADLINE_S
    seconds.  It arms a real-time interval timer, so it runs only where
    SIGALRM exists and only on the main thread, which receives the signal."""
    if not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past its {TEST_DEADLINE_S} s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def lyle_fails_at_2_1(monkeypatch):
    """verify's Lyle report, reporting non-dominance for 2,1 and otherwise unchanged."""
    real = verify._lyle_report

    def report_of(la, e, *images):
        report = real(la, e, *images)
        return report._replace(dominates=False) if la.parts == (2, 1) else report

    monkeypatch.setattr(verify, "_lyle_report", report_of)


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


@pytest.fixture
def replace_walk(replace_kernel):
    """replace_walk(fake) sets crystals._signed_nodes, wherever it is held,
    to a walk that returns fake(real, parts, prefix, i).  Each result must
    have the real walk's shape, residue -> (good rows, cogood rows), lists
    of row numbers, with i a key when given, or the call fails at once: a
    fake left behind by a change of that shape cannot send a peel astray."""

    def install(fake):
        def walk(parts, prefix, i=None):
            signed = fake(real, parts, prefix, i)
            assert type(signed) is dict and (i is None or i in signed), signed
            assert all(type(sig) is tuple and len(sig) == 2
                       and all(type(rows) is list and all(type(r) is int for r in rows) for rows in sig)
                       for sig in signed.values()), signed
            return signed

        real = replace_kernel("_signed_nodes", walk)

    return install
