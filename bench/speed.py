"""Time scaled to a steady machine speed, by a probe run between the work.

The benchmark runs on shared hosts whose speed changes by up to 1.8x over
seconds to minutes, as other tenants come and go.  A raw wall time then says
more about the neighbours than about the code.  So while the work runs,
``Meter`` interrupts it every ``INTERVAL_S`` seconds (SIGALRM, in the same
thread) to time ``probe``, a fixed piece of pure-Python work that shares no
code with the package.  Each stretch of work between two probes is scaled
by how long the probes around it took against ``PROBE_REF_S``::

    ref_s = sum(work_j * PROBE_REF_S / median(probes around stretch j))

``ref_s`` is the time the work would take on a machine that runs the probe
in exactly ``PROBE_REF_S``.  It stays put while the host's speed drifts,
and it moves when the package does more or less work.  The probes' own time
is left out of both ``raw_s`` and ``ref_s``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The probe time that defines reference speed: about what the probe takes on
# a 2.0 GHz Xeon core with Python 3.11 when the host is quiet.
PROBE_REF_S = 1.0e-3
INTERVAL_S = 0.05
PROBE_STEPS = 60


def probe(clock=time.perf_counter) -> float:
    """Seconds taken by a fixed piece of small-list, set and dict work.

    The work is the kind the package does on small partitions: sorted
    lists, a frozenset, a dict, a conjugate by counting, a tuple hash.  The
    garbage collector is held off while it runs, so a collection of the
    workload's objects never lands on the probe's clock.
    """
    collecting = gc.isenabled()
    gc.disable()
    t = clock()
    acc = 0
    for i in range(PROBE_STEPS):
        parts = [(i * 7 + k * k) % 11 + 1 for k in range(8)]
        parts.sort(reverse=True)
        distinct = frozenset(parts)
        where = {p: j for j, p in enumerate(parts)}
        conj = [sum(1 for p in parts if p > j) for j in range(parts[0])]
        acc += len(distinct) + where[parts[-1]] + sum(conj) + max(conj) + len(str(acc))
        acc ^= hash(tuple(parts[1:5])) & 0xFF
    elapsed = clock() - t
    if collecting:
        gc.enable()
    return elapsed


def scaled(works: list[float], probes: list[float]) -> float:
    """Reference seconds of work stretches, each between two probes.

    ``works[j]`` lies between ``probes[j]`` and ``probes[j + 1]``.  It is
    scaled by the median of those two probes and the two on either side of
    them: about one probe in twenty is stretched to 10 ms by a pause of the
    whole virtual CPU, and a median leaves such a probe out.
    """
    if len(probes) != len(works) + 1:
        raise ValueError("every work stretch needs a probe before and after it")
    return sum(w * PROBE_REF_S / statistics.median(probes[max(0, j - 2):j + 4])
               for j, w in enumerate(works))


class Meter:
    """Times a stretch of work and its reference seconds.

    Use as a context manager.  Only one Meter may run at a time, on the
    main thread, because it owns SIGALRM while it runs.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.works: list[float] = []
        self.probes: list[float] = []
        self._mark = 0.0

    def _probe(self) -> None:
        now = self.clock()
        self.works.append(now - self._mark)
        self.probes.append(probe(self.clock))
        self._mark = self.clock()

    def _on_alarm(self, _signum, _frame) -> None:
        self._probe()

    def __enter__(self) -> "Meter":
        self.probes.append(probe(self.clock))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def raw_s(self) -> float:
        return sum(self.works)

    @property
    def ref_s(self) -> float:
        return scaled(self.works, self.probes)

    def summary(self) -> dict:
        return {
            "raw_s": self.raw_s,
            "ref_s": self.ref_s,
            "probes": len(self.probes),
            "probe_median_ms": statistics.median(self.probes) * 1e3,
        }
