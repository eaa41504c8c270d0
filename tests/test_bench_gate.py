"""The benchmark's large_n gate at a tuning seed, read from bench/.

At n = 50..400, where the exhaustive suites cannot reach, the gate checks
that mullineux equals the crystal oracle and is an involution, that
regularise and restrictise keep the ladder class, that every chain is
undone by its reverse, and that build_graph meets its pinned edge counts.
"""

import os
import sys

import regcrystals as rc

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import sampler  # noqa: E402
import workloads  # noqa: E402


def test_large_n_gate_passes_at_a_tuning_seed():
    inputs = workloads.prepare_large_n(rc, sampler.large_n_inputs(1))
    gate = workloads.large_n(rc, inputs)["gate"]
    assert (gate.attempted, gate.failed) == (390, 0), gate.problems
