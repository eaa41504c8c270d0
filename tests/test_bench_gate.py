"""The benchmark's large_n gate at a tuning seed and its split and catalogue
gates, read from bench/.

At n = 50..400, where the exhaustive suites cannot reach, the gate checks
that mullineux equals the crystal oracle and is an involution, that
regularise and restrictise keep the ladder class, that every chain is
undone by its reverse, and that build_graph meets its pinned edge counts.
The split gate runs `verify split --e 4 --max 12` and needs every property
to PASS with its pinned instance count; the catalogue gate does the same for
the six catalogue suites at default bounds.
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


def test_split_gate_passes_with_its_pinned_counts():
    gate = workloads.split(rc, None)["gate"]
    assert (gate.attempted, gate.failed) == (28456, 0), gate.problems


def test_catalogue_gate_passes_with_its_pinned_counts():
    # the six catalogue suites at default bounds, as the benchmark runs them:
    # a change of any instance count fails here, not only in the bench gate
    results = rc.verify.run_suites(list(workloads.CATALOGUE_SUITES))
    assert {f"{r.suite}.{r.name}": r.checked for r in results} == workloads.PINNED_CATALOGUE
    gate = workloads.Gate()
    workloads.gate_properties(results, workloads.PINNED_CATALOGUE, gate)
    assert (gate.attempted, gate.failed) == (170538, 0), gate.problems
