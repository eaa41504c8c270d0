"""Tests of the benchmark itself: sampler, span arithmetic, tracer and gates."""

from __future__ import annotations

import importlib
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import regcrystals as rc  # noqa: E402
from regcrystals import crystals, separation, verify  # noqa: E402
from regcrystals.partitions import enumerate_partitions  # noqa: E402

import run  # noqa: E402
import sampler  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# the package exports the function mullineux under the module's name
mullineux = importlib.import_module("regcrystals.mullineux")


def test_large_n_inputs_are_deterministic_per_seed():
    a, b = sampler.large_n_inputs(3), sampler.large_n_inputs(3)
    assert a == b and a.digest() == b.digest()
    assert sampler.large_n_inputs(4).digest() != a.digest()


def test_large_n_inputs_cover_the_size_range():
    inputs = sampler.large_n_inputs(1)
    sizes = [sum(parts) for parts, _, _ in inputs.samples]
    assert len(inputs.samples) == sampler.SAMPLE_COUNT
    assert min(sizes) == 50 and max(sizes) == 400 and sizes == sorted(sizes)
    for parts, e, slope in inputs.samples:
        assert all(p > 0 for p in parts) and list(parts) == sorted(parts, reverse=True)
        assert e in sampler.E_CYCLE and 1 <= slope <= e - 1
    chain_sizes = [sum(parts) for parts, _ in inputs.chains]
    assert len(chain_sizes) == sampler.CHAIN_COUNT
    assert min(chain_sizes) == 30 and max(chain_sizes) == 60
    assert all(18 <= size <= 26 for *_, size in inputs.graphs)


def test_random_partition_is_uniform_on_a_small_size():
    rng = random.Random(11)
    draws = Counter(sampler.random_partition(rng, 6) for _ in range(2200))
    assert set(draws) == {la.parts for la in enumerate_partitions(6)}
    assert all(140 <= count <= 260 for count in draws.values())
    assert sampler.random_partition(rng, 0) == ()


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8];
    # a second root [20, 30] has overlapping children [21, 25] and [23, 32].
    parents = [-1, 0, 0, 2, -1, 4, 4]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0, 23.0]
    ends = [10.0, 4.0, 9.0, 8.0, 30.0, 25.0, 32.0]
    assert tracing.self_times(parents, starts, ends) == [3.0, 3.0, 2.0, 2.0, 1.0, 4.0, 9.0]


def test_spans_nest_under_the_open_span():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert [tracer.names[i] for i in tracer.span_name] == ["outer", "inner", "inner"]
    assert list(tracer.span_parent) == [-1, 0, 0]
    own = tracing.self_times(tracer.span_parent, tracer.span_start, tracer.span_end)
    assert own == [3.0, 1.0, 1.0]


def test_install_wraps_every_namespace_and_uninstall_restores():
    originals = (separation.encode, mullineux.e_op, verify._mullineux, crystals.regularise)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert separation.encode is not originals[0]
        assert mullineux.e_op is not originals[1]
        assert verify._mullineux is not originals[2]
        assert crystals.regularise is not originals[3]
        assert rc.mullineux(rc.Partition([3, 1]), 3) == rc.mullineux_oracle(rc.Partition([3, 1]), 3)
    finally:
        tracer.uninstall()
    assert (separation.encode, mullineux.e_op, verify._mullineux, crystals.regularise) == originals
    summary = tracer.summary()
    assert summary["calls"]["mullineux.mullineux"] == 1
    assert summary["calls"]["mullineux.mullineux_oracle"] == 1
    assert summary["calls"]["crystals.e_op"] > 0
    assert summary["ratios"]["partitions.Partition.created"] > 0


def test_gate_passes_pinned_counts_and_rejects_an_altered_one():
    def results(delta: int, failing: str = ""):
        out = []
        for full, count in workloads.PINNED_SPLIT.items():
            suite, name = full.split(".")
            res = verify.CheckResult(suite, name, count + (delta if full.endswith("theorem") else 0))
            if full == failing:
                res.failure = "counterexample"
            out.append(res)
        return out

    total = sum(workloads.PINNED_SPLIT.values())
    gate = workloads.Gate()
    workloads.gate_properties(results(0), workloads.PINNED_SPLIT, gate)
    assert (gate.attempted, gate.failed) == (total, 0)

    gate = workloads.Gate()
    workloads.gate_properties(results(-1), workloads.PINNED_SPLIT, gate)
    assert gate.failed == workloads.PINNED_SPLIT["split.splitting_theorem"]
    assert gate.problems and "splitting_theorem" in gate.problems[0]

    gate = workloads.Gate()
    workloads.gate_properties(results(0, "split.split_combine_round_trip"), workloads.PINNED_SPLIT, gate)
    assert gate.failed == workloads.PINNED_SPLIT["split.split_combine_round_trip"]

    gate = workloads.Gate()
    workloads.gate_properties(results(0)[1:], workloads.PINNED_SPLIT, gate)
    assert gate.failed == workloads.PINNED_SPLIT["split.split_combine_round_trip"]


def test_regular_counts_match_enumeration():
    for e in (2, 3, 4):
        for size in range(9):
            brute = sum(la.is_e_regular(e) for s in range(size + 1) for la in enumerate_partitions(s))
            assert workloads.regular_counts(e, size) == brute


def test_graph_grid_has_pinned_edges():
    assert {(e, size) for e, _, _, size in sampler.GRAPH_GRID} == set(workloads.PINNED_EDGES)
    assert all(isinstance(slope, Fraction) for _, slope, _, _ in sampler.GRAPH_GRID)


def test_latency_is_each_inputs_least_time():
    reps = [{"samples": {"k": [1.0, None, 4.0]}}, {"samples": {"k": [2.0, None, 3.0]}}]
    assert run.latencies(reps) == {"k": [1.0, 3.0]}


def test_scaled_divides_each_stretch_by_the_median_probe_around_it():
    r = speed.PROBE_REF_S
    # steady probes twice the reference: every stretch counts half
    assert math.isclose(speed.scaled([4.0, 2.0], [2 * r] * 3), 3.0)
    # one stretched probe among steady ones is left out
    assert math.isclose(speed.scaled([1.0] * 4, [r, r, 10 * r, r, r]), 4.0)
    # the host slows to a third of reference speed from the fourth probe on
    works, probes = [3.0] * 6, [r, r, r, 3 * r, 3 * r, 3 * r, 3 * r]
    assert math.isclose(speed.scaled(works, probes), 3 + 3 + 1.5 + 1 + 1 + 1)
    try:
        speed.scaled([1.0], [r])
    except ValueError:
        pass
    else:
        raise AssertionError("a stretch without a closing probe was accepted")


def test_meter_leaves_probe_time_out_and_scales_the_rest():
    ticks = iter([0.0, 0.25,         # opening probe
                  1.0,               # work starts
                  3.0, 3.0, 3.25,    # work ends; closing probe
                  3.25])
    meter = speed.Meter(clock=lambda: next(ticks))
    with meter:
        pass
    assert meter.probes == [0.25, 0.25]
    assert meter.raw_s == 2.0
    assert meter.ref_s == 2.0 * speed.PROBE_REF_S / 0.25
