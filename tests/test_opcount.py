import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import opcount  # noqa: E402

from regcrystals import verify  # noqa: E402


SLICES = {
    # verify suite arguments, layers that must be counted, the suite's frame
    # and a kernel it must reach
    "split": ((["split"], 6, (4,)), {"separation", "ladders", "abacus"}, "verify.suite_split", "ladders._top_hook"),
    "crystal": ((["crystal"], 6), {"crystals"}, "verify.suite_crystal", "crystals._signed_nodes"),
}


@pytest.mark.parametrize("case", SLICES)
def test_two_runs_of_a_slice_give_equal_counts(case):
    # `verify split --e 4 --max 6` or `verify crystal --max 6`, twice in one
    # process: the same opcode and call counts per function, every one in a
    # package module
    args, layers, suite, kernel = SLICES[case]
    runs = [opcount.count_events(verify.run_suites, *args) for _ in range(2)]
    (first, opcodes, calls), (second, *counts) = runs
    assert [opcodes, calls] == counts
    assert [(r.name, r.checked, r.ok) for r in first] == [(r.name, r.checked, r.ok) for r in second]
    assert all(r.ok for r in first)
    modules = {name[:-3] for name in os.listdir(opcount.PACKAGE) if name.endswith(".py")}
    assert set(opcount.by_module(opcodes)) <= modules and set(opcount.by_module(calls)) <= modules
    assert layers <= set(opcount.by_module(opcodes))
    assert calls[suite] > 0 and opcodes[kernel] > 0


def test_frames_outside_the_package_are_not_counted():
    previous = sys.gettrace()
    result, opcodes, calls = opcount.count_events(sorted, [3, 1, 2])
    assert result == [1, 2, 3] and not opcodes and not calls
    assert sys.gettrace() is previous
