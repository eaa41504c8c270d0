"""Deterministic opcode and call counts of one bench repetition, by layer.

    python3 tools/opcount.py --workload catalogue|split|large_n --seed N

Run from anywhere; the package is imported from this checkout's src/.  One
repetition of the workload (bench/workloads.py, with bench/sampler.py's
inputs for large_n, both imported unchanged) runs in this process under
sys.settrace with f_trace_opcodes set.  Only frames whose code lies under
src/regcrystals are counted: each 'opcode' event, and each 'call' event,
which a generator also raises when it resumes.  The counts are printed in
total, per module and per function (module.qualname), and they do not
depend on the machine's speed or load, so they settle a wall-time move that
noise cannot.  They do not see time spent inside C builtins (sorted, set
operations) or the cost of a frame beyond its call event.  Set-up (the
inputs of large_n) is not counted, as the bench does not time it.

Under the tracer a repetition runs 20-60 times slower than without it.
The workload's own gate still runs; a failed check exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "bench")
PACKAGE = os.path.join(SRC, "regcrystals") + os.sep


def count_events(fn, *args):
    """fn(*args) under the opcode tracer: (its result, opcodes, calls), the
    last two Counters keyed by 'module.qualname' for the package's frames."""
    opcodes, calls = Counter(), Counter()
    tracers = {}  # code object -> its frames' local tracer, or None outside the package

    def tracer_of(code):
        if not code.co_filename.startswith(PACKAGE):
            return None
        module = os.path.splitext(code.co_filename[len(PACKAGE):])[0].replace(os.sep, ".")
        key = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"

        def local(frame, event, arg):
            if event == "opcode":
                opcodes[key] += 1
            return local

        local.key = key
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            tracers[code] = tracer_of(code)
        if (local := tracers[code]) is not None:
            calls[local.key] += 1
            frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, opcodes, calls


def by_module(counts: Counter) -> Counter:
    """The counts of count_events summed per module."""
    out = Counter()
    for key, n in counts.items():
        out[key.split(".", 1)[0]] += n
    return out


def repetition(workload: str, seed: int):
    """One repetition of the bench workload, as bench/worker.py runs it, under
    the tracer: (its result, opcodes, calls)."""
    for path in (SRC, BENCH):
        if path not in sys.path:
            sys.path.insert(0, path)
    import regcrystals as rc
    import regcrystals.verify  # noqa: F401  (catalogue and split run through it)
    import sampler
    import workloads

    inputs = workloads.prepare_large_n(rc, sampler.large_n_inputs(seed)) if workload == "large_n" else None
    return count_events(getattr(workloads, workload), rc, inputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("catalogue", "split", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    result, opcodes, calls = repetition(args.workload, args.seed)
    gate = result["gate"]
    print(f"workload {args.workload} seed {args.seed}: {gate.attempted} checks, {gate.failed} failed")
    print(f"total opcodes {sum(opcodes.values())} calls {sum(calls.values())}")
    modules_op, modules_call = by_module(opcodes), by_module(calls)
    print("\nmodule opcodes calls")
    for module, n in modules_op.most_common():
        print(f"{module} {n} {modules_call[module]}")
    print("\nfunction opcodes calls")
    for key in sorted(calls.keys() | opcodes.keys(), key=lambda k: (-opcodes[k], -calls[k], k)):
        print(f"{key} {opcodes[key]} {calls[key]}")
    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
