"""One repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so the package's caches
(``verify._mull``, ``verify._partition_list``) start cold as they do for a
CLI user, and set-up time includes the import.  Both the set-up and the
workload run under a ``speed.Meter``, so each is reported in raw seconds and
in seconds at reference speed.  It prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("catalogue", "split", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()
    setup = speed.Meter()
    with setup:
        inputs, digest = load(args)
    # Interpreter start-up, before the meter ran, is scaled by its first probe.
    startup_s = started - args.t0
    setup_raw_s = startup_s + setup.raw_s
    setup_s = startup_s * speed.PROBE_REF_S / setup.probes[0] + setup.ref_s
    out = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "digest": digest}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import regcrystals as rc
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with speed.Meter() as meter:
        result = getattr(workloads, args.workload)(rc, inputs)
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary()
    gate = result["gate"]
    timing = meter.summary()
    out.update(
        wall_s=timing["ref_s"],
        wall_raw_s=timing["raw_s"],
        probes=timing["probes"],
        probe_median_ms=timing["probe_median_ms"],
        attempted=gate.attempted,
        failed=gate.failed,
        problems=gate.problems,
        items=result["items"],
        samples=result["samples"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(out))
    return 0


def load(args):
    """Import the package from src/ and build the workload's inputs."""
    sys.path.insert(0, SRC)
    import regcrystals as rc
    import regcrystals.verify  # noqa: F401  (catalogue and split run through it)

    if os.path.dirname(os.path.abspath(rc.__file__)) != os.path.join(SRC, "regcrystals"):
        raise SystemExit(f"regcrystals was imported from {rc.__file__}, not from {SRC}")

    import sampler
    import workloads

    if args.workload != "large_n":
        return None, "fixed"
    raw = sampler.large_n_inputs(args.seed)
    return workloads.prepare_large_n(rc, raw), raw.digest()


if __name__ == "__main__":
    sys.exit(main())
