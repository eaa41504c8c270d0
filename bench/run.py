"""Benchmark of regcrystals: catalogue throughput and large-n call latency.

    python3 bench/run.py --workload catalogue|split|large_n --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition of the workload runs in a
fresh interpreter (worker.py), one at a time, because the package is
single-threaded.  Repetitions follow each other until the next one would end
after --seconds, with at least MIN_REPS of them.  Set-up is also timed in a
few processes that only import the package and build the inputs.

Times are seconds at reference speed (see speed.py): a probe of fixed work,
run every 50 ms in between the workload's own work, scales each stretch of
work to what it would take on a machine of steady speed.  The raw seconds
are printed on the lines before the result.

Workloads:
  catalogue  the six non-split verify suites at default bounds
  split      `regcrystals verify split --e 4 --max 12`
  large_n    100 seeded e-regular partitions with n = 50..400 through mullineux,
             mullineux_oracle and regularise/restrictise, 30 chains at n = 30..60
             and 20 build_graph calls at sizes 18..26

Every output is checked (see workloads.py).  With --trace 0 the last line
holds the end-to-end metrics; with --trace 1 one untraced and one traced
repetition run, and it holds the per-layer metrics and the tracing overhead.
Lines before it give the same figures for reading, with the environment, the
run-to-run spread and per-call latency percentiles with their sample counts.
The seed changes only the large_n inputs; seeds 1-10 are for tuning and
sampler.HELD_OUT_SEED is kept for checking claims.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")
WORKLOADS = ("catalogue", "split", "large_n")
MIN_REPS = 2
SETUP_SPAWNS = 9
# Every worker must end this many seconds after the run started, so the
# whole run ends within three minutes even if a worker hangs.
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, trace: bool = False,
          setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its JSON line."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    # Fixed string hashing, so set iteration order is the same in every process.
    # Compiled modules are cached inside the checkout whatever the caller's
    # environment says, so only the first process of a run compiles them.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd += ["--t0", repr(time.monotonic())]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker still running {timeout:.0f} s after it started") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Set-up-only processes, then the measured repetitions."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, deadline, setup_only=True) for _ in range(SETUP_SPAWNS)]
    if trace:
        return setups, [spawn(workload, seed, deadline), spawn(workload, seed, deadline, trace=True)]
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return setups, reps


def latencies(reps: list[dict]) -> dict[str, list[float]]:
    """Per-call latency of each input, least over the repetitions, by call kind."""
    out = {}
    for key in reps[0]["samples"]:
        per_input = zip(*(r["samples"][key] for r in reps))
        out[key] = [min(v for v in vals if v is not None) for vals in per_input
                    if any(v is not None for v in vals)]
    return out


def report(workload: str, seed: int, trace: bool, setups: list[dict], reps: list[dict]) -> dict:
    """Print the readable report and return the final result object."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in setups + reps}
    if len(digests) != 1:
        failed += 1
        print(f"# inputs differ between processes: {sorted(digests)}")
    untraced = [r for r in reps if "trace" not in r]
    wall_s = statistics.median(r["wall_s"] for r in untraced)
    print(f"# workload={workload} seed={seed} trace={int(trace)} inputs={min(digests)}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"implementation={platform.python_implementation()}")
    print(f"# untraced repetitions={len(untraced)}")
    for label, key in (("wall_s", "wall_s"), ("raw wall_s", "wall_raw_s"), ("probe ms", "probe_median_ms")):
        values = [r[key] for r in untraced]
        mid = statistics.median(values)
        print(f"# {label} each: " + " ".join(f"{v:.4f}" for v in values)
              + f"; median {mid:.4f}, spread (max-min)/median {(max(values) - min(values)) / mid:.1%}")
    setup_raw = statistics.median(r["setup_raw_s"] for r in setups + reps)
    print(f"# raw setup_s median {setup_raw:.4f} over {len(setups + reps)} processes")
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} checks)")
    for r in reps:
        for problem in r["problems"]:
            print(f"# FAILED {problem}")

    items = untraced[0]["items"]
    if workload != "large_n":
        for name, s in items.items():
            print(f"verify.suite_{name}.s {s:.4f} s (raw, first repetition)")
    for key, values in latencies(untraced).items():
        if not values:
            continue
        line = f"{key}_p50_ms {percentile(values, 50):.4f} ms"
        if len(values) >= 100:
            line += f"  {key}_p90_ms {percentile(values, 90):.4f} ms"
        print(f"{line}  (raw, samples={len(values)}, max {max(values):.4f} ms)")

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r in setups + reps), "s"),
            "wall_s": (wall_s, "s"),
            "instances_per_s": (reps[0]["attempted"] / wall_s, "1/s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
    else:
        traced = next(r for r in reps if "trace" in r)
        tr = traced["trace"]
        print(f"# traced wall_s {traced['wall_s']:.3f} s (raw {traced['wall_raw_s']:.3f} s)"
              f" over {tr['spans']} spans")
        for name in tracing.SPANNED:
            print(f"# {name}: calls={tr['calls'][name]} self_s={tr['self_s'][name]:.4f}")
            metrics[f"{name}.calls"] = (tr["calls"][name], "count")
            metrics[f"{name}.self_pct"] = (100 * tr["self_s"][name] / traced["wall_raw_s"], "%")
        for suite in tracing.SUITES:
            metrics[f"verify.suite_{suite}.pct"] = (100 * items.get(suite, 0.0) / sum(items.values()), "%")
        for name, unit in tracing.COUNTS:
            metrics[name] = (tr["ratios"][name], unit)
        metrics["tracing_overhead"] = (traced["wall_s"] / wall_s, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "regcrystals", "__init__.py")):
        print(f"no regcrystals package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        setups, reps = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), setups, reps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
