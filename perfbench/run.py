"""reglinked benchmark.

One workload per process:

    python3 perfbench/run.py --workload verify-oracle --seed 1 --seconds 55 --trace 0

runs the workload in a closed loop for about --seconds (at least one
whole run), times every operation on its own, sets the workload up
(import, spec load, inputs) twice before the first run and again between
parts for about SETUP_SHARE of the window, checks every output against an
independent route, and prints the metrics, then one JSON line
{"correct", "attempted", "failed", "metrics"} as the last line.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.

All workloads, untraced and traced, each run in its own process, one
after another (PAIRS times each):

    python3 perfbench/run.py --workload all --seed 1 --seconds 55 [--out FILE]

prints every metric per workload plus the tracing overhead and writes the
full record (machine, commit, derive-specs draw, per-function trace
tables, each operation's fastest time) to FILE.  Exit code 1 when an output check failed, 2 when the
reglinked sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, installed_wrappers
from workloads import WORKLOADS, Outcome, kept_library, load_library

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_FIRST = 2
SETUP_SHARE = 0.1
REFERENCE_N = 26
REFERENCE_REPS = 3
# the fastest time of reference_work() on the machine the baseline was
# taken on (perfbench/baseline.json): a 2-vCPU Xeon, Python 3.11.7
REFERENCE_S = 0.0120
CHILD_TIMEOUT_S = 180
PAIRS = 3
DETAILS = "details "


class Laps:
    """Wall time per operation: `lap(name)` ends the operation that began
    at the previous lap, or at `start`."""

    def __init__(self):
        self.times = {}
        self.fixed = set()
        self.last = None

    def start(self):
        self.last = time.perf_counter()
        return self.last

    def lap(self, name, fixed=False):
        """`fixed`: the operation lasted a wall-clock deadline, which no
        speed of the machine changes."""
        now = time.perf_counter()
        self.times.setdefault(name, []).append(now - self.last)
        self.last = now
        if fixed:
            self.fixed.add(name)

    def fastest_run(self, speed=1.0):
        """One run's time with every operation at its fastest repetition.
        On a shared machine, interference from other tenants only ever
        adds time, and most of it comes and goes within a fraction of a
        second, so an operation's fastest repetition is its time on the
        undisturbed machine (the rule of Python's `timeit`); the median of
        whole runs follows the machine's load instead, which spread runs
        of the same code by 0.3 of their median.  All but the fixed
        operations are multiplied by `speed`."""
        return sum(min(t) * (1.0 if name in self.fixed else speed)
                   for name, t in self.times.items())


def _partitions(n, top):
    if n == 0:
        yield ()
        return
    for k in range(min(n, top), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def reference_work():
    """Fixed pure-Python work that uses nothing of reglinked: enumerate
    the partitions of REFERENCE_N and tally them by their distinct parts.
    Like the library, it makes, hashes and prints small tuples, so a
    machine that is slower for a while is slower for both alike."""
    tally = {}
    for p in _partitions(REFERENCE_N, REFERENCE_N):
        key = tuple(sorted(set(p)))
        tally[key] = tally.get(key, 0) + len(str(p))
    return len(tally)


def measure(workload, seed, seconds, trace):
    """Set up SETUP_FIRST times, then run whole workload runs for about
    `seconds`, at least one, with every operation timed on its own.  After
    each part of a run, time `reference_work` REFERENCE_REPS times and set
    up again until set-ups have taken SETUP_SHARE of the time so far.  The
    CPU speed of a shared machine drifts over tens of seconds, so many
    set-ups spread over the whole window give a steadier median than a
    few at its start.

    Some slowdowns of the machine last the whole window and lengthen even
    the fastest repetitions, so the run time (but for operations that
    lasted a deadline) and the median set-up time are scaled by
    REFERENCE_S over the reference work's fastest time: `run_s` and
    `setup_s` are times at the speed of the machine the baseline was
    taken on.  Returns (outcome, metrics, details)."""
    tracer = Tracer() if trace else None
    setups = []
    laps = Laps()
    references = []

    def time_reference():
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            reference_work()
            references.append(time.perf_counter() - t0)

    def set_up():
        t0 = time.perf_counter()
        lib = load_library(SRC)
        parts = WORKLOADS[workload](lib, random.Random(seed), tracer=tracer)
        setups.append(time.perf_counter() - t0)
        return lib, parts

    for _ in range(SETUP_FIRST):
        lib, parts = set_up()
    time_reference()
    out = Outcome()
    runs, layers, tables = [], [], []
    part_runs = {part.NAME: [] for part in parts}
    if tracer:
        tracer.install(lib)
    elif installed_wrappers(lib.modules):
        raise RuntimeError("untraced run found tracing wrappers installed")
    try:
        start = time.perf_counter()
        root = tracer.name_id("bench.run") if tracer else None
        while True:
            for part in parts:
                if tracer:
                    idx = tracer.open(root)
                t0 = laps.start()
                part.run(out, laps.lap)
                part_runs[part.NAME].append(laps.last - t0)
                if tracer:
                    tracer.close(idx)
                time_reference()
                with kept_library():
                    while (sum(setups[SETUP_FIRST:])
                           < SETUP_SHARE * (time.perf_counter() - start)):
                        set_up()
            runs.append(sum(times[-1] for times in part_runs.values()))
            if tracer:
                layers.append(tracer.layer_metrics())
                if not tables:
                    tables.append(tracer.function_table())
                tracer.reset()
            # stop where the measured time ends nearest to `seconds`
            if time.perf_counter() - start + runs[-1] / 2 >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    left = installed_wrappers(lib.modules)
    if left:
        raise RuntimeError(f"tracing wrappers left installed: {left}")

    speed = REFERENCE_S / min(references)
    if trace:
        metrics = {k: (statistics.median(r[k] for r in layers), _unit(k))
                   for k in layers[0]}
        metrics["trace.run_s"] = (laps.fastest_run(speed), "s")
    else:
        metrics = {
            "run_s": (laps.fastest_run(speed), "s"),
            "setup_s": (statistics.median(setups) * speed, "s"),
            # every run repeats the same operations, so this is also the share
            # of one run; never 0, as the shipped spec's checks always pass
            "pass_share": ((out.attempted - out.failed) / out.attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    details = {"workload": workload, "seed": seed, "trace": trace, "runs_s": runs,
               "parts_s": part_runs, "setups_s": setups, "problems": out.problems,
               "fastest_run_s": laps.fastest_run(), "reference_s": min(references),
               "operations_s": laps.times}
    for part in parts:
        if hasattr(part, "draw"):
            details["draw"] = part.draw
    if tables:
        details["functions"] = tables[0]
    return out, metrics, details


def _unit(metric):
    return "s" if metric.endswith("_s") else "count"


def result_line(out, metrics):
    return json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args):
    out, metrics, details = measure(args.workload, args.seed, args.seconds, args.trace)
    for problem in out.problems:
        print(f"problem: {problem}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload}  {k} = {v:.6g} {u}")
    print(f"{args.workload}  attempted = {out.attempted}, failed = {out.failed}, "
          f"correct = {out.correct}")
    print(DETAILS + json.dumps(details))
    print(result_line(out, metrics))
    return 0 if out.correct else 1


def _child(workload, args, trace):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    details = next(json.loads(l[len(DETAILS):]) for l in lines if l.startswith(DETAILS))
    return proc.returncode, json.loads(lines[-1]), details


def _commit():
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _median_metrics(results):
    return {k: {"value": statistics.median(r["metrics"][k]["value"] for r in results),
                "unit": m["unit"]}
            for k, m in results[0]["metrics"].items()}


def run_all(args):
    """Each workload PAIRS times untraced and traced, alternating which goes
    first; metrics are medians over the pairs, so that the tracing overhead
    is not one difference of two noisy runs."""
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": PAIRS,
        "workloads": {},
    }
    status = 0
    for name in WORKLOADS:
        runs = {0: [], 1: []}
        for rep in range(PAIRS):
            for trace in ((0, 1) if rep % 2 == 0 else (1, 0)):
                rc, result, details = _child(name, args, trace)
                status = max(status, rc)
                if runs[trace]:
                    # the draw and the function table repeat; keep the first
                    details.pop("draw", None)
                    details.pop("functions", None)
                # each operation's fastest time is what run_s is made of
                details["operations_s"] = {
                    k: min(v) for k, v in details["operations_s"].items()}
                runs[trace].append({"result": result, "details": details})
        plain = _median_metrics([r["result"] for r in runs[0]])
        traced = _median_metrics([r["result"] for r in runs[1]])
        attempted = sum(r["result"]["attempted"] for r in runs[0])
        failed = sum(r["result"]["failed"] for r in runs[0])
        correct = all(r["result"]["correct"] for r in runs[0] + runs[1])
        entry = {
            "correct": correct,
            "end_to_end": plain,
            "fail_share": failed / attempted,
            "trace_overhead_s": traced["trace.run_s"]["value"] - plain["run_s"]["value"],
            "per_layer": traced,
            "untraced": runs[0],
            "traced": runs[1],
        }
        record["workloads"][name] = entry
        print(f"== {name}  (correct: {correct}, attempted {attempted}, failed {failed}; "
              f"medians of {PAIRS} processes)")
        for k, m in plain.items():
            print(f"   {k:<32} {m['value']:12.4f} {m['unit']}")
        print(f"   {'fail_share':<32} {entry['fail_share']:12.4f} 1")
        print(f"   {'trace overhead':<32} {entry['trace_overhead_s']:12.4f} s")
        for k, m in traced.items():
            print(f"   {k:<32} {m['value']:12.4f} {m['unit']}")
        draw = runs[0][0]["details"].get("draw")
        if draw:
            for case, info in draw["specs"].items():
                outcome = ", ".join(f"{o} {t:.3f} s" for o, t in info["runs"])
                print(f"   {case:<20} {outcome}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the record here")
    args = parser.parse_args(argv)
    if not (SRC / "reglinked" / "__init__.py").is_file():
        print(f"error: no reglinked sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
