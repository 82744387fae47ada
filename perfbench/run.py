#!/usr/bin/env python3
"""Continuous-loop benchmark of the RAS solve loop.

Builds perfbench/round_bench from the repository's sources (CMake, Release)
and runs it. Run from the repository root:

  python3 perfbench/run.py --workload mono_churn --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all                 # every workload, both modes
  python3 perfbench/run.py --workload shard_churn --steady 10 --seed 100

The build goes to $CARGO_TARGET_DIR when set, else .bench_build. The last line
of a single run's stdout is the result JSON
({"correct", "attempted", "failed", "metrics"}); --steady prints each
end-to-end metric's median, quartiles and spread over N seeds instead.
See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mono_churn", "request_mix", "shard_churn"]
# Hard cap on one benchmark process, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds round_bench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "round_bench", "-j", jobs])
    for step in steps:
        # Build logs go to stderr: stdout's last line is reserved for the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(out, "round_bench")
    return binary if os.path.exists(binary) else None


def run_once(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (human-readable lines, result dict) or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", os.path.join(build_dir(), "work")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round_bench timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round_bench exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("round_bench printed no result line", file=sys.stderr)
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        print("round_bench result is malformed", file=sys.stderr)
        return None
    return lines[:-1], result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, workload, first_seed, runs, seconds):
    """Runs one workload on `runs` seeds and prints each end-to-end metric's
    median, quartiles and spread (IQR / median) against its bound."""
    bounds = {m["name"]: m.get("bound") for m in load_spec()["end_to_end"]}
    values = {}
    ok = True
    for i in range(runs):
        seed = first_seed + i
        out = run_once(binary, workload, seed, seconds, 0)
        if out is None:
            return 1
        _, result = out
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} rounds={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{workload}: {runs} runs, {seconds}s each")
    print(f"{'metric':<22} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread < bound / 3 else "  WIDE"
        print(f"{name:<22} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds starting at --seed and print medians and quartiles")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]

    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1

    if args.steady > 0:
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        return max(steady(binary, w, args.seed, args.steady, seconds) for w in workloads)

    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                out = run_once(binary, workload, args.seed, seconds, trace)
                if out is None:
                    return 1
                lines, result = out
                print("\n".join(lines))
                print(json.dumps(result), flush=True)
                if not result["correct"] or result["failed"]:
                    status = 1
        return status

    out = run_once(binary, args.workload, args.seed, seconds, args.trace)
    if out is None:
        return 1
    lines, result = out
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
