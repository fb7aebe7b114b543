#!/usr/bin/env python3
"""fcbench: the end-to-end FedCross simulation benchmark.

    python3 fcbench/run.py --workload cnn-sync --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. It builds the driver (fcbench/
CMakeLists.txt, into .bench_build/), runs the workload as a closed-loop
simulation for --seconds, checks the outputs, and prints a readable report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same repetitions untraced and traced and reports the per-layer metrics.
"""

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fcbench")
RUN_LIMIT_S = 170  # the whole run, build excluded, ends within this

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def fail(code, message):
    print("fcbench: " + message, file=sys.stderr)
    sys.exit(code)


def self_test():
    """The benchmark's own metric code must pass its tests before it runs."""
    out = io.StringIO()
    suite = unittest.defaultTestLoader.discover(HERE, pattern="test_*.py")
    result = unittest.TextTestRunner(stream=out, verbosity=1).run(suite)
    if not result.wasSuccessful():
        print(out.getvalue(), file=sys.stderr)
        fail(3, "metric self-tests failed")
    return result.testsRun


def build():
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                fail(4, "build failed, see " + log_path)
    return os.path.join(BUILD, "fcbench_driver")


def run_driver(binary, args, scratch, limit_s):
    """(rounds_per_rep, record or None). Driver progress goes to stderr."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=limit_s)
        lines, code = done.stdout.splitlines(), done.returncode
    except subprocess.TimeoutExpired as expired:
        out = expired.stdout or b""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        code = "timeout after %d s" % limit_s
    rounds = 1
    if lines:
        try:
            rounds = json.loads(lines[0]).get("rounds_per_rep", 1)
        except ValueError:
            pass
    if code != 0 or len(lines) < 2:
        print("fcbench: driver failed (%s)" % code, file=sys.stderr)
        return rounds, None
    return rounds, json.loads(lines[-1])


def report_header(record):
    host, config = record["host"], record["config"]
    print("fcbench %s seed=%d trace=%d" %
          (record["workload"], record["seed"], record["trace"]))
    print("host: nproc=%d fl_threads=%d simd=%s build=%s" %
          (host["nproc"], host["fl_threads"], host["simd"],
           host["build_type"]))
    print("config: " + " ".join("%s=%s" % kv for kv in config.items()))
    plain = metrics.untraced(record["reps"])
    print("final_params_digest: %s (repetition 0; all: %s)" %
          (plain[0]["digest"], ",".join(rep["digest"] for rep in plain)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail(2, "--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in (spec_path, os.path.join(ROOT, "CMakeLists.txt"),
                   os.path.join(ROOT, "src")):
        if not os.path.exists(needed):
            fail(2, "not a FedCross source checkout: %s is missing" % needed)
    with open(spec_path) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, "unknown workload " + args.workload)

    tests = self_test()
    binary = build()
    scratch = os.path.join(ROOT, ".bench_build",
                           "run-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        rounds, record = run_driver(binary, args, scratch, RUN_LIMIT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if record is None:  # a crash fails every round it attempted
        print(json.dumps({"correct": False, "attempted": rounds,
                          "failed": rounds, "metrics": {}}))
        return 1

    report_header(record)
    attempted = sum(rep["rounds"] for rep in record["reps"])
    failed = sum(rep["failed_rounds"] for rep in record["reps"])
    problems = [f for rep in record["reps"] for f in rep["failures"]]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    if args.trace:
        layer = metrics.per_layer(record)
        path = metrics.path_failures(record, layer)
        if path:
            traced_rounds = record["trace_totals"]["rounds"]
            failed = min(attempted, failed + traced_rounds)
            problems += path
        print("per-layer metrics (traced run, %d rounds; base = the "
              "ratio's denominator):" % record["trace_totals"]["rounds"])
        for group in layers:
            print("  [%s] moves %s" % (group["layer"],
                                       "; ".join(group["moves"])))
            for name in group["metrics"]:
                value, unit, base = layer[name]
                print("    %-30s %14.6g %-8s%s" %
                      (name, value, unit,
                       "" if base is None else " base %.6g" % base))
        for m in wanted:
            values[m["name"]] = layer[m["name"]][0]
        print("path assertions: %s" % ("pass" if not path else "FAIL"))
    else:
        e2e = metrics.end_to_end(record)
        print("end-to-end metrics:")
        for m in wanted:
            value, unit, n, note = e2e[m["name"]]
            values[m["name"]] = value
            print("  %-18s %14.6g %-4s n=%-5d %s" %
                  (m["name"], value, unit, n, note))
        print("  %-18s %14.6g %-4s n=%-5d failed rounds / rounds attempted" %
              ("error_rate", metrics.error_rate(attempted, failed), "ratio",
               attempted))
    for problem in problems:
        print("FAILED: " + problem)
    print("self-tests: %d passed" % tests)

    correct = failed == 0 and not problems
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
