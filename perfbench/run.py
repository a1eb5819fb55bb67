#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program (perfbench.cc,
linked against the library in src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs one workload, and prints as the
last line of stdout one JSON object: {"correct", "attempted", "failed",
"metrics"}, each metric as {"value", "unit"}. For a workload listed in
BENCHMARK.json the metrics are its end_to_end list with --trace 0 and
its per_layer list with --trace 1; for any other workload (openloop)
they are everything the program reported. The program's readable
report goes to stderr. Exits non-zero, without a result line, when the
build or the run fails, and with a result line marked "correct": false
when any reply was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def select(bench, workload, trace, reported):
    """The metrics to print: BENCHMARK.json's list for a listed workload."""
    if workload not in [w["name"] for w in bench["workloads"]]:
        return reported
    metrics = {}
    for m in bench["per_layer"] if trace else bench["end_to_end"]:
        got = reported.get(m["name"])
        if got is None:
            fail("run did not report %s" % m["name"])
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(base, "perfbench"))
    # Compiler and run temporaries stay inside the build tree too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run failed (exit %d) without a result" % proc.returncode)

    metrics = select(bench, args.workload, args.trace, raw["metrics"])
    correct = proc.returncode == 0 and raw["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["sent"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
