#!/usr/bin/env python3
"""Builds and runs the qdm benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload mqo_remote --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library, the qdmd daemon and the benchmark binaries into .bench_build/
(Release); later runs rebuild only what changed. The helper tests run before
every measurement. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; run records and trace spans
are written to .bench_build/runs/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("mqo_remote", "txn_epochs_inproc", "portfolio_open")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the benchmark targets; logs go to a file."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no qdm source tree next to %s; run from a full checkout" % HERE)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "qdm_perf", "perf_util_test"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed (full log: %s)" % log_path)
    test = subprocess.run([os.path.join(BUILD, "perf_util_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        fail("helper tests failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        if commit.returncode == 0:
            return commit.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as data:
                digest.update(data.read())
    return "sources-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as spec:
        listed = json.load(spec)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(RUNS, exist_ok=True)
    command = [os.path.join(BUILD, "qdm_perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", RUNS,
               "--commit", source_id()]
    # Its own process group, so a timeout stops the daemon it started too.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = output.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("qdm_perf exited %d without a result line" % child.returncode)
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
                sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))
    print(json.dumps(result))
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
