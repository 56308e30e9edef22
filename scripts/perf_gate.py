#!/usr/bin/env python3
"""Paired performance gate for qdm benchmarks.

Runs the same benches on two builds of the tree, the parent and the change,
on one machine, and fails (exit 1) when the change is slower than the pairs'
own spread allows. ROUNDS rounds alternate the two sides bench by bench,
and the side that goes first flips every round: the randomized multiple
interleaved trials of Abedi & Brecht, "Conducting Repeatable Experiments in
Highly Variable Cloud Computing Environments" (ICPE 2017).

Throughput rows (items/s, higher is better):
  * every bench_micro row that reports items_per_second, run at one fixed
    short --benchmark_min_time;
  * every throughput metric of the SWEEPS, run with --sweep-only.
Each round pairs the change's sample of a row with the parent's sample taken
next to it, so the ratio change/parent cancels what the machine's load did
to both. A row fails when the median of its per-round ratios is below 1 by
more than the larger of the ratios' interquartile range and the row's floor
(FLOOR, or its bench's entry in ROW_FLOORS).
Rows that only one side prints are listed by name and not gated.

Exact metrics (chain lengths, noise fidelities, cache counts) are pure
functions of seeds and code: every change-side round must print the values
checked in at bench/baselines/perf_baseline.json, to within 1e-9. A change
that moves one on purpose edits that file by hand and says why.

Usage:
  python3 scripts/perf_gate.py --parent PARENT_BUILD --change CHANGE_BUILD
where each build directory is a CMake build of the tree with its benches.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROUNDS = 10
MIN_TIME = "0.03"  # bench_micro's --benchmark_min_time, in seconds.
# Twenty runs of a tree against itself on a shared 4-vCPU VM: a median ratio
# that fell below 1 - IQR fell 11% at most (mqo_port_adaptive_items_per_s_t4).
FLOOR = 0.15
# Floors by bench (a row's name up to its first '/'). BM_BackendCreateCached
# reads about 1.2 or 2.0 M items/s by process (one run of a tree against itself
# read its median ratio 27% low at an IQR of 24%); uncached is 5-9x slower.
ROW_FLOORS = {"BM_BackendCreateCached": 0.5}
SWEEPS = ("bench_mqo_speedup", "bench_txn_scheduling",
          "bench_hardware_constraints", "bench_service_throughput",
          "bench_net_throughput", "bench_join_ordering")
EXACT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                          "bench", "baselines", "perf_baseline.json")
EXACT_TOLERANCE = 1e-9


def run(command):
    result = subprocess.run(command, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"perf_gate: {' '.join(command)} failed:\n{result.stderr}")
    return result.stdout


def run_bench(build, bench, tmp):
    """Runs one bench of `build` (a sweep, or one bench_micro row):
    ({row: items/s}, {name: exact value})."""
    if bench in SWEEPS:
        json_path = os.path.join(tmp, bench + ".json")
        run([os.path.join(build, "bench", bench), "--sweep-only", "--json",
             json_path])
        with open(json_path) as f:
            doc = json.load(f)
        return doc["metrics"], doc.get("exact_metrics", {})
    entries = json.loads(run([
        os.path.join(build, "bench", "bench_micro"), "--benchmark_format=json",
        "--benchmark_min_time=" + MIN_TIME, f"--benchmark_filter=^{bench}$"
    ]))["benchmarks"]
    return {entry["name"]: float(entry["items_per_second"])
            for entry in entries if "items_per_second" in entry}, {}


def benches(build):
    """The benches `build` has: each bench_micro row, then the sweeps."""
    micro = os.path.join(build, "bench", "bench_micro")
    rows = run([micro, "--benchmark_list_tests"]).split() if os.path.exists(
        micro) else []
    return rows + [sweep for sweep in SWEEPS
                   if os.path.exists(os.path.join(build, "bench", sweep))]


def collect(parent, change):
    """Runs ROUNDS rounds; in each, every bench runs on both sides in turn,
    the side that goes first flipping every round. Returns ({side: {row:
    [items/s]}}, [the change side's {name: exact value}, one per round])."""
    samples = {"parent": {}, "change": {}}
    has = {"parent": benches(parent), "change": benches(change)}
    exact_rounds = []
    with tempfile.TemporaryDirectory() as tmp:
        for round_index in range(ROUNDS):
            exact_round = {}
            sides = [("parent", parent), ("change", change)]
            if round_index % 2:
                sides.reverse()
            for bench in dict.fromkeys(has["parent"] + has["change"]):
                for side, build in sides:
                    if bench not in has[side]:
                        continue
                    rows, exact = run_bench(build, bench, tmp)
                    if not rows and not exact:
                        has[side].remove(bench)  # No items/s: not a row.
                    for name, value in rows.items():
                        samples[side].setdefault(name, []).append(value)
                    if side == "change":
                        exact_round.update(exact)
            exact_rounds.append(exact_round)
    return samples, exact_rounds


def judge(parent, change, floor):
    """The decision rule for one row: `parent` and `change` hold its items/s
    samples in round order. Returns (slowdown, margin) as fractions; the row
    fails when slowdown > margin."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return 1 - median, max(q3 - q1, floor)


def gate(samples, exact_rounds, checked_in):
    """Prints one line per row and returns the failures."""
    failures = []
    parent, change = samples["parent"], samples["change"]
    for name in sorted(set(parent) & set(change)):
        slowdown, margin = judge(parent[name], change[name],
                                 ROW_FLOORS.get(name.split("/")[0], FLOOR))
        line = (f"{name}: parent {statistics.median(parent[name]):.4g} -> "
                f"change {statistics.median(change[name]):.4g} items/s "
                f"(paired {-slowdown:+.1%}, margin -{margin:.1%})")
        print(f"perf_gate: {line} {'SLOWER' if slowdown > margin else 'OK'}")
        if slowdown > margin:
            failures.append(line)
    one_sided = sorted(set(parent) ^ set(change))
    if one_sided:
        print(f"perf_gate: {len(one_sided)} rows printed by one side only "
              f"(not gated): {', '.join(one_sided)}")

    for round_index, exact in enumerate(exact_rounds, 1):
        for name, want in sorted(checked_in.items()):
            got = exact.get(name)
            if got is None:
                failures.append(f"{name}: missing from change round "
                                f"{round_index} (exact)")
            elif abs(got - want) > EXACT_TOLERANCE:
                failures.append(f"{name}: exact metric drifted {want:.17g} "
                                f"-> {got:.17g} in change round {round_index}")
    unchecked = sorted({name for exact in exact_rounds for name in exact}
                       - set(checked_in))
    if unchecked:
        print(f"perf_gate: {len(unchecked)} exact metrics not checked in "
              f"(not gated): {', '.join(unchecked)}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="build directory of the parent")
    parser.add_argument("--change", required=True,
                        help="build directory of the change")
    args = parser.parse_args()
    with open(EXACT_PATH) as f:
        checked_in = json.load(f)["exact_metrics"]

    samples, exact_rounds = collect(args.parent, args.change)
    failures = gate(samples, exact_rounds, checked_in)
    if failures:
        print("perf_gate: FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    rows = len(set(samples["parent"]) & set(samples["change"]))
    print(f"perf_gate: {rows} rows within their margins over {ROUNDS} "
          f"rounds; {len(checked_in)} exact metrics unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
