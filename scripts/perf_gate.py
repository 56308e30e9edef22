#!/usr/bin/env python3
"""CI performance gate for qdm benchmarks.

Compares current numbers against a checked-in baseline and fails (exit 1)
on a regression. Two metric classes:

  * "metrics" — throughput (items/s), gated as a RATIO: fails when current
    < baseline / --max-regression (default 2x). Improvements always pass.
  * "exact_metrics" — deterministic quantities (embedding chain lengths,
    chain-break fractions), gated for EQUALITY (tolerance 1e-9): any drift,
    in either direction, fails. These are pure functions of seeds and code,
    so a change means behavior changed and the baseline must be
    consciously refreshed.

Two input formats are understood and may be mixed freely:

  * google-benchmark JSON (bench_micro --benchmark_format=json): entries of
    "benchmarks" that report "items_per_second" are gated under their "name".
  * qdm sweep JSON ({"metrics": {...}, "exact_metrics": {...}}), written by
    bench_mqo_speedup / bench_txn_scheduling / bench_hardware_constraints
    with --sweep-only --json PATH (the exact_metrics section is optional).

Override knob: set the environment variable QDM_PERF_GATE=off to turn the
gate into a no-op (exit 0 with a notice) — for machines whose absolute
throughput is not comparable to the recorded baseline. To refresh the
baseline after an intentional change, re-run with --update.

Run context: --update also stores a "context" object describing where the
rows came from — num_cpus and mhz_per_cpu from google-benchmark, and the
qdm_simd_tier, compiler and cpus_allowed (1 when pinned) that bench_micro
adds. A gate run prints the baseline's and the current context beside any
REGRESSED row, so a machine, toolchain or pinning change is visible there.

Usage:
  python3 scripts/perf_gate.py --baseline bench/baselines/perf_baseline.json \
      --current bench_micro.json mqo_batch.json txn_batch.json hw_embed.json \
      [--update]
"""

import argparse
import json
import os
import sys

EXACT_TOLERANCE = 1e-9
# The google-benchmark context fields a baseline records.
CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "qdm_simd_tier", "compiler",
                "cpus_allowed")


def load_metrics(path):
    """Returns ({name: items/s}, {name: exact_value}, context) from either
    format; context holds the CONTEXT_KEYS the file reports."""
    with open(path) as f:
        data = json.load(f)
    metrics = {}
    exact = {}
    context = {key: value for key, value in data.get("context", {}).items()
               if key in CONTEXT_KEYS}
    if "benchmarks" in data:  # google-benchmark format.
        for entry in data["benchmarks"]:
            if "items_per_second" in entry:
                metrics[entry["name"]] = float(entry["items_per_second"])
    if "metrics" in data:  # qdm sweep format.
        for name, value in data["metrics"].items():
            metrics[name] = float(value)
    if "exact_metrics" in data:
        for name, value in data["exact_metrics"].items():
            exact[name] = float(value)
    if not metrics and not exact:
        sys.exit(f"perf_gate: no metrics found in {path}")
    return metrics, exact, context


def load_all(paths):
    metrics = {}
    exact = {}
    context = {}
    for path in paths:
        m, e, c = load_metrics(path)
        metrics.update(m)
        exact.update(e)
        context.update(c)
    return metrics, exact, context


def format_context(context):
    if not context:
        return "(none recorded)"
    return ", ".join(f"{key}={context[key]}" for key in CONTEXT_KEYS
                     if key in context)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in baseline JSON ({'metrics': {...}, "
                             "'exact_metrics': {...}})")
    parser.add_argument("--current", nargs="+", required=True,
                        help="one or more result JSON files to gate")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when current < baseline / this (default 2)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current results")
    args = parser.parse_args()

    # --update must work even where the gate itself is switched off (the
    # knob disables the comparison, not baseline maintenance).
    if args.update:
        current, current_exact, current_context = load_all(args.current)
        with open(args.baseline, "w") as f:
            json.dump({"schema": 2, "context": current_context,
                       "metrics": current, "exact_metrics": current_exact},
                      f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"perf_gate: baseline updated with {len(current)} metrics + "
              f"{len(current_exact)} exact metrics -> {args.baseline}")
        return 0

    if os.environ.get("QDM_PERF_GATE", "on").lower() in ("off", "0", "false"):
        print("perf_gate: QDM_PERF_GATE=off, skipping (override knob)")
        return 0

    current, current_exact, current_context = load_all(args.current)

    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    baseline = baseline_doc["metrics"]
    baseline_exact = baseline_doc.get("exact_metrics", {})
    baseline_context = baseline_doc.get("context", {})

    failures = []
    for name in sorted(baseline):
        base = float(baseline[name])
        if name not in current:
            failures.append(f"{name}: missing from current results")
            continue
        now = current[name]
        ratio = now / base if base > 0 else float("inf")
        status = "OK" if ratio >= 1.0 / args.max_regression else "REGRESSED"
        print(f"perf_gate: {name}: baseline {base:.1f} -> current {now:.1f} "
              f"items/s ({ratio:.2f}x) {status}")
        if status == "REGRESSED":
            print(f"perf_gate:   baseline context: "
                  f"{format_context(baseline_context)}")
            print(f"perf_gate:   current context:  "
                  f"{format_context(current_context)}")
            failures.append(
                f"{name}: {now:.1f} vs baseline {base:.1f} items/s "
                f"({ratio:.2f}x < 1/{args.max_regression:g})")

    for name in sorted(baseline_exact):
        base = float(baseline_exact[name])
        if name not in current_exact:
            failures.append(f"{name}: missing from current results (exact)")
            continue
        now = current_exact[name]
        drifted = abs(now - base) > EXACT_TOLERANCE
        status = "DRIFTED" if drifted else "OK"
        # Full precision: the comparison tolerance is 1e-9, so rounded
        # output could report two identical-looking numbers as drifted.
        print(f"perf_gate: {name}: baseline {base:.17g} -> current "
              f"{now:.17g} (exact) {status}")
        if drifted:
            failures.append(
                f"{name}: exact metric drifted {base:.17g} -> {now:.17g} "
                f"(deterministic value; a change means behavior changed)")

    extra = sorted((set(current) - set(baseline))
                   | (set(current_exact) - set(baseline_exact)))
    if extra:
        print(f"perf_gate: {len(extra)} metrics not in baseline (ignored): "
              + ", ".join(extra))

    if failures:
        print("perf_gate: FAILED (set QDM_PERF_GATE=off to bypass, or rerun "
              "with --update after an intentional change):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"perf_gate: all {len(baseline)} ratio metrics within "
          f"{args.max_regression:g}x and {len(baseline_exact)} exact metrics "
          f"unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
