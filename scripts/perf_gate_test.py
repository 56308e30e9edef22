#!/usr/bin/env python3
"""Tests perf_gate.py's decision rule on synthetic samples, without running
any bench. Run: python3 scripts/perf_gate_test.py"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

# Eight rounds of one row's items/s on the parent.
STEADY = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0]
EXACT = {"chain_len": 4.0, "fidelity": 0.9069727497240636}


def run_gate(parent, change, exact_rounds=(EXACT,)):
    """Returns (failures, printed output) of one gate over the given rows."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        failures = perf_gate.gate({"parent": parent, "change": change},
                                  list(exact_rounds), EXACT)
    return failures, out.getvalue()


class DecisionRuleTest(unittest.TestCase):
    def test_equal_distributions_pass(self):
        failures, out = run_gate({"row": STEADY}, {"row": list(STEADY)})
        self.assertEqual(failures, [])
        self.assertIn("row: parent 100 -> change 100 items/s", out)

    def test_slower_than_floor_and_iqr_fails(self):
        slower = [0.8 * value for value in STEADY]
        failures, out = run_gate({"row": STEADY}, {"row": slower})
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("row:"))
        self.assertIn("(paired -20.0%, margin -15.0%) SLOWER", out)

    def test_slower_inside_iqr_of_ratios_passes(self):
        # Per-round ratios with an IQR of 0.45..1.05: a 25% drop is noise.
        ratios = [0.3, 0.45, 0.45, 0.75, 0.75, 1.05, 1.05, 1.2]
        change = [r * value for r, value in zip(ratios, STEADY)]
        failures, out = run_gate({"row": STEADY}, {"row": change})
        self.assertEqual(failures, [])
        self.assertIn("(paired -25.0%, margin -60.0%) OK", out)

    def test_slowdown_under_shared_load_fails(self):
        # Load halves both sides in every other round; the pairs cancel it.
        loaded = [value / (1 + i % 2) for i, value in enumerate(STEADY)]
        slower = [0.8 * value for value in loaded]
        failures, out = run_gate({"row": loaded}, {"row": slower})
        self.assertEqual(len(failures), 1)
        self.assertIn("(paired -20.0%, margin -15.0%) SLOWER", out)

    def test_bench_floor_widens_margin(self):
        slower = [0.8 * value for value in STEADY]
        perf_gate.ROW_FLOORS["BM_Row"] = 0.25
        try:
            failures, out = run_gate({"BM_Row/4": STEADY, "BM_Other": STEADY},
                                     {"BM_Row/4": slower, "BM_Other": slower})
        finally:
            del perf_gate.ROW_FLOORS["BM_Row"]
        self.assertEqual(failures, [
            "BM_Other: parent 100 -> change 80 items/s "
            "(paired -20.0%, margin -15.0%)"])
        self.assertIn("BM_Row/4: parent 100 -> change 80 items/s "
                      "(paired -20.0%, margin -25.0%) OK", out)

    def test_one_sided_row_is_listed_not_failed(self):
        failures, out = run_gate({"row": STEADY, "old_row": STEADY},
                                 {"row": STEADY, "new_row": [1.0, 1.0]})
        self.assertEqual(failures, [])
        self.assertIn("2 rows printed by one side only (not gated): "
                      "new_row, old_row", out)

    def test_drifted_exact_metric_fails(self):
        drifted = dict(EXACT, fidelity=0.9069727)
        failures, _ = run_gate({}, {}, [EXACT, drifted])
        self.assertEqual(len(failures), 1)
        self.assertIn("fidelity: exact metric drifted", failures[0])
        self.assertIn("in change round 2", failures[0])

    def test_missing_exact_metric_fails(self):
        failures, _ = run_gate({}, {}, [{"chain_len": 4.0}])
        self.assertEqual(failures,
                         ["fidelity: missing from change round 1 (exact)"])


if __name__ == "__main__":
    unittest.main()
