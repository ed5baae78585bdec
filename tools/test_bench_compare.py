#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py --exact (ctest
`bench_compare_selftest`): wall-clock-derived cells are skipped, and every
other difference still fails the gate."""

from __future__ import annotations

import unittest

import bench_compare


def doc():
    """A micro-LP-shaped table: timing columns around deterministic ones."""
    return {
        "bench": "micro-LP",
        "columns": ["instance", "cold-it", "dense-ms", "rev-ms", "speedup",
                    "rev-us/it", "VWB ms"],
        "rows": [["interval n=48", 96, 60.8, 7.6, 8.0, 15.95, 0.43]],
        "verdicts": [{"pass": True,
                      "what": "revised simplex >= 1.0x dense on interval "
                              "n=48 (measured 8.0x)"}],
        "wall_seconds": 1.0,
    }


class ExactSkipsOnlyTiming(unittest.TestCase):
    def test_timing_cells_and_measured_clause_are_skipped(self):
        a, b = doc(), doc()
        b["rows"][0][2:] = [50.1, 7.4, 6.8, 15.48, 0.33]
        b["verdicts"][0]["what"] = b["verdicts"][0]["what"].replace(
            "8.0x)", "6.8x)")
        b["wall_seconds"] = 2.0
        self.assertEqual(bench_compare.compare_exact(a, b), [])

    def test_non_timing_cell_still_fails(self):
        a, b = doc(), doc()
        b["rows"][0][1] = 97
        problems = bench_compare.compare_exact(a, b)
        self.assertEqual(len(problems), 1)
        self.assertIn("[cold-it]", problems[0])

    def test_verdict_outcome_still_fails(self):
        a, b = doc(), doc()
        b["verdicts"][0]["pass"] = False
        self.assertEqual(len(bench_compare.compare_exact(a, b)), 1)

    def test_timing_rule_matches_only_timing_headers(self):
        timing = [c for c in ["VWB ms", "dense-ms", "rev-us/it", "speedup",
                              "items", "slow speed s2", "exhaustive",
                              "cold-it", "terms"]
                  if bench_compare.TIMING_COLUMN_RE.search(c)]
        self.assertEqual(timing, ["VWB ms", "dense-ms", "rev-us/it",
                                  "speedup"])


if __name__ == "__main__":
    unittest.main()
