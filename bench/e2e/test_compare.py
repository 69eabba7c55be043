#!/usr/bin/env python3
"""Checks compare.py's verdicts on small made-up sets.

    python3 bench/e2e/test_compare.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
LOWER = {"better": "lower"}


def scaled(factor):
    return [v * factor for v in BASE]


class SameCommit(unittest.TestCase):
    def test_equal_sets_agree(self):
        self.assertEqual(compare.agree(BASE, scaled(1.02), 0.10)["verdict"],
                         "agree")

    def test_second_set_slower_disagrees(self):
        self.assertEqual(compare.agree(BASE, scaled(1.3), 0.10)["verdict"],
                         "DISAGREE")

    def test_second_set_faster_disagrees(self):
        self.assertEqual(compare.agree(BASE, scaled(0.7), 0.10)["verdict"],
                         "DISAGREE")

    def test_wide_spread_is_reported(self):
        wide = [0.7, 0.8, 0.9, 1.0, 1.0, 1.0, 1.1, 1.2, 1.3, 1.0]
        self.assertEqual(compare.agree(wide, wide, 0.10)["verdict"],
                         "spread>bound")


class ParentAndChange(unittest.TestCase):
    def test_faster_change_improves(self):
        self.assertEqual(
            compare.judge(BASE, scaled(0.8), LOWER, 0.10)["verdict"],
            "improved")

    def test_slower_change_regresses(self):
        self.assertEqual(
            compare.judge(BASE, scaled(1.2), LOWER, 0.10)["verdict"],
            "regressed")

    def test_small_gap_is_unchanged(self):
        self.assertEqual(
            compare.judge(BASE, scaled(1.03), LOWER, 0.10)["verdict"],
            "unchanged")


if __name__ == "__main__":
    unittest.main()
