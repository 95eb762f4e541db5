"""Tests of the benchmark's spread and bounds logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402


def series(center, rel_noise, n, rng):
    return [center * (1 + rng.uniform(-rel_noise, rel_noise)) for _ in range(n)]


class BoundsTest(unittest.TestCase):
    def setUp(self):
        self.metrics = compare.load_spec()["end_to_end"]
        self.rng = random.Random(7)

    def runs(self, shift):
        """Ten runs per metric around a baseline value, each metric moved
        by `shift` (a share of its value) in its *worse* direction."""
        out = []
        for _ in range(10):
            r = {}
            for m in self.metrics:
                sign = 1 if m["better"] == "lower" else -1
                (v,) = series(100.0, 0.02, 1, self.rng)
                r[m["name"]] = v * (1 + sign * shift)
            out.append(r)
        return out

    def test_unchanged_series_pass(self):
        self.assertEqual(compare.regressions(self.runs(0), self.runs(0), self.metrics), [])

    def test_a_25_percent_shift_is_flagged(self):
        flagged = {name for name, _, _ in compare.regressions(self.runs(0), self.runs(0.25), self.metrics)}
        # Every metric whose bound is below the shift is flagged (those at
        # the 0.25 ceiling sit on the line, so noise decides them).
        expected = {m["name"] for m in self.metrics if m["bound"] < 0.25}
        self.assertTrue(expected)
        self.assertLessEqual(expected, flagged)

    def test_a_shift_beyond_every_bound_flags_every_metric(self):
        flagged = {name for name, _, _ in compare.regressions(self.runs(0), self.runs(0.35), self.metrics)}
        self.assertEqual(flagged, {m["name"] for m in self.metrics})

    def test_improvement_is_not_flagged(self):
        self.assertEqual(compare.regressions(self.runs(0.25), self.runs(0), self.metrics), [])

    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(compare.worsening(100, 125, "lower"), 0.25)
        self.assertAlmostEqual(compare.worsening(100, 75, "higher"), 0.25)
        self.assertAlmostEqual(compare.worsening(100, 125, "higher"), -0.25)

    def test_spread_is_interquartile_share_of_median(self):
        self.assertAlmostEqual(compare.spread([10.0] * 10), 0.0)
        vals = [float(v) for v in range(1, 11)]
        q1, q2, q3 = 2.75, 5.5, 8.25  # statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(compare.spread(vals), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
