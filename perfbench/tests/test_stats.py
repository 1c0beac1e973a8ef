"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_matches_linear_rank_rule(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        # rank 0.9 * 4 = 3.6 lies 60 % of the way from 4.0 to 5.0
        self.assertAlmostEqual(stats.percentile(values, 90), 4.6)

    def test_median_of_even_count_averages_the_middle_pair(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.5)

    def test_single_value(self):
        self.assertEqual(stats.percentile([7.0], 90), 7.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 101)

    def test_p90_of_a_hundred_samples_leaves_ten_beyond(self):
        values = [float(v) for v in range(1, 101)]
        p90 = stats.percentile(values, 90)
        self.assertAlmostEqual(p90, 90.1)
        self.assertEqual(sum(v > p90 for v in values), 10)


class SelfTimeTest(unittest.TestCase):
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; d [6, 6] is
    # an empty child of b
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0]
    parents = [-1, 0, 1, 0, 3]

    def test_duration_minus_direct_children(self):
        self.assertEqual(
            stats.self_times(self.starts, self.ends, self.parents),
            [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 0.0, 0.0],
        )

    def test_self_times_sum_to_root_duration(self):
        self.assertAlmostEqual(sum(stats.self_times(self.starts, self.ends, self.parents)), 10.0)

    def test_attribute_sends_root_self_time_to_remainder(self):
        names = [0, 1, 2, 1, 2]
        per_name, remainder = stats.attribute(names, self.starts, self.ends, self.parents, 0)
        self.assertEqual(remainder, 3.0)
        self.assertEqual(per_name, {1: 2.0 + 4.0, 2: 1.0 + 0.0})
        self.assertAlmostEqual(sum(per_name.values()) + remainder, 10.0)


if __name__ == "__main__":
    unittest.main()
