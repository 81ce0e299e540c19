"""Tests of the benchmark's statistics helpers.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, nearest_rank, rate_mb_s, tail_percentile  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)
        self.assertEqual(median([7]), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            median([])


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(tail_percentile(values), (99.0, 990, 1000))
        # 999 samples leave only 9 beyond p99: fall back to p95.
        self.assertEqual(tail_percentile(values[:999])[0], 95.0)

    def test_p999_with_ten_thousand_samples(self):
        pct, value, n = tail_percentile(list(range(10000)))
        self.assertEqual((pct, value, n), (99.9, 9989, 10000))

    def test_too_few_samples(self):
        self.assertEqual(tail_percentile([1.0] * 15), (None, None, 15))
        self.assertEqual(tail_percentile([1.0] * 20)[0], 50.0)

    def test_nearest_rank(self):
        self.assertEqual(nearest_rank([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(nearest_rank([5, 1, 4, 2, 3], 100), 5)
        self.assertEqual(nearest_rank([5, 1, 4, 2, 3], 0), 1)


class RateTest(unittest.TestCase):
    def test_sum_of_bytes_over_sum_of_medians(self):
        # 2 MB in a median 1 s, 1 MB in a median 0.5 s: 3 MB / 1.5 s.
        rate = rate_mb_s([2_000_000, 1_000_000], [[1.0, 9.0, 0.9], [0.5, 0.4, 0.6]])
        self.assertAlmostEqual(rate, 2.0)

    def test_mismatched_lists(self):
        with self.assertRaises(ValueError):
            rate_mb_s([1], [])


if __name__ == "__main__":
    unittest.main()
