"""Tests for the benchmark's own arithmetic (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples: p90 has 10 above it
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertIsNone(stats.percentile(values[:99], 0.9))  # 9 above
        self.assertIsNone(stats.percentile(values, 0.99))

    def test_tail_picks_highest_supported(self):
        self.assertEqual(stats.tail(list(range(1, 1001))), ("p99", 990))
        self.assertEqual(stats.tail(list(range(1, 101))), ("p90", 90))
        self.assertIsNone(stats.tail(list(range(1, 51))))
        self.assertIsNone(stats.tail([]))

    def test_median_of_nothing_is_absent(self):
        self.assertIsNone(stats.median([]))
        self.assertEqual(stats.median([3, 1, 2]), 2)


class RatioTest(unittest.TestCase):
    def test_zero_denominator_is_absent_not_zero_or_nan(self):
        self.assertIsNone(stats.ratio(0, 0))
        self.assertIsNone(stats.ratio(5, 0))
        self.assertIsNone(stats.ratio(None, 3))

    def test_zero_numerator_is_a_real_zero(self):
        self.assertEqual(stats.ratio(0, 4), 0)
        self.assertEqual(stats.ratio(3, 4), 0.75)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent):
        return (name, start, end, parent, 0)

    def test_overlapping_children_count_once(self):
        spans = [
            self.span("op", 0, 100, -1),
            self.span("a", 10, 40, 0),
            self.span("b", 30, 60, 0),  # overlaps a by 10
            self.span("c", 80, 90, 0),
        ]
        # children cover [10, 60) and [80, 90): 60 of 100
        self.assertEqual(stats.self_times(spans), [40, 30, 30, 10])

    def test_child_beyond_parent_is_clipped(self):
        spans = [self.span("op", 0, 50, -1), self.span("a", 40, 70, 0)]
        self.assertEqual(stats.self_times(spans)[0], 40)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            self.span("op", 0, 100, -1),
            self.span("a", 0, 50, 0),
            self.span("a1", 10, 20, 1),
        ]
        self.assertEqual(stats.self_times(spans), [50, 40, 10])

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(0, 5), (5, 7), (1, 2)]), 7)


class SpeedAdjustedTest(unittest.TestCase):
    def test_scales_cpu_share_and_keeps_waiting(self):
        # 10 ms of which 6 ms CPU, on a machine running at half speed
        self.assertAlmostEqual(stats.speed_adjusted(10, 6, 0.5), 7)
        self.assertEqual(stats.speed_adjusted(10, 0, 0.5), 10)  # all waiting

    def test_scales_waiting_share_by_wait_factor(self):
        # 4 ms waiting on a disk syncing at half speed, 6 ms CPU as is
        self.assertAlmostEqual(stats.speed_adjusted(10, 6, 1, 0.5), 8)

    def test_cpu_above_wall_counts_as_all_cpu(self):
        self.assertAlmostEqual(stats.speed_adjusted(10, 10.2, 2), 20)


if __name__ == "__main__":
    unittest.main()
