"""Self-test of the benchmark's arithmetic on hand-built inputs.

    python3 perfbench/test_stats.py

run.py runs it before every measurement and refuses to report when it
fails."""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [40.0, 10.0, 30.0, 20.0, 50.0]
        self.assertEqual(stats.percentile(values, 0.5), 30.0)
        self.assertEqual(stats.percentile(values, 0.9), 50.0)
        self.assertEqual(stats.percentile(values, 0.0), 10.0)
        self.assertEqual(stats.percentile(values, 1.0), 50.0)
        self.assertEqual(stats.percentile(list(range(1, 101)), 0.9), 90)
        self.assertEqual(stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5), 2.0)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.0], 0.9), 7.0)

    def test_p90_of_update_cycles_is_the_fastest_update(self):
        # One request in nine carries an Algorithm 4 update; with whole
        # cycles the p90 rank is the first of the update requests.
        for cycles in range(1, 10):
            values = [100.0] * (8 * cycles) + [
                900.0 + i for i in range(cycles)]
            self.assertEqual(stats.percentile(values, 0.9), 900.0)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertAlmostEqual(stats.highest_supported_percentile(100), 0.9)
        self.assertAlmostEqual(stats.highest_supported_percentile(1000),
                               0.99)
        self.assertAlmostEqual(stats.highest_supported_percentile(40), 0.75)
        self.assertIsNone(stats.highest_supported_percentile(10))
        # At the rule's percentile exactly ten samples lie above the rank.
        n = 200
        q = stats.highest_supported_percentile(n)
        self.assertEqual(round(n * (1.0 - q)), 10)


class FailureTest(unittest.TestCase):
    def requests(self, oks):
        return [{"scheduled": 0.0, "sent": 0.0, "done": 0.010 * (i + 1),
                 "ok": ok} for i, ok in enumerate(oks)]

    def test_failed_request_is_infinitely_slow(self):
        latencies = stats.latencies_with_failures(
            self.requests([True, False, True]), "scheduled")
        self.assertAlmostEqual(latencies[0], 10.0)
        self.assertTrue(math.isinf(latencies[1]))
        self.assertAlmostEqual(latencies[2], 30.0)

    def test_failures_push_the_tail_to_infinity(self):
        oks = [True] * 8 + [False] * 2
        latencies = stats.latencies_with_failures(self.requests(oks),
                                                  "scheduled")
        self.assertAlmostEqual(stats.percentile(latencies, 0.5), 50.0)
        self.assertTrue(math.isinf(stats.percentile(latencies, 0.9)))
        self.assertEqual(
            stats.finite_or_cap(stats.percentile(latencies, 0.9)),
            stats.FAILED_MS)

    def test_latency_counts_from_the_schedule(self):
        request = {"scheduled": 1.0, "sent": 1.5, "done": 2.0, "ok": True}
        self.assertAlmostEqual(
            stats.latencies_with_failures([request], "scheduled")[0], 1000.0)
        self.assertAlmostEqual(
            stats.latencies_with_failures([request], "sent")[0], 500.0)


class QuartileTest(unittest.TestCase):
    def test_matches_exclusive_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        median, q1, q3, spread = stats.quartile_spread(values)
        self.assertAlmostEqual(median, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(spread, 1.0)

    def test_steady_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([3.0] * 10)[3], 0.0)


class F1Test(unittest.TestCase):
    def test_f1(self):
        self.assertAlmostEqual(stats.f1_score(6, 2, 4), 12.0 / 18.0)
        self.assertEqual(stats.f1_score(0, 3, 0), 0.0)
        self.assertIsNone(stats.f1_score(0, 0, 0))


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_even_when_they_overlap(self):
        spans = [
            {"name": "request", "start": 0.0, "end": 10.0, "parent": -1},
            {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
            {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},
            {"name": "c", "start": 8.0, "end": 12.0, "parent": 0},
            {"name": "a.1", "start": 1.0, "end": 2.0, "parent": 1},
        ]
        self_times = stats.span_self_times(spans)
        # [1, 6] and [8, 10] of the request are covered by its children.
        self.assertAlmostEqual(self_times[0], 3.0)
        self.assertAlmostEqual(self_times[1], 2.0)
        self.assertAlmostEqual(self_times[2], 3.0)
        self.assertAlmostEqual(self_times[3], 4.0)
        self.assertAlmostEqual(self_times[4], 1.0)

    def test_tree_self_time_keeps_other_layers_inside(self):
        family = {"detect", "detect/finetune", "detect/voting"}
        nodes = [
            {"path": "platform/process", "total_s": 10.0},
            {"path": "platform/process>detect", "total_s": 9.0},
            {"path": "platform/process>detect>detect/finetune",
             "total_s": 5.0},
            {"path": "platform/process>detect>detect/finetune>train",
             "total_s": 4.5},
            {"path": "platform/process>detect>detect/voting", "total_s": 2.0},
        ]
        self.assertAlmostEqual(
            stats.tree_self_time(nodes, "detect", family), 2.0)
        # train belongs to the nn layer and stays inside fine-tuning.
        self.assertAlmostEqual(
            stats.tree_self_time(nodes, "detect/finetune", family), 5.0)
        self.assertAlmostEqual(
            stats.tree_self_time(nodes, "detect/voting", family), 2.0)

    def test_tree_self_time_sums_every_node_of_a_name(self):
        nodes = [
            {"path": "detect", "total_s": 4.0},
            {"path": "detect>detect/inference", "total_s": 1.0},
            {"path": "detect>detect/iteration", "total_s": 2.5},
            {"path": "detect>detect/iteration>detect/inference",
             "total_s": 0.5},
        ]
        family = {"detect", "detect/inference", "detect/iteration"}
        self.assertAlmostEqual(
            stats.tree_self_time(nodes, "detect/inference", family), 1.5)
        self.assertAlmostEqual(
            stats.tree_self_time(nodes, "detect/iteration", family), 2.0)


class UnattributedTest(unittest.TestCase):
    def test_latency_minus_layers(self):
        self.assertAlmostEqual(stats.unattributed(100.0, [60.0, 25.0, 5.0]),
                               10.0)

    def test_layers_covering_everything_leave_nothing(self):
        self.assertAlmostEqual(stats.unattributed(42.0, [40.0, 2.0]), 0.0)


def run_quietly():
    """Runs the suite; returns (ok, report text)."""
    import io
    stream = io.StringIO()
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream, verbosity=1).run(suite)
    return result.wasSuccessful(), stream.getvalue()


if __name__ == "__main__":
    unittest.main()
