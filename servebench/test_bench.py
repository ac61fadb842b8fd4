"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s servebench -p 'test_*.py'

The snippet-determinism test needs the probe built by a first run.py run
(.bench_build/servebench_probe) and is skipped without it."""

import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402

PROBE = os.path.join(os.path.dirname(HERE), ".bench_build", "servebench_probe")


class SequenceTest(unittest.TestCase):
    @unittest.skipUnless(os.path.exists(PROBE), "servebench_probe not built")
    def test_same_seed_same_snippet_bytes(self):
        def snippets(seed):
            return subprocess.run([PROBE, "snippets", str(seed), "500"],
                                  capture_output=True, check=True).stdout
        a, b, other = snippets(5), snippets(5), snippets(6)
        self.assertEqual(a, b)
        self.assertNotEqual(a, other)
        self.assertEqual(len(a.splitlines()), 500)
        self.assertEqual(len(set(a.splitlines())), 500)

    def test_same_seed_same_sequence_and_schedule(self):
        hot = ["h%d" % i for i in range(bench.HOT_SET)]
        distinct = ["d%d" % i for i in range(1000)]
        self.assertEqual(bench.hot_repeat_sequence(hot, distinct, 500, 3),
                         bench.hot_repeat_sequence(hot, distinct, 500, 3))
        self.assertNotEqual(bench.hot_repeat_sequence(hot, distinct, 500, 3),
                            bench.hot_repeat_sequence(hot, distinct, 500, 4))
        self.assertEqual(bench.poisson_schedule(20.0, 100, 9),
                         bench.poisson_schedule(20.0, 100, 9))

    def test_hot_and_distinct_shares_are_exact(self):
        hot = ["h%d" % i for i in range(bench.HOT_SET)]
        distinct = ["d%d" % i for i in range(1000)]
        for count in (10, 101, 1000):
            codes, flags = bench.hot_repeat_sequence(hot, distinct, count, 1)
            n_hot = round(bench.HOT_SHARE * count)
            self.assertEqual(sum(flags), n_hot)
            self.assertEqual(sum(1 for c in codes if c.startswith("h")), n_hot)
            fresh = [c for c in codes if c.startswith("d")]
            self.assertEqual(len(fresh), count - n_hot)
            self.assertEqual(len(set(fresh)), len(fresh))  # never repeated
            self.assertEqual(fresh, distinct[:len(fresh)])

    def test_distinct_sequence_refuses_reuse_past_pool(self):
        with self.assertRaises(ValueError):
            bench.distinct_sequence(["a", "b"], 2, 1)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bench.percentile(values, 0.5), 50)
        self.assertEqual(bench.percentile(values, 0.99), 99)
        self.assertEqual(bench.percentile(values, 1.0), 100)
        self.assertEqual(bench.median([3, 1, 2, 4]), 2.5)

    def test_median_split_adds_up_to_the_median(self):
        # Skewed parts: the sum of their medians misses the median latency
        # (2.8 against 7.3 here); the median request's split does not.
        rows = []
        for i in range(1000):
            queue = 2.0
            batch = 5.0 if i % 10 < 3 else 0.5
            front = 5.0 if i % 10 >= 7 else 0.3
            rows.append((queue + batch + front, (queue, batch, front)))
        latency, parts = bench.median_split(rows)
        self.assertAlmostEqual(sum(parts), latency)
        median_latency = bench.median([r[0] for r in rows])
        self.assertLess(abs(latency - median_latency) / median_latency, 0.1)
        sum_of_medians = sum(bench.median([r[1][i] for r in rows]) for i in range(3))
        self.assertGreater(abs(sum_of_medians - median_latency) / median_latency, 0.1)

    def test_p99_needs_1000_samples(self):
        with self.assertRaises(ValueError):
            bench.p99([1.0] * 999)
        values = list(range(1000))
        self.assertEqual(bench.p99(values), 989)
        # Ten samples lie beyond the reported value.
        self.assertEqual(sum(1 for v in values if v > bench.p99(values)), 10)


class RateSearchTest(unittest.TestCase):
    @staticmethod
    def synthetic_probe(rate, capacity):
        """Latencies of a probe on a server with a hard capacity: flat 5 ms
        below it, a backlog growing linearly with time above it."""
        n = 100
        if rate <= capacity:
            return [5.0] * n
        return [5.0 + 40.0 * i * (rate / capacity - 1.0) for i in range(n)]

    def run_search(self, capacity, probes=40):
        search = bench.RateSearch()
        for _ in range(probes):
            lat = self.synthetic_probe(search.rate, capacity)
            search.record(bench.probe_passes(lat, 0, len(lat)))
        return search.estimate()

    def test_finds_capacity_on_synthetic_curve(self):
        for capacity in (3.0, 27.0, 400.0):
            est = self.run_search(capacity)
            self.assertLess(abs(math.log(est / capacity)), math.log(1.1),
                            "capacity %g estimated as %g" % (capacity, est))

    def test_stays_in_range(self):
        self.assertLessEqual(self.run_search(1e6), 1000.0)
        self.assertGreaterEqual(self.run_search(0.01), 1.0)

    def test_probe_conditions(self):
        steady = [5.0] * 200
        self.assertTrue(bench.probe_passes(steady, 0, 200))
        slow = [5.0] * 197 + [150.0] * 3  # 1.5% above the p99 limit
        self.assertFalse(bench.probe_passes(slow, 0, 200))
        self.assertFalse(bench.probe_passes(steady[:197] + [None] * 3, 3, 200))
        growing = [5.0] * 100 + [20.0] * 100  # second half's median rose
        self.assertFalse(bench.probe_passes(growing, 0, 200))


class VerdictCheckTest(unittest.TestCase):
    def test_corrupted_reference_is_caught(self):
        reply = {"id": 3, "p_directive": 0.75, "needs_directive": True,
                 "suggestion": "#pragma omp parallel for", "trace_id": "ab",
                 "queue_us": 10, "batch_us": 20, "infer_us": 5,
                 "coalesced": False, "cached": False}
        reference = dict(reply, id=0, trace_id="00", queue_us=0, batch_us=0,
                         infer_us=0)
        codes = ["for (i = 0; i < n; i++) a[i] = 0;"]
        self.assertEqual(bench.check_verdicts(codes, {0: reply},
                                              {codes[0]: reference}), [])
        corrupted = dict(reference, p_directive=0.7500001)
        self.assertEqual(bench.check_verdicts(codes, {0: reply},
                                              {codes[0]: corrupted}), [0])
        dropped = {k: v for k, v in reference.items() if k != "suggestion"}
        self.assertEqual(bench.check_verdicts(codes, {0: reply},
                                              {codes[0]: dropped}), [0])
        self.assertEqual(bench.check_verdicts(codes, {0: reply}, {}), [0])


if __name__ == "__main__":
    unittest.main()
