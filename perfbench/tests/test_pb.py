"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import digest, stats, sweep, workloads  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.min_samples_for(99), 1000)
        self.assertIsNone(stats.tail(list(range(999)), 99))
        self.assertEqual(stats.tail(list(range(1, 1001)), 99), 990)

    def test_nearest_rank_on_unsorted_input(self):
        samples = list(range(2000, 0, -1))
        self.assertEqual(stats.tail(samples, 99), 1980)
        self.assertEqual(stats.tail(samples, 50), 1000)

    def test_small_or_empty_samples_have_no_tail(self):
        self.assertIsNone(stats.tail([], 50))
        self.assertIsNone(stats.tail([5.0, 6.0], 99))
        self.assertEqual(stats.tail(list(range(1, 21)), 50), 10)

    def test_quartile_spread_matches_statistics_quantiles(self):
        values = [10.0, 10.5, 9.8, 10.2, 11.0, 10.1, 9.9, 10.4, 10.3, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.quartile_spread([3.0] * 10), 0.0)


class SweepGenerator(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, b = sweep.generate(7, 0, 600), sweep.generate(7, 0, 600)
        self.assertEqual(a.prefill, b.prefill)
        self.assertEqual(a.requests, b.requests)
        self.assertEqual(a.stream_text(), b.stream_text())

    def test_other_seed_or_session_other_inputs(self):
        base = sweep.generate(7, 0, 600)
        self.assertNotEqual(base.requests, sweep.generate(8, 0, 600).requests)
        self.assertNotEqual(base.requests, sweep.generate(7, 1, 600).requests)

    def test_reads_and_writes(self):
        s = sweep.generate(3, 0, 1200)
        self.assertEqual(len(s.prefill), len(sweep.universe()) // 2)
        known, writes = set(s.prefill), 0
        for line in s.requests:
            if line not in known:
                writes += 1
                known.add(line)
        self.assertEqual(writes, s.writes)
        self.assertEqual(writes, round(sweep.WRITE_FRAC * len(s.requests)))

    def test_stream_is_batched_and_flushed(self):
        s = sweep.generate(1, 0, 20)
        lines = s.stream_text().splitlines()
        self.assertEqual(lines.count("flush"), 3)
        self.assertEqual(lines[sweep.BATCH], "flush")
        self.assertTrue(lines[0].startswith("req r0 v1 kernel="))


class DigestCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        for name, body in (("fig3.csv", b"a,b\n1,2\n"), ("fig3.txt", b"table\n")):
            with open(os.path.join(self.dir, name), "wb") as f:
                f.write(body)
        self.recorded = digest.digest_dir(self.dir)

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_outputs_pass(self):
        self.assertEqual(digest.check_dir(self.dir, self.recorded), [])

    def test_one_byte_change_is_rejected(self):
        path = os.path.join(self.dir, "fig3.csv")
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(b"9")
        self.assertEqual(digest.check_dir(self.dir, self.recorded), ["fig3.csv: digest differs"])

    def test_missing_and_extra_files_are_rejected(self):
        os.remove(os.path.join(self.dir, "fig3.txt"))
        with open(os.path.join(self.dir, "new.txt"), "w") as f:
            f.write("x")
        self.assertEqual(digest.check_dir(self.dir, self.recorded),
                         ["fig3.txt: missing", "new.txt: not in the recorded set"])

    def test_non_artifacts_are_ignored(self):
        with open(os.path.join(self.dir, "metrics.json"), "w") as f:
            f.write("{}")
        self.assertEqual(digest.check_dir(self.dir, self.recorded), [])

    def test_recorded_golden_set_is_complete(self):
        golden = digest.load_golden()
        self.assertEqual(len(golden), 27)
        self.assertIn("fig4.csv", golden)


class Parsing(unittest.TestCase):
    def test_cumulative_summary(self):
        err = ("[plan: requested=1209 unique=418 (merged figure plan, 8.2s)]\n"
               "[all artifacts done in 10.3s on 2 worker(s); cumulative plan: requested=2670 "
               "unique=0 elided=294 cache-hits=1422 disk-hits=954 replayed=0]\n")
        summary = workloads.parse_summary(err)
        self.assertEqual(summary["requested"], 2670)
        self.assertEqual(summary["unique"], 0)
        self.assertEqual(summary["disk-hits"], 954)
        self.assertEqual(workloads.parse_summary("no summary"), {})

    def test_out_line_fields(self):
        tag, fields = workloads.out_fields(
            "out r7 fp=00ab kind=prem makespan_cycles=123.5 cpmr=0.04")
        self.assertEqual(tag, "r7")
        self.assertEqual(fields, {"fp": "00ab", "kind": "prem",
                                  "makespan_cycles": "123.5", "cpmr": "0.04"})

    def test_layer_units(self):
        self.assertEqual(workloads.layer_unit("store.append_ns"), "ns")
        self.assertEqual(workloads.layer_unit("plan.hit_ratio"), "ratio")
        self.assertEqual(workloads.layer_unit("memsim.accesses"), "count")
        self.assertEqual(workloads.layer_unit("store.bytes_written_per_record"), "B")


if __name__ == "__main__":
    unittest.main()
