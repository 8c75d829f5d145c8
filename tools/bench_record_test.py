#!/usr/bin/env python3
"""Tests for the row bookkeeping of tools/bench_record.py (no benchmark
runs): python3 tools/bench_record_test.py"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_record  # noqa: E402

REPORT = {"correct": True, "attempted": 3, "failed": 0,
          "metrics": {"commit_cpu_ms": {"value": 4.5, "unit": "ms"}}}


class AppendRowTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.path = bench_record.bench_path(self.dir.name, "fanout-16")

    def tearDown(self):
        self.dir.cleanup()

    def row(self, sha, seed=1, value=4.5):
        report = dict(REPORT)
        report["metrics"] = {"commit_cpu_ms": {"value": value, "unit": "ms"}}
        return bench_record.make_row(sha, "fanout-16", seed, report)

    def read(self):
        with open(self.path) as handle:
            return json.load(handle)

    def test_first_row_creates_a_valid_json_list(self):
        self.assertFalse(os.path.exists(self.path))
        bench_record.append_row(self.path, self.row("aaa"))
        rows = self.read()
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["sha"], "aaa")
        self.assertEqual(rows[0]["workload"], "fanout-16")
        self.assertEqual(rows[0]["seed"], 1)
        self.assertTrue(rows[0]["correct"])
        self.assertEqual(rows[0]["metrics"]["commit_cpu_ms"]["value"], 4.5)
        self.assertTrue(self.path.endswith("BENCH_fanout-16.json"))

    def test_rows_append_in_order(self):
        bench_record.append_row(self.path, self.row("aaa"))
        bench_record.append_row(self.path, self.row("bbb"))
        bench_record.append_row(self.path, self.row("bbb", seed=7))
        self.assertEqual([(r["sha"], r["seed"]) for r in self.read()],
                         [("aaa", 1), ("bbb", 1), ("bbb", 7)])

    def test_same_sha_and_seed_replaces_instead_of_duplicating(self):
        bench_record.append_row(self.path, self.row("aaa", value=5.0))
        bench_record.append_row(self.path, self.row("bbb"))
        bench_record.append_row(self.path, self.row("aaa", value=4.0))
        rows = self.read()
        keys = [(r["sha"], r["seed"]) for r in rows]
        self.assertEqual(len(keys), len(set(keys)))
        self.assertEqual([r["sha"] for r in rows], ["bbb", "aaa"])
        self.assertEqual(rows[-1]["metrics"]["commit_cpu_ms"]["value"], 4.0)

    def test_a_file_that_is_not_a_list_is_refused(self):
        with open(self.path, "w") as handle:
            json.dump({"sha": "aaa"}, handle)
        with self.assertRaises(ValueError):
            bench_record.append_row(self.path, self.row("bbb"))

    def test_incorrect_report_is_recorded_as_such(self):
        report = dict(REPORT, correct=False)
        row = bench_record.make_row("ccc", "clinic-8k", 7, report)
        self.assertFalse(row["correct"])
        self.assertEqual(row["seed"], 7)


if __name__ == "__main__":
    unittest.main()
