#!/usr/bin/env python3
"""Tests for the row bookkeeping and the working-tree copy of
tools/bench_record.py (no benchmark runs): python3 tools/bench_record_test.py"""

import json
import os
import subprocess
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


class ExportWorkingTreeTest(unittest.TestCase):
    """The working tree is measured from a fresh copy of its tracked
    files, edits included, with nothing untracked or ignored."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = os.path.join(self.dir.name, "repo")
        self.copy = os.path.join(self.dir.name, "copy")
        os.makedirs(os.path.join(self.root, "src", "deep"))
        os.makedirs(self.copy)
        subprocess.run(["git", "init", "-q", self.root], check=True)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, text):
        with open(os.path.join(self.root, name), "w") as handle:
            handle.write(text)

    def test_copies_tracked_files_with_their_edits_and_nothing_else(self):
        self.write(".gitignore", ".bench_build/\n")
        self.write("top.txt", "committed\n")
        self.write(os.path.join("src", "deep", "a.cc"), "int a;\n")
        self.write("gone.txt", "tracked, then deleted\n")
        subprocess.run(["git", "add", "-A"], cwd=self.root, check=True)
        self.write("top.txt", "edited, not staged\n")
        os.remove(os.path.join(self.root, "gone.txt"))
        self.write("untracked.txt", "x\n")
        os.makedirs(os.path.join(self.root, ".bench_build"))
        self.write(os.path.join(".bench_build", "old.o"), "stale\n")

        bench_record.export_working_tree(self.copy, root=self.root)

        copied = sorted(
            os.path.relpath(os.path.join(where, name), self.copy)
            for where, _, names in os.walk(self.copy) for name in names)
        self.assertEqual(copied, [".gitignore", "src/deep/a.cc", "top.txt"])
        with open(os.path.join(self.copy, "top.txt")) as handle:
            self.assertEqual(handle.read(), "edited, not staged\n")


def scale_bench(peers, cpu_time, real_time, time_unit="ns"):
    """One entry of a bench_generated_scale --benchmark_format=json report."""
    return {"name": "BM_GeneratedNetworkScale/%d/iterations:3/manual_time"
                    % peers,
            "run_type": "iteration", "iterations": 3,
            "real_time": real_time, "cpu_time": cpu_time,
            "time_unit": time_unit, "items_per_second": 2.5,
            "peers": float(peers), "tables": 9.0, "chain_height": 41.0}


class ScaleRowsTest(unittest.TestCase):
    REPORT = {"context": {"num_cpus": 4}, "benchmarks": [
        scale_bench(16, 3.0e7, 1.2e9),
        scale_bench(128, 750.0, 4000.0, time_unit="ms"),
        dict(scale_bench(128, 1.0, 1.0), run_type="aggregate",
             aggregate_name="mean"),
    ]}

    def test_one_row_per_size_with_host_and_simulated_apart(self):
        rows = bench_record.scale_rows("aaa", self.REPORT)
        self.assertEqual([r["peers"] for r in rows], [16, 128])
        first = rows[0]
        self.assertEqual(first["sha"], "aaa")
        self.assertEqual(first["suite"], "generated-scale")
        self.assertEqual(first["seed"], 77)
        self.assertEqual(first["iterations"], 3)
        self.assertEqual(set(first["host"]), {"cpu_s_per_round"})
        self.assertEqual(set(first["simulated"]),
                         {"s_per_round", "items_per_second", "chain_height"})
        self.assertAlmostEqual(first["host"]["cpu_s_per_round"]["value"],
                               0.03)
        self.assertEqual(first["host"]["cpu_s_per_round"]["unit"], "s")
        self.assertAlmostEqual(first["simulated"]["s_per_round"]["value"],
                               1.2)
        self.assertEqual(first["simulated"]["items_per_second"]["value"],
                         2.5)
        self.assertEqual(first["simulated"]["chain_height"]["value"], 41)

    def test_time_unit_is_converted_to_seconds(self):
        last = bench_record.scale_rows("aaa", self.REPORT)[-1]
        self.assertAlmostEqual(last["host"]["cpu_s_per_round"]["value"],
                               0.75)
        self.assertAlmostEqual(last["simulated"]["s_per_round"]["value"],
                               4.0)

    def test_rows_of_one_sha_differ_by_size_and_replace_per_size(self):
        with tempfile.TemporaryDirectory() as root:
            path = bench_record.bench_path(root, "generated-scale")
            for row in bench_record.scale_rows("aaa", self.REPORT):
                bench_record.append_row(path, row)
            for row in bench_record.scale_rows("bbb", self.REPORT):
                bench_record.append_row(path, row)
            rows = bench_record.append_row(
                path, bench_record.scale_rows("aaa", self.REPORT)[0])
        self.assertTrue(path.endswith("BENCH_generated-scale.json"))
        self.assertEqual([(r["sha"], r["peers"]) for r in rows],
                         [("aaa", 128), ("bbb", 16), ("bbb", 128),
                          ("aaa", 16)])


def lanes_bench(lanes, cpu_time, real_time, time_unit="ns"):
    """One entry of a bench_scalability BM_LaneShardingScale JSON report."""
    return {"name": "BM_LaneShardingScale/%d/iterations:3/manual_time"
                    % lanes,
            "run_type": "iteration", "iterations": 3,
            "real_time": real_time, "cpu_time": cpu_time,
            "time_unit": time_unit, "items_per_second": 4.0 * lanes,
            "lanes": float(lanes), "total_blocks": 24.0 + lanes}


class LanesRowsTest(unittest.TestCase):
    REPORT = {"context": {"num_cpus": 4}, "benchmarks": [
        lanes_bench(1, 2.0e7, 8.0e9),
        lanes_bench(8, 30.0, 1500.0, time_unit="ms"),
        dict(lanes_bench(8, 1.0, 1.0), run_type="aggregate",
             aggregate_name="mean"),
    ]}

    def test_one_row_per_lane_count_with_host_and_simulated_apart(self):
        rows = bench_record.lanes_rows("aaa", self.REPORT)
        self.assertEqual([r["lanes"] for r in rows], [1, 8])
        first = rows[0]
        self.assertEqual(first["sha"], "aaa")
        self.assertEqual(first["suite"], "lanes")
        self.assertEqual(first["iterations"], 3)
        self.assertNotIn("peers", first)
        self.assertEqual(set(first["host"]), {"cpu_s_per_round"})
        self.assertEqual(set(first["simulated"]),
                         {"s_per_round", "updates_per_s", "total_blocks"})
        self.assertAlmostEqual(first["host"]["cpu_s_per_round"]["value"],
                               0.02)
        self.assertAlmostEqual(first["simulated"]["s_per_round"]["value"],
                               8.0)
        self.assertEqual(first["simulated"]["updates_per_s"],
                         {"value": 4.0, "unit": "1/s"})
        self.assertEqual(first["simulated"]["total_blocks"]["value"], 25)
        last = rows[-1]
        self.assertAlmostEqual(last["host"]["cpu_s_per_round"]["value"],
                               0.03)
        self.assertAlmostEqual(last["simulated"]["s_per_round"]["value"],
                               1.5)

    def test_rows_of_one_sha_differ_by_lane_count(self):
        with tempfile.TemporaryDirectory() as root:
            path = bench_record.bench_path(root, "lanes")
            for row in bench_record.lanes_rows("aaa", self.REPORT):
                bench_record.append_row(path, row)
            rows = bench_record.append_row(
                path, bench_record.lanes_rows("aaa", self.REPORT)[0])
        self.assertTrue(path.endswith("BENCH_lanes.json"))
        self.assertEqual([(r["sha"], r["lanes"]) for r in rows],
                         [("aaa", 8), ("aaa", 1)])


def storage_bench(name, real_time, hwm, time_unit="ms", iterations=1):
    return {"name": name, "run_name": name.split("/iterations")[0],
            "run_type": "iteration", "iterations": iterations,
            "real_time": real_time, "cpu_time": real_time * 0.9,
            "time_unit": time_unit, "items_per_second": 1.0,
            "VmHWM_mb": hwm}


class StorageRowsTest(unittest.TestCase):
    REPORT = {"context": {"num_cpus": 4}, "benchmarks": [
        storage_bench("BM_ChunkedBulkLoadAndCheckpoint/1000000/iterations:1",
                      2500.0, 612.5),
        storage_bench("BM_ChunkedRecover/1000000", 4.0e8, 640.0,
                      time_unit="ns", iterations=3),
        dict(storage_bench("BM_ChunkedRecover/1000000", 1.0, 1.0),
             run_type="aggregate", aggregate_name="mean"),
    ]}

    def test_one_host_row_per_benchmark(self):
        rows = bench_record.storage_rows("aaa", self.REPORT)
        self.assertEqual([r["benchmark"] for r in rows],
                         ["BM_ChunkedBulkLoadAndCheckpoint",
                          "BM_ChunkedRecover"])
        load, recover = rows
        self.assertEqual(load["sha"], "aaa")
        self.assertEqual(load["suite"], "storage-1m")
        self.assertEqual(load["rows"], 1000000)
        self.assertEqual(load["iterations"], 1)
        self.assertNotIn("simulated", load)
        self.assertEqual(set(load["host"]),
                         {"wall_ms", "rows_per_s", "VmHWM_mb"})
        self.assertAlmostEqual(load["host"]["wall_ms"]["value"], 2500.0)
        self.assertAlmostEqual(load["host"]["rows_per_s"]["value"], 4.0e5)
        self.assertEqual(load["host"]["VmHWM_mb"],
                         {"value": 612.5, "unit": "MB"})
        # Wall time in any unit becomes ms; the rate is rows per wall
        # second, not google-benchmark's per-CPU-second items_per_second.
        self.assertEqual(recover["iterations"], 3)
        self.assertAlmostEqual(recover["host"]["wall_ms"]["value"], 400.0)
        self.assertAlmostEqual(recover["host"]["rows_per_s"]["value"], 2.5e6)

    def test_rows_of_one_sha_differ_by_benchmark(self):
        with tempfile.TemporaryDirectory() as root:
            path = bench_record.bench_path(root, "storage-1m")
            for row in bench_record.storage_rows("aaa", self.REPORT):
                bench_record.append_row(path, row)
            rows = bench_record.append_row(
                path, bench_record.storage_rows("aaa", self.REPORT)[0])
        self.assertTrue(path.endswith("BENCH_storage-1m.json"))
        self.assertEqual([(r["sha"], r["benchmark"]) for r in rows],
                         [("aaa", "BM_ChunkedRecover"),
                          ("aaa", "BM_ChunkedBulkLoadAndCheckpoint")])


if __name__ == "__main__":
    unittest.main()
