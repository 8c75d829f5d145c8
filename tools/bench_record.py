#!/usr/bin/env python3
"""Appends benchmark rows, keyed by git commit, to BENCH_<name>.json.

Four suites. The default, `--suite workloads`, appends one row per
benchmark workload to BENCH_<workload>.json: what
`perfbench/run.py --workload W --seed S --seconds 10` reports for each of
the four workloads:

    {"sha": ..., "workload": ..., "seed": ..., "correct": ...,
     "metrics": {name: {"value": ..., "unit": ...}}}

`--suite scale` builds bench_generated_scale in the measured copy's
`build/` directory, runs it with --benchmark_format=json, and appends
one row per network size (16/32/64/128 peers) to
BENCH_generated-scale.json. Host CPU and simulated time are kept apart:

    {"sha": ..., "suite": "generated-scale", "seed": 77, "peers": ...,
     "iterations": ...,
     "host": {"cpu_s_per_round": {"value": ..., "unit": "s"}},
     "simulated": {"s_per_round": ..., "items_per_second": ...,
                   "chain_height": ...}}

`--suite lanes` builds bench_scalability the same way, runs
BM_LaneShardingScale (one hub world, a 4-transaction block budget, 1/2/4/8
chain lanes) and appends one row per lane count to BENCH_lanes.json, host
CPU apart from simulated time again:

    {"sha": ..., "suite": "lanes", "lanes": ..., "iterations": ...,
     "host": {"cpu_s_per_round": {"value": ..., "unit": "s"}},
     "simulated": {"s_per_round": ..., "updates_per_s": ...,
                   "total_blocks": ...}}

`--suite storage-1m` builds bench_storage the same way and runs
BM_ChunkedBulkLoadAndCheckpoint/1000000 and BM_ChunkedRecover/1000000,
each in its own process, appending one row per benchmark to
BENCH_storage-1m.json. Everything is host-measured: wall ms per
iteration, rows per wall second, and VmHWM_mb, the process's peak
resident set as the benchmark reads it from /proc/self/status at its
end (the recover process builds the checkpoint it opens, so its peak
includes that load):

    {"sha": ..., "suite": "storage-1m", "benchmark": ..., "rows": ...,
     "iterations": ...,
     "host": {"wall_ms": {"value": ..., "unit": "ms"},
              "rows_per_s": {"value": ..., "unit": "1/s"},
              "VmHWM_mb": {"value": ..., "unit": "MB"}}}

The files live at the repository root and hold a JSON list of rows, oldest
first, so the trajectory of every end-to-end metric is one command away.

Usage, from anywhere inside the repository:

    python3 tools/bench_record.py                      # the working tree
    python3 tools/bench_record.py --rev 23c739c        # a committed revision
    python3 tools/bench_record.py --seed 7             # the held-out seed
    python3 tools/bench_record.py --suite scale        # generated networks
    python3 tools/bench_record.py --suite lanes        # chain lane counts
    python3 tools/bench_record.py --suite storage-1m   # 1M-row load, recover

Without --rev the working tree is measured; its sha is HEAD's, suffixed
with "-dirty" when tracked files other than BENCH_*.json differ from HEAD.
Either way the measured files are first copied to a fresh temporary
directory, measured there and deleted afterwards: with --rev the
revision's committed files (`git archive`), without it the working tree's
tracked files as they are on disk. So both sides of a comparison build
from equally fresh directories (host-CPU metrics move with where a build
was made), and nothing else in the checkout (an old .bench_build,
untracked files) reaches the row. Rows are appended to the BENCH files
of this checkout. A row whose (sha, seed, peers, lanes, benchmark) is
already recorded replaces the old one instead of adding a duplicate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fanout-16", "clinic-8k", "storage-50k", "loopback-tcp")
SECONDS = 10  # BENCHMARK.json's run_seconds
SCALE_NAME = "generated-scale"
SCALE_BENCH = "bench_generated_scale"
SCALE_SEED = 77  # the generator seed bench_generated_scale fixes
LANES_NAME = "lanes"
LANES_BENCH = "bench_scalability"
LANES_FILTER = "BM_LaneShardingScale"
STORAGE_NAME = "storage-1m"
STORAGE_BENCH = "bench_storage"
STORAGE_BENCHMARKS = ("BM_ChunkedBulkLoadAndCheckpoint/1000000",
                      "BM_ChunkedRecover/1000000")
TIME_UNITS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def bench_path(root, workload):
    return os.path.join(root, "BENCH_%s.json" % workload)


def load_rows(path):
    """The rows recorded in `path`; an absent file holds none."""
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ValueError("%s does not hold a JSON list" % path)
    return rows


def row_key(row):
    """What identifies a row: its commit, seed, and the network size
    (scale rows), lane count (lanes rows) or benchmark (storage rows)."""
    return (row.get("sha"), row.get("seed"), row.get("peers"),
            row.get("lanes"), row.get("benchmark"))


def append_row(path, row):
    """Adds `row` to the list in `path`, replacing a row with the same
    key (row_key). Returns the rows written."""
    key = row_key(row)
    rows = [r for r in load_rows(path) if row_key(r) != key]
    rows.append(row)
    with open(path + ".tmp", "w") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(path + ".tmp", path)
    return rows


def make_row(sha, workload, seed, report):
    """The row for one perfbench report (its last stdout line, parsed)."""
    return {
        "sha": sha,
        "workload": workload,
        "seed": seed,
        "correct": bool(report["correct"]),
        "metrics": report["metrics"],
    }


def manual_time_runs(report):
    """(entry, host CPU s per round, simulated s per round) for each
    iteration entry of a google-benchmark JSON report. With manual time,
    real_time is the simulated time per round and cpu_time the host CPU
    per round."""
    for bench in report["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue  # aggregates of repetitions, if any were asked for
        unit = TIME_UNITS[bench.get("time_unit", "ns")]
        yield bench, bench["cpu_time"] * unit, bench["real_time"] * unit


def scale_rows(sha, report):
    """The rows for one `bench_generated_scale --benchmark_format=json`
    report: one per network size, host CPU apart from simulated time."""
    rows = []
    for bench, cpu_s, sim_s in manual_time_runs(report):
        rows.append({
            "sha": sha,
            "suite": SCALE_NAME,
            "seed": SCALE_SEED,
            "peers": int(bench["peers"]),
            "iterations": int(bench["iterations"]),
            "host": {"cpu_s_per_round": {"value": cpu_s, "unit": "s"}},
            "simulated": {
                "s_per_round": {"value": sim_s, "unit": "s"},
                "items_per_second": {"value": bench["items_per_second"],
                                     "unit": "1/s"},
                "chain_height": {"value": int(bench["chain_height"]),
                                 "unit": "count"},
            },
        })
    return rows


def lanes_rows(sha, report):
    """The rows for one BM_LaneShardingScale JSON report: one per lane
    count, host CPU apart from the simulated committed updates per
    second."""
    rows = []
    for bench, cpu_s, sim_s in manual_time_runs(report):
        rows.append({
            "sha": sha,
            "suite": LANES_NAME,
            "lanes": int(bench["lanes"]),
            "iterations": int(bench["iterations"]),
            "host": {"cpu_s_per_round": {"value": cpu_s, "unit": "s"}},
            "simulated": {
                "s_per_round": {"value": sim_s, "unit": "s"},
                "updates_per_s": {"value": bench["items_per_second"],
                                  "unit": "1/s"},
                "total_blocks": {"value": int(bench["total_blocks"]),
                                 "unit": "count"},
            },
        })
    return rows


def storage_rows(sha, report):
    """The rows for one bench_storage JSON report: one per benchmark run,
    named `<function>/<rows>[/iterations:N]`, all host-measured."""
    rows = []
    for bench in report["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name, count = bench["name"].split("/")[:2]
        wall_s = bench["real_time"] * TIME_UNITS[bench.get("time_unit", "ns")]
        rows.append({
            "sha": sha,
            "suite": STORAGE_NAME,
            "benchmark": name,
            "rows": int(count),
            "iterations": int(bench["iterations"]),
            "host": {
                "wall_ms": {"value": wall_s * 1e3, "unit": "ms"},
                "rows_per_s": {"value": int(count) / wall_s, "unit": "1/s"},
                "VmHWM_mb": {"value": bench["VmHWM_mb"], "unit": "MB"},
            },
        })
    return rows


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def working_tree_sha():
    sha = git("rev-parse", "HEAD")
    changed = [line for line in git("status", "--porcelain",
                                    "--untracked-files=no").splitlines()
               if not os.path.basename(line[3:]).startswith("BENCH_")]
    return sha + "-dirty" if changed else sha


def export_revision(rev, checkout):
    """Exports `rev`'s committed files into the empty directory
    `checkout`; returns the full sha."""
    sha = git("rev-parse", "%s^{commit}" % rev)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", checkout], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % sha)
    return sha


def export_working_tree(checkout, root=ROOT):
    """Copies the tracked files of the working tree at `root`, with their
    uncommitted edits, into the empty directory `checkout`. A tracked file
    deleted from the tree is left out."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                            stdout=subprocess.PIPE).stdout
    for name in listed.decode().split("\0"):
        source = os.path.join(root, name)
        if not name or not os.path.lexists(source):
            continue
        target = os.path.join(checkout, name)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


def run_perfbench(checkout, workload, seed):
    """Runs perfbench in `checkout`; returns its parsed JSON line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing for %s" % workload)
    return json.loads(lines[-1])


def record(sha, checkout, seed):
    """Measures every workload in `checkout` and appends its row; returns
    the exit status (1 if any run was not correct)."""
    status = 0
    for workload in WORKLOADS:
        report = run_perfbench(checkout, workload, seed)
        row = make_row(sha, workload, seed, report)
        append_row(bench_path(ROOT, workload), row)
        print("%s %s seed %d: correct=%s %s" % (
            sha[:12], workload, seed, row["correct"],
            json.dumps({k: v["value"] for k, v in row["metrics"].items()})))
        if not row["correct"]:
            status = 1
    return status


def run_bench_binary(checkout, target, extra_args=()):
    """Builds bench target `target` in `checkout`'s root build and runs it
    with --benchmark_format=json; returns its parsed report."""
    build = os.path.join(checkout, "build")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-B", build, "-S", checkout],
                   stdout=subprocess.DEVNULL, check=True)
    subprocess.run(["cmake", "--build", build, "--target", target,
                    "-j", jobs], stdout=subprocess.DEVNULL, check=True)
    done = subprocess.run(
        [os.path.join(build, "bench", target), "--benchmark_format=json",
         *extra_args],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def record_scale(sha, checkout):
    """Measures the generated networks in `checkout` and appends a row per
    size to BENCH_generated-scale.json."""
    path = bench_path(ROOT, SCALE_NAME)
    for row in scale_rows(sha, run_bench_binary(checkout, SCALE_BENCH)):
        append_row(path, row)
        print("%s %s %d peers: cpu %.4f s/round, chain height %d" % (
            sha[:12], SCALE_NAME, row["peers"],
            row["host"]["cpu_s_per_round"]["value"],
            row["simulated"]["chain_height"]["value"]))
    return 0


def record_lanes(sha, checkout):
    """Measures the lane sweep in `checkout` and appends a row per lane
    count to BENCH_lanes.json."""
    path = bench_path(ROOT, LANES_NAME)
    report = run_bench_binary(checkout, LANES_BENCH,
                              ["--benchmark_filter=%s" % LANES_FILTER])
    for row in lanes_rows(sha, report):
        append_row(path, row)
        print("%s %s %d lanes: %.1f updates/sim s, cpu %.4f s/round" % (
            sha[:12], LANES_NAME, row["lanes"],
            row["simulated"]["updates_per_s"]["value"],
            row["host"]["cpu_s_per_round"]["value"]))
    return 0


def record_storage(sha, checkout):
    """Runs each 1M-row storage benchmark in its own process in `checkout`
    (so one's peak memory is not the other's) and appends a row per
    benchmark to BENCH_storage-1m.json."""
    path = bench_path(ROOT, STORAGE_NAME)
    for benchmark in STORAGE_BENCHMARKS:
        report = run_bench_binary(checkout, STORAGE_BENCH,
                                  ["--benchmark_filter=^%s" % benchmark])
        for row in storage_rows(sha, report):
            append_row(path, row)
            print("%s %s %s: %.0f ms, %.0f rows/s, VmHWM %.1f MB" % (
                sha[:12], STORAGE_NAME, row["benchmark"],
                row["host"]["wall_ms"]["value"],
                row["host"]["rows_per_s"]["value"],
                row["host"]["VmHWM_mb"]["value"]))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=("workloads", "scale", "lanes", STORAGE_NAME),
                        default="workloads")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench seed (workloads suite only)")
    parser.add_argument("--rev", help="measure this commit, not the tree")
    args = parser.parse_args(argv)

    def measure(sha, checkout):
        if args.suite == "scale":
            return record_scale(sha, checkout)
        if args.suite == "lanes":
            return record_lanes(sha, checkout)
        if args.suite == STORAGE_NAME:
            return record_storage(sha, checkout)
        return record(sha, checkout, args.seed)

    with tempfile.TemporaryDirectory(prefix="bench-") as checkout:
        if args.rev:
            sha = export_revision(args.rev, checkout)
        else:
            sha = working_tree_sha()
            export_working_tree(checkout)
        return measure(sha, checkout)


if __name__ == "__main__":
    sys.exit(main())
