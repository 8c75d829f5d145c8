#!/usr/bin/env python3
"""medsync benchmark: builds the workload program from source, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload clinic-8k --seed 1 --seconds 10 --trace 0

Run from the repository root. The C++ package (perfbench/CMakeLists.txt)
is configured and built into .bench_build (or $CARGO_TARGET_DIR): in full
on the first run, incrementally afterwards.

Every workload does a fixed number of ops: --seconds scales the op count by
a per-workload constant, and never stops the run on a clock, so a faster
program does the same work in less time (README.md explains why).

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
workload runs once untraced and once with spans and probes, and the
per-layer metrics and the tracing overhead are printed. A human-readable
report (every metric with unit and sample count, including those defined on
only some workloads) comes first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 1 if
any op, oracle or probe check failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# A run is `episodes` repetitions of set-up plus a fixed number of ops on a
# fresh deployment; setup_reps repeats the set-up within an episode so
# that the setup_s median rests on 9-30 samples. ops_per_second turns
# --seconds into the op count of a run (at --seconds 10 a run takes
# 11-35 s on a 4-core x86 VM). fanout-16's rounds
# per episode is odd, so its op_ms_p50 falls inside one history position
# rather than between two. Every oracle passes on both seeds; the first
# is the default.
WORKLOADS = {
    "fanout-16": dict(episodes=5, setup_reps=6, ops_per_second=2.5,
                      seeds=(1, 7)),
    "clinic-8k": dict(episodes=5, setup_reps=2, ops_per_second=4.0,
                      seeds=(1, 7)),
    "storage-50k": dict(episodes=3, setup_reps=3, ops_per_second=2700,
                        seeds=(1, 7)),
    "loopback-tcp": dict(episodes=4, setup_reps=3, ops_per_second=36,
                         seeds=(1, 7)),
}

# Printed in the JSON line, on every workload (names match BENCHMARK.json).
END_TO_END = [
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("commit_cpu_ms", "ms"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("core.update_call_ms", "ms"),
    ("core.settle_ms", "ms"),
    ("core.read_ms", "ms"),
    ("core.fetches_per_commit", "count"),
    ("relational.update_us", "us"),
    ("relational.digest_us_per_row", "us"),
    ("relational.insert_sealed_us", "us"),
    ("relational.from_json_ms", "ms"),
    ("relational.compute_delta_ms", "ms"),
    ("wal.syncs_per_commit", "count"),
    ("wal.bytes_per_commit", "B"),
    ("json.dump_mb_s", "MB/s"),
    ("json.parse_mb_s", "MB/s"),
    ("crypto.sha256_mb_s", "MB/s"),
    ("chain.tx_msgs_per_commit", "count"),
    ("chain.blocks_per_commit", "count"),
    ("runtime.seal_attempts_per_commit", "count"),
    ("net.msgs_per_commit", "count"),
    ("net.retries_per_commit", "count"),
]

PROGRAM_TIMEOUT_S = 170

# The JSON timings scale CPU time to a machine on which one unit of the
# reference work (ReferenceUnit in workloads.cc, which uses no medsync
# code) takes this much CPU time. A helper process with a heap of its own
# times the unit between ops, so it tracks how fast the shared machine runs
# allocation-heavy code at that moment and not the state the program leaves
# its heap in. README.md has the measurements.
REFERENCE_UNIT_S = 1.25e-3

# Likewise, storage-50k's waiting is scaled to a disk on which one reference
# sync (a WAL-sized append and fdatasync of a file next to the database,
# timed between ops) takes this long: fsync latency of the shared host disk
# drifts from run to run, and it is most of a point update's waiting.
REFERENCE_SYNC_S = 2e-4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the program (incrementally after the first
    run); returns its path or None."""
    configure = subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, stderr=sys.stderr)
    if configure.returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(build_dir, "medsync_perfbench")
    return binary if made.returncode == 0 and os.path.exists(binary) else None


def run_program(binary, workload, seed, spec, ops, trace, workdir):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--episodes", str(spec["episodes"]), "--ops", str(ops),
               "--setup-reps", str(spec["setup_reps"]), "--workdir", workdir]
    if trace:
        command.append("--trace")
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=PROGRAM_TIMEOUT_S, text=True)
    if done.returncode != 0:
        raise RuntimeError("workload program exited with %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def speed_factor(raw):
    """Factor that scales this run's CPU time to a machine on which one
    reference unit takes REFERENCE_UNIT_S of CPU."""
    return stats.ratio(REFERENCE_UNIT_S,
                       stats.median(raw["reference_unit_cpu_s"]))


def sync_factor(raw):
    """Factor that scales this run's waiting to a disk on which one
    reference sync takes REFERENCE_SYNC_S; 1 for workloads without a
    durable directory, whose waiting is timers and sockets."""
    syncs = raw.get("reference_sync_s", [])
    return stats.ratio(REFERENCE_SYNC_S, stats.median(syncs)) if syncs else 1.0


def end_to_end(raw):
    """{name: (value or None, unit, samples note)} for every end-to-end
    metric, including the ones only some workloads define. Timings appear
    twice: speed-adjusted (CPU share scaled by speed_factor, waiting by
    sync_factor) under the metric's name, and as measured under
    name.measured."""
    walls = [s[1] for s in raw["samples"]]
    sims = [s[3] for s in raw["samples"] if s[3] is not None]
    commits = raw["commits"]
    counters = raw["counters"]
    extra = raw["extra"]
    tail = stats.tail(walls)
    factor = speed_factor(raw)
    wait_factor = sync_factor(raw)
    syncs = raw.get("reference_sync_s", [])

    def adjusted(wall, cpu):
        return stats.speed_adjusted(wall, cpu, factor, wait_factor)

    if factor is None or wait_factor is None:  # nothing ran
        return {}

    setups = "%d setups" % len(raw["setup_s"])
    ops = "%d ops" % len(walls)
    per_commit = "%d commits" % commits
    out = {
        "setup_s": (stats.median([adjusted(w, c) for w, c in
                                  zip(raw["setup_s"], raw["setup_cpu_s"])]),
                    "s", setups),
        "setup_s.measured": (stats.median(raw["setup_s"]), "s", setups),
        "commits_per_s": (stats.ratio(commits,
                                      adjusted(raw["wall_s"], raw["cpu_s"])),
                          "1/s", per_commit),
        "commits_per_s.measured": (stats.ratio(commits, raw["wall_s"]), "1/s",
                                   per_commit),
        "commit_cpu_ms": (stats.ratio(adjusted(raw["cpu_s"], raw["cpu_s"]),
                                      commits / 1e3), "ms", per_commit),
        "commit_cpu_ms.measured": (stats.ratio(raw["cpu_s"] * 1e3, commits),
                                   "ms", per_commit),
        "op_ms_p50": (stats.median([adjusted(s[1], s[2])
                                    for s in raw["samples"]]), "ms", ops),
        "op_ms_p50.measured": (stats.median(walls), "ms", ops),
        "reference_unit_ms.measured": (
            stats.median(raw["reference_unit_cpu_s"]) * 1e3, "ms",
            "%d samples" % len(raw["reference_unit_cpu_s"])),
        "reference_sync_ms.measured": (
            stats.median([s * 1e3 for s in syncs]), "ms",
            "%d samples" % len(syncs)),
    }
    out.update({
        "op_ms_p90": (stats.percentile(walls, 0.9), "ms",
                      "%d ops; highest supported tail %s" %
                      (len(walls), tail[0] if tail else "none")),
        "commit_sim_ms": (stats.median(sims), "sim_ms", "%d ops" % len(sims)),
        "wire_bytes_per_commit": (
            stats.ratio(counters["net.bytes"], commits)
            if "net.bytes" in counters else None, "B", "%d commits" % commits),
        "load_rows_per_s": (
            stats.median(extra.get("load_rows_per_s", [])), "rows/s",
            "%d loads" % len(extra.get("load_rows_per_s", []))),
        "recover_rows_per_s": (
            stats.median(extra.get("recover_rows_per_s", [])), "rows/s",
            "%d recoveries" % len(extra.get("recover_rows_per_s", []))),
        "stored_bytes_per_user_byte": (
            stats.median(extra.get("stored_bytes_per_user_byte", [])),
            "ratio", "after each final checkpoint"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", "process"),
        "error_rate": (stats.ratio(raw["failed"], raw["attempted"]),
                       "fraction", "%d attempted" % raw["attempted"]),
    })
    if tail:
        out["op_ms_%s" % tail[0]] = (tail[1], "ms", "%d ops" % len(walls))
    return out


def span_totals(spans):
    """{name: (calls, inclusive ns, self ns, [inclusive ns per call])}."""
    selfs = stats.self_times(spans)
    totals = {}
    for span, self_ns in zip(spans, selfs):
        calls, inclusive, own, each = totals.get(span[0], (0, 0, 0, []))
        each.append(span[2] - span[1])
        totals[span[0]] = (calls + 1, inclusive + span[2] - span[1],
                           own + self_ns, each)
    return totals


def per_layer(traced, untraced):
    """{name: (value or None, unit, source)} for every per-layer metric."""
    commits = traced["commits"]
    c = traced["counters"]
    probes = traced.get("probes", {})
    totals = span_totals(traced.get("spans", []))

    def count(name):
        return c.get(name, 0)

    def per_commit(name, scale):
        total_ns = totals.get(name, (0, 0, 0, []))[1]
        return stats.ratio(total_ns * scale, commits)

    def per_call_median(name, scale):
        each = totals.get(name, (0, 0, 0, []))[3]
        return stats.median([ns * scale for ns in each]) if each else None

    def probe(name):
        return probes[name]["value"] if name in probes else None

    cpu_traced = end_to_end(traced)["commit_cpu_ms"][0]
    cpu_untraced = end_to_end(untraced)["commit_cpu_ms"][0]
    overhead = (stats.ratio(cpu_traced - cpu_untraced, cpu_untraced)
                if cpu_traced is not None and cpu_untraced is not None
                else None)
    skipped, executed = count("sync.gets_skipped"), count("sync.gets_executed")
    pushes, fallbacks = count("sync.delta_pushes"), count("sync.full_fallbacks")
    adds, dups = count("mempool.adds"), count("mempool.reject.duplicate")
    return {
        "core.update_call_ms": (per_commit("core.update_call", 1e-6), "ms",
                                "span total per commit"),
        "core.settle_ms": (per_commit("core.settle", 1e-6), "ms",
                           "span total per commit"),
        "core.read_ms": (per_commit("core.read", 1e-6), "ms",
                         "span total per commit"),
        "core.fetches_per_commit": (
            stats.ratio(count("peer.fetches_applied"), commits), "count",
            "counter peer.fetches_applied"),
        "relational.update_us": (per_commit("relational.update", 1e-3), "us",
                                 "span total per commit"),
        "relational.digest_us_per_row": (probe("relational.digest_us_per_row"),
                                         "us", "probe"),
        "relational.insert_sealed_us": (probe("relational.insert_sealed_us"),
                                        "us", "probe"),
        "relational.from_json_ms": (probe("relational.from_json_ms"), "ms",
                                    "probe"),
        "relational.compute_delta_ms": (probe("relational.compute_delta_ms"),
                                        "ms", "probe"),
        "wal.syncs_per_commit": (stats.ratio(count("wal.syncs"), commits),
                                 "count", "counter wal_stats().syncs"),
        "wal.bytes_per_commit": (
            stats.ratio(count("wal.append_bytes"), commits), "B",
            "counter wal_stats().append_bytes"),
        "json.dump_mb_s": (probe("json.dump_mb_s"), "MB/s", "probe"),
        "json.parse_mb_s": (probe("json.parse_mb_s"), "MB/s", "probe"),
        "crypto.sha256_mb_s": (probe("crypto.sha256_mb_s"), "MB/s", "probe"),
        "chain.tx_msgs_per_commit": (stats.ratio(count("net.sent.tx"), commits),
                                     "count", "counter net.sent.tx"),
        "chain.blocks_per_commit": (
            stats.ratio(count("chain.blocks.accepted"), commits), "count",
            "counter chain.blocks.accepted"),
        "runtime.seal_attempts_per_commit": (
            stats.ratio(count("node.seal.attempts"), commits), "count",
            "counter node.seal.attempts"),
        "net.msgs_per_commit": (stats.ratio(count("net.sent"), commits),
                                "count", "counter net.sent"),
        "net.retries_per_commit": (stats.ratio(count("net.retries"), commits),
                                   "count", "counter net.retries"),
        "trace.cpu_overhead_frac": (overhead, "fraction",
                                    "traced vs untraced commit_cpu_ms, "
                                    "speed-adjusted"),
        # Defined only on the workloads that have the layer; reported here
        # and in the trace file, absent elsewhere.
        "core.read_call_ms": (per_call_median("core.read", 1e-6), "ms",
                              "span median per call"),
        "core.settle_call_ms": (per_call_median("core.settle", 1e-6), "ms",
                                "span median per call"),
        "sync.find_affected_ms": (probe("sync.find_affected_ms"), "ms",
                                  "probe"),
        "sync.gets_skipped_frac": (stats.ratio(skipped, skipped + executed),
                                   "fraction", "counters sync.gets_*"),
        "sync.full_fallback_frac": (stats.ratio(fallbacks, pushes + fallbacks),
                                    "fraction", "counters sync.*"),
        "bx.get_ms": (probe("bx.get_ms"), "ms", "probe"),
        "bx.put_ms": (probe("bx.put_ms"), "ms", "probe"),
        "bx.push_delta_us": (probe("bx.push_delta_us"), "us", "probe"),
        "relational.seal_ms": (per_call_median("relational.seal", 1e-6), "ms",
                               "span median per call"),
        "relational.checkpoint_ms": (
            per_call_median("relational.checkpoint", 1e-6), "ms",
            "span median per call"),
        "relational.recover_ms": (per_call_median("relational.recover", 1e-6),
                                  "ms", "span median per call"),
        "chain.find_tx_us": (probe("chain.find_tx_us"), "us", "probe"),
        "chain.tx_id_us": (probe("chain.tx_id_us"), "us", "probe"),
        "chain.history_txs": (probe("chain.history_txs"), "count",
                              "node 0 canonical chain at end"),
        "mempool.dup_frac": (stats.ratio(dups, adds + dups), "fraction",
                             "counters mempool.*"),
        "contracts.static_call_us": (probe("contracts.static_call_us"), "us",
                                     "probe"),
        "contracts.state_fingerprint_ms": (
            probe("contracts.state_fingerprint_ms"), "ms", "probe"),
        "net.frame_decode_mb_s": (probe("net.frame_decode_mb_s"), "MB/s",
                                  "probe"),
        "net.loop_busy_frac": (traced["extra"].get("loop_busy_frac"),
                               "fraction", "CPU / wall over RunOnce spins"),
    }


def breakdown(traced):
    """Self time per span name, as ms per commit, largest first."""
    commits = traced["commits"] or 1
    totals = span_totals(traced.get("spans", []))
    rows = [(name, calls, own * 1e-6 / commits, inclusive * 1e-6 / commits)
            for name, (calls, inclusive, own, _) in totals.items()]
    return sorted(rows, key=lambda row: -row[2])


def fmt(value):
    return "absent" if value is None else "%.6g" % value


def print_table(title, rows):
    print(title)
    for name, (value, unit, note) in rows:
        print("  %-34s %14s %-9s %s" % (name, fmt(value), unit, note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    seed = spec["seeds"][0] if args.seed is None else args.seed
    episodes = spec["episodes"]
    ops = max(1, round(spec["ops_per_second"] * args.seconds / episodes))

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 1
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    try:
        untraced = run_program(binary, args.workload, seed, spec, ops, False,
                              workdir)
        traced = (run_program(binary, args.workload, seed, spec, ops, True,
                             workdir) if args.trace else None)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        log("perfbench: workload program failed:", error)
        return 1

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("workload %s seed %d: %d episodes x %d ops, %d commits, "
          "%d of %d checks failed" % (args.workload, seed, episodes, ops,
                                      untraced["commits"], failed, attempted))
    for r in runs:
        for failure in r["failures"]:
            print("  FAILED:", failure)
    print("  oracles:", json.dumps(untraced["oracles"], sort_keys=True))
    for fingerprint in untraced["extra"].get("lane_invariant_fingerprints",
                                             []):
        print("  LaneInvariantFingerprint:", fingerprint)

    e2e = end_to_end(untraced)
    print_table("end-to-end (untraced run)", sorted(e2e.items()))
    if traced:
        layers = per_layer(traced, untraced)
        print_table("per-layer (traced run)", sorted(layers.items()))
        print("self time by span, ms per commit (traced run)")
        for name, calls, own, inclusive in breakdown(traced):
            print("  %-34s %14.6g self %12.6g incl %8d calls" %
                  (name, own, inclusive, calls))
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir,
                                  "%s-%d.json" % (args.workload, seed))
        with open(trace_path, "w") as out:
            json.dump({"untraced": untraced, "traced": traced,
                       "end_to_end": e2e, "per_layer": layers}, out)
        print("trace written to", os.path.relpath(trace_path, ROOT))
        chosen = PER_LAYER
        values = layers
    else:
        chosen = END_TO_END
        values = e2e

    metrics = {}
    for name, unit in chosen:
        value = values.get(name, (None,))[0]
        if value is None:
            failed += 1
            print("  FAILED: metric %s is absent" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
