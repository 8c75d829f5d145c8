#!/usr/bin/env python3
"""Appends one row per benchmark workload to BENCH_<workload>.json.

Each row is what `perfbench/run.py --workload W --seed S --seconds 10`
reports for one of the four workloads, keyed by the git commit it
measured:

    {"sha": ..., "workload": ..., "seed": ..., "correct": ...,
     "metrics": {name: {"value": ..., "unit": ...}}}

The files live at the repository root and hold a JSON list of rows, oldest
first, so the trajectory of every end-to-end metric is one command away.

Usage, from anywhere inside the repository:

    python3 tools/bench_record.py                      # the working tree
    python3 tools/bench_record.py --rev 23c739c        # a committed revision
    python3 tools/bench_record.py --seed 7             # the held-out seed

Without --rev the working tree is measured; its sha is HEAD's, suffixed
with "-dirty" when tracked files other than BENCH_*.json differ from HEAD.
With --rev the revision's committed files are exported (`git archive`) to
a temporary directory, measured there and deleted afterwards, so the row
describes that commit and nothing else. A row whose (sha, seed) is
already recorded replaces the old one instead of adding a duplicate.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fanout-16", "clinic-8k", "storage-50k", "loopback-tcp")
SECONDS = 10  # BENCHMARK.json's run_seconds


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


def append_row(path, row):
    """Adds `row` to the list in `path`, replacing a row with the same
    sha and seed. Returns the rows written."""
    key = (row["sha"], row["seed"])
    rows = [r for r in load_rows(path)
            if (r.get("sha"), r.get("seed")) != key]
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rev", help="measure this commit, not the tree")
    args = parser.parse_args(argv)

    if not args.rev:
        return record(working_tree_sha(), ROOT, args.seed)
    with tempfile.TemporaryDirectory(prefix="bench-") as checkout:
        return record(export_revision(args.rev, checkout), checkout,
                      args.seed)


if __name__ == "__main__":
    sys.exit(main())
