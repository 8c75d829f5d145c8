#!/usr/bin/env bash
# One-shot correctness gate (DESIGN.md section 12):
#   1. configure with thread-safety analysis
#   2. build (clang: -Werror=thread-safety; gcc: annotations are no-ops)
#   3. medsync-sca over the tree (per-line rules MS001-MS009, whole-program
#      rules MS101-MS104) + its fixture self-test
#   4. tier-1 ctest, the generated soak suite (label `soak`, DESIGN.md
#      section 13) included
#   5. sharded-lane suite (`ctest -L lanes`, quick legs; the heavy
#      lane-determinism soak leg carries both labels and ran in stage 4)
#   6. columnar storage suite (`ctest -L storage`: chunk format + LZ codec,
#      chunked-vs-row equivalence properties, million-row
#      seal/scan/checkpoint/recover — DESIGN.md section 15)
#   7. loopback deployment smoke: build chain_node_daemon and drive the
#      four-process Fig. 5 cascade over real TCP to convergence, checking
#      that every process reports the same protocol outcome (DESIGN.md
#      section 16)
#
# Usage: tools/check.sh [build-dir]          (default: build-check)
#
# A pre-push gate, not a ctest entry: the analyzer stage on its own is the
# `lint` label (`ctest -L lint`).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-check}"

echo "== [1/7] configure ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . -DMEDSYNC_THREAD_SAFETY_ANALYSIS=ON
echo "== [2/7] build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== [3/7] medsync-sca (MS001-MS009, MS101-MS104) =="
python3 tools/medsync_sca.py
python3 tools/medsync_sca_test.py

echo "== [4/7] tier-1 ctest =="
# -LE lint: the analyzer stage just ran above.
ctest --test-dir "$BUILD_DIR" --output-on-failure -LE lint -j"$(nproc)"
echo "== [5/7] sharded-lane suite (ctest -L lanes) =="
# Quick legs only: stage 4 already ran the soak-labeled lane-determinism
# leg.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L lanes -LE soak \
  -j"$(nproc)"
echo "== [6/7] columnar storage suite (ctest -L storage) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L storage -LE soak \
  -j"$(nproc)"
echo "== [7/7] loopback deployment smoke (4 processes over TCP) =="
cmake --build "$BUILD_DIR" --target chain_node_daemon -j"$(nproc)"
tools/run_loopback_cascade.sh "$BUILD_DIR"

echo "check.sh: all gates passed"
