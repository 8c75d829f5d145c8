#!/usr/bin/env bash
# One-shot correctness gate (DESIGN.md section 12):
#   1. configure with thread-safety analysis
#   2. build (clang: -Werror=thread-safety; gcc: annotations are no-ops)
#   3. medsync-sca over the tree (per-line rules MS001-MS009, whole-program
#      rules MS101-MS104) + its fixture self-test
#   4. tier-1 ctest: every entry but the analyzer's, so the generated soak
#      (label `soak`, DESIGN.md section 13), the sharded-lane suite
#      (`lanes`) and the columnar storage suite (`storage`, DESIGN.md
#      section 15) run here
#   5. loopback deployment smoke: build chain_node_daemon and drive the
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

echo "== [1/5] configure ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . -DMEDSYNC_THREAD_SAFETY_ANALYSIS=ON
echo "== [2/5] build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== [3/5] medsync-sca (MS001-MS009, MS101-MS104) =="
python3 tools/medsync_sca.py
python3 tools/medsync_sca_test.py

echo "== [4/5] tier-1 ctest =="
# -LE lint: the analyzer stage just ran above.
ctest --test-dir "$BUILD_DIR" --output-on-failure -LE lint -j"$(nproc)"
echo "== [5/5] loopback deployment smoke (4 processes over TCP) =="
cmake --build "$BUILD_DIR" --target chain_node_daemon -j"$(nproc)"
tools/run_loopback_cascade.sh "$BUILD_DIR"

echo "check.sh: all gates passed"
