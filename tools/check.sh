#!/usr/bin/env bash
# One-shot correctness gate (DESIGN.md section 12):
#   1. configure with thread-safety analysis
#   2. build (clang: -Werror=thread-safety; gcc: annotations are no-ops)
#   3. medsync-sca over the tree (per-line rules MS001-MS009, whole-program
#      rules MS101-MS104) + its fixture self-test
#   4. tier-1 ctest
#   5. sharded-lane suite (`ctest -L lanes`, quick legs; the heavy
#      lane-determinism soak leg carries both labels and rides in --full)
#   6. columnar storage suite (`ctest -L storage`: chunk format + LZ codec,
#      chunked-vs-row equivalence properties, million-row
#      seal/scan/checkpoint/recover — DESIGN.md section 15)
#   7. loopback deployment smoke: build chain_node_daemon and drive the
#      four-process Fig. 5 cascade over real TCP to convergence, checking
#      that every process reports the same protocol outcome (DESIGN.md
#      section 16)
#
# Usage: tools/check.sh [build-dir]          (default: build-check)
#        tools/check.sh --lint-only [dir]    analyzer stage only
#        tools/check.sh --full [dir]         also run the `soak` label
#                                            (generated 100-peer networks,
#                                            ~3 min serial; see DESIGN.md
#                                            section 13)
#
# Registered with ctest as `check_gate` (label `lint`) in --lint-only mode:
# inside a ctest run the configure/build/test stages are already the
# enclosing run, so only the analyzer stage adds coverage there. The full gate
# is for pre-push use.
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_ONLY=0
FULL=0
if [[ "${1:-}" == "--lint-only" ]]; then
  LINT_ONLY=1
  shift
elif [[ "${1:-}" == "--full" ]]; then
  FULL=1
  shift
fi
BUILD_DIR="${1:-build-check}"

if [[ "$LINT_ONLY" == 0 ]]; then
  echo "== [1/7] configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DMEDSYNC_THREAD_SAFETY_ANALYSIS=ON
  echo "== [2/7] build =="
  cmake --build "$BUILD_DIR" -j"$(nproc)"
fi

echo "== [3/7] medsync-sca (MS001-MS009, MS101-MS104) =="
python3 tools/medsync_sca.py
python3 tools/medsync_sca_test.py

if [[ "$LINT_ONLY" == 0 ]]; then
  echo "== [4/7] tier-1 ctest =="
  # -LE lint: the analyzer stage just ran above; also keeps the registered
  # check_gate test from re-entering this script. The generated soak suite
  # (label `soak`) is excluded from the default tier and included by
  # --full.
  EXCLUDE='lint|soak'
  if [[ "$FULL" == 1 ]]; then
    EXCLUDE='lint'
  fi
  ctest --test-dir "$BUILD_DIR" --output-on-failure -LE "$EXCLUDE" \
    -j"$(nproc)"
  echo "== [5/7] sharded-lane suite (ctest -L lanes) =="
  # Quick legs only by default; --full already covered the soak-labeled
  # lane-determinism leg in stage 4, so always exclude `soak` here.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L lanes -LE soak \
    -j"$(nproc)"
  echo "== [6/7] columnar storage suite (ctest -L storage) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L storage -LE soak \
    -j"$(nproc)"
  echo "== [7/7] loopback deployment smoke (4 processes over TCP) =="
  cmake --build "$BUILD_DIR" --target chain_node_daemon -j"$(nproc)"
  tools/run_loopback_cascade.sh "$BUILD_DIR"
fi

echo "check.sh: all gates passed"
