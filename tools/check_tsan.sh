#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the full test suite
# under it (all ctest labels, so the genuinely concurrent tests —
# serving_session_test, the soak-labelled serving_soak_test (work
# stealing, shared decoded-rule cache, pool repair lock, the
# refresh-under-fire generation cutover racing live worker lanes, and
# tiering-under-fire: per-session online migrations, each tiered pool
# touched only by its own worker, racing k-of-N faulted sessions), and
# parallel_compress_test (chunk-parallel ingest workers racing into
# pre-sized result slots before the join barrier) — are in scope by
# default).
#
# Usage: tools/check_tsan.sh [ctest args...]
#   e.g. tools/check_tsan.sh -R serving_soak_test
#        tools/check_tsan.sh -R parallel_compress_test
#        tools/check_tsan.sh -L soak

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-tsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNTADOC_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j "${JOBS}"

export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1"

ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" "$@"
echo "check_tsan: all tests passed under TSan"
