#!/usr/bin/env bash
# Builds the tree with UndefinedBehaviorSanitizer alone and runs the
# tier-1 suite under it. check_asan.sh already runs address+undefined
# together; the pure-UBSan build exists because ASan shifts object
# layouts and shadows some UB (notably misaligned loads on padded
# structs), so a finding can surface here that the combined build hides.
# It is also the one Debug build: every other lane builds Release or
# RelWithDebInfo, which define NDEBUG and compile the NTADOC_DCHECK
# contracts out, so only this lane runs them.
#
# Usage: tools/check_ubsan.sh [ctest args...]
#   e.g. tools/check_ubsan.sh -R nvm_test

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-ubsan"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DNTADOC_SANITIZE=undefined
cmake --build "${BUILD_DIR}" -j "${JOBS}"

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

if [[ $# -gt 0 ]]; then
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" "$@"
else
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L tier1
fi
echo "check_ubsan: all tests passed under UBSan"
