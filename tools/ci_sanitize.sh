#!/usr/bin/env bash
# Build the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# run the full ctest suite; then build a ThreadSanitizer configuration
# (TSan excludes ASan, hence its own build dir) and run the concurrency
# suites under it. Dedicated build directories keep both from polluting
# (or being polluted by) the regular build/.
#
# Usage: tools/ci_sanitize.sh [build-dir [tsan-build-dir]]
#   (defaults: build-sanitize, build-tsan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-sanitize}"
tsan_dir="${2:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPENTLA_SANITIZE=ON
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error: fail the test (and hence CI) on the first sanitizer report
# instead of continuing with a poisoned process.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

echo "--- ThreadSanitizer: parallel exploration suites (${tsan_dir}) ---"
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPENTLA_TSAN=ON
cmake --build "${tsan_dir}" -j"$(nproc)" \
  --target test_parallel_explore test_differential

export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "${tsan_dir}" --output-on-failure \
  -R 'test_parallel_explore|test_differential'
