#!/usr/bin/env bash
# Tier-1 verification: build + ctest in the default configuration, then the
# same suite under AddressSanitizer and UndefinedBehaviorSanitizer via the
# PRAVEGA_SANITIZE CMake option, then a build-only Release (-O3) compile of
# perfbench/. Each configuration gets its own tree, and every one builds with
# -Werror. There is no ThreadSanitizer pass: the simulation is single-threaded
# by design (per-core shards are cooperatively scheduled, not OS threads).
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

run_suite() {
  local name="$1" sanitize="$2" filter="${3:-}"
  local dir="build-${name}"
  # Every tree builds with -Werror: a new warning fails the check. GCC 12
  # with -fsanitize=address reports -Wmaybe-uninitialized inside the
  # std::variant storage of Result<T> and ReadOutcome, so the sanitizer trees
  # exempt that one warning; the plain tree still checks it.
  local flags="-Werror"
  [[ -n "${sanitize}" ]] && flags="-Werror -Wno-maybe-uninitialized"
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S . -DPRAVEGA_SANITIZE="${sanitize}" -DCMAKE_CXX_FLAGS="${flags}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  echo "== ${name}: ctest ${filter:+-R ${filter}} =="
  # Sanitized builds run the engine 3-8x slower, so the wall-clock rate floor
  # in bench_smoke would fail spuriously; its deterministic checks still run.
  local gate=1
  [[ -n "${sanitize}" ]] && gate=0
  (cd "${dir}" && BENCH_PERF_GATE="${gate}" ctest --output-on-failure -j "${JOBS}" ${filter:+-R "${filter}"})
}

run_suite plain ""
run_suite asan address
run_suite ubsan undefined
# perfbench/ compiles the library at -O3, where GCC warns about code that the
# RelWithDebInfo trees above do not inline; build it, run nothing.
echo "== perfbench: Release build (build-perfbench) =="
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-perfbench -j "${JOBS}"
echo "All checks passed."
