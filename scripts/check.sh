#!/usr/bin/env bash
# Tier-1 verification: build + ctest in the default configuration (warnings
# are errors there), then the same suite under AddressSanitizer and
# UndefinedBehaviorSanitizer via the PRAVEGA_SANITIZE CMake option. Each configuration gets its own tree. There
# is no ThreadSanitizer pass: the simulation is single-threaded by design
# (per-core shards are cooperatively scheduled, not OS threads).
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

run_suite() {
  local name="$1" sanitize="$2" filter="${3:-}"
  local dir="build-${name}"
  # The plain tree builds with -Werror: a new warning fails the check.
  local werror=()
  [[ -z "${sanitize}" ]] && werror=(-DCMAKE_CXX_FLAGS=-Werror)
  echo "== ${name}: configure + build (${dir}) =="
  cmake -B "${dir}" -S . -DPRAVEGA_SANITIZE="${sanitize}" "${werror[@]}" >/dev/null
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
echo "All checks passed."
