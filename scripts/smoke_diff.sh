#!/usr/bin/env bash
# Same-seed smoke comparison of two builds: runs every bench binary of each
# build at its smoke point with chaos on (BENCH_SMOKE=1 BENCH_CHAOS=1), then
# compares each BENCH_<name>.json pair with the wall-clock columns dropped
# (scripts/bench_json_diff.py). Prints "same" or "DIFF" per file and exits
# non-zero when any file differs or exists in only one build.
#
# Usage: smoke_diff.sh BASE_BUILD NEW_BUILD   (build trees, e.g. build)
set -euo pipefail
[[ $# -eq 2 ]] || { echo "usage: $0 BASE_BUILD NEW_BUILD" >&2; exit 2; }
DIFF_JSON="$(cd "$(dirname "$0")" && pwd)/bench_json_diff.py"

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "${OUT_DIR}"' EXIT

run_benches() {  # BUILD_DIR OUT_DIR
  local bench_dir="$1/bench" out="$2"
  [[ -d "${bench_dir}" ]] || { echo "no bench dir at ${bench_dir}" >&2; exit 1; }
  mkdir -p "${out}"
  for bin in "${bench_dir}"/bench_*; do
    [[ -f "${bin}" && -x "${bin}" ]] || continue
    local log="${out}/$(basename "${bin}").out"
    BENCH_SMOKE=1 BENCH_CHAOS=1 BENCH_OUT_DIR="${out}" "${bin}" > "${log}" 2>&1 \
      || { echo "${bin} FAILED:" >&2; tail -30 "${log}" >&2; exit 1; }
  done
}

echo "== smoke: $1 ==" && run_benches "$1" "${OUT_DIR}/base"
echo "== smoke: $2 ==" && run_benches "$2" "${OUT_DIR}/new"

status=0
names="$(cd "${OUT_DIR}" && ls base new | grep '^BENCH_.*\.json$' | sort -u)"
for name in ${names}; do
  base="${OUT_DIR}/base/${name}" new="${OUT_DIR}/new/${name}"
  if [[ ! -f "${base}" || ! -f "${new}" ]]; then
    echo "DIFF ${name} (only in one build)"
    status=1
  elif python3 "${DIFF_JSON}" "${base}" "${new}"; then
    echo "same ${name}"
  else
    echo "DIFF ${name}"
    status=1
  fi
done
exit "${status}"
