#!/usr/bin/env bash
# Alternating-pairs comparison of two source trees on one perfbench workload.
#
# Builds perfbench from each tree into its own build directory (passed to
# perfbench/run.py as CARGO_TARGET_DIR), then runs N pairs on one seed,
# swapping which side runs first from pair to pair so host drift falls on
# both sides alike. Prints, per end-to-end metric of BENCHMARK.json, the
# median and quartiles of each side; the number of pairs the new tree won on
# the claimed metric; and every virtual (non-wall-clock) metric whose value
# differs anywhere, which on one seed should be none.
#
# Usage: perf_pairs.sh BASE_SRC NEW_SRC WORKLOAD SEED N
#   PERF_METRIC   claimed metric (default run_s)
#   PERF_SECONDS  --seconds per run (default: run_seconds of BENCHMARK.json)
#   PERF_TRACE=1  also run each side once with --trace 1 and print the
#                 per-layer metrics side by side
#   PERF_OUT      directory for build trees and per-run JSON (default: a
#                 fresh temporary directory, kept so builds can be reused)
#
# Neither tree is written to: builds and results live under PERF_OUT.
set -euo pipefail
[[ $# -eq 5 ]] || { sed -n '2,20p' "$0" >&2; exit 2; }
BASE_SRC="$(cd "$1" && pwd)"
NEW_SRC="$(cd "$2" && pwd)"
WORKLOAD="$3" SEED="$4" PAIRS="$5"
METRIC="${PERF_METRIC:-run_s}"
RUN_SECONDS="${PERF_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "${NEW_SRC}/BENCHMARK.json")}"
OUT="${PERF_OUT:-$(mktemp -d)}"
mkdir -p "${OUT}"
echo "perf_pairs: ${WORKLOAD} seed ${SEED}, ${PAIRS} pairs of ${RUN_SECONDS} s runs; output in ${OUT}" >&2

build() {  # SIDE SRC
  local dir="${OUT}/build-$1"
  { cmake -S "$2/perfbench" -B "${dir}" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "${dir}" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))"; } > "${dir}.log" 2>&1 \
    || { echo "$1 build failed:" >&2; tail -20 "${dir}.log" >&2; exit 1; }
}

run() {  # SIDE SRC TAG [extra run.py args]
  local side="$1" src="$2" tag="$3"
  shift 3
  CARGO_TARGET_DIR="${OUT}/build-${side}" python3 "${src}/perfbench/run.py" \
    --workload "${WORKLOAD}" --seed "${SEED}" --seconds "${RUN_SECONDS}" "$@" \
    2>"${OUT}/${side}-${tag}.err" | tail -1 > "${OUT}/${side}-${tag}.json" \
    || { echo "${side} run ${tag} failed:" >&2; tail -20 "${OUT}/${side}-${tag}.err" >&2; exit 1; }
}

build base "${BASE_SRC}"
build new "${NEW_SRC}"
for ((i = 0; i < PAIRS; i++)); do
  if ((i % 2 == 0)); then
    run base "${BASE_SRC}" "${i}" && run new "${NEW_SRC}" "${i}"
  else
    run new "${NEW_SRC}" "${i}" && run base "${BASE_SRC}" "${i}"
  fi
  echo "pair ${i} done" >&2
done
if [[ "${PERF_TRACE:-0}" == 1 ]]; then
  run base "${BASE_SRC}" trace --trace 1
  run new "${NEW_SRC}" trace --trace 1
fi

python3 - "${OUT}" "${PAIRS}" "${METRIC}" "${NEW_SRC}/BENCHMARK.json" "${PERF_TRACE:-0}" <<'PY'
import json, os, statistics, sys

out, pairs, claimed, manifest, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5] == "1"
WALL = {"run_s", "run_cpu_s", "setup_s", "peak_rss_mb"}
spec = {m["name"]: m for m in json.load(open(manifest))["end_to_end"]}
runs = {side: [json.load(open(os.path.join(out, f"{side}-{i}.json"))) for i in range(pairs)]
        for side in ("base", "new")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{'metric':24} {'base q1 / median / q3':>32} {'new q1 / median / q3':>32} {'change':>8}")
for name in spec:
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    n = [r["metrics"][name]["value"] for r in runs["new"]]
    bq, nq = quartiles(b), quartiles(n)
    change = (nq[1] / bq[1] - 1) * 100 if bq[1] else 0.0
    fmt = lambda q: f"{q[0]:10.4g} {q[1]:10.4g} {q[2]:10.4g}"
    print(f"{name:24} {fmt(bq):>32} {fmt(nq):>32} {change:+7.1f}%")

sign = -1 if spec[claimed]["better"] == "lower" else 1
b = [r["metrics"][claimed]["value"] for r in runs["base"]]
n = [r["metrics"][claimed]["value"] for r in runs["new"]]
wins = sum(1 for x, y in zip(b, n) if sign * (y - x) > 0)
bq = quartiles(b)
drop = abs(statistics.median(n) - statistics.median(b))
print(f"{claimed}: new won {wins} of {pairs} pairs; median moved {drop:.4g}, "
      f"base interquartile spread {bq[2] - bq[0]:.4g}")

failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
print(f"failed operations: base {failed['base']}, new {failed['new']}")
differs = []
for name in spec:
    if name in WALL:
        continue
    values = {r["metrics"][name]["value"] for side in runs for r in runs[side]}
    if len(values) > 1:
        differs.append(f"{name}: {sorted(values)}")
print("virtual metrics differing: " + ("none" if not differs else "\n  " + "\n  ".join(differs)))

if traced:
    tb = json.load(open(os.path.join(out, "base-trace.json")))["metrics"]
    tn = json.load(open(os.path.join(out, "new-trace.json")))["metrics"]
    print(f"{'per-layer (--trace 1)':34} {'base':>14} {'new':>14}")
    for name in tb:
        print(f"{name:34} {tb[name]['value']:14.6g} {tn.get(name, {}).get('value', float('nan')):14.6g}")
PY
