#!/usr/bin/env bash
# Heap allocations of one perfbench workload, per client event and by site.
#
# Builds perfbench with frame pointers and debug info into its own
# directory, runs it with an allocation counter preloaded
# (scripts/alloc_counter.c: malloc, calloc, realloc and operator new, each
# counted by its call stack) and prints
#   - the total number of allocations over the whole process and that total
#     per client event (the run's "attempted" count);
#   - the top 25 sites. A site is the innermost three distinct pravega::
#     functions on the allocating stack, innermost first, with inlined
#     frames expanded by `addr2line -i`; template arguments and parameter
#     lists are dropped from the names.
#
# Usage: alloc_sites.sh WORKLOAD SEED [SECONDS]
#   ALLOC_DIR   directory for the build, the counter and the raw counts
#               (default: a fresh temporary directory, kept for reuse)
#
# perfbench/ is only read: everything is written under ALLOC_DIR.
set -euo pipefail
[[ $# -ge 2 && $# -le 3 ]] || { sed -n '2,19p' "$0" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOAD="$1" SEED="$2" SECONDS_ARG="${3:-2}"
OUT="${ALLOC_DIR:-$(mktemp -d)}"
mkdir -p "${OUT}"
echo "alloc_sites: ${WORKLOAD} seed ${SEED}, ${SECONDS_ARG} s; output in ${OUT}" >&2

{ cmake -S "${ROOT}/perfbench" -B "${OUT}/build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" &&
  cmake --build "${OUT}/build" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" --target perfbench; } \
  > "${OUT}/build.log" 2>&1 || { echo "build failed:" >&2; tail -20 "${OUT}/build.log" >&2; exit 1; }
cc -O2 -fno-omit-frame-pointer -shared -fPIC -o "${OUT}/alloc_counter.so" \
  "${ROOT}/scripts/alloc_counter.c"

ALLOC_OUT="${OUT}/allocs.txt" LD_PRELOAD="${OUT}/alloc_counter.so" \
  "${OUT}/build/perfbench" --workload "${WORKLOAD}" --seed "${SEED}" --seconds "${SECONDS_ARG}" \
  > "${OUT}/run.json" 2> "${OUT}/run.err" \
  || { echo "perfbench failed:" >&2; tail -20 "${OUT}/run.err" >&2; exit 1; }

python3 - "${OUT}/allocs.txt" "${OUT}/build/perfbench" "${OUT}/run.json" <<'PY'
import collections, json, os, re, subprocess, sys

TOP, DEPTH = 25, 3
counts_path, binary, run_path = sys.argv[1], os.path.realpath(sys.argv[2]), sys.argv[3]

with open(run_path) as f:
    events = json.loads(f.read().strip().splitlines()[-1])["attempted"]
stacks = []
with open(counts_path) as f:
    _, total, dropped = f.readline().split()
    total, dropped = int(total), int(dropped)
    for line in f:
        parts = line.split()
        stacks.append((int(parts[0]), [int(x, 16) for x in parts[1:]]))

# The binary's executable mappings and its load base.
spans, base = [], None
with open(counts_path + ".maps") as f:
    for line in f:
        parts = line.split(maxsplit=5)
        if len(parts) < 6 or os.path.realpath(parts[5].strip()) != binary:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        if int(parts[2], 16) == 0:
            base = lo
        if "x" in parts[1]:
            spans.append((lo, hi))
with open(binary, "rb") as f:
    if f.read(18)[16] == 2:  # ET_EXEC: linked at absolute addresses
        base = 0

def in_binary(pc):
    return any(lo <= pc < hi for lo, hi in spans)

# Resolve every distinct in-binary return address (minus one: it points
# past the call) to its chain of inlined functions, innermost first.
pcs = sorted({pc for _, st in stacks for pc in st if in_binary(pc)})
chains = {}
proc = subprocess.Popen(["addr2line", "-e", binary, "-a", "-f", "-i", "-C"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
text, _ = proc.communicate("".join(f"{pc - 1 - base:x}\n" for pc in pcs))
# -a prints each address, then a function line and a file:line line per
# inlined frame.
current = None
lines = text.splitlines()
i = 0
while i < len(lines):
    if lines[i].startswith("0x"):
        current = int(lines[i], 16) + 1 + base
        chains[current] = []
        i += 1
        continue
    chains[current].append(lines[i])
    i += 2  # function name, then file:line

def shorten(name):
    """Drops template arguments, parameter lists and any return type."""
    name = name.replace("operator()", "operator@")
    prev = None
    while prev != name:
        prev = name
        name = re.sub(r"<[^<>]*>", "", name)
        name = re.sub(r"\([^()]*\)", "", name)
    name = name.replace(" const", "").strip().split(" ")[-1]
    return name.replace("operator@", "operator()")

sites = collections.Counter()
for count, stack in stacks:
    frames = []
    for pc in stack:
        frames.extend(shorten(n) for n in chains.get(pc, []))
    own = []
    for n in frames:
        if n.startswith("pravega::") and n not in own:
            own.append(n)
    sites["  <-  ".join(own[:DEPTH]) or "(outside pravega::)"] += count

print(f"{total} allocations, {events} client events: {total / max(events, 1):.2f} per event"
      + (f" ({dropped} without a site)" if dropped else ""))
print(f"\n  {'allocs':>10} {'/event':>7} {'share':>6}  site  <-  caller  <-  its caller")
for key, n in sites.most_common(TOP):
    print(f"  {n:10d} {n / max(events, 1):7.2f} {100.0 * n / total:5.1f}%  {key}")
PY
