#!/usr/bin/env bash
# Sampling CPU profile of one perfbench workload, shared libraries included.
#
# gprof cannot see time spent in shared libraries (libc memcpy, malloc), so
# a hotspot that lives there is invisible to it. This script instead builds
# perfbench with frame pointers and debug info into its own directory, runs
# it with a SIGPROF stack sampler preloaded (scripts/sample_profiler.c) and
# prints three tables (top 25 rows each) over the samples, taken at 1 kHz
# of CPU time, whose stack passes through Machine::runUntil, the library's
# share of a run:
#   self        the innermost frame of each sample
#   inclusive   every function on the stack between the root and the leaf
#   library     each shared-library leaf with its nearest in-binary caller
# Library leaves are named from the library's dynamic symbols plus the
# string/allocator routines glibc resolved for this CPU (memcpy, malloc...).
#
# Usage: sample_profile.sh WORKLOAD SEED [SECONDS]
#   SAMPLE_DIR   directory for the build, the sampler and the raw samples
#                (default: a fresh temporary directory, kept for reuse)
#
# perfbench/ is only read: everything is written under SAMPLE_DIR.
set -euo pipefail
[[ $# -ge 2 && $# -le 3 ]] || { sed -n '2,21p' "$0" >&2; exit 2; }
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOAD="$1" SEED="$2" SECONDS_ARG="${3:-8}"
OUT="${SAMPLE_DIR:-$(mktemp -d)}"
mkdir -p "${OUT}"
echo "sample_profile: ${WORKLOAD} seed ${SEED}, ${SECONDS_ARG} s; output in ${OUT}" >&2

{ cmake -S "${ROOT}/perfbench" -B "${OUT}/build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" &&
  cmake --build "${OUT}/build" -j "$(( $(nproc) < 4 ? $(nproc) : 4 ))" --target perfbench; } \
  > "${OUT}/build.log" 2>&1 || { echo "build failed:" >&2; tail -20 "${OUT}/build.log" >&2; exit 1; }
cc -O2 -shared -fPIC -o "${OUT}/sample_profiler.so" "${ROOT}/scripts/sample_profiler.c"

SAMPLE_OUT="${OUT}/samples.bin" LD_PRELOAD="${OUT}/sample_profiler.so" \
  "${OUT}/build/perfbench" --workload "${WORKLOAD}" --seed "${SEED}" --seconds "${SECONDS_ARG}" \
  > "${OUT}/run.json" 2> "${OUT}/run.err" \
  || { echo "perfbench failed:" >&2; tail -20 "${OUT}/run.err" >&2; exit 1; }

python3 - "${OUT}/samples.bin" "${OUT}/build/perfbench" <<'PY'
import array, bisect, collections, os, re, subprocess, sys

TOP, ROOT_FN = 25, "pravega::sim::Machine::runUntil"
samples_path, binary = sys.argv[1], os.path.realpath(sys.argv[2])

words = array.array("Q")
with open(samples_path, "rb") as f:
    words.frombytes(f.read())
stacks, i = [], 0
while i < len(words):
    n = words[i]
    stacks.append(words[i + 1:i + 1 + n])
    i += 1 + n

# Mapped objects and the ifunc implementations the sampler recorded.
mappings, anchors = [], collections.defaultdict(list)
with open(samples_path + ".maps") as f:
    for line in f:
        if line.startswith("ifunc "):
            _, name, addr = line.split()
            anchors[int(addr, 16)].append(name)
            continue
        parts = line.split(maxsplit=5)
        if len(parts) == 6 and parts[5].strip().startswith("/") and "x" in parts[1]:
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            mappings.append((lo, hi, parts[5].strip()))
mappings.sort()
starts = [m[0] for m in mappings]
bases = {}
with open(samples_path + ".maps") as f:
    for line in f:
        parts = line.split(maxsplit=5)
        if len(parts) == 6 and int(parts[2], 16) == 0 and parts[5].strip().startswith("/"):
            bases.setdefault(parts[5].strip(), int(parts[0].split("-")[0], 16))

def load_base(path):
    with open(path, "rb") as f:
        header = f.read(18)
    is_exec = header[16] == 2  # ET_EXEC: linked at absolute addresses
    return 0 if is_exec else bases.get(path, 0)

def shorten(name):
    name = name.replace("std::__cxx11::basic_string<char, std::char_traits<char>, "
                        "std::allocator<char> >", "std::string")
    name = re.sub(r"\s*const$", "", name)
    if name.endswith(")"):
        depth = 0
        for k in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[k], 0)
            if depth == 0:
                name = name[:k]
                break
    return name if len(name) <= 110 else name[:107] + "..."

class Object:
    def __init__(self, path):
        self.path, self.base = path, load_base(path)
        self.in_binary = path == binary
        entries = {}
        for dynamic in (False, True):
            args = ["nm", "-C", "-n", "-S", "--defined-only"] + (["-D"] if dynamic else []) + [path]
            out = subprocess.run(args, capture_output=True, text=True).stdout
            for line in out.splitlines():
                parts = line.split(" ", 3)
                if len(parts) == 4 and parts[2] in "tTwWi":
                    entries.setdefault(int(parts[0], 16), (int(parts[1], 16), parts[3].split("@")[0]))
            if entries:
                break
        for addr, names in anchors.items():
            lo = bisect.bisect_right(starts, addr) - 1
            if lo >= 0 and mappings[lo][0] <= addr < mappings[lo][1] and mappings[lo][2] == path:
                entries[addr - self.base] = (None, "/".join(names))
        self.addrs = sorted(entries)
        self.entries = [entries[a] for a in self.addrs]
        self.label = os.path.basename(path)

    def name(self, pc):
        v = pc - self.base
        k = bisect.bisect_right(self.addrs, v) - 1
        if k < 0:
            return f"{self.label}+?"
        size, name = self.entries[k]
        if size is not None and v >= self.addrs[k] + max(size, 1):
            return f"{self.label}+?"
        return shorten(name) if self.in_binary else f"{name} [{self.label}]"

objects = {}

def frame(pc, leaf):
    """(label, in_binary) for one frame; return addresses point past the call."""
    pc = pc if leaf else pc - 1
    k = bisect.bisect_right(starts, pc) - 1
    if k < 0 or pc >= mappings[k][1]:
        return "?", False
    path = mappings[k][2]
    if path not in objects:
        objects[path] = Object(path)
    obj = objects[path]
    return obj.name(pc), obj.in_binary

self_counts, incl_counts, lib_counts = collections.Counter(), collections.Counter(), collections.Counter()
kept = 0
for stack in stacks:
    frames = [frame(pc, j == 0) for j, pc in enumerate(stack)]
    names = [f[0] for f in frames]
    if names and names[0].endswith("+?"):
        # A routine the library does not export (malloc internals, say):
        # name it after the nearest named frame of the same library.
        lib = names[0][:-2]
        owner = next((n for n in names[1:] if n.endswith(f"[{lib}]")), None)
        if owner is not None:
            frames[0] = (f"{lib} internal, under {owner.split(' [')[0]}", False)
    if ROOT_FN not in names:
        continue
    kept += 1
    inner = frames[:names.index(ROOT_FN) + 1]
    self_counts[inner[0][0]] += 1
    for name in set(f[0] for f in inner):
        incl_counts[name] += 1
    if not inner[0][1]:
        caller = next((f[0] for f in inner if f[1]), "?")
        lib_counts[(inner[0][0], caller)] += 1

print(f"{len(stacks)} samples, {kept} inside {ROOT_FN}")
if kept == 0:
    sys.exit(1)

def table(title, counts):
    print(f"\n{title}")
    print(f"  {'samples':>8} {'share':>7}  function")
    for key, n in counts.most_common(TOP):
        label = key if isinstance(key, str) else f"{key[0]}  <-  {key[1]}"
        print(f"  {n:8d} {100.0 * n / kept:6.1f}%  {label}")

table("self (innermost frame)", self_counts)
table("inclusive (on the stack below the root)", incl_counts)
table("shared-library leaves by nearest in-binary caller", lib_counts)
PY
