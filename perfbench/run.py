#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload ingest|catchup|fleet --seed N \
        --seconds S --trace 0|1

Builds the benchmark (the library from src/ plus perfbench/src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the workload
in a fresh process. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of an untraced run. With --trace 1 the workload
runs twice, untraced then traced; the metrics are the per-layer metrics of
the traced run plus trace.overhead_frac, and a per-layer table is printed
first. The traced run's sampled spans go to <build>/traces/ as Chrome
trace-event JSON.

Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
# Reader failures are logged by the library, not returned by its API.
READER_ERROR_PREFIXES = ("[WARN] reader:", "[ERROR]")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(exe, args):
    """Runs one workload process; returns (result dict, reader error lines)."""
    p = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(p.stderr[-4000:])
        raise RuntimeError("perfbench printed no result (exit %d)" % p.returncode)
    result = json.loads(lines[-1])
    errors = [l for l in p.stderr.splitlines() if l.startswith(READER_ERROR_PREFIXES)]
    return result, errors


def print_table(workload, traced):
    print("per-layer wall time per round, %s (traced run):" % workload)
    print("  %-14s %10s %10s %12s" % ("layer", "total_s", "self_s", "calls"))
    for name, t in traced["layers"].items():
        print("  %-14s %10.4f %10.4f %12.0f" % (name, t["total_s"], t["self_s"], t["calls"]))
    print("per-layer metrics:")
    for name, m in traced["per_layer"].items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(MANIFEST) as f:
        manifest = json.load(f)
    if args.workload not in [w["name"] for w in manifest["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    exe = os.path.join(out, "perfbench")
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    result, errors = run_binary(exe, base + ["--trace", "0"])
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
        traced, traced_errors = run_binary(exe, base + ["--trace", "1", "--trace-out", trace_out])
        errors += traced_errors
        print_table(args.workload, traced)
        metrics = dict(traced["per_layer"])
        overhead = traced["metrics"]["run_s"]["value"] / result["metrics"]["run_s"]["value"] - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        wanted = manifest["per_layer"]
        result_ok = result["ok"] and traced["ok"]
        failed = traced["failed"] + result["failed"]
        attempted = traced["attempted"] + result["attempted"]
    else:
        metrics = result["metrics"]
        wanted = manifest["end_to_end"]
        result_ok = result["ok"]
        failed = result["failed"]
        attempted = result["attempted"]

    for note in result["notes"]:
        log("note: " + note)
    for kind, count in result["failures"].items():
        if count:
            log("failed: %s = %d" % (kind, count))
    for line in errors:
        log("reader error: " + line)
    failed += len(errors)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if not result_ok or missing:
        log("run incomplete; missing metrics: %s" % missing)
        return 1
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
