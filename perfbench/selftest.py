#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The delivery checker counts a dropped, duplicated, reordered or
   bit-flipped delivery as failed (perfbench_checker_test).
2. A tiny run of every workload passes the checker with zero failures.
3. Two runs with the same seed print identical virtual-time metrics, and a
   run with another seed changes them.

Builds into $CARGO_TARGET_DIR (default .bench_build) like run.py. Exits
non-zero when a check fails.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Wall-clock metrics; every other metric is virtual time or a count.
WALL = {"run_s", "run_cpu_s", "setup_s", "peak_rss_mb", "client.write_call_us",
        "client.read_call_us", "sim.run_self_s", "bench.self_s", "bench.check_s",
        "setup.cluster_s", "setup.streams_s", "setup.readers_s", "setup.backlog_s",
        "sim.des_events_per_s", "bench.run_wall_s", "bench.setup_wall_s", "bench.ref_s"}

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def tiny(exe, workload, seed):
    p = subprocess.run([exe, "--workload", workload, "--seed", str(seed), "--tiny"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    virtual = {}
    for group in ("metrics", "per_layer"):
        for name, m in result[group].items():
            if name not in WALL:
                virtual[name] = m["value"]
    return result, virtual


def main():
    out = run.build_dir()
    if not run.build(out):
        print("build failed")
        return 1
    p = subprocess.run([os.path.join(out, "perfbench_checker_test")])
    check(p.returncode == 0, "checker counts dropped, duplicated, reordered, flipped deliveries")

    exe = os.path.join(out, "perfbench")
    with open(run.MANIFEST) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for w in workloads:
        a, va = tiny(exe, w, 1)
        b, vb = tiny(exe, w, 1)
        c, vc = tiny(exe, w, 2)
        check(a["ok"] and a["failed"] == 0 and a["attempted"] > 0,
              "%s: tiny run passes the checker (%d attempted)" % (w, a["attempted"]))
        diff = sorted(k for k in va if va[k] != vb.get(k))
        check(not diff, "%s: same seed, identical virtual-time metrics %s" % (w, diff or ""))
        check(va != vc, "%s: another seed changes the virtual-time metrics" % w)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
