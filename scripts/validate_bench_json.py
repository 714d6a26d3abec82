#!/usr/bin/env python3
"""Validates BENCH_*.json files against the pravega-bench/v1 schema.

Usage: validate_bench_json.py FILE [FILE...]
Exits non-zero (with a message naming the file and violation) on the first
file that does not conform.
"""
import json
import sys

SCHEMA = "pravega-bench/v1"


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_number_map(path, obj, where):
    if not isinstance(obj, dict):
        fail(path, f"{where} must be an object")
    for key, value in obj.items():
        if not isinstance(key, str):
            fail(path, f"{where} key {key!r} is not a string")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(path, f"{where}[{key!r}] is not a number: {value!r}")


def check_number(path, obj, where):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        fail(path, f"{where} is not a number: {obj!r}")


def check_detection(path, det):
    """The optional "detection" section: chaos-scored detector runs."""
    if not isinstance(det, dict) or "runs" not in det:
        fail(path, 'detection must be an object with a "runs" array')
    if not isinstance(det["runs"], list) or not det["runs"]:
        fail(path, "detection.runs must be a non-empty array")
    for i, run in enumerate(det["runs"]):
        where = f"detection.runs[{i}]"
        if not isinstance(run, dict):
            fail(path, f"{where} must be an object")
        for key in ("series", "ticks", "ground_truth", "alarms", "guardrails",
                    "scores"):
            if key not in run:
                fail(path, f"{where} missing key {key!r}")
        if not isinstance(run["series"], str) or not run["series"]:
            fail(path, f"{where}.series must be a non-empty string")
        check_number(path, run["ticks"], f"{where}.ticks")

        truth = run["ground_truth"]
        if truth is not None:
            if not isinstance(truth, dict) or "windows" not in truth:
                fail(path, f"{where}.ground_truth must be null or have windows")
            for j, w in enumerate(truth["windows"]):
                for key in ("class", "start_ms", "end_ms"):
                    if key not in w:
                        fail(path, f"{where}.ground_truth.windows[{j}] missing {key!r}")
                check_number(path, w["start_ms"],
                             f"{where}.ground_truth.windows[{j}].start_ms")
                check_number(path, w["end_ms"],
                             f"{where}.ground_truth.windows[{j}].end_ms")

        if not isinstance(run["alarms"], list):
            fail(path, f"{where}.alarms must be an array")
        for j, a in enumerate(run["alarms"]):
            for key in ("t_ms", "detector", "metric", "kind", "value", "score",
                        "cleared_ms"):
                if key not in a:
                    fail(path, f"{where}.alarms[{j}] missing key {key!r}")
            check_number(path, a["t_ms"], f"{where}.alarms[{j}].t_ms")
            if a["kind"] not in ("spike", "drop", "collapse", "slo"):
                fail(path, f"{where}.alarms[{j}].kind is {a['kind']!r}")

        if not isinstance(run["guardrails"], list):
            fail(path, f"{where}.guardrails must be an array")
        for j, g in enumerate(run["guardrails"]):
            for key in ("rule", "passed", "evaluations", "violations", "episodes"):
                if key not in g:
                    fail(path, f"{where}.guardrails[{j}] missing key {key!r}")
            if not isinstance(g["passed"], bool):
                fail(path, f"{where}.guardrails[{j}].passed must be a boolean")

        scores = run["scores"]
        if not isinstance(scores, dict):
            fail(path, f"{where}.scores must be an object")
        for key in ("faults", "detected", "total_alarms", "matched_alarms",
                    "false_positives", "recall", "precision", "mean_detect_ms",
                    "max_detect_ms", "per_class"):
            if key not in scores:
                fail(path, f"{where}.scores missing key {key!r}")
        for key in ("recall", "precision"):
            check_number(path, scores[key], f"{where}.scores.{key}")
            if not 0.0 <= scores[key] <= 1.0:
                fail(path, f"{where}.scores.{key} out of [0,1]: {scores[key]}")
        if not isinstance(scores["per_class"], list):
            fail(path, f"{where}.scores.per_class must be an array")
        for j, c in enumerate(scores["per_class"]):
            for key in ("class", "faults", "detected", "recall"):
                if key not in c:
                    fail(path, f"{where}.scores.per_class[{j}] missing {key!r}")


def check_cores_rows(path, rows):
    """The optional "cores" section: throughput-vs-core-count sweeps.

    Every row in a section named "cores" must carry a positive integer
    "cores" value plus at least one measurement, and within one series the
    core counts must be distinct and increasing (a sweep, not repeats).
    """
    by_series = {}
    for i, row in enumerate(rows):
        if row.get("section") != "cores":
            continue
        where = f"rows[{i}]"
        values = row["values"]
        if "cores" not in values:
            fail(path, f'{where} is in section "cores" but has no "cores" value')
        cores = values["cores"]
        check_number(path, cores, f"{where}.values.cores")
        if cores != int(cores) or cores < 1:
            fail(path, f"{where}.values.cores must be a positive integer: {cores!r}")
        if len(values) < 2:
            fail(path, f"{where} has no measurement besides the cores count")
        by_series.setdefault(row["series"], []).append((int(cores), where))
    for series, entries in by_series.items():
        counts = [c for c, _ in entries]
        if len(set(counts)) != len(counts):
            fail(path, f'series {series!r} repeats a cores value: {counts}')
        if counts != sorted(counts):
            fail(path, f'series {series!r} cores values not increasing: {counts}')
    return sum(len(v) for v in by_series.values())


def check_archive_rows(path, rows):
    """The optional archive-tier ablation rows (fig12): the codec + cold
    archive sweep. Each row must carry the ablation flag, the payload
    checksum that proves byte-identity across the flag, the codec reduction
    ratio, and the codec/checksum metrics the smoke gates consume.
    """
    archive = [(i, r) for i, r in enumerate(rows)
               if r["series"].startswith("pravega-archive[")]
    if not archive:
        return 0
    flags = set()
    for i, row in archive:
        where = f"rows[{i}]"
        values = row["values"]
        for key in ("archive", "payload_crc32", "crc_events", "compression_ratio"):
            if key not in values:
                fail(path, f"{where} is an archive-ablation row missing {key!r}")
            check_number(path, values[key], f"{where}.values.{key}")
        if values["archive"] not in (0, 1):
            fail(path, f'{where}.values.archive must be 0 or 1: {values["archive"]!r}')
        flags.add(int(values["archive"]))
        for key in ("lts.codec.raw_bytes", "lts.codec.stored_bytes",
                    "lts.checksum_failures"):
            if key not in row["metrics"]:
                fail(path, f"{where} archive-ablation row missing metric {key!r}")
    if flags != {0, 1}:
        fail(path, f"archive ablation needs archive=0 AND archive=1 rows, got {flags}")
    return len(archive)


def check_fleet_rows(path, rows):
    """The optional fleet-workload rows (fig13): aggregate-client fleet runs
    driving the rebalance and quota policies. Every "fleet-" series row must
    carry the fleet's scale facts and delivery counters; the placement pair
    (static vs rebalance) additionally reports the load ratio and move
    count, the quota pair the throttle/isolation outcomes.
    """
    fleet = [(i, r) for i, r in enumerate(rows)
             if r["series"].startswith("fleet-")]
    if not fleet:
        return 0
    series_seen = set()
    for i, row in fleet:
        where = f"rows[{i}]"
        values = row["values"]
        series_seen.add(row["series"])
        for key in ("streams", "modeled_producers", "offered_events",
                    "acked_events"):
            if key not in values:
                fail(path, f"{where} is a fleet row missing {key!r}")
            check_number(path, values[key], f"{where}.values.{key}")
            if values[key] < 0:
                fail(path, f"{where}.values.{key} is negative")
        if values["acked_events"] > values["offered_events"]:
            fail(path, f"{where} acked more events than it offered")
        if row["series"] in ("fleet-static", "fleet-rebalance"):
            for key in ("max_min_ratio", "moves", "key_checksum_hi",
                        "key_checksum_lo"):
                if key not in values:
                    fail(path, f"{where} placement row missing {key!r}")
            if values["max_min_ratio"] < 1:
                fail(path, f'{where} max_min_ratio < 1: {values["max_min_ratio"]}')
        if row["series"] in ("fleet-noisy", "fleet-control"):
            for key in ("quota_throttled_events", "steady_acked_frac",
                        "noisy_splits"):
                if key not in values:
                    fail(path, f"{where} quota row missing {key!r}")
            if not 0.0 <= values["steady_acked_frac"] <= 1.0:
                fail(path, f'{where} steady_acked_frac out of [0,1]')
    if "fleet-static" in series_seen and "fleet-rebalance" not in series_seen:
        fail(path, "fleet placement sweep has static row but no rebalance row")
    if "fleet-rebalance" in series_seen and "fleet-static" not in series_seen:
        fail(path, "fleet placement sweep has rebalance row but no static row")
    return len(fleet)


def check_micro_core(path, doc):
    """bench_micro_core must publish the DES-engine row (scheduler events,
    the wall-clock dispatch rate, the deterministic copy budget) and the
    codec kernel row (wall-clock CRC-32 and encodeBlock MB/s, the
    deterministic stored size and CRC of the fixed payload, and which CRC
    kernel ran)."""
    engine = [r for r in doc["rows"] if r["series"] == "engine"]
    if len(engine) != 1:
        fail(path, f"micro_core needs exactly one engine row, got {len(engine)}")
    values = engine[0]["values"]
    for key in ("events", "events_per_sec", "bytes_copied_per_event",
                "copy_ops_per_event"):
        if key not in values:
            fail(path, f"engine row missing {key!r}")
        check_number(path, values[key], f"engine.values.{key}")
    if values["events"] <= 0:
        fail(path, f'engine row executed no events: {values["events"]!r}')
    if values["events_per_sec"] < 0:
        fail(path, f'engine events_per_sec negative: {values["events_per_sec"]!r}')
    if values["bytes_copied_per_event"] <= 0:
        fail(path, "engine bytes_copied_per_event must be positive "
                   "(the framing copy always counts)")
    codec = [r for r in doc["rows"] if r["series"] == "codec"]
    if len(codec) != 1:
        fail(path, f"micro_core needs exactly one codec row, got {len(codec)}")
    values = codec[0]["values"]
    for key in ("crc32_mbps", "crc32_table_mbps", "encode_mbps", "stored_bytes", "crc32",
                "crc32_folded"):
        if key not in values:
            fail(path, f"codec row missing {key!r}")
        check_number(path, values[key], f"codec.values.{key}")
    for key in ("crc32_mbps", "crc32_table_mbps", "encode_mbps", "stored_bytes"):
        if values[key] <= 0:
            fail(path, f"codec {key} must be positive: {values[key]!r}")
    if not 0 <= values["crc32"] < 2**32 or values["crc32"] != int(values["crc32"]):
        fail(path, f'codec crc32 is not a 32-bit value: {values["crc32"]!r}')
    if values["crc32_folded"] not in (0, 1):
        fail(path, f'codec crc32_folded must be 0 or 1: {values["crc32_folded"]!r}')


def validate(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(path, f"invalid JSON: {e}")

    if not isinstance(doc, dict):
        fail(path, "top level must be an object")
    for key in ("schema", "name", "title", "smoke", "rows", "notes"):
        if key not in doc:
            fail(path, f"missing top-level key {key!r}")
    if doc["schema"] != SCHEMA:
        fail(path, f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["name"], str) or not doc["name"]:
        fail(path, "name must be a non-empty string")
    if not isinstance(doc["title"], str):
        fail(path, "title must be a string")
    if not isinstance(doc["smoke"], bool):
        fail(path, "smoke must be a boolean")
    if not isinstance(doc["rows"], list):
        fail(path, "rows must be an array")
    if not doc["rows"]:
        fail(path, "rows is empty — the bench reported nothing")
    for i, row in enumerate(doc["rows"]):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            fail(path, f"{where} must be an object")
        for key in ("section", "series", "values", "metrics"):
            if key not in row:
                fail(path, f"{where} missing key {key!r}")
        if not isinstance(row["section"], str):
            fail(path, f"{where}.section must be a string")
        if not isinstance(row["series"], str) or not row["series"]:
            fail(path, f"{where}.series must be a non-empty string")
        if "note" in row and not isinstance(row["note"], str):
            fail(path, f"{where}.note must be a string")
        check_number_map(path, row["values"], f"{where}.values")
        if not row["values"]:
            fail(path, f"{where}.values is empty")
        check_number_map(path, row["metrics"], f"{where}.metrics")
    if not isinstance(doc["notes"], list) or any(
        not isinstance(n, str) for n in doc["notes"]
    ):
        fail(path, "notes must be an array of strings")
    runs = 0
    if "detection" in doc:
        check_detection(path, doc["detection"])
        runs = len(doc["detection"]["runs"])
    cores_rows = check_cores_rows(path, doc["rows"])
    archive_rows = check_archive_rows(path, doc["rows"])
    fleet_rows = check_fleet_rows(path, doc["rows"])
    if doc["name"] == "micro_core":
        check_micro_core(path, doc)
    suffix = f", {runs} detection runs" if runs else ""
    if cores_rows:
        suffix += f", {cores_rows} cores-sweep rows"
    if archive_rows:
        suffix += f", {archive_rows} archive-ablation rows"
    if fleet_rows:
        suffix += f", {fleet_rows} fleet rows"
    print(f"{path}: OK ({len(doc['rows'])} rows{suffix})")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    for path in sys.argv[1:]:
        validate(path)


if __name__ == "__main__":
    main()
