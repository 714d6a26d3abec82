#!/usr/bin/env python3
"""Compare two bench JSON files with their wall-clock columns dropped.

Usage:
  bench_json_diff.py A.json B.json   exit 0 when A and B are equal once the
                                     wall-clock columns are dropped, else 1
  bench_json_diff.py --keys          print the wall-clock column names

The wall-clock list lives only here: bench_smoke.sh's determinism check and
smoke_diff.sh both read it from this script.
"""
import json
import sys

# Columns measured in real time, so they differ between same-seed runs.
# Every other column derives from virtual time or fixed inputs.
WALL_CLOCK = ("events_per_sec", "crc32_mbps", "crc32_table_mbps", "encode_mbps",
              "ns_per_byte_256kb",
              "ns_per_byte_4mb", "lts_append_ratio", "ns_per_append_16seg",
              "ns_per_append_4096seg", "segment_scaling_ratio")


def load_scrubbed(path):
    with open(path) as f:
        doc = json.load(f)
    for row in doc["rows"]:
        for key in WALL_CLOCK:
            row["values"].pop(key, None)
    return doc


def main(argv):
    if argv == ["--keys"]:
        print("\n".join(WALL_CLOCK))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if load_scrubbed(argv[0]) == load_scrubbed(argv[1]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
