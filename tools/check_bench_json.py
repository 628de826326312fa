#!/usr/bin/env python3
"""Validate a bench --json output file against the BenchJson schema.

Schema (schema_version 1, see docs/OBSERVABILITY.md):

    {"bench": "<binary name>",
     "schema_version": 1,
     "wall_seconds": <non-negative number>,
     "records": [{"name": "<non-empty str>",
                  "labels": {str: str, ...},
                  "values": {str: finite number, ...}}, ...]}

Usage: check_bench_json.py <file.json> [<file.json> ...]
Exits 0 when every file validates, 1 otherwise. Stdlib only.
"""

import json
import math
import sys

# Optional per-bench requirements, applied when the document's "bench" name
# matches: every listed section must appear among the records'
# labels["section"], every record must carry the "record_values" value
# keys, and records whose labels["section"] appears in "section_values"
# must additionally carry that section's value keys.
BENCH_REQUIREMENTS = {
    "bench_x6_byzantine": {
        "sections": {"attacker_sweep", "quarantine"},
        "record_values": {"avg_loss"},
        "section_values": {
            "attacker_sweep": {"attacker_frac", "attackers"},
        },
    },
    "bench_x7_hotpath": {
        "sections": {"kernels", "step", "round"},
        "record_values": {"speedup", "reps"},
    },
    "bench_x8_query_throughput": {
        "sections": {"equality", "throughput"},
        "record_values": {"queries"},
    },
    "bench_x10_wire_format": {
        "sections": {"sweep", "pinning"},
        "record_values": {"queries"},
        "section_values": {
            "pinning": {"expected_bytes", "recorded_bytes"},
        },
    },
    "bench_x11_churn_drift": {
        "sections": {"baseline", "sweep"},
        "record_values": {"avg_loss", "queries_run"},
    },
    "bench_x13_serving_slo": {
        "sections": {"equality", "slo", "throughput"},
        "record_values": {"requests"},
        "section_values": {
            "slo": {"executed", "rejected", "shed", "deadline_missed",
                    "vt_p50_s", "vt_p95_s", "vt_p99_s"},
            "throughput": {"wall_seconds", "speedup", "hw_threads"},
        },
    },
}


def fail(path, message):
    print(f"{path}: FAIL: {message}")
    return False


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level must be a JSON object")

    for key in ("bench", "schema_version", "wall_seconds", "records"):
        if key not in doc:
            return fail(path, f"missing required key '{key}'")

    if not isinstance(doc["bench"], str) or not doc["bench"]:
        return fail(path, "'bench' must be a non-empty string")
    if doc["schema_version"] != 1:
        return fail(path, f"unsupported schema_version {doc['schema_version']!r}")
    wall = doc["wall_seconds"]
    if not isinstance(wall, (int, float)) or isinstance(wall, bool):
        return fail(path, "'wall_seconds' must be a number")
    if not math.isfinite(wall) or wall < 0:
        return fail(path, f"'wall_seconds' must be finite and >= 0, got {wall}")
    if not isinstance(doc["records"], list):
        return fail(path, "'records' must be an array")
    if not doc["records"]:
        return fail(path, "'records' must not be empty")

    for i, record in enumerate(doc["records"]):
        where = f"records[{i}]"
        if not isinstance(record, dict):
            return fail(path, f"{where} must be an object")
        for key in ("name", "labels", "values"):
            if key not in record:
                return fail(path, f"{where} missing required key '{key}'")
        if not isinstance(record["name"], str) or not record["name"]:
            return fail(path, f"{where}.name must be a non-empty string")
        if not isinstance(record["labels"], dict):
            return fail(path, f"{where}.labels must be an object")
        for k, v in record["labels"].items():
            if not isinstance(v, str):
                return fail(path, f"{where}.labels[{k!r}] must be a string")
        if not isinstance(record["values"], dict):
            return fail(path, f"{where}.values must be an object")
        if not record["values"]:
            return fail(path, f"{where}.values must not be empty")
        for k, v in record["values"].items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                return fail(path, f"{where}.values[{k!r}] must be a number")
            if not math.isfinite(v):
                return fail(path, f"{where}.values[{k!r}] must be finite, got {v}")

    requirements = BENCH_REQUIREMENTS.get(doc["bench"])
    if requirements:
        sections = {r["labels"].get("section") for r in doc["records"]}
        missing = requirements.get("sections", set()) - sections
        if missing:
            return fail(path, f"missing required sections: {sorted(missing)}")
        section_values = requirements.get("section_values", {})
        for i, record in enumerate(doc["records"]):
            required = set(requirements.get("record_values", set()))
            required |= section_values.get(
                record["labels"].get("section"), set())
            absent = required - set(record["values"])
            if absent:
                return fail(
                    path,
                    f"records[{i}] missing required values: {sorted(absent)}")

    print(f"{path}: OK ({doc['bench']}, {len(doc['records'])} records)")
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    ok = all([check_file(p) for p in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
