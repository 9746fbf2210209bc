#!/usr/bin/env bash
# Run the benchmark suite and append one JSON record per run to the
# per-suite history files, building the perf trajectory across PRs.  Each
# benchmarks/test_bench_<x>.py appends to BENCH_<x>.json (test_bench_parse.py
# to BENCH_parse.json, test_bench_serve.py to BENCH_serve.json, ...), and
# every record is stamped with the commit and the host it ran on (CPU
# count, Python version, platform).
#
# Usage:
#   scripts/bench.sh                                 # full benchmarks/ directory
#   scripts/bench.sh benchmarks/test_bench_parse.py  # one suite
set -euo pipefail
cd "$(dirname "$0")/.."

TARGET="${1:-benchmarks}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

RAW_JSON="$(mktemp)"
trap 'rm -f "$RAW_JSON"' EXIT

python -m pytest "$TARGET" -q -p no:cacheprovider --benchmark-disable-gc \
    --benchmark-json="$RAW_JSON"

python - "$RAW_JSON" <<'PY'
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

raw = json.load(open(sys.argv[1]))
commit = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip()
timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
host = {
    "cpu_count": os.cpu_count(),
    "python": platform.python_version(),
    "platform": platform.platform(),
}

# Route each benchmark to its suite's history file by module name.
suites: dict[str, list] = {}
for bench in raw.get("benchmarks", []):
    entry = {
        "name": bench["name"],
        "mean_s": round(bench["stats"]["mean"], 6),
        "stddev_s": round(bench["stats"]["stddev"], 6),
        "rounds": bench["stats"]["rounds"],
        **({"extra": bench["extra_info"]} if bench.get("extra_info") else {}),
    }
    module = pathlib.Path(bench["fullname"].split("::")[0]).stem
    suites.setdefault(f"BENCH_{module.removeprefix('test_bench_')}.json", []).append(entry)

for out, benches in suites.items():
    record = {
        "timestamp": timestamp,
        "commit": commit or None,
        "host": host,
        "benchmarks": benches,
    }
    path = pathlib.Path(out)
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(record)
    path.write_text(json.dumps(history, indent=2) + "\n")
    print(f"[bench] appended {len(benches)} entries to {path}")
PY
