"""Benchmark of the static pipeline: four workloads, end to end and per layer.

Run from the repository root::

    python3 pipebench/run.py --workload classify-mix --seed 1 --seconds 15 --trace 0

Workloads (inputs come from ``--seed`` only; see ``inputs.py``).  Each is
one process acting as a single closed-loop caller, with no threads:

- ``classify-mix`` — ``classify([src])`` per file over Alexa/npm-shaped
  scripts and malware samples in Table I proportions, plus minified
  bundles (20–130 KB);
- ``deob-obfuscated`` — ``classify([src], deob=True)`` over every
  technique in equal shares and stacked technique pairs;
- ``crawl-scan`` — serial rules-only ``ScanCoordinator`` over a generated
  crawl: cold scans into fresh stores, repeated rescans, merges;
- ``pathological`` — six shape families at 1k/2k/4k elements plus the
  5e4 depth probes (known failures, counted, never hidden).

End-to-end metrics (``--trace 0``), on every workload:

- ``files_per_s`` — files with a stable verdict per second of one pass
  over them at each file's median call time (a failed file is called
  until it first fails; its time is in the details line) (crawl-scan:
  unique units per second of a cold scan, median over the run's cold
  scans);
- ``latency_p50_ms``/``latency_tail_ms`` — each file's median call time,
  counted once per file; the tail is the highest whole percentile with at
  least ten files beyond it, and a failed file misses every limit
  (crawl-scan: wall time of one rescan of the unchanged crawl);
- ``accuracy`` — share of files whose transformed-vs-regular verdict
  matches the planted label (deob: the normal form against the regular
  program it came from; pathological: no tool touched them, so regular);
- ``setup_s`` — imports, model load, engine construction and first call
  (crawl-scan: a one-file scan), median of fresh interpreters after one
  discarded warm-up probe;
- ``peak_rss_mb`` — peak resident set of the benchmark process from the
  moment its inputs are built (the high-water mark is reset there, so
  input generation does not set it) to the end of the run.

Every time (latencies, the time behind ``files_per_s``, ``setup_s``) is
given at the reference speed: fixed reference work runs between the timed
calls, and each call's time is scaled by how fast the host ran it there
(``gauge.py``), because the host's own speed drifts by more than the
bounds between runs.  The details line gives the raw figures and the
measured speed factors beside them.

The details line also gives the tail percentile and sample counts, the
deob ``removal_rate``, crawl-scan ``rescan_units_per_s``, pathological
scaling ratios and every budget trip (DFG timeouts, degraded flow
analysis, deob bailouts).

``--trace 1`` alternates untraced and traced passes over the same inputs,
checks that their verdicts agree, and prints the per-layer metrics plus
``trace.overhead_share``; spans go to ``.bench_build/pipebench/spans/``.

The last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is non-zero when an output check
fails.  Every engine is built with ``cache_size=0``; the model is what
``python -m repro train`` builds by default, trained once per program
source digest into ``.bench_build/`` (outside ``setup_s``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "pipebench"
WORKLOADS = ("classify-mix", "deob-obfuscated", "crawl-scan", "pathological")
#: fresh-interpreter set-up probes per run, after one discarded warm-up probe
SETUP_PROBES = 4


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))


def host_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def reset_peak_rss() -> bool:
    """Reset this process's resident-set high-water mark to its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as clear_refs:
            clear_refs.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """High-water resident set of this process (``VmHWM``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ensure_model() -> Path:
    """Train the default model once per program source digest."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    model = BUILD / f"model-{digest.hexdigest()[:20]}.pkl"
    if model.exists():
        return model
    BUILD.mkdir(parents=True, exist_ok=True)
    partial = model.with_suffix(f".partial-{os.getpid()}")
    subprocess.run(
        [sys.executable, "-m", "repro", "train", "--out", str(partial)],
        cwd=ROOT, env=child_env(), stdout=sys.stderr, check=True, timeout=800,
    )
    os.replace(partial, model)
    return model


def setup_seconds(workload: str, model: Path | None, work: Path) -> tuple[float, list[float]]:
    """Median set-up time at the reference speed, and every probe's raw time."""
    from gauge import REFERENCE_NS

    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(model or ""), str(work)]
    samples, scaled = [], []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * REFERENCE_NS / statistics.fmean(probe["reference_ns"]))
    # The first probe after a checkout also compiles bytecode: discard it.
    return statistics.median(scaled[1:]), samples


def run(args: argparse.Namespace, work: Path) -> int:
    import inputs
    import workloads

    seconds = float(args.seconds)
    host = host_record()
    print(json.dumps({"host": host}))
    model = None if args.workload == "crawl-scan" else ensure_model()
    if args.workload == "crawl-scan":
        crawl = inputs.crawl(args.seed)
        digest, count = crawl.digest, crawl.units
    else:
        items = inputs.workload_inputs(args.workload, args.seed)
        digest, count = inputs.digest_inputs(items), len(items)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": count, "inputs_sha256": digest}))
    rss_reset = reset_peak_rss()

    if args.workload != "crawl-scan":
        from repro.detector.pipeline import TransformationDetector

        engine = TransformationDetector.load(model).batch_engine(cache_size=0)
    if args.trace:
        if args.workload == "crawl-scan":
            outcome, checks = workloads.run_scan_traced(crawl, work, seconds)
        else:
            outcome, checks = workloads.run_classify_traced(engine, items, seconds, args.workload)
        # Layers a workload does not exercise read 0.
        metrics = {
            name: outcome.metrics.get(name, (0.0, unit))
            for name, unit in workloads.per_layer_names()
        }
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        with open(spans, "w", encoding="utf-8") as out:
            for name, parent, start, end, request in outcome.tracer.spans:
                out.write(json.dumps([request, name, parent, start, end]) + "\n")
        outcome.notes["spans"] = str(spans.relative_to(ROOT))
    else:
        setup, samples = setup_seconds(args.workload, model, work)
        if args.workload == "crawl-scan":
            outcome, checks = workloads.run_scan(crawl, work, seconds)
        else:
            outcome, checks = workloads.run_classify(engine, items, seconds, args.workload)
        outcome.metrics["setup_s"] = (setup, "s")
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        outcome.notes["peak_rss_reset_after_inputs"] = rss_reset
        outcome.notes["setup_probes_s"] = samples
        metrics = outcome.metrics
    print(json.dumps({"details": outcome.notes, "host": host}, sort_keys=True, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checks.ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Input generation hashes strings (MaliciousGenerator seeds itself
        # from hash((seed, origin))): pin the hash seed, then start over.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], child_env())
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC.relative_to(ROOT)}/: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    work = BUILD / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
