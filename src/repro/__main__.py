"""Command-line interface: train, classify, transform.

Usage::

    python -m repro train --out detector.pkl [--n-regular 60] [--seed 0]
    python -m repro classify --model detector.pkl file1.js [file2.js ...]
    python -m repro serve --model detector.pkl --port 8377
    python -m repro scan corpus/ bundle.tar.gz --store .scan --merge
    python -m repro transform --technique minification_simple file.js
    python -m repro deob file.js [--json] [--out normalized.js]
    python -m repro experiments [--scale small]

``classify``/``serve`` without ``--model`` train a small detector on the fly.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from repro.corpus.filters import admit
from repro.detector.level2 import DEFAULT_K, DEFAULT_THRESHOLD
from repro.detector.pipeline import TransformationDetector
from repro.transform import TECHNIQUES, TransformationPipeline


def _cmd_train(args: argparse.Namespace) -> int:
    detector = TransformationDetector(
        n_estimators=args.estimators,
        random_state=args.seed,
        n_jobs=args.train_jobs,
    )
    print(f"training on {args.n_regular} regular scripts (seed {args.seed}) ...")
    detector.train(n_regular=args.n_regular, seed=args.seed)
    detector.save(args.out)
    print(f"saved detector to {args.out}")
    return 0


def _load_or_train(model_path: str | None) -> TransformationDetector:
    if model_path:
        return TransformationDetector.load(model_path)
    print(
        "warning: no --model given; training a small throwaway detector "
        "(it is discarded on exit — run `python -m repro train --out "
        "detector.pkl` once and pass --model to skip this step) ...",
        file=sys.stderr,
    )
    t0 = time.perf_counter()
    detector = TransformationDetector(n_estimators=12, random_state=0)
    detector.train(n_regular=30, seed=0)
    print(
        f"warning: throwaway detector trained in {time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    return detector


def _result_line(name: str, result) -> str:
    """One uniform human-readable line per file — errors included.

    Errors used to go to stderr only, so piped/filtered output silently
    dropped the per-file context; now every file gets a stdout line with
    the same ``name: verdict`` shape.
    """
    if result.error is not None:
        return f"{name}: error [{result.error.kind}] {result.error.message}"
    return f"{name}: {result}"


def _result_jsonl(name: str, result) -> str:
    """One JSON-lines record per file (stable keys, findings included)."""
    import json

    record: dict = {"file": name, "ok": result.ok}
    if result.error is not None:
        record["error"] = {"kind": result.error.kind, "message": result.error.message}
    else:
        record["level1"] = sorted(result.level1) if result.transformed else ["regular"]
        record["transformed"] = result.transformed
        record["techniques"] = [
            {"technique": technique, "confidence": round(confidence, 4)}
            for technique, confidence in result.techniques
        ]
    record["triaged"] = result.triaged
    if result.flow_timeout:
        record["flow_timeout"] = True
    record["findings"] = [finding.to_json() for finding in result.findings]
    if result.deob is not None:
        report = result.deob.report
        record["deob"] = {
            "changed": result.deob.changed,
            "passes_applied": report.passes_applied,
            "techniques_removed": report.techniques_removed,
            "total_rewrites": report.total_rewrites,
        }
    return json.dumps(record, sort_keys=True)


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.detector.batch import BatchInferenceEngine

    if args.rules_only:
        # Model-free: staged signature evaluation, no training or artifact.
        detector = None
        engine = BatchInferenceEngine(None, triage="only")
    else:
        detector = _load_or_train(args.model)
        engine = BatchInferenceEngine(detector, n_workers=args.workers)
    exit_code = 0
    names: list[str] = []
    sources: list[str] = []
    for name in args.files:
        path = Path(name)
        try:
            source = path.read_text(errors="replace")
        except OSError as error:
            print(f"{name}: cannot read ({error})", file=sys.stderr)
            exit_code = 1
            continue
        if not admit(source):
            print(f"{name}: rejected by admission filters (size/content)")
            continue
        names.append(name)
        sources.append(source)
    if not sources:
        return exit_code
    batch = engine.classify(sources, k=args.k, threshold=args.threshold, deob=args.deob)
    for name, result in zip(names, batch.results):
        if result.error is not None:
            exit_code = 1
        if args.jsonl:
            print(_result_jsonl(name, result))
        elif args.explain or args.rules_only:
            print(_result_line(name, result))
        else:
            # Default mode: keep the one-line verdict (suppress findings).
            shallow = result
            if result.findings:
                from dataclasses import replace

                shallow = replace(result, findings=[])
            print(_result_line(name, shallow))
        if args.deob and not args.jsonl and result.deob is not None:
            report = result.deob.report
            removed = ", ".join(report.techniques_removed) or "none"
            print(
                f"  [deob] {'normalized' if result.deob.changed else 'unchanged'}; "
                f"removed: {removed}"
            )
    print(f"[batch] {batch.stats}", file=sys.stderr)
    return exit_code


def _cmd_deob(args: argparse.Namespace) -> int:
    import json

    from repro.deob import deobfuscate

    try:
        source = Path(args.file).read_text(errors="replace")
    except OSError as error:
        print(f"{args.file}: cannot read ({error})", file=sys.stderr)
        return 1
    started = time.perf_counter()
    result = deobfuscate(source)
    result.report.wall_time_ms = (time.perf_counter() - started) * 1000
    if args.json:
        print(json.dumps(result.to_json(), sort_keys=True))
    else:
        if args.out:
            Path(args.out).write_text(result.source)
        else:
            print(result.source, end="")
        report = result.report
        removed = ", ".join(report.techniques_removed) or "none"
        print(
            f"[deob] {args.file}: {'normalized' if result.changed else 'unchanged'} "
            f"in {report.iterations} iteration(s), {report.total_rewrites} rewrites; "
            f"passes: {', '.join(report.passes_applied) or 'none'}; "
            f"techniques removed: {removed}",
            file=sys.stderr,
        )
        for note in report.notes:
            print(f"[deob]   note: {note}", file=sys.stderr)
    if result.report.error is not None:
        print(f"[deob] error: {result.report.error}", file=sys.stderr)
        return 1
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    import json

    from repro.scan import ResultStore, ScanConfig, ScanCoordinator, merge_scan, write_report

    if not args.roots and not args.merge:
        print("scan: pass roots to scan, --merge to fold the store, or both",
              file=sys.stderr)
        return 2

    stats = None
    if args.roots:
        model_path = args.model
        if model_path is None and not args.rules_only:
            detector = _load_or_train(None)
            model_path = str(Path(args.store) / "throwaway-model.pkl")
            Path(args.store).mkdir(parents=True, exist_ok=True)
            detector.save(model_path)

        def on_shard(outcome, metrics) -> None:
            done = metrics.counter("scan_shards_done_total")
            total = metrics.counter("scan_shards_total")
            print(
                f"[scan] shard {outcome.index} done "
                f"({outcome.ok} ok, {outcome.errors} errors) — {done}/{total} shards",
                file=sys.stderr,
            )

        config = ScanConfig(
            roots=args.roots,
            store=args.store,
            model_path=model_path,
            triage=args.triage,
            deob=args.deob,
            fingerprint=not args.no_fingerprint,
            n_workers=args.workers,
            shard_size=args.shard_size,
            incremental=not args.no_incremental,
            k=args.k,
            threshold=args.threshold,
            checkpoint_every=args.checkpoint_every,
            on_shard=on_shard,
        )
        coordinator = ScanCoordinator(config)
        stats = coordinator.run()
        print(f"[scan] {stats}", file=sys.stderr)
        print(
            f"[scan] skip rate {stats.skip_rate:.1%}, "
            f"{stats.files_per_sec:.1f} files/s",
            file=sys.stderr,
        )
        if args.stats_out:
            payload = {
                "units_seen": stats.units_seen,
                "unique": stats.unique,
                "duplicates": stats.duplicates,
                "skipped_store": stats.skipped_store,
                "scanned": stats.scanned,
                "ok": stats.ok,
                "errors": stats.errors,
                "triaged": stats.triaged,
                "external_refs": stats.external_refs,
                "ingest_errors": stats.ingest_errors,
                "shards": stats.shards,
                "skip_rate": stats.skip_rate,
                "wall_time": stats.wall_time,
                "error_kinds": stats.error_kinds,
            }
            Path(args.stats_out).write_text(json.dumps(payload, sort_keys=True))

    if args.merge:
        store = ResultStore(args.store)
        report = merge_scan(store)
        report_path = args.report or str(Path(args.store) / "report.json")
        write_report(report, report_path)
        print(f"[scan] merged report written to {report_path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import ServeConfig, serve_forever

    if args.model:
        registry = ModelRegistry(
            path=args.model,
            n_workers=args.workers,
            cache_size=args.cache_size,
            triage=args.triage,
        )
    else:
        registry = ModelRegistry(
            detector=_load_or_train(None),
            n_workers=args.workers,
            cache_size=args.cache_size,
            triage=args.triage,
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.queue_size,
        max_body_bytes=args.max_body_mb * 1024 * 1024,
        request_timeout=args.request_timeout,
        k=args.k,
        threshold=args.threshold,
    )
    serve_forever(registry, config)
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text(errors="replace")
    pipeline = TransformationPipeline(args.technique)
    transformed = pipeline.transform(source, random.Random(args.seed))
    labels = ", ".join(sorted(label.value for label in pipeline.labels))
    print(f"// labels: {labels}", file=sys.stderr)
    print(transformed)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all

    run_all(
        args.scale,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
        train_jobs=args.train_jobs,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """argparse entry point."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    train = commands.add_parser("train", help="train and save a detector")
    train.add_argument("--out", required=True)
    train.add_argument("--n-regular", type=int, default=60)
    train.add_argument("--estimators", type=int, default=16)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--train-jobs",
        type=int,
        default=1,
        help="forest-training process count (bit-identical to serial)",
    )
    train.set_defaults(func=_cmd_train)

    classify = commands.add_parser("classify", help="classify JavaScript files")
    classify.add_argument("files", nargs="+")
    classify.add_argument("--model", default=None)
    classify.add_argument(
        "--workers", type=int, default=1, help="feature-extraction process count"
    )
    classify.add_argument(
        "--k", type=int, default=DEFAULT_K, help="max techniques reported per file"
    )
    classify.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="minimum level-2 confidence for a reported technique",
    )
    classify.add_argument(
        "--explain",
        action="store_true",
        help="print signature-engine findings under each verdict",
    )
    classify.add_argument(
        "--rules-only",
        action="store_true",
        help="classify from the rule catalog alone (no model, implies --explain)",
    )
    classify.add_argument(
        "--jsonl",
        action="store_true",
        help="one JSON record per file on stdout (findings included)",
    )
    classify.add_argument(
        "--deob",
        action="store_true",
        help="normalize each file through the deobfuscation pipeline first "
        "and classify the normal form; a file whose run trips the work "
        "budget gets a 'budget' error instead of a verdict",
    )
    classify.set_defaults(func=_cmd_classify)

    deob = commands.add_parser(
        "deob",
        help="deobfuscate one file and print the normalized source "
        "(unchanged when a budget trips or the input nests too deep)",
    )
    deob.add_argument("file")
    deob.add_argument("--out", default=None, help="write normalized source here")
    deob.add_argument(
        "--json",
        action="store_true",
        help="print the full DeobResult (source + report) as JSON on stdout",
    )
    deob.set_defaults(func=_cmd_deob)

    scan = commands.add_parser(
        "scan",
        help="crawl-scale sharded scan: dirs/tarballs/HTML into a resumable store",
    )
    scan.add_argument(
        "roots",
        nargs="*",
        help="directories, tarballs, HTML pages, or JS files to ingest",
    )
    scan.add_argument(
        "--store",
        required=True,
        help="content-addressed result store directory (created if missing)",
    )
    scan.add_argument("--model", default=None, help="detector artifact (from `train`)")
    scan.add_argument(
        "--rules-only",
        action="store_true",
        help="model-free scan from staged rule triage alone (no training)",
    )
    scan.add_argument(
        "--workers", type=int, default=1, help="shard worker process count"
    )
    scan.add_argument(
        "--shard-size", type=int, default=256, help="units per dispatched shard"
    )
    scan.add_argument(
        "--triage",
        default="off",
        choices=("off", "prefilter"),
        help="rule-engine pre-filter when scanning with a model",
    )
    scan.add_argument(
        "--deob",
        action="store_true",
        help="normalize each unit through the deobfuscation pipeline first "
        "(a run that trips the work budget records a 'budget' error)",
    )
    scan.add_argument(
        "--no-fingerprint",
        action="store_true",
        help="skip structural fingerprints (disables wave recovery in --merge)",
    )
    scan.add_argument(
        "--no-incremental",
        action="store_true",
        help="re-scan every unit even when the store already has its hash",
    )
    scan.add_argument(
        "--checkpoint-every",
        type=int,
        default=32,
        help="units between checkpoint records in the shard logs",
    )
    scan.add_argument(
        "--merge",
        action="store_true",
        help="fold the store into the prevalence report after scanning "
        "(alone: merge-only over the existing manifest)",
    )
    scan.add_argument(
        "--report", default=None, help="merged report path (default <store>/report.json)"
    )
    scan.add_argument(
        "--stats-out", default=None, help="write run statistics JSON here"
    )
    scan.add_argument("--k", type=int, default=DEFAULT_K)
    scan.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    scan.set_defaults(func=_cmd_scan)

    serve = commands.add_parser(
        "serve", help="serve /classify over HTTP with micro-batched inference"
    )
    serve.add_argument("--model", default=None, help="detector artifact (from `train`)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377, help="0 picks a free port")
    serve.add_argument(
        "--max-batch", type=int, default=16, help="scripts per inference batch"
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=10.0,
        help="micro-batch flush deadline once the first script arrives",
    )
    serve.add_argument(
        "--queue-size", type=int, default=512, help="queued scripts before 429"
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="feature-extraction process count"
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="LRU feature-cache entries"
    )
    serve.add_argument(
        "--max-body-mb", type=int, default=16, help="request body cap (MiB)"
    )
    serve.add_argument(
        "--request-timeout", type=float, default=60.0, help="seconds before 503"
    )
    serve.add_argument("--k", type=int, default=DEFAULT_K)
    serve.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    serve.add_argument(
        "--triage",
        default="off",
        choices=("off", "prefilter"),
        help="rule-engine pre-filter: short-circuit extraction on decisive signatures",
    )
    serve.set_defaults(func=_cmd_serve)

    transform = commands.add_parser("transform", help="apply techniques to a file")
    transform.add_argument("file")
    transform.add_argument(
        "--technique",
        action="append",
        required=True,
        choices=[t.value for t in TECHNIQUES],
        help="repeatable; applied in the canonical pipeline order",
    )
    transform.add_argument("--seed", type=int, default=0)
    transform.set_defaults(func=_cmd_transform)

    experiments = commands.add_parser("experiments", help="regenerate all tables/figures")
    experiments.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    experiments.add_argument("--cache-dir", default=".cache")
    experiments.add_argument(
        "--workers", type=int, default=1, help="feature-extraction process count"
    )
    experiments.add_argument(
        "--train-jobs", type=int, default=1, help="forest-training process count"
    )
    experiments.set_defaults(func=_cmd_experiments)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
