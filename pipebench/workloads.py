"""The four workloads, untraced (end-to-end metrics) and traced (per-layer).

Each workload is one process acting as a single closed-loop caller: the
next call starts only when the previous one returned.  No threads, no
worker pools — on a two-core host a pool would measure the scheduler.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from gauge import SpeedGauge
from inputs import FAMILIES, PATHOLOGICAL_SIZES, Crawl, Input
from tracing import Tracer, budget_trips, traced_classify, traced_scan, verdict


class Checks:
    """Output checks; any failure makes the run incorrect (non-zero exit)."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition and len(self.failures) < 20:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    tracer: Tracer | None = None


# -- classify workloads (classify-mix, deob-obfuscated, pathological) -----------


@dataclass
class FileRecord:
    item: Input
    #: (start_ns, end_ns) of every call
    calls: list[tuple[int, int]] = field(default_factory=list)
    #: every call's time at the reference speed, set by :func:`settle`
    times_ms: list[float] = field(default_factory=list)
    verdicts: list[tuple] = field(default_factory=list)
    #: (DetectionResult, BatchStats) of the first call; None if it raised
    first: tuple | None = None

    def raw_median_ms(self) -> float:
        return statistics.median(end - start for start, end in self.calls) / 1e6


def settle(records: list[FileRecord], gauge: SpeedGauge) -> None:
    """Scale every call to the reference speed, from samples on both sides."""
    gauge.sample()
    for record in records:
        record.times_ms = [gauge.scaled_ms(start, end) for start, end in record.calls]


def _classify_once(engine, item: Input, checks: Checks, gauge: SpeedGauge):
    """One timed ``classify([src])``; an escaping exception is one failed op."""
    gauge.sample()
    start = perf_counter_ns()
    try:
        batch = engine.classify([item.source], deob=item.deob)
    except Exception as error:  # noqa: BLE001 - counted, never fatal
        return (start, perf_counter_ns()), ("raise", type(error).__name__), None
    span = (start, perf_counter_ns())
    checks.expect(len(batch.results) == 1, f"{item.name}: {len(batch.results)} results")
    checks.expect(batch.stats.cache_hits == 0, f"{item.name}: cache hit")
    result = batch.results[0]
    return span, verdict(result), (result, batch.stats)


def _ok(outcome: tuple) -> bool:
    return outcome[0] == "ok"


def classify_passes(
    engine, inputs: list[Input], seconds: float, checks: Checks, trips: Counter, gauge: SpeedGauge
) -> list[FileRecord]:
    """Whole passes while another fits in ``seconds`` (three at least, so
    every file's median has a middle), then single calls, cheapest files
    first, while one still fits.  After each pass, an eighth of its time
    again goes to extra calls, cheapest files first.  A file that failed
    is not called again: it misses every limit whatever follows.

    The extra calls give the many cheap files enough samples for a steady
    median even where a few expensive files fill most of a pass; the
    expensive ones still get one call per pass.
    """
    records = [FileRecord(item) for item in inputs]

    def call(record: FileRecord) -> None:
        span, outcome, detail = _classify_once(engine, record.item, checks, gauge)
        record.calls.append(span)
        record.verdicts.append(outcome)
        if len(record.verdicts) == 1:
            record.first = detail
        if detail is not None:
            result, stats = detail
            trips["dfg_timeouts"] += stats.df_timeouts
            trips["flow_timeouts"] += stats.flow_timeouts
            if result.deob is not None:
                trips["deob_budget_trips"] += budget_trips(result.deob.report)

    def failed(record: FileRecord) -> bool:
        return not all(_ok(v) for v in record.verdicts)

    def extra_calls(until: float) -> None:
        fitted = True
        while fitted:
            fitted = False
            for record in sorted(records, key=FileRecord.raw_median_ms):
                if not failed(record) and perf_counter() + record.raw_median_ms() / 1000 <= until:
                    call(record)
                    fitted = True

    start = perf_counter()
    deadline = start + seconds
    passes = 0
    while passes < 3 or perf_counter() + (perf_counter() - start) / passes <= deadline:
        pass_start = perf_counter()
        for record in records:
            if not failed(record):
                call(record)
        extra_calls(perf_counter() + (perf_counter() - pass_start) / 8)
        passes += 1
    extra_calls(deadline)
    settle(records, gauge)
    return records


def _unstable(record: FileRecord) -> bool:
    return len(set(record.verdicts)) > 1


def classify_metrics(records: list[FileRecord], deob_check=None) -> Outcome:
    outcome = Outcome()
    latencies = []
    ok_files = 0
    busy_ms = failed_ms = 0.0
    correct = 0
    for record in records:
        ok_runs = [_ok(v) for v in record.verdicts]
        outcome.attempted += len(ok_runs)
        outcome.failed += ok_runs.count(False)
        failed_file = not all(ok_runs) or _unstable(record)
        if failed_file:
            failed_ms += statistics.median(record.times_ms)
        else:
            ok_files += 1
            busy_ms += statistics.median(record.times_ms)
        if _unstable(record) and all(ok_runs):
            outcome.failed += 1  # verdict or normal form changed between passes
        # A failed file misses every latency limit.
        latencies.append(math.inf if failed_file else statistics.median(record.times_ms))
        first = record.verdicts[0]
        if _ok(first) and first[2] == record.item.transformed:
            correct += 1
    n = len(records)
    tail = tail_percentile(n)
    # One closed-loop pass over the files that got verdicts, at each file's
    # median cost: steady under noise and independent of how many extra
    # samples the cheap files got.  A failed file is called until it first
    # fails, so its time (in the details) has no median to be steady on.
    outcome.metrics["files_per_s"] = (ok_files / (busy_ms / 1000), "1/s")
    outcome.notes["failed_files_ms"] = failed_ms
    outcome.metrics["latency_p50_ms"] = (nearest_rank(latencies, 50), "ms")
    outcome.metrics["latency_tail_ms"] = (nearest_rank(latencies, tail), "ms")
    outcome.metrics["accuracy"] = (correct / n, "ratio")
    outcome.notes["latency"] = {
        "files": n,
        "calls_per_file_min": min(len(r.times_ms) for r in records),
        "calls_per_file_max": max(len(r.times_ms) for r in records),
        "tail_percentile": tail,
        "failed_files": sum(math.isinf(x) for x in latencies),
    }
    # Where one pass at median cost goes, by input category (name prefix).
    by_category: dict[str, list] = {}
    for record in records:
        files_ms = by_category.setdefault(record.item.name.split("/")[0], [0, 0.0])
        files_ms[0] += 1
        files_ms[1] += statistics.median(record.times_ms)
    outcome.notes["pass_share"] = {
        category: {"files": files, "share": round(ms / (busy_ms + failed_ms), 4)}
        for category, (files, ms) in by_category.items()
    }
    outcome.notes["failures"] = sorted(
        {f"{r.item.name}: {v[1]}" for r in records for v in r.verdicts if not _ok(v)}
        | {f"{r.item.name}: unstable verdict" for r in records if _unstable(r)}
    )
    if any(r.item.deob and r.item.techniques for r in records):
        outcome.notes["removal_rate"] = removal_rate(records)
    if deob_check is not None:
        bad = [r.item.name for r in records if r.first and r.first[0].deob is not None
               and not deob_check(r.first[0].deob.source)]
        outcome.failed += len(bad)
        if bad:
            outcome.notes["normal_form_violations"] = bad
    return outcome


def removal_rate(records: list[FileRecord]) -> float:
    """Share of planted techniques the deob report lists as removed."""
    planted = removed = 0
    for record in records:
        labels = {t.value for t in record.item.techniques}
        planted += len(labels)
        if record.first is not None and record.first[0].deob is not None:
            removed += len(labels & set(record.first[0].deob.report.techniques_removed))
    return removed / planted if planted else 0.0


def scaling(records: list[FileRecord]) -> dict[str, float]:
    """Per family: time for 2n elements over time for n, at the largest n
    whose two files both got verdicts (0 when no such pair exists)."""
    by_name = {r.item.name: r for r in records}
    ratios = {}
    for family in FAMILIES:
        ratios[family] = 0.0
        for small, large in reversed(list(zip(PATHOLOGICAL_SIZES, PATHOLOGICAL_SIZES[1:]))):
            pair = [by_name[f"{family}/{n}.js"] for n in (small, large)]
            if all(_ok(v) for r in pair for v in r.verdicts):
                ratios[family] = statistics.median(pair[1].times_ms) / statistics.median(pair[0].times_ms)
                break
    return ratios


def normal_form_check(source: str) -> bool:
    from repro.js.codegen import generate
    from repro.js.parser import parse

    try:
        return generate(parse(source)) == source
    except (SyntaxError, ValueError, RecursionError):
        return False


def run_classify(engine, inputs: list[Input], seconds: float, workload: str) -> tuple[Outcome, Checks]:
    checks = Checks()
    trips = Counter(dfg_timeouts=0, flow_timeouts=0, deob_budget_trips=0)
    gauge = SpeedGauge()
    records = classify_passes(engine, inputs, seconds, checks, trips, gauge)
    deob_check = normal_form_check if workload == "deob-obfuscated" else None
    outcome = classify_metrics(records, deob_check)
    outcome.notes["budget_trips"] = dict(trips)  # summed over every call
    outcome.notes["speed"] = gauge.summary()
    outcome.notes["raw_latency_p50_ms"] = nearest_rank(
        [r.raw_median_ms() for r in records], 50)
    if workload == "pathological":
        outcome.notes["scaling_ratio"] = scaling(records)
    return outcome, checks


def run_classify_traced(engine, inputs: list[Input], seconds: float, workload: str) -> tuple[Outcome, Checks]:
    """Alternate untraced and traced passes; verdicts must agree file by file."""
    checks = Checks()
    tracer = Tracer()
    gauge = SpeedGauge()
    records = [FileRecord(item) for item in inputs]
    traced_spans = []
    traced_passes = traced_calls = traced_failed = 0
    start = perf_counter()
    while traced_passes < 1 or perf_counter() + (perf_counter() - start) / traced_passes <= start + seconds:
        for record in records:
            span, outcome, detail = _classify_once(engine, record.item, checks, gauge)
            record.calls.append(span)
            record.verdicts.append(outcome)
            if traced_passes == 0:
                record.first = detail
        with traced_classify(tracer, engine):
            for record in records:
                tracer.request += 1
                span, outcome, _detail = _classify_once(engine, record.item, checks, gauge)
                traced_spans.append(span)
                traced_calls += 1
                traced_failed += not _ok(outcome)
                untraced = record.verdicts[-1]
                field_index = next((i for i, (a, b) in enumerate(zip(outcome, untraced)) if a != b), 0)
                checks.expect(
                    outcome == untraced,
                    f"{record.item.name}: verdict field {field_index} traced "
                    f"{outcome[field_index:field_index + 1]} != untraced {untraced[field_index:field_index + 1]}",
                )
        traced_passes += 1
    settle(records, gauge)
    outcome = classify_metrics(records)
    outcome.attempted += traced_calls
    outcome.failed += traced_failed
    layers = layer_metrics(tracer, traced_passes, files=len(inputs))
    untraced_ms = sum(sum(record.times_ms) for record in records)
    traced_ms = sum(gauge.scaled_ms(*span) for span in traced_spans)
    layers["trace.overhead_share"] = (traced_ms / untraced_ms - 1, "ratio")
    if workload == "deob-obfuscated":
        layers["deob.removal_rate"] = (removal_rate(records), "ratio")
    if workload == "pathological":
        for family, ratio in scaling(records).items():
            layers[f"scaling.{family}.ratio"] = (ratio, "ratio")
    outcome.metrics = layers
    outcome.notes["traced_passes"] = traced_passes
    outcome.tracer = tracer
    return outcome, checks


# -- per-layer metric table ------------------------------------------------------------

RULE_IDS = [f"R{i:03d}" for i in range(1, 15)]
DEOB_PASSES = (
    "eval-unwrap", "jsfuck-decode", "string-array-inline", "unflatten",
    "constant-fold", "dead-code", "trap-removal", "unminify", "rename",
)


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) for every per-layer metric, in report order."""
    names = [
        ("js.lexer.ms_per_file", "ms"), ("js.lexer.tokens_per_ms", "1/ms"),
        ("js.parser.ms_per_file", "ms"), ("js.parser.nodes_per_file", "count"),
        ("js.flat.ms_per_file", "ms"), ("js.scope.ms_per_file", "ms"),
        ("flows.cfg.ms_per_file", "ms"), ("flows.cfg.edges_per_file", "count"),
        ("flows.dfg.ms_per_file", "ms"), ("flows.dfg.edges_per_file", "count"),
        ("flows.dfg.timeouts", "count"),
        ("flows.interproc.ms_per_file", "ms"), ("flows.interproc.degraded", "count"),
        ("rules.analyze.ms_per_file", "ms"),
    ]
    names += [(f"rules.{rule}.ms", "ms") for rule in RULE_IDS]
    names += [(f"rules.{rule}.hits", "count") for rule in RULE_IDS]
    names += [
        ("rules.triage.ms_per_file", "ms"), ("rules.triage.decided_share", "ratio"),
        ("rules.triage.stage_text_share", "ratio"), ("rules.triage.stage_tokens_share", "ratio"),
        ("rules.triage.stage_ast_share", "ratio"),
        ("features.static.ms_per_file", "ms"), ("features.ngrams.ms_per_file", "ms"),
        ("features.project.ms_per_file", "ms"),
        ("detector.level1.ms_per_call", "ms"), ("detector.level2.ms_per_call", "ms"),
        ("detector.level2_share", "ratio"),
        ("deob.run.ms_per_file", "ms"),
    ]
    names += [(f"deob.{name}.ms", "ms") for name in DEOB_PASSES]
    names += [(f"deob.{name}.applications", "count") for name in DEOB_PASSES]
    names += [
        ("deob.rules.ms_per_file", "ms"), ("deob.rules.calls_per_file", "count"),
        ("deob.other.ms_per_file", "ms"), ("deob.iterations_per_file", "count"),
        ("deob.budget_trips", "count"), ("deob.removal_rate", "ratio"),
        ("scan.manifest.ms_per_unit", "ms"), ("scan.fingerprint.ms_per_unit", "ms"),
        ("scan.classify.ms_per_unit", "ms"), ("scan.store.has_ms_per_unit", "ms"),
        ("scan.store.put_ms_per_unit", "ms"), ("scan.merge.ms", "ms"),
        ("scan.dedupe_share", "ratio"), ("scan.skip_rate", "ratio"),
    ]
    names += [(f"scaling.{family}.ratio", "ratio") for family in FAMILIES]
    names += [("trace.overhead_share", "ratio")]
    return names


def layer_metrics(tracer: Tracer, passes: int, files: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the spans: ``*_per_file`` per traced file,
    ``*.ms``/counts per traced pass over the inputs.  Times are span
    totals net of any interprocedural analysis nested inside (that is
    ``flows.interproc``'s, wherever it was triggered), except
    ``deob.run``, the whole run, and ``deob.other``, the self time of
    ``deob.run`` — codegen, reparse and report bookkeeping."""
    total, own, net = tracer.totals()
    counts = tracer.counts
    files_seen = max(1, files * passes)

    def ms(name: str) -> float:
        return net.get(name, 0) / 1e6

    def per_file(name: str) -> float:
        return ms(name) / files_seen

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    deob_files = max(1, counts["deob.files"])
    m: dict[str, float] = {
        "js.lexer.ms_per_file": per_file("js.lexer"),
        "js.lexer.tokens_per_ms": ratio(counts["js.lexer.tokens"], ms("js.lexer")),
        "js.parser.ms_per_file": per_file("js.parser"),
        "js.parser.nodes_per_file": counts["js.parser.nodes"] / files_seen,
        "js.flat.ms_per_file": per_file("js.flat"),
        "js.scope.ms_per_file": per_file("js.scope"),
        "flows.cfg.ms_per_file": per_file("flows.cfg"),
        "flows.cfg.edges_per_file": counts["flows.cfg.edges"] / files_seen,
        "flows.dfg.ms_per_file": per_file("flows.dfg"),
        "flows.dfg.edges_per_file": counts["flows.dfg.edges"] / files_seen,
        "flows.dfg.timeouts": counts["flows.dfg.timeouts"] / passes,
        "flows.interproc.ms_per_file": per_file("flows.interproc"),
        "flows.interproc.degraded": counts["flows.interproc.degraded"] / passes,
        "rules.analyze.ms_per_file": per_file("rules.analyze"),
        "rules.triage.ms_per_file": per_file("rules.triage"),
        "rules.triage.decided_share": ratio(counts["rules.triage.decided"], counts["rules.triage.calls"]),
        "features.static.ms_per_file": per_file("features.static"),
        "features.ngrams.ms_per_file": per_file("features.ngrams"),
        "features.project.ms_per_file": per_file("features.project"),
        "detector.level1.ms_per_call": ratio(ms("detector.level1"), counts["detector.level1.calls"]),
        "detector.level2.ms_per_call": ratio(ms("detector.level2"), counts["detector.level2.calls"]),
        "detector.level2_share": ratio(counts["detector.level2.calls"], counts["detector.level1.calls"]),
        "deob.run.ms_per_file": total.get("deob.run", 0) / 1e6 / deob_files,
        "deob.rules.ms_per_file": ms("deob.rules") / deob_files,
        "deob.rules.calls_per_file": counts["deob.rules.calls"] / deob_files,
        "deob.other.ms_per_file": own.get("deob.run", 0) / 1e6 / deob_files,
        "deob.iterations_per_file": counts["deob.iterations"] / deob_files,
        "deob.budget_trips": counts["deob.budget_trips"] / passes,
    }
    for stage in ("text", "tokens", "ast"):
        m[f"rules.triage.stage_{stage}_share"] = ratio(
            counts[f"rules.triage.stage_{stage}"], counts["rules.triage.calls"]
        )
    for rule in RULE_IDS:
        m[f"rules.{rule}.ms"] = ms(f"rules.{rule}") / passes
        m[f"rules.{rule}.hits"] = counts[f"rules.{rule}.hits"] / passes
    for name in DEOB_PASSES:
        m[f"deob.{name}.ms"] = ms(f"deob.{name}") / passes
        m[f"deob.{name}.applications"] = counts[f"deob.{name}.applications"] / passes
    units = dict(per_layer_names())
    return {name: (value, units[name]) for name, value in m.items()}


# -- crawl-scan ---------------------------------------------------------------------------


def _scan(crawl_dir: Path, store: Path, gauge: SpeedGauge):
    from repro.scan import ScanConfig, ScanCoordinator

    config = ScanConfig(roots=[str(crawl_dir)], store=str(store), model_path=None, n_workers=1)
    gauge.sample()
    start = perf_counter_ns()
    stats = ScanCoordinator(config).run()
    return (start, perf_counter_ns()), stats


def _ms(span: tuple[int, int]) -> float:
    return (span[1] - span[0]) / 1e6


def _merge(store: Path, tracer: Tracer | None = None) -> str:
    from repro.scan import ResultStore, merge_scan

    with tracer.span("scan.merge") if tracer else contextlib.nullcontext():
        report = merge_scan(ResultStore(store))
    return json.dumps(report, sort_keys=True)


@dataclass
class ScanCycle:
    #: (start_ns, end_ns) of the cold scan and of every rescan
    cold: tuple[int, int]
    cold_request: int
    unique: int
    rescans: list[tuple[int, int]]
    records: dict[str, dict]


def scan_cycle(crawl: Crawl, crawl_dir: Path, store: Path, rescan_seconds: float, checks: Checks,
               outcome: Outcome, gauge: SpeedGauge, tracer: Tracer | None = None) -> ScanCycle:
    """Cold scan into a fresh store, merge, rescan repeatedly, merge again."""
    from repro.scan import ResultStore

    if tracer is not None:
        tracer.request += 1
    cold_request = tracer.request if tracer is not None else 0
    cold, stats = _scan(crawl_dir, store, gauge)
    checks.expect(stats.units_seen == crawl.units, f"units_seen {stats.units_seen} != {crawl.units}")
    checks.expect(stats.unique == crawl.unique, f"unique {stats.unique} != {crawl.unique}")
    checks.expect(stats.external_refs == crawl.external_refs, "external refs differ")
    checks.expect(stats.ingest_errors == 0, f"{stats.ingest_errors} ingest errors")
    checks.expect(stats.scanned == crawl.unique, f"cold scan classified {stats.scanned}")
    outcome.attempted += stats.scanned
    outcome.failed += stats.errors
    if tracer is not None:
        tracer.request += 1  # rescans and merges are not part of the cold scan
    cold_report = _merge(store, tracer)
    rescans = []
    start = perf_counter()
    while not rescans or perf_counter() - start < rescan_seconds:
        span, again = _scan(crawl_dir, store, gauge)
        rescans.append(span)
        outcome.attempted += again.unique
        checks.expect(again.skip_rate == 1.0 and again.scanned == 0,
                      f"rescan skip rate {again.skip_rate}")
        if tracer is not None:
            tracer.counts["scan.rescan.skipped"] += again.skipped_store
            tracer.counts["scan.rescan.unique"] += again.unique
    checks.expect(_merge(store, tracer) == cold_report, "merged report changed after rescans")
    result_store = ResultStore(store)
    records = {sha: result_store.get(sha) for sha in crawl.labels}
    if tracer is not None:
        tracer.counts["scan.units_seen"] += stats.units_seen
        tracer.counts["scan.duplicates"] += stats.duplicates
        tracer.counts["scan.scanned"] += stats.scanned
    return ScanCycle(cold, cold_request, stats.unique, rescans, records)


def scan_accuracy(crawl: Crawl, records: dict[str, dict]) -> float:
    correct = sum(
        1 for sha, label in crawl.labels.items()
        if records[sha] is not None and records[sha].get("ok")
        and bool(records[sha].get("transformed")) == label
    )
    return correct / len(crawl.labels)


def run_scan(crawl: Crawl, work: Path, seconds: float) -> tuple[Outcome, Checks]:
    checks = Checks()
    outcome = Outcome()
    crawl_dir = work / "crawl"
    crawl.write(crawl_dir)
    gauge = SpeedGauge()
    cycles: list[ScanCycle] = []
    start = perf_counter()
    while len(cycles) < 2 or perf_counter() + (perf_counter() - start) / len(cycles) <= start + seconds:
        store = work / f"store-{len(cycles)}"
        cycles.append(scan_cycle(crawl, crawl_dir, store, seconds / 16, checks, outcome, gauge))
        shutil.rmtree(store)
    gauge.sample()
    first = cycles[0].records
    for cycle in cycles[1:]:
        checks.expect(cycle.records == first, "store records differ between cold scans")
    rescans = [gauge.scaled_ms(*span) for cycle in cycles for span in cycle.rescans]
    tail = tail_percentile(len(rescans))
    rates = [cycle.unique / (gauge.scaled_ms(*cycle.cold) / 1000) for cycle in cycles]
    outcome.metrics["files_per_s"] = (statistics.median(rates), "1/s")
    outcome.metrics["latency_p50_ms"] = (nearest_rank(rescans, 50), "ms")
    outcome.metrics["latency_tail_ms"] = (nearest_rank(rescans, tail), "ms")
    outcome.metrics["accuracy"] = (scan_accuracy(crawl, first), "ratio")
    outcome.notes["latency"] = {"rescans": len(rescans), "tail_percentile": tail}
    outcome.notes["rescan_units_per_s"] = crawl.units / (statistics.median(rescans) / 1000)
    outcome.notes["cold_scans"] = len(cycles)
    outcome.notes["speed"] = gauge.summary()
    outcome.notes["raw_files_per_s"] = statistics.median(cycle.unique / (_ms(cycle.cold) / 1000) for cycle in cycles)
    outcome.notes["crawl"] = {"units": crawl.units, "unique": crawl.unique, "external_refs": crawl.external_refs}
    return outcome, checks


def run_scan_traced(crawl: Crawl, work: Path, seconds: float) -> tuple[Outcome, Checks]:
    """Alternate untraced and traced cycles; the stores must hold equal records."""
    checks = Checks()
    outcome = Outcome()
    crawl_dir = work / "crawl"
    crawl.write(crawl_dir)
    tracer = Tracer()
    gauge = SpeedGauge()
    pairs: list[tuple[ScanCycle, ScanCycle]] = []
    cycles = 0
    cold_requests = set()
    start = perf_counter()
    while cycles < 1 or perf_counter() + (perf_counter() - start) / cycles <= start + seconds:
        store = work / f"store-{cycles}-plain"
        plain = scan_cycle(crawl, crawl_dir, store, seconds / 16, checks, outcome, gauge)
        shutil.rmtree(store)
        store = work / f"store-{cycles}-traced"
        with traced_scan(tracer):
            traced = scan_cycle(crawl, crawl_dir, store, seconds / 16, checks, outcome, gauge, tracer)
        shutil.rmtree(store)
        cold_requests.add(traced.cold_request)
        checks.expect(traced.records == plain.records, "traced scan records differ from untraced")
        pairs.append((plain, traced))
        cycles += 1
    gauge.sample()

    def cycle_ms(cycle: ScanCycle) -> float:
        return gauge.scaled_ms(*cycle.cold) + statistics.median(gauge.scaled_ms(*span) for span in cycle.rescans)

    untraced_ms = sum(cycle_ms(plain) for plain, _traced in pairs)
    traced_ms = sum(cycle_ms(traced) for _plain, traced in pairs)
    counts = tracer.counts
    scanned = max(1, counts["scan.scanned"])
    layers = layer_metrics(tracer, cycles, files=counts["scan.scanned"] // cycles)
    total, _own, _net = tracer.totals()
    # Per-unit scan steps are taken over the cold scans' units only.
    cold = {name: 0 for name in ("scan.manifest", "scan.store.has", "scan.store.put",
                                 "scan.fingerprint", "scan.classify")}
    for name, _parent, begin, end, request in tracer.spans:
        if name in cold and request in cold_requests:
            cold[name] += end - begin
    layers.update({
        "scan.manifest.ms_per_unit": (cold["scan.manifest"] / 1e6 / max(1, counts["scan.units_seen"]), "ms"),
        "scan.fingerprint.ms_per_unit": (cold["scan.fingerprint"] / 1e6 / scanned, "ms"),
        "scan.classify.ms_per_unit": (cold["scan.classify"] / 1e6 / scanned, "ms"),
        "scan.store.has_ms_per_unit": (cold["scan.store.has"] / 1e6 / scanned, "ms"),
        "scan.store.put_ms_per_unit": (cold["scan.store.put"] / 1e6 / scanned, "ms"),
        "scan.merge.ms": (total.get("scan.merge", 0) / 1e6 / (2 * cycles), "ms"),
        "scan.dedupe_share": (counts["scan.duplicates"] / max(1, counts["scan.units_seen"]), "ratio"),
        "scan.skip_rate": (counts["scan.rescan.skipped"] / max(1, counts["scan.rescan.unique"]), "ratio"),
        "trace.overhead_share": (traced_ms / untraced_ms - 1, "ratio"),
    })
    outcome.metrics = layers
    outcome.notes["traced_cycles"] = cycles
    outcome.tracer = tracer
    return outcome, checks
