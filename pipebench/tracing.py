"""Spans recorded from outside the program, around the calls into each layer.

The traced runs call the program's own entry points —
``BatchInferenceEngine.classify`` and ``ScanCoordinator.run`` — with the
layers' public functions swapped for span-recording wrappers for the
duration of a pass (:func:`traced_classify`, :func:`traced_scan`).  The
layers therefore run in exactly the order the program calls them, and
the traced verdicts must equal the untraced ones.  Rule objects are
wrapped through ``RuleEngine(rules=…)`` and deob passes through
``DeobEngine(passes=…, rules=…)``.
"""

from __future__ import annotations

import contextlib
import hashlib
from collections import Counter
from time import perf_counter_ns

from repro.deob import DeobEngine, default_passes
from repro.js.parser import Parser
from repro.rules.catalog import DEFAULT_RULES
from repro.rules.engine import TRIAGE_THRESHOLD, RuleEngine

#: span of the interprocedural analysis, wherever a caller triggers it
INTERPROC = "flows.interproc"


class Tracer:
    """In-memory spans ``[name, parent, start_ns, end_ns, request]`` plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter_ns(), 0, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, function, tally=None):
        """``function`` with each call as one span; ``tally(result)`` after."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if tally is not None:
                tally(result)
            return result

        return traced

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
        """Per span name: (total ns, self ns, net ns).

        Self time is the span's duration minus the durations of its direct
        children.  Net time is the duration minus any interprocedural
        analysis nested inside it (a decoder rule or a deob pass may
        trigger it), which belongs to the ``flows.interproc`` layer.
        """
        child = [0] * len(self.spans)
        inner = [0] * len(self.spans)
        # Children come after their parents: one reverse sweep carries
        # nested interproc time up the tree.
        for index in range(len(self.spans) - 1, -1, -1):
            name, parent, start, end, _request = self.spans[index]
            if parent >= 0:
                child[parent] += end - start
                inner[parent] += end - start if name == INTERPROC else inner[index]
        total: Counter = Counter()
        own: Counter = Counter()
        net: Counter = Counter()
        for index, (name, _parent, start, end, _request) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[index]
            net[name] += end - start - inner[index]
        return dict(total), dict(own), dict(net)


class TracedRule:
    """A catalog rule whose ``evaluate`` is one span; counts its findings."""

    def __init__(self, tracer: Tracer, rule) -> None:
        self._tracer = tracer
        self._rule = rule
        self._span = f"rules.{rule.rule_id}"
        for attribute in ("rule_id", "name", "technique", "stage", "confidence", "severity"):
            setattr(self, attribute, getattr(rule, attribute))

    def evaluate(self, ctx):
        index = self._tracer.begin(self._span)
        try:
            findings = self._rule.evaluate(ctx)
        finally:
            self._tracer.end(index)
        self._tracer.counts[f"{self._span}.hits"] += len(findings)
        return findings


class TracedRuleEngine(RuleEngine):
    """The default catalog, each rule wrapped, with analyze/triage spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(rules=[TracedRule(tracer, rule) for rule in DEFAULT_RULES])
        self.tracer = tracer

    def analyze(self, enhanced):
        with self.tracer.span("rules.analyze"):
            return super().analyze(enhanced)

    def analyze_source(self, source, data_flow=True):
        # Only the deob engine calls this (findings per fixpoint iteration).
        self.tracer.counts["deob.rules.calls"] += 1
        with self.tracer.span("deob.rules"):
            return super().analyze_source(source, data_flow=data_flow)

    def triage(self, source, threshold=TRIAGE_THRESHOLD, deep="auto"):
        with self.tracer.span("rules.triage"):
            result = super().triage(source, threshold=threshold, deep=deep)
        counts = self.tracer.counts
        counts["rules.triage.calls"] += 1
        counts[f"rules.triage.stage_{result.stage}"] += 1
        counts["rules.triage.decided"] += int(result.decided)
        return result


class TracedPass:
    """A deob pass whose ``rewrite`` is one span."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner
        self._span = f"deob.{inner.name}"
        self.name = inner.name
        self.late = inner.late
        self.techniques = inner.techniques

    def rewrite(self, program, ctx):
        index = self._tracer.begin(self._span)
        try:
            return self._inner.rewrite(program, ctx)
        finally:
            self._tracer.end(index)


class TracedDeobEngine(DeobEngine):
    """A ``DeobEngine`` whose ``run`` is one span; tallies its report."""

    def __init__(self, tracer: Tracer, rules: RuleEngine) -> None:
        super().__init__(passes=[TracedPass(tracer, p) for p in default_passes()], rules=rules)
        self.tracer = tracer

    def run(self, source: str):
        with self.tracer.span("deob.run"):
            outcome = super().run(source)
        report = outcome.report
        counts = self.tracer.counts
        counts["deob.files"] += 1
        counts["deob.iterations"] += report.iterations
        counts["deob.budget_trips"] += budget_trips(report)
        for stats in report.passes:
            counts[f"deob.{stats.name}.applications"] += stats.applications
        return outcome


def traced_parser(tracer: Tracer) -> type:
    """``Parser`` with the lexer (construction) and ``parse_program`` as spans."""

    class TracedParser(Parser):
        def __init__(self, source: str) -> None:
            index = tracer.begin("js.lexer")
            try:
                super().__init__(source)
            finally:
                tracer.end(index)
            tracer.counts["js.lexer.tokens"] += len(self.tokens)

        def parse_program(self):
            index = tracer.begin("js.parser")
            try:
                return super().parse_program()
            finally:
                tracer.end(index)

    return TracedParser


def budget_trips(report) -> int:
    """Deob budget trips in one report: a bailout plus per-pass time caps."""
    per_pass = sum("per-pass budget" in note for note in report.notes)
    return int(report.bailed is not None) + per_pass


def verdict(result) -> tuple:
    """Comparable summary of one ``DetectionResult``."""
    normal_form = None
    if result.deob is not None:
        normal_form = hashlib.sha256(result.deob.source.encode("utf-8", "replace")).hexdigest()
    if result.error is not None:
        return ("error", result.error.kind, normal_form)
    return (
        "ok",
        tuple(sorted(result.level1)),
        result.transformed,
        tuple(result.techniques),
        tuple(finding.rule_id for finding in result.findings),
        result.flow_timeout,
        normal_form,
    )


@contextlib.contextmanager
def patched(*replacements):
    """Temporarily set ``(owner, attribute, value)`` triples; always restored."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _value in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def traced_classify(tracer: Tracer, engine):
    """Patch the layers under ``engine.classify`` for the duration of a pass.

    Spans: the lexer and parser, the flat index, scopes, control and data
    flow (as ``flows.graph.enhance`` calls them), the interprocedural
    analysis wherever it is first triggered, the rule catalog (wrapped
    rules behind the default engine the feature extractor asks for), the
    ``compute_*`` feature blocks, n-grams and projection, both forest
    predicts, and — for ``deob=True`` — the deob run, its passes and its
    rule calls.
    """
    import repro.features.extractor as extractor
    import repro.flows.graph as graph
    import repro.rules.engine as rules_engine
    from repro.detector.level1 import Level1Detector
    from repro.detector.level2 import Level2Detector
    from repro.features.extractor import FeatureExtractor
    from repro.flows.graph import EnhancedAST

    counts = tracer.counts
    wrap = tracer.wrap
    rules = TracedRuleEngine(tracer)

    def tally(sizes: dict):
        def count(result) -> None:
            for key, size in sizes.items():
                counts[key] += size(result)

        return count

    enhanced_interproc = EnhancedAST.interproc

    def interproc(enhanced, budget=None):
        if budget is None and enhanced._interproc is not None:
            return enhanced_interproc(enhanced)  # cached: no analysis runs
        index = tracer.begin(INTERPROC)
        try:
            result = enhanced_interproc(enhanced, budget)
        finally:
            tracer.end(index)
        counts["flows.interproc.degraded"] += result.degraded
        return result

    def calls(_result) -> int:
        return 1

    static = [
        (extractor, name, wrap("features.static", getattr(extractor, name)))
        for name in ("compute_static_features", "compute_rule_features", "compute_flow_features")
    ]
    return patched(
        (graph, "Parser", traced_parser(tracer)),
        (graph, "build_flat_index", wrap("js.flat", graph.build_flat_index, tally({"js.parser.nodes": len}))),
        (graph, "analyze_scopes", wrap("js.scope", graph.analyze_scopes)),
        (graph, "build_control_flow", wrap("flows.cfg", graph.build_control_flow, tally({"flows.cfg.edges": len}))),
        (graph, "build_data_flow", wrap("flows.dfg", graph.build_data_flow, tally({
            "flows.dfg.edges": lambda edges: len(edges or ()),
            "flows.dfg.timeouts": lambda edges: edges is None,
        }))),
        (EnhancedAST, "interproc", interproc),
        (rules_engine, "default_engine", lambda: rules),
        *static,
        (FeatureExtractor, "ngram_block", wrap("features.ngrams", FeatureExtractor.ngram_block)),
        (FeatureExtractor, "project", wrap("features.project", FeatureExtractor.project)),
        (Level1Detector, "predict_proba_features", wrap(
            "detector.level1", Level1Detector.predict_proba_features, tally({"detector.level1.calls": calls})
        )),
        (Level2Detector, "predict_proba_features", wrap(
            "detector.level2", Level2Detector.predict_proba_features, tally({"detector.level2.calls": calls})
        )),
        (engine, "_deob_engine", TracedDeobEngine(tracer, rules)),
    )


def traced_scan(tracer: Tracer):
    """Patch the scan steps of a serial, rules-only ``ScanCoordinator`` run.

    Spans: ingestion (``iter_ingest``), store probes and puts, the shard
    engine's ``classify`` (triage with wrapped rules inside), structural
    fingerprints (with their lexer/parser spans), and record building.
    """
    import repro.analysis.waves as waves
    import repro.js.lexer as lexer
    import repro.rules.context as context
    import repro.scan.coordinator as coordinator
    import repro.scan.worker as worker
    from repro.scan.store import ResultStore

    rules = TracedRuleEngine(tracer)

    def iter_ingest(*args, **kwargs):
        events = coordinator_iter_ingest(*args, **kwargs)
        while True:
            index = tracer.begin("scan.manifest")
            try:
                event = next(events)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield event

    TracedParser = traced_parser(tracer)

    def parse(source: str):
        return TracedParser(source).parse_program()

    def tokenize(source: str):
        index = tracer.begin("js.lexer")
        try:
            tokens = lexer_tokenize(source)
        finally:
            tracer.end(index)
        tracer.counts["js.lexer.tokens"] += len(tokens)
        return tokens

    def ast_unit_sequence(program):
        sequence = waves_ast_unit_sequence(program)
        tracer.counts["js.parser.nodes"] += len(sequence)
        return sequence

    class TracedShardWorker(coordinator.ShardWorker):
        def __init__(self, config) -> None:
            super().__init__(config)
            self.engine.rules = rules
            self.engine.classify = tracer.wrap("scan.classify", self.engine.classify)

    coordinator_iter_ingest = coordinator.iter_ingest
    lexer_tokenize = lexer.tokenize
    waves_ast_unit_sequence = waves.ast_unit_sequence
    return patched(
        (coordinator, "iter_ingest", iter_ingest),
        (coordinator, "ShardWorker", TracedShardWorker),
        (ResultStore, "has", tracer.wrap("scan.store.has", ResultStore.has)),
        (ResultStore, "put", tracer.wrap("scan.store.put", ResultStore.put)),
        (waves, "structural_fingerprint", tracer.wrap("scan.fingerprint", waves.structural_fingerprint)),
        (waves, "parse", parse),
        (waves, "ast_unit_sequence", ast_unit_sequence),
        (worker, "build_record", tracer.wrap("scan.build_record", worker.build_record)),
        (context, "Parser", TracedParser),
        (context, "analyze_scopes", tracer.wrap("js.scope", context.analyze_scopes)),
        (context, "build_control_flow", tracer.wrap("flows.cfg", context.build_control_flow)),
        (lexer, "tokenize", tokenize),
    )
