"""Interprocedural value flow: call graph, decoder summaries, budgets,
the R013/R014 decoder rules, flow features, and flow_timeout plumbing."""

from __future__ import annotations

import json
import random

import pytest

from repro.corpus.generator import generate_corpus
from repro.features.extractor import FeatureExtractor, PairedFeatureExtractor
from repro.features.flow_features import FLOW_FEATURES, compute_flow_features
from repro.flows.graph import enhance
from repro.flows.interproc import (
    DEFAULT_BUDGET,
    InterprocBudget,
    InterprocResult,
    analyze_program,
)
from repro.flows.values import decode_table_entry, rc4
from repro.js.parser import parse
from repro.rules.engine import default_engine
from repro.transform import get_transformer
from repro.transform.global_array import GlobalArrayObfuscator

SAMPLE = """
function greet(name) {
  console.log("hello " + name);
  return "goodbye to " + name;
}
var parts = ["alpha", "beta", "gamma", "delta"];
greet(parts[0] + "!");
greet("dear " + parts[1]);
"""


def _obfuscate(encoding: str, rotate: bool = False, seed: int = 7) -> str:
    transformer = GlobalArrayObfuscator(
        encoding=encoding, rotate=rotate, decoder="selfref" if encoding != "rc4" else None
    )
    return transformer.transform(SAMPLE, random.Random(seed))


def _findings(source: str):
    return default_engine().analyze_source(source)


def _rule_ids(source: str) -> set[str]:
    return {finding.rule_id for finding in _findings(source)}


class TestDecoderSummaries:
    @pytest.mark.parametrize("encoding", ["none", "base64"])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_selfref_decoder_recovered(self, encoding, rotate):
        result = analyze_program(parse(_obfuscate(encoding, rotate)))
        decoders = result.decoders
        assert len(decoders) == 1
        decoder = decoders[0].decoder
        assert decoder.kind == ("base64" if encoding == "base64" else "index")
        assert len(decoder.chain) == 3  # decoder -> table fn -> array
        assert len(decoder.table) == 8  # every string literal in SAMPLE

    def test_rc4_decoder_recovered(self):
        result = analyze_program(parse(_obfuscate("rc4", rotate=True)))
        decoders = result.decoders
        assert len(decoders) == 1
        decoder = decoders[0].decoder
        assert decoder.kind == "rc4"
        assert decoder.key_param == 1
        assert decoder.index_param == 0

    def test_rotation_replayed_to_plaintext(self):
        """The summary's table must be post-rotation: decoding call-site
        arguments against it yields the original strings."""
        source = _obfuscate("base64", rotate=True)
        result = analyze_program(parse(source))
        decoder = result.decoders[0].decoder
        decoded = {
            decode_table_entry(decoder.kind, stored, None)
            for stored in decoder.table
        }
        assert {"alpha", "beta", "gamma", "delta"} <= decoded

    def test_table_function_summary_feeds_decoder(self):
        """Round-2 summarisation: the self-memoizing table function is
        summarised as returning the table, and the decoder consumes it."""
        result = analyze_program(parse(_obfuscate("none")))
        decoder = result.decoders[0]
        table_fn_name = decoder.decoder.chain[1]
        table_fn = next(s for s in result.summaries if s.name == table_fn_name)
        assert table_fn.returns_table
        assert table_fn.self_referencing

    def test_call_graph_counts(self):
        result = analyze_program(parse(_obfuscate("none")))
        assert result.total_calls > 0
        assert 0.0 < result.resolved_ratio <= 1.0
        decoder = result.decoders[0]
        assert decoder.call_sites >= 4  # one per extracted string occurrence

    def test_alias_through_assignment_resolves(self):
        source = """
        function pick(i) { return ["aa", "bb", "cc"][i]; }
        var alias = pick;
        alias(0); alias(1); alias(2);
        """
        result = analyze_program(parse(source))
        summary = next(s for s in result.summaries if s.name == "pick")
        assert summary.call_sites == 3

    def test_plain_code_has_no_decoders(self):
        result = analyze_program(parse(SAMPLE))
        assert result.decoders == []
        assert not result.degraded

    def test_json_round_trip(self):
        result = analyze_program(parse(_obfuscate("rc4")))
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["degraded"] is False
        assert payload["resolved_calls"] <= payload["total_calls"]
        decoders = [f for f in payload["functions"] if f.get("decoder")]
        assert len(decoders) == 1
        assert decoders[0]["decoder"]["kind"] == "rc4"


class TestValuesPrimitives:
    def test_rc4_is_an_involution(self):
        assert rc4("key", rc4("key", "payload")) == "payload"

    def test_decode_table_entry_matches_transform_encoding(self):
        import base64

        plain = "hello world"
        stored = base64.b64encode(rc4("k3y", plain).encode("latin-1")).decode("ascii")
        assert decode_table_entry("rc4", stored, "k3y") == plain
        assert decode_table_entry(
            "base64", base64.b64encode(plain.encode()).decode(), None
        ) == plain
        assert decode_table_entry("index", plain, None) == plain


class TestBudgets:
    @pytest.mark.parametrize(
        "budget",
        [
            InterprocBudget(max_nodes=10),
            InterprocBudget(max_functions=1),
        ],
        ids=["nodes", "functions"],
    )
    def test_degrade_is_byte_identical_to_empty(self, budget):
        result = analyze_program(parse(_obfuscate("rc4", rotate=True)), budget=budget)
        assert json.dumps(result.to_json(), sort_keys=True) == json.dumps(
            InterprocResult.empty().to_json(), sort_keys=True
        )

    def test_degrade_never_raises_over_corpus(self):
        starved = InterprocBudget(max_nodes=50)
        for source in generate_corpus(4, seed=88):
            result = analyze_program(parse(source), budget=starved)
            assert result.degraded

    def test_default_budget_handles_decoder_corpus(self):
        for encoding in ("none", "base64", "rc4"):
            result = analyze_program(parse(_obfuscate(encoding)), budget=DEFAULT_BUDGET)
            assert not result.degraded

    def test_enhanced_flow_timeout_flag(self):
        enhanced = enhance(_obfuscate("none"))
        assert enhanced.flow_timeout is False
        enhanced.interproc(budget=InterprocBudget(max_functions=1))
        assert enhanced.flow_timeout is True

    def test_enhanced_interproc_cached(self):
        enhanced = enhance(_obfuscate("none"))
        assert enhanced.interproc() is enhanced.interproc()


class TestDecoderRules:
    def test_r013_fires_on_selfref_corpus(self):
        for seed in range(3):
            source = GlobalArrayObfuscator(
                encoding="base64", decoder="selfref"
            ).transform(SAMPLE, random.Random(seed))
            findings = [f for f in _findings(source) if f.rule_id == "R013"]
            assert findings, f"seed {seed}"
            evidence = findings[0].decoder
            assert evidence.self_referencing
            assert len(evidence.chain) == 3
            assert evidence.kind in ("index", "base64")

    def test_r014_fires_on_rc4_corpus(self):
        for seed in range(3):
            source = GlobalArrayObfuscator(encoding="rc4").transform(
                SAMPLE, random.Random(seed)
            )
            findings = [f for f in _findings(source) if f.rule_id == "R014"]
            assert findings, f"seed {seed}"
            assert findings[0].decoder.kind == "rc4"

    def test_chain_rendered_in_finding_text(self):
        source = _obfuscate("rc4")
        finding = next(f for f in _findings(source) if f.rule_id == "R014")
        assert "[chain: " in str(finding)
        assert " → ".join(finding.decoder.chain) in str(finding)

    def test_decoder_evidence_serializes(self):
        source = _obfuscate("base64")
        finding = next(f for f in _findings(source) if f.rule_id == "R013")
        payload = json.loads(json.dumps(finding.to_json()))
        assert payload["decoder"]["chain"] == list(finding.decoder.chain)

    def test_quiet_on_clean_and_minified_slice(self):
        """Zero decoder findings on regular, minified and direct-accessor
        global-array output."""
        corpus = generate_corpus(4, seed=17)
        rng = random.Random(3)
        slice_ = (
            corpus
            + [get_transformer("minification_simple").transform(s, rng) for s in corpus[:2]]
            + [get_transformer("minification_advanced").transform(s, rng) for s in corpus[2:]]
            + [
                GlobalArrayObfuscator(encoding="base64", decoder="direct").transform(
                    SAMPLE, random.Random(5)
                )
            ]
        )
        for source in slice_:
            assert not {"R013", "R014"} & _rule_ids(source)

    def test_direct_accessor_still_covered_by_r006(self):
        source = GlobalArrayObfuscator(encoding="base64", decoder="direct").transform(
            SAMPLE, random.Random(5)
        )
        assert "R006" in _rule_ids(source)


class TestFlowFeatures:
    def test_block_registered_in_generic_features(self):
        from repro.features.extractor import GENERIC_FEATURES

        for name in FLOW_FEATURES:
            assert name in GENERIC_FEATURES

    def test_zeros_on_none_and_degraded(self):
        zeros = {name: 0.0 for name in FLOW_FEATURES}
        assert compute_flow_features(None) == zeros
        assert compute_flow_features(InterprocResult.empty()) == zeros

    def test_decoder_sample_lights_up(self):
        result = analyze_program(parse(_obfuscate("rc4")))
        features = compute_flow_features(result)
        assert features["flow_decoder_count"] == 1.0
        assert features["flow_selfref_functions"] >= 1.0
        assert 0.0 < features["flow_resolved_call_ratio"] <= 1.0
        assert features["flow_call_fanout_max"] >= features["flow_call_fanout_mean"]

    def test_extractor_vector_contains_flow_block(self):
        extractor = FeatureExtractor(level=2, ngram_dims=32)
        clean = extractor.extract(SAMPLE)
        hot = extractor.extract(_obfuscate("rc4"))
        index = extractor.feature_names.index("flow_decoder_count")
        assert clean[index] == 0.0
        assert hot[index] == 1.0

    def test_extract_pair_reports_flow_timeout(self):
        paired = PairedFeatureExtractor(
            FeatureExtractor(level=1, ngram_dims=32),
            FeatureExtractor(level=2, ngram_dims=32),
        )
        assert paired.extract_pair(SAMPLE).flow_timeout is False


class TestFlowTimeoutPlumbing:
    def test_scan_record_carries_flag_only_when_set(self):
        from repro.detector.pipeline import DetectionResult
        from repro.scan.manifest import ScanUnit
        from repro.scan.worker import build_record

        unit = ScanUnit(
            sha256="ab" * 32, source="var x;", origin="x.js", kind="file", size=10
        )
        quiet = DetectionResult(level1={}, transformed=False, techniques=[])
        slow = DetectionResult(
            level1={}, transformed=False, techniques=[], flow_timeout=True
        )
        assert "flow_timeout" not in build_record(unit, quiet, "k", None)
        assert build_record(unit, slow, "k", None)["flow_timeout"] is True

    def test_metrics_counter_folds_batch_stats(self):
        from repro.detector.batch import BatchStats
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        stats = BatchStats(files=3, ok=3)
        stats.flow_timeouts = 2
        registry.observe_batch(stats)
        assert registry.snapshot()["counters"]["flow_timeouts_total"] == 2
