"""Static signature engine: rule catalog, taint walk, staged triage.

The round-trip suite is the core contract: for every monitored technique,
the matching ``repro.transform`` generator produces a sample that fires a
rule labelled with that technique (with locations and evidence), and the
untransformed source fires nothing.
"""

from __future__ import annotations

import json
import random
import re
import time

import pytest

from repro.detector.batch import BatchInferenceEngine
from repro.features.extractor import GENERIC_FEATURES, FeatureExtractor
from repro.features.rule_features import RULE_FEATURES, compute_rule_features
from repro.rules import (
    DEFAULT_RULES,
    STAGE_AST,
    STAGE_TEXT,
    STAGE_TOKENS,
    RuleEngine,
    max_confidence_by_technique,
)
from repro.transform.base import TECHNIQUES, Technique, get_transformer
from repro.transform.global_array import GlobalArrayObfuscator

# Exercises every rule family: strings (R004/R005/R006), an `undefined`
# reference and boolean literals (R002), functions and branches.
RULES_SAMPLE = """
var config = { retries: 3, endpoint: "https://api.example.com/v1", debug: false };
var pending = undefined;

function fetchData(path, callback) {
  var url = config.endpoint + "/" + path;
  var attempts = 0;
  while (attempts < config.retries) {
    try {
      var result = httpGet(url);
      callback(null, JSON.parse(result));
      return;
    } catch (err) {
      attempts += 1;
    }
  }
  callback(new Error("failed to fetch " + path), null);
}

function processItems(items) {
  var total = 0;
  for (var i = 0; i < items.length; i++) {
    if (items[i].active) {
      total += items[i].value;
    } else {
      total -= 1;
    }
  }
  return total;
}

fetchData("items", function (err, data) {
  if (err) { console.error("request error", err.message); return; }
  var score = processItems(data.items);
  console.log("final score: " + score);
});
"""


@pytest.fixture(scope="module")
def engine() -> RuleEngine:
    return RuleEngine()


@pytest.fixture(scope="module")
def clean_findings(engine: RuleEngine):
    return engine.analyze_source(RULES_SAMPLE)


class TestCatalogShape:
    def test_every_monitored_technique_has_a_rule(self):
        covered = {rule.technique for rule in DEFAULT_RULES}
        assert covered == {technique.value for technique in TECHNIQUES}

    def test_at_least_eight_rules(self):
        assert len(DEFAULT_RULES) >= 8

    def test_rule_identities_are_unique_and_well_formed(self):
        ids = [rule.rule_id for rule in DEFAULT_RULES]
        assert len(set(ids)) == len(ids)
        for rule in DEFAULT_RULES:
            assert re.fullmatch(r"R\d{3}", rule.rule_id)
            assert rule.stage in (STAGE_TEXT, STAGE_TOKENS, STAGE_AST)
            assert 0.0 < rule.confidence <= 1.0


class TestRoundTrip:
    """Transformer output fires the technique's rule; clean source does not."""

    def test_untransformed_source_is_clean(self, clean_findings):
        assert clean_findings == []

    @pytest.mark.parametrize(
        "technique", [technique.value for technique in TECHNIQUES]
    )
    def test_technique_round_trip(self, engine, clean_findings, technique):
        transformer = get_transformer(technique)
        transformed = transformer.transform(RULES_SAMPLE, random.Random(7))
        findings = engine.analyze_source(transformed)
        fired = {finding.technique for finding in findings}
        assert technique in fired, f"no rule fired for {technique}: {fired}"
        assert technique not in {finding.technique for finding in clean_findings}
        # The findings that evidence the technique carry locations + evidence.
        for finding in findings:
            if finding.technique != technique:
                continue
            assert finding.locations, f"{finding.rule_id} has no locations"
            assert finding.locations[0].line >= 1
            assert finding.message
            assert finding.evidence

    def test_rotated_string_array_fires_rotation_rule(self, engine):
        transformer = GlobalArrayObfuscator(encoding="none", rotate=True)
        transformed = transformer.transform(RULES_SAMPLE, random.Random(11))
        fired = {finding.rule_id for finding in engine.analyze_source(transformed)}
        assert "R006" in fired  # array + accessor
        assert "R007" in fired  # push(shift()) rotation loop

    def test_base64_string_array_records_encoding(self, engine):
        transformer = GlobalArrayObfuscator(encoding="base64", rotate=False)
        transformed = transformer.transform(RULES_SAMPLE, random.Random(11))
        findings = [
            finding
            for finding in engine.analyze_source(transformed)
            if finding.rule_id == "R006"
        ]
        assert findings and findings[0].evidence["encoded"] is True

    def test_findings_serialize_to_json(self, engine):
        transformed = get_transformer("global_array").transform(
            RULES_SAMPLE, random.Random(7)
        )
        for finding in engine.analyze_source(transformed):
            payload = json.loads(json.dumps(finding.to_json()))
            assert payload["rule_id"] == finding.rule_id
            assert payload["technique"] in {t.value for t in TECHNIQUES}
            assert 0.0 < payload["confidence"] <= 1.0
            for location in payload["locations"]:
                assert location["line"] >= 1
                assert location["end"] >= location["start"]
            assert finding.rule_id in str(finding)


class TestDynamicCodeTaint:
    """R005: string-building values flowing into eval/Function sinks."""

    def test_tainted_variable_reaching_eval(self, engine):
        source = """
        var payload = "ale" + "rt(" + "1)";
        eval(payload);
        """
        findings = [
            finding
            for finding in engine.analyze_source(source)
            if finding.rule_id == "R005"
        ]
        assert findings
        assert findings[0].evidence["sink"] == "eval"
        assert findings[0].evidence["variable"] == "payload"
        assert findings[0].evidence["flow"] == "data_flow"

    def test_taint_propagates_through_assignments(self, engine):
        source = """
        var built = "deb" + "ugg" + "er;";
        var alias = built;
        eval(alias);
        """
        findings = [
            finding
            for finding in engine.analyze_source(source)
            if finding.rule_id == "R005"
        ]
        assert findings and findings[0].evidence["variable"] == "alias"

    def test_direct_rebuild_expression_in_sink(self, engine):
        source = 'eval("a" + "lert" + "(2)");'
        findings = [
            finding
            for finding in engine.analyze_source(source)
            if finding.rule_id == "R005"
        ]
        assert findings and findings[0].evidence["flow"] == "direct"

    def test_scope_fallback_when_data_flow_unavailable(self, engine):
        source = """
        var payload = "ale" + "rt(" + "1)";
        eval(payload);
        """
        findings = [
            finding
            for finding in engine.analyze_source(source, data_flow=False)
            if finding.rule_id == "R005"
        ]
        assert findings and findings[0].evidence["flow"] == "scope"

    def test_plain_string_into_eval_is_not_taint(self, engine):
        source = """
        var name = "just a plain string";
        eval(name);
        """
        assert not [
            finding
            for finding in engine.analyze_source(source)
            if finding.rule_id == "R005"
        ]

    def test_function_callback_timers_are_benign(self, engine):
        source = """
        var greeting = "hel" + "lo " + "there";
        setTimeout(function () { console.log(greeting); }, 100);
        """
        assert not [
            finding
            for finding in engine.analyze_source(source)
            if finding.rule_id == "R005"
        ]


class TestContextLayers:
    def test_parsed_context_builds_the_flat_index(self):
        from repro.js.visitor import count_nodes
        from repro.rules.context import RuleContext

        enhanced = RuleContext(source=RULES_SAMPLE).enhanced
        assert enhanced.flat is not None
        assert len(enhanced.flat) == count_nodes(enhanced.program)
        assert enhanced.flat.nodes[0] is enhanced.program


class TestStagedTriage:
    def test_minified_decides_at_text_stage_without_parsing(
        self, engine, monkeypatch
    ):
        import repro.js.parser as parser_mod

        minified = get_transformer("minification_simple").transform(
            RULES_SAMPLE, random.Random(1)
        )

        def boom(self):
            raise AssertionError("text-stage triage must not parse")

        monkeypatch.setattr(parser_mod.Parser, "parse_program", boom)
        result = engine.triage(minified)
        assert result.decided
        assert result.stage == STAGE_TEXT
        assert "minification_simple" in result.techniques

    def test_hex_renamed_decides_at_token_stage(self, engine):
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        result = engine.triage(renamed)
        assert result.decided
        assert result.stage in (STAGE_TEXT, STAGE_TOKENS)
        assert "identifier_obfuscation" in result.techniques

    def test_regular_source_stays_undecided_without_a_parse(
        self, engine, monkeypatch
    ):
        import repro.js.parser as parser_mod

        def boom(self):
            raise AssertionError("unambiguous regular file must not parse")

        monkeypatch.setattr(parser_mod.Parser, "parse_program", boom)
        result = engine.triage(RULES_SAMPLE)
        assert not result.decided
        assert result.findings == []

    def test_prefilter_mode_never_parses(self, engine, monkeypatch):
        import repro.js.parser as parser_mod

        flattened = get_transformer("control_flow_flattening").transform(
            RULES_SAMPLE, random.Random(3)
        )

        def boom(self):
            raise AssertionError("deep=False must not parse")

        monkeypatch.setattr(parser_mod.Parser, "parse_program", boom)
        engine.triage(flattened, deep=False)

    def test_ambiguous_tokens_escalate_to_ast_stage(self, engine):
        # A dispatcher without hex-renamed identifiers: the token stage sees
        # the switch+split combo (ambiguous) but no token rule decides, so
        # triage must parse and let the AST-stage dispatcher rule fire.
        source = """
        var steps = "2|0|1".split("|"), i = 0;
        while (true) {
          switch (steps[i++]) {
            case "0": doFirst(); continue;
            case "1": doSecond(); continue;
            case "2": doThird(); continue;
          }
          break;
        }
        """
        result = engine.triage(source)
        assert result.stage == STAGE_AST
        assert result.decided
        assert "control_flow_flattening" in result.techniques

    def test_parse_error_is_reported_when_ast_stage_is_needed(self, engine):
        result = engine.triage("eval(broken(;")
        assert result.error is not None
        assert result.error.kind == "parse"


class TestBatchTriage:
    def test_model_free_engine_requires_only_mode(self):
        with pytest.raises(ValueError):
            BatchInferenceEngine(None, triage="off")
        with pytest.raises(ValueError):
            BatchInferenceEngine(None, triage="bogus")

    def test_rules_only_classification_without_a_model(self):
        minified = get_transformer("minification_simple").transform(
            RULES_SAMPLE, random.Random(1)
        )
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        engine = BatchInferenceEngine(None, triage="only")
        batch = engine.classify([RULES_SAMPLE, minified, renamed])
        regular, mini, hexed = batch.results
        assert all(result.triaged for result in batch.results)
        assert not regular.transformed
        assert mini.level1 == {"minified"}
        assert hexed.level1 == {"obfuscated"}
        assert hexed.techniques[0][0] == "identifier_obfuscation"
        assert batch.stats.triage_hits == 2
        assert batch.stats.rule_hits  # per-rule counters populated
        assert batch.stats.ok == 3

    def test_rules_only_isolates_parse_failures(self):
        engine = BatchInferenceEngine(None, triage="only")
        batch = engine.classify(["eval(broken(;", RULES_SAMPLE])
        assert batch.results[0].error is not None
        assert batch.results[0].error.kind == "parse"
        assert batch.results[1].ok
        assert batch.stats.errors == 1

    def test_prefilter_short_circuits_obvious_files(self, trained_detector):
        minified = get_transformer("minification_simple").transform(
            RULES_SAMPLE, random.Random(1)
        )
        engine = BatchInferenceEngine(trained_detector, triage="prefilter")
        batch = engine.classify([minified, RULES_SAMPLE])
        assert batch.results[0].triaged
        assert "minified" in batch.results[0].level1
        assert not batch.results[1].triaged
        assert batch.stats.triage_hits == 1
        assert 0 < batch.stats.triage_rate < 1

    def test_full_pipeline_attaches_findings(self, trained_detector):
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        engine = BatchInferenceEngine(trained_detector, triage="off")
        batch = engine.classify([renamed])
        result = batch.results[0]
        assert not result.triaged
        assert any(finding.rule_id == "R003" for finding in result.findings)
        assert batch.stats.rule_hits.get("R003", 0) >= 1
        assert "R003" in str(result)


class TestRuleFeatures:
    def test_block_lives_in_both_vector_spaces(self):
        assert set(RULE_FEATURES) <= set(GENERIC_FEATURES)

    def test_compute_rule_features_folds_findings(self, engine):
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        findings = engine.analyze_source(renamed)
        values = compute_rule_features(findings)
        assert values["rule_findings_total"] == float(len(findings))
        assert values["rule_conf_identifier_obfuscation"] > 0.0
        assert values["rule_max_confidence"] >= values[
            "rule_conf_identifier_obfuscation"
        ]
        clean = compute_rule_features([])
        assert set(clean) == set(RULE_FEATURES)
        assert all(value == 0.0 for value in clean.values())

    def test_extracted_vector_carries_rule_evidence(self, engine):
        extractor = FeatureExtractor(level=1, ngram_dims=16)
        names = extractor.feature_names
        index = names.index("rule_conf_identifier_obfuscation")
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        assert extractor.extract(renamed)[index] > 0.0
        assert extractor.extract(RULES_SAMPLE)[index] == 0.0

    def test_max_confidence_by_technique(self, engine):
        renamed = get_transformer("identifier_obfuscation").transform(
            RULES_SAMPLE, random.Random(2)
        )
        findings = engine.analyze_source(renamed)
        best = max_confidence_by_technique(findings)
        assert best[Technique.IDENTIFIER_OBFUSCATION.value] == max(
            finding.confidence
            for finding in findings
            if finding.technique == Technique.IDENTIFIER_OBFUSCATION.value
        )


class TestLinearWork:
    @staticmethod
    def _best_evaluate_s(rule, terms: int) -> float:
        from repro.rules.context import RuleContext

        chain = "+".join(f"'p{i}'" for i in range(terms)) + ";"
        ctx = RuleContext(source=chain, data_flow=False)
        ctx.nodes("BinaryExpression")
        ctx.tokens
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rule.evaluate(ctx)
            best = min(best, time.perf_counter() - start)
        return best

    def test_string_rebuild_is_linear_in_chain_length(self):
        """R004 settles the literal-concat predicate bottom-up once per
        node; re-walking each ``+`` subtree made a 4k-term chain ~5x the
        cost of a 2k-term one."""
        from repro.rules.catalog import StringRebuildRule

        rule = StringRebuildRule()
        ratio = self._best_evaluate_s(rule, 4000) / self._best_evaluate_s(rule, 2000)
        assert ratio <= 2.5

    @staticmethod
    def _evaluate_lines(rule, terms: int) -> int:
        """Interpreter line events inside ``repro/rules`` during one
        ``evaluate``: counted work, which no host load can move."""
        import sys
        from pathlib import Path

        import repro.rules
        from repro.rules.context import RuleContext

        rules_dir = str(Path(repro.rules.__file__).parent)
        chain = "+".join(f"'p{i}'" for i in range(terms)) + ";"
        ctx = RuleContext(source=chain, data_flow=False)
        ctx.nodes("BinaryExpression")
        ctx.tokens
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local

        def trace(frame, event, arg):
            return local if frame.f_code.co_filename.startswith(rules_dir) else None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            rule.evaluate(ctx)
        finally:
            sys.settrace(previous)
        return lines

    def test_string_rebuild_work_is_linear_in_chain_length(self):
        """The counted twin of the timing test above: R004's work per
        ``evaluate`` at most 2.2x when the chain doubles."""
        from repro.rules.catalog import StringRebuildRule

        rule = StringRebuildRule()
        small = self._evaluate_lines(rule, 2000)
        assert small > 2000  # the walk is traced, not skipped
        assert self._evaluate_lines(rule, 4000) <= 2.2 * small

    def test_string_rebuild_counts_only_pure_literal_chains(self, engine):
        source = "\n".join(
            [
                "a = 'x' + 'y' + 'z';",
                "b = ('x' + 'y') + ('z' + 'w');",
                "c = 'x' + 1 + 'y';",
                "d = 'x' + ('y' + e);",
                "f = 'x' + 'y';",
            ]
        )
        from repro.rules.catalog import StringRebuildRule
        from repro.rules.context import RuleContext

        findings = StringRebuildRule().evaluate(RuleContext(source=source, data_flow=False))
        assert len(findings) == 1
        assert findings[0].evidence["literal_concat"] == 3
