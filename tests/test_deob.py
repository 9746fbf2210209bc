"""Deobfuscation engine: per-technique round-trips, fixpoint behaviour,
safety budgets, pass purity, and the batch/CLI integration surface."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.corpus.generator import generate_corpus
from repro.deob import (
    REMOVAL_THRESHOLD,
    Budget,
    DeobEngine,
    default_passes,
    deobfuscate,
)
from repro.deob.base import DeobPass, PassContext, PassResult
from repro.deob.constant_fold import ConstantFoldPass
from repro.deob.jsfuck import JsfuckDecodePass
from repro.deob.score import round_trip, rules_classifier
from repro.detector.batch import BatchInferenceEngine
from repro.js.ast_nodes import to_dict
from repro.js.codegen import generate
from repro.js.lexer import Lexer
from repro.js.parser import parse
from repro.js.visitor import walk
from repro.rules.context import RuleContext
from repro.rules.engine import RuleEngine, default_engine
from repro.rules.findings import max_confidence_by_technique
from repro.transform import TransformationPipeline
from repro.transform.base import TECHNIQUES, Technique, get_transformer

TECHNIQUE_IDS = [technique.value for technique in TECHNIQUES]


@pytest.fixture(scope="module")
def deob_source() -> str:
    """One corpus script large enough for every signature rule to fire."""
    return generate_corpus(1, seed=7, min_bytes=1200)[0]


@pytest.fixture(scope="module")
def engine() -> DeobEngine:
    return DeobEngine()


def _confidence(source: str, technique: Technique) -> float:
    return rules_classifier()(source).get(technique.value, 0.0)


class TestTechniqueRoundTrips:
    """transform → deob → re-classify for every monitored technique."""

    @pytest.mark.parametrize("technique", list(TECHNIQUES), ids=TECHNIQUE_IDS)
    def test_technique_removed(self, technique, deob_source, engine):
        transformed = get_transformer(technique).transform(
            deob_source, random.Random(99)
        )
        assert _confidence(transformed, technique) >= REMOVAL_THRESHOLD, (
            "precondition: the transformed sample must be evidenced"
        )
        result = engine.run(transformed)
        assert result.report.error is None
        assert technique.value in result.report.techniques_removed
        assert _confidence(result.source, technique) < REMOVAL_THRESHOLD

    @pytest.mark.parametrize("technique", list(TECHNIQUES), ids=TECHNIQUE_IDS)
    def test_normal_form_is_stable(self, technique, deob_source, engine):
        """The emitted source re-parses, and regenerating is bit-identical."""
        transformed = get_transformer(technique).transform(
            deob_source, random.Random(99)
        )
        normalized = engine.run(transformed).source
        assert generate(parse(normalized)) == normalized

    def test_score_module_round_trip(self, deob_source):
        report = round_trip(
            [deob_source],
            techniques=[Technique.GLOBAL_ARRAY, Technique.DEAD_CODE_INJECTION],
            seed=5,
        )
        entry = report.techniques["global_array"]
        assert entry.samples == 1
        assert entry.removal_rate == 1.0
        assert entry.reparse_rate == 1.0
        assert entry.mean_lift > 0
        payload = report.to_json()
        assert payload["mean_removal_rate"] == 1.0
        assert set(payload["techniques"]) == {"global_array", "dead_code_injection"}


class TestFixpoint:
    def test_stacked_techniques_terminate_and_normalize(self, deob_source, engine):
        """Pass interaction: three stacked techniques converge to fixpoint."""
        pipeline = TransformationPipeline(
            [
                "dead_code_injection",
                "string_obfuscation",
                "identifier_obfuscation",
            ]
        )
        transformed = pipeline.transform(deob_source, random.Random(31))
        result = engine.run(transformed)
        assert result.report.error is None
        assert result.report.bailed is None
        assert result.report.iterations <= engine.budget.max_iterations
        assert result.report.techniques_removed  # at least one layer peeled
        assert generate(parse(result.source)) == result.source

    def test_idempotent_on_normal_form(self, deob_source, engine):
        """Running deob on its own output is a no-op."""
        transformed = get_transformer(Technique.GLOBAL_ARRAY).transform(
            deob_source, random.Random(99)
        )
        normalized = engine.run(transformed).source
        again = engine.run(normalized)
        assert again.source == normalized
        assert not again.changed

    def test_plain_code_passes_through(self, engine):
        source = "function add(a, b) {\n  return a + b;\n}\n"
        result = engine.run(source)
        assert result.report.error is None
        assert result.report.techniques_removed == []


class TestBudgets:
    def test_node_budget_leaves_input_unchanged(self, deob_source):
        result = DeobEngine(budget=Budget(max_nodes=5)).run(deob_source)
        assert result.report.bailed == "node-budget"
        assert result.source == deob_source
        assert not result.changed

    def test_work_budget_runs_no_passes(self, deob_source):
        """The work budget keeps the input rather than emit a normal form
        that depends on how far the run got."""
        result = DeobEngine(budget=Budget(max_work=0)).run(deob_source)
        assert result.report.bailed == "work-budget"
        assert result.report.passes_applied == []
        assert result.source == deob_source
        assert not result.changed

    def test_work_budget_trip_is_a_budget_error_under_batch_deob(
        self, deob_source, trained_detector
    ):
        engine = trained_detector.batch_engine(cache_size=0)
        engine._deob_engine = DeobEngine(budget=Budget(max_work=0), rules=engine.rules)
        batch = engine.classify([deob_source], deob=True)
        assert batch[0].error is not None and batch[0].error.kind == "budget"
        assert batch[0].deob.report.bailed == "work-budget"
        assert batch[0].deob.source == deob_source
        assert batch.stats.errors == 1

    def test_work_budget_counts_every_state(self, deob_source):
        """The budget sums the nodes of every analysed state: a run that
        needs a second state trips a budget its input alone fits in."""
        transformed = get_transformer(Technique.GLOBAL_ARRAY).transform(
            deob_source, random.Random(99)
        )
        full = DeobEngine().run(transformed)
        assert full.changed and full.report.iterations >= 2
        nodes = full.report.nodes_before
        tight = DeobEngine(budget=Budget(max_work=nodes)).run(transformed)
        assert tight.report.bailed == "work-budget"
        assert tight.source == transformed
        assert tight.report.nodes_before == nodes

    def test_eval_depth_budget_blocks_unwrap(self, deob_source, engine):
        transformed = get_transformer(Technique.NO_ALPHANUMERIC).transform(
            deob_source, random.Random(99)
        )
        blocked = DeobEngine(budget=Budget(max_eval_depth=0)).run(transformed)
        assert blocked.report.eval_unwraps == 0
        assert "no_alphanumeric" not in blocked.report.techniques_removed
        # sanity: with the default depth the same input does unwrap
        assert engine.run(transformed).report.eval_unwraps >= 1

    def test_iteration_budget_reports_bail(self, deob_source):
        transformed = get_transformer(Technique.GLOBAL_ARRAY).transform(
            deob_source, random.Random(99)
        )
        result = DeobEngine(budget=Budget(max_iterations=1)).run(transformed)
        assert result.report.bailed == "iteration-budget"
        assert result.report.error is None


#: Deep enough that codegen's recursive expression walk exhausts the stack.
DEEP_MEMBER_CHAIN = "a" + ".b" * 20_000 + ";"
LONG_SUM = "x = " + "+".join(["1"] * 30_000) + ";"


class TestAdversarialInputs:
    @pytest.mark.parametrize("source", [DEEP_MEMBER_CHAIN, LONG_SUM], ids=["member", "sum"])
    def test_recursion_in_codegen_returns_input(self, source, engine):
        result = engine.run(source)
        assert result.report.bailed == "recursion"
        assert result.report.error is None
        assert result.source == source
        assert not result.changed

    def test_recursion_is_a_per_file_error_under_batch_deob(
        self, deob_source, trained_detector
    ):
        engine = trained_detector.batch_engine(cache_size=0)
        batch = engine.classify([deob_source, DEEP_MEMBER_CHAIN], deob=True)
        assert batch[0].ok
        assert batch[1].error is not None and batch[1].error.kind == "recursion"
        assert batch[1].deob.report.bailed == "recursion"
        assert batch[1].deob.source == DEEP_MEMBER_CHAIN
        assert batch.stats.errors == 1

    def test_unparseable_input_is_returned_verbatim(self, engine):
        broken = "function ((( not javascript"
        result = engine.run(broken)
        assert result.report.error is not None
        assert result.source == broken
        assert not result.changed

    def test_malformed_eval_payload_left_in_place(self, engine):
        source = 'eval("function ((( {");\nvar keep = 1;\n'
        result = engine.run(source)
        assert result.report.error is None
        assert any("did not re-parse" in note for note in result.report.notes)
        assert "eval" in result.source
        assert "keep" in result.source

    def test_empty_and_trivial_inputs(self, engine):
        for source in ("", ";", "// only a comment\n"):
            result = engine.run(source)
            assert result.report.error is None


class _Log:
    """Ordered record of pass and rule calls in one run."""

    def __init__(self) -> None:
        self.events: list[str] = []

    def after_raise(self) -> list[str]:
        return self.events[self.events.index("raise") + 1 :]


class _SpyPass(DeobPass):
    """Wraps a pass and logs each call (optionally raising instead)."""

    def __init__(self, log: _Log, inner: DeobPass | None = None, raises: bool = False):
        self.log = log
        self.inner = inner
        self.raises = raises
        self.name = inner.name if inner is not None else ("raiser" if raises else "spy")

    def rewrite(self, program, ctx):
        if self.raises:
            self.log.events.append("raise")
            raise RecursionError("maximum recursion depth exceeded")
        self.log.events.append(f"pass:{self.name}")
        if self.inner is None:
            return PassResult(program=program)
        return self.inner.rewrite(program, ctx)


class _RecursingRules(RuleEngine):
    """A rule engine whose ``analyze_source`` runs out of stack on call N."""

    def __init__(self, log: _Log, fail_on_call: int) -> None:
        super().__init__()
        self.log = log
        self.fail_on_call = fail_on_call
        self.calls = 0

    def analyze_source(self, source, data_flow=True):
        self.calls += 1
        if self.calls == self.fail_on_call:
            self.log.events.append("raise")
            raise RecursionError("maximum recursion depth exceeded")
        self.log.events.append("rules")
        return super().analyze_source(source, data_flow=data_flow)


#: Constant folding rewrites it, so a run that ignored a failure would
#: emit a changed normal form.
FOLDABLE = "var total = 1 + 2;\nconsole.log(total * 3);\n"


class TestRecursionPolicy:
    """A ``RecursionError`` anywhere ends the run with the input verbatim."""

    def test_pass_recursion_ends_the_run(self):
        log = _Log()
        passes = [
            _SpyPass(log, ConstantFoldPass()),
            _SpyPass(log, raises=True),
            _SpyPass(log),
        ]
        result = DeobEngine(passes=passes).run(FOLDABLE)
        assert result.report.bailed == "recursion"
        assert result.source == FOLDABLE
        assert not result.changed
        assert result.report.passes_applied == []
        assert log.events[:2] == ["pass:constant-fold", "raise"]
        assert log.after_raise() == []

    @pytest.mark.parametrize("fail_on_call", [1, 2], ids=["before", "re-run"])
    def test_rule_rerun_recursion_ends_the_run(self, fail_on_call):
        """Calls: 1 scores the input and feeds iteration one (one analysis
        per program state), 2 re-runs the rules on the folded source for
        iteration two."""
        log = _Log()
        rules = _RecursingRules(log, fail_on_call)
        engine = DeobEngine(passes=[_SpyPass(log, ConstantFoldPass())], rules=rules)
        result = engine.run(FOLDABLE)
        assert result.report.bailed == "recursion"
        assert result.source == FOLDABLE
        assert not result.changed
        assert result.report.passes_applied == []
        assert rules.calls == fail_on_call
        assert log.after_raise() == []


class _FaultyPass(DeobPass):
    """A pass with a bug: it raises on any file that mentions ``boom``."""

    name = "faulty"

    def rewrite(self, program, ctx):
        if "boom" in ctx.source:
            raise AttributeError("'NoneType' object has no attribute 'type'")
        return PassResult(program)


class TestFailOpen:
    """Any other exception in a pass or codegen also returns the input."""

    def test_pass_fault_returns_the_input(self):
        source = "var boom = 1 + 2;\n"
        result = DeobEngine(passes=[ConstantFoldPass(), _FaultyPass()]).run(source)
        assert result.source == source
        assert not result.changed
        assert result.report.bailed == "internal"
        assert result.report.error == "AttributeError: 'NoneType' object has no attribute 'type'"
        assert result.report.passes_applied == []

    def test_one_fault_is_one_internal_error_in_a_serial_batch(
        self, deob_source, trained_detector
    ):
        engine = trained_detector.batch_engine(cache_size=0)
        assert engine.n_workers == 1
        engine._deob_engine = DeobEngine(
            passes=default_passes() + [_FaultyPass()], rules=engine.rules
        )
        batch = engine.classify([deob_source, "var boom = 1;\n", FOLDABLE], deob=True)
        assert len(batch.results) == 3
        assert batch[0].ok and batch[2].ok
        assert batch[1].error is not None and batch[1].error.kind == "internal"
        assert "AttributeError" in batch[1].error.message
        assert batch[1].deob.source == "var boom = 1;\n"
        assert batch.stats.errors == 1


def _packed(source: str) -> str:
    from repro.transform.packer import pack

    return pack(source, random.Random(1))


#: Valid scripts whose rewrite leaves an empty single-statement slot or
#: puts a payload's statements in one.
SINGLE_SLOT_SHAPES = {
    "if-in-if": "if (a) if (false) x();",
    "if-in-while": "while (a) if (0) x();",
    "if-in-label": "label: if (false) x();",
    "trap-call-in-if": (
        'function _0xg(){ (function(){})["constructor"]("debugger")(); }\nif (c) _0xg();'
    ),
    "packer-in-if": "if (c) " + _packed("var greeting = 'hi'; console.log(greeting + greeting);"),
}


class TestSingleStatementSlots:
    @pytest.mark.parametrize(
        "source", SINGLE_SLOT_SHAPES.values(), ids=SINGLE_SLOT_SHAPES.keys()
    )
    def test_rewrite_gives_a_normal_form(self, source, engine):
        result = engine.run(source)
        assert result.changed
        assert result.report.bailed is None and result.report.error is None
        assert generate(parse(result.source)) == result.source

    def test_slots_keep_a_statement(self, engine):
        assert engine.run("if (a) if (false) x();").source == "if (a) {}\n"
        # An `else` with nothing left goes.
        cleared = engine.run("if (a) x(); else if (false) y();").source
        assert cleared == generate(parse("if (a) x();"))
        unpacked = engine.run(SINGLE_SLOT_SHAPES["packer-in-if"]).source
        assert unpacked.startswith("if (c) {\n") and "console.log" in unpacked

    def test_batch_gives_one_result_per_file(self):
        engine = BatchInferenceEngine(None, triage="only")
        batch = engine.classify(["var a = 1;", "if (a) if (false) x();"], deob=True)
        assert len(batch.results) == 2
        assert all(result.error is None for result in batch.results)
        assert batch[1].deob.source == "if (a) {}\n"


class TestRenameSharedNodes:
    """The parser shares one identifier node between two slots in `{x}`,
    `import {x}` and `export {x}`; renaming the binding keeps the other."""

    def test_shorthand_property_keeps_its_key(self, engine):
        out = engine.run("var _0xabc = 1;\nvar o = {_0xabc};\nf(o);\n").source
        assert "{_0xabc: var1}" in out

    def test_import_and_export_keep_the_module_facing_name(self, engine):
        out = engine.run("import {_0xa1} from 'm';\nexport {_0xa1};\n_0xa1();\n").source
        assert "import {_0xa1 as mod1} from 'm';" in out
        assert "export {mod1 as _0xa1};" in out


class TestAstralStrings:
    """Each string method's output folds back to the same JS string."""

    SOURCE = 'var s = "hi \U0001f600 there";\n'

    @pytest.mark.parametrize("method", ["split", "hex", "charcode", "reverse"])
    def test_method_folds_back(self, method, engine):
        from repro.transform.string_obfuscation import StringObfuscator

        transformed = StringObfuscator(methods=(method,)).transform(
            self.SOURCE, random.Random(1)
        )
        assert "reverse" not in transformed  # JS reverses UTF-16 units
        value = parse(engine.run(transformed).source).body[0].declarations[0].init.value
        # As UTF-16, the unit sequence a JavaScript string is.
        utf16 = "hi \U0001f600 there".encode("utf-16-le")
        assert value.encode("utf-16-le", "surrogatepass") == utf16


class _RecordingRules(RuleEngine):
    """A rule engine that records the source of every ``analyze_source``."""

    def __init__(self) -> None:
        super().__init__()
        self.sources: list[str] = []

    def analyze_source(self, source, data_flow=True):
        self.sources.append(source.source if isinstance(source, RuleContext) else source)
        return super().analyze_source(source, data_flow=data_flow)


def _jsfuck(payload: str) -> str:
    """One JSFuck expression statement (no trailing semicolon)."""
    encoder = get_transformer(Technique.NO_ALPHANUMERIC)
    return encoder.transform(payload, random.Random(1)).rstrip(";\n")


@pytest.fixture(scope="module")
def jsfuck_pair() -> tuple[str, str]:
    return _jsfuck("var a=1;"), _jsfuck("var b=2;")


class TestOneAnalysisPerState:
    """Each distinct program state is analysed once per run, and the
    reports read as if every state had been analysed afresh."""

    @pytest.mark.parametrize("sample", ["foldable", "jsfuck", "string-array"])
    def test_analyze_source_once_per_state(self, sample, deob_source, jsfuck_pair):
        source = {
            "foldable": FOLDABLE,
            "jsfuck": jsfuck_pair[0] + ";\n",
            "string-array": get_transformer(Technique.GLOBAL_ARRAY).transform(
                deob_source, random.Random(99)
            ),
        }[sample]
        rules = _RecordingRules()
        result = DeobEngine(rules=rules).run(source)
        report = result.report
        assert result.changed and report.bailed is None
        assert len(rules.sources) == len(set(rules.sources))
        assert rules.sources[0] == source
        assert rules.sources[-1] == result.source
        # One analysis per iteration; the final state is one of them
        # unless iteration one already changed nothing.
        assert len(rules.sources) == report.iterations

        fresh = default_engine()

        def confidences(text):
            return max_confidence_by_technique(fresh.analyze_source(text, data_flow=False))

        assert report.techniques_before == confidences(source)
        assert report.techniques_after == confidences(result.source)

    def test_unchanged_input_is_analysed_once(self):
        source = "function add(a, b) {\n  return a + b;\n}\n"
        rules = _RecordingRules()
        result = DeobEngine(rules=rules).run(source)
        assert not result.changed
        assert rules.sources == [source]


class TestSingleLex:
    """A rule analysis lexes its source once, parse included."""

    @pytest.fixture
    def scans(self, monkeypatch):
        counter = {"scans": 0}
        scan_all = Lexer.scan_all

        def counted(lexer):
            counter["scans"] += 1
            return scan_all(lexer)

        monkeypatch.setattr(Lexer, "scan_all", counted)
        return counter

    def test_analyze_source_lexes_once(self, scans, deob_source):
        default_engine().analyze_source(deob_source, data_flow=False)
        assert scans["scans"] == 1

    def test_ast_stage_triage_lexes_once(self, scans):
        source = 'var run = eval;\nrun("1");\n'
        result = default_engine().triage(source, deep=True)
        assert result.stage == "ast"
        assert scans["scans"] == 1


class TestJsfuckSplice:
    """JSFuck statements decode in place at any depth, and the decoded
    tree is built fresh.  The expected normal forms are those of the
    earlier whole-tree rewrite, except for the lone statement slot, where
    that rewrite raised instead of decoding."""

    def test_inside_function_body(self, jsfuck_pair):
        source = "function wrap() {\n  " + jsfuck_pair[0] + ";\n  return 1;\n}\nwrap();\n"
        result = DeobEngine().run(source)
        assert result.source == "function wrap() {\n  var a = 1;\n  return 1;\n}\nwrap();\n"
        assert result.report.eval_unwraps == 1

    def test_inside_if_block(self, jsfuck_pair):
        source = "if (ready) {\n  " + jsfuck_pair[0] + ";\n}\n"
        result = DeobEngine().run(source)
        assert result.source == "if (ready) {\n  var a = 1;\n}\n"
        assert result.report.eval_unwraps == 1

    def test_lone_statement_slot_becomes_a_block(self, jsfuck_pair):
        source = "if (ready) " + jsfuck_pair[0] + ";\n"
        result = DeobEngine().run(source)
        assert result.source == "if (ready) {\n  var a = 1;\n}\n"

    def test_allowance_cuts_off_in_document_order(self, jsfuck_pair):
        first, second = jsfuck_pair
        source = first + ";\n" + second + ";\n"
        result = DeobEngine(budget=Budget(max_eval_depth=1)).run(source)
        assert result.report.eval_unwraps == 1
        assert result.source == "var a = 1;\n" + generate(parse(second + ";"))
        digest = hashlib.sha256(result.source.encode()).hexdigest()
        assert digest == "05b99df321bb2af408f73444fc0cf950d42bc757b45c74ffc98684842a6158e0"

    def test_output_shares_no_node_with_input(self, jsfuck_pair):
        source = "function wrap() {\n  " + jsfuck_pair[0] + ";\n  return 1;\n}\nwrap();\n"
        program = parse(source)
        result = JsfuckDecodePass().rewrite(program, PassContext(source=source))
        assert result.changed
        assert not {id(node) for node in walk(program)} & {
            id(node) for node in walk(result.program)
        }


class TestPassPurity:
    """Passes must never mutate the input AST (`scripts/lint.sh` gate)."""

    @pytest.mark.parametrize("technique", list(TECHNIQUES), ids=TECHNIQUE_IDS)
    def test_passes_return_fresh_trees(self, technique, sample_source):
        transformed = get_transformer(technique).transform(
            sample_source, random.Random(3)
        )
        program = parse(transformed)
        snapshot = to_dict(program)
        findings = default_engine().analyze_source(transformed, data_flow=False)
        ctx = PassContext(source=transformed, findings=findings)
        for deob_pass in default_passes():
            deob_pass.rewrite(program, ctx)
            assert to_dict(program) == snapshot, (
                f"{deob_pass.name} mutated its input AST"
            )

    @pytest.mark.parametrize("technique", list(TECHNIQUES), ids=TECHNIQUE_IDS)
    def test_passes_leave_the_analysed_tree_alone(self, technique, sample_source):
        """The engine hands passes the tree the rules parsed and annotated."""
        transformed = get_transformer(technique).transform(
            sample_source, random.Random(3)
        )
        analysis = RuleContext(source=transformed, data_flow=False)
        findings = default_engine().analyze_source(analysis)
        program = analysis.program
        snapshot = to_dict(program)
        ctx = PassContext(source=transformed, findings=findings, analysis=analysis)
        for deob_pass in default_passes():
            deob_pass.rewrite(program, ctx)
            assert to_dict(program) == snapshot, (
                f"{deob_pass.name} mutated its input AST"
            )


def _pinned_samples() -> dict[str, str]:
    """The ten technique samples, two stacked pairs and one JSFuck sample."""
    base = generate_corpus(1, seed=7, min_bytes=1200)[0]
    samples = {
        technique.value: get_transformer(technique).transform(base, random.Random(99))
        for technique in TECHNIQUES
    }
    for pair in (
        ("dead_code_injection", "string_obfuscation"),
        ("global_array", "minification_advanced"),
    ):
        samples["+".join(pair)] = TransformationPipeline(list(pair)).transform(
            base, random.Random(31)
        )
    samples["jsfuck"] = _jsfuck("var a=1;") + ";\n"
    return samples


def _deob_outputs() -> dict[str, list]:
    """Normal form and report (minus its wall time) of every pinned sample."""
    engine = DeobEngine()
    outputs = {}
    for name, source in _pinned_samples().items():
        result = engine.run(source)
        report = result.report.to_json()
        report.pop("wall_time_ms")
        outputs[name] = [result.source, report]
    return outputs


#: sha256 of each pinned sample's normal form: how the passes share the
#: rules' analysis of a state must not move these bytes.
NORMAL_FORM_SHA256 = {
    "control_flow_flattening": "25fefb71ae3bd51c3dad0d6de3dcea47668d12f990449d2ffbbb5c4bc4c3bc78",
    "dead_code_injection": "2c18b888443f54c62b8e5e0431bcdb62dd8ee1607bee150401827e315e3af62e",
    "dead_code_injection+string_obfuscation": "2039616f8dc41001164b8fc821d448d416a0c6e2300e4025d88121f4ea7f1eb2",
    "debug_protection": "dbe11b30d8ef211d99517ca585522c31ae5d15ea749a3dd0da746106d25c0ba9",
    "global_array": "bbc3c87778e9cd38e250c822631d47629a716eeda9225cb64bfc01dd00e86383",
    "global_array+minification_advanced": "428f30c04f48f5bb28d979e34f208cfa33d53b1c83ecae12a0a8669fa8919e67",
    "identifier_obfuscation": "bbc3c87778e9cd38e250c822631d47629a716eeda9225cb64bfc01dd00e86383",
    "jsfuck": "5747ff2cf11cc6d2125b728abfb646c946ea8d14beb66b7fed9a64f38a1fefb1",
    "minification_advanced": "428f30c04f48f5bb28d979e34f208cfa33d53b1c83ecae12a0a8669fa8919e67",
    "minification_simple": "bbc3c87778e9cd38e250c822631d47629a716eeda9225cb64bfc01dd00e86383",
    "no_alphanumeric": "77f5eec38c5ef075e11892244ccf9e249d82937e07401398df98319568775a17",
    "self_defending": "f87aa010fbdce930d126a351095bad69be91cf67abd90dae1d02f818d821ebf7",
    "string_obfuscation": "692e3215173ee286f4b9f7e662e456b410e86c088d637a3c1318844d2e10a85d",
}


class TestDeterminism:
    """The same input gives the same normal form and report, run after run
    and under any hash seed (pipebench counts a difference as a failure)."""

    @pytest.fixture(scope="class")
    def outputs(self) -> dict[str, list]:
        return _deob_outputs()

    def test_repeat_runs_agree(self, outputs):
        assert _deob_outputs() == outputs

    def test_other_hash_seed_agrees(self, outputs):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        done = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_deob import _deob_outputs; "
             "print(json.dumps(_deob_outputs()))"],
            cwd=root, env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        assert json.loads(done.stdout) == json.loads(json.dumps(outputs))

    def test_normal_forms_are_pinned(self, outputs):
        digests = {
            name: hashlib.sha256(source.encode()).hexdigest()
            for name, (source, _report) in outputs.items()
        }
        assert digests == NORMAL_FORM_SHA256


class TestCountedWork:
    """Each program state is parsed once, and a pass that does not fire on
    the rules' analysed tree walks, clones and scope-analyses nothing."""

    @pytest.mark.parametrize("sample", ["global_array", "dead_code_injection+string_obfuscation"])
    def test_one_parse_per_state(self, sample, monkeypatch):
        from repro.js.parser import Parser

        source = _pinned_samples()[sample]
        parses = []
        parse_program = Parser.parse_program

        def counted(parser):
            parses.append(parser)
            return parse_program(parser)

        monkeypatch.setattr(Parser, "parse_program", counted)
        rules = _RecordingRules()
        result = DeobEngine(rules=rules).run(source)
        assert result.changed
        assert len(set(rules.sources)) == len(rules.sources)
        assert len(parses) == len(rules.sources)

    @pytest.mark.parametrize("sample", sorted(NORMAL_FORM_SHA256))
    def test_idle_pass_on_the_analysed_tree_does_no_tree_work(self, sample, monkeypatch):
        import importlib

        source = _pinned_samples()[sample]
        calls: list[str] = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        for module_name in ("base", "constant_fold", "dead_code", "jsfuck", "rename",
                            "string_array", "traps", "unflatten", "unminify", "unpack"):
            module = importlib.import_module(f"repro.deob.{module_name}")
            for name in ("walk", "clone", "analyze_scopes"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        idle: list[tuple[str, list[str]]] = []

        class Watched(DeobPass):
            def __init__(self, inner):
                self.inner, self.name, self.late = inner, inner.name, inner.late

            def rewrite(self, program, ctx):
                analysed = ctx.analysis is not None and program is ctx.analysis.program
                del calls[:]
                result = self.inner.rewrite(program, ctx)
                if analysed and not result.changed:
                    idle.append((self.name, list(calls)))
                return result

        engine = DeobEngine(passes=[Watched(p) for p in default_passes()])
        engine.run(source)
        assert idle
        assert [entry for entry in idle if entry[1]] == []


class TestArrayHoles:
    """A trailing hole survives deob: `[1,,]` has length 2, `[,]` length 1."""

    @pytest.mark.parametrize("source", ["var a = [1,,];\n", "var b = [,];\n"])
    def test_normal_form_keeps_trailing_holes(self, source, engine):
        result = engine.run(source)
        assert result.report.error is None
        assert generate(parse(result.source)) == result.source
        [declaration] = parse(result.source).body
        [expected] = parse(source).body
        assert len(declaration.declarations[0].init.elements) == len(
            expected.declarations[0].init.elements
        )


class TestTypedEvidence:
    """Satellite: dispatcher/string-array evidence as typed Finding fields."""

    def test_dispatcher_evidence_fields(self, deob_source):
        transformed = get_transformer(Technique.CONTROL_FLOW_FLATTENING).transform(
            deob_source, random.Random(99)
        )
        findings = default_engine().analyze_source(transformed, data_flow=False)
        evidence = [f.dispatcher for f in findings if f.dispatcher is not None]
        assert evidence, "R009 should expose typed dispatcher evidence"
        dispatcher = evidence[0]
        assert dispatcher.state_variable
        assert dispatcher.order == dispatcher.order_string.split(dispatcher.separator)
        assert dispatcher.case_count == len(set(dispatcher.order))
        assert dispatcher.to_json()["order_string"] == dispatcher.order_string

    def test_string_array_evidence_fields(self, deob_source):
        transformed = get_transformer(Technique.GLOBAL_ARRAY).transform(
            deob_source, random.Random(99)
        )
        findings = default_engine().analyze_source(transformed, data_flow=False)
        evidence = [f.string_array for f in findings if f.string_array is not None]
        assert evidence, "R006 should expose typed string-array evidence"
        array = evidence[0]
        assert array.array
        assert array.string_count > 0
        assert array.to_json()["array"] == array.array


class TestDecoderInlining:
    """Summary-driven inlining of decoder *calls* (selfref/base64/RC4
    shapes where no call site ever indexes the array directly)."""

    @pytest.mark.parametrize(
        "encoding, rotate",
        [("none", False), ("base64", False), ("base64", True), ("rc4", True)],
        ids=["selfref-index", "selfref-base64", "selfref-rotated", "rc4"],
    )
    def test_decoder_calls_inlined_and_machinery_dropped(
        self, encoding, rotate, deob_source, engine
    ):
        from repro.transform.global_array import GlobalArrayObfuscator

        transformer = GlobalArrayObfuscator(
            encoding=encoding,
            rotate=rotate,
            decoder=None if encoding == "rc4" else "selfref",
        )
        transformed = transformer.transform(deob_source, random.Random(42))
        result = engine.run(transformed)
        assert result.report.error is None
        assert "global_array" in result.report.techniques_removed
        # Every decoder call site was replaced by its decoded literal and
        # the decoder/table-function/array chain dropped as dead code.
        assert "atob" not in result.source
        assert "charCodeAt" not in result.source
        assert _confidence(result.source, Technique.GLOBAL_ARRAY) < REMOVAL_THRESHOLD

    def test_removal_rate_over_decoder_corpus(self):
        """Normalize-then-reclassify removal rate must be 1.0 on a corpus
        of decoder-hardened global-array output."""
        from repro.transform.global_array import GlobalArrayObfuscator

        sources = generate_corpus(3, seed=23, min_bytes=800)
        engine = DeobEngine()
        removed = 0
        for index, source in enumerate(sources):
            encoding = ("base64", "rc4", "none")[index % 3]
            transformer = GlobalArrayObfuscator(
                encoding=encoding,
                decoder=None if encoding == "rc4" else "selfref",
            )
            transformed = transformer.transform(source, random.Random(index))
            assert _confidence(transformed, Technique.GLOBAL_ARRAY) >= REMOVAL_THRESHOLD
            normalized = engine.run(transformed).source
            if _confidence(normalized, Technique.GLOBAL_ARRAY) < REMOVAL_THRESHOLD:
                removed += 1
        assert removed == len(sources)

    def test_unresolved_calls_left_untouched(self, engine):
        """A call whose argument is not a provable constant survives —
        the inliner never guesses."""
        source = (
            'var _0xab = ["aa", "bb", "cc"];\n'
            "function _0xt() { _0xt = function () { return _0xab; }; return _0xt(); }\n"
            "function _0xd(i) { var t = _0xt(); return t[i - 0x20]; }\n"
            "console.log(_0xd(0x20));\n"
            "console.log(_0xd(window.k));\n"
        )
        result = engine.run(source)
        assert '"aa"' in result.source  # constant site inlined
        assert "window.k" in result.source  # dynamic site preserved
        assert "_0x" in result.source  # chain kept alive by the survivor


class TestIntegration:
    def test_batch_engine_deob_flag(self, deob_source):
        """Model-free batch classify with deob=True attaches DeobResults."""
        transformed = get_transformer(Technique.CONTROL_FLOW_FLATTENING).transform(
            deob_source, random.Random(5)
        )
        engine = BatchInferenceEngine(None, triage="only")
        batch = engine.classify([transformed, deob_source], deob=True)
        flagged, plain = batch.results
        assert flagged.deob is not None
        assert "control_flow_flattening" in flagged.deob.report.techniques_removed
        # the verdict describes the normal form, so the dispatcher rule is gone
        assert all(name != "control_flow_flattening" for name, _ in flagged.techniques)
        assert plain.deob is not None
        assert batch.stats.deob_files == 2
        assert batch.stats.deob_removals >= 1
        assert batch.stats.deob_time > 0

    def test_batch_engine_without_deob_has_no_results(self, deob_source):
        engine = BatchInferenceEngine(None, triage="only")
        batch = engine.classify([deob_source])
        assert batch.results[0].deob is None
        assert batch.stats.deob_files == 0

    def test_deobfuscate_convenience(self, deob_source):
        transformed = get_transformer(Technique.DEAD_CODE_INJECTION).transform(
            deob_source, random.Random(99)
        )
        result = deobfuscate(transformed)
        assert "dead_code_injection" in result.report.techniques_removed
        payload = result.to_json()
        assert payload["changed"] is True
        assert payload["report"]["techniques_removed"] == (
            result.report.techniques_removed
        )

    def test_cli_deob_command(self, deob_source, tmp_path, capsys):
        from repro.__main__ import main

        transformed = get_transformer(Technique.GLOBAL_ARRAY).transform(
            deob_source, random.Random(99)
        )
        script = tmp_path / "obf.js"
        script.write_text(transformed)
        out = tmp_path / "normalized.js"
        assert main(["deob", str(script), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "techniques removed" in captured.err
        normalized = out.read_text()
        assert generate(parse(normalized)) == normalized

    def test_cli_classify_deob_flag(self, deob_source, tmp_path, capsys):
        import json

        from repro.__main__ import main

        transformed = get_transformer(Technique.CONTROL_FLOW_FLATTENING).transform(
            deob_source, random.Random(5)
        )
        script = tmp_path / "obf.js"
        script.write_text(transformed)
        assert main(["classify", "--rules-only", "--deob", "--jsonl", str(script)]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert record["deob"]["changed"] is True
        assert "control_flow_flattening" in record["deob"]["techniques_removed"]
