"""Tests for all ten transformation tools plus the packer and pipeline."""

import pytest

from repro.js.parser import parse
from repro.js.visitor import find_all, walk
from repro.transform import (
    TECHNIQUES,
    Technique,
    TransformationPipeline,
    get_transformer,
    registry,
    transform_with,
)
from repro.transform.base import looks_minified
from repro.transform.packer import DeanEdwardsPacker, pack
from repro.transform.renaming import (
    hex_name_generator,
    rename_hex,
    rename_short,
    short_name_generator,
)


@pytest.fixture()
def source(sample_source):
    return sample_source


class TestRegistry:
    def test_all_ten_registered(self):
        assert set(registry()) == set(TECHNIQUES)

    def test_lookup_by_string(self):
        assert get_transformer("minification_simple").technique is Technique.MINIFICATION_SIMPLE

    def test_labels_include_primary(self):
        for technique, transformer in registry().items():
            assert technique in transformer.labels

    def test_at_most_three_labels(self):
        # §III-E1: single-configuration samples carry up to three labels.
        for transformer in registry().values():
            assert 1 <= len(transformer.labels) <= 3


@pytest.mark.parametrize("technique", [t.value for t in TECHNIQUES])
def test_output_reparses(technique, source, rng):
    out = get_transformer(technique).transform(source, rng)
    parse(out)  # must be valid JavaScript
    assert out != source


class TestRenaming:
    def test_short_name_generator_sequence(self):
        gen = short_name_generator()
        first = [next(gen) for _ in range(54)]
        assert first[0] == "a"
        assert first[25] == "z"
        assert first[26] == "A"
        assert len(first[53]) == 2

    def test_short_names_skip_keywords(self):
        gen = short_name_generator()
        names = [next(gen) for _ in range(60 * 63)]
        assert "do" not in names
        assert "if" not in names

    def test_hex_names_unique(self, rng):
        gen = hex_name_generator(rng)
        names = [next(gen) for _ in range(200)]
        assert len(set(names)) == 200
        assert all(name.startswith("_0x") for name in names)

    def test_rename_short_keeps_globals(self, source, rng):
        program, _ = rename_short(parse(source))
        names = {n.name for n in find_all(program, "Identifier")}
        assert "console" in names  # global untouched
        assert "JSON" in names
        assert "fetchData" not in names  # local renamed

    def test_rename_preserves_property_names(self, rng):
        program, _ = rename_short(parse("var obj = { value: 1 }; use(obj.value);"))
        members = find_all(program, "MemberExpression")
        assert members[0].property.name == "value"

    def test_rename_shorthand_expansion(self, rng):
        program, _ = rename_hex(parse("var alpha = 1; f({ alpha });"), rng)
        props = find_all(program, "Property")
        assert props[0].key.name == "alpha"  # key kept
        assert props[0].value.name.startswith("_0x")  # value renamed

    def test_expand_shorthand_pattern(self, rng):
        program, _ = rename_hex(parse("var { m } = obj; use(m);"), rng)
        props = find_all(program, "Property")
        assert props[0].key is not props[0].value
        assert props[0].key.name == "m" != props[0].value.name

    def test_rename_consistency(self, rng):
        program, _ = rename_hex(parse("function f(a) { return a + a; } f(1);"), rng)
        fn = find_all(program, "FunctionDeclaration")[0]
        param = fn.params[0].name
        body_ids = {n.name for n in find_all(fn.body, "Identifier")}
        assert body_ids == {param}


class TestMinifiers:
    def test_simple_removes_whitespace(self, source, rng):
        out = get_transformer("minification_simple").transform(source, rng)
        assert "\n" not in out
        assert len(out) < len(source) * 0.8

    def test_simple_removes_comments(self, rng):
        out = get_transformer("minification_simple").transform(
            "// top comment\nvar alpha = 1; /* x */ use(alpha);", rng
        )
        assert "comment" not in out

    def test_advanced_constant_folding(self, rng):
        out = get_transformer("minification_advanced").transform(
            "var x = 2 + 3 * 4; use(x);", rng
        )
        assert "14" in out

    def test_advanced_string_concat_folding(self, rng):
        out = get_transformer("minification_advanced").transform(
            'var s = "ab" + "cd"; use(s);', rng
        )
        assert "abcd" in out

    def test_advanced_boolean_shortening(self, rng):
        out = get_transformer("minification_advanced").transform(
            "var flag = true; use(flag, false);", rng
        )
        assert "!0" in out and "!1" in out

    def test_advanced_if_to_ternary(self, rng):
        out = get_transformer("minification_advanced").transform(
            "if (cond) { left(); } else { right(); }", rng
        )
        assert "?" in out and ":" in out

    def test_advanced_if_to_logical_and(self, rng):
        out = get_transformer("minification_advanced").transform(
            "if (cond) { effect(); }", rng
        )
        assert "&&" in out

    def test_advanced_dead_branch_elimination(self, rng):
        out = get_transformer("minification_advanced").transform(
            "if (false) { neverRuns(); } else { always(); }", rng
        )
        assert "neverRuns" not in out

    def test_advanced_unreachable_removal(self, rng):
        out = get_transformer("minification_advanced").transform(
            "function f() { return 1; unreachable(); } f();", rng
        )
        assert "unreachable" not in out

    def test_advanced_sequence_merging(self, rng):
        out = get_transformer("minification_advanced").transform(
            "a(); b(); c();", rng
        )
        assert "a(),b(),c()" in out

    def test_advanced_undefined_to_void(self, rng):
        out = get_transformer("minification_advanced").transform(
            "var u = undefined; use(u);", rng
        )
        assert "void 0" in out

    def test_advanced_keeps_property_undefined(self, rng):
        out = get_transformer("minification_advanced").transform(
            "use(obj.undefined);", rng
        )
        assert ".undefined" in out

    def test_semantics_preserving_structure(self, source, rng):
        out = get_transformer("minification_simple").transform(source, rng)
        original_calls = len(find_all(parse(source), "CallExpression"))
        minified_calls = len(find_all(parse(out), "CallExpression"))
        assert original_calls == minified_calls


class TestObfuscators:
    def test_identifier_obfuscation_hex_names(self, source, rng):
        out = get_transformer("identifier_obfuscation").transform(source, rng)
        names = {n.name for n in find_all(parse(out), "Identifier")}
        assert any(name.startswith("_0x") for name in names)

    def test_identifier_obfuscation_preserves_formatting(self, source, rng):
        out = get_transformer("identifier_obfuscation").transform(source, rng)
        assert "\n" in out  # pretty output for regular input

    def test_string_obfuscation_hides_literals(self, rng):
        src = 'var message = "hello world obfuscation"; use(message);'
        out = get_transformer("string_obfuscation").transform(src, rng)
        assert "hello world obfuscation" not in out

    def test_string_obfuscation_leaves_property_keys(self, rng):
        src = 'var o = { secretKey: 1 }; use(o.secretKey, "hidden-value");'
        out = get_transformer("string_obfuscation").transform(src, rng)
        assert "secretKey" in out

    def test_global_array_extracts_strings(self, rng):
        from repro.transform.global_array import GlobalArrayObfuscator

        src = 'var a = "alpha"; var b = "beta"; use(a, b, "alpha");'
        out = GlobalArrayObfuscator(encoding="none", rotate=False).transform(src, rng)
        program = parse(out)
        arrays = find_all(program, "ArrayExpression")
        assert arrays and len(arrays[0].elements) == 2  # deduplicated
        assert "alpha" in out  # inside the array
        statement = program.body[0]
        assert statement.type == "VariableDeclaration"

    def test_global_array_accessor_function(self, rng):
        src = 'var greeting = "hi"; use(greeting, "there");'
        out = get_transformer("global_array").transform(src, rng)
        program = parse(out)
        assert any(
            node.type == "FunctionDeclaration" for node in program.body
        )

    def test_dead_code_injects_statements(self, source, rng):
        out = get_transformer("dead_code_injection").transform(source, rng)
        original = len(parse(source).body)
        assert len(parse(out).body) > original

    def test_dead_code_opaque_branches(self, rng):
        out = get_transformer("dead_code_injection").transform(
            "var keep = 1; use(keep); done();", rng
        )
        program = parse(out)
        ifs = find_all(program, "IfStatement")
        junk = [n for n in walk(program) if n.type == "VariableDeclaration"]
        assert ifs or len(junk) > 1

    def test_cff_creates_dispatcher(self, source, rng):
        out = get_transformer("control_flow_flattening").transform(source, rng)
        program = parse(out)
        whiles = find_all(program, "WhileStatement")
        switches = find_all(program, "SwitchStatement")
        assert whiles and switches

    def test_cff_order_string(self, source, rng):
        out = get_transformer("control_flow_flattening").transform(source, rng)
        assert ".split(" in out.replace(" ", "") or '"|"' in out

    def test_cff_preserves_statement_count(self, rng):
        src = "a(); b(); c(); d();"
        out = get_transformer("control_flow_flattening").transform(src, rng)
        program = parse(out)
        calls = [n for n in walk(program) if n.type == "CallExpression"]
        # 4 original + split() call
        assert len([c for c in calls if c.callee.type == "Identifier"]) == 4

    def test_cff_skips_small_bodies(self, rng):
        src = "tiny();"
        out = get_transformer("control_flow_flattening").transform(src, rng)
        assert not find_all(parse(out), "SwitchStatement")

    def test_cff_skips_free_break(self, rng):
        src = "for (;;) { if (x) break; a(); b(); }"
        out = get_transformer("control_flow_flattening").transform(src, rng)
        parse(out)  # still valid

    def test_self_defending_guard(self, source, rng):
        out = get_transformer("self_defending").transform(source, rng)
        assert "constructor" in out
        assert "\n" not in out  # always compact

    def test_debug_protection_injects_debugger(self, source, rng):
        out = get_transformer("debug_protection").transform(source, rng)
        assert "debugger" in out
        assert "setInterval" in out

    def test_jsfuck_six_characters_only(self, rng):
        out = get_transformer("no_alphanumeric").transform(
            "var x = 1; f(x);", rng
        )
        assert set(out) <= set("[]()!+")

    def test_jsfuck_reparses(self, rng):
        out = get_transformer("no_alphanumeric").transform("f(1);", rng)
        parse(out)


class TestJSFuckEncoder:
    def test_number_encoding(self):
        from repro.transform.no_alphanumeric import _number

        assert _number(0) == "+[]"
        assert _number(1) == "+!+[]"
        assert _number(3) == "!+[]+!+[]+!+[]"
        assert "(" in _number(10)

    def test_char_map_core_letters(self):
        from repro.transform.no_alphanumeric import JSFuckEncoder

        encoder = JSFuckEncoder()
        for char in "abcdefilnorstuv (){}[]":
            expression = encoder.char(char)
            assert set(expression) <= set("[]()!+"), char
            parse(expression + ";")

    def test_spell_memoised(self):
        from repro.transform.no_alphanumeric import JSFuckEncoder

        encoder = JSFuckEncoder()
        first = encoder.spell("constructor")
        second = encoder.spell("constructor")
        assert first is second

    def test_exotic_char_via_unescape(self):
        from repro.transform.no_alphanumeric import JSFuckEncoder

        encoder = JSFuckEncoder()
        expression = encoder.char(";")
        assert set(expression) <= set("[]()!+")
        parse(expression + ";")


class TestPacker:
    def test_packed_shape(self, source, rng):
        out = pack(source, rng)
        assert out.startswith("eval(function(p,a,c,k,e,d)")
        parse(out)

    def test_packed_replaces_repeated_words(self, rng):
        # Property names survive minification, so the packer dictionary
        # picks them up when repeated.
        src = "obj.computeValue(); obj.computeValue(); obj.computeValue();"
        out = pack(src, rng)
        # The word appears exactly once: in the dictionary, not the payload.
        assert out.count("computeValue") == 1
        assert ".split('|')" in out

    def test_packer_class_interface(self, source, rng):
        packer = DeanEdwardsPacker()
        assert packer.name == "daft_logic_packer"
        parse(packer.transform(source, rng))

    def test_base62_encoding(self):
        from repro.transform.packer import _encode_base62

        assert _encode_base62(0) == "0"
        assert _encode_base62(61) == "Z"
        assert _encode_base62(62) == "10"


class TestPipeline:
    def test_single_technique(self, source, rng):
        out, labels = transform_with(source, ["minification_simple"], rng)
        assert labels == frozenset({Technique.MINIFICATION_SIMPLE})
        parse(out)

    def test_combined_labels_union(self, source, rng):
        out, labels = transform_with(
            source, ["minification_simple", "string_obfuscation"], rng
        )
        assert Technique.MINIFICATION_SIMPLE in labels
        assert Technique.STRING_OBFUSCATION in labels

    def test_implied_labels(self, source, rng):
        _out, labels = transform_with(source, ["global_array"], rng)
        assert Technique.IDENTIFIER_OBFUSCATION in labels

    def test_jsfuck_terminal_resets_labels(self, source, rng):
        _out, labels = transform_with(
            source, ["minification_simple", "no_alphanumeric"], rng
        )
        assert labels == frozenset({Technique.NO_ALPHANUMERIC})

    def test_canonical_order(self):
        pipeline = TransformationPipeline(
            ["identifier_obfuscation", "minification_advanced"]
        )
        assert pipeline.techniques[0] is Technique.MINIFICATION_ADVANCED

    def test_unknown_technique_raises(self):
        with pytest.raises(ValueError):
            TransformationPipeline(["not_a_technique"])

    def test_compactness_preserved_across_chain(self, source, rng):
        out, _labels = transform_with(
            source, ["minification_simple", "identifier_obfuscation"], rng
        )
        assert looks_minified(out)

    def test_three_technique_chain_parses(self, source, rng):
        out, labels = transform_with(
            source,
            ["minification_advanced", "string_obfuscation", "debug_protection"],
            rng,
        )
        parse(out)
        assert len(labels) >= 4


class TestLooksMinified:
    def test_pretty_code(self, source):
        assert not looks_minified(source)

    def test_compact_code(self, source, rng):
        out = get_transformer("minification_simple").transform(source, rng)
        assert looks_minified(out)
