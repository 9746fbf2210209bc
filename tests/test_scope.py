"""Scope analysis tests: declaration kinds, hoisting, def/use resolution."""

from repro.js.parser import parse
from repro.js.scope import analyze_scopes, pattern_identifiers


def bindings_of(source: str) -> dict:
    scope = analyze_scopes(parse(source))
    return {binding.name: binding for binding in scope.iter_all_bindings()}


class TestDeclarations:
    def test_var_kind(self):
        assert bindings_of("var x = 1;")["x"].kind == "var"

    def test_let_const_kinds(self):
        table = bindings_of("let a = 1; const b = 2;")
        assert table["a"].kind == "let"
        assert table["b"].kind == "const"

    def test_function_declaration(self):
        assert bindings_of("function f() {}")["f"].kind == "function"

    def test_class_declaration(self):
        assert bindings_of("class C {}")["C"].kind == "class"

    def test_params(self):
        table = bindings_of("function f(a, b) { return a + b; }")
        assert table["a"].kind == "param"

    def test_catch_param(self):
        assert bindings_of("try {} catch (e) {}")["e"].kind == "catch"

    def test_import_binding(self):
        assert bindings_of("import x from 'mod';")["x"].kind == "import"

    def test_module_names_are_not_references(self):
        # `x` names m's export, `y` this module's export, `z` m's export.
        table = bindings_of(
            "import {x as a} from 'm'; var x = 1, y = 2, z = 3; a(x);"
            " export {x as y}; export {z} from 'm'; export * as w from 'm';"
        )
        assert len(table["x"].references) == 2  # a(x) and export {x as y}
        assert table["y"].references == []
        assert table["z"].references == []
        assert "w" not in table

    def test_undeclared_is_global(self):
        assert bindings_of("console.log(1);")["console"].kind == "global"

    def test_destructuring_declares_all(self):
        table = bindings_of("var { a, b: [c, d = 1], ...e } = obj;")
        for name in "acde":
            assert name in table
        assert "b" not in table  # property key, not a binding


class TestHoisting:
    def test_var_hoists_to_function_scope(self):
        source = "function f() { if (x) { var inner = 1; } return inner; }"
        scope = analyze_scopes(parse(source))
        fn_scope = scope.children[0]
        assert fn_scope.kind == "function"
        assert "inner" in fn_scope.bindings

    def test_let_stays_in_block(self):
        source = "function f() { if (x) { let inner = 1; } }"
        scope = analyze_scopes(parse(source))
        fn_scope = scope.children[0]
        assert "inner" not in fn_scope.bindings

    def test_function_declaration_usable_before_definition(self):
        table = bindings_of("callIt(); function callIt() {}")
        assert table["callIt"].kind == "function"
        assert len(table["callIt"].references) == 1


class TestResolution:
    def test_reference_counts(self):
        table = bindings_of("var x = 1; f(x); g(x, x);")
        assert len(table["x"].references) == 3

    def test_assignment_counts(self):
        table = bindings_of("var x = 1; x = 2; x += 3;")
        assert len(table["x"].assignments) == 3

    def test_update_counts_as_read_and_write(self):
        table = bindings_of("var i = 0; i++;")
        assert len(table["i"].assignments) == 2
        assert len(table["i"].references) == 1

    def test_shadowing_inner_param(self):
        source = "var x = 1; function f(x) { return x; }"
        scope = analyze_scopes(parse(source))
        outer = scope.bindings["x"]
        assert len(outer.references) == 0  # inner x shadows

    def test_closure_resolves_outer(self):
        source = "var shared = 1; function f() { return shared; }"
        table = bindings_of(source)
        assert len(table["shared"].references) == 1

    def test_member_property_not_reference(self):
        table = bindings_of("var obj = {}; obj.length;")
        assert "length" not in table

    def test_computed_member_is_reference(self):
        table = bindings_of("var k = 'a'; obj[k];")
        assert len(table["k"].references) == 1

    def test_property_key_not_reference(self):
        table = bindings_of("var a = 1; var o = { a: 2 };")
        assert len(table["a"].references) == 0

    def test_shorthand_property_is_reference(self):
        table = bindings_of("var a = 1; var o = { a };")
        assert len(table["a"].references) == 1

    def test_label_not_a_binding(self):
        table = bindings_of("loop: while (1) { break loop; }")
        assert "loop" not in table

    def test_named_function_expression_self_reference(self):
        source = "var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); };"
        table = bindings_of(source)
        assert len(table["fact"].references) == 1

    def test_for_loop_scope(self):
        table = bindings_of("for (let i = 0; i < 3; i++) { use(i); }")
        assert table["i"].kind == "let"
        assert len(table["i"].references) >= 2

    def test_for_of_binding(self):
        table = bindings_of("for (const v of xs) { use(v); }")
        assert len(table["v"].references) == 1

    def test_identifier_binding_attribute_set(self):
        program = parse("var x = 1; f(x);")
        analyze_scopes(program)
        call_arg = program.body[1].expression.arguments[0]
        assert call_arg.binding.name == "x"


class TestScopeTree:
    def test_names_in_scope(self):
        source = "var top = 1; function f(p) { var local = 2; }"
        scope = analyze_scopes(parse(source))
        fn_scope = scope.children[0]
        names = fn_scope.names_in_scope()
        assert {"top", "f", "p", "local"} <= names

    def test_class_scope(self):
        scope = analyze_scopes(parse("class C { m() { return 1; } }"))
        assert any(child.kind == "class" for child in scope.children)

    def test_switch_creates_block_scope(self):
        source = "switch (x) { case 1: let y = 1; break; }"
        scope = analyze_scopes(parse(source))
        assert any("y" in child.bindings for child in scope.children)


class TestPatternIdentifiers:
    def test_simple(self):
        program = parse("var x;")
        target = program.body[0].declarations[0].id
        assert [n.name for n in pattern_identifiers(target)] == ["x"]

    def test_nested(self):
        program = parse("var [a, { b, c: [d] }, ...e] = v;")
        target = program.body[0].declarations[0].id
        assert [n.name for n in pattern_identifiers(target)] == ["a", "b", "d", "e"]

    def test_none(self):
        assert pattern_identifiers(None) == []
