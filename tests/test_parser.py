"""Unit tests for the JavaScript parser (ESTree output)."""

import pytest

from repro.js.parser import ParseError, parse


def first(source: str):
    return parse(source).body[0]


def expr(source: str):
    statement = first(source)
    assert statement.type == "ExpressionStatement"
    return statement.expression


class TestStatements:
    def test_empty_program(self):
        program = parse("")
        assert program.type == "Program"
        assert program.body == []

    def test_variable_declaration_kinds(self):
        for kind in ("var", "let", "const"):
            statement = first(f"{kind} x = 1;")
            assert statement.type == "VariableDeclaration"
            assert statement.kind == kind

    def test_multiple_declarators(self):
        statement = first("var a = 1, b, c = 3;")
        assert len(statement.declarations) == 3
        assert statement.declarations[1].init is None

    def test_function_declaration(self):
        statement = first("function f(a, b) { return a; }")
        assert statement.type == "FunctionDeclaration"
        assert statement.id.name == "f"
        assert [p.name for p in statement.params] == ["a", "b"]

    def test_default_parameter(self):
        statement = first("function f(a = 1) {}")
        assert statement.params[0].type == "AssignmentPattern"

    def test_rest_parameter(self):
        statement = first("function f(...rest) {}")
        assert statement.params[0].type == "RestElement"

    def test_generator_function(self):
        statement = first("function* gen() { yield 1; }")
        assert statement.generator is True

    def test_async_function(self):
        statement = first("async function f() { await g(); }")
        assert getattr(statement, "async") is True

    def test_if_else(self):
        statement = first("if (a) b(); else c();")
        assert statement.type == "IfStatement"
        assert statement.alternate is not None

    def test_else_if_chain(self):
        statement = first("if (a) x(); else if (b) y(); else z();")
        assert statement.alternate.type == "IfStatement"

    def test_for_classic(self):
        statement = first("for (var i = 0; i < 3; i++) {}")
        assert statement.type == "ForStatement"
        assert statement.init.type == "VariableDeclaration"

    def test_for_headless(self):
        statement = first("for (;;) { break; }")
        assert statement.init is None and statement.test is None and statement.update is None

    def test_for_in(self):
        statement = first("for (var k in obj) {}")
        assert statement.type == "ForInStatement"

    def test_for_of(self):
        statement = first("for (const v of list) {}")
        assert statement.type == "ForOfStatement"

    def test_for_in_with_member_target(self):
        statement = first("for (obj.k in src) {}")
        assert statement.left.type == "MemberExpression"

    def test_while(self):
        assert first("while (x) {}").type == "WhileStatement"

    def test_do_while(self):
        statement = first("do { x--; } while (x > 0);")
        assert statement.type == "DoWhileStatement"

    def test_switch(self):
        statement = first("switch (x) { case 1: a(); break; default: b(); }")
        assert statement.type == "SwitchStatement"
        assert len(statement.cases) == 2
        assert statement.cases[1].test is None

    def test_try_catch_finally(self):
        statement = first("try { a(); } catch (e) { b(); } finally { c(); }")
        assert statement.handler.param.name == "e"
        assert statement.finalizer is not None

    def test_optional_catch_binding(self):
        statement = first("try { a(); } catch { b(); }")
        assert statement.handler.param is None

    def test_try_without_handler_raises(self):
        with pytest.raises(ParseError):
            parse("try { a(); }")

    def test_throw(self):
        assert first("throw new Error('x');").type == "ThrowStatement"

    def test_throw_newline_raises(self):
        with pytest.raises(ParseError):
            parse("throw\n x;")

    def test_labeled_statement(self):
        statement = first("outer: while (1) { break outer; }")
        assert statement.type == "LabeledStatement"
        assert statement.body.body.body[0].label.name == "outer"

    def test_debugger(self):
        assert first("debugger;").type == "DebuggerStatement"

    def test_with_statement(self):
        assert first("with (obj) { x = 1; }").type == "WithStatement"

    def test_empty_statement(self):
        assert first(";").type == "EmptyStatement"

    def test_class_declaration(self):
        statement = first(
            "class A extends B { constructor() { super(); } get x() { return 1; } "
            "static of() {} *gen() {} }"
        )
        assert statement.type == "ClassDeclaration"
        kinds = [m.kind for m in statement.body.body]
        assert "constructor" in kinds and "get" in kinds

    def test_class_field(self):
        statement = first("class A { count = 0; }")
        assert statement.body.body[0].type == "PropertyDefinition"


class TestASI:
    def test_missing_semicolons_with_newlines(self):
        program = parse("var a = 1\nvar b = 2\na = b")
        assert len(program.body) == 3

    def test_return_restricted_production(self):
        statement = parse("function f() { return\n1; }").body[0]
        ret = statement.body.body[0]
        assert ret.argument is None

    def test_missing_semicolon_same_line_raises(self):
        with pytest.raises(ParseError):
            parse("var a = 1 var b = 2")

    def test_semicolon_before_close_brace_optional(self):
        parse("function f() { return 1 }")

    def test_postfix_no_newline(self):
        program = parse("a\n++b")
        # ++ binds to b, not postfix on a
        assert program.body[1].expression.type == "UpdateExpression"


class TestExpressions:
    def test_binary_precedence(self):
        node = expr("1 + 2 * 3;")
        assert node.operator == "+"
        assert node.right.operator == "*"

    def test_left_associativity(self):
        node = expr("1 - 2 - 3;")
        assert node.left.operator == "-"

    def test_exponent_right_associative(self):
        node = expr("2 ** 3 ** 4;")
        assert node.right.operator == "**"

    def test_logical_operators(self):
        node = expr("a && b || c;")
        assert node.type == "LogicalExpression"
        assert node.operator == "||"

    def test_nullish(self):
        assert expr("a ?? b;").operator == "??"

    def test_conditional(self):
        node = expr("a ? b : c;")
        assert node.type == "ConditionalExpression"

    def test_nested_conditional(self):
        node = expr("a ? b : c ? d : e;")
        assert node.alternate.type == "ConditionalExpression"

    def test_assignment_operators(self):
        for op in ("=", "+=", "-=", "*=", "/=", "%=", "**=", "<<=", ">>=", ">>>=",
                   "&=", "|=", "^=", "&&=", "||=", "??="):
            node = expr(f"a {op} b;")
            assert node.type == "AssignmentExpression"
            assert node.operator == op

    def test_chained_assignment(self):
        node = expr("a = b = c;")
        assert node.right.type == "AssignmentExpression"

    def test_sequence_expression(self):
        node = expr("a, b, c;")
        assert node.type == "SequenceExpression"
        assert len(node.expressions) == 3

    def test_unary_operators(self):
        for op in ("+", "-", "!", "~", "typeof", "void", "delete"):
            node = expr(f"{op} x;")
            assert node.type == "UnaryExpression"
            assert node.operator == op

    def test_update_expressions(self):
        assert expr("++x;").prefix is True
        assert expr("x++;").prefix is False

    def test_member_dot(self):
        node = expr("a.b.c;")
        assert node.type == "MemberExpression"
        assert node.object.property.name == "b"

    def test_member_bracket(self):
        node = expr("a[b + 1];")
        assert node.computed is True

    def test_keyword_as_property(self):
        node = expr("a.return;")
        assert node.property.name == "return"

    def test_call_with_arguments(self):
        node = expr("f(1, x, ...rest);")
        assert node.type == "CallExpression"
        assert node.arguments[2].type == "SpreadElement"

    def test_new_with_arguments(self):
        node = expr("new Foo(1);")
        assert node.type == "NewExpression"

    def test_new_without_arguments(self):
        node = expr("new Foo;")
        assert node.type == "NewExpression"
        assert node.arguments == []

    def test_new_member_callee(self):
        node = expr("new a.b.C();")
        assert node.callee.type == "MemberExpression"

    def test_new_target_meta_property(self):
        statement = parse("function f() { return new.target; }").body[0]
        assert statement.body.body[0].argument.type == "MetaProperty"

    def test_iife(self):
        node = expr("(function () { return 1; })();")
        assert node.type == "CallExpression"
        assert node.callee.type == "FunctionExpression"

    def test_optional_chaining(self):
        node = expr("a?.b;")
        assert node.type == "MemberExpression"
        assert node.optional is True

    def test_optional_call(self):
        node = expr("a?.();")
        assert node.type == "CallExpression"
        assert node.optional is True

    def test_this_and_super(self):
        assert expr("this;").type == "ThisExpression"

    def test_tagged_template(self):
        node = expr("tag`a ${x} b`;")
        assert node.type == "TaggedTemplateExpression"
        assert node.quasi.type == "TemplateLiteral"

    def test_template_literal_parts(self):
        node = expr("`a ${x} b ${y + 1} c`;")
        assert len(node.quasis) == 3
        assert len(node.expressions) == 2
        assert node.expressions[1].type == "BinaryExpression"

    def test_dynamic_import(self):
        node = expr("import('./mod.js');")
        assert node.type == "CallExpression"
        assert node.callee.type == "Import"


class TestLiterals:
    @pytest.mark.parametrize(
        "source,value",
        [("42;", 42), ("3.5;", 3.5), ("0x10;", 16), ("0b101;", 5), ("0o17;", 15),
         ("0755;", 493), ("'hi';", "hi"), ("true;", True), ("false;", False),
         ("null;", None)],
    )
    def test_literal_values(self, source, value):
        assert expr(source).value == value

    def test_string_escape_decoding(self):
        assert expr(r'"\x41B\n";').value == "AB\n"

    def test_unicode_codepoint_escape(self):
        assert expr(r'"\u{1F600}";').value == "😀"

    def test_regex_literal(self):
        node = expr("/ab/gi;")
        assert node.regex == {"pattern": "ab", "flags": "gi"}

    def test_raw_preserved(self):
        assert expr("0x1F;").raw == "0x1F"


class TestArraysAndObjects:
    def test_array_literal(self):
        node = expr("[1, 2, 3];")
        assert node.type == "ArrayExpression"
        assert len(node.elements) == 3

    def test_array_holes(self):
        node = expr("[1, , 3];")
        assert node.elements[1] is None

    def test_nested_arrays(self):
        node = expr("[[1], [2, [3]]];")
        assert node.elements[1].elements[1].type == "ArrayExpression"

    def test_object_literal(self):
        node = expr("({ a: 1, 'b': 2, 3: 4 });")
        assert node.type == "ObjectExpression"
        assert len(node.properties) == 3

    def test_shorthand_property(self):
        node = expr("({ x });")
        assert node.properties[0].shorthand is True

    def test_computed_key(self):
        node = expr("({ [k]: v });")
        assert node.properties[0].computed is True

    def test_method_shorthand(self):
        node = expr("({ m() { return 1; } });")
        assert node.properties[0].method is True

    def test_getter_setter(self):
        node = expr("({ get x() { return 1; }, set x(v) {} });")
        assert [p.kind for p in node.properties] == ["get", "set"]

    def test_spread_property(self):
        node = expr("({ ...rest });")
        assert node.properties[0].type == "SpreadElement"

    def test_get_as_plain_property_name(self):
        node = expr("({ get: 1, set: 2 });")
        assert [p.key.name for p in node.properties] == ["get", "set"]


class TestArrowFunctions:
    def test_single_param(self):
        node = expr("x => x + 1;")
        assert node.type == "ArrowFunctionExpression"
        assert node.expression is True

    def test_paren_params(self):
        node = expr("(a, b) => a * b;")
        assert len(node.params) == 2

    def test_no_params(self):
        node = expr("() => 42;")
        assert node.params == []

    def test_block_body(self):
        node = expr("x => { return x; };")
        assert node.body.type == "BlockStatement"

    def test_default_and_rest_params(self):
        node = expr("(a = 1, ...rest) => a;")
        assert node.params[0].type == "AssignmentPattern"
        assert node.params[1].type == "RestElement"

    def test_async_arrow(self):
        node = expr("async x => await x;")
        assert getattr(node, "async") is True

    def test_nested_arrows(self):
        node = expr("a => b => a + b;")
        assert node.body.type == "ArrowFunctionExpression"

    def test_parenthesized_expression_not_arrow(self):
        node = expr("(a + b);")
        assert node.type == "BinaryExpression"


class TestDestructuring:
    def test_array_pattern(self):
        statement = first("var [a, b] = pair;")
        assert statement.declarations[0].id.type == "ArrayPattern"

    def test_array_pattern_with_default_and_rest(self):
        statement = first("var [a = 1, , ...rest] = xs;")
        pattern = statement.declarations[0].id
        assert pattern.elements[0].type == "AssignmentPattern"
        assert pattern.elements[1] is None
        assert pattern.elements[2].type == "RestElement"

    def test_object_pattern(self):
        statement = first("var { a, b: c, ...rest } = obj;")
        pattern = statement.declarations[0].id
        assert pattern.type == "ObjectPattern"
        assert pattern.properties[1].value.name == "c"
        assert pattern.properties[2].type == "RestElement"

    def test_nested_pattern(self):
        statement = first("var { a: [x, y] } = obj;")
        inner = statement.declarations[0].id.properties[0].value
        assert inner.type == "ArrayPattern"

    def test_assignment_destructuring(self):
        node = expr("[a, b] = pair;")
        assert node.left.type == "ArrayPattern"

    def test_function_param_destructuring(self):
        statement = first("function f({ a, b }, [c]) {}")
        assert statement.params[0].type == "ObjectPattern"
        assert statement.params[1].type == "ArrayPattern"


class TestModules:
    def test_import_default(self):
        statement = first("import x from 'mod';")
        assert statement.type == "ImportDeclaration"
        assert statement.specifiers[0].type == "ImportDefaultSpecifier"

    def test_import_named(self):
        statement = first("import { a, b as c } from 'mod';")
        assert statement.specifiers[1].local.name == "c"

    def test_import_namespace(self):
        statement = first("import * as ns from 'mod';")
        assert statement.specifiers[0].type == "ImportNamespaceSpecifier"

    def test_import_bare(self):
        statement = first("import 'polyfill';")
        assert statement.specifiers == []

    def test_export_named_declaration(self):
        statement = first("export const x = 1;")
        assert statement.type == "ExportNamedDeclaration"
        assert statement.declaration.type == "VariableDeclaration"

    def test_export_specifiers(self):
        statement = first("export { a, b as c };")
        assert statement.specifiers[1].exported.name == "c"

    def test_export_default(self):
        statement = first("export default function f() {}")
        assert statement.type == "ExportDefaultDeclaration"

    def test_export_all(self):
        statement = first("export * from 'mod';")
        assert statement.type == "ExportAllDeclaration"
        assert statement.exported is None

    def test_export_all_as_namespace(self):
        statement = first("export * as ns from 'mod';")
        assert statement.type == "ExportAllDeclaration"
        assert statement.exported.name == "ns"
        assert statement.source.value == "mod"


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        ["var = 1;", "function () {}", "if (a {", "for (;;", "x ===;",
         "({ a: });", "[1, 2", "class {}", "do x();"],
    )
    def test_invalid_source_raises(self, source):
        with pytest.raises((ParseError, SyntaxError)):
            parse(source)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse("var x = ;")
        assert "line 1" in str(excinfo.value)


class TestRealWorldShapes:
    def test_umd_wrapper(self):
        source = """
        (function (root, factory) {
            if (typeof define === 'function' && define.amd) {
                define(['exports'], factory);
            } else if (typeof exports !== 'undefined') {
                factory(exports);
            } else {
                factory((root.lib = {}));
            }
        }(this, function (exports) {
            'use strict';
            exports.answer = 42;
        }));
        """
        assert parse(source).body[0].type == "ExpressionStatement"

    def test_sample_fixture_parses(self, sample_source):
        program = parse(sample_source)
        assert len(program.body) >= 3

    def test_deeply_nested_expression(self):
        source = "x = " + "(" * 60 + "1" + ")" * 60 + ";"
        assert expr(source).right.value == 1

    def test_long_binary_chain(self):
        source = "total = " + " + ".join(str(i) for i in range(500)) + ";"
        assert expr(source).type == "AssignmentExpression"
