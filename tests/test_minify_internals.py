"""Unit tests for the advanced minifier's folding internals."""

import random

from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.semantics import MISS as _MISS
from repro.js.semantics import literal_value as _literal_value
from repro.transform.minify_advanced import (
    AdvancedMinifier,
    _compress_statements,
    _single_expression,
    fold_program,
)


def fold(source: str) -> str:
    program = fold_program(parse(source))
    return generate(program, compact=True)


class TestLiteralValue:
    def test_plain_literals(self):
        assert _literal_value(parse("5;").body[0].expression) == 5
        assert _literal_value(parse("'x';").body[0].expression) == "x"

    def test_negative_number(self):
        assert _literal_value(parse("-3;").body[0].expression) == -3

    def test_bang_number(self):
        assert _literal_value(parse("!0;").body[0].expression) is True
        assert _literal_value(parse("!1;").body[0].expression) is False

    def test_identifier_misses(self):
        assert _literal_value(parse("x;").body[0].expression) is _MISS

    def test_regex_misses(self):
        assert _literal_value(parse("/a/;").body[0].expression) is _MISS


class TestFolding:
    def test_nested_arithmetic(self):
        assert "20" in fold("var x = (2 + 3) * 4;")

    def test_division_by_zero_not_folded(self):
        out = fold("var x = 1 / 0;")
        assert "1/0" in out

    def test_string_number_concat(self):
        assert '"v1"' in fold("var s = 'v' + 1;")

    def test_modulo(self):
        assert "1" in fold("var m = 7 % 3;")

    def test_if_true_keeps_consequent(self):
        out = fold("if (true) { keep(); } else { drop(); }")
        assert "keep" in out and "drop" not in out

    def test_if_false_keeps_alternate(self):
        out = fold("if (false) { drop(); } else { keep(); }")
        assert "keep" in out and "drop" not in out

    def test_if_false_no_else_removed(self):
        out = fold("before(); if (false) { drop(); } after();")
        assert "drop" not in out
        assert "before" in out and "after" in out

    def test_mixed_folding_through_bang(self):
        # true was already folded to !0 bottom-up before the if is seen.
        out = fold("if (!false) { keep(); }")
        assert "keep()" in out


class TestCompression:
    def test_unreachable_after_return(self):
        program = parse("function f() { return 1; dead(); }")
        program = fold_program(program)
        body = program.body[0].body.body
        assert len(body) == 1

    def test_hoisted_declarations_survive(self):
        program = parse("function f() { return g(); function g() { return 2; } }")
        program = fold_program(program)
        body = program.body[0].body.body
        assert len(body) == 2

    def test_empty_statements_removed(self):
        out = fold(";;; real();;;")
        assert out.strip(";").count(";") == 0

    def test_sequence_merge_flattens_nested(self):
        out = fold("(a(), b()); c();")
        assert "a(),b(),c()" in out

    def test_compress_statements_direct(self):
        program = parse("x(); y(); var z = 1; w();")
        compressed = _compress_statements(program.body)
        assert compressed[0].expression.type == "SequenceExpression"
        assert compressed[1].type == "VariableDeclaration"


class TestSingleExpression:
    def test_expression_statement(self):
        statement = parse("f();").body[0]
        assert _single_expression(statement).type == "CallExpression"

    def test_single_statement_block(self):
        statement = parse("{ f(); }").body[0]
        assert _single_expression(statement).type == "CallExpression"

    def test_multi_statement_block_misses(self):
        statement = parse("{ f(); g(); }").body[0]
        assert _single_expression(statement) is None

    def test_none(self):
        assert _single_expression(None) is None


class TestEndToEnd:
    def test_output_reparses_and_shrinks(self, sample_source):
        out = AdvancedMinifier().transform(sample_source, random.Random(0))
        parse(out)
        assert len(out) < len(sample_source)

    def test_idempotent_enough(self, sample_source):
        rng = random.Random(0)
        once = AdvancedMinifier().transform(sample_source, rng)
        twice = AdvancedMinifier().transform(once, rng)
        # Second pass cannot grow the code.
        assert len(twice) <= len(once) + 10
