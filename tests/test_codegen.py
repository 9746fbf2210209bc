"""Code generation tests: output shape and parse/generate round-trips."""

import random

import pytest

from repro.js.ast_nodes import to_dict
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import TECHNIQUES, get_transformer


def strip_positions(data):
    if isinstance(data, dict):
        return {
            key: strip_positions(value)
            for key, value in data.items()
            if key not in ("start", "end", "raw")
        }
    if isinstance(data, list):
        return [strip_positions(item) for item in data]
    return data


def assert_roundtrip(source: str) -> None:
    """generate(parse(src)) re-parses to the same AST, in both modes."""
    ast = parse(source)
    reference = strip_positions(to_dict(ast))
    pretty = generate(ast)
    assert strip_positions(to_dict(parse(pretty))) == reference
    compact = generate(ast, compact=True)
    assert strip_positions(to_dict(parse(compact))) == reference


ROUNDTRIP_SOURCES = [
    "var x = 1;",
    "let [a, , b = 2, ...rest] = xs;",
    "const { m, n: o = 3, ...others } = obj;",
    "function f(a, b = a + 1, ...cs) { return cs.length; }",
    "x = a ? b : c ? d : e;",
    "y = (a, b, c);",
    "for (var i = 0, n = xs.length; i < n; i++) f(xs[i]);",
    "for (const key in map) delete map[key];",
    "for (const item of list) total += item;",
    "while (a < b) { a *= 2; }",
    "do { tick(); } while (running);",
    "switch (op) { case '+': add(); break; default: noop(); }",
    "try { risky(); } catch (e) { log(e); } finally { cleanup(); }",
    "label: for (;;) { break label; }",
    "throw new TypeError('bad');",
    "class Point extends Base { constructor(x) { super(x); } get n() { return 1; } static s() {} *g() { yield 1; } }",
    "var o = { a, b: 2, [k]: 3, m() {}, get p() { return 0; }, set p(v) {}, ...rest };",
    "var f = (a, b) => ({ sum: a + b });",
    "var g = async x => await x;",
    "tag`one ${a} two ${b + 1} three`;",
    "a?.b?.[c]?.();",
    "new Foo(bar).baz.qux();",
    "(function () { return 42; })();",
    "x = -(-y);",
    "z = a - -b;",
    "u = +(+v);",
    "w = typeof typeof x;",
    "(1).toString();",
    "x = a / b / c;",
    "var re = /a[/]b/gi;",
    "if (a) if (b) c(); else d();",
    "x = 2 ** 3 ** 4;",
    "x = (2 ** 3) ** 4;",
    "import def, { named as other } from 'mod'; export { def };",
    "export default class {}",
    "debugger;",
    "var s = \"quote \\\" and \\\\ backslash\";",
    "x = a in b;",
    "for (var k = (a in b) ? 0 : 1; k < 2; k++) {}",
    "delete obj[key];",
    "void 0;",
    "x = y = z ??= w;",
    "seq = (a++, --b, c);",
    # trailing holes keep their own comma: `[1, ]` has length 1
    "var a = [1,,];",
    "[,];",
    "[a, ,] = xs;",
]


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES, ids=range(len(ROUNDTRIP_SOURCES)))
def test_roundtrip(source):
    assert_roundtrip(source)


def test_sample_roundtrip(sample_source):
    assert_roundtrip(sample_source)


class TestOutputShape:
    def test_pretty_output_is_indented(self):
        out = generate(parse("function f() { if (a) { b(); } }"))
        assert "\n  if" in out or "\n  if".replace("  ", "    ") in out

    def test_compact_output_single_line(self):
        out = generate(parse("var a = 1;\nvar b = 2;\nfunction f() { return 3; }"), compact=True)
        assert "\n" not in out

    def test_compact_shorter_than_pretty(self):
        source = "function f(alpha, beta) { if (alpha) { return alpha + beta; } return 0; }"
        ast = parse(source)
        assert len(generate(ast, compact=True)) < len(generate(ast))

    def test_comments_dropped(self):
        out = generate(parse("// hi\nvar x = 1; /* block */"))
        assert "hi" not in out and "block" not in out

    def test_object_expression_statement_parenthesised(self):
        out = generate(parse("({ a: 1 });"), compact=True)
        assert out.startswith("(")

    def test_iife_keeps_parens(self):
        out = generate(parse("(function () {})();"), compact=True)
        assert out.startswith("(function")

    def test_negative_argument_spacing(self):
        out = generate(parse("x = a - -b;"), compact=True)
        assert "--" not in out

    def test_string_quotes_preserved_via_raw(self):
        out = generate(parse("var s = 'single';"))
        assert "'single'" in out

    def test_custom_indent(self):
        out = generate(parse("function f() { return 1; }"), indent="    ")
        assert "\n    return" in out

    def test_generate_single_expression(self):
        ast = parse("a + b;").body[0].expression
        assert generate(ast) == "a + b"

    def test_generate_single_statement(self):
        ast = parse("if (x) y();").body[0]
        assert generate(ast).startswith("if")

    def test_else_if_not_wrapped(self):
        out = generate(parse("if (a) x(); else if (b) y();"))
        assert "else if" in out

    def test_dangling_else_disambiguated(self):
        source = "if (a) if (b) c(); else d();"
        reference = strip_positions(to_dict(parse(source)))
        regenerated = generate(parse(source))
        assert strip_positions(to_dict(parse(regenerated))) == reference


class TestTransformedCorpusRoundTrip:
    """Property test: every transformer's output survives parse→generate→parse.

    The deobfuscation engine re-parses its own codegen output each fixpoint
    iteration, so the generator must round-trip structurally on everything
    the transformation corpus can produce — including JSFuck payloads and
    aggressively minified one-liners.
    """

    @pytest.mark.parametrize(
        "technique", list(TECHNIQUES), ids=[t.value for t in TECHNIQUES]
    )
    def test_transformed_corpus_roundtrips(self, technique, regular_corpus):
        transformer = get_transformer(technique)
        rng = random.Random(2024)
        for source in regular_corpus[:4]:
            assert_roundtrip(transformer.transform(source, rng))
