"""Differential lexing: the rewritten scanner vs the frozen pre-rewrite one.

The table-driven lexer is gated on identity with the reference tokenizer
(``tests/reference_lexer.py``) over everything the corpus generator and
the transformation pipeline emit — on well-formed input the rewrite must
be a pure optimisation.  The known reference *bugs* (template
substitutions containing braced strings, escaped-newline line drift,
regex-after-``this``) are pinned the other way around: the reference is
asserted wrong and the new lexer right, so this file is the
failing-before/passing-after record for each fix.

The feature gate goes further than token streams: full pipeline vectors
(AST n-grams + static features + rule evidence) must be bit-identical
when the parser is fed by either lexer.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.corpus.generator import generate_corpus
from repro.features.extractor import FeatureExtractor
from repro.features.static_features import compute_static_features
from repro.flows.graph import enhance
from repro.js import lexer as new_lexer
from repro.js import parser as parser_module
from repro.js.codegen import generate
from repro.js.lexer import summarize_tokens, tokenize
from repro.js.parser import Parser
from repro.js.tokens import TokenType
from repro.transform import get_transformer
from tests import reference_lexer, reference_parser


def _signature(tokens):
    return [(t.type, t.value, t.start, t.end, t.line, t.column) for t in tokens]


def _corpus() -> list[str]:
    """Generated sources plus every transformer's output over a sample."""
    base = generate_corpus(10, seed=1306)
    rng = random.Random(77)
    out = list(base)
    for name in (
        "minification_simple",
        "minification_advanced",
        "identifier_obfuscation",
        "string_obfuscation",
        "global_array",
        "dead_code_injection",
        "control_flow_flattening",
        "self_defending",
        "debug_protection",
    ):
        transformer = get_transformer(name)
        for source in base[:4]:
            out.append(transformer.transform(source, rng))
    return out


CORPUS = _corpus()

# Inputs both lexers handle correctly: structures where an optimised
# scanner plausibly diverges (maximal munch, trivia batching, line maths).
ADVERSARIAL = [
    "`a${x}b${y}c`",
    "`${ {a: 1}.a }`",
    "`outer${ `inner${x}` }tail`",
    "a / b / c",
    "var re = /[/]/g;",
    "x = a++; b / 2;",
    "for (;;) {}\n/x/.test(y);",
    "switch (x) { case 1: /a/; }",
    "0x1F + 0b101 + 0o17 + 0755 + .5e-2 + 1.5e+3",
    "1..toString()",
    '"\\x41\\u0042\\n" + \'\\\'\'',
    "a\r\nb\rc\nd",
    "x; y; z",
    "/* multi\nline */ x // tail",
    "#!/usr/bin/env node\nvar x;",
    "café + переменная",
    "a\xa0b",
    "...rest ?? x?.y ** 2",
    "`\\${not} ${yes}`",
    "a?.b?.[0]?.(c);",
    "x ??= y ?? z;",
    "x ?? .5",
]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_token_stream_identity(index):
    source = CORPUS[index]
    assert _signature(tokenize(source)) == _signature(
        reference_lexer.tokenize(source)
    )


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_comment_stream_identity(index):
    source = CORPUS[index]
    assert _signature(tokenize(source, include_comments=True)) == _signature(
        reference_lexer.tokenize(source, include_comments=True)
    )


@pytest.mark.parametrize("snippet", ADVERSARIAL)
def test_adversarial_token_stream_identity(snippet):
    assert _signature(tokenize(snippet)) == _signature(
        reference_lexer.tokenize(snippet)
    )


@pytest.mark.parametrize(
    "snippet",
    [
        '"abc',
        '"ab\ncd"',
        "`abc",
        "/* abc",
        "3abc",
        "var x = @;",
        "x = a++ / 2;",  # `++` admits a regex in both lexers; `/ 2;` never closes
        "x = a/*never closed",  # unterminated block comment in division position
        # unterminated string with many plain-run/escape alternations: must
        # fail in linear time (possessive runs), not exponential backtracking
        '"' + ("a" * 7 + "\\x41") * 60,
    ],
)
def test_error_parity(snippet):
    """Rejected inputs raise with the same message and position."""
    with pytest.raises(ValueError) as new_error:
        tokenize(snippet)
    with pytest.raises(ValueError) as old_error:
        reference_lexer.tokenize(snippet)
    assert str(new_error.value) == str(old_error.value)


def test_feature_vectors_bit_identical_over_corpus(monkeypatch):
    """Full pipeline vectors must not move by a single bit."""
    extractor = FeatureExtractor(level=2, ngram_dims=64)
    sample = CORPUS[::4]
    new_vectors = [extractor.extract(source) for source in sample]
    monkeypatch.setattr(parser_module, "Lexer", reference_lexer.Lexer)
    old_vectors = [extractor.extract(source) for source in sample]
    for new_vec, old_vec in zip(new_vectors, old_vectors):
        assert np.array_equal(new_vec, old_vec)


def test_static_features_bit_identical_over_corpus(monkeypatch):
    extractor_names = None
    sample = CORPUS[1::5]
    new_feats = [compute_static_features(enhance(s)) for s in sample]
    monkeypatch.setattr(parser_module, "Lexer", reference_lexer.Lexer)
    old_feats = [compute_static_features(enhance(s)) for s in sample]
    for new_f, old_f in zip(new_feats, old_feats):
        assert new_f == old_f
        if extractor_names is None:
            extractor_names = set(new_f)
    assert extractor_names  # the comparison actually saw features


# -- the three reference bugs: failing before, passing after ----------------


def test_reference_rejects_brace_string_then_backtick_in_substitution():
    """Bug 1 (template sub-scanner): a ``}`` inside a quoted string within
    ``${...}`` zeroed the old depth counter, so a later backtick in the
    same substitution "closed" the template mid-string and the remainder
    failed to lex at all."""
    source = '`${ "}" + "`" }x`;'
    new_tokens = tokenize(source)
    assert [t.type for t in new_tokens][:-1] == [TokenType.TEMPLATE, TokenType.PUNCTUATOR]
    assert new_tokens[0].value == '`${ "}" + "`" }x`'
    with pytest.raises(ValueError):  # frozen bug: unterminated-string error
        reference_lexer.tokenize(source)


def test_reference_truncates_template_on_backtick_after_desync():
    """Bug 1, token-boundary variant: after the depth desync, a nested
    template's backtick terminated the outer token early."""
    source = '`${"}" + `t`}`;'
    assert tokenize(source)[0].value == '`${"}" + `t`}`'
    old_first = reference_lexer.tokenize(source)[0]
    assert old_first.value == '`${"}" + `'  # frozen bug: early termination


def test_reference_drifts_lines_after_template_escaped_newline():
    """Bug 2 (position tracking): ``\\`` + newline in a template advanced
    ``pos`` by two without counting the line, so every later token's
    reported line drifted (Finding locations in rules/ evidence)."""
    source = "`a\\\nb`; x"
    new_x = tokenize(source)[-2]
    assert (new_x.value, new_x.line) == ("x", 2)
    old_x = reference_lexer.tokenize(source)[-2]
    assert old_x.line == 1  # frozen bug: line never advanced


def test_escaped_newline_in_string_agrees_with_reference():
    """The string path already counted continuation newlines; the rewrite
    must keep that (differential, both modes)."""
    source = '"a\\\nb"; x\n"c\\\r\nd"; y'
    assert _signature(tokenize(source)) == _signature(
        reference_lexer.tokenize(source)
    )


def test_keyword_slash_audit_agrees_with_reference():
    """Bug 3 (slash disambiguation audit): the old lexer reached its
    verdict through a 15-entry set plus an allow-everything-except-
    ``this``/``super`` fallthrough; the new set is authoritative.  Both
    must produce division after value keywords and a regex after
    expression-position keywords."""
    for source in (
        "x = this / 2 / i;",
        "super / 2",
        "return /x/;",
        "case /x/:",
        "typeof /x/",
        "void /x/",
    ):
        assert _signature(tokenize(source)) == _signature(
            reference_lexer.tokenize(source)
        ), source


def test_reference_misreads_ternary_before_fractional_number():
    """Bug 4 (``?.`` maximal munch): per spec, ``?.`` is *not* optional
    chaining when a decimal digit follows — ``a?.5:0`` is a ternary over
    the literal ``.5``.  The reference munched ``?.`` unconditionally, so
    the expression failed to parse downstream."""
    source = "a?.5:0;"
    new_types_values = [(t.type, t.value) for t in tokenize(source)][:3]
    assert new_types_values == [
        (TokenType.IDENTIFIER, "a"),
        (TokenType.PUNCTUATOR, "?"),
        (TokenType.NUMERIC, ".5"),
    ]
    old_types_values = [(t.type, t.value) for t in reference_lexer.tokenize(source)][:3]
    assert old_types_values == [
        (TokenType.IDENTIFIER, "a"),
        (TokenType.PUNCTUATOR, "?."),  # frozen bug: chained into the digit
        (TokenType.NUMERIC, "5"),
    ]


def test_optional_chain_digit_guard_in_every_tier():
    """The digit lookahead must hold in both scanners: the flat
    ``findall`` scanner and the per-character exact scanner."""
    source = "a?.5:0;"
    expected = ["a", "?", ".5", ":", "0", ";"]

    # The flat scanner via the public entry point (it handles this source).
    assert [t.value for t in tokenize(source)][:-1] == expected

    # The exact scanner explicitly, one token at a time.
    fallback = new_lexer.Lexer(source)
    while fallback.pos < fallback.length:
        fallback._scan_one()
    assert [t.value for t in fallback.tokens] == expected

    # And the chaining case still munches ``?.``.
    assert [t.value for t in tokenize("a?.b;")][:2] == ["a", "?."]


def test_regex_after_if_paren_diverges_by_design():
    """The `)`-after-`if(...)` ambiguity: the reference always called the
    slash a division (``re`` became an Identifier); the new
    paren-provenance stack recognises the statement parenthesis and lexes
    a regex literal."""
    source = "if (x) /re/.test(y);"
    assert any(t.type is TokenType.REGULAR_EXPRESSION for t in tokenize(source))
    old_types = [t.type for t in reference_lexer.tokenize(source)]
    assert TokenType.REGULAR_EXPRESSION not in old_types  # frozen bug


# -- resuming after the flat scanner stops ------------------------------------


def _with_templates(source: str) -> str:
    """``source`` with `` `t${x}` `` after the first ``;`` token at or past
    each quarter mark, so the flat scanner stops at the first one and the
    exact scanner lexes the rest."""
    cuts = []
    for quarter in (1, 2, 3):
        mark = len(source) * quarter // 4
        for token in reference_lexer.tokenize(source):
            if token.value == ";" and token.end >= mark:
                cuts.append(token.end)
                break
    for cut in sorted(set(cuts), reverse=True):
        source = source[:cut] + "`t${x}`" + source[cut:]
    return source


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_resumed_scan_matches_reference(index):
    source = _with_templates(CORPUS[index])
    live = tokenize(source, include_comments=True)
    assert any(t.type is TokenType.TEMPLATE for t in live)
    assert _signature(live) == _signature(
        reference_lexer.tokenize(source, include_comments=True)
    )
    assert _signature(tokenize(source)) == _signature(reference_lexer.tokenize(source))


def test_resumed_scan_lexes_latin1_identifiers():
    """The exact scanner takes U+0080–U+00FF as identifier characters, as
    the flat scanner and the reference do."""
    source = "`t`; var é = ñ; \xb5\xe9 = 1;"
    assert _signature(tokenize(source)) == _signature(reference_lexer.tokenize(source))


@pytest.mark.parametrize(
    "source",
    [
        "`t`; if (x) /re/.test(y);",
        "if (f(`t`)) /re/.test(y);",  # both "(" are open when the flat scan stops
        "while (a) /b/g.exec(c);",  # the flat scan stops at the slash itself
    ],
)
def test_resumed_scan_rebuilds_statement_parens(source):
    """The flat scanner keeps no paren stack; the exact scanner must still
    know that the ``)`` before the slash closes a statement head."""
    tokens = tokenize(source)
    assert [t.type for t in tokens].count(TokenType.REGULAR_EXPRESSION) == 1


@pytest.mark.parametrize(
    "source",
    [
        'y = /a"b/; z = "c";',  # a phantom string straddles the regex end
        "y = /'/; z = 'q';",
        "a = 1;\r\n`t`;\r\nb = c / d; /* x\r\n */ e;",
        "a = '\\\n'; `t`; b;",
    ],
)
def test_resumed_scan_from_mid_file_matches_reference(source):
    assert _signature(tokenize(source, include_comments=True)) == _signature(
        reference_lexer.tokenize(source, include_comments=True)
    )


def test_resumed_scan_keeps_word_before_identifier_escape():
    """The flat scanner stops at the backslash; the word it already emitted
    is handed back so the escape continues it (the reference has no
    identifier escapes to compare with)."""
    tokens = tokenize("x = 1; in\\u0061 = a\\u{62};")
    assert [(t.type, t.value, t.start) for t in tokens][4:7] == [
        (TokenType.IDENTIFIER, "in\\u0061", 7),
        (TokenType.PUNCTUATOR, "=", 16),
        (TokenType.IDENTIFIER, "a\\u{62}", 18),
    ]


def test_escaped_newline_in_substitution_counts_a_line():
    """A ``\\`` + newline inside ``${ }`` code is still a line break: the
    token after the template is on line 2 and ``y`` on line 3."""
    tokens = tokenize("x=`${ a \\\nb}`;\ny;")
    assert [(t.value, t.line) for t in tokens][3:5] == [(";", 2), ("y", 3)]


# -- numeric separators -------------------------------------------------------


def test_numeric_separators_diverge_by_design():
    """ES2021 ``_`` separators: the reference rejected them, the live lexer
    keeps them in the raw value."""
    source = "var a = 1_000 + 0xFF_FF + 0b1_0 + 0o7_7 + 1.5_5e1_0 + .5_5 + 1_000n;"
    numbers = [t.value for t in tokenize(source) if t.type is TokenType.NUMERIC]
    assert numbers == ["1_000", "0xFF_FF", "0b1_0", "0o7_7", "1.5_5e1_0", ".5_5", "1_000n"]
    with pytest.raises(ValueError, match="Identifier starts immediately after number"):
        reference_lexer.tokenize(source)


@pytest.mark.parametrize("snippet", ["1__0", "1_", "0_1", "07_7", "0x_1", "1._5", "1_.5"])
def test_misplaced_numeric_separator_errors_agree_with_reference(snippet):
    with pytest.raises(ValueError) as new_error:
        tokenize(snippet)
    with pytest.raises(ValueError) as old_error:
        reference_lexer.tokenize(snippet)
    assert str(new_error.value) == str(old_error.value)


# -- codegen round-trip -----------------------------------------------------


ROUND_TRIP = [
    '`${"}"}`;',
    '`${"`"}`;',
    "`a${ `b${x}c` }d`;",
    "var s = `head ${a + b} tail`;",
    "var re = /ab+c/gi;",
    "if (x) { y = a / b; }",
    # optional chaining / nullish coalescing: parse + emit + reparse
    "a?.b.c?.[i]?.(x, y);",
    "x = a ?? b ?? c;",
    "x ??= fallback();",
    "x = (a ?? b) || c;",
    "x = a ?? (b || c);",
    "x = (a && b) ?? (c || d);",
    "x = (a ? b : c) ?? d;",
    "b = a ? .5 : 0;",
    "a?.5:0;",
    "var n = 1_000 + 0xFF_FF + 1.5_5e1_0 + 1_000n;",
    # trailing array holes (`[1,,]` has length 2, `[,]` length 1)
    "var a = [1,,];",
    "[,];",
    "export * as ns from 'm';",
]


@pytest.mark.parametrize(
    "snippet, rendered",
    [
        # ``??`` binds looser than ``||``/``&&`` in the parser, and the
        # spec forbids mixing them without parens: the generator must
        # keep the parens on whichever side carries the ``&&``/``||``.
        ("x = (a ?? b) || c;", "x=(a??b)||c;"),
        ("x = (a || b) ?? c;", "x=(a||b)??c;"),
        ("x = a ?? (b && c);", "x=a??(b&&c);"),
        ("x = (a ? b : c) ?? d;", "x=(a?b:c)??d;"),
        # Ternary over ``.5``: compact output must not fuse ``? .5`` into
        # an optional chain (the lexer's digit guard keeps ``a?.5:0``
        # meaning the same thing on re-parse).
        ("b = a ? .5 : 0;", "b=a?.5:0;"),
    ],
)
def test_nullish_and_optional_chain_compact_rendering(snippet, rendered):
    tree = Parser(snippet).parse_program()
    compact = generate(tree, compact=True)
    assert compact == rendered
    assert generate(Parser(compact).parse_program(), compact=True) == compact


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_codegen_round_trip_over_corpus(index):
    source = CORPUS[index]
    once = generate(Parser(source).parse_program())
    twice = generate(Parser(once).parse_program())
    assert once == twice


@pytest.mark.parametrize("snippet", ROUND_TRIP)
def test_codegen_round_trip_adversarial(snippet):
    once = generate(Parser(snippet).parse_program())
    twice = generate(Parser(once).parse_program())
    assert once == twice


# -- token summary ------------------------------------------------------------


@pytest.mark.parametrize("index", range(0, len(CORPUS), 3))
def test_fast_static_features_match_full_path(index):
    """The src_*/tok_*/str_* block, computed with ``str.count`` and the
    token summary, reproduces the frozen per-character and per-token
    formulas of the reference pipeline bit-for-bit."""
    source = CORPUS[index]
    live = compute_static_features(enhance(source))
    ref = reference_parser.compute_static_features(
        reference_parser.enhance(source)
    )
    names = [name for name in live if name.startswith(("src_", "tok_", "str_"))]
    assert len(names) == 20
    for name in names:
        assert live[name] == ref[name], name


def test_summary_counts_match_stream():
    source = CORPUS[0]
    tokens = tokenize(source, include_comments=True)
    plain = [t for t in tokens if t.type not in (TokenType.EOF, TokenType.COMMENT)]
    comments = [t for t in tokens if t.type is TokenType.COMMENT]
    summary = summarize_tokens(plain, comments)
    assert summary.n_tokens == len(plain)
    assert summary.n_comments == len(comments)
    assert summary.comment_chars == sum(len(c.value) for c in comments)
    strings = [t for t in plain if t.type is TokenType.STRING]
    assert summary.n_strings == len(strings)
    assert summary.string_chars == sum(len(t.value) for t in strings)
    assert summary.identifier_values == [
        t.value for t in plain if t.type is TokenType.IDENTIFIER
    ]
