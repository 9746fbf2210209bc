"""JavaScript value rules against values read off ECMA-262.

Every expected value below is worked from the spec text (ToNumber
§7.1.4, Number::toString §6.1.6.1.20, the Number operators §6.1.6.1,
ToInt32/ToUint16 §7.1.6/§7.1.9, ``String.fromCharCode`` §22.1.2.1,
``escape``/``unescape`` Annex B.2.1) or the HTML ``atob`` algorithm; no
JS engine is involved.  A row whose value has no literal (NaN, the
infinities, -0) shows that every folder refuses it.
"""

import math

import pytest

from repro.deob import DeobEngine
from repro.flows.values import Const, fold_binary
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.semantics import (
    MISS,
    atob,
    binary,
    escape,
    from_char_code,
    has_literal,
    literal_value,
    number_to_string,
    static_truth,
    to_boolean,
    to_int32,
    to_number,
    to_uint32,
    unescape,
)
from repro.rules.context import is_constant_false, is_truthy_literal
from repro.transform.minify_advanced import fold_program


def _same(actual, expected) -> bool:
    """Equal as JS Numbers, with -0 and NaN told apart."""
    if isinstance(expected, float) and math.isnan(expected):
        return isinstance(actual, float) and math.isnan(actual)
    if expected == 0 and actual == 0:
        return math.copysign(1.0, actual) == math.copysign(1.0, expected)
    return actual == expected and type(actual) is not bool


# -- ToString(Number) ---------------------------------------------------------


@pytest.mark.parametrize(
    "value, text",
    [
        (0, "0"),
        (-0.0, "0"),  # step 2: ±0 → "0"
        (1e21, "1e+21"),  # n = 22 > 21: exponent form
        (1e-7, "1e-7"),  # n = -6: exponent form, no zero padding
        (1e16, "10000000000000000"),
        (0.1 + 0.2, "0.30000000000000004"),
        (121932631112635269, "121932631112635260"),  # 123456789 × 987654321
        (1.5e-5, "0.000015"),  # -6 < n ≤ 0
        (1e-6, "0.000001"),
        (123.456, "123.456"),
        (1e100, "1e+100"),
        (-1.5e300, "-1.5e+300"),
        (5e-324, "5e-324"),
        (math.inf, "Infinity"),
        (-math.inf, "-Infinity"),
        (math.nan, "NaN"),
        (9007199254740993, "9007199254740992"),  # the int names its nearest double
    ],
)
def test_number_to_string(value, text):
    assert number_to_string(value) == text


@pytest.mark.parametrize(
    "value, radix, text",
    [(35, 36, "z"), (-255.0, 16, "-ff"), (0, 2, "0"), (10, 10, "10")],
)
def test_number_to_string_radix(value, radix, text):
    assert number_to_string(value, radix) == text


@pytest.mark.parametrize("value, radix", [(1.5, 2), (2.0**60, 36), (10, 37)])
def test_number_to_string_radix_refused(value, radix):
    with pytest.raises(ValueError):
        number_to_string(value, radix)


# -- ToNumber(String) ---------------------------------------------------------


@pytest.mark.parametrize(
    "text, number",
    [
        ("", 0.0),
        (" 12 ", 12.0),
        ("0x10", 16.0),
        ("0b101", 5.0),
        ("1_0", math.nan),  # StrNumericLiteral has no separators
        ("inf", math.nan),
        ("Infinity", math.inf),
        ("1e5", 100000.0),
        ("-0", -0.0),
        ("-0x10", math.nan),  # no sign on a NonDecimalIntegerLiteral
        (".5", 0.5),
        ("5.", 5.0),
        ("\u00a0\n7\ufeff", 7.0),
    ],
)
def test_string_to_number(text, number):
    assert _same(to_number(text), number)


# -- the operators --------------------------------------------------------------


@pytest.mark.parametrize(
    "operator, left, right, value",
    [
        ("*", 1e308, 10, math.inf),
        ("+", 9007199254740992, 1, 9007199254740992),
        ("*", 123456789, 987654321, 121932631112635260.0),
        ("*", -0.0, 1, -0.0),
        ("*", 0, -5, -0.0),
        ("+", 0x20000000000001, 0, 9007199254740992),
        ("%", -1, 3, -1),
        ("%", -7.5, 2, -1.5),
        ("%", -4, 2, -0.0),
        ("%", 5, 0, math.nan),
        ("^", 0xFFFFFFFF, 0, -1),
        ("/", 1, 0, math.inf),
        ("/", -1, 0, -math.inf),
        ("/", 0, 0, math.nan),
        ("/", 7, 2, 3.5),
        ("+", "a", 1.5, "a1.5"),
        ("+", "a", 1e21, "a1e+21"),
        ("+", True, 1, 2),
        ("+", None, "x", "nullx"),
    ],
)
def test_binary(operator, left, right, value):
    result = binary(operator, left, right)
    if isinstance(value, str):
        assert result == value
    else:
        assert _same(result, value)


@pytest.mark.parametrize(
    "value, int32, uint32",
    [(0xFFFFFFFF, -1, 0xFFFFFFFF), (-1.5, -1, 0xFFFFFFFF), (2.0**32 + 5, 5, 5), (math.nan, 0, 0)],
)
def test_to_int32_and_uint32(value, int32, uint32):
    assert to_int32(value) == int32
    assert to_uint32(value) == uint32


def test_to_boolean():
    assert [to_boolean(v) for v in ("", "0", 0, -0.0, math.nan, 2, None, [])] == [
        False, True, False, False, False, True, False, True,
    ]


# -- string built-ins -----------------------------------------------------------


@pytest.mark.parametrize(
    "codes, text",
    [
        ([0x1F600], "\uf600"),  # ToUint16 keeps the low 16 bits
        ([0xD83D, 0xDE00], "\U0001F600"),  # a surrogate pair is one code point
        ([65, -1, 65.9], "A\uffffA"),
    ],
)
def test_from_char_code(codes, text):
    assert from_char_code(codes) == text


@pytest.mark.parametrize(
    "text, binary_string",
    [("w6k=", "\u00c3\u00a9"), ("aGk", "hi"), (" aG k= ", "hi"), ("a", None), ("aGk===", None)],
)
def test_atob_returns_a_binary_string(text, binary_string):
    assert atob(text) == binary_string


def test_escape_and_unescape():
    assert escape("a b\u00e9\u20ac\U0001F600") == "a%20b%E9%u20AC%uD83D%uDE00"
    assert unescape("%u20AC%41%uD83D%uDE00%zz") == "\u20acA\U0001F600%zz"


# -- literals and refusal -------------------------------------------------------


@pytest.mark.parametrize(
    "source, value",
    [
        ("1n;", MISS),  # BigInt is not a Number
        ("0x1fn;", MISS),
        ("/a/;", MISS),
        ("-0;", -0.0),
        ("!'x';", MISS),
    ],
)
def test_literal_value(source, value):
    result = literal_value(parse(source).body[0].expression)
    assert result is value if value is MISS else _same(result, value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.0])
def test_values_without_a_literal(value):
    assert not has_literal(value)


@pytest.mark.parametrize(
    "source, expected",
    [
        ("var y = 1e308 * 10;", "var y = 1e308 * 10;\n"),
        ("var a = 9007199254740992 + 1;", "var a = 9007199254740992;\n"),
        ("var b = 123456789 * 987654321;", "var b = 121932631112635260;\n"),
        ("var c = -0 * 1;", "var c = -0 * 1;\n"),
        ("var d = 0x20000000000001 + 0;", "var d = 9007199254740992;\n"),
        ("var x = 1n + 2n;", "var x = 1n + 2n;\n"),
        ("var z = 10n * 3n;", "var z = 10n * 3n;\n"),
        ("var u = 0x1fn;", "var u = 0x1fn;\n"),  # a hex BigInt is not normalised to 0
        ("var s = String.fromCharCode(0x1F600);", 'var s = "\\uf600";\n'),
        ('var t = atob("w6k=");', 'var t = "\\u00c3\\u00a9";\n'),
    ],
)
def test_deob_folds_to_the_js_value(source, expected):
    assert DeobEngine().run(source).source == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x=1e308*10;", "x=1e308*10;"),
        ("x=-0*1;", "x=-0*1;"),
        ("x=-1%3;", "x=-1;"),
        ("x=1n+2n;", "x=1n+2n;"),
        ("x=10n*3n;", "x=10n*3n;"),
        ("x='a'+1e21;", 'x="a1e+21";'),
    ],
)
def test_minify_folds_to_the_js_value(source, expected):
    assert generate(fold_program(parse(source)), compact=True) == expected


@pytest.mark.parametrize(
    "operator, left, right, value",
    [("%", -1, 3, -1), ("%", -7.5, 2, -1.5), ("^", 0xFFFFFFFF, 0, -1)],
)
def test_fold_binary(operator, left, right, value):
    assert fold_binary(operator, Const(left), Const(right)) == Const(value)


@pytest.mark.parametrize(
    "test, constant_false",
    [
        ("/x/", False),  # a regex is an object: truthy
        ("1n", False),  # a BigInt literal is not the Number 0
        ("0", True),
        ("null", True),
        ("'a' === 'b'", True),
        ("!0 === !1", True),
    ],
)
def test_rules_constant_false_reads_the_shared_literal(test, constant_false):
    assert is_constant_false(parse(f"if ({test}) {{}}").body[0].test) is constant_false


def _test_of(source: str):
    return parse(f"if ({source}) {{}}").body[0].test


@pytest.mark.parametrize(
    "test, truth",
    [
        ("'a'", True),
        ("''", False),
        ("0.0", False),
        ("-0", False),
        ("null", False),
        ("/x/", True),  # a regex is an object
        ("1n", True),  # the parser gives every BigInt the value 0
        ("0n", False),
        ("0x0n", False),
        ("0x10n", True),
        ("!1n", False),
        ("!!'a'", True),
        ("1 === true", False),  # IsStrictlyEqual: different types
        ("1 === 1.0", True),
        ("'a' !== 'a'", False),
        ("null === null", True),
        ("'1' == 1", True),  # IsLooselyEqual: ToNumber('1')
        ("0 == ''", True),
        ("1 == true", True),
        ("'1' == true", True),
        ("null == 0", False),
        ("'' != 0", False),
        ("'b' == 'a'", False),
        ("a", None),
        ("1 < 2", None),
        ("/x/ === /x/", None),  # objects: unsure
        ("1n == 1", None),
        ("'a' + 'b' === 'ab'", None),
    ],
)
def test_static_truth(test, truth):
    assert static_truth(_test_of(test)) is truth


@pytest.mark.parametrize(
    "source, kept, dropped",
    [
        ("if (1 === true) {a()} else {b()}", "b()", "a()"),
        ('if ("1" == 1) {a()} else {b()}', "a()", "b()"),
        ('if (0 == "") {a()} else {b()}', "a()", "b()"),
        ("if (1n) {a()} else {b()}", "a()", "b()"),
    ],
)
def test_dead_code_keeps_the_branch_js_runs(source, kept, dropped):
    result = DeobEngine().run(source)
    assert kept in result.source and dropped not in result.source


@pytest.mark.parametrize("test", ["/x/", "1n", "!0", "true", "'a' === 'a'"])
def test_always_true_loop_tests(test):
    assert is_truthy_literal(parse(f"while ({test}) {{}}").body[0].test)


@pytest.mark.parametrize("test", ["0n", "0", "x", "1 < 2"])
def test_not_always_true_loop_tests(test):
    assert not is_truthy_literal(parse(f"while ({test}) {{}}").body[0].test)


@pytest.mark.parametrize("literal", ["/x/", "1n"])
def test_interproc_reads_no_const_from_regex_or_bigint(literal):
    from repro.flows.interproc import DEFAULT_BUDGET, _Evaluator, _Ticker
    from repro.flows.values import UNKNOWN

    evaluator = _Evaluator({}, {}, DEFAULT_BUDGET, _Ticker(DEFAULT_BUDGET))
    assert evaluator.eval(parse(f"{literal};").body[0].expression, {}, 0) is UNKNOWN
