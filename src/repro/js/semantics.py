"""JavaScript's value rules (ECMA-262), written once for every folder.

Deob's constant fold, the advanced minifier, the interprocedural value
domain, the JSFuck evaluator and codegen share these, so a fold means
what the program means.  A Number is a ``float``, or an ``int`` standing
for the double nearest it (exact up to 2**53); -0 is only ever ``-0.0``.
A String is a ``str`` of code points, each UTF-16 surrogate pair joined
into one as the lexer stores them.  Booleans are ``bool``, null is
``None``, undefined is :data:`UNDEFINED`; anything else is an object.
"""

from __future__ import annotations

import base64
import math
import re

_SAFE = 2**53

#: What :func:`literal_value` returns for an expression with no literal value.
MISS = object()


class _Undefined:
    """JavaScript's ``undefined``."""


UNDEFINED = _Undefined()


def is_number(value) -> bool:
    return type(value) is int or type(value) is float


def is_primitive(value) -> bool:
    return value is None or value is UNDEFINED or type(value) in (str, float, int, bool)


def has_literal(value) -> bool:
    """False for NaN, ±Infinity and -0: no literal writes them (``NaN``
    and ``Infinity`` are globals a program may shadow), so no fold may
    produce them."""
    return type(value) is not float or (
        math.isfinite(value) and (value != 0 or math.copysign(1.0, value) > 0)
    )


def literal_value(node):
    """The value of a literal (not a regex or a BigInt), of ``-`` over a
    Number literal, or of ``!`` over a Number or Boolean literal; else
    :data:`MISS`."""
    if node.type == "Literal":
        raw = node.get("raw")
        if node.get("regex") is not None or (type(node.value) is int and raw and raw[-1] == "n"):
            return MISS  # a regex, or a BigInt: not a Number (the parser gives it 0)
        return node.value
    if node.type == "UnaryExpression" and node.operator in ("-", "!"):
        inner = literal_value(node.argument)
        if node.operator == "!" and (is_number(inner) or type(inner) is bool):
            return not to_boolean(inner)
        if node.operator == "-" and is_number(inner):
            return -float(inner) if inner == 0 else -inner
    return MISS


# -- type conversion (§7.1) ----------------------------------------------------


def to_boolean(value) -> bool:
    """ToBoolean (§7.1.2); every object is true."""
    if value is None or value is UNDEFINED:
        return False
    if is_number(value):
        return value == value and value != 0
    if type(value) is str:
        return value != ""
    return value if type(value) is bool else True


def static_truth(node) -> bool | None:
    """The truth value of a test expression its literals decide, or
    ``None`` when unsure.

    Covers ToBoolean of a literal (a regex is an object, so true; a
    BigInt is true unless zero) and of :func:`literal_value`'s ``-``/``!``
    forms, ``!`` of a decided test, and ``===``/``!==`` (IsStrictlyEqual,
    §7.2.15) and ``==``/``!=`` (IsLooselyEqual, §7.2.14) over two
    primitive literals.
    """
    node_type = node.type
    if node_type == "Literal":
        if node.get("regex") is not None:
            return True
        raw = node.get("raw")
        if type(node.value) is int and raw and raw[-1] == "n":
            # The parser gives every BigInt 0: read its digits instead.
            digits = raw[2:-1] if raw[:2].lower() in ("0x", "0o", "0b") else raw[:-1]
            return digits.strip("0_") != ""
    elif node_type == "UnaryExpression" and node.operator == "!":
        inner = static_truth(node.argument)
        return None if inner is None else not inner
    elif node_type == "BinaryExpression" and node.operator in ("===", "!==", "==", "!="):
        left, right = literal_value(node.left), literal_value(node.right)
        if left is MISS or right is MISS:
            return None
        strict = node.operator in ("===", "!==")
        equal = _strictly_equal(left, right) if strict else _loosely_equal(left, right)
        return equal if node.operator in ("===", "==") else not equal
    value = literal_value(node)
    return None if value is MISS else to_boolean(value)


def _strictly_equal(x, y) -> bool:
    """IsStrictlyEqual (§7.2.15) of two primitives: NaN is unequal to
    itself, and +0 equals -0."""
    if is_number(x) and is_number(y):
        return x == y
    return type(x) is type(y) and x == y


def _loosely_equal(x, y) -> bool:
    """IsLooselyEqual (§7.2.14) of two primitives."""
    if (is_number(x) and is_number(y)) or type(x) is type(y):
        return _strictly_equal(x, y)
    nullish = (x is None or x is UNDEFINED, y is None or y is UNDEFINED)
    if any(nullish):
        return all(nullish)
    if type(x) is bool or type(x) is str:
        x = to_number(x)
    if type(y) is bool or type(y) is str:
        y = to_number(y)
    return x == y


#: StrWhiteSpaceChar: WhiteSpace and LineTerminator.
_WHITESPACE = (
    "\t\n\v\f\r \u00a0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000\ufeff"
)
_STR_DECIMAL = re.compile(r"[+-]?(?:Infinity|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)\Z")
_NON_DECIMAL = re.compile(r"0(?:[xX][0-9a-fA-F]+|[oO][0-7]+|[bB][01]+)\Z")


def to_number(value):
    """ToNumber (§7.1.4) of a primitive; StringToNumber has no numeric
    separators and no sign before ``0x``/``0o``/``0b``."""
    if is_number(value):
        return value
    if type(value) is str:
        text = value.strip(_WHITESPACE)
        if _STR_DECIMAL.match(text):
            return float(text)
        if _NON_DECIMAL.match(text):
            return _double(int(text[2:], {"x": 16, "o": 8, "b": 2}[text[1].lower()]))
        return math.nan if text else 0.0
    if value is None or type(value) is bool:
        return float(bool(value))
    if value is UNDEFINED:
        return math.nan
    raise TypeError(f"ToNumber of an object ({type(value).__name__})")


def to_string(value) -> str:
    """ToString (§7.1.17) of a primitive."""
    if type(value) is str:
        return value
    if is_number(value):
        return number_to_string(value)
    if type(value) is bool:
        return "true" if value else "false"
    if value is None or value is UNDEFINED:
        return "null" if value is None else "undefined"
    raise TypeError(f"ToString of an object ({type(value).__name__})")


_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def number_to_string(value, radix: int = 10) -> str:
    """Number::toString (§6.1.6.1.20): the shortest round-trip digits
    (Python's ``repr`` finds them), laid out by the spec's exponent rules.

    The spec leaves another radix implementation-approximated for
    fractions and past 2**53, so only safe integers take one; anything
    else raises ``ValueError``.
    """
    if type(value) is int and -_SAFE <= value <= _SAFE and radix == 10:
        return str(value)
    value = _double(value)
    if radix != 10:
        if not (2 <= radix <= 36 and value.is_integer() and abs(value) <= _SAFE):
            raise ValueError(f"no exact radix-{radix} form for {value!r}")
        number, out = abs(int(value)), ""
        while True:
            number, digit = divmod(number, radix)
            out = _DIGITS[digit] + out
            if not number:
                return "-" + out if value < 0 else out
    if value != value or value == 0:
        return "NaN" if value != value else "0"
    if value < 0:
        return "-" + number_to_string(-value)
    if math.isinf(value):
        return "Infinity"
    if value <= _SAFE and value.is_integer():
        return str(int(value))
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    padded = (whole + fraction).rstrip("0")
    digits = padded.lstrip("0")
    k, n = len(digits), len(whole) + int(exponent or 0) - (len(padded) - len(digits))
    if k <= n <= 21:
        return digits + "0" * (n - k)
    if 0 < n <= 21:
        return digits[:n] + "." + digits[n:]
    if -6 < n <= 0:
        return "0." + "0" * -n + digits
    mantissa = digits if k == 1 else digits[0] + "." + digits[1:]
    return f"{mantissa}e{'+' if n > 0 else '-'}{abs(n - 1)}"


def _double(number) -> float:
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def to_uint32(value) -> int:
    """ToUint32 (§7.1.7)."""
    number = _double(to_number(value))
    return int(number) % 2**32 if math.isfinite(number) else 0


def to_int32(value) -> int:
    """ToInt32 (§7.1.6)."""
    number = to_uint32(value)
    return number - 2**32 if number >= 2**31 else number


def to_uint16(value) -> int:
    """ToUint16 (§7.1.9)."""
    return to_uint32(value) % 2**16


# -- the folded operators (§13.15.3, §6.1.6.1) -----------------------------------


def binary(operator: str, left, right):
    """``left <operator> right`` over two primitives, for ``+ - * / % ^``."""
    if operator == "+" and (type(left) is str or type(right) is str):
        return to_string(left) + to_string(right)
    if operator == "^":
        return to_int32(left) ^ to_int32(right)
    # IEEE double arithmetic rounds each exact result once, as JS does.
    x, y = _double(to_number(left)), _double(to_number(right))
    if operator == "+":
        return x + y
    if operator == "-":
        return x - y
    if operator == "*":
        return x * y
    if operator == "/":
        if y != 0:
            return x / y
        return math.nan if x == 0 or x != x else math.copysign(math.inf, x) * math.copysign(1, y)
    if operator == "%":
        if y == 0 or not math.isfinite(x) or y != y:
            return math.nan
        return x if math.isinf(y) or x == 0 else math.fmod(x, y)
    raise ValueError(f"operator {operator!r} is not folded")


# -- string built-ins ----------------------------------------------------------


def _join_surrogates(text: str) -> str:
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def from_char_code(codes) -> str:
    """``String.fromCharCode`` (§22.1.2.1): one code unit per ToUint16."""
    return _join_surrogates("".join(chr(to_uint16(code)) for code in codes))


_UNESCAPED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789@*_+-./")


def escape(text: str) -> str:
    """``escape`` (Annex B.2.1.1), over UTF-16 code units."""
    data = text.encode("utf-16-le", "surrogatepass")
    units = (int.from_bytes(data[i:i + 2], "little") for i in range(0, len(data), 2))
    return "".join(
        chr(unit) if chr(unit) in _UNESCAPED else f"%{unit:02X}" if unit < 256 else f"%u{unit:04X}"
        for unit in units
    )


_ESCAPE_SEQUENCE = re.compile(r"%u([0-9a-fA-F]{4})|%([0-9a-fA-F]{2})")


def unescape(text: str) -> str:
    """``unescape`` (Annex B.2.1.2): ``%XX`` and ``%uXXXX`` decoded."""
    return _join_surrogates(
        _ESCAPE_SEQUENCE.sub(lambda match: chr(int(match.group(1) or match.group(2), 16)), text)
    )


_BASE64 = re.compile(r"[A-Za-z0-9+/]*\Z")


def atob(text: str) -> str | None:
    """``atob`` (HTML forgiving-base64): a binary string, one character
    per byte, or None where ``atob`` throws."""
    text = re.sub(r"[\t\n\f\r ]", "", text)
    if len(text) % 4 == 0 and text.endswith("="):
        text = text[:-2] if text.endswith("==") else text[:-1]
    if len(text) % 4 == 1 or not _BASE64.match(text):
        return None
    return base64.b64decode(text + "=" * (-len(text) % 4)).decode("latin-1")
