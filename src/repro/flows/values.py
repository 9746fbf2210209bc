"""Abstract value domain for the interprocedural pass (``flows/interproc``).

The domain is deliberately tiny — it only needs to carry the facts the
decoder-recovery summaries consume:

- :class:`Const` — a known scalar (string, number, boolean, ``null``),
- :class:`StringTable` — a fully-resolved array of strings plus the chain
  of names it was reached through (``decoder → table fn → array``),
- :class:`FunctionVal` — a function expression bound to a local name
  (obfuscator.io's self-memoizing table functions reassign themselves to
  one of these),
- :class:`ParamRef` / :class:`TableLookup` — symbolic values used while
  summarising a candidate decoder body (``arr[i - 0x1f]`` with ``i`` the
  first parameter),
- :data:`UNKNOWN` — everything else.

The module also owns the concrete string-decoding primitives (UTF-8
base64, RC4 keystream mixing) so the deobfuscation layer can *replay* a
summarised decoder in Python without executing any JavaScript.  The RC4
helper mirrors the JavaScript idiom exactly: byte semantics are
``charCodeAt``/``fromCharCode`` over code points < 256 (latin-1), which
is what ``atob`` (:func:`repro.js.semantics.atob`) hands a real decoder.
Folding itself follows :mod:`repro.js.semantics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.js.semantics import atob, binary, is_number


class _Unknown:
    """Singleton bottom/top value: nothing is known."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNKNOWN"


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Const:
    """A statically known scalar (str, int/float, bool, or None)."""

    value: object


@dataclass(frozen=True)
class StringTable:
    """A resolved array of strings and the name chain it came through."""

    values: tuple[str, ...]
    origin: tuple[str, ...] = ()  #: e.g. ("getTable", "_0xdata")


@dataclass(frozen=True)
class FunctionVal:
    """A function node held in a binding (for memoized table functions)."""

    node: object  #: the Function*Expression / Declaration AST node


@dataclass(frozen=True)
class ParamRef:
    """Symbolic reference to the enclosing function's i-th parameter."""

    index: int


@dataclass(frozen=True)
class TableLookup:
    """Symbolic ``table[param ± offset]`` access inside a decoder body.

    ``offset`` is the amount *subtracted* from the call-site index, so the
    stored string for call ``f(0x25)`` is ``table[0x25 - offset]``.
    ``encoded`` marks a lookup routed through ``atob`` before use.
    """

    table: StringTable
    param: int
    offset: int
    encoded: bool = False


Value = object  # Const | StringTable | FunctionVal | ParamRef | TableLookup | _Unknown


# -- concrete decoding primitives ---------------------------------------------


def atob_utf8(value: str) -> str | None:
    """``atob`` read as UTF-8 text, the encoding the transformer's b64 mode uses."""
    decoded = atob(value)
    try:
        return None if decoded is None else decoded.encode("latin-1").decode("utf-8")
    except UnicodeDecodeError:
        return None


def rc4(key: str, data: str) -> str:
    """RC4 over latin-1 code points, mirroring the JavaScript decoder.

    Both arguments are treated as byte strings via ``charCodeAt & 0xFF``
    (the decoder receives ``atob`` output, which is already latin-1).  The
    cipher is symmetric, so this both encrypts and decrypts.
    """
    state = list(range(256))
    j = 0
    key_codes = [ord(ch) & 0xFF for ch in key] or [0]
    for i in range(256):
        j = (j + state[i] + key_codes[i % len(key_codes)]) % 256
        state[i], state[j] = state[j], state[i]
    out: list[str] = []
    x = 0
    y = 0
    for ch in data:
        x = (x + 1) % 256
        y = (y + state[x]) % 256
        state[x], state[y] = state[y], state[x]
        out.append(chr((ord(ch) & 0xFF) ^ state[(state[x] + state[y]) % 256]))
    return "".join(out)


def decode_table_entry(kind: str, stored: str, key: str | None = None) -> str | None:
    """Replay one summarised decoder over a stored table entry.

    ``kind`` is a :class:`~repro.flows.interproc.DecoderSummary` kind:
    ``"index"`` returns the entry as stored, ``"base64"`` decodes it as
    UTF-8 base64, and ``"rc4"`` base64-decodes to a binary string and
    applies the RC4 keystream for ``key``.  Returns ``None`` when the
    stored payload does not decode cleanly — callers must leave the call
    site untouched in that case.
    """
    if kind == "index":
        return stored
    if kind == "base64":
        return atob_utf8(stored)
    if kind == "rc4":
        if key is None:
            return None
        decoded = atob(stored)
        if decoded is None:
            return None
        return rc4(key, decoded)
    return None


# -- abstract folding helpers -------------------------------------------------


def fold_binary(operator: str, left: Value, right: Value) -> Value:
    """Fold ``string + string`` and ``number op number`` for
    ``+ - * % ^`` over two abstract values, to the JavaScript value."""
    if not isinstance(left, Const) or not isinstance(right, Const):
        return UNKNOWN
    lv, rv = left.value, right.value
    if is_number(lv) and is_number(rv):
        if operator in ("+", "-", "*", "%", "^"):
            return Const(binary(operator, lv, rv))
    elif operator == "+" and isinstance(lv, str) and isinstance(rv, str):
        return Const(lv + rv)
    return UNKNOWN


def const_int(value: Value) -> int | None:
    """The integral value of a Const, or None."""
    if (
        isinstance(value, Const)
        and is_number(value.value)
        and float(value.value).is_integer()
    ):
        return int(value.value)
    return None


def const_str(value: Value) -> str | None:
    """The string value of a Const, or None."""
    if isinstance(value, Const) and isinstance(value.value, str):
        return value.value
    return None
