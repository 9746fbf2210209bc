"""String obfuscation (§II-A: data obfuscation).

Covers the string-manipulation family the paper monitors: splitting and
concatenating, hex/unicode escape encoding (the *custom-encoding* tool),
``String.fromCharCode`` building, and reversal (gnirts-style, no encoding
escape).  Each string literal gets one randomly chosen method.
"""

from __future__ import annotations

import random

from repro.js.ast_nodes import Node
from repro.js.builder import binary, call, literal, member, string
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.visitor import walk_with_parents
from repro.transform.base import Technique, Transformer, looks_minified, register


def _split_concat(value: str, rng: random.Random) -> Node:
    """``"abcdef"`` → ``"ab" + "cd" + "ef"``."""
    parts: list[str] = []
    index = 0
    while index < len(value):
        size = rng.randint(1, max(1, len(value) // 2))
        parts.append(value[index : index + size])
        index += size
    if len(parts) == 1:
        mid = max(1, len(value) // 2)
        parts = [value[:mid], value[mid:]]
    node: Node = string(parts[0])
    for part in parts[1:]:
        node = binary("+", node, string(part))
    return node


def _code_units(value: str) -> list[int]:
    """``value``'s UTF-16 code units, as a JavaScript string holds it (a
    character past U+FFFF is a surrogate pair)."""
    data = value.encode("utf-16-le", "surrogatepass")
    return [int.from_bytes(data[i : i + 2], "little") for i in range(0, len(data), 2)]


def _hex_escape(value: str) -> Node:
    """Encode every code unit as a ``\\xNN`` / ``\\uNNNN`` escape."""
    encoded = [
        f"\\x{unit:02x}" if unit <= 0xFF else f"\\u{unit:04x}" for unit in _code_units(value)
    ]
    raw = '"' + "".join(encoded) + '"'
    return literal(value, raw=raw)


def _from_char_code(value: str) -> Node:
    """``String.fromCharCode(97, 98, …)``, one code unit per argument."""
    args = [literal(unit) for unit in _code_units(value)]
    return call(member("String", "fromCharCode"), args)


def _reverse_join(value: str) -> Node:
    """``"fedcba".split("").reverse().join("")`` (gnirts-style); only for
    strings within the Basic Multilingual Plane."""
    reversed_literal = string(value[::-1])
    split_call = call(member(reversed_literal, "split"), [string("")])
    reverse_call = call(member(split_call, "reverse"), [])
    return call(member(reverse_call, "join"), [string("")])


_METHODS = (_split_concat, _hex_escape, _from_char_code, _reverse_join)


def obfuscate_string_literals(
    program: Node,
    rng: random.Random,
    probability: float = 1.0,
    min_length: int = 2,
    methods: tuple = _METHODS,
) -> int:
    """Replace eligible string literals in place; returns how many changed."""
    replacements: list[tuple[Node, str, int | None, Node]] = []
    from repro.js.ast_nodes import iter_fields

    for node, parent in walk_with_parents(program):
        if parent is None or node.type != "Literal" or not isinstance(node.value, str):
            continue
        if len(node.value) < min_length:
            continue
        # Keep property keys, import sources and directive prologues intact.
        if parent.type in ("Property", "MethodDefinition", "PropertyDefinition") and parent.key is node:
            continue
        if parent.type in ("ImportDeclaration", "ExportNamedDeclaration", "ExportAllDeclaration"):
            continue
        if rng.random() > probability:
            continue
        # JavaScript's split("") reverses UTF-16 units, which would break
        # a surrogate pair apart: no reversal past U+FFFF.
        choices = (
            methods
            if max(node.value, default="") <= "\uffff"
            else tuple(method for method in methods if method is not _reverse_join)
        )
        if not choices:
            continue
        method = rng.choice(choices)
        if method is _split_concat:
            replacement = method(node.value, rng)
        elif method is _hex_escape or method is _from_char_code or method is _reverse_join:
            replacement = method(node.value)
        for field, value in iter_fields(parent):
            if value is node:
                replacements.append((parent, field, None, replacement))
                break
            if isinstance(value, list):
                found = False
                for pos, item in enumerate(value):
                    if item is node:
                        replacements.append((parent, field, pos, replacement))
                        found = True
                        break
                if found:
                    break
    for parent, field, pos, replacement in replacements:
        if pos is None:
            setattr(parent, field, replacement)
        else:
            getattr(parent, field)[pos] = replacement
    return len(replacements)


_METHOD_BY_NAME = {
    "split": _split_concat,
    "hex": _hex_escape,
    "charcode": _from_char_code,
    "reverse": _reverse_join,
}


class StringObfuscator(Transformer):
    """Split/encode/rebuild string literals.

    ``methods`` restricts the technique mix (names: ``split``, ``hex``,
    ``charcode``, ``reverse`` — the gnirts / custom-encoding flavours);
    ``probability`` controls how many literals are rewritten.
    """

    technique = Technique.STRING_OBFUSCATION
    labels = frozenset({Technique.STRING_OBFUSCATION})

    def __init__(
        self,
        methods: tuple[str, ...] | None = None,
        probability: float = 1.0,
        min_length: int = 2,
    ) -> None:
        if methods is not None:
            unknown = set(methods) - set(_METHOD_BY_NAME)
            if unknown:
                raise ValueError(f"Unknown string methods: {sorted(unknown)}")
        self.methods = methods
        self.probability = probability
        self.min_length = min_length

    def transform(self, source: str, rng: random.Random) -> str:
        program = parse(source)
        chosen = (
            tuple(_METHOD_BY_NAME[name] for name in self.methods)
            if self.methods is not None
            else _METHODS
        )
        obfuscate_string_literals(
            program,
            rng,
            probability=self.probability,
            min_length=self.min_length,
            methods=chosen,
        )
        return generate(program, compact=looks_minified(source))


register(StringObfuscator())
