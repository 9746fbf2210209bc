"""Global (string) array obfuscation (§II-A: data obfuscation).

The obfuscator.io "string array" technique: every string literal moves into
one global array; use sites index into it through an accessor function with
an offset, so no string appears in plain text at its point of use.  As with
obfuscator.io's default configuration, identifiers are also renamed to
``_0x`` hex names, which is why samples built with this tool carry two
ground-truth labels.
"""

from __future__ import annotations

import base64
import random

from repro.js.ast_nodes import Node, clone, replace
from repro.js.builder import (
    array,
    binary,
    call,
    function_decl,
    literal,
    member,
    ret,
    string,
    var_decl,
)
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.visitor import walk_with_parents
from repro.transform.base import Technique, Transformer, looks_minified, register
from repro.transform.renaming import hex_name, rename_hex


_KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!&)("

# The obfuscator.io RC4 decoder shape: table read through the memoized
# table function, atob to a binary string, then a charCodeAt/XOR keystream.
_RC4_DECODER_TEMPLATE = """\
function __ACC__(i, k) {
  var t = __TBL__();
  var data = atob(t[i - __OFF__]);
  var S = [];
  var j = 0;
  var c = 0;
  for (c = 0; c < 256; c++) { S[c] = c; }
  for (c = 0; c < 256; c++) {
    j = (j + S[c] + k.charCodeAt(c % k.length)) % 256;
    var swap = S[c];
    S[c] = S[j];
    S[j] = swap;
  }
  var out = '';
  var x = 0;
  var y = 0;
  for (c = 0; c < data.length; c++) {
    x = (x + 1) % 256;
    y = (y + S[x]) % 256;
    swap = S[x];
    S[x] = S[y];
    S[y] = swap;
    out += String.fromCharCode(data.charCodeAt(c) ^ S[(S[x] + S[y]) % 256]);
  }
  return out;
}
"""


def extract_strings_to_array(
    program: Node,
    rng: random.Random,
    min_length: int = 1,
    encoding: str = "none",
    rotate: bool = False,
    decoder: str = "direct",
) -> tuple[Node, int]:
    """``program`` with its string literals hoisted into a global array, and
    how many literals moved.

    ``encoding`` mirrors obfuscator.io's stringArrayEncoding option:
    ``"none"`` stores plain strings, ``"base64"`` stores base64 payloads
    decoded through ``atob`` in the accessor, and ``"rc4"`` stores
    base64-wrapped RC4 ciphertext decoded with a per-call-site key (the
    accessor grows a key parameter and a charcode/XOR keystream loop).
    With ``rotate`` the array is shuffled and a rotation loop restores it
    at startup (the static order no longer matches the index order).

    ``decoder`` selects the accessor shape: ``"direct"`` reads the global
    array straight, ``"selfref"`` reads it through obfuscator.io's
    self-memoizing table function (``function t() { t = function () {
    return arr; }; return t(); }``).  RC4 encoding always routes through
    the self-referencing shape, matching real obfuscator.io output.
    """
    if encoding not in ("none", "base64", "rc4"):
        raise ValueError(f"Unknown string-array encoding {encoding!r}")
    if decoder not in ("direct", "selfref"):
        raise ValueError(f"Unknown string-array decoder {decoder!r}")
    if encoding == "rc4":
        decoder = "selfref"
    array_name = hex_name(rng, 4)
    accessor_name = array_name + "_"
    offset = rng.randint(0x10, 0xFF)

    strings: list[str] = []
    index_of: dict[str, int] = {}
    keys: list[str] = []  # per-string RC4 keys (rc4 encoding only)
    edits: dict[int, Node] = {}

    for node, parent in walk_with_parents(program):
        if parent is None or node.type != "Literal" or not isinstance(node.value, str):
            continue
        if len(node.value) < min_length:
            continue
        if parent.type in ("Property", "MethodDefinition", "PropertyDefinition") and parent.key is node:
            continue
        if parent.type in ("ImportDeclaration", "ExportNamedDeclaration", "ExportAllDeclaration"):
            continue
        value = node.value
        if encoding == "rc4" and any(ord(ch) > 0xFF for ch in value):
            continue  # RC4 runs over atob binary strings (latin-1 only)
        if value not in index_of:
            index_of[value] = len(strings)
            strings.append(value)
            if encoding == "rc4":
                keys.append(
                    "".join(
                        rng.choice(_KEY_ALPHABET) for _ in range(rng.randint(4, 8))
                    )
                )
        index = index_of[value]
        hex_index = literal(index + offset, raw=hex(index + offset))
        arguments = [hex_index]
        if encoding == "rc4":
            arguments.append(string(keys[index]))
        edits[id(node)] = call(accessor_name, arguments)

    if not strings:
        return program, 0
    count = len(edits)

    stored = strings
    if encoding == "base64":
        stored = [
            base64.b64encode(value.encode("utf-8")).decode("ascii") for value in strings
        ]
    elif encoding == "rc4":
        from repro.flows.values import rc4

        stored = [
            base64.b64encode(rc4(key, value).encode("latin-1")).decode("ascii")
            for key, value in zip(keys, strings)
        ]

    rotation = 0
    if rotate and len(stored) > 1:
        rotation = rng.randint(1, len(stored) - 1)
        stored = stored[rotation:] + stored[:rotation]

    # var _0xabcd = ["str0", "str1", ...];
    array_decl = var_decl(array_name, array([string(s) for s in stored]))

    if decoder == "selfref":
        table_name = array_name + "t"
        table_src = (
            f"function {table_name}() {{ {table_name} = function () "
            f"{{ return {array_name}; }}; return {table_name}(); }}"
        )
        if encoding == "rc4":
            accessor_src = (
                _RC4_DECODER_TEMPLATE.replace("__ACC__", accessor_name)
                .replace("__TBL__", table_name)
                .replace("__OFF__", hex(offset))
            )
        else:
            lookup_src = f"t[i - {hex(offset)}]"
            if encoding == "base64":
                lookup_src = f"atob({lookup_src})"
            accessor_src = (
                f"function {accessor_name}(i) {{ var t = {table_name}(); "
                f"return {lookup_src}; }}"
            )
        preamble = [array_decl, *parse(table_src + "\n" + accessor_src).body]
    else:
        lookup = member(
            array_name,
            binary("-", Node("Identifier", name="i", start=0, end=0), literal(offset, raw=hex(offset))),
            computed=True,
        )
        if encoding == "base64":
            lookup = call("atob", [lookup])
        accessor = function_decl(accessor_name, ["i"], [ret(lookup)])
        preamble = [array_decl, accessor]
    if rotation:
        # (function (arr, n) { while (n--) { arr.push(arr.shift()); } })(_0xabcd, k);
        rotate_body = [
            Node(
                "WhileStatement",
                test=Node(
                    "UpdateExpression",
                    operator="--",
                    argument=Node("Identifier", name="n", start=0, end=0),
                    prefix=False,
                    start=0,
                    end=0,
                ),
                body=Node(
                    "BlockStatement",
                    body=[
                        Node(
                            "ExpressionStatement",
                            expression=call(
                                member("arr", "push"),
                                [call(member("arr", "shift"), [])],
                            ),
                            start=0,
                            end=0,
                        )
                    ],
                    start=0,
                    end=0,
                ),
                start=0,
                end=0,
            )
        ]
        from repro.js.builder import function_expr

        rotator = Node(
            "ExpressionStatement",
            expression=call(
                function_expr(["arr", "n"], rotate_body),
                [
                    Node("Identifier", name=array_name, start=0, end=0),
                    literal(len(stored) - rotation),
                ],
            ),
            start=0,
            end=0,
        )
        preamble.append(rotator)
    edits[id(program)] = replace(program, body=preamble + program.body)
    return clone(program, edits), count


class GlobalArrayObfuscator(Transformer):
    """String-array extraction + hex identifier renaming (obfuscator.io).

    ``encoding`` and ``rotate`` mirror obfuscator.io's stringArrayEncoding
    and stringArrayRotate options; the training default randomises them so
    the detector learns the technique, not one configuration.
    """

    technique = Technique.GLOBAL_ARRAY
    labels = frozenset({Technique.GLOBAL_ARRAY, Technique.IDENTIFIER_OBFUSCATION})

    def __init__(
        self,
        encoding: str | None = None,
        rotate: bool | None = None,
        decoder: str | None = None,
    ) -> None:
        self.encoding = encoding
        self.rotate = rotate
        self.decoder = decoder

    def transform(self, source: str, rng: random.Random) -> str:
        encoding = self.encoding if self.encoding is not None else rng.choice(("none", "none", "base64"))
        rotate = self.rotate if self.rotate is not None else rng.random() < 0.3
        decoder = self.decoder if self.decoder is not None else "direct"
        program, _ = extract_strings_to_array(
            parse(source), rng, encoding=encoding, rotate=rotate, decoder=decoder
        )
        program, _ = rename_hex(program, rng)
        return generate(program, compact=looks_minified(source))


register(GlobalArrayObfuscator())
