"""Constant folding and string rebuilding (inverts ``string_obfuscation``).

The pure-simplification direction only — unlike the advanced minifier's
folder this pass never introduces minifier idioms (``true`` stays
``true``).  It rebuilds plain string literals from:

- ``"ab" + "cd"`` concatenation chains (and literal arithmetic),
- ``String.fromCharCode(104, 105)``,
- ``"fedcba".split("").reverse().join("")`` chains,
- ``atob("aGk=")`` / ``unescape("%68%69")`` over literals,
- escape-saturated literal ``raw`` text (``"\\x68\\x69"`` → plain
  quoting) and hex number raws (``0x1f`` → ``31``).
"""

from __future__ import annotations

import json
import re

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.builder import literal, string, unary
from repro.js.semantics import (
    MISS,
    atob,
    binary,
    from_char_code,
    has_literal,
    is_number,
    literal_value,
    unescape,
)
from repro.rules.context import prop_name

_ESCAPE_RE = re.compile(r"\\x[0-9a-fA-F]{2}|\\u[0-9a-fA-F]{4}")


def _method_name(call: Node) -> str | None:
    """The method of a ``receiver.method(…)`` / ``receiver["method"](…)`` call."""
    return prop_name(call.callee) if call.callee.type == "MemberExpression" else None


class _Folder:
    """Folds children first: each node's replacement is computed once, from
    its children as folded (``String.fromCharCode(104) + "i"``)."""

    def __init__(self) -> None:
        self.edits: dict[int, Node] = {}
        self._folded: dict[int, Node] = {}

    def fold(self, node: Node) -> Node:
        """``node`` as folded: its replacement, or itself."""
        folded = self._folded.get(id(node))
        if folded is None:
            folded = self._folded[id(node)] = self._fold(node)
        return folded

    def _fold(self, node: Node) -> Node:
        node_type = node.type
        if node_type == "UnaryExpression":
            # Kept, but read through its folded operand: `-(1 + 2)` is -3.
            argument = self.fold(node.argument)
            if argument is node.argument or node.operator not in ("-", "!"):
                return node
            return unary(node.operator, argument)
        if node_type == "BinaryExpression":
            folded = self._fold_binary(node)
        elif node_type == "CallExpression":
            folded = (
                self._fold_from_char_code(node)
                or self._fold_reverse_join(node)
                or self._fold_decoder(node)
            )
        elif node_type == "Literal" and _raw_needs_normalizing(node):
            folded = literal(literal_value(node))
        else:
            folded = None
        if folded is None:
            return node
        self.edits[id(node)] = folded
        return folded

    def _fold_binary(self, node: Node) -> Node | None:
        operands = _foldable_operands(node.operator, self.fold(node.left), self.fold(node.right))
        if operands is None:
            return None
        value = binary(node.operator, *operands)
        if not has_literal(value):
            return None  # NaN, ±Infinity and -0 have no literal: keep the code
        return literal(value)

    def _fold_from_char_code(self, node: Node) -> Node | None:
        callee = node.callee
        if (
            callee.type != "MemberExpression"
            or callee.object.type != "Identifier"
            or callee.object.name != "String"
            or _method_name(node) != "fromCharCode"
            or not node.arguments
        ):
            return None
        codes = [literal_value(self.fold(argument)) for argument in node.arguments]
        if not all(map(is_number, codes)):
            return None
        return string(from_char_code(codes))

    def _fold_reverse_join(self, node: Node) -> Node | None:
        # "fedcba".split("").reverse().join("")
        if _method_name(node) != "join" or not self._args_are(node, [""]):
            return None
        reverse = self.fold(node.callee.object)
        if (
            reverse.type != "CallExpression"
            or _method_name(reverse) != "reverse"
            or reverse.arguments
        ):
            return None
        split = self.fold(reverse.callee.object)
        if (
            split.type != "CallExpression"
            or _method_name(split) != "split"
            or not self._args_are(split, [""])
        ):
            return None
        source = self.fold(split.callee.object)
        if source.type != "Literal" or not isinstance(source.value, str):
            return None
        if any(ord(char) > 0xFFFF for char in source.value):
            return None  # JS reverses UTF-16 units and would split the pairs
        return string(source.value[::-1])

    def _fold_decoder(self, node: Node) -> Node | None:
        callee = node.callee
        if callee.type != "Identifier" or len(node.arguments) != 1:
            return None
        argument = self.fold(node.arguments[0])
        if argument.type != "Literal" or not isinstance(argument.value, str):
            return None
        if callee.name == "atob":
            decoded = atob(argument.value)
            if decoded is None:
                return None
            return string(decoded)
        if callee.name == "unescape":
            decoded = unescape(argument.value)
            if decoded == argument.value:
                return None
            return string(decoded)
        return None

    def _args_are(self, call: Node, values: list) -> bool:
        if len(call.arguments) != len(values):
            return False
        return all(
            folded.type == "Literal" and folded.value == value
            for folded, value in zip(map(self.fold, call.arguments), values)
        )


def _raw_needs_normalizing(node: Node) -> bool:
    """True when the literal's raw text hides the value behind escapes.

    The canonical-quoting comparison keeps this idempotent: a literal the
    codegen already prints plainly never re-fires.
    """
    raw = node.get("raw")
    if raw is None:
        return False
    if isinstance(node.value, str):
        return raw != json.dumps(node.value) and bool(_ESCAPE_RE.search(raw))
    if is_number(literal_value(node)):
        return raw[:2].lower() in ("0x", "0o", "0b")
    return False


def _foldable_operands(operator: str, left: Node, right: Node) -> tuple | None:
    """The literal operands of ``string + string`` or ``number (+|-|*)
    number``, else None."""
    if operator not in ("+", "-", "*"):
        return None
    left = literal_value(left)
    if left is MISS:
        return None
    right = literal_value(right)
    if (is_number(left) and is_number(right)) or (
        operator == "+" and type(left) is str and type(right) is str
    ):
        return left, right
    return None


def _would_fold(program: Node, ctx: PassContext) -> bool:
    """Read-only applicability check over the typed node lists."""
    for node in ctx.nodes(program, "BinaryExpression"):
        if _foldable_operands(node.operator, node.left, node.right) is not None:
            return True
    if any(map(_raw_needs_normalizing, ctx.nodes(program, "Literal"))):
        return True
    for node in ctx.nodes(program, "CallExpression"):
        if _method_name(node) in ("fromCharCode", "join"):
            return True
        callee = node.callee
        if callee.type == "Identifier" and callee.name in ("atob", "unescape"):
            return True
    return False


class ConstantFoldPass(DeobPass):
    name = "constant-fold"
    techniques = ("string_obfuscation",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not _would_fold(program, ctx):
            return PassResult(program)
        folder = _Folder()
        for node in ctx.nodes(program, "Literal", "BinaryExpression", "CallExpression"):
            folder.fold(node)
        if not folder.edits:
            return PassResult(program)
        return PassResult(clone(program, folder.edits), len(folder.edits))
