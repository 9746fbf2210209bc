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
from repro.js.builder import literal, string
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
from repro.js.visitor import NodeTransformer
from repro.rules.context import prop_name

_ESCAPE_RE = re.compile(r"\\x[0-9a-fA-F]{2}|\\u[0-9a-fA-F]{4}")


def _method_name(call: Node) -> str | None:
    """The method of a ``receiver.method(…)`` / ``receiver["method"](…)`` call."""
    return prop_name(call.callee) if call.callee.type == "MemberExpression" else None


class _Folder(NodeTransformer):
    def __init__(self) -> None:
        self.rewrites = 0

    def _fold(self, node: Node) -> Node:
        self.rewrites += 1
        return node

    def visit_BinaryExpression(self, node: Node) -> Node | None:
        operands = _foldable_operands(node)
        if operands is None:
            return None
        value = binary(node.operator, *operands)
        if not has_literal(value):
            return None  # NaN, ±Infinity and -0 have no literal: keep the code
        return self._fold(literal(value))

    def visit_CallExpression(self, node: Node) -> Node | None:
        folded = self._fold_from_char_code(node)
        if folded is None:
            folded = self._fold_reverse_join(node)
        if folded is None:
            folded = self._fold_decoder(node)
        return folded

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
        codes = [literal_value(argument) for argument in node.arguments]
        if not all(map(is_number, codes)):
            return None
        return self._fold(string(from_char_code(codes)))

    def _fold_reverse_join(self, node: Node) -> Node | None:
        # "fedcba".split("").reverse().join("")
        if _method_name(node) != "join" or not _args_are(node, [""]):
            return None
        reverse = node.callee.object
        if (
            reverse.type != "CallExpression"
            or _method_name(reverse) != "reverse"
            or reverse.arguments
        ):
            return None
        split = reverse.callee.object
        if (
            split.type != "CallExpression"
            or _method_name(split) != "split"
            or not _args_are(split, [""])
        ):
            return None
        source = split.callee.object
        if source.type != "Literal" or not isinstance(source.value, str):
            return None
        return self._fold(string(source.value[::-1]))

    def _fold_decoder(self, node: Node) -> Node | None:
        callee = node.callee
        if callee.type != "Identifier" or len(node.arguments) != 1:
            return None
        argument = node.arguments[0]
        if argument.type != "Literal" or not isinstance(argument.value, str):
            return None
        if callee.name == "atob":
            decoded = atob(argument.value)
            if decoded is None:
                return None
            return self._fold(string(decoded))
        if callee.name == "unescape":
            decoded = unescape(argument.value)
            if decoded == argument.value:
                return None
            return self._fold(string(decoded))
        return None

    def visit_Literal(self, node: Node) -> Node | None:
        if not _raw_needs_normalizing(node):
            return None
        if isinstance(node.value, str):
            return self._fold(string(node.value))
        return self._fold(literal(literal_value(node)))


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


def _foldable_operands(node: Node) -> tuple | None:
    """The literal operands of ``string + string`` or ``number (+|-|*)
    number``, else None."""
    if node.operator not in ("+", "-", "*"):
        return None
    left = literal_value(node.left)
    if left is MISS:
        return None
    right = literal_value(node.right)
    if (is_number(left) and is_number(right)) or (
        node.operator == "+" and type(left) is str and type(right) is str
    ):
        return left, right
    return None


def _args_are(call: Node, values: list) -> bool:
    if len(call.arguments) != len(values):
        return False
    return all(
        argument.type == "Literal" and argument.value == value
        for argument, value in zip(call.arguments, values)
    )


def _would_fold(program: Node, ctx: PassContext) -> bool:
    """Read-only applicability check over the typed node lists."""
    for node in ctx.nodes(program, "BinaryExpression"):
        if _foldable_operands(node) is not None:
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
        work = folder.transform(clone(program))
        if folder.rewrites == 0:
            return PassResult(program)
        return PassResult(work, folder.rewrites)
