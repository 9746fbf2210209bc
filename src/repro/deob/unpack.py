"""Packer ``eval``-payload unwrapping (inverts the Dean Edwards packer).

Statically detects the canonical wrapper::

    eval(function(p,a,c,k,e,d){…}('payload', 62, count, 'dict'.split('|'), 0, {}))

extracts the packed string, replays the base-62 token substitution in
Python (no JS execution), re-parses the decoded source, and splices the
statements in place of the ``eval`` call.  Plain ``eval("literal")``
calls unwrap the same way.  A payload that does not decode or re-parse
leaves the statement untouched; unwrap count is bounded by the engine's
``max_eval_depth`` budget so nested packers cannot loop forever.
"""

from __future__ import annotations

import re

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.parser import parse
from repro.transform.packer import BASE62

_TOKEN_RE = re.compile(r"\b\w+\b")


def _decode_base62(token: str) -> int | None:
    value = 0
    for char in token:
        index = BASE62.find(char)
        if index < 0:
            return None
        value = value * 62 + index
    return value


def unpack_payload(payload: str, radix: int, words: list[str]) -> str | None:
    """Replay p.a.c.k.e.d's token→word substitution; None on mismatch."""
    if radix != 62 or not words:
        return None

    def _substitute(match: re.Match) -> str:
        token = match.group(0)
        index = _decode_base62(token)
        if index is None or index >= len(words) or not words[index]:
            return token
        return words[index]

    return _TOKEN_RE.sub(_substitute, payload)


def _packer_shape(call: Node) -> tuple[str, int, list[str]] | None:
    """Match ``function(p,a,c,k,e,d){…}('payload',62,n,'dict'.split('|'),…)``."""
    if call.type != "CallExpression" or call.callee.type != "FunctionExpression":
        return None
    if len(call.callee.params) < 4 or len(call.arguments) < 4:
        return None
    payload, radix, _count, dictionary = call.arguments[:4]
    if payload.type != "Literal" or not isinstance(payload.value, str):
        return None
    if radix.type != "Literal" or not isinstance(radix.value, (int, float)):
        return None
    if (
        dictionary.type != "CallExpression"
        or dictionary.callee.type != "MemberExpression"
        or dictionary.callee.property.type != "Identifier"
        or dictionary.callee.property.name != "split"
        or dictionary.callee.object.type != "Literal"
        or not isinstance(dictionary.callee.object.value, str)
        or len(dictionary.arguments) != 1
        or dictionary.arguments[0].type != "Literal"
    ):
        return None
    separator = dictionary.arguments[0].value
    if not isinstance(separator, str):
        return None
    words = dictionary.callee.object.value.split(separator)
    return payload.value, int(radix.value), words


def _decoded_eval_source(call: Node) -> str | None:
    """The statically-recovered source an ``eval(…)`` call would run."""
    if (
        call.type != "CallExpression"
        or call.callee.type != "Identifier"
        or call.callee.name != "eval"
        or len(call.arguments) != 1
    ):
        return None
    argument = call.arguments[0]
    if argument.type == "Literal" and isinstance(argument.value, str):
        return argument.value
    packed = _packer_shape(argument)
    if packed is not None:
        return unpack_payload(*packed)
    return None


class EvalUnwrapPass(DeobPass):
    name = "eval-unwrap"
    techniques = ("minification_simple",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        allowance = ctx.budget.max_eval_depth - ctx.eval_unwraps
        if allowance <= 0:
            return PassResult(program)
        edits: dict[int, list[Node]] = {}
        rewrites = failures = 0
        # The typed list reversed is document order, inner statements
        # before the statements that hold them.
        for statement in reversed(ctx.nodes(program, "ExpressionStatement")):
            if len(edits) >= allowance:
                break
            source = _decoded_eval_source(statement.expression)
            if source is None:
                continue
            try:
                body = parse(source).body
            except Exception:
                failures += 1
                continue
            edits[id(statement)] = body
            rewrites += 1 + len(body)
        if failures and not edits:
            ctx.notes.append("eval-unwrap: payload did not re-parse; left in place")
        if not edits:
            return PassResult(program)
        ctx.eval_unwraps += len(edits)
        return PassResult(clone(program, edits), rewrites)
