"""Minifier-idiom expansion (inverts ``minification_advanced`` tells).

Rewrites the Closure-class compression idioms back to readable form:
``!0``/``!1`` → ``true``/``false``, ``void 0`` → ``undefined``, and
statement-level sequence expressions back into separate statements.
Layout normalization itself is free — the engine always emits pretty
output — so this pass only has to undo the AST-level fingerprints.
"""

from __future__ import annotations

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.builder import expr_statement, identifier, literal
from repro.js.semantics import is_number, literal_value


def _is_void_zero(node: Node) -> bool:
    return (
        node.type == "UnaryExpression"
        and node.operator == "void"
        and node.argument.type == "Literal"
        and node.argument.value == 0
    )


def _bang_literal(node: Node) -> bool | None:
    """``!0`` → True, ``!1`` → False, anything else → None."""
    if node.operator != "!" or node.argument.type != "Literal":
        return None
    value = literal_value(node.argument)
    return value == 0 if is_number(value) and value in (0, 1) else None


def _would_expand(program: Node, ctx: PassContext) -> bool:
    return any(
        _bang_literal(node) is not None or _is_void_zero(node)
        for node in ctx.nodes(program, "UnaryExpression")
    ) or any(
        statement.expression.type == "SequenceExpression"
        for statement in ctx.nodes(program, "ExpressionStatement")
    )


class UnminifyPass(DeobPass):
    name = "unminify"
    techniques = ("minification_advanced", "minification_simple")

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not _would_expand(program, ctx):
            return PassResult(program)
        edits: dict[int, Node | list[Node]] = {}
        for node in ctx.nodes(program, "UnaryExpression"):
            bang = _bang_literal(node)
            if bang is not None:
                edits[id(node)] = literal(bang, raw="true" if bang else "false")
            elif _is_void_zero(node):
                edits[id(node)] = identifier("undefined")
        # Only statement lists can absorb the extra statements: an
        # `if (x) (a, b);` consequent stays a single statement.
        for block in ctx.nodes(program, "Program", "BlockStatement"):
            for statement in block.body:
                if (
                    statement.type == "ExpressionStatement"
                    and statement.expression.type == "SequenceExpression"
                ):
                    edits[id(statement)] = [
                        expr_statement(expression)
                        for expression in statement.expression.expressions
                    ]
        if not edits:
            return PassResult(program)
        return PassResult(clone(program, edits), len(edits))
