"""Anti-analysis trap removal (inverts ``debug_protection`` and
``self_defending``).

Both obfuscator.io options plant *constructor-string traps*: a function
object reached at runtime whose body is built from a string —
``(function(){})["constructor"]("debugger")``, ``…("while (true) {}")``,
or the self-defending ``probe["constructor"]('return /" + this + "/')``
regex check.  Statically the traps are recognisable by that call shape,
so the pass:

1. finds declarations (functions or variables) whose subtree contains a
   trap construct and records their names,
2. removes those declarations,
3. removes call statements that only invoke removed names — including
   the ``setInterval(function () { guard(); }, 4000)`` re-arm shell.
"""

from __future__ import annotations

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.visitor import NodeTransformer, walk
from repro.rules.context import prop_name

_TRAP_MARKERS = ("debugger", "while (true)", "while(true)", "return /")


def _is_trap_constructor_call(node: Node) -> bool:
    """``<fn>["constructor"]("<trap body>")(…)`` — the planted shape."""
    if node.type != "CallExpression" or len(node.arguments) != 1:
        return False
    argument = node.arguments[0]
    if argument.type != "Literal" or not isinstance(argument.value, str):
        return False
    callee = node.callee
    if callee.type != "MemberExpression" or prop_name(callee) != "constructor":
        return False
    body = argument.value
    return any(marker in body for marker in _TRAP_MARKERS)


def _contains_trap(node: Node) -> bool:
    return any(_is_trap_constructor_call(child) for child in walk(node))


def _trap_declarations(program: Node) -> set[str]:
    names: set[str] = set()
    for node in walk(program):
        if node.type == "FunctionDeclaration":
            identifier = node.get("id")
            if identifier is not None and _contains_trap(node.body):
                names.add(identifier.name)
        elif node.type == "VariableDeclarator":
            init = node.get("init")
            if (
                node.id.type == "Identifier"
                and init is not None
                and _contains_trap(init)
            ):
                names.add(node.id.name)
    return names


def _only_invokes(node: Node, names: set[str]) -> bool:
    """True when the statement's effect is limited to calling ``names``.

    Matches ``guard();``, ``setInterval(function () { guard(); }, 4000);``
    and ``setTimeout``-shaped re-arms.
    """
    if node.type != "ExpressionStatement":
        return False
    call = node.expression
    if call.type != "CallExpression":
        return False
    callee = call.callee
    if callee.type == "Identifier":
        if callee.name in names:
            return True
        if callee.name in ("setInterval", "setTimeout") and call.arguments:
            scheduled = call.arguments[0]
            if scheduled.type in ("FunctionExpression", "ArrowFunctionExpression"):
                body = scheduled.body
                statements = body.body if body.type == "BlockStatement" else [body]
                return bool(statements) and all(
                    _only_invokes(statement, names)
                    or _bare_call_to(statement, names)
                    for statement in statements
                )
            if scheduled.type == "Identifier" and scheduled.name in names:
                return True
    return False


def _bare_call_to(statement: Node, names: set[str]) -> bool:
    return (
        statement.type == "ExpressionStatement"
        and statement.expression.type == "CallExpression"
        and statement.expression.callee.type == "Identifier"
        and statement.expression.callee.name in names
    )


class _TrapDropper(NodeTransformer):
    def __init__(self, names: set[str]):
        self.names = names
        self.removed = 0

    def visit_FunctionDeclaration(self, node: Node) -> object | None:
        identifier = node.get("id")
        if identifier is not None and identifier.name in self.names:
            self.removed += 1
            return NodeTransformer.REMOVE
        return None

    def visit_VariableDeclaration(self, node: Node) -> object | None:
        kept = [
            declarator
            for declarator in node.declarations
            if not (
                declarator.id.type == "Identifier"
                and declarator.id.name in self.names
            )
        ]
        if len(kept) == len(node.declarations):
            return None
        self.removed += len(node.declarations) - len(kept)
        if not kept:
            return NodeTransformer.REMOVE
        node.declarations = kept
        return None

    def visit_ExpressionStatement(self, node: Node) -> object | None:
        if _only_invokes(node, self.names):
            self.removed += 1
            return NodeTransformer.REMOVE
        return None


class TrapRemovalPass(DeobPass):
    name = "trap-removal"
    techniques = ("debug_protection", "self_defending")

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not any(map(_is_trap_constructor_call, ctx.nodes(program, "CallExpression"))):
            return PassResult(program)
        names = _trap_declarations(program)
        if not names:
            return PassResult(program)
        dropper = _TrapDropper(names)
        work = dropper.transform(clone(program))
        if dropper.removed == 0:
            return PassResult(program)
        return PassResult(work, dropper.removed)
