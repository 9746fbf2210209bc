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
3. removes call statements that only invoke removed names: ``guard();``
   and ``setInterval(guard, 4000);``.  The calls inside a
   ``setInterval(function () { guard(); }, 4000)`` re-arm shell go, and
   the emptied shell stays.
"""

from __future__ import annotations

from repro.deob.base import DeobPass, PassContext, PassResult, drop_declarations
from repro.js.ast_nodes import Node, clone
from repro.js.visitor import walk
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


def _trap_declarations(program: Node, ctx: PassContext) -> set[str]:
    names: set[str] = set()
    for node in ctx.nodes(program, "FunctionDeclaration"):
        identifier = node.get("id")
        if identifier is not None and _contains_trap(node.body):
            names.add(identifier.name)
    for node in ctx.nodes(program, "VariableDeclarator"):
        init = node.get("init")
        if node.id.type == "Identifier" and init is not None and _contains_trap(init):
            names.add(node.id.name)
    return names


def _only_invokes(node: Node, names: set[str]) -> bool:
    """True when the statement's effect is limited to calling ``names``:
    ``guard();``, or ``setInterval(guard, 4000);`` and its ``setTimeout``
    twin."""
    call = node.expression
    if call.type != "CallExpression" or call.callee.type != "Identifier":
        return False
    callee = call.callee.name
    if callee in names:
        return True
    if callee in ("setInterval", "setTimeout") and call.arguments:
        scheduled = call.arguments[0]
        return scheduled.type == "Identifier" and scheduled.name in names
    return False


class TrapRemovalPass(DeobPass):
    name = "trap-removal"
    techniques = ("debug_protection", "self_defending")

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not any(map(_is_trap_constructor_call, ctx.nodes(program, "CallExpression"))):
            return PassResult(program)
        names = _trap_declarations(program, ctx)
        if not names:
            return PassResult(program)
        edits: dict[int, list] = {}
        removed = drop_declarations(
            ctx.nodes(program, "FunctionDeclaration", "VariableDeclaration"), names, names, edits
        )
        for statement in ctx.nodes(program, "ExpressionStatement"):
            if _only_invokes(statement, names):
                edits[id(statement)] = []
                removed += 1
        if not removed:
            return PassResult(program)
        return PassResult(clone(program, edits), removed)
