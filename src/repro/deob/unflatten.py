"""Switch-dispatcher unflattening (inverts ``control_flow_flattening``).

Consumes the R009 rule's typed :class:`DispatcherEvidence`: the order
string recovered from ``var order = "2|0|1".split("|"), i = 0;`` names
the case labels in execution order.  The pass locates the adjacent
declaration + ``while (true) { switch (order[i++]) { … } break; }`` pair
in each statement list, maps case label → statements (dropping the
trailing ``continue``), and splices the statements back in execution
order.  Dispatchers whose order cannot be replayed statically (missing
labels, duplicate labels, extra state mutations) are left untouched.
"""

from __future__ import annotations

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.visitor import walk
from repro.rules.context import is_truthy_literal


def _match_dispatcher(decl: Node, loop: Node) -> tuple[str, list[str], Node] | None:
    """Match a (declaration, loop) pair; returns (state var, order, switch)."""
    if decl.type != "VariableDeclaration" or loop.type != "WhileStatement":
        return None
    if len(decl.declarations) != 2:
        return None
    if not is_truthy_literal(loop.get("test")):
        return None
    body = loop.body
    statements = body.body if body.type == "BlockStatement" else [body]
    switch = next((s for s in statements if s.type == "SwitchStatement"), None)
    if switch is None:
        return None
    # Everything else in the loop body must be a plain `break` — anything
    # more and dropping the loop would lose behaviour.
    for statement in statements:
        if statement is switch:
            continue
        if statement.type != "BreakStatement" or statement.get("label") is not None:
            return None
    discriminant = switch.discriminant
    if (
        discriminant.type != "MemberExpression"
        or not discriminant.get("computed")
        or discriminant.object.type != "Identifier"
        or discriminant.property.type != "UpdateExpression"
        or discriminant.property.operator != "++"
    ):
        return None
    order_name = discriminant.object.name
    counter = discriminant.property.argument
    if counter.type != "Identifier":
        return None
    counter_name = counter.name

    order: list[str] | None = None
    found_counter = False
    for declarator in decl.declarations:
        if declarator.id.type != "Identifier":
            return None
        init = declarator.get("init")
        if declarator.id.name == order_name:
            if (
                init is not None
                and init.type == "CallExpression"
                and init.callee.type == "MemberExpression"
                and init.callee.property.type == "Identifier"
                and init.callee.property.name == "split"
                and init.callee.object.type == "Literal"
                and isinstance(init.callee.object.value, str)
                and len(init.arguments) == 1
                and init.arguments[0].type == "Literal"
                and isinstance(init.arguments[0].value, str)
            ):
                order = init.callee.object.value.split(init.arguments[0].value)
        elif declarator.id.name == counter_name:
            found_counter = (
                init is not None and init.type == "Literal" and init.value == 0
            )
    if order is None or not found_counter:
        return None
    # Neither name may be used outside the dispatcher machinery.
    return order_name, order, switch


def _case_statements(switch: Node, order: list[str]) -> list[Node] | None:
    """Replay the order string over the case map; None when not replayable."""
    by_label: dict[str, list[Node]] = {}
    for case in switch.cases:
        test = case.get("test")
        if test is None or test.type != "Literal" or not isinstance(test.value, str):
            return None
        if test.value in by_label:
            return None
        consequent = list(case.consequent)
        if not consequent or consequent[-1].type != "ContinueStatement":
            return None
        if consequent[-1].get("label") is not None:
            return None
        by_label[test.value] = consequent[:-1]
    if set(order) != set(by_label) or len(order) != len(by_label):
        return None
    replayed: list[Node] = []
    for label in order:
        replayed.extend(by_label[label])
    return replayed


def _state_used_elsewhere(
    container: list[Node], decl: Node, loop: Node, names: set[str]
) -> bool:
    for statement in container:
        if statement is decl or statement is loop:
            continue
        for node in walk(statement):
            if node.type == "Identifier" and node.name in names:
                return True
    return False


def _unflatten_list(statements: list[Node], ctx: PassContext, edits: dict[int, list]) -> int:
    """Edit each replayable dispatcher pair of one statement list into its
    cases in execution order; the number of statements rewritten."""
    rewrites = 0
    index = 0
    while index + 1 < len(statements):
        statement, loop = statements[index], statements[index + 1]
        matched = _match_dispatcher(statement, loop)
        if matched is not None:
            order_name, local_order, switch = matched
            # Prefer the rules engine's recovered order; fall back to
            # the order parsed from the local declaration.
            order = ctx.dispatcher_order(order_name) or local_order
            replayed = _case_statements(switch, order)
            if replayed is not None and not _state_used_elsewhere(
                statements, statement, loop, {order_name}
            ):
                edits[id(statement)] = replayed
                edits[id(loop)] = []
                rewrites += 1 + len(replayed)
                index += 2
                continue
        index += 1
    return rewrites


class UnflattenPass(DeobPass):
    name = "unflatten"
    techniques = ("control_flow_flattening",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not any(_is_dispatcher_loop(loop) for loop in ctx.nodes(program, "WhileStatement")):
            return PassResult(program)
        edits: dict[int, list] = {}
        rewrites = sum(
            _unflatten_list(block.body, ctx, edits)
            for block in ctx.nodes(program, "Program", "BlockStatement")
        )
        if not edits:
            return PassResult(program)
        return PassResult(clone(program, edits), rewrites)


def _is_dispatcher_loop(loop: Node) -> bool:
    """``while (true) { … switch … }``: the loop a dispatcher runs in."""
    if not is_truthy_literal(loop.get("test")):
        return False
    body = loop.body
    statements = body.body if body.type == "BlockStatement" else [body]
    return any(statement.type == "SwitchStatement" for statement in statements)
