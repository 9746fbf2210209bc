"""Control-flow flattening (§II-A: logic structure obfuscation).

Implements the classic technique obfuscator.io popularised [23]: the
statements of a function body (or of the top level) move into a ``switch``
inside an infinite ``while`` loop; a shuffled order string drives the
dispatcher, so the static statement order no longer reflects execution
order::

    var order = "2|0|1".split("|"), i = 0;
    while (true) {
        switch (order[i++]) {
            case "0": …; continue;
        }
        break;
    }

Function declarations are hoisted out of the dispatcher (they must stay
directly in the function body), and bodies whose statements could interact
badly with the dispatcher (free ``break``/``continue``, lexical
declarations used across statements) are left untouched — the same
conservative behaviour real flatteners exhibit.
"""

from __future__ import annotations

import random

from repro.js.ast_nodes import Node, clone, iter_child_nodes, replace
from repro.js.builder import (
    block,
    break_stmt,
    call,
    continue_stmt,
    identifier,
    literal,
    member,
    multi_var_decl,
    string,
    switch,
    switch_case,
    update,
    while_stmt,
)
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.scope import FUNCTION_TYPES
from repro.transform.base import Technique, Transformer, looks_minified, register
from repro.transform.renaming import hex_name, rename_hex

_LOOP_TYPES = frozenset(
    {"ForStatement", "ForInStatement", "ForOfStatement", "WhileStatement", "DoWhileStatement"}
)


def _has_free_break_or_continue(statement: Node) -> bool:
    """True if the statement could break/continue out of an enclosing loop."""

    def scan(node: Node, loop_depth: int, switch_depth: int) -> bool:
        if node.type in _LOOP_TYPES:
            loop_depth += 1
        elif node.type == "SwitchStatement":
            switch_depth += 1
        elif node.type in FUNCTION_TYPES:
            return False  # break/continue cannot cross function boundaries
        elif node.type == "BreakStatement":
            if node.get("label") is not None:
                return True
            if loop_depth == 0 and switch_depth == 0:
                return True
        elif node.type == "ContinueStatement":
            if node.get("label") is not None or loop_depth == 0:
                return True
        return any(scan(child, loop_depth, switch_depth) for child in iter_child_nodes(node))

    return scan(statement, 0, 0)


def _flattenable(statements: list[Node]) -> bool:
    if len(statements) < 3:
        return False
    for statement in statements:
        if statement.type in (
            "ImportDeclaration",
            "ExportNamedDeclaration",
            "ExportDefaultDeclaration",
            "ExportAllDeclaration",
        ):
            return False
        if _has_free_break_or_continue(statement):
            return False
    return True


def _demoted(statement: Node) -> Node:
    """``let``/``const`` at dispatcher level would not survive the switch
    cases as separate scopes — demote them to ``var`` (function-scoped)."""
    if statement.type == "VariableDeclaration" and statement.kind in ("let", "const"):
        return replace(statement, kind="var")
    return statement


def flatten_statement_list(
    statements: list[Node], rng: random.Random
) -> list[Node] | None:
    """The flattened copy of one statement list; ``None`` when the list is
    not eligible.  The input statements are moved, not changed."""
    if not _flattenable(statements):
        return None
    hoisted = [s for s in statements if s.type == "FunctionDeclaration"]
    dispatchable = [s for s in statements if s.type != "FunctionDeclaration"]
    if len(dispatchable) < 3:
        return None
    dispatchable = [_demoted(statement) for statement in dispatchable]

    # Statement i gets random case label labels[i]; the order string lists
    # the labels in execution order, while the case bodies are shuffled in
    # the switch so static order no longer matches execution order.
    labels = list(range(len(dispatchable)))
    rng.shuffle(labels)
    order_string = "|".join(str(label) for label in labels)

    order_name = hex_name(rng, 4)
    counter_name = order_name + "i"

    cases = [
        switch_case(string(str(label)), [statement, continue_stmt()])
        for label, statement in zip(labels, dispatchable)
    ]
    rng.shuffle(cases)

    dispatcher = [
        multi_var_decl(
            [
                (
                    order_name,
                    call(member(string(order_string), "split"), [string("|")]),
                ),
                (counter_name, literal(0)),
            ]
        ),
        while_stmt(
            literal(True, raw="true"),
            block(
                [
                    switch(
                        member(
                            identifier(order_name),
                            update("++", identifier(counter_name)),
                            computed=True,
                        ),
                        cases,
                    ),
                    break_stmt(),
                ]
            ),
        ),
    ]
    return hoisted + dispatcher


def flatten_program(program: Node, rng: random.Random) -> tuple[Node, int]:
    """``program`` with its top level and every eligible function body
    flattened, and how many were.

    Function bodies flatten in pre-order over the flattened tree, so a
    nested function's turn (and its rng draws) follows its shuffled case.
    """
    edits: dict[int, Node] = {}
    stack = [program]
    while stack:
        node = stack.pop()
        if node.type in FUNCTION_TYPES and node.body.type == "BlockStatement":
            result = flatten_statement_list(node.body.body, rng)
            if result is not None:
                edits[id(node.body)] = replace(node.body, body=result)
        stack.extend(reversed(list(iter_child_nodes(edits.get(id(node), node)))))
    result = flatten_statement_list(program.body, rng)
    if result is not None:
        edits[id(program)] = replace(program, body=result)
    return clone(program, edits), len(edits)


class ControlFlowFlattener(Transformer):
    """Switch-dispatcher flattening + hex renaming (obfuscator.io style)."""

    technique = Technique.CONTROL_FLOW_FLATTENING
    labels = frozenset(
        {Technique.CONTROL_FLOW_FLATTENING, Technique.IDENTIFIER_OBFUSCATION}
    )

    def transform(self, source: str, rng: random.Random) -> str:
        program, _ = flatten_program(parse(source), rng)
        program, _ = rename_hex(program, rng)
        return generate(program, compact=looks_minified(source))


register(ControlFlowFlattener())
