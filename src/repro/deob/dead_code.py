"""Opaque-predicate and dead-branch elimination (inverts ``dead_code``).

Two legs:

- ``if`` statements whose test is statically decidable (literal, or a
  comparison of two literals — the opaque ``"a1b2c" === "d3e4f"`` shape)
  collapse to the live branch or disappear,
- declarations that are never referenced anywhere, carry an
  obfuscator-shaped name (``_0x…`` hex), and whose initializer is
  side-effect-free are dropped (the injector's junk variables and junk
  helper functions).

The name gate keeps the pass from stripping a real API surface out of
benign code — top-level functions may be entry points for code we cannot
see.
"""

from __future__ import annotations

import re

from repro.deob.base import (
    DeobPass,
    PassContext,
    PassResult,
    drop_declarations,
    is_pure_expression,
)
from repro.js.ast_nodes import Node, clone
from repro.js.semantics import static_truth
from repro.js.visitor import walk

_HEX_NAME_RE = re.compile(r"^_0x[0-9a-fA-F]+$")


def _unused_junk_names(program: Node, ctx: PassContext) -> set[str]:
    """Never-referenced ``_0x…`` bindings with effect-free initializers."""
    if not any(map(_HEX_NAME_RE.match, ctx.names(program))):
        return set()
    return {
        binding.name
        for binding in ctx.bindings(program)
        if binding.kind != "global"
        and _HEX_NAME_RE.match(binding.name)
        and not binding.references
        and not binding.assignments
        # The declaration node is the Identifier; purity is judged at
        # removal time against the declarator/function found by name.
        and all(declaration.type == "Identifier" for declaration in binding.declarations)
    }


def _pure_init(init: Node | None) -> bool:
    # init-less declarators stay: a `for (var x of …)` left has no
    # init, and removing it would orphan the loop header.
    return init is not None and is_pure_expression(init)


class DeadCodePass(DeobPass):
    name = "dead-code"
    techniques = ("dead_code_injection",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        edits: dict[int, Node | list] = {}
        dead: list[Node] = []  # branches a fold discards
        for node in ctx.nodes(program, "IfStatement", "ConditionalExpression"):
            truth = static_truth(node.test)
            if truth is None:
                continue
            live, other = (
                (node.consequent, node.get("alternate"))
                if truth
                else (node.get("alternate"), node.consequent)
            )
            edits[id(node)] = [] if live is None else live
            if other is not None:
                dead.append(other)
        rewrites = len(edits)
        junk = _unused_junk_names(program, ctx)
        if junk:
            # Declarations inside a discarded branch go with it uncounted.
            discarded = {id(node) for branch in dead for node in walk(branch)}
            declarations = [
                node
                for node in ctx.nodes(program, "FunctionDeclaration", "VariableDeclaration")
                if id(node) not in discarded
            ]
            rewrites += drop_declarations(declarations, junk, junk, edits, _pure_init)
        if not edits:
            return PassResult(program)
        return PassResult(clone(program, edits), rewrites)
