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

from repro.deob.base import DeobPass, PassContext, PassResult, is_pure_expression
from repro.js.ast_nodes import Node, clone
from repro.js.visitor import NodeTransformer

_HEX_NAME_RE = re.compile(r"^_0x[0-9a-fA-F]+$")

_COMPARISONS = {
    "===": lambda a, b: a is b or a == b,
    "!==": lambda a, b: not (a is b or a == b),
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def static_truth(test: Node) -> bool | None:
    """The compile-time truth value of a test expression, or ``None``."""
    if test.type == "Literal" and test.get("regex") is None:
        return bool(test.value)
    if test.type == "UnaryExpression" and test.operator == "!" and test.get("prefix"):
        inner = static_truth(test.argument)
        return None if inner is None else not inner
    if test.type == "BinaryExpression" and test.operator in _COMPARISONS:
        left, right = test.left, test.right
        if (
            left.type == "Literal"
            and right.type == "Literal"
            and left.get("regex") is None
            and right.get("regex") is None
        ):
            return bool(_COMPARISONS[test.operator](left.value, right.value))
    return None


class _BranchFolder(NodeTransformer):
    def __init__(self) -> None:
        self.rewrites = 0

    def visit_IfStatement(self, node: Node) -> Node | list | object | None:
        truth = static_truth(node.test)
        if truth is None:
            return None
        self.rewrites += 1
        if truth:
            return node.consequent
        if node.get("alternate") is not None:
            return node.alternate
        return NodeTransformer.REMOVE

    def visit_ConditionalExpression(self, node: Node) -> Node | None:
        truth = static_truth(node.test)
        if truth is None:
            return None
        self.rewrites += 1
        return node.consequent if truth else node.alternate


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


def _is_junk(node: Node, junk: set[str]) -> bool:
    """A function declaration or variable declarator the dropper removes."""
    if node.type == "FunctionDeclaration":
        identifier = node.get("id")
        return identifier is not None and identifier.name in junk
    return (
        node.id.type == "Identifier"
        and node.id.name in junk
        # init-less declarators stay: a `for (var x of …)` left has no
        # init, and removing it would orphan the loop header.
        and node.get("init") is not None
        and is_pure_expression(node.init)
    )


class _JunkDropper(NodeTransformer):
    def __init__(self, junk: set[str]):
        self.junk = junk
        self.removed = 0

    def visit_FunctionDeclaration(self, node: Node) -> object | None:
        if _is_junk(node, self.junk):
            self.removed += 1
            return NodeTransformer.REMOVE
        return None

    def visit_VariableDeclaration(self, node: Node) -> object | None:
        kept = [
            declarator
            for declarator in node.declarations
            if not _is_junk(declarator, self.junk)
        ]
        if len(kept) == len(node.declarations):
            return None
        self.removed += len(node.declarations) - len(kept)
        if not kept:
            return NodeTransformer.REMOVE
        node.declarations = kept
        return None


class DeadCodePass(DeobPass):
    name = "dead-code"
    techniques = ("dead_code_injection",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        has_branch = any(
            static_truth(node.test) is not None
            for node in ctx.nodes(program, "IfStatement", "ConditionalExpression")
        )
        junk = _unused_junk_names(program, ctx)
        # Without a branch to fold, the pass fires only if the dropper
        # finds a declaration to remove (junk parameters it leaves alone).
        if not has_branch and not (
            junk
            and any(
                _is_junk(node, junk)
                for node in ctx.nodes(program, "FunctionDeclaration", "VariableDeclarator")
            )
        ):
            return PassResult(program)

        work = clone(program)
        rewrites = 0
        if has_branch:
            folder = _BranchFolder()
            work = folder.transform(work)
            rewrites += folder.rewrites
        if junk:
            dropper = _JunkDropper(junk)
            work = dropper.transform(work)
            rewrites += dropper.removed
        if rewrites == 0:
            return PassResult(program)
        return PassResult(work, rewrites)
