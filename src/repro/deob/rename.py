"""Scope-aware identifier re-naming (inverts ``identifier_obfuscation``).

Rebinds obfuscator-shaped names (``_0x1a2b3c`` hex names and — when the
file is saturated with them — minifier-style one/two-character names) to
readable sequential names derived from the binding kind: ``func1``,
``arg2``, ``var3``.  Scope analysis guarantees capture-free renaming;
globals the file never declares keep their names.

This is a *late* pass: it only runs once the structural passes have
reached fixpoint, so evidence keyed on names (string-array accessors,
dispatcher state variables) is consumed before anything is renamed.
"""

from __future__ import annotations

import re

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone
from repro.js.builder import identifier
from repro.js.scope import Binding
from repro.js.tokens import KEYWORDS
from repro.transform.renaming import _UNSAFE_NAMES

_HEX_NAME_RE = re.compile(r"^_0x[0-9a-fA-F]+$")

#: minimum population of short names before they are considered minified
_SHORT_NAME_SATURATION = 8

_KIND_PREFIX = {
    "function": "func",
    "class": "cls",
    "param": "arg",
    "catch": "err",
    "import": "mod",
}


class RenamePass(DeobPass):
    name = "rename"
    techniques = ("identifier_obfuscation", "minification_simple")
    late = True

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        if not any(_HEX_NAME_RE.match(name) or len(name) <= 2 for name in ctx.names(program)):
            return PassResult(program)
        tree, bindings = ctx.scoped(program)
        candidates = _candidates(bindings)
        if not candidates:
            return PassResult(program)
        edits: dict[int, Node] = _unshared(tree, ctx)
        taken = {binding.name for binding in bindings}
        counters: dict[str, int] = {}
        for binding in candidates:
            prefix = _KIND_PREFIX.get(binding.kind, "var")
            while True:
                counters[prefix] = counters.get(prefix, 0) + 1
                new_name = f"{prefix}{counters[prefix]}"
                if new_name not in taken and new_name not in KEYWORDS:
                    break
            taken.add(new_name)
            for node in binding.declarations + binding.references + binding.assignments:
                edits[id(node)] = identifier(new_name)
        return PassResult(clone(tree, edits), len(candidates))


def _unshared(tree: Node, ctx: PassContext) -> dict[int, Node]:
    """Edits that split the identifier nodes the parser shares between two
    slots, so renaming the bound one leaves the other as written.

    A shorthand property ``{x}`` (or pattern ``{x = 1}``) becomes
    ``{x: x}`` with a key of its own, and every shorthand property is
    written out; ``import {x}`` and ``export {x}`` keep their
    module-facing name.
    """
    edits: dict[int, Node] = {}
    for node in ctx.nodes(tree, "Property", "ImportSpecifier", "ExportSpecifier"):
        if node.type == "Property":
            if not node.get("shorthand"):
                continue
            value = node.value
            shares_key = value is node.key or (
                value.type == "AssignmentPattern" and value.left is node.key
            )
            key = identifier(node.key.name) if shares_key else node.key
            edits[id(node)] = _with(node, key=key, shorthand=False)
        elif node.type == "ImportSpecifier" and node.imported is node.local:
            edits[id(node)] = _with(node, imported=identifier(node.imported.name))
        elif node.type == "ExportSpecifier" and node.exported is node.local:
            edits[id(node)] = _with(node, exported=identifier(node.exported.name))
    return edits


def _with(node: Node, **changes) -> Node:
    """A shallow copy of ``node`` with ``changes``; its other children are
    the input's, which the clone copies through the edits."""
    fields = {key: value for key, value in node.fields().items() if key in node._fields}
    fields.update(changes)
    return Node(node.type, **fields)


def _candidates(bindings: list[Binding]) -> list[Binding]:
    """Renameable ``_0x…`` bindings, then short ones when they saturate."""
    renameable = [
        binding
        for binding in bindings
        if binding.kind != "global" and binding.name not in _UNSAFE_NAMES
    ]
    candidates = [b for b in renameable if _HEX_NAME_RE.match(b.name)]
    short_named = [b for b in renameable if len(b.name) <= 2]
    if len(short_named) >= _SHORT_NAME_SATURATION:
        candidates.extend(short_named)
    return candidates

