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
from repro.js.scope import Binding, analyze_scopes
from repro.js.tokens import KEYWORDS
from repro.transform.renaming import _UNSAFE_NAMES, expand_shorthand_properties

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
        if not any(
            _HEX_NAME_RE.match(name) or len(name) <= 2 for name in ctx.names(program)
        ) or not _candidates(ctx.bindings(program)):
            return PassResult(program)
        # The rename goes through the clone's own bindings; shorthand
        # expansion adds no binding, so the candidates are the same ones.
        work = clone(program)
        expand_shorthand_properties(work)
        bindings = list(analyze_scopes(work).iter_all_bindings())
        candidates = _candidates(bindings)

        taken = {binding.name for binding in bindings}
        counters: dict[str, int] = {}
        renamed = 0
        for binding in candidates:
            prefix = _KIND_PREFIX.get(binding.kind, "var")
            while True:
                counters[prefix] = counters.get(prefix, 0) + 1
                new_name = f"{prefix}{counters[prefix]}"
                if new_name not in taken and new_name not in KEYWORDS:
                    break
            taken.add(new_name)
            for node in binding.declarations + binding.references + binding.assignments:
                node.name = new_name
            renamed += 1
        return PassResult(work, renamed)


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

