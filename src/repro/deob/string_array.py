"""String-array inlining + rotation undo (inverts ``global_array``).

Consumes the rules engine's typed :class:`StringArrayEvidence` (array
name, accessor, offset, encoding) rather than re-deriving the shape.  For
each evidenced array the pass:

1. reads the stored strings from the array declaration,
2. undoes the startup rotation by statically replaying the
   ``(function(arr,n){while(n--){arr.push(arr.shift());}})(arr, n)``
   rotator (rotate-left by ``n``),
3. replaces every ``accessor(0x1f)`` call site with the recovered string
   literal (base64-decoding when the accessor routes through ``atob``),
4. drops the array declaration, the accessor function, and the rotator.

When the findings carry :class:`DecoderEvidence` (R013/R014), the pass
additionally reads the state's interprocedural summaries
(``repro.flows.interproc``, which those rules already computed) and
inlines decoder **calls** — accessors the direct path cannot see because
the table hides behind a self-memoizing function or the entries need an
RC4 keystream replay.  The decoded
string for ``dec(0x25, 'key')`` comes from
:func:`repro.flows.values.decode_table_entry` over the summary's
resolved table; the decoder, its table function, the array, and the
rotator are dropped once every call site resolved.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.deob.base import DeobPass, PassContext, PassResult, drop_declarations
from repro.flows.values import atob_utf8, decode_table_entry
from repro.js.ast_nodes import Node, clone
from repro.js.builder import string
from repro.js.visitor import walk


def _literal_int(node: Node | None) -> int | None:
    if (
        node is not None
        and node.type == "Literal"
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and float(node.value).is_integer()
    ):
        return int(node.value)
    return None


def _array_strings(declarator: Node) -> list[str] | None:
    """The stored strings of ``var arr = ["a", "b", …]``, or None."""
    init = declarator.get("init")
    if init is None or init.type != "ArrayExpression":
        return None
    values: list[str] = []
    for element in init.elements:
        if element is None or element.type != "Literal" or not isinstance(element.value, str):
            return None
        values.append(element.value)
    return values


def _rotation_amount(statement: Node, array_name: str) -> int | None:
    """Rotate-left count of a push/shift rotator IIFE over ``array_name``."""
    if statement.type != "ExpressionStatement":
        return None
    call = statement.expression
    if call.type != "CallExpression" or len(call.arguments) != 2:
        return None
    if call.callee.type != "FunctionExpression":
        return None
    target, amount = call.arguments
    if target.type != "Identifier" or target.name != array_name:
        return None
    count = _literal_int(amount)
    if count is None:
        return None
    has_push_shift = any(
        node.type == "CallExpression"
        and node.callee.type == "MemberExpression"
        and node.callee.property.type == "Identifier"
        and node.callee.property.name == "push"
        and len(node.arguments) == 1
        and node.arguments[0].type == "CallExpression"
        and node.arguments[0].callee.type == "MemberExpression"
        and node.arguments[0].callee.property.type == "Identifier"
        and node.arguments[0].callee.property.name == "shift"
        for node in walk(call.callee.body)
    )
    return count if has_push_shift else None


class _Plan:
    """One fully-resolved array: strings by call-site index, dead names."""

    def __init__(self, accessor: str, offset: int, values: dict[int, str], array: str):
        self.accessor = accessor
        self.offset = offset
        self.values = values
        self.array = array

    def decode(self, arguments: list[Node]) -> str | None:
        """The string ``accessor(0x1f)`` reads."""
        return self.values.get(_literal_int(arguments[0])) if len(arguments) == 1 else None


def _decoded_call(decoder, arguments: list[Node]) -> str | None:
    """The string a constant-argument call to a summarised decoder (index,
    base64 or rc4 kind) returns, or None."""
    if len(arguments) != (2 if decoder.kind == "rc4" else 1):
        return None
    key = None
    if decoder.kind == "rc4":
        if arguments[1].type != "Literal" or not isinstance(arguments[1].value, str):
            return None
        key = arguments[1].value
    index = _literal_int(arguments[0])
    if index is None or not 0 <= index - decoder.offset < len(decoder.table):
        return None
    return decode_table_entry(decoder.kind, decoder.table[index - decoder.offset], key)


def _inline_calls(
    calls: list[Node], decoders: dict[str, Callable], edits: dict[int, Node | list]
) -> set[str]:
    """Edit each call to a name in ``decoders`` into the string its decoder
    reads off the call's arguments; the names with a call site that did
    not resolve.  A call or argument an earlier edit rewrote is read as
    rewritten."""
    unresolved: set[str] = set()
    for node in calls:
        callee = node.callee
        if callee.type != "Identifier" or callee.name not in decoders or id(node) in edits:
            continue
        arguments = [edits.get(id(argument), argument) for argument in node.arguments]
        value = decoders[callee.name](arguments)
        if value is None:
            unresolved.add(callee.name)
        else:
            edits[id(node)] = string(value)
    return unresolved


def _is_array(init: Node | None) -> bool:
    return init is not None and init.type == "ArrayExpression"


class StringArrayInlinePass(DeobPass):
    name = "string-array-inline"
    techniques = ("global_array",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        plans: dict[str, _Plan] = {}
        for evidence in ctx.string_array_evidence():
            if evidence.accessor is None or evidence.offset is None:
                continue
            # R006 records the last same-named declarator in this list.
            declarators = [
                declarator
                for declarator in ctx.nodes(program, "VariableDeclarator")
                if declarator.id.type == "Identifier" and declarator.id.name == evidence.array
            ]
            if not declarators:
                continue
            stored = _array_strings(declarators[-1])
            if stored is None:
                continue
            rotation = self._find_rotation(program, evidence.array)
            if rotation and len(stored) > 1:
                shift = rotation % len(stored)
                stored = stored[shift:] + stored[:shift]
            if evidence.encoded:
                decoded = [atob_utf8(value) for value in stored]
                if any(value is None for value in decoded):
                    continue
                stored = [value for value in decoded if value is not None]
            values = {
                index + evidence.offset: value for index, value in enumerate(stored)
            }
            plans[evidence.accessor] = _Plan(
                evidence.accessor, evidence.offset, values, evidence.array
            )
        decoder_names = {
            evidence.decoder
            for evidence in ctx.decoder_evidence()
            if evidence.decoder is not None
        }
        if not plans and not decoder_names:
            return PassResult(program)

        calls = ctx.nodes(program, "CallExpression")
        edits: dict[int, Node | list] = {}
        # Only drop machinery whose every call site was resolved.
        dead_functions: set[str] = set()
        dead_arrays: set[str] = set()
        if plans:
            unresolved = _inline_calls(
                calls, {name: plan.decode for name, plan in plans.items()}, edits
            )
            if edits:
                resolved = [plan for name, plan in plans.items() if name not in unresolved]
                dead_functions.update(plan.accessor for plan in resolved)
                dead_arrays.update(plan.array for plan in resolved)
        inlined = len(edits)
        decoders = self._decoder_plans(program, ctx, decoder_names) if decoder_names else {}
        if decoders:
            unresolved = _inline_calls(
                calls,
                {name: partial(_decoded_call, decoder) for name, decoder in decoders.items()},
                edits,
            )
            if len(edits) > inlined:
                for name, decoder in decoders.items():
                    if name not in unresolved:
                        dead_functions.update(decoder.chain[:-1])
                        dead_arrays.add(decoder.chain[-1])
        if not edits:
            return PassResult(program)
        rewrites = len(edits)
        rewrites += drop_declarations(
            ctx.nodes(program, "FunctionDeclaration", "VariableDeclaration"),
            dead_functions,
            dead_arrays,
            edits,
            _is_array,
        )
        for statement in ctx.nodes(program, "ExpressionStatement"):
            if any(_rotation_amount(statement, array) is not None for array in dead_arrays):
                edits[id(statement)] = []
                rewrites += 1
        return PassResult(clone(program, edits), rewrites)

    @staticmethod
    def _decoder_plans(
        program: Node, ctx: PassContext, decoder_names: set[str]
    ) -> dict[str, object]:
        """Evidenced decoders by name, with their resolved tables.

        The evidence only carries names; the tables live in the
        interprocedural summaries.  A degraded (budget-capped) analysis
        has no summaries, so nothing is inlined.
        """
        return {
            summary.name: summary.decoder
            for summary in ctx.interproc(program).decoders
            if summary.name in decoder_names
        }

    @staticmethod
    def _find_rotation(program: Node, array_name: str) -> int:
        for statement in program.body:
            amount = _rotation_amount(statement, array_name)
            if amount is not None:
                return amount
        return 0
