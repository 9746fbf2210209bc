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
additionally runs the interprocedural summary analysis
(``repro.flows.interproc``) and inlines decoder **calls** — accessors the
direct path cannot see because the table hides behind a self-memoizing
function or the entries need an RC4 keystream replay.  The decoded
string for ``dec(0x25, 'key')`` comes from
:func:`repro.flows.values.decode_table_entry` over the summary's
resolved table; the decoder, its table function, the array, and the
rotator are dropped once every call site resolved.
"""

from __future__ import annotations

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.flows.values import atob_utf8, decode_table_entry
from repro.js.ast_nodes import Node, clone
from repro.js.builder import string
from repro.js.visitor import NodeTransformer, walk


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


class _Inliner(NodeTransformer):
    def __init__(self, plans: dict[str, _Plan], dead_arrays: set[str]):
        self.plans = plans
        self.dead_arrays = dead_arrays
        self.rewrites = 0
        self.unresolved: set[str] = set()

    def visit_CallExpression(self, node: Node) -> Node | None:
        callee = node.callee
        if callee.type != "Identifier" or callee.name not in self.plans:
            return None
        plan = self.plans[callee.name]
        if len(node.arguments) != 1:
            self.unresolved.add(callee.name)
            return None
        index = _literal_int(node.arguments[0])
        if index is None or index not in plan.values:
            self.unresolved.add(callee.name)
            return None
        self.rewrites += 1
        return string(plan.values[index])


class _DecoderInliner(NodeTransformer):
    """Inline calls to summarised decoders (index/base64/rc4 kinds)."""

    def __init__(self, plans: dict[str, object]):
        self.plans = plans  #: decoder name → DecoderSummary-like plan
        self.rewrites = 0
        self.unresolved: set[str] = set()

    def visit_CallExpression(self, node: Node) -> Node | None:
        callee = node.callee
        if callee.type != "Identifier" or callee.name not in self.plans:
            return None
        decoder = self.plans[callee.name]
        arguments = node.get("arguments") or []
        index = _literal_int(arguments[0]) if arguments else None
        key = None
        if decoder.kind == "rc4":
            if (
                len(arguments) != 2
                or arguments[1].type != "Literal"
                or not isinstance(arguments[1].value, str)
            ):
                self.unresolved.add(callee.name)
                return None
            key = arguments[1].value
        elif len(arguments) != 1:
            self.unresolved.add(callee.name)
            return None
        if index is None:
            self.unresolved.add(callee.name)
            return None
        position = index - decoder.offset
        if not 0 <= position < len(decoder.table):
            self.unresolved.add(callee.name)
            return None

        decoded = decode_table_entry(decoder.kind, decoder.table[position], key)
        if decoded is None:
            self.unresolved.add(callee.name)
            return None
        self.rewrites += 1
        return string(decoded)


class _DeclDropper(NodeTransformer):
    """Remove the array/accessor declarations and rotator statements."""

    def __init__(self, arrays: set[str], accessors: set[str]):
        self.arrays = arrays
        self.accessors = accessors
        self.removed = 0

    def visit_FunctionDeclaration(self, node: Node) -> object | None:
        identifier = node.get("id")
        if identifier is not None and identifier.name in self.accessors:
            self.removed += 1
            return NodeTransformer.REMOVE
        return None

    def visit_VariableDeclaration(self, node: Node) -> object | None:
        kept = [
            declarator
            for declarator in node.declarations
            if not (
                declarator.id.type == "Identifier"
                and declarator.id.name in self.arrays
                and declarator.get("init") is not None
                and declarator.init.type == "ArrayExpression"
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
        for array_name in self.arrays:
            if _rotation_amount(node, array_name) is not None:
                self.removed += 1
                return NodeTransformer.REMOVE
        return None


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

        work = clone(program)
        rewrites = 0
        if plans:
            inliner = _Inliner(plans, {plan.array for plan in plans.values()})
            work = inliner.transform(work)
            if inliner.rewrites:
                rewrites += inliner.rewrites
                # Only drop machinery whose every call site was resolved.
                resolved = {
                    name: plan
                    for name, plan in plans.items()
                    if name not in inliner.unresolved
                }
                dropper = _DeclDropper(
                    arrays={plan.array for plan in resolved.values()},
                    accessors=set(resolved),
                )
                work = dropper.transform(work)
                rewrites += dropper.removed
        if decoder_names:
            work, decoder_rewrites = self._inline_decoder_calls(work, decoder_names)
            rewrites += decoder_rewrites
        if rewrites == 0:
            return PassResult(program)
        return PassResult(work, rewrites)

    @staticmethod
    def _inline_decoder_calls(
        work: Node, decoder_names: set[str]
    ) -> tuple[Node, int]:
        """Summary-driven path: replay evidenced decoders over their tables.

        Re-derives the summaries on the working clone (the evidence only
        carries names — the resolved tables live in the interprocedural
        analysis), inlines every constant-argument call, and drops the
        decoder, its table function, the array, and the rotator once all
        call sites resolved.  A degraded (budget-capped) analysis yields
        no summaries and the clone is returned unchanged.
        """
        from repro.flows.interproc import analyze_program

        result = analyze_program(work)
        plans = {
            summary.name: summary.decoder
            for summary in result.decoders
            if summary.name in decoder_names
        }
        if not plans:
            return work, 0
        inliner = _DecoderInliner(plans)
        work = inliner.transform(work)
        if inliner.rewrites == 0:
            return work, 0
        dead_functions: set[str] = set()
        dead_arrays: set[str] = set()
        for name, decoder in plans.items():
            if name in inliner.unresolved:
                continue
            dead_functions.update(decoder.chain[:-1])
            dead_arrays.add(decoder.chain[-1])
        dropper = _DeclDropper(arrays=dead_arrays, accessors=dead_functions)
        work = dropper.transform(work)
        return work, inliner.rewrites + dropper.removed

    @staticmethod
    def _find_rotation(program: Node, array_name: str) -> int:
        for statement in program.body:
            amount = _rotation_amount(statement, array_name)
            if amount is not None:
                return amount
        return 0
