"""The signature catalog: one or more rules per monitored technique.

Every rule is grounded in the corresponding transformer in
``repro.transform`` (the ground-truth generators), so each of the ten
monitored techniques has at least one signature that round-trips: the
transformer's output fires the rule, the untransformed source does not.

Layer guide: R001/R008 read raw text, R003 reads the token stream, and
the rest walk the enhanced AST — R005 additionally follows the data-flow
def→use edges (``flows/dfg.py``) and R009 confirms the dispatcher's loop
back-edge on the control-flow graph (``flows/cfg.py``).
"""

from __future__ import annotations

import re

from repro.js.ast_nodes import Node
from repro.js.tokens import TokenType
from repro.rules.base import STAGE_AST, STAGE_TEXT, STAGE_TOKENS, Rule
from repro.rules.context import (
    RuleContext,
    callee_name,
    is_constant_false,
    is_truthy_literal,
    prop_name,
    walk_subtree,
)
from repro.rules.findings import (
    DecoderEvidence,
    DispatcherEvidence,
    Finding,
    StringArrayEvidence,
)

_HEX_NAME_RE = re.compile(r"^_0x[0-9a-fA-F]+$")
_ESCAPE_RE = re.compile(r"\\x[0-9a-fA-F]{2}|\\u[0-9a-fA-F]{4}")

#: Member-call names that rebuild strings at runtime.
_BUILDER_OPS = frozenset(
    {
        "fromCharCode",
        "charCodeAt",
        "split",
        "reverse",
        "join",
        "replace",
        "concat",
        "substr",
        "substring",
        "slice",
        "charAt",
    }
)

#: Plain-identifier callees that decode or construct strings.
_BUILDER_CALLEES = frozenset({"atob", "unescape", "String"})


def _layout(source: str) -> dict[str, float]:
    """Cheap layout statistics shared by the text-stage rules."""
    n_chars = len(source)
    lines = source.split("\n")
    n_lines = len(lines)
    whitespace = sum(1 for ch in source if ch in " \t\n\r")
    return {
        "chars": float(n_chars),
        "lines": float(n_lines),
        "avg_line_length": n_chars / n_lines if n_lines else 0.0,
        "max_line_length": float(max((len(line) for line in lines), default=0)),
        "whitespace_ratio": whitespace / n_chars if n_chars else 0.0,
    }


def _is_compact(layout: dict[str, float]) -> bool:
    return layout["chars"] >= 150 and (
        layout["avg_line_length"] >= 250
        or (layout["max_line_length"] >= 400 and layout["whitespace_ratio"] <= 0.12)
    )


class MinifiedDensityRule(Rule):
    """R001 — newline/whitespace density of minifier output.

    Minifiers collapse a file onto a handful of very long lines with
    almost no redundant whitespace; regular hand-written code averages
    well under 100 characters per line.
    """

    rule_id = "R001"
    name = "minified-density"
    technique = "minification_simple"
    stage = STAGE_TEXT
    confidence = 0.85
    severity = "info"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        layout = _layout(ctx.source)
        if not _is_compact(layout):
            return []
        from repro.rules.findings import Location

        return [
            self.finding(
                f"compact layout: {layout['avg_line_length']:.0f} chars/line over "
                f"{int(layout['lines'])} line(s), "
                f"{layout['whitespace_ratio']:.0%} whitespace",
                locations=[Location(line=1, column=1, start=0, end=int(layout["chars"]))],
                evidence={
                    "avg_line_length": round(layout["avg_line_length"], 1),
                    "max_line_length": layout["max_line_length"],
                    "whitespace_ratio": round(layout["whitespace_ratio"], 4),
                    "lines": int(layout["lines"]),
                },
            )
        ]


class AdvancedMinificationRule(Rule):
    """R002 — optimizing-minifier fingerprints on compact output.

    Closure-class tools rewrite ``undefined`` to ``void 0``, shorten
    boolean literals to ``!0``/``!1``, and merge statement runs into
    sequence expressions; none of these appear in hand-written pretty
    source and the simple whitespace-stripper never introduces them.
    """

    rule_id = "R002"
    name = "optimizing-minifier-fingerprints"
    technique = "minification_advanced"
    stage = STAGE_AST
    confidence = 0.8
    severity = "info"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        if not _is_compact(_layout(ctx.source)):
            return []
        voids = []
        bangs = []
        for node in ctx.nodes("UnaryExpression"):
            argument = node.argument
            if argument.type != "Literal":
                continue
            if node.operator == "void" and argument.value == 0:
                voids.append(node)
            elif node.operator == "!" and argument.value in (0, 1):
                bangs.append(node)
        sequences = [
            statement.expression
            for statement in ctx.nodes("ExpressionStatement")
            if statement.expression.type == "SequenceExpression"
            and len(statement.expression.expressions) >= 3
        ]
        signals = len(voids) + len(bangs) + len(sequences)
        if not (voids or (signals >= 2 and sequences)):
            return []
        parts = []
        if voids:
            parts.append(f"{len(voids)}× `void 0` for `undefined`")
        if bangs:
            parts.append(f"{len(bangs)}× `!0`/`!1` boolean shortening")
        if sequences:
            parts.append(f"{len(sequences)}× merged sequence expression")
        witnesses = (voids + sequences + bangs)[:5]
        return [
            self.finding(
                "compact output carries optimizing-minifier rewrites: "
                + ", ".join(parts),
                locations=[ctx.location(node) for node in witnesses],
                evidence={
                    "void_zero_sites": len(voids),
                    "bool_shortening_sites": len(bangs),
                    "sequence_merges": len(sequences),
                },
            )
        ]


class HexIdentifierRule(Rule):
    """R003 — ``_0x``-prefixed hex renaming (obfuscator.io convention)."""

    rule_id = "R003"
    name = "hex-identifier-population"
    technique = "identifier_obfuscation"
    stage = STAGE_TOKENS
    confidence = 0.9
    severity = "high"

    min_hex_names = 4
    min_ratio = 0.2

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        unique = set(ctx.identifier_values)
        if not unique:
            return []
        hex_names = sorted(name for name in unique if _HEX_NAME_RE.match(name))
        ratio = len(hex_names) / len(unique)
        if len(hex_names) < self.min_hex_names or ratio < self.min_ratio:
            return []
        locations = []
        seen: set[str] = set()
        for token in ctx.tokens:
            if token.type is TokenType.IDENTIFIER and token.value in hex_names:
                if token.value not in seen:
                    seen.add(token.value)
                    locations.append(ctx.location(token))
                if len(locations) >= 5:
                    break
        return [
            self.finding(
                f"{len(hex_names)} of {len(unique)} unique identifiers are "
                f"_0x-hex renamed ({ratio:.0%}), e.g. {', '.join(hex_names[:3])}",
                locations=locations,
                evidence={
                    "hex_identifiers": len(hex_names),
                    "unique_identifiers": len(unique),
                    "ratio": round(ratio, 4),
                    "examples": hex_names[:5],
                },
            )
        ]


def _literal_concat_nodes(binaries: list[Node]) -> list[Node]:
    """The ``+`` nodes among ``binaries`` whose leaves are all string literals.

    One bottom-up pass, no recursion: :meth:`RuleContext.nodes` lists
    every node before its descendants, so walking the list backwards
    settles both operands of a ``+`` before the ``+`` itself.
    """
    concat: set[int] = set()
    for node in reversed(binaries):
        if node.operator != "+":
            continue
        for side in (node.left, node.right):
            if side.type == "Literal":
                if not isinstance(side.value, str):
                    break
            elif id(side) not in concat:
                break
        else:
            concat.add(id(node))
    return [node for node in binaries if id(node) in concat]


class StringRebuildRule(Rule):
    """R004 — runtime string reassembly (split/encode/rebuild family).

    Counts the four shapes the string-obfuscation tools emit: pure
    literal concatenation chains, ``String.fromCharCode`` tables,
    ``split("").reverse().join("")`` chains, and escape-saturated string
    literals (``\\xNN``/``\\uNNNN`` for printable text).
    """

    rule_id = "R004"
    name = "string-rebuild-expressions"
    technique = "string_obfuscation"
    stage = STAGE_AST
    confidence = 0.85
    severity = "high"

    min_sites = 3

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        sites: list[tuple[str, Node | None]] = []

        concat_nodes = _literal_concat_nodes(ctx.nodes("BinaryExpression"))
        nested = {
            id(side)
            for node in concat_nodes
            for side in (node.left, node.right)
            if side.type == "BinaryExpression"
        }
        for node in concat_nodes:
            if id(node) not in nested:
                sites.append(("literal_concat", node))

        for call in ctx.nodes("CallExpression"):
            callee = call.callee
            if callee.type != "MemberExpression":
                continue
            name = prop_name(callee)
            if name == "fromCharCode" and len(call.arguments) >= 2:
                if all(
                    a.type == "Literal" and isinstance(a.value, (int, float))
                    for a in call.arguments
                ):
                    sites.append(("char_code_table", call))
            elif name == "join":
                obj = callee.object
                if (
                    obj.type == "CallExpression"
                    and obj.callee.type == "MemberExpression"
                    and prop_name(obj.callee) == "reverse"
                ):
                    sites.append(("reverse_join_chain", call))

        escape_sites = 0
        first_escape_token = None
        for token in ctx.tokens:
            if token.type is not TokenType.STRING:
                continue
            escapes = _ESCAPE_RE.findall(token.value)
            if len(escapes) >= 3 and sum(map(len, escapes)) >= 0.5 * len(token.value):
                escape_sites += 1
                if first_escape_token is None:
                    first_escape_token = token
        for _ in range(escape_sites):
            sites.append(("escaped_literal", None))

        if len(sites) < self.min_sites:
            return []
        kinds: dict[str, int] = {}
        for kind, _node in sites:
            kinds[kind] = kinds.get(kind, 0) + 1
        locations = [ctx.location(node) for _kind, node in sites if node is not None][:5]
        if first_escape_token is not None and len(locations) < 5:
            locations.append(ctx.location(first_escape_token))
        summary = ", ".join(f"{count}× {kind}" for kind, count in sorted(kinds.items()))
        return [
            self.finding(
                f"{len(sites)} string-rebuild site(s): {summary}",
                locations=locations,
                evidence={"sites": len(sites), **kinds},
            )
        ]


def _is_string_building(expr: Node) -> bool:
    """Whether an expression assembles a string at runtime."""
    has_plus = False
    string_literals = 0
    for node in walk_subtree(expr):
        kind = node.type
        if kind == "CallExpression":
            callee = node.callee
            if callee.type == "MemberExpression" and prop_name(callee) in _BUILDER_OPS:
                return True
            if callee.type == "Identifier" and callee.name in _BUILDER_CALLEES:
                return True
        elif kind == "BinaryExpression" and node.operator == "+":
            has_plus = True
        elif kind == "Literal" and isinstance(node.value, str):
            string_literals += 1
            raw = node.get("raw") or ""
            escapes = _ESCAPE_RE.findall(raw)
            if len(escapes) >= 3 and sum(map(len, escapes)) >= 0.5 * len(raw):
                return True
    return has_plus and string_literals >= 2


class DynamicCodeSinkRule(Rule):
    """R005 — string-building values flowing into dynamic code sinks.

    Follows the data-flow def→use edges: a binding whose definition
    assembles a string at runtime and whose use reaches an ``eval`` /
    ``Function`` / string-``setTimeout`` argument is the classic decode-
    then-execute shape.  Also fires on a rebuild expression passed to a
    sink directly.  When the data-flow pass hit its pair cap (or triage
    skipped it), the scope graph's reference lists stand in for the edges.
    """

    rule_id = "R005"
    name = "dynamic-code-sink-taint"
    technique = "string_obfuscation"
    stage = STAGE_AST
    confidence = 0.9
    severity = "high"

    _SINK_NAMES = frozenset({"eval", "Function", "setTimeout", "setInterval", "execScript"})

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        sinks: list[tuple[str, Node, Node]] = []  # (sink name, call, argument)
        for call in ctx.nodes("CallExpression", "NewExpression"):
            name = callee_name(call)
            if name not in self._SINK_NAMES or not call.arguments:
                continue
            if name in ("setTimeout", "setInterval"):
                first = call.arguments[0]
                if first.type in (
                    "FunctionExpression",
                    "ArrowFunctionExpression",
                    "Identifier",
                ):
                    continue  # function callbacks are the benign spelling
            for argument in call.arguments[: 1 if name != "Function" else None]:
                sinks.append((name, call, argument))
        if not sinks:
            return []

        findings: list[Finding] = []
        sink_arg_ids: dict[int, tuple[str, Node]] = {}
        for name, call, argument in sinks:
            if _is_string_building(argument):
                findings.append(
                    self.finding(
                        f"string-building expression passed directly to {name}() — "
                        f"`{ctx.snippet(call)}`",
                        locations=[ctx.location(call)],
                        evidence={"sink": name, "flow": "direct"},
                    )
                )
                continue
            for node in walk_subtree(argument):
                if node.type == "Identifier":
                    sink_arg_ids[id(node)] = (name, call)

        if not sink_arg_ids:
            return findings

        # Taint seeds: definitions whose assigned value builds a string.
        tainted_bindings: set[int] = set()
        definitions: list[tuple[object, str, Node, Node]] = []  # (binding, name, def, value)
        for declarator in ctx.nodes("VariableDeclarator"):
            target, init = declarator.id, declarator.get("init")
            if init is not None and target.type == "Identifier":
                definitions.append(
                    (target.get("binding"), target.name, target, init)
                )
        for assignment in ctx.nodes("AssignmentExpression"):
            target, value = assignment.left, assignment.right
            if target.type == "Identifier":
                definitions.append((target.get("binding"), target.name, target, value))

        changed = True
        rounds = 0
        while changed and rounds < 5:
            changed = False
            rounds += 1
            for binding, _name, _def_node, value in definitions:
                if binding is None or id(binding) in tainted_bindings:
                    continue
                if _is_string_building(value) or any(
                    node.type == "Identifier"
                    and node.get("binding") is not None
                    and id(node.get("binding")) in tainted_bindings
                    for node in walk_subtree(value)
                ):
                    tainted_bindings.add(id(binding))
                    changed = True

        if not tainted_bindings:
            return findings

        tainted_defs = {
            id(def_node): name
            for binding, name, def_node, _value in definitions
            if binding is not None and id(binding) in tainted_bindings
        }
        data_flow = ctx.enhanced.data_flow
        hits: list[tuple[str, str, Node]] = []  # (variable, sink name, sink call)
        if data_flow is not None:
            for edge in data_flow:
                if id(edge.source) in tainted_defs and id(edge.target) in sink_arg_ids:
                    sink_name, call = sink_arg_ids[id(edge.target)]
                    hits.append((edge.name, sink_name, call))
        else:  # CF-only fallback: scope reference lists carry the same def→use facts
            for binding, name, def_node, _value in definitions:
                if binding is None or id(def_node) not in tainted_defs:
                    continue
                for use in binding.references:
                    if id(use) in sink_arg_ids:
                        sink_name, call = sink_arg_ids[id(use)]
                        hits.append((name, sink_name, call))

        seen: set[tuple[str, int]] = set()
        for variable, sink_name, call in hits:
            key = (variable, id(call))
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                self.finding(
                    f"variable `{variable}` is assembled from string operations and "
                    f"flows into {sink_name}() — `{ctx.snippet(call)}`",
                    locations=[ctx.location(call)],
                    evidence={
                        "sink": sink_name,
                        "variable": variable,
                        "flow": "data_flow" if data_flow is not None else "scope",
                    },
                )
            )
        return findings


class StringArrayIndirectionRule(Rule):
    """R006 — global string array behind an offset accessor function.

    The obfuscator.io shape: one array holding every string literal, an
    accessor ``function f(i) { return arr[i - 0x1f]; }`` (optionally
    through ``atob``), and hex-index call sites replacing the literals.
    """

    rule_id = "R006"
    name = "string-array-indirection"
    technique = "global_array"
    stage = STAGE_AST
    confidence = 0.92
    severity = "high"

    min_array_strings = 3

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        string_arrays: dict[str, tuple[Node, int]] = {}
        for declarator in ctx.nodes("VariableDeclarator"):
            init = declarator.get("init")
            if (
                init is not None
                and declarator.id.type == "Identifier"
                and init.type == "ArrayExpression"
                and len(init.elements) >= self.min_array_strings
            ):
                strings = sum(
                    1
                    for element in init.elements
                    if element is not None
                    and element.type == "Literal"
                    and isinstance(element.value, str)
                )
                if strings >= self.min_array_strings and strings >= 0.6 * len(init.elements):
                    string_arrays[declarator.id.name] = (declarator, strings)
        if not string_arrays:
            return []

        findings: list[Finding] = []
        for function in ctx.nodes("FunctionDeclaration", "FunctionExpression"):
            params = function.get("params") or []
            if not params or params[0].type != "Identifier":
                continue
            body = function.get("body")
            if body is None or body.type != "BlockStatement":
                continue
            param_name = params[0].name
            for statement in body.body:
                if statement.type != "ReturnStatement" or statement.get("argument") is None:
                    continue
                target = statement.argument
                decoded = False
                if (
                    target.type == "CallExpression"
                    and callee_name(target) in ("atob", "unescape")
                    and len(target.arguments) == 1
                ):
                    target = target.arguments[0]
                    decoded = True
                if target.type != "MemberExpression" or not target.get("computed"):
                    continue
                obj = target.object
                if obj.type != "Identifier" or obj.name not in string_arrays:
                    continue
                if not any(
                    node.type == "Identifier" and node.name == param_name
                    for node in walk_subtree(target.property)
                ):
                    continue
                offset = None
                if target.property.type == "BinaryExpression":
                    for side in (target.property.left, target.property.right):
                        if side.type == "Literal" and isinstance(side.value, (int, float)):
                            offset = side.value
                declarator, strings = string_arrays[obj.name]
                accessor = function.get("id")
                accessor_name = accessor.name if accessor is not None else "<anonymous>"
                call_sites = sum(
                    1
                    for call in ctx.nodes("CallExpression")
                    if callee_name(call) == accessor_name
                )
                parts = [
                    f"array `{obj.name}` holds {strings} strings; accessor "
                    f"`{accessor_name}({param_name})` indexes it"
                ]
                if offset is not None:
                    parts.append(f"with offset {int(offset)}")
                if decoded:
                    parts.append("through atob()")
                if call_sites:
                    parts.append(f"from {call_sites} call site(s)")
                findings.append(
                    self.finding(
                        " ".join(parts),
                        locations=[ctx.location(declarator), ctx.location(function)],
                        evidence={
                            "array": obj.name,
                            "strings": strings,
                            "accessor": accessor_name,
                            "offset": offset,
                            "encoded": decoded,
                            "call_sites": call_sites,
                        },
                        string_array=StringArrayEvidence(
                            array=obj.name,
                            accessor=accessor.name if accessor is not None else None,
                            offset=int(offset) if offset is not None else None,
                            encoded=decoded,
                            string_count=strings,
                            call_sites=call_sites,
                        ),
                    )
                )
                break
        return findings


class StringArrayRotationRule(Rule):
    """R007 — startup rotation loop restoring a shuffled string array."""

    rule_id = "R007"
    name = "string-array-rotation"
    technique = "global_array"
    stage = STAGE_AST
    confidence = 0.9
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for call in ctx.nodes("CallExpression"):
            callee = call.callee
            if callee.type != "MemberExpression" or prop_name(callee) != "push":
                continue
            if len(call.arguments) != 1:
                continue
            argument = call.arguments[0]
            if (
                argument.type == "CallExpression"
                and argument.callee.type == "MemberExpression"
                and prop_name(argument.callee) == "shift"
            ):
                findings.append(
                    self.finding(
                        f"array rotation loop `{ctx.snippet(call)}` re-orders a "
                        "string array at startup",
                        locations=[ctx.location(call)],
                        evidence={"pattern": "push(shift())"},
                    )
                )
        return findings


class JsFuckCharsetRule(Rule):
    """R008 — the six-character ``[]()!+`` footprint of JSFuck output."""

    rule_id = "R008"
    name = "jsfuck-charset"
    technique = "no_alphanumeric"
    stage = STAGE_TEXT
    confidence = 0.97
    severity = "high"

    min_chars = 64
    min_ratio = 0.95

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        meaningful = [ch for ch in ctx.source if ch not in " \t\n\r;"]
        if len(meaningful) < self.min_chars:
            return []
        jsfuck = sum(1 for ch in meaningful if ch in "[]()!+")
        ratio = jsfuck / len(meaningful)
        if ratio < self.min_ratio:
            return []
        from repro.rules.findings import Location

        return [
            self.finding(
                f"{ratio:.1%} of {len(meaningful)} non-whitespace characters are "
                "drawn from the JSFuck alphabet []()!+",
                locations=[Location(line=1, column=1, start=0, end=len(ctx.source))],
                evidence={"ratio": round(ratio, 4), "chars": len(meaningful)},
            )
        ]


class SwitchDispatcherRule(Rule):
    """R009 — control-flow-flattening dispatcher loop.

    An unconditional loop whose body is a ``switch`` over an advancing
    state variable (``order[i++]``), usually seeded by an order string
    split on a separator.  The control-flow graph's loop back-edge
    confirms the dispatcher actually loops.
    """

    rule_id = "R009"
    name = "switch-dispatcher-loop"
    technique = "control_flow_flattening"
    stage = STAGE_AST
    confidence = 0.95
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        findings: list[Finding] = []
        loops = ctx.nodes("WhileStatement", "DoWhileStatement", "ForStatement")
        for loop in loops:
            if loop.type == "ForStatement":
                if loop.get("test") is not None and not is_truthy_literal(loop.test):
                    continue
            elif not is_truthy_literal(loop.get("test")):
                continue
            body = loop.body
            statements = body.body if body.type == "BlockStatement" else [body]
            for statement in statements:
                if statement.type != "SwitchStatement":
                    continue
                discriminant = statement.discriminant
                if (
                    discriminant.type != "MemberExpression"
                    or not discriminant.get("computed")
                    or discriminant.property.type != "UpdateExpression"
                ):
                    continue
                order_name = (
                    discriminant.object.name
                    if discriminant.object.type == "Identifier"
                    else None
                )
                order_string = None
                separator = "|"
                if order_name is not None:
                    for declarator in ctx.nodes("VariableDeclarator"):
                        init = declarator.get("init")
                        if (
                            declarator.id.type == "Identifier"
                            and declarator.id.name == order_name
                            and init is not None
                            and init.type == "CallExpression"
                            and init.callee.type == "MemberExpression"
                            and prop_name(init.callee) == "split"
                            and init.callee.object.type == "Literal"
                            and isinstance(init.callee.object.value, str)
                        ):
                            order_string = init.callee.object.value
                            if (
                                len(init.arguments) == 1
                                and init.arguments[0].type == "Literal"
                                and isinstance(init.arguments[0].value, str)
                            ):
                                separator = init.arguments[0].value
                            break
                cases = len(statement.cases)
                has_back_edge = any(
                    edge.label == "loop" for edge in loop.get("flow_in", [])
                )
                message = (
                    f"dispatcher loop: switch over `{ctx.snippet(discriminant)}` "
                    f"with {cases} case(s)"
                )
                if order_string is not None:
                    message += f", order string \"{order_string}\""
                evidence = {
                    "cases": cases,
                    "state_variable": order_name,
                    "order_string": order_string,
                    "cf_back_edge": has_back_edge,
                }
                findings.append(
                    self.finding(
                        message,
                        locations=[ctx.location(loop), ctx.location(statement)],
                        evidence=evidence,
                        dispatcher=DispatcherEvidence(
                            state_variable=order_name,
                            order_string=order_string,
                            separator=separator,
                            case_count=cases,
                        ),
                    )
                )
        return findings


class OpaqueFalseBranchRule(Rule):
    """R010 — unreachable branches behind constant-false predicates."""

    rule_id = "R010"
    name = "opaque-false-branch"
    technique = "dead_code_injection"
    stage = STAGE_AST
    confidence = 0.85
    severity = "medium"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        dead: list[Node] = [
            node for node in ctx.nodes("IfStatement") if is_constant_false(node.test)
        ]
        if not dead:
            return []
        example = ctx.snippet(dead[0].test)
        return [
            self.finding(
                f"{len(dead)} if-branch(es) guarded by statically false literal "
                f"comparisons, e.g. `{example}` — the bodies can never execute",
                locations=[ctx.location(node) for node in dead[:5]],
                evidence={"dead_branches": len(dead), "example_test": example},
            )
        ]


def _constructor_string_calls(ctx: RuleContext) -> list[tuple[Node, str]]:
    """Calls of the form ``(...)["constructor"]("<source text>")``."""
    out: list[tuple[Node, str]] = []
    for call in ctx.nodes("CallExpression"):
        callee = call.callee
        if callee.type != "MemberExpression" or prop_name(callee) != "constructor":
            continue
        arguments = call.get("arguments") or []
        if (
            arguments
            and arguments[0].type == "Literal"
            and isinstance(arguments[0].value, str)
        ):
            out.append((call, arguments[0].value))
    return out


class DebuggerTrapRule(Rule):
    """R011 — anti-devtools debugger traps.

    The obfuscator.io shape hides ``debugger`` (and ``while (true) {}``)
    inside ``Function``-constructor strings, re-armed from a
    ``setInterval`` probe; plain ``debugger`` statements inside timer
    callbacks are the hand-rolled variant.
    """

    rule_id = "R011"
    name = "debugger-trap"
    technique = "debug_protection"
    stage = STAGE_AST
    confidence = 0.9
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        trap_calls = [
            (call, text)
            for call, text in _constructor_string_calls(ctx)
            if "debugger" in text or "while (true)" in text or "while(true)" in text
        ]
        debugger_statements = ctx.nodes("DebuggerStatement")
        timers = [
            call
            for call in ctx.nodes("CallExpression")
            if callee_name(call) in ("setInterval", "setTimeout")
        ]
        findings: list[Finding] = []
        if trap_calls:
            rearmed = bool(timers)
            call, text = trap_calls[0]
            findings.append(
                self.finding(
                    f"constructed function body `{text.strip()[:40]}` executed via "
                    f"[\"constructor\"] — debugger trap"
                    + (", re-armed by an interval timer" if rearmed else ""),
                    locations=[ctx.location(call) for call, _text in trap_calls[:5]],
                    evidence={
                        "constructed_traps": len(trap_calls),
                        "interval_rearmed": rearmed,
                    },
                    confidence=0.95 if rearmed else self.confidence,
                )
            )
        elif debugger_statements and timers:
            findings.append(
                self.finding(
                    f"{len(debugger_statements)} debugger statement(s) alongside "
                    "interval timers — anti-devtools probe",
                    locations=[ctx.location(node) for node in debugger_statements[:5]],
                    evidence={
                        "debugger_statements": len(debugger_statements),
                        "interval_rearmed": True,
                    },
                    confidence=0.8,
                )
            )
        return findings


class SelfDefendingGuardRule(Rule):
    """R012 — formatting-sensitive self-defending guard.

    The guard stringifies one of its own functions (``'return /" + this
    + "/'`` through the ``constructor``) and tests the formatting with a
    compiled regular expression — beautifying the file breaks the check.
    """

    rule_id = "R012"
    name = "self-defending-guard"
    technique = "self_defending"
    stage = STAGE_AST
    confidence = 0.9
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        stringify_calls = [
            (call, text)
            for call, text in _constructor_string_calls(ctx)
            if "return /" in text and "this" in text
        ]
        compile_calls = []
        for call in ctx.nodes("CallExpression"):
            callee = call.callee
            if callee.type != "MemberExpression" or prop_name(callee) != "compile":
                continue
            arguments = call.get("arguments") or []
            if (
                arguments
                and arguments[0].type == "Literal"
                and isinstance(arguments[0].value, str)
                and ("^(" in arguments[0].value or "[^ ]" in arguments[0].value)
            ):
                compile_calls.append(call)
        if not stringify_calls and not compile_calls:
            return []
        signals = []
        locations = []
        if stringify_calls:
            signals.append("stringifies its own function via [\"constructor\"]")
            locations.extend(ctx.location(call) for call, _ in stringify_calls[:3])
        if compile_calls:
            signals.append("tests source formatting with a compiled regex")
            locations.extend(ctx.location(call) for call in compile_calls[:3])
        confidence = self.confidence if (stringify_calls and compile_calls) else 0.75
        return [
            self.finding(
                "self-defending guard: " + " and ".join(signals),
                locations=locations,
                evidence={
                    "stringify_probes": len(stringify_calls),
                    "format_regex_checks": len(compile_calls),
                },
                confidence=confidence,
            )
        ]


#: The default catalog, in rule-id order.
def _has_decoder_shape(ctx: RuleContext) -> bool:
    """Cheap structural pre-gate for the interprocedural decoder rules.

    The whole-program summary pass only runs when the file contains at
    least one function *and* one array of ≥3 string literals — the raw
    materials of every string-table decoder.  Clean and minified files
    that lack the shape skip the pass entirely, keeping triage cheap.
    """
    if not ctx.nodes("FunctionDeclaration", "FunctionExpression"):
        return False
    for candidate in ctx.nodes("ArrayExpression"):
        strings = sum(
            1
            for element in candidate.elements
            if element is not None
            and element.type == "Literal"
            and isinstance(element.value, str)
        )
        if strings >= 3:
            return True
    return False


class SelfReferencingDecoderRule(Rule):
    """R013 — string decoder reaching its table through a memoizing function.

    The hardened obfuscator.io shape R006 cannot see: the string array is
    only reachable through ``function t() { t = function () { return arr;
    }; return t(); }``, and every use site calls a decoder that *calls*
    ``t()`` before indexing.  The interprocedural summaries resolve the
    whole chain statically; the evidence carries it.
    """

    rule_id = "R013"
    name = "self-referencing-string-decoder"
    technique = "global_array"
    stage = STAGE_AST
    confidence = 0.93
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        if not _has_decoder_shape(ctx):
            return []
        result = ctx.interproc
        self_referencing = {
            summary.name for summary in result.summaries if summary.self_referencing
        }
        findings: list[Finding] = []
        for summary in result.decoders:
            decoder = summary.decoder
            if decoder.kind == "rc4":
                continue  # R014's signature
            # chain = decoder → table function → array: the table must be
            # reached through a call, and that callee must memoize itself.
            if len(decoder.chain) < 3 or decoder.chain[1] not in self_referencing:
                continue
            findings.append(
                self.finding(
                    f"string decoder {decoder.chain[0]!r} resolves its "
                    f"{len(decoder.table)}-string table through "
                    f"self-referencing {decoder.chain[1]!r}",
                    locations=[ctx.location(summary.node)],
                    evidence={
                        "chain": " -> ".join(decoder.chain),
                        "kind": decoder.kind,
                        "offset": decoder.offset,
                        "strings": len(decoder.table),
                    },
                    decoder=DecoderEvidence(
                        decoder=summary.name,
                        kind=decoder.kind,
                        chain=decoder.chain,
                        offset=decoder.offset,
                        string_count=len(decoder.table),
                        call_sites=summary.call_sites,
                        self_referencing=True,
                    ),
                )
            )
        return findings


class Rc4DecoderRule(Rule):
    """R014 — RC4/keyed string decoding over a resolved string table.

    obfuscator.io's ``stringArrayEncoding: rc4``: the decoder takes an
    index *and* a per-call-site key, base64-decodes the table entry, and
    mixes it through a charCodeAt/fromCharCode XOR keystream.  The
    summary proves the table resolves statically, so the deobfuscator can
    replay the cipher without executing anything.
    """

    rule_id = "R014"
    name = "rc4-string-decoding"
    technique = "global_array"
    stage = STAGE_AST
    confidence = 0.95
    severity = "high"

    def evaluate(self, ctx: RuleContext) -> list[Finding]:
        if not _has_decoder_shape(ctx):
            return []
        result = ctx.interproc
        self_referencing = {
            summary.name for summary in result.summaries if summary.self_referencing
        }
        findings: list[Finding] = []
        for summary in result.decoders:
            decoder = summary.decoder
            if decoder.kind != "rc4":
                continue
            findings.append(
                self.finding(
                    f"keyed RC4 string decoder {decoder.chain[0]!r} over a "
                    f"{len(decoder.table)}-string table "
                    f"(key parameter {decoder.key_param})",
                    locations=[ctx.location(summary.node)],
                    evidence={
                        "chain": " -> ".join(decoder.chain),
                        "offset": decoder.offset,
                        "strings": len(decoder.table),
                        "key_param": decoder.key_param,
                    },
                    decoder=DecoderEvidence(
                        decoder=summary.name,
                        kind="rc4",
                        chain=decoder.chain,
                        offset=decoder.offset,
                        string_count=len(decoder.table),
                        call_sites=summary.call_sites,
                        self_referencing=(
                            len(decoder.chain) >= 3
                            and decoder.chain[1] in self_referencing
                        ),
                    ),
                )
            )
        return findings


DEFAULT_RULES: tuple[Rule, ...] = (
    MinifiedDensityRule(),
    AdvancedMinificationRule(),
    HexIdentifierRule(),
    StringRebuildRule(),
    DynamicCodeSinkRule(),
    StringArrayIndirectionRule(),
    StringArrayRotationRule(),
    JsFuckCharsetRule(),
    SwitchDispatcherRule(),
    OpaqueFalseBranchRule(),
    DebuggerTrapRule(),
    SelfDefendingGuardRule(),
    SelfReferencingDecoderRule(),
    Rc4DecoderRule(),
)
