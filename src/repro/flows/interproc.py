"""Interprocedural value flow: call graph, propagation, function summaries.

The intra-procedural layers (scope, DFG) cannot see through the function
indirection real obfuscator.io output hides behind: the string table
lives inside a self-memoizing table function, and every string read is a
*call* to a decoder that indexes the table, base64-decodes, or applies an
RC4 keystream.  This pass makes that shape statically legible:

1. **Call graph** — every plain-identifier call site is resolved through
   the scope layer to a function declaration, a function expression bound
   by a declarator or assignment, or an alias of either
   (``var b = a;``).
2. **Bounded abstract interpretation** — module-level bindings and each
   function body are evaluated over the tiny domain in
   :mod:`repro.flows.values` (constants, string tables, function values,
   symbolic parameter lookups), propagating array-of-string contents
   across call boundaries via the summaries of already-analysed callees.
3. **Per-function summaries** — purity, self-reassignment (the
   obfuscator.io memoization signature), returns-constant-string /
   returns-string-table, and the load-bearing one: *decoder-shaped*
   (indexes a resolved string table with ``param ± offset``, optionally
   through ``atob`` or charcode/XOR RC4-style mixing).

The pass is budgeted by counted work, like the DFG: node, function and
call-depth caps, never the clock, and any budget breach degrades to
:meth:`InterprocResult.empty` — byte-identical to an analysis that found
nothing, never an exception.  Layering rule (enforced by
``scripts/lint.sh``): this module must not import ``repro.rules``,
``repro.detector``, or ``repro.deob`` — those layers consume the
summaries, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.flows.values import (
    UNKNOWN,
    Const,
    FunctionVal,
    ParamRef,
    StringTable,
    TableLookup,
    const_int,
    const_str,
    fold_binary,
)
from repro.js.ast_nodes import Node, iter_child_nodes
from repro.js.scope import FUNCTION_TYPES, analyze_scopes
from repro.js.semantics import MISS, from_char_code, is_number, literal_value

__all__ = [
    "InterprocBudget",
    "DecoderSummary",
    "FunctionSummary",
    "InterprocResult",
    "analyze_program",
    "analyze_enhanced",
]


@dataclass(frozen=True)
class InterprocBudget:
    """Caps for one whole-program analysis (degrade, never raise)."""

    max_nodes: int = 100_000  #: AST nodes visited across all walks
    max_functions: int = 512  #: functions summarised
    max_depth: int = 4  #: nested abstract-call evaluation depth


DEFAULT_BUDGET = InterprocBudget()


class BudgetExceeded(Exception):
    """Internal: the analysis ran out of budget (callers degrade)."""


class _Ticker:
    """Node budget shared by every walk of one analysis."""

    __slots__ = ("remaining",)

    def __init__(self, budget: InterprocBudget) -> None:
        self.remaining = budget.max_nodes

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise BudgetExceeded("node budget")


# -- summaries ----------------------------------------------------------------


@dataclass(frozen=True)
class DecoderSummary:
    """A function statically recognised as a string decoder.

    ``kind`` is how a stored table entry becomes the final string:
    ``"index"`` (plain lookup), ``"base64"`` (lookup through ``atob``), or
    ``"rc4"`` (base64 + RC4 keystream mixing keyed by a call argument).
    ``offset`` is subtracted from the call-site index, and ``chain`` is
    the resolved name path from the decoder to its string table, e.g.
    ``("_0xdec", "_0xtable", "_0xdata")`` for a self-referencing shape.
    """

    kind: str  #: "index" | "base64" | "rc4"
    table: tuple[str, ...]  #: resolved stored strings (post-rotation)
    offset: int  #: call index minus this = table position
    index_param: int  #: position of the index argument
    key_param: int | None  #: position of the RC4 key argument (rc4 only)
    chain: tuple[str, ...]  #: decoder → (table fn →) array name path

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "strings": len(self.table),
            "offset": self.offset,
            "index_param": self.index_param,
            "key_param": self.key_param,
            "chain": list(self.chain),
        }


@dataclass
class FunctionSummary:
    """Statically derived facts about one function."""

    name: str | None  #: binding name (None for unbound expressions)
    node: Node  #: the function's AST node (not serialised)
    params: int
    pure: bool = True  #: no writes/calls that escape the function
    self_referencing: bool = False  #: reassigns its own binding (memoizer)
    returns_constant_string: str | None = None
    returns_table: StringTable | None = None  #: returns a resolved string array
    decoder: DecoderSummary | None = None
    fanout: int = 0  #: distinct resolved callees invoked from the body
    call_sites: int = 0  #: resolved calls targeting this function

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "params": self.params,
            "pure": self.pure,
            "self_referencing": self.self_referencing,
            "returns_constant_string": self.returns_constant_string is not None,
            "returns_table": self.returns_table is not None,
            "decoder": self.decoder.to_json() if self.decoder is not None else None,
            "fanout": self.fanout,
            "call_sites": self.call_sites,
        }


@dataclass
class InterprocResult:
    """Whole-program outcome: summaries plus call-graph statistics."""

    summaries: list[FunctionSummary] = field(default_factory=list)
    total_calls: int = 0  #: every call expression observed
    resolved_calls: int = 0  #: call sites resolved to a known function
    degraded: bool = False  #: True when a budget cap emptied the result

    @classmethod
    def empty(cls, degraded: bool = True) -> "InterprocResult":
        """The degrade target: no summaries, no call-graph facts."""
        return cls(summaries=[], total_calls=0, resolved_calls=0, degraded=degraded)

    @property
    def decoders(self) -> list[FunctionSummary]:
        return [s for s in self.summaries if s.decoder is not None]

    @property
    def resolved_ratio(self) -> float:
        return self.resolved_calls / self.total_calls if self.total_calls else 0.0

    def to_json(self) -> dict[str, Any]:
        return {
            "degraded": self.degraded,
            "total_calls": self.total_calls,
            "resolved_calls": self.resolved_calls,
            "functions": [summary.to_json() for summary in self.summaries],
        }


# -- call-graph construction --------------------------------------------------


class _FunctionInfo:
    __slots__ = ("node", "name", "binding", "enclosing", "calls", "summary")

    def __init__(self, node: Node, enclosing: "._FunctionInfo | None") -> None:
        self.node = node
        self.name: str | None = None
        self.binding = None
        self.enclosing = enclosing
        self.calls: list[Node] = []  #: call expressions inside this body
        self.summary: FunctionSummary | None = None


def _collect(program: Node, ticker: _Ticker):
    """One walk: functions, per-function call lists, and top-level calls.

    Returns ``(functions, module_calls, total_calls)`` where
    ``module_calls`` are the calls outside any function body.
    """
    functions: list[_FunctionInfo] = []
    module_calls: list[Node] = []
    total_calls = 0
    stack: list[tuple[Node, _FunctionInfo | None]] = [(program, None)]
    while stack:
        node, enclosing = stack.pop()
        ticker.tick()
        node_type = node.type
        if node_type in FUNCTION_TYPES:
            info = _FunctionInfo(node, enclosing)
            identifier = node.get("id")
            if identifier is not None:
                info.name = identifier.name
                info.binding = identifier.get("binding")
            functions.append(info)
            enclosing = info
        elif node_type in ("CallExpression", "NewExpression"):
            total_calls += 1
            if enclosing is not None:
                enclosing.calls.append(node)
            else:
                module_calls.append(node)
        for child in iter_child_nodes(node):
            stack.append((child, enclosing))
    return functions, module_calls, total_calls


def _bind_functions(program: Node, functions: list[_FunctionInfo], ticker: _Ticker):
    """Map binding → function through declarators, assignments, aliases."""
    by_node = {id(info.node): info for info in functions}
    bound: dict[int, _FunctionInfo] = {}
    for info in functions:
        if info.binding is not None:
            bound[id(info.binding)] = info

    #: (target binding, source) pairs whose source is another identifier —
    #: resolved by a small fixpoint once direct bindings are known.
    aliases: list[tuple[object, object]] = []
    stack = [program]
    while stack:
        node = stack.pop()
        ticker.tick()
        node_type = node.type
        target = value = None
        if node_type == "VariableDeclarator":
            target, value = node.id, node.get("init")
        elif node_type == "AssignmentExpression" and node.operator == "=":
            target, value = node.left, node.right
        if (
            target is not None
            and value is not None
            and target.type == "Identifier"
            and target.get("binding") is not None
        ):
            info = by_node.get(id(value))
            if info is not None:
                binding = target.binding
                bound.setdefault(id(binding), info)
                if info.name is None:
                    info.name = target.name
                if info.binding is None:
                    info.binding = binding
            elif value.type == "Identifier" and value.get("binding") is not None:
                aliases.append((target.binding, value.binding))
        stack.extend(iter_child_nodes(node))

    for _ in range(3):  # alias chains are short; 3 rounds covers a→b→c→d
        changed = False
        for target_binding, source_binding in aliases:
            if id(target_binding) in bound or id(source_binding) not in bound:
                continue
            bound[id(target_binding)] = bound[id(source_binding)]
            changed = True
        if not changed:
            break
    return bound


def _resolve_call(call: Node, bound: dict[int, _FunctionInfo]) -> _FunctionInfo | None:
    callee = call.get("callee")
    if callee is None or callee.type != "Identifier":
        return None
    binding = callee.get("binding")
    if binding is None:
        return None
    return bound.get(id(binding))


# -- module environment -------------------------------------------------------


def _array_of_strings(node: Node) -> tuple[str, ...] | None:
    if node.type != "ArrayExpression" or not node.elements:
        return None
    values: list[str] = []
    for element in node.elements:
        if (
            element is None
            or element.type != "Literal"
            or not isinstance(element.value, str)
        ):
            return None
        values.append(element.value)
    return tuple(values)


def _rotation_amount(statement: Node, binding: object) -> int | None:
    """Rotate-left count of a push/shift rotator IIFE over ``binding``."""
    if statement.type != "ExpressionStatement":
        return None
    call = statement.expression
    if call.type != "CallExpression" or len(call.get("arguments") or []) != 2:
        return None
    if call.callee.type != "FunctionExpression":
        return None
    target, amount = call.arguments
    if target.type != "Identifier" or target.get("binding") is not binding:
        return None
    if (
        amount.type != "Literal"
        or not isinstance(amount.value, (int, float))
        or isinstance(amount.value, bool)
    ):
        return None
    stack = [call.callee.body]
    has_push_shift = False
    while stack:
        node = stack.pop()
        if (
            node.type == "CallExpression"
            and node.callee.type == "MemberExpression"
            and node.callee.property.type == "Identifier"
            and node.callee.property.name == "push"
            and len(node.arguments) == 1
            and node.arguments[0].type == "CallExpression"
            and node.arguments[0].callee.type == "MemberExpression"
            and node.arguments[0].callee.property.type == "Identifier"
            and node.arguments[0].callee.property.name == "shift"
        ):
            has_push_shift = True
            break
        stack.extend(iter_child_nodes(node))
    return int(amount.value) if has_push_shift else None


def _module_env(program: Node, ticker: _Ticker) -> dict[int, object]:
    """Abstract values of top-level ``var`` bindings (tables, constants)."""
    env: dict[int, object] = {}
    for statement in program.body:
        ticker.tick()
        if statement.type != "VariableDeclaration":
            continue
        for declarator in statement.declarations:
            identifier = declarator.id
            init = declarator.get("init")
            if (
                identifier.type != "Identifier"
                or identifier.get("binding") is None
                or init is None
            ):
                continue
            key = id(identifier.binding)
            values = _array_of_strings(init)
            if values is not None:
                env[key] = StringTable(values, origin=(identifier.name,))
            elif init.type == "Literal" and literal_value(init) is not MISS:
                env[key] = Const(init.value)
            elif init.type == "Identifier" and init.get("binding") is not None:
                aliased = env.get(id(init.binding))
                if aliased is not None:
                    env[key] = aliased
    # Startup rotation: the static element order of a rotated table no
    # longer matches the index order, so replay the rotator before any
    # decoder summary captures the table.
    table_bindings: list[tuple[int, object]] = []
    for declaration in program.body:
        if declaration.type != "VariableDeclaration":
            continue
        for declarator in declaration.declarations:
            identifier = declarator.id
            if identifier.type == "Identifier" and identifier.get("binding") is not None:
                key = id(identifier.binding)
                if isinstance(env.get(key), StringTable):
                    table_bindings.append((key, identifier.binding))
    for statement in program.body:
        if statement.type != "ExpressionStatement":
            continue
        for key, binding in table_bindings:
            table = env[key]
            if not isinstance(table, StringTable) or len(table.values) < 2:
                continue
            amount = _rotation_amount(statement, binding)
            if amount:
                shift = amount % len(table.values)
                env[key] = StringTable(
                    table.values[shift:] + table.values[:shift], table.origin
                )
    return env


# -- abstract evaluation ------------------------------------------------------

_PURE_GLOBAL_CALLEES = frozenset(
    {"atob", "btoa", "unescape", "escape", "parseInt", "parseFloat", "String", "Number"}
)

_MIXING_MEMBER_CALLS = frozenset({"charCodeAt", "fromCharCode"})


class _Evaluator:
    """Bounded abstract interpreter over one program."""

    def __init__(
        self,
        bound: dict[int, _FunctionInfo],
        module_env: dict[int, object],
        budget: InterprocBudget,
        ticker: _Ticker,
    ) -> None:
        self.bound = bound
        self.module_env = module_env
        self.budget = budget
        self.ticker = ticker

    # expression evaluation ---------------------------------------------------

    def eval(self, node: Node | None, env: dict[int, object], depth: int) -> object:
        if node is None or depth > self.budget.max_depth:
            return UNKNOWN
        self.ticker.tick()
        node_type = node.type
        if node_type == "Literal":
            value = literal_value(node)  # a regex or a BigInt is not a Const
            return UNKNOWN if value is MISS else Const(value)
        if node_type == "Identifier":
            binding = node.get("binding")
            if binding is None:
                return UNKNOWN
            return env.get(id(binding), UNKNOWN)
        if node_type == "ArrayExpression":
            values = _array_of_strings(node)
            if values is not None:
                return StringTable(values)
            return UNKNOWN
        if node_type == "BinaryExpression":
            left = self.eval(node.left, env, depth)
            right = self.eval(node.right, env, depth)
            return fold_binary(node.operator, left, right)
        if node_type == "UnaryExpression" and node.operator == "-":
            value = self.eval(node.argument, env, depth)
            number = const_int(value)
            if number is not None:
                return Const(-number)
            return UNKNOWN
        if node_type == "MemberExpression" and node.get("computed"):
            return self._eval_member(node, env, depth)
        if node_type == "CallExpression":
            return self._eval_call(node, env, depth)
        if node_type in ("FunctionExpression", "ArrowFunctionExpression"):
            return FunctionVal(node)
        return UNKNOWN

    def _eval_member(self, node: Node, env: dict[int, object], depth: int) -> object:
        table = self.eval(node.object, env, depth)
        if not isinstance(table, StringTable):
            return UNKNOWN
        prop = node.property
        index_value = self.eval(prop, env, depth)
        index = const_int(index_value)
        if index is not None:
            if 0 <= index < len(table.values):
                return Const(table.values[index])
            return UNKNOWN
        if isinstance(index_value, ParamRef):
            return TableLookup(table, index_value.index, 0)
        if prop.type == "BinaryExpression" and prop.operator in ("-", "+"):
            left = self.eval(prop.left, env, depth)
            right = self.eval(prop.right, env, depth)
            delta = const_int(right)
            if isinstance(left, ParamRef) and delta is not None:
                offset = delta if prop.operator == "-" else -delta
                return TableLookup(table, left.index, offset)
        return UNKNOWN

    def _eval_call(self, node: Node, env: dict[int, object], depth: int) -> object:
        callee = node.callee
        arguments = node.get("arguments") or []
        if callee.type == "Identifier":
            if callee.name == "atob" and len(arguments) == 1:
                value = self.eval(arguments[0], env, depth)
                if isinstance(value, TableLookup):
                    return TableLookup(
                        value.table, value.param, value.offset, encoded=True
                    )
                text = const_str(value)
                if text is not None:
                    from repro.flows.values import atob_utf8

                    decoded = atob_utf8(text)
                    return Const(decoded) if decoded is not None else UNKNOWN
                return UNKNOWN
            binding = callee.get("binding")
            if binding is not None:
                local = env.get(id(binding))
                if isinstance(local, FunctionVal):
                    # A memoized closure (``f = function(){ return a; }``):
                    # evaluate its return in the *current* environment.
                    return self._eval_return(local.node, env, depth + 1)
                info = self.bound.get(id(binding))
                if info is not None and info.summary is not None:
                    summary = info.summary
                    if summary.returns_table is not None:
                        table = summary.returns_table
                        name = summary.name or "<anonymous>"
                        return StringTable(table.values, (name, *table.origin))
                    if summary.returns_constant_string is not None:
                        return Const(summary.returns_constant_string)
            return UNKNOWN
        if callee.type == "MemberExpression":
            prop = callee.property
            prop_name = prop.name if prop.type == "Identifier" else None
            if prop_name == "fromCharCode" and arguments:
                codes = [self.eval(a, env, depth) for a in arguments]
                if all(isinstance(code, Const) and is_number(code.value) for code in codes):
                    return Const(from_char_code(code.value for code in codes))
        return UNKNOWN

    def _eval_return(self, fn_node: Node, env: dict[int, object], depth: int) -> object:
        """Value of a function's straight-line return, in ``env``."""
        if depth > self.budget.max_depth:
            return UNKNOWN
        body = fn_node.get("body")
        if body is None:
            return UNKNOWN
        if body.type != "BlockStatement":  # arrow shorthand body
            return self.eval(body, env, depth)
        local = dict(env)
        return self._eval_statements(body.body, local, fn_node, depth)[0]

    def _eval_statements(
        self,
        statements: list[Node],
        env: dict[int, object],
        fn_node: Node,
        depth: int,
        own_binding: object = None,
    ) -> tuple[object, bool]:
        """Straight-line evaluation: ``(return value, self_referencing)``."""
        self_referencing = False
        for statement in statements:
            self.ticker.tick()
            statement_type = statement.type
            if statement_type == "VariableDeclaration":
                for declarator in statement.declarations:
                    identifier = declarator.id
                    if (
                        identifier.type == "Identifier"
                        and identifier.get("binding") is not None
                    ):
                        env[id(identifier.binding)] = self.eval(
                            declarator.get("init"), env, depth
                        )
            elif statement_type == "ExpressionStatement":
                expression = statement.expression
                if (
                    expression.type == "AssignmentExpression"
                    and expression.operator == "="
                    and expression.left.type == "Identifier"
                    and expression.left.get("binding") is not None
                ):
                    binding = expression.left.binding
                    env[id(binding)] = self.eval(expression.right, env, depth)
                    if own_binding is not None and binding is own_binding:
                        self_referencing = True
                else:
                    self._havoc(expression, env)
            elif statement_type == "ReturnStatement":
                return self.eval(statement.get("argument"), env, depth), self_referencing
            else:
                # Control flow we do not interpret (loops, branches):
                # anything it might write is no longer known.
                self._havoc(statement, env)
        return UNKNOWN, self_referencing

    def _havoc(self, node: Node, env: dict[int, object]) -> None:
        """Forget every binding a skipped statement could mutate."""
        stack = [node]
        while stack:
            current = stack.pop()
            self.ticker.tick()
            current_type = current.type
            target = None
            if current_type == "AssignmentExpression":
                target = current.left
            elif current_type == "UpdateExpression":
                target = current.argument
            elif current_type == "VariableDeclarator":
                target = current.id
            if (
                target is not None
                and target.type == "Identifier"
                and target.get("binding") is not None
            ):
                env[id(target.binding)] = UNKNOWN
            stack.extend(iter_child_nodes(current))


# -- per-function summarisation -----------------------------------------------


def _scope_within(binding_scope, fn_scope) -> bool:
    """Whether ``binding_scope`` is ``fn_scope`` or nested inside it."""
    scope = binding_scope
    while scope is not None:
        if scope is fn_scope:
            return True
        scope = scope.parent
    return False


def _body_signals(info: _FunctionInfo, ticker: _Ticker) -> dict[str, Any]:
    """Structural facts about one function body (loops, ops, writes)."""
    fn_scope = info.node.get("scope")
    member_calls: set[str] = set()
    operators: set[str] = set()
    has_loop = False
    escaping_write = False
    member_write = False
    stack = [info.node.get("body")]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        ticker.tick()
        node_type = node.type
        if node_type in FUNCTION_TYPES and node is not info.node:
            continue  # nested functions summarised on their own
        if node_type in ("ForStatement", "WhileStatement", "DoWhileStatement"):
            has_loop = True
        elif node_type == "BinaryExpression":
            operators.add(node.operator)
        elif node_type == "CallExpression":
            callee = node.callee
            if callee.type == "MemberExpression" and callee.property.type == "Identifier":
                member_calls.add(callee.property.name)
        elif node_type in ("AssignmentExpression", "UpdateExpression"):
            target = node.left if node_type == "AssignmentExpression" else node.argument
            if target.type == "MemberExpression":
                member_write = True
            elif target.type == "Identifier":
                binding = target.get("binding")
                if binding is not None and fn_scope is not None:
                    if not _scope_within(binding.scope, fn_scope) and (
                        binding is not info.binding
                    ):
                        escaping_write = True
        stack.extend(iter_child_nodes(node))
    return {
        "member_calls": member_calls,
        "operators": operators,
        "has_loop": has_loop,
        "escaping_write": escaping_write,
        "member_write": member_write,
    }


def _is_impure_call(call: Node, bound: dict[int, _FunctionInfo]) -> bool:
    """Whether one call site breaks the caller's purity."""
    callee = call.get("callee")
    if callee is None:
        return True
    if callee.type == "MemberExpression":
        prop = callee.property
        name = prop.name if prop.type == "Identifier" else None
        return name not in _MIXING_MEMBER_CALLS and name not in (
            "push",
            "shift",
            "length",
            "split",
            "join",
            "slice",
            "charAt",
        )
    if callee.type != "Identifier":
        return True
    if callee.name in _PURE_GLOBAL_CALLEES:
        return False
    info = _resolve_call(call, bound)
    if info is None:
        return True
    summary = info.summary
    return summary is None or not summary.pure


def _summarise(
    info: _FunctionInfo,
    evaluator: _Evaluator,
    bound: dict[int, _FunctionInfo],
    ticker: _Ticker,
) -> FunctionSummary:
    node = info.node
    params = node.get("params") or []
    summary = FunctionSummary(name=info.name, node=node, params=len(params))

    signals = _body_signals(info, ticker)
    resolved_callees = {
        id(target)
        for target in (_resolve_call(call, bound) for call in info.calls)
        if target is not None
    }
    summary.fanout = len(resolved_callees)
    summary.pure = not (
        signals["escaping_write"]
        or signals["member_write"]
        or any(_is_impure_call(call, bound) for call in info.calls)
    )

    body = node.get("body")
    if body is None:
        return summary

    # Parameter-symbolic environment for the straight-line evaluation.
    env = dict(evaluator.module_env)
    for position, param in enumerate(params):
        if param.type == "Identifier" and param.get("binding") is not None:
            env[id(param.binding)] = ParamRef(position)

    if body.type != "BlockStatement":
        returned = evaluator.eval(body, env, 0)
        self_referencing = False
    else:
        returned, self_referencing = evaluator._eval_statements(
            body.body, env, node, 0, own_binding=info.binding
        )
    summary.self_referencing = self_referencing
    if self_referencing:
        # Reassigning the own binding is the memoizer signature, not an
        # escaping effect — purity was computed with it excluded already.
        pass

    text = const_str(returned)
    if text is not None:
        summary.returns_constant_string = text
    elif isinstance(returned, StringTable):
        summary.returns_table = returned
    elif isinstance(returned, TableLookup):
        kind = "base64" if returned.encoded else "index"
        summary.decoder = DecoderSummary(
            kind=kind,
            table=returned.table.values,
            offset=returned.offset,
            index_param=returned.param,
            key_param=None,
            chain=(summary.name or "<anonymous>", *returned.table.origin),
        )
    elif (
        len(params) >= 2
        and signals["has_loop"]
        and "^" in signals["operators"]
        and _MIXING_MEMBER_CALLS <= signals["member_calls"]
    ):
        # RC4-style mixing: the table entry was captured into a local
        # (straight-line prefix), then decoded char-by-char in loops.
        lookup = next(
            (value for value in env.values() if isinstance(value, TableLookup)),
            None,
        )
        if lookup is not None and lookup.param == 0:
            summary.decoder = DecoderSummary(
                kind="rc4",
                table=lookup.table.values,
                offset=lookup.offset,
                index_param=0,
                key_param=1,
                chain=(summary.name or "<anonymous>", *lookup.table.origin),
            )
    return summary


# -- entry points -------------------------------------------------------------


def analyze_program(
    program: Node,
    budget: InterprocBudget | None = None,
) -> InterprocResult:
    """Whole-program interprocedural analysis over a parsed ``Program``.

    Runs scope analysis when the tree has none.  Never raises on budget
    exhaustion — the result degrades to :meth:`InterprocResult.empty`.
    """
    budget = budget or DEFAULT_BUDGET
    if program.get("scope") is None:
        analyze_scopes(program)
    ticker = _Ticker(budget)
    try:
        functions, module_calls, total_calls = _collect(program, ticker)
        if len(functions) > budget.max_functions:
            raise BudgetExceeded("function budget")
        bound = _bind_functions(program, functions, ticker)
        module_env = _module_env(program, ticker)
        evaluator = _Evaluator(bound, module_env, budget, ticker)

        # Two rounds: table functions summarise first (returns_table),
        # decoders that call them resolve on the second pass.
        for _ in range(2):
            for info in functions:
                info.summary = _summarise(info, evaluator, bound, ticker)

        resolved = 0
        call_counts: dict[int, int] = {}
        for call in module_calls:
            target = _resolve_call(call, bound)
            if target is not None:
                resolved += 1
                call_counts[id(target)] = call_counts.get(id(target), 0) + 1
        for info in functions:
            for call in info.calls:
                target = _resolve_call(call, bound)
                if target is not None:
                    resolved += 1
                    call_counts[id(target)] = call_counts.get(id(target), 0) + 1
        summaries: list[FunctionSummary] = []
        for info in functions:
            if info.summary is None:  # pragma: no cover - defensive
                continue
            info.summary.call_sites = call_counts.get(id(info), 0)
            summaries.append(info.summary)
        return InterprocResult(
            summaries=summaries,
            total_calls=total_calls,
            resolved_calls=resolved,
            degraded=False,
        )
    except BudgetExceeded:
        return InterprocResult.empty()
    except RecursionError:  # pragma: no cover - extreme nesting safety net
        return InterprocResult.empty()


def analyze_enhanced(enhanced, budget: InterprocBudget | None = None) -> InterprocResult:
    """Analysis entry point for an :class:`~repro.flows.graph.EnhancedAST`."""
    return analyze_program(enhanced.program, budget=budget)
