"""JSFuck decoding (inverts ``no_alphanumeric``).

A restricted static evaluator for the six-character ``[]()!+`` value
grammar: array/boolean/number atoms, JS string coercion, indexing into
the string forms of natives (``[]["find"]+[]``), ``toString(36)``,
the ``escape``/``unescape`` bootstrap, and the final
``[]["flat"]["constructor"](<payload>)()`` invocation.  When the whole
expression statement evaluates to a Function-constructor call the pass
re-parses the recovered payload and splices it in; any construct outside
the modelled subset aborts the evaluation and leaves the code unchanged.
"""

from __future__ import annotations

import contextlib
import sys

from repro.deob.base import DeobPass, PassContext, PassResult
from repro.js.ast_nodes import Node, clone, iter_child_nodes
from repro.js.parser import parse
from repro.js.semantics import (
    UNDEFINED,
    binary,
    escape,
    is_primitive,
    number_to_string,
    to_boolean,
    to_number,
    to_string,
    unescape,
)


class _Unsupported(Exception):
    """Construct outside the modelled JSFuck subset."""


class _Native:
    """A native function reached as a member (``[]["find"]`` …)."""

    def __init__(self, name: str, this=None):
        self.name = name
        self.this = this

    @property
    def native_string(self) -> str:
        return f"function {self.name}() {{ [native code] }}"


class _FunctionCtor:
    native_string = "function Function() { [native code] }"


class _StringCtor:
    native_string = "function String() { [native code] }"


class _CodeFn:
    """Result of ``Function(source)`` — calling it yields the payload."""

    def __init__(self, source: str):
        self.source = source


class _Bootstrap:
    """``escape`` / ``unescape`` obtained through the Function bootstrap."""

    def __init__(self, name: str):
        self.name = name


class _ArrayIterator:
    native_string = "[object Array Iterator]"


class _Payload:
    """Terminal value: source code the JSFuck expression would execute."""

    def __init__(self, source: str):
        self.source = source


def _to_primitive(value):
    """ToPrimitive of a modelled value: an object's string form."""
    if is_primitive(value):
        return value
    if isinstance(value, list):
        return ",".join(
            "" if item is UNDEFINED or item is None else to_string(_to_primitive(item))
            for item in value
        )
    if isinstance(value, (_Native, _FunctionCtor, _StringCtor, _ArrayIterator)):
        return value.native_string
    raise _Unsupported(f"coercion of {type(value).__name__}")


_ARRAY_NATIVES = frozenset({"flat", "find", "entries", "filter", "concat", "fill", "sort"})


class _Evaluator:
    def __init__(self, max_ops: int):
        self.max_ops = max_ops
        self.ops = 0

    def eval(self, node: Node):
        self.ops += 1
        if self.ops > self.max_ops:
            raise _Unsupported("operation budget exceeded")
        node_type = node.type
        if node_type == "ArrayExpression":
            return [
                UNDEFINED if element is None else self.eval(element)
                for element in node.elements
            ]
        if node_type == "UnaryExpression":
            if node.operator == "!":
                return not to_boolean(self.eval(node.argument))
            if node.operator == "+":
                return to_number(_to_primitive(self.eval(node.argument)))
            raise _Unsupported(f"unary {node.operator}")
        if node_type == "BinaryExpression":
            # Flatten the left spine: spelled strings are +-chains with one
            # term per character, far deeper than the recursion limit.
            terms: list[Node] = []
            current = node
            while current.type == "BinaryExpression":
                if current.operator != "+":
                    raise _Unsupported(f"binary {current.operator}")
                terms.append(current.right)
                current = current.left
            terms.append(current)
            terms.reverse()
            value = self.eval(terms[0])
            for term in terms[1:]:
                value = binary("+", _to_primitive(value), _to_primitive(self.eval(term)))
            return value
        if node_type == "MemberExpression":
            return self._member(self.eval(node.object), self._key(node))
        if node_type == "CallExpression":
            callee = self.eval(node.callee)
            args = [self.eval(argument) for argument in node.arguments]
            return self._call(callee, args)
        raise _Unsupported(node_type)

    def _key(self, node: Node) -> str:
        if not node.get("computed"):
            raise _Unsupported("dot member access")
        return to_string(_to_primitive(self.eval(node.property)))

    def _member(self, obj, key: str):
        if isinstance(obj, list):
            if key.lstrip("-").isdigit():
                index = int(key)
                if 0 <= index < len(obj):
                    return obj[index]
                return UNDEFINED
            if key == "":
                return UNDEFINED
            if key == "length":
                return float(len(obj))
            if key == "constructor":
                return _Native("Array")
            if key in _ARRAY_NATIVES:
                return _Native(key, this=obj)
            return UNDEFINED
        if isinstance(obj, str):
            if key.isdigit():
                index = int(key)
                if 0 <= index < len(obj):
                    return obj[index]
                return UNDEFINED
            if key == "length":
                return float(len(obj))
            if key == "constructor":
                return _StringCtor()
            raise _Unsupported(f"string member {key!r}")
        if isinstance(obj, float):
            if key == "toString":
                return _Native("toString", this=obj)
            raise _Unsupported(f"number member {key!r}")
        if isinstance(obj, _Native):
            if key == "constructor":
                return _FunctionCtor()
            raise _Unsupported(f"native member {key!r}")
        raise _Unsupported(f"member access on {type(obj).__name__}")

    def _call(self, callee, args):
        if isinstance(callee, _FunctionCtor):
            if len(args) == 1 and isinstance(args[0], str):
                return _CodeFn(args[0])
            raise _Unsupported("Function(…) with non-string body")
        if isinstance(callee, _CodeFn):
            body = callee.source.strip()
            if body == "return escape":
                return _Bootstrap("escape")
            if body == "return unescape":
                return _Bootstrap("unescape")
            return _Payload(callee.source)
        if isinstance(callee, _Bootstrap):
            if len(args) != 1:
                raise _Unsupported("bootstrap arity")
            text = to_string(_to_primitive(args[0]))
            return escape(text) if callee.name == "escape" else unescape(text)
        if isinstance(callee, _Native):
            if callee.name == "entries" and not args:
                return _ArrayIterator()
            if callee.name == "toString" and isinstance(callee.this, float):
                radix = int(to_number(_to_primitive(args[0]))) if args else 10
                return number_to_string(callee.this, radix)
            raise _Unsupported(f"native call {callee.name}")
        raise _Unsupported(f"call on {type(callee).__name__}")


_ALLOWED_TYPES = frozenset(
    {
        "ExpressionStatement",
        "CallExpression",
        "MemberExpression",
        "ArrayExpression",
        "UnaryExpression",
        "BinaryExpression",
    }
)


def _is_jsfuck_statement(statement: Node) -> bool:
    """Purely-symbolic expression statement (no identifiers or literals);
    stops at the first node outside the symbol grammar."""
    count = 0
    stack = [statement]
    while stack:
        node = stack.pop()
        if node.type not in _ALLOWED_TYPES:
            return False
        if node.type == "UnaryExpression" and node.operator not in ("!", "+"):
            return False
        if node.type == "BinaryExpression" and node.operator != "+":
            return False
        count += 1
        stack.extend(iter_child_nodes(node))
    return count >= 8  # tiny symbol soups ([] + []) are not worth decoding


#: JSFuck nests the AST far deeper than CPython's default recursion
#: limit even after the +-chain spine flattening (escape/unescape
#: bootstrap arguments are themselves spelled expressions).  The op
#: budget bounds the work; the limit only has to admit the depth.
_EVAL_RECURSION_LIMIT = 40_000


@contextlib.contextmanager
def _deep_recursion():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, _EVAL_RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


class JsfuckDecodePass(DeobPass):
    name = "jsfuck-decode"
    techniques = ("no_alphanumeric",)

    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        allowance = ctx.budget.max_eval_depth - ctx.eval_unwraps
        if allowance <= 0:
            return PassResult(program)
        candidates = [
            statement
            for statement in ctx.nodes(program, "ExpressionStatement")
            if _is_jsfuck_statement(statement)
        ]
        if not candidates:
            return PassResult(program)
        # No candidate holds a statement, so none nests in another, and
        # the typed list lists them in reverse document order.
        candidates.reverse()
        # One evaluator (one op budget) for every candidate, in document
        # order, until the unwrap allowance is spent.
        evaluator = _Evaluator(ctx.budget.max_eval_ops)
        payloads: dict[int, list[Node]] = {}
        failures = 0
        with _deep_recursion():
            for statement in candidates:
                if len(payloads) >= allowance:
                    break
                try:
                    result = evaluator.eval(statement.expression)
                except (_Unsupported, RecursionError, OverflowError, ValueError):
                    failures += 1
                    continue
                if not isinstance(result, _Payload):
                    continue
                try:
                    payloads[id(statement)] = parse(result.source).body
                except Exception:
                    failures += 1
            if not payloads:
                if failures:
                    ctx.notes.append("jsfuck-decode: evaluation failed; left in place")
                return PassResult(program)
            work = clone(program, payloads)
        ctx.eval_unwraps += len(payloads)
        rewrites = sum(1 + len(body) for body in payloads.values())
        return PassResult(work, rewrites)

