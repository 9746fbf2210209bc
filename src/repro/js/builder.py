"""Concise AST construction helpers used by the transformers.

Every helper returns a fresh :class:`~repro.js.ast_nodes.Node` with
``start``/``end`` set to 0 (synthetic nodes carry no source span).
"""

from __future__ import annotations

from repro.js.ast_nodes import Node


def _node(type_: str, **fields) -> Node:
    fields.setdefault("start", 0)
    fields.setdefault("end", 0)
    return Node(type_, **fields)


def identifier(name: str) -> Node:
    return _node("Identifier", name=name)


def literal(value, raw: str | None = None) -> Node:
    return _node("Literal", value=value, raw=raw)


def string(value: str) -> Node:
    return _node("Literal", value=value, raw=None)


def number(value: int | float) -> Node:
    return _node("Literal", value=value, raw=None)


def array(elements: list[Node]) -> Node:
    return _node("ArrayExpression", elements=elements)


def member(obj: Node | str, prop: Node | str, computed: bool = False) -> Node:
    if isinstance(obj, str):
        obj = identifier(obj)
    if isinstance(prop, str):
        prop = identifier(prop) if not computed else string(prop)
    return _node("MemberExpression", object=obj, property=prop, computed=computed)


def call(callee: Node | str, args: list[Node] | None = None) -> Node:
    if isinstance(callee, str):
        callee = identifier(callee)
    return _node("CallExpression", callee=callee, arguments=args or [])


def new(callee: Node | str, args: list[Node] | None = None) -> Node:
    if isinstance(callee, str):
        callee = identifier(callee)
    return _node("NewExpression", callee=callee, arguments=args or [])


def binary(operator: str, left: Node, right: Node) -> Node:
    kind = "LogicalExpression" if operator in ("&&", "||", "??") else "BinaryExpression"
    return _node(kind, operator=operator, left=left, right=right)


def unary(operator: str, argument: Node) -> Node:
    return _node("UnaryExpression", operator=operator, argument=argument, prefix=True)


def assign(target: Node | str, value: Node, operator: str = "=") -> Node:
    if isinstance(target, str):
        target = identifier(target)
    return _node("AssignmentExpression", operator=operator, left=target, right=value)


def update(operator: str, argument: Node, prefix: bool = False) -> Node:
    return _node("UpdateExpression", operator=operator, argument=argument, prefix=prefix)


def conditional(test: Node, consequent: Node, alternate: Node) -> Node:
    return _node(
        "ConditionalExpression", test=test, consequent=consequent, alternate=alternate
    )


def sequence(expressions: list[Node]) -> Node:
    return _node("SequenceExpression", expressions=expressions)


def expr_statement(expression: Node) -> Node:
    return _node("ExpressionStatement", expression=expression)


def block(body: list[Node]) -> Node:
    return _node("BlockStatement", body=body)


def var_decl(name: str | Node, init: Node | None, kind: str = "var") -> Node:
    target = identifier(name) if isinstance(name, str) else name
    declarator = _node("VariableDeclarator", id=target, init=init)
    return _node("VariableDeclaration", declarations=[declarator], kind=kind)


def multi_var_decl(pairs: list[tuple[str, Node | None]], kind: str = "var") -> Node:
    declarations = [
        _node("VariableDeclarator", id=identifier(name), init=init)
        for name, init in pairs
    ]
    return _node("VariableDeclaration", declarations=declarations, kind=kind)


def function_expr(
    params: list[str] | list[Node],
    body: list[Node],
    name: str | None = None,
) -> Node:
    param_nodes = [identifier(p) if isinstance(p, str) else p for p in params]
    return _node(
        "FunctionExpression",
        id=identifier(name) if name else None,
        params=param_nodes,
        body=block(body),
        generator=False,
        **{"async": False},
    )


def function_decl(name: str, params: list[str] | list[Node], body: list[Node]) -> Node:
    param_nodes = [identifier(p) if isinstance(p, str) else p for p in params]
    return _node(
        "FunctionDeclaration",
        id=identifier(name),
        params=param_nodes,
        body=block(body),
        generator=False,
        **{"async": False},
    )


def ret(argument: Node | None = None) -> Node:
    return _node("ReturnStatement", argument=argument)


def if_stmt(test: Node, consequent: Node, alternate: Node | None = None) -> Node:
    return _node("IfStatement", test=test, consequent=consequent, alternate=alternate)


def while_stmt(test: Node, body: Node) -> Node:
    return _node("WhileStatement", test=test, body=body)


def switch(discriminant: Node, cases: list[Node]) -> Node:
    return _node("SwitchStatement", discriminant=discriminant, cases=cases)


def switch_case(test: Node | None, consequent: list[Node]) -> Node:
    return _node("SwitchCase", test=test, consequent=consequent)


def break_stmt() -> Node:
    return _node("BreakStatement", label=None)


def continue_stmt() -> Node:
    return _node("ContinueStatement", label=None)


def throw(argument: Node) -> Node:
    return _node("ThrowStatement", argument=argument)


def try_stmt(body: list[Node], param: str, handler_body: list[Node]) -> Node:
    return _node(
        "TryStatement",
        block=block(body),
        handler=_node("CatchClause", param=identifier(param), body=block(handler_body)),
        finalizer=None,
    )


def empty() -> Node:
    return _node("EmptyStatement")


def debugger() -> Node:
    return _node("DebuggerStatement")


def program(body: list[Node]) -> Node:
    return _node("Program", body=body, sourceType="script")
