"""JavaScript code generation from ESTree ASTs.

Supports two styles:

- ``pretty`` (default): indented, one statement per line — the shape of
  human-written code.
- ``compact``: no redundant whitespace and no newlines — the shape the
  simple minifier emits.

Parenthesisation is precedence-driven so generated code re-parses to an
equivalent AST (round-trip property, exercised by the test suite).
"""

from __future__ import annotations

import json

from repro.js.ast_nodes import Node
from repro.js.semantics import to_string

# Expression precedence used to decide parenthesis insertion.
_PRECEDENCE = {
    "SequenceExpression": 0,
    "AssignmentExpression": 2,
    "ArrowFunctionExpression": 2,
    "YieldExpression": 2,
    "ConditionalExpression": 3,
    "LogicalExpression": None,  # operator-dependent
    "BinaryExpression": None,  # operator-dependent
    "UnaryExpression": 14,
    "AwaitExpression": 14,
    "UpdateExpression": 15,
    "CallExpression": 17,
    "NewExpression": 17,
    "MemberExpression": 18,
    "TaggedTemplateExpression": 18,
}

def _is_and_or(node) -> bool:
    """Is ``node`` a bare ``&&``/``||`` expression (illegal beside ``??``)?"""
    return (
        getattr(node, "type", None) == "LogicalExpression"
        and node.operator in ("&&", "||")
    )


_OPERATOR_PRECEDENCE = {
    # ``??`` binds looser than ``||`` for the *parser* (precedence 1 vs 2
    # in repro.js.parser), so the generator must parenthesise
    # ``(a ?? b) || c`` — at the old value of 4 the parens vanished and
    # the output reparsed as ``a ?? (b || c)``.  3.5 keeps it above
    # ConditionalExpression (3) so ``(a ? b : c) ?? d`` stays wrapped.
    "??": 3.5,
    "||": 4,
    "&&": 5,
    "|": 6,
    "^": 7,
    "&": 8,
    "==": 9,
    "!=": 9,
    "===": 9,
    "!==": 9,
    "<": 10,
    ">": 10,
    "<=": 10,
    ">=": 10,
    "in": 10,
    "instanceof": 10,
    "<<": 11,
    ">>": 11,
    ">>>": 11,
    "+": 12,
    "-": 12,
    "*": 13,
    "/": 13,
    "%": 13,
    "**": 13,
}

_PRIMARY = 20


def _precedence(node: Node) -> int:
    kind = node.type
    if kind in ("BinaryExpression", "LogicalExpression"):
        return _OPERATOR_PRECEDENCE.get(node.operator, 9)
    value = _PRECEDENCE.get(kind)
    if value is not None:
        return value
    return _PRIMARY


class CodeGenerator:
    """Stateful AST-to-source printer."""

    def __init__(self, compact: bool = False, indent: str = "  ") -> None:
        self.compact = compact
        self.indent_unit = "" if compact else indent
        self.newline = "" if compact else "\n"
        self.space = "" if compact else " "
        self.depth = 0
        self.parts: list[str] = []
        # Inside a classic for-statement init, a bare `in` operator would
        # be mistaken for a for-in header; it must be parenthesised.
        self._no_in = False

    # -- helpers -------------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.parts.append(text)

    def _indent(self) -> None:
        if not self.compact:
            self.parts.append(self.indent_unit * self.depth)

    def _line(self) -> None:
        self.parts.append(self.newline)

    def generate(self, node: Node) -> str:
        self._statement(node) if node.type != "Program" else self._program(node)
        return "".join(self.parts)

    def _program(self, node: Node) -> None:
        for statement in node.body:
            self._indent()
            self._statement(statement)
            self._line()

    # -- statements ----------------------------------------------------------

    def _statement(self, node: Node) -> None:
        method = getattr(self, f"_stmt_{node.type}", None)
        if method is None:
            raise ValueError(f"Cannot generate statement of type {node.type}")
        method(node)

    def _stmt_ExpressionStatement(self, node: Node) -> None:
        text_before = len(self.parts)
        self._expression(node.expression, 0)
        # Wrap leading `{` or `function`/`class` in parens so the statement
        # re-parses as an expression statement.
        emitted = "".join(self.parts[text_before:])
        if emitted.startswith(("{", "function", "class", "async function")):
            del self.parts[text_before:]
            self._emit("(" + emitted + ")")
        self._emit(";")

    def _stmt_BlockStatement(self, node: Node) -> None:
        self._emit("{")
        if node.body:
            self._line()
            self.depth += 1
            for statement in node.body:
                self._indent()
                self._statement(statement)
                self._line()
            self.depth -= 1
            self._indent()
        self._emit("}")

    def _stmt_VariableDeclaration(self, node: Node) -> None:
        self._variable_declaration(node)
        self._emit(";")

    def _variable_declaration(self, node: Node) -> None:
        self._emit(node.kind + " ")
        for pos, declarator in enumerate(node.declarations):
            if pos:
                self._emit("," + self.space)
            self._expression(declarator.id, 2)
            if declarator.init is not None:
                self._emit(self.space + "=" + self.space)
                self._expression(declarator.init, 2)

    def _stmt_FunctionDeclaration(self, node: Node) -> None:
        self._function(node)

    def _function(self, node: Node) -> None:
        if node.get("async"):
            self._emit("async ")
        self._emit("function")
        if node.get("generator"):
            self._emit("*")
        if node.get("id") is not None:
            self._emit(" ")
            self._expression(node.id, _PRIMARY)
        self._params(node.params)
        self._emit(self.space)
        self._statement(node.body)

    def _params(self, params: list[Node]) -> None:
        self._emit("(")
        for pos, param in enumerate(params):
            if pos:
                self._emit("," + self.space)
            self._expression(param, 2)
        self._emit(")")

    def _stmt_ClassDeclaration(self, node: Node) -> None:
        self._class(node)

    def _class(self, node: Node) -> None:
        self._emit("class")
        if node.get("id") is not None:
            self._emit(" ")
            self._expression(node.id, _PRIMARY)
        if node.get("superClass") is not None:
            self._emit(" extends ")
            self._expression(node.superClass, 18)
        self._emit(self.space + "{")
        if node.body.body:
            self._line()
            self.depth += 1
            for member in node.body.body:
                self._indent()
                self._class_member(member)
                self._line()
            self.depth -= 1
            self._indent()
        self._emit("}")

    def _class_member(self, node: Node) -> None:
        if node.get("static"):
            self._emit("static ")
        if node.type == "PropertyDefinition":
            self._property_key(node)
            if node.get("value") is not None:
                self._emit(self.space + "=" + self.space)
                self._expression(node.value, 2)
            self._emit(";")
            return
        value = node.value
        if node.kind in ("get", "set"):
            self._emit(node.kind + " ")
        elif value.get("async"):
            self._emit("async ")
        if value.get("generator"):
            self._emit("*")
        self._property_key(node)
        self._params(value.params)
        self._emit(self.space)
        self._statement(value.body)

    def _property_key(self, node: Node) -> None:
        if node.get("computed"):
            self._emit("[")
            self._expression(node.key, 2)
            self._emit("]")
        else:
            self._expression(node.key, _PRIMARY)

    def _stmt_IfStatement(self, node: Node) -> None:
        self._emit("if" + self.space + "(")
        self._expression(node.test, 0)
        self._emit(")" + self.space)
        self._nested_statement(node.consequent, needs_block_for_else=node.alternate is not None)
        if node.alternate is not None:
            if self.parts and self.parts[-1].endswith("}"):
                self._emit(self.space + "else")
            else:
                self._line()
                self._indent()
                self._emit("else")
            if node.alternate.type == "IfStatement":
                self._emit(" ")
                self._statement(node.alternate)
            else:
                self._emit(self.space if node.alternate.type == "BlockStatement" else " ")
                self._nested_statement(node.alternate)

    def _nested_statement(self, node: Node, needs_block_for_else: bool = False) -> None:
        if node.type == "BlockStatement":
            self._statement(node)
            return
        if needs_block_for_else and node.type == "IfStatement":
            # Avoid dangling-else ambiguity.
            self._emit("{")
            self._line()
            self.depth += 1
            self._indent()
            self._statement(node)
            self._line()
            self.depth -= 1
            self._indent()
            self._emit("}")
            return
        if self.compact:
            self._statement(node)
            return
        self._line()
        self.depth += 1
        self._indent()
        self._statement(node)
        self.depth -= 1

    def _stmt_ForStatement(self, node: Node) -> None:
        self._emit("for" + self.space + "(")
        if node.init is not None:
            self._no_in = True
            try:
                if node.init.type == "VariableDeclaration":
                    self._variable_declaration(node.init)
                else:
                    self._expression(node.init, 0)
            finally:
                self._no_in = False
        self._emit(";")
        if node.test is not None:
            self._emit(self.space)
            self._expression(node.test, 0)
        self._emit(";")
        if node.update is not None:
            self._emit(self.space)
            self._expression(node.update, 0)
        self._emit(")" + self.space)
        self._nested_statement(node.body)

    def _stmt_ForInStatement(self, node: Node) -> None:
        self._for_in_of(node, "in")

    def _stmt_ForOfStatement(self, node: Node) -> None:
        self._for_in_of(node, "of")

    def _for_in_of(self, node: Node, keyword: str) -> None:
        self._emit("for" + self.space + "(")
        if node.left.type == "VariableDeclaration":
            self._variable_declaration(node.left)
        else:
            self._expression(node.left, 2)
        self._emit(f" {keyword} ")
        self._expression(node.right, 2)
        self._emit(")" + self.space)
        self._nested_statement(node.body)

    def _stmt_WhileStatement(self, node: Node) -> None:
        self._emit("while" + self.space + "(")
        self._expression(node.test, 0)
        self._emit(")" + self.space)
        self._nested_statement(node.body)

    def _stmt_DoWhileStatement(self, node: Node) -> None:
        self._emit("do" + (self.space if node.body.type == "BlockStatement" else " "))
        self._nested_statement(node.body)
        if not self.compact and node.body.type != "BlockStatement":
            self._line()
            self._indent()
        self._emit(self.space + "while" + self.space + "(")
        self._expression(node.test, 0)
        self._emit(");")

    def _stmt_SwitchStatement(self, node: Node) -> None:
        self._emit("switch" + self.space + "(")
        self._expression(node.discriminant, 0)
        self._emit(")" + self.space + "{")
        self._line()
        self.depth += 1
        for case in node.cases:
            self._indent()
            if case.test is not None:
                self._emit("case ")
                self._expression(case.test, 0)
                self._emit(":")
            else:
                self._emit("default:")
            if case.consequent:
                self._line()
                self.depth += 1
                for statement in case.consequent:
                    self._indent()
                    self._statement(statement)
                    self._line()
                self.depth -= 1
            else:
                self._line()
        self.depth -= 1
        self._indent()
        self._emit("}")

    def _stmt_ReturnStatement(self, node: Node) -> None:
        self._emit("return")
        if node.argument is not None:
            self._emit(" ")
            self._expression(node.argument, 0)
        self._emit(";")

    def _stmt_BreakStatement(self, node: Node) -> None:
        self._emit("break")
        if node.get("label") is not None:
            self._emit(" ")
            self._expression(node.label, _PRIMARY)
        self._emit(";")

    def _stmt_ContinueStatement(self, node: Node) -> None:
        self._emit("continue")
        if node.get("label") is not None:
            self._emit(" ")
            self._expression(node.label, _PRIMARY)
        self._emit(";")

    def _stmt_ThrowStatement(self, node: Node) -> None:
        self._emit("throw ")
        self._expression(node.argument, 0)
        self._emit(";")

    def _stmt_TryStatement(self, node: Node) -> None:
        self._emit("try" + self.space)
        self._statement(node.block)
        if node.handler is not None:
            self._emit(self.space + "catch")
            if node.handler.param is not None:
                self._emit(self.space + "(")
                self._expression(node.handler.param, 2)
                self._emit(")")
            self._emit(self.space)
            self._statement(node.handler.body)
        if node.finalizer is not None:
            self._emit(self.space + "finally" + self.space)
            self._statement(node.finalizer)

    def _stmt_LabeledStatement(self, node: Node) -> None:
        self._expression(node.label, _PRIMARY)
        self._emit(":" + self.space)
        self._statement(node.body)

    def _stmt_EmptyStatement(self, node: Node) -> None:
        self._emit(";")

    def _stmt_DebuggerStatement(self, node: Node) -> None:
        self._emit("debugger;")

    def _stmt_WithStatement(self, node: Node) -> None:
        self._emit("with" + self.space + "(")
        self._expression(node.object, 0)
        self._emit(")" + self.space)
        self._nested_statement(node.body)

    def _stmt_ImportDeclaration(self, node: Node) -> None:
        self._emit("import ")
        if node.specifiers:
            named: list[Node] = []
            for pos, spec in enumerate(node.specifiers):
                if spec.type == "ImportDefaultSpecifier":
                    self._expression(spec.local, _PRIMARY)
                    if pos < len(node.specifiers) - 1:
                        self._emit("," + self.space)
                elif spec.type == "ImportNamespaceSpecifier":
                    self._emit("* as ")
                    self._expression(spec.local, _PRIMARY)
                else:
                    named.append(spec)
            if named:
                self._emit("{")
                for pos, spec in enumerate(named):
                    if pos:
                        self._emit("," + self.space)
                    self._expression(spec.imported, _PRIMARY)
                    if spec.local.name != spec.imported.name:
                        self._emit(" as ")
                        self._expression(spec.local, _PRIMARY)
                self._emit("}")
            self._emit(" from ")
        self._expression(node.source, _PRIMARY)
        self._emit(";")

    def _stmt_ExportNamedDeclaration(self, node: Node) -> None:
        self._emit("export ")
        if node.get("declaration") is not None:
            self._statement(node.declaration)
            return
        self._emit("{")
        for pos, spec in enumerate(node.specifiers):
            if pos:
                self._emit("," + self.space)
            self._expression(spec.local, _PRIMARY)
            if spec.exported.name != spec.local.name:
                self._emit(" as ")
                self._expression(spec.exported, _PRIMARY)
        self._emit("}")
        if node.get("source") is not None:
            self._emit(" from ")
            self._expression(node.source, _PRIMARY)
        self._emit(";")

    def _stmt_ExportDefaultDeclaration(self, node: Node) -> None:
        self._emit("export default ")
        declaration = node.declaration
        if declaration.type in ("FunctionDeclaration", "ClassDeclaration"):
            self._statement(declaration)
        else:
            self._expression(declaration, 2)
            self._emit(";")

    def _stmt_ExportAllDeclaration(self, node: Node) -> None:
        self._emit("export * ")
        if node.get("exported") is not None:
            self._emit("as ")
            self._expression(node.exported, _PRIMARY)
            self._emit(" ")
        self._emit("from ")
        self._expression(node.source, _PRIMARY)
        self._emit(";")

    # -- expressions ---------------------------------------------------------

    def _expression(self, node: Node, min_precedence: int) -> None:
        precedence = _precedence(node)
        needs_parens = precedence < min_precedence
        if needs_parens:
            self._emit("(")
        method = getattr(self, f"_expr_{node.type}", None)
        if method is None:
            raise ValueError(f"Cannot generate expression of type {node.type}")
        method(node)
        if needs_parens:
            self._emit(")")

    def _expr_Identifier(self, node: Node) -> None:
        self._emit(node.name)

    def _expr_Literal(self, node: Node) -> None:
        raw = node.get("raw")  # a regex literal always keeps its raw
        if raw is not None:
            self._emit(raw)
        elif isinstance(node.value, str):
            self._emit(_quote_string(node.value))
        else:
            self._emit(to_string(node.value))

    def _expr_ThisExpression(self, node: Node) -> None:
        self._emit("this")

    def _expr_Super(self, node: Node) -> None:
        self._emit("super")

    def _expr_Import(self, node: Node) -> None:
        self._emit("import")

    def _expr_MetaProperty(self, node: Node) -> None:
        self._expression(node.meta, _PRIMARY)
        self._emit(".")
        self._expression(node.property, _PRIMARY)

    def _expr_ArrayExpression(self, node: Node) -> None:
        self._emit("[")
        for pos, element in enumerate(node.elements):
            if pos:
                self._emit("," + self.space)
            if element is None:
                continue
            self._expression(element, 2)
        if node.elements and node.elements[-1] is None:
            # A trailing hole needs its own comma: `[1, ]` has length 1.
            self._emit(",")
        self._emit("]")

    def _expr_ArrayPattern(self, node: Node) -> None:
        self._expr_ArrayExpression(node)

    def _expr_ObjectExpression(self, node: Node) -> None:
        self._emit("{")
        for pos, prop in enumerate(node.properties):
            if pos:
                self._emit("," + self.space)
            self._object_property(prop)
        self._emit("}")

    def _expr_ObjectPattern(self, node: Node) -> None:
        self._emit("{")
        for pos, prop in enumerate(node.properties):
            if pos:
                self._emit("," + self.space)
            if prop.type == "RestElement":
                self._expr_RestElement(prop)
            else:
                self._object_property(prop)
        self._emit("}")

    def _object_property(self, node: Node) -> None:
        if node.type == "SpreadElement":
            self._expr_SpreadElement(node)
            return
        if node.get("kind") in ("get", "set"):
            self._emit(node.kind + " ")
            self._property_key(node)
            self._params(node.value.params)
            self._emit(self.space)
            self._statement(node.value.body)
            return
        if node.get("method"):
            value = node.value
            if value.get("async"):
                self._emit("async ")
            if value.get("generator"):
                self._emit("*")
            self._property_key(node)
            self._params(value.params)
            self._emit(self.space)
            self._statement(value.body)
            return
        if node.get("shorthand"):
            self._expression(node.value, 2)
            return
        self._property_key(node)
        self._emit(":" + self.space)
        self._expression(node.value, 2)

    def _expr_Property(self, node: Node) -> None:
        self._object_property(node)

    def _expr_FunctionExpression(self, node: Node) -> None:
        self._function(node)

    def _expr_ClassExpression(self, node: Node) -> None:
        self._class(node)

    def _expr_ArrowFunctionExpression(self, node: Node) -> None:
        if node.get("async"):
            self._emit("async ")
        if len(node.params) == 1 and node.params[0].type == "Identifier":
            self._expression(node.params[0], _PRIMARY)
        else:
            self._params(node.params)
        self._emit(self.space + "=>" + self.space)
        if node.body.type == "BlockStatement":
            self._statement(node.body)
        elif node.body.type == "ObjectExpression":
            self._emit("(")
            self._expression(node.body, 2)
            self._emit(")")
        else:
            self._expression(node.body, 2)

    def _expr_SequenceExpression(self, node: Node) -> None:
        for pos, expression in enumerate(node.expressions):
            if pos:
                self._emit("," + self.space)
            self._expression(expression, 2)

    def _expr_AssignmentExpression(self, node: Node) -> None:
        self._expression(node.left, 15)
        self._emit(self.space + node.operator + self.space)
        self._expression(node.right, 2)

    def _expr_AssignmentPattern(self, node: Node) -> None:
        self._expression(node.left, 15)
        self._emit(self.space + "=" + self.space)
        self._expression(node.right, 2)

    def _expr_ConditionalExpression(self, node: Node) -> None:
        self._expression(node.test, 4)
        self._emit(self.space + "?" + self.space)
        self._expression(node.consequent, 2)
        self._emit(self.space + ":" + self.space)
        self._expression(node.alternate, 2)

    def _expr_LogicalExpression(self, node: Node) -> None:
        self._binary_like(node)

    def _expr_BinaryExpression(self, node: Node) -> None:
        self._binary_like(node)

    def _binary_like(self, node: Node) -> None:
        precedence = _OPERATOR_PRECEDENCE.get(node.operator, 9)
        operator = node.operator
        if operator == "in" and self._no_in:
            self._no_in = False
            try:
                self._emit("(")
                self._binary_like(node)
                self._emit(")")
            finally:
                self._no_in = True
            return
        # Right operand needs higher precedence for left-associative ops;
        # ** is right-associative, so the *left* operand needs it instead.
        left_min = precedence + 1 if operator == "**" else precedence
        if operator == "??" and _is_and_or(node.left):
            # The spec forbids unparenthesised ``&&``/``||`` mixed with
            # ``??`` on either side — precedence alone cannot express that.
            self._emit("(")
            self._expression(node.left, 0)
            self._emit(")")
        else:
            self._expression(node.left, left_min)
        if operator in ("in", "instanceof"):
            self._emit(f" {operator} ")
        else:
            self._emit(self.space + operator + self.space)
        right_min = precedence + 1 if operator != "**" else precedence
        before = len(self.parts)
        if operator == "??" and _is_and_or(node.right):
            self._emit("(")
            self._expression(node.right, 0)
            self._emit(")")
        else:
            self._expression(node.right, right_min)
        # `a - -b` must not merge into `a--b` in compact mode.
        if self.compact and operator in ("+", "-"):
            emitted = "".join(self.parts[before:])
            if emitted.startswith(operator):
                self.parts.insert(before, " ")

    def _expr_UnaryExpression(self, node: Node) -> None:
        operator = node.operator
        self._emit(operator)
        if operator.isalpha():
            self._emit(" ")
        before = len(self.parts)
        self._expression(node.argument, 14)
        if not operator.isalpha():
            emitted = "".join(self.parts[before:])
            if emitted.startswith(operator[0]):
                self.parts.insert(before, " ")

    def _expr_UpdateExpression(self, node: Node) -> None:
        if node.prefix:
            self._emit(node.operator)
            self._expression(node.argument, 14)
        else:
            self._expression(node.argument, 15)
            self._emit(node.operator)

    def _expr_AwaitExpression(self, node: Node) -> None:
        self._emit("await ")
        self._expression(node.argument, 14)

    def _expr_YieldExpression(self, node: Node) -> None:
        self._emit("yield")
        if node.get("delegate"):
            self._emit("*")
        if node.get("argument") is not None:
            self._emit(" ")
            self._expression(node.argument, 2)

    def _expr_CallExpression(self, node: Node) -> None:
        callee_min = 17
        if node.callee.type in ("FunctionExpression", "ClassExpression"):
            callee_min = _PRIMARY + 1  # force parens for IIFE
        self._expression(node.callee, callee_min)
        if node.get("optional"):
            self._emit("?.")
        self._emit("(")
        for pos, argument in enumerate(node.arguments):
            if pos:
                self._emit("," + self.space)
            self._expression(argument, 2)
        self._emit(")")

    def _expr_NewExpression(self, node: Node) -> None:
        self._emit("new ")
        callee_min = 18
        if _contains_call(node.callee):
            callee_min = _PRIMARY + 1
        self._expression(node.callee, callee_min)
        self._emit("(")
        for pos, argument in enumerate(node.arguments):
            if pos:
                self._emit("," + self.space)
            self._expression(argument, 2)
        self._emit(")")

    def _expr_MemberExpression(self, node: Node) -> None:
        obj = node.object
        obj_min = 18
        if obj.type == "Literal" and isinstance(obj.value, (int, float)) and obj.get("regex") is None:
            obj_min = _PRIMARY + 1  # (1).toString()
        self._expression(obj, obj_min)
        if node.get("computed"):
            if node.get("optional"):
                self._emit("?.")
            self._emit("[")
            self._expression(node.property, 0)
            self._emit("]")
        else:
            self._emit("?." if node.get("optional") else ".")
            self._expression(node.property, _PRIMARY)

    def _expr_SpreadElement(self, node: Node) -> None:
        self._emit("...")
        self._expression(node.argument, 2)

    def _expr_RestElement(self, node: Node) -> None:
        self._emit("...")
        self._expression(node.argument, 2)

    def _expr_TemplateLiteral(self, node: Node) -> None:
        self._emit("`")
        for pos, quasi in enumerate(node.quasis):
            self._emit(quasi.value["raw"])
            if pos < len(node.expressions):
                self._emit("${")
                self._expression(node.expressions[pos], 0)
                self._emit("}")
        self._emit("`")

    def _expr_TaggedTemplateExpression(self, node: Node) -> None:
        self._expression(node.tag, 18)
        self._expr_TemplateLiteral(node.quasi)

    def _expr_TemplateElement(self, node: Node) -> None:  # pragma: no cover
        self._emit(node.value["raw"])


def _contains_call(node: Node) -> bool:
    current = node
    while True:
        if current.type == "CallExpression":
            return True
        if current.type in ("MemberExpression", "TaggedTemplateExpression"):
            current = current.object if current.type == "MemberExpression" else current.tag
            continue
        return False


def _quote_string(value: str) -> str:
    """Produce a JS string literal (JSON escaping is a valid JS subset)."""
    text = json.dumps(value)
    return text


def generate(node: Node, compact: bool = False, indent: str = "  ") -> str:
    """Generate JavaScript source from an AST."""
    generator = CodeGenerator(compact=compact, indent=indent)
    if node.type == "Program":
        return generator.generate(node).rstrip("\n") + ("\n" if not compact else "")
    if node.type.endswith("Statement") or node.type.endswith("Declaration"):
        generator._statement(node)
        return "".join(generator.parts)
    generator._expression(node, 0)
    return "".join(generator.parts)
