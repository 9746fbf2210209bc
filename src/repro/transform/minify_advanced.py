"""Advanced minification (§II-A: *minification advanced*).

Mirrors Google-Closure-class optimizations on top of basic minification:

- constant folding of literal arithmetic/string concatenation,
- boolean literal shortening (``true`` → ``!0``, ``false`` → ``!1``),
- ``if``/``else`` with single expression arms → conditional operator,
- ``if`` without ``else`` → ``test && effect`` expression,
- elimination of statically dead branches (``if (false) …``) and of
  unreachable statements after ``return``/``throw``/``break``/``continue``,
- merging of consecutive expression statements into sequence expressions,
- ``undefined`` → ``void 0``.
"""

from __future__ import annotations

import random

from repro.js.ast_nodes import Node
from repro.js.builder import literal, sequence, unary
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.semantics import MISS, binary, has_literal, is_number, literal_value, to_boolean
from repro.js.visitor import NodeTransformer
from repro.transform.base import Technique, Transformer, register
from repro.transform.renaming import rename_short

_TERMINATORS = frozenset(
    {"ReturnStatement", "ThrowStatement", "BreakStatement", "ContinueStatement"}
)


class _Folder(NodeTransformer):
    """Bottom-up simplification passes (children are already folded)."""

    def visit_BinaryExpression(self, node: Node) -> Node | None:
        left = literal_value(node.left)
        right = literal_value(node.right)
        if left is MISS or right is MISS:
            return None
        operator = node.operator
        if operator == "+":
            # A string on either side concatenates; numbers and booleans add.
            if not (
                isinstance(left, str)
                or isinstance(right, str)
                or (isinstance(left, (int, float)) and isinstance(right, (int, float)))
            ):
                return None
        elif operator not in ("-", "*", "/", "%") or not (is_number(left) and is_number(right)):
            return None
        value = binary(operator, left, right)
        if not has_literal(value):
            return None  # NaN, ±Infinity and -0 have no literal: keep the code
        return literal(value)

    def visit_IfStatement(self, node: Node) -> Node | list | object | None:
        test = literal_value(node.test)
        if test is not MISS:
            if to_boolean(test):
                return node.consequent
            if node.alternate is not None:
                return node.alternate
            return NodeTransformer.REMOVE
        consequent = _single_expression(node.consequent)
        alternate = _single_expression(node.alternate) if node.alternate else None
        if consequent is not None and alternate is not None:
            return Node(
                "ExpressionStatement",
                expression=Node(
                    "ConditionalExpression",
                    test=node.test,
                    consequent=consequent,
                    alternate=alternate,
                    start=0,
                    end=0,
                ),
                start=0,
                end=0,
            )
        if consequent is not None and node.alternate is None:
            return Node(
                "ExpressionStatement",
                expression=Node(
                    "LogicalExpression",
                    operator="&&",
                    left=node.test,
                    right=consequent,
                    start=0,
                    end=0,
                ),
                start=0,
                end=0,
            )
        return None

    def visit_Literal(self, node: Node) -> Node | None:
        if node.value is True:
            return unary("!", literal(0))
        if node.value is False:
            return unary("!", literal(1))
        return None

    def visit_BlockStatement(self, node: Node) -> Node | None:
        node.body = _compress_statements(node.body)
        return None

    def visit_Program(self, node: Node) -> Node | None:
        node.body = _compress_statements(node.body)
        return None


def _single_expression(statement: Node | None) -> Node | None:
    """The lone expression of a single-expression statement/block, if any."""
    if statement is None:
        return None
    if statement.type == "ExpressionStatement":
        return statement.expression
    if statement.type == "BlockStatement" and len(statement.body) == 1:
        return _single_expression(statement.body[0])
    return None


def _compress_statements(body: list[Node]) -> list[Node]:
    """Drop unreachable/empty statements, then merge expression runs."""
    reachable: list[Node] = []
    terminated = False
    for statement in body:
        if terminated and statement.type not in ("FunctionDeclaration", "VariableDeclaration"):
            continue  # unreachable (hoisted declarations survive)
        if statement.type == "EmptyStatement":
            continue
        reachable.append(statement)
        if statement.type in _TERMINATORS:
            terminated = True
    merged: list[Node] = []
    run: list[Node] = []
    for statement in reachable:
        if statement.type == "ExpressionStatement":
            run.append(statement)
            continue
        _flush_expression_run(run, merged)
        merged.append(statement)
    _flush_expression_run(run, merged)
    return merged


def _flush_expression_run(run: list[Node], out: list[Node]) -> None:
    if not run:
        return
    if len(run) == 1:
        out.append(run[0])
    else:
        expressions = []
        for statement in run:
            expression = statement.expression
            if expression.type == "SequenceExpression":
                expressions.extend(expression.expressions)
            else:
                expressions.append(expression)
        out.append(
            Node("ExpressionStatement", expression=sequence(expressions), start=0, end=0)
        )
    run.clear()


def _replace_undefined(program: Node) -> None:
    """Rewrite value-position ``undefined`` references to ``void 0``."""
    from repro.js.ast_nodes import iter_fields
    from repro.js.visitor import walk_with_parents

    replacement_needed: list[tuple[Node, str, int | None, Node]] = []
    for node, parent in walk_with_parents(program):
        if parent is None or node.type != "Identifier" or node.name != "undefined":
            continue
        if parent.type == "MemberExpression" and parent.property is node and not parent.get("computed"):
            continue
        if parent.type in ("Property", "MethodDefinition", "PropertyDefinition") and parent.key is node and not parent.get("computed"):
            continue
        if parent.type == "LabeledStatement" or parent.type in ("BreakStatement", "ContinueStatement"):
            continue
        if parent.type == "VariableDeclarator" and parent.id is node:
            continue
        for field, value in iter_fields(parent):
            if value is node:
                replacement_needed.append((parent, field, None, node))
            elif isinstance(value, list):
                for pos, item in enumerate(value):
                    if item is node:
                        replacement_needed.append((parent, field, pos, node))
    for parent, field, pos, _node in replacement_needed:
        void0 = Node(
            "UnaryExpression", operator="void", argument=literal(0), prefix=True, start=0, end=0
        )
        if pos is None:
            setattr(parent, field, void0)
        else:
            getattr(parent, field)[pos] = void0


class AdvancedMinifier(Transformer):
    """Closure-compiler-style optimizing minifier."""

    technique = Technique.MINIFICATION_ADVANCED
    # Advanced tools also perform every basic minification step.
    labels = frozenset({Technique.MINIFICATION_ADVANCED, Technique.MINIFICATION_SIMPLE})

    def transform(self, source: str, rng: random.Random) -> str:
        program = parse(source)
        program = _Folder().transform(program)
        _replace_undefined(program)
        rename_short(program)
        return generate(program, compact=True)


register(AdvancedMinifier())
