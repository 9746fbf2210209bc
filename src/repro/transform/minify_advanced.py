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

from repro.js.ast_nodes import Node, clone, replace
from repro.js.builder import conditional, expr_statement, literal, sequence, unary
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.semantics import MISS, binary, has_literal, is_number, literal_value, to_boolean
from repro.js.visitor import walk, walk_with_parents
from repro.transform.base import Technique, Transformer, register
from repro.transform.renaming import rename_short

_TERMINATORS = frozenset(
    {"ReturnStatement", "ThrowStatement", "BreakStatement", "ContinueStatement"}
)


class _Folder:
    """Folds children first: each node's replacement is computed once, from
    its children as folded (``true`` is ``!0`` by the time ``if (!true)``
    reads it), and recorded in ``edits`` when it differs from the node.

    A statement folds to a statement or, when it is dead, to ``[]``.
    """

    def __init__(self) -> None:
        self.edits: dict[int, Node | list[Node]] = {}
        self._folded: dict[int, Node | list[Node]] = {}

    def fold(self, node: Node) -> Node | list[Node]:
        """``node`` as folded: its replacement, or itself."""
        folded = self._folded.get(id(node))
        if folded is None:
            folded = self._folded[id(node)] = self._fold(node)
        return folded

    def _fold(self, node: Node) -> Node | list[Node]:
        node_type = node.type
        if node_type == "UnaryExpression":
            # Kept, but read through its folded operand: `!true` is `!!0`.
            argument = self.fold(node.argument)
            return node if argument is node.argument else unary(node.operator, argument)
        if node_type == "Literal":
            # true → !0, false → !1
            folded = unary("!", literal(1 - node.value)) if type(node.value) is bool else None
        elif node_type == "BinaryExpression":
            folded = self._fold_binary(node)
        elif node_type == "IfStatement":
            folded = self._fold_if(node)
        elif node_type in ("BlockStatement", "Program"):
            folded = replace(node, body=_compress_statements(self._statements(node.body)))
        else:
            folded = None
        if folded is None:
            return node
        self.edits[id(node)] = folded
        return folded

    def _statements(self, body: list[Node]) -> list[Node]:
        """``body`` as folded, dead statements dropped."""
        out: list[Node] = []
        for statement in body:
            folded = self.fold(statement)
            if isinstance(folded, Node):
                out.append(folded)
            else:
                out.extend(folded)
        return out

    def _statement(self, node: Node | None) -> Node | None:
        """The statement in a single-statement slot as folded; ``None`` when
        the slot is empty or its statement is dead."""
        folded = None if node is None else self.fold(node)
        return folded if isinstance(folded, Node) else None

    def _fold_binary(self, node: Node) -> Node | None:
        left = literal_value(self.fold(node.left))
        right = literal_value(self.fold(node.right))
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

    def _fold_if(self, node: Node) -> Node | list[Node] | None:
        consequent = self._statement(node.consequent)
        alternate = self._statement(node.alternate)
        test = literal_value(self.fold(node.test))
        if test is not MISS:
            kept = consequent if to_boolean(test) else alternate
            return [] if kept is None else kept
        then = _single_expression(consequent)
        if then is None:
            return None
        if alternate is None:  # if (a) b(); → a && b();
            return expr_statement(
                Node("LogicalExpression", operator="&&", left=node.test, right=then, start=0, end=0)
            )
        otherwise = _single_expression(alternate)
        if otherwise is None:
            return None
        return expr_statement(conditional(node.test, then, otherwise))


def fold_program(program: Node) -> Node:
    """``program`` with constants folded, dead code dropped and statement
    runs merged."""
    folder = _Folder()
    for node in reversed(list(walk(program))):  # children first: no deep recursion
        folder.fold(node)
    return clone(program, folder.edits)


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


def _replace_undefined(program: Node) -> Node:
    """``program`` with value-position ``undefined`` references as ``void 0``."""
    edits: dict[int, Node] = {}
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
        edits[id(node)] = Node(
            "UnaryExpression", operator="void", argument=literal(0), prefix=True, start=0, end=0
        )
    return clone(program, edits)


class AdvancedMinifier(Transformer):
    """Closure-compiler-style optimizing minifier."""

    technique = Technique.MINIFICATION_ADVANCED
    # Advanced tools also perform every basic minification step.
    labels = frozenset({Technique.MINIFICATION_ADVANCED, Technique.MINIFICATION_SIMPLE})

    def transform(self, source: str, rng: random.Random) -> str:
        program = _replace_undefined(fold_program(parse(source)))
        program, _ = rename_short(program)
        return generate(program, compact=True)


register(AdvancedMinifier())
