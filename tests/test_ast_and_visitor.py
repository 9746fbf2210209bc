"""Tests for the AST node representation and traversal utilities."""

import pytest

from repro.js.ast_nodes import Node, clone, from_dict, iter_child_nodes, to_dict
from repro.js.parser import parse
from repro.js.visitor import (
    attach_parents,
    count_nodes,
    find_all,
    walk,
    walk_with_parents,
)


class TestNode:
    def test_construction_and_fields(self):
        node = Node("Identifier", name="x", start=0, end=1)
        assert node.type == "Identifier"
        assert node.name == "x"

    def test_get_with_default(self):
        node = Node("Identifier", name="x")
        assert node.get("missing") is None
        assert node.get("missing", 7) == 7

    def test_equality_is_structural(self):
        a = parse("var x = 1;")
        b = parse("var x = 1;")
        assert a == b

    def test_inequality(self):
        assert parse("var x = 1;") != parse("var y = 1;")

    def test_repr_contains_type(self):
        assert "Identifier" in repr(Node("Identifier", name="x"))


class TestSerialization:
    def test_to_dict_shape(self):
        data = to_dict(parse("var x = 1;"))
        assert data["type"] == "Program"
        assert data["body"][0]["declarations"][0]["id"]["name"] == "x"

    def test_from_dict_inverse(self):
        program = parse("function f(a) { return a * 2; }")
        rebuilt = from_dict(to_dict(program))
        assert rebuilt == program

    def test_to_dict_skips_analysis_fields(self):
        program = parse("var x = 1;")
        program.scope = object()
        data = to_dict(program)
        assert "scope" not in data

    def test_clone_is_deep(self):
        program = parse("var x = [1, 2];")
        copy = clone(program)
        copy.body[0].declarations[0].id.name = "y"
        assert program.body[0].declarations[0].id.name == "x"

    def test_clone_equals_original(self):
        program = parse("f(a, b); g();")
        assert clone(program) == program


def _edited(source: str, edit) -> str:
    """``source`` regenerated from ``clone(program, edit(program))``."""
    from repro.js.codegen import generate

    program = parse(source)
    snapshot = to_dict(program)
    out = generate(clone(program, edit(program)), compact=True)
    assert to_dict(program) == snapshot  # the input is never touched
    return out


class TestCloneEdits:
    def test_node_replacement_in_any_position(self):
        def edit(program):
            call = program.body[0].expression
            return {id(call.arguments[1]): Node("Literal", value=2, raw="2")}

        assert _edited("f(a, b);", edit) == "f(a,2);"

    def test_list_splices_and_empty_list_removes(self):
        def edit(program):
            first, second, third = program.body
            return {id(first): [third, third], id(second): []}

        assert _edited("a(); b(); c();", edit) == "c();c();c();"

    def test_list_in_single_slot_becomes_a_block(self):
        def edit(program):
            consequent = program.body[0].consequent
            return {id(consequent): [program.body[1]]}

        assert _edited("if (a) x(); y();", edit) == "if(a){y();}y();"

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("if (a) x();", "if(a){}"),
            ("while (a) x();", "while(a){}"),
            ("l: x();", "l:{}"),
            ("if (a) b(); else x();", "if(a)b();"),
        ],
    )
    def test_empty_list_in_single_slot(self, source, expected):
        """``{}`` where a statement is required; an optional slot clears."""

        def edit(program):
            return {
                id(node): [] for node in find_all(program, "ExpressionStatement")
                if node.expression.callee.name == "x"
            }

        assert _edited(source, edit) == expected

    def test_nested_edits_compose(self):
        """A replacement from the input is copied through the same edits."""

        def edit(program):
            outer = program.body[0]
            inner = outer.consequent.body[0]
            return {id(outer): outer.consequent, id(inner): []}

        assert _edited("if (true) { if (false) x(); y(); }", edit) == "{y();}"

    def test_fresh_replacement_holding_input_nodes(self):
        def edit(program):
            call = program.body[0].expression
            fresh = Node("ExpressionStatement", expression=call.arguments[0])
            renamed = Node("Identifier", name="z")
            return {id(program.body[0]): [fresh], id(call.arguments[0].left): renamed}

        assert _edited("f(a + b);", edit) == "z+b;"


class TestTraversal:
    def test_walk_visits_all(self):
        program = parse("var x = a + b;")
        types = [n.type for n in walk(program)]
        assert types[0] == "Program"
        assert types.count("Identifier") == 3

    def test_walk_preorder(self):
        program = parse("f(g(h()));")
        types = [n.type for n in walk(program)]
        # outer call before inner calls
        first_call = types.index("CallExpression")
        assert types[first_call + 1 :].count("CallExpression") == 2

    def test_count_nodes(self):
        assert count_nodes(parse("x;")) == 3  # Program, ExpressionStatement, Identifier

    def test_find_all(self):
        program = parse("a(); b(); c.d();")
        assert len(find_all(program, "CallExpression")) == 3

    def test_walk_with_parents(self):
        program = parse("var x = 1;")
        pairs = {node.type: parent.type if parent else None for node, parent in walk_with_parents(program)}
        assert pairs["Program"] is None
        assert pairs["VariableDeclaration"] == "Program"
        assert pairs["Identifier"] == "VariableDeclarator"

    def test_attach_parents(self):
        program = parse("f(x);")
        attach_parents(program)
        call = find_all(program, "CallExpression")[0]
        assert call.parent.type == "ExpressionStatement"

    def test_iter_child_nodes_skips_parent_links(self):
        program = parse("f(x);")
        attach_parents(program)
        statement = program.body[0]
        children = list(iter_child_nodes(statement))
        assert all(c is not program for c in children)
