"""Tests for control-flow and data-flow enhancement (§III-A)."""

from repro.flows import build_control_flow, build_data_flow, enhance
from repro.flows.cfg import CONTROL_FLOW_TYPES
from repro.js.parser import parse


def edges_of(source: str):
    return build_control_flow(parse(source))


def edge_labels(source: str) -> set:
    return {edge.label for edge in edges_of(source)}


class TestControlFlow:
    def test_sequential_edges(self):
        edges = edges_of("a(); b(); c();")
        nexts = [e for e in edges if e.label == "next"]
        assert len(nexts) == 2

    def test_program_enter_edge(self):
        edges = edges_of("a();")
        assert any(e.label == "enter" and e.source.type == "Program" for e in edges)

    def test_if_branches(self):
        labels = edge_labels("if (a) b(); else c();")
        assert {"true", "false"} <= labels

    def test_if_without_else(self):
        edges = edges_of("if (a) b();")
        assert not any(e.label == "false" for e in edges)

    def test_loop_back_edge(self):
        edges = edges_of("while (a) { b(); }")
        assert any(e.label == "loop" for e in edges)

    def test_for_variants(self):
        for source in ("for (;;) x();", "for (k in o) x();", "for (k of o) x();"):
            assert any(e.label == "loop" for e in edges_of(source))

    def test_switch_case_edges(self):
        edges = edges_of("switch (x) { case 1: a(); break; case 2: b(); }")
        cases = [e for e in edges if e.label == "case"]
        assert len(cases) == 2

    def test_try_catch_finally_edges(self):
        labels = edge_labels("try { a(); } catch (e) { b(); } finally { c(); }")
        assert {"try", "catch", "finally"} <= labels

    def test_function_body_edge(self):
        labels = edge_labels("function f() { a(); }")
        assert "function" in labels

    def test_nested_function_expression_reached(self):
        edges = edges_of("register(function () { inner(); });")
        assert any(e.label == "function" for e in edges)

    def test_conditional_expression_edge(self):
        edges = edges_of("var x = a ? b : c;")
        assert any(e.target.type == "ConditionalExpression" for e in edges)

    def test_edges_attached_to_nodes(self):
        program = parse("a(); b();")
        build_control_flow(program)
        assert program.body[0].flow_out[0].target is program.body[1]

    def test_cf_nodes_match_paper_restriction(self):
        # All CF endpoints are statement nodes, CatchClause, or
        # ConditionalExpression (§III-A).
        edges = edges_of("try { if (a) { b(); } } catch (e) { var x = c ? d : e; }")
        for edge in edges:
            assert edge.source.type in CONTROL_FLOW_TYPES
            assert edge.target.type in CONTROL_FLOW_TYPES


class TestDataFlow:
    def test_def_use_edge(self):
        program = parse("var x = 1; f(x);")
        edges = build_data_flow(program)
        assert any(e.name == "x" for e in edges)

    def test_only_identifier_nodes(self):
        program = parse("var x = 1; x = 2; g(x);")
        edges = build_data_flow(program)
        for edge in edges:
            assert edge.source.type == "Identifier"
            assert edge.target.type == "Identifier"

    def test_unused_variable_no_edges(self):
        program = parse("var unused = 1; other();")
        edges = build_data_flow(program)
        assert not any(e.name == "unused" for e in edges)

    def test_multiple_defs_and_uses(self):
        program = parse("var x = 1; x = 2; f(x); g(x);")
        edges = [e for e in build_data_flow(program) if e.name == "x"]
        assert len(edges) == 4  # 2 defs × 2 uses

    def test_timeout_returns_none(self, monkeypatch):
        """The paper's data-flow timeout is a counted pair cap."""
        import repro.flows.dfg as dfg_mod

        monkeypatch.setattr(dfg_mod, "MAX_DATA_FLOW_PAIRS", 0)
        program = parse("var x = 1; f(x);")
        assert build_data_flow(program) is None

    def test_edge_cap_per_binding(self):
        uses = " ".join(f"f(x);" for _ in range(30))
        program = parse("var x = 1; " + uses)
        edges = build_data_flow(program, max_edges_per_binding=10)
        assert len([e for e in edges if e.name == "x"]) == 10

    def test_param_to_use(self):
        program = parse("function f(a) { return a + 1; }")
        edges = build_data_flow(program)
        assert any(e.name == "a" for e in edges)

    def test_success_annotates_nodes(self):
        program = parse("var x = 1; f(x);")
        edges = build_data_flow(program)
        assert edges
        for edge in edges:
            assert edge in edge.source.get("data_out", [])
            assert edge in edge.target.get("data_in", [])

    def test_timeout_leaves_no_partial_annotations(self, monkeypatch):
        """A build over the pair cap must not leave data_in/data_out on nodes."""
        import repro.flows.dfg as dfg_mod
        from repro.js.visitor import walk

        monkeypatch.setattr(dfg_mod, "MAX_DATA_FLOW_PAIRS", 0)
        program = parse("var x = 1; x = 2; f(x, x); var y = 3; g(y);")
        assert build_data_flow(program) is None
        for node in walk(program):
            assert node.get("data_in") is None
            assert node.get("data_out") is None

    def test_midflight_timeout_rolls_back(self, monkeypatch):
        """Cap crossed after some bindings' edges were built: no stale
        partial annotations."""
        import repro.flows.dfg as dfg_mod
        from repro.js.visitor import walk

        source = "var a = 1; a = 2; f(a, a); var b = 3; b = 4; g(b, b);"
        assert len(build_data_flow(parse(source))) == 8  # 4 pairs per binding
        monkeypatch.setattr(dfg_mod, "MAX_DATA_FLOW_PAIRS", 5)
        program = parse(source)
        assert build_data_flow(program) is None
        for node in walk(program):
            assert node.get("data_in") is None
            assert node.get("data_out") is None

    def test_pair_cap_is_counted_not_timed(self, monkeypatch):
        """A file over the cap falls back to CF-only on every call."""
        import repro.flows.dfg as dfg_mod

        monkeypatch.setattr(dfg_mod, "MAX_DATA_FLOW_PAIRS", 7)
        over = "var a = 1; a = 2; f(a, a); var b = 3; b = 4; g(b, b);"
        at = "var a = 1; a = 2; f(a, a); var b = 3; g(b, b);"
        for _ in range(3):
            graph = enhance(over)
            assert graph.data_flow is None
            assert graph.flow_timeout
            assert len(enhance(at).data_flow) == 6
            assert not enhance(at).flow_timeout


class TestEnhance:
    def test_enhanced_ast_fields(self, sample_source):
        graph = enhance(sample_source)
        assert graph.program.type == "Program"
        assert graph.tokens
        assert graph.control_flow
        assert graph.data_flow_available
        assert graph.node_count > 50

    def test_comments_collected(self):
        graph = enhance("// hello\nvar x = 1; f(x);")
        assert len(graph.comments) == 1

    def test_data_flow_fallback(self, sample_source, monkeypatch):
        import repro.flows.dfg as dfg_mod

        monkeypatch.setattr(dfg_mod, "MAX_DATA_FLOW_PAIRS", 0)
        graph = enhance(sample_source)
        assert graph.data_flow is None
        assert not graph.data_flow_available
        assert graph.control_flow  # CF-only fallback keeps control flow

    def test_invalid_source_raises(self):
        import pytest

        with pytest.raises((SyntaxError, ValueError)):
            enhance("var x = ;")
