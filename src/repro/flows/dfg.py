"""Data-flow edges between ``Identifier`` nodes.

Per the paper (§III-A): *"we only consider data flows on Identifier nodes,
i.e., there is a data flow between two Identifier nodes if and only if a
variable is defined at the source node and used at the destination node."*

Definition sites are declaration identifiers and assignment targets (from
the scope analysis); use sites are value references of the same binding.
The paper's two-minute limit is a counted cap on def→use pairs, so the
fallback depends on the source alone: past the cap the enhanced AST keeps
control flow only.
"""

from __future__ import annotations

from repro.js.ast_nodes import Node
from repro.js.scope import Scope, analyze_scopes


class DataFlowEdge:
    """One def→use edge between two Identifier nodes of the same binding."""

    __slots__ = ("source", "target", "name")

    def __init__(self, source: Node, target: Node, name: str) -> None:
        self.source = source
        self.target = target
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"DF({self.name}: {self.source.start}->{self.target.start})"


#: Cap on def→use pairs per file: the paper's two-minute data-flow limit
#: (§III-A) as counted work.  The largest file of the benchmark's
#: classify-mix workload makes ~12k pairs.
MAX_DATA_FLOW_PAIRS = 500_000


def build_data_flow(
    program: Node,
    scope: Scope | None = None,
    max_edges_per_binding: int = 4096,
) -> list[DataFlowEdge] | None:
    """Build def→use edges; ``None`` past :data:`MAX_DATA_FLOW_PAIRS`
    (the CF-only fallback).

    ``max_edges_per_binding`` bounds the quadratic blow-up for bindings with
    thousands of definitions and uses (seen in machine-generated code).
    """
    if scope is None:
        scope = analyze_scopes(program)
    edges: list[DataFlowEdge] = []
    for binding in scope.iter_all_bindings():
        if not binding.assignments or not binding.references:
            continue
        count = 0
        for definition in binding.assignments:
            for use in binding.references:
                if use is definition:
                    continue
                edges.append(DataFlowEdge(definition, use, binding.name))
                count += 1
                if count >= max_edges_per_binding:
                    break
            if count >= max_edges_per_binding:
                break
        if len(edges) > MAX_DATA_FLOW_PAIRS:
            # CF-only fallback: nodes must not keep partial data_in/data_out
            # lists, so annotation happens only after a complete build.
            return None
    for edge in edges:
        source, target = edge.source, edge.target
        out = getattr(source, "data_out", None)
        if out is None:
            source.data_out = out = []
        out.append(edge)
        inbound = getattr(target, "data_in", None)
        if inbound is None:
            target.data_in = inbound = []
        inbound.append(edge)
    return edges
