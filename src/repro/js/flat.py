"""Flat AST index: a pooled pre-order node arena with parallel arrays.

One iterative walk — run once at parse time — lays the whole tree out in
parallel arrays: the node pool (pre-order), interned ``type_id``s, parent
indices, and depths.  Reversed pre-order is a valid bottom-up order
(iterating the arrays from the back visits every node after all of its
descendants), so post-order passes can run directly over the arrays with
no further traversal.

Downstream fusion: the pre-order type-name sequence *is* the paper's
syntactic-unit stream for AST 4-grams, and the static features' node
count / depth / breadth section reduces to ``Counter`` scans over these
arrays — replacing what used to be three independent recursive walks
(unit-sequence extraction, shape traversal, and per-type bucketing) with
one.
"""

from __future__ import annotations

from array import array

from repro.js.ast_nodes import Node, iter_child_nodes
from repro.js.estree import TYPE_IDS

class _InternTable(dict):
    """Type-name -> dense-id table that interns unknown names on miss."""

    __slots__ = ()

    def __missing__(self, key: str) -> int:
        type_id = len(self)
        self[key] = type_id
        return type_id


#: Process-wide type-id interning table.  Seeded with the schema ids from
#: :mod:`repro.js.estree`; node types outside the schema (generic nodes
#: from foreign ESTree JSON) get fresh ids on first sight.
_RUNTIME_TYPE_IDS = _InternTable(TYPE_IDS)


class FlatIndex:
    """Parallel pre-order arrays over one parsed program.

    ``nodes[i]`` is the i-th node in pre-order; ``type_names[i]`` its type
    (the interned class-attribute string), ``type_ids[i]`` the dense type
    id, ``parents[i]`` the pre-order index of its parent (``-1`` for the
    root), and ``depths[i]`` its depth below the root.  ``type_ids`` is
    materialized from ``type_names`` on first access (one C-level map)
    and cached; every other array is filled during the parse-time walk.
    """

    __slots__ = ("nodes", "type_names", "parents", "depths", "_type_ids")

    def __init__(
        self,
        nodes: list[Node],
        type_names: list[str],
        parents: array,
        depths: array,
    ) -> None:
        self.nodes = nodes
        self.type_names = type_names
        self.parents = parents
        self.depths = depths
        self._type_ids: array | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def type_ids(self) -> array:
        ids = self._type_ids
        if ids is None:
            ids = self._type_ids = array(
                "i", map(_RUNTIME_TYPE_IDS.__getitem__, self.type_names)
            )
        return ids

    @property
    def max_depth(self) -> int:
        return max(self.depths) if self.depths else 0


def build_flat_index(program: Node) -> FlatIndex:
    """One pre-order walk producing the flat arrays for ``program``.

    The walk inlines :func:`iter_child_nodes`'s per-type field-table scan
    (no generator per node) and carries the depth on the work stack, so
    nodes, type names, parents, and depths all land in one pass.
    """
    nodes: list[Node] = []
    type_names: list[str] = []
    parents = array("i")
    depths_list: list[int] = []
    nodes_append = nodes.append
    names_append = type_names.append
    parents_append = parents.append
    depths_append = depths_list.append
    getattr_ = getattr
    isinstance_ = isinstance
    node_type = Node
    list_type = list
    index = -1
    stack: list[tuple[Node, int, int]] = [(program, -1, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        node, parent_index, depth = pop()
        index += 1
        nodes_append(node)
        names_append(node.type)
        parents_append(parent_index)
        depths_append(depth)
        child_fields = node._child_fields_rev
        if child_fields is None:
            child_depth = depth + 1
            for child in reversed(list(iter_child_nodes(node))):
                push((child, index, child_depth))
            continue
        # Push children directly in reverse so pop order is document
        # order — no intermediate child list, no generator per node.
        child_depth = depth + 1
        for key in child_fields:
            value = getattr_(node, key, None)
            if value is None:
                continue
            if value.__class__ is list_type:
                for item in reversed(value):
                    if isinstance_(item, node_type):
                        push((item, index, child_depth))
            elif isinstance_(value, node_type):
                push((value, index, child_depth))
    return FlatIndex(nodes, type_names, parents, array("i", depths_list))
