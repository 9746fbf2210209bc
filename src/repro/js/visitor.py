"""Generic AST traversal utilities.

- :func:`walk` -- pre-order generator over all nodes,
- :func:`walk_with_parents` -- same, but also yields the parent,
- :func:`attach_parents` -- store a ``parent`` attribute on every node,
- :class:`NodeTransformer` -- bottom-up in-place rewriting (return a
  replacement node, a list of nodes for statement positions, or ``None``
  to keep).  It rewrites a tree its caller owns (the advanced minifier's
  fresh parse); deob passes never mutate, and rewrite through
  :func:`~repro.js.ast_nodes.clone`'s edits instead.
"""

from __future__ import annotations

from typing import Iterator

from repro.js.ast_nodes import Node, iter_child_nodes, iter_fields


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal over ``node`` and all descendants."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        children = list(iter_child_nodes(current))
        stack.extend(reversed(children))


def walk_with_parents(node: Node) -> Iterator[tuple[Node, Node | None]]:
    """Pre-order traversal yielding ``(node, parent)`` pairs."""
    stack: list[tuple[Node, Node | None]] = [(node, None)]
    while stack:
        current, parent = stack.pop()
        yield current, parent
        children = list(iter_child_nodes(current))
        stack.extend((child, current) for child in reversed(children))


def attach_parents(root: Node) -> None:
    """Set ``node.parent`` on every node below ``root`` (root gets ``None``)."""
    root.parent = None
    for node, parent in walk_with_parents(root):
        node.parent = parent


def count_nodes(root: Node) -> int:
    return sum(1 for _ in walk(root))


def find_all(root: Node, node_type: str) -> list[Node]:
    """All descendants (including root) with the given ESTree type."""
    return [node for node in walk(root) if node.type == node_type]


class NodeTransformer:
    """Bottom-up AST rewriter.

    Subclasses define ``visit_<Type>`` methods.  Each receives the node
    (whose children are already transformed) and returns:

    - ``None`` (or the node itself) to keep it,
    - a replacement :class:`Node`,
    - a list of nodes, valid only in list positions (statement lists,
      argument lists, ...),
    - the sentinel :data:`REMOVE` to drop the node from a list position.
    """

    REMOVE = object()

    def transform(self, node: Node) -> Node:
        result = self._transform_node(node)
        if result is NodeTransformer.REMOVE or isinstance(result, list):
            raise ValueError("Cannot remove or split the root node")
        return result

    def _transform_node(self, node: Node) -> Node | list | object:
        for field, value in list(iter_fields(node)):
            if isinstance(value, Node):
                result = self._transform_node(value)
                if result is NodeTransformer.REMOVE:
                    setattr(node, field, None)
                elif isinstance(result, list):
                    raise ValueError(
                        f"visit_{value.type} returned a list in a single-node "
                        f"position ({node.type}.{field})"
                    )
                else:
                    setattr(node, field, result)
            elif isinstance(value, list):
                new_items: list = []
                for item in value:
                    if not isinstance(item, Node):
                        new_items.append(item)
                        continue
                    result = self._transform_node(item)
                    if result is NodeTransformer.REMOVE:
                        continue
                    if isinstance(result, list):
                        new_items.extend(result)
                    else:
                        new_items.append(result)
                setattr(node, field, new_items)
        visitor = getattr(self, f"visit_{node.type}", None)
        if visitor is None:
            return node
        result = visitor(node)
        if result is None:
            return node
        return result

