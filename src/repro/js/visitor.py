"""Generic AST traversal utilities.

- :func:`walk` -- pre-order generator over all nodes,
- :func:`walk_with_parents` -- same, but also yields the parent,
- :func:`attach_parents` -- store a ``parent`` attribute on every node.

Nothing here rewrites a tree: transformers and deob passes build an edit
map read-only and return :func:`~repro.js.ast_nodes.clone` of it.
"""

from __future__ import annotations

from typing import Iterator

from repro.js.ast_nodes import Node, iter_child_nodes


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

