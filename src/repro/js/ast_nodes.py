"""ESTree-compatible AST nodes backed by per-type ``__slots__`` classes.

Every node type in :mod:`repro.js.estree` gets a generated slotted class:
schema fields plus the analysis annotations (``scope``, flow edges, ...)
live in fixed slots, so nodes carry no per-instance ``__dict__`` on the
hot path and child discovery walks a per-type field table instead of a
dict.  ``Node(type, **fields)`` still works — ``Node.__new__`` dispatches
to the generated class — so builders, transforms, and tests construct
nodes exactly as before, and the generated classes can also be called
directly (``Identifier(name="x", start=0, end=1)``) on hot paths.

Semantics preserved from the attribute-bag representation:

- a field is either *set* or *absent*; reading an absent field raises
  ``AttributeError`` and ``node.get`` returns the default,
- ``to_dict``/``clone`` drop ``parent``/``scope``/flow/data annotations
  but keep ``binding`` and ``decl_init_kind`` when set,
- ``iter_fields``/``iter_child_nodes`` yield children in construction
  (schema) order, skipping analysis annotations.

Unknown node types fall back to :class:`_GenericNode`, which keeps the
old dict-bag behaviour, so ``from_dict`` round-trips foreign ESTree JSON.
"""

from __future__ import annotations

from keyword import iskeyword as _iskeyword
from typing import Any, Iterator

from repro.js.estree import ANALYSIS_FIELDS, CHILD_FIELDS, NODE_FIELDS, TYPE_IDS


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


#: Sentinel distinguishing "field absent" from "field set to None".
_MISSING = _Missing()

_ANALYSIS_FIELDS = frozenset(ANALYSIS_FIELDS)

# Fields to_dict/clone drop (note: binding and decl_init_kind are kept,
# matching the historical attribute-bag behaviour the frozen reference
# in tests/reference_parser.py pins down).
_SERIALIZE_EXCLUDED = ("parent", "scope", "flow_out", "flow_in", "data_out", "data_in")
_SERIALIZE_EXCLUDED_SET = frozenset(_SERIALIZE_EXCLUDED)
_SERIALIZE_KEPT_ANALYSIS = ("binding", "decl_init_kind")


class Node:
    """One AST node; ``Node(type, **fields)`` dispatches to the slotted
    per-type class.

    >>> Node("Identifier", name="x").type
    'Identifier'
    """

    __slots__ = ()

    type: str = ""
    type_id: int = -1
    #: Ordered schema fields, or ``None`` for the generic dict-bag node.
    _fields: tuple[str, ...] | None = None
    #: Child-bearing subset of ``_fields`` (``None`` for generic nodes).
    _child_fields: tuple[str, ...] | None = None
    #: ``_child_fields`` reversed, precomputed for reverse-push tree walks.
    _child_fields_rev: tuple[str, ...] | None = None

    def __new__(cls, type: str | None = None, **fields: Any) -> "Node":
        if cls is not Node:
            # Direct construction of a generated class: no dispatch needed.
            return object.__new__(cls)
        node_cls = _CLASSES.get(type)
        if node_cls is None:
            node_cls = _GenericNode
        return object.__new__(node_cls)

    def __repr__(self) -> str:
        parts = []
        for key, value in _set_fields(self):
            if key == "type" or isinstance(value, Node):
                continue
            if isinstance(value, list) and value and isinstance(value[0], Node):
                continue
            if key in ("start", "end", "parent"):
                continue
            parts.append(f"{key}={value!r}")
        inner = ", ".join(parts)
        return f"{self.type}({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return to_dict(self) == to_dict(other)

    def __hash__(self) -> int:
        return id(self)

    def get(self, field: str, default: Any = None) -> Any:
        value = getattr(self, field, _MISSING)
        if value is _MISSING:
            return default
        return value

    def fields(self) -> dict[str, Any]:
        """All set attributes of this node as a dict (a snapshot)."""
        return dict(_set_fields(self))

    def __getstate__(self) -> dict[str, Any]:
        return dict(_set_fields(self))

    def __setstate__(self, state: dict[str, Any]) -> None:
        for key, value in state.items():
            if key != "type":
                setattr(self, key, value)

    def __reduce__(self):
        return (_unpickle_node, (self.type,), self.__getstate__())


def _unpickle_node(type: str) -> Node:
    cls = _CLASSES.get(type, _GenericNode)
    node = object.__new__(cls)
    if cls is _GenericNode:
        node.type = type
    return node


class _GenericNode(Node):
    """Fallback dict-bag node for types outside the ESTree schema."""

    __slots__ = ("__dict__",)

    def __init__(self, type: str | None = None, **fields: Any) -> None:
        self.type = type
        for key, value in fields.items():
            setattr(self, key, value)


def _build_node_class(type_name: str) -> type[Node]:
    schema_fields = NODE_FIELDS[type_name]
    child_fields = CHILD_FIELDS[type_name]
    # Schema fields first (construction order), then the analysis slots,
    # then a lazy overflow dict for foreign fields set after the fact.
    slots = schema_fields + tuple(
        f for f in ANALYSIS_FIELDS if f not in schema_fields
    )
    class_name = type_name
    # Fields whose name is a Python keyword (``async``) cannot appear in a
    # def signature; they route through **_extra and plain setattr.
    named = [f for f in schema_fields if not _iskeyword(f)]
    params = ", ".join(f"{f}=_MISSING" for f in named)
    assigns = "\n".join(
        f"    if {f} is not _MISSING: self.{f} = {f}" for f in named
    )
    source = (
        f"def __init__(self, _type=None, *, {params}, **_extra):\n"
        f"{assigns}\n"
        f"    if _extra:\n"
        f"        for _key in _extra:\n"
        f"            setattr(self, _key, _extra[_key])\n"
    )
    namespace: dict[str, Any] = {"_MISSING": _MISSING}
    exec(source, namespace)  # noqa: S102 - static, schema-derived code
    cls = type(
        class_name,
        (Node,),
        {
            "__slots__": slots + ("__dict__",),
            "__module__": __name__,
            "__qualname__": class_name,
            "__init__": namespace["__init__"],
            "type": type_name,
            "type_id": TYPE_IDS[type_name],
            "_fields": schema_fields,
            "_child_fields": child_fields,
            "_child_fields_rev": tuple(reversed(child_fields)),
        },
    )
    return cls


#: type name -> generated slotted class.
_CLASSES: dict[str, type[Node]] = {}
for _type_name in NODE_FIELDS:
    _cls = _build_node_class(_type_name)
    _CLASSES[_type_name] = _cls
    globals()[_type_name] = _cls

NODE_CLASSES = _CLASSES


def fast_constructor(type_name: str, *fields: str):
    """Positional constructor for one node type and an exact field set.

    Generates ``factory(f1, f2, ...)`` that allocates the slotted class and
    assigns exactly the given fields — one Python frame, no kwargs dict, no
    per-field sentinel checks.  Hot parser sites bind one factory per
    (type, field-set) pair; set-vs-unset semantics are preserved because
    the field set is fixed at generation time.
    """
    cls = _CLASSES[type_name]
    params: list[str] = []
    assigns: list[str] = []
    for field in fields:
        if _iskeyword(field):
            param = field + "_"
            assigns.append(f"    _setattr(self, {field!r}, {param})\n")
        else:
            param = field
            assigns.append(f"    self.{field} = {param}\n")
        params.append(param)
    source = (
        f"def factory({', '.join(params)}):\n"
        f"    self = _new(_cls)\n"
        f"{''.join(assigns)}"
        f"    return self\n"
    )
    namespace: dict[str, Any] = {
        "_new": object.__new__,
        "_cls": cls,
        "_setattr": setattr,
    }
    exec(source, namespace)  # noqa: S102 - static, schema-derived code
    factory = namespace["factory"]
    factory.__name__ = f"make_{type_name}"
    factory.__qualname__ = factory.__name__
    return factory


def _set_fields(node: Node) -> Iterator[tuple[str, Any]]:
    """Yield ``(name, value)`` for every set attribute, bag-order style:
    ``type`` first, then schema fields, then analysis annotations, then
    any overflow fields."""
    fields = node._fields
    if fields is None:
        yield from node.__dict__.items()
        return
    yield "type", node.type
    for key in fields:
        value = getattr(node, key, _MISSING)
        if value is not _MISSING:
            yield key, value
    for key in ANALYSIS_FIELDS:
        if key in node._fields:
            continue
        value = getattr(node, key, _MISSING)
        if value is not _MISSING:
            yield key, value
    overflow = node.__dict__
    if overflow:
        yield from overflow.items()


def iter_fields(node: Node) -> Iterator[tuple[str, Any]]:
    """Yield ``(field_name, value)`` for fields that hold child nodes.

    Dispatches on the value type, not the field name: ``Property.value``
    holds a child node while ``Literal.value`` holds a plain scalar, so a
    name-based skip list would hide real children.  Only analysis
    annotations (``parent``, ``scope``, flow edges) are excluded.
    """
    fields = node._fields
    if fields is None:
        for key, value in node.__dict__.items():
            if key in _ANALYSIS_FIELDS:
                continue
            if isinstance(value, (Node, list)):
                yield key, value
        return
    for key in fields:
        value = getattr(node, key, _MISSING)
        if isinstance(value, (Node, list)):
            yield key, value
    overflow = node.__dict__
    if overflow:
        for key, value in overflow.items():
            if key in _ANALYSIS_FIELDS:
                continue
            if isinstance(value, (Node, list)):
                yield key, value


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield direct child nodes in source order.

    Hot path: walks the per-type child-field table, so scalar-only nodes
    (``Identifier``, ``Literal``) return immediately and no dict is ever
    scanned.
    """
    child_fields = node._child_fields
    if child_fields is None:
        for key, value in node.__dict__.items():
            if isinstance(value, Node):
                if key != "parent":
                    yield value
            elif value.__class__ is list:
                for item in value:
                    if isinstance(item, Node):
                        yield item
        return
    for key in child_fields:
        value = getattr(node, key, None)
        if value is None:
            continue
        if value.__class__ is list:
            for item in value:
                if isinstance(item, Node):
                    yield item
        elif isinstance(value, Node):
            yield value


def to_dict(node: Node | list | Any) -> Any:
    """Convert a node tree to plain dicts (JSON-serializable, ESTree shape)."""
    if isinstance(node, Node):
        result: dict[str, Any] = {}
        fields = node._fields
        if fields is None:
            for key, value in node.__dict__.items():
                if key in _SERIALIZE_EXCLUDED_SET:
                    continue
                result[key] = to_dict(value)
            return result
        result["type"] = node.type
        for key in fields:
            value = getattr(node, key, _MISSING)
            if value is not _MISSING:
                result[key] = to_dict(value)
        for key in _SERIALIZE_KEPT_ANALYSIS:
            value = getattr(node, key, _MISSING)
            if value is not _MISSING:
                result[key] = to_dict(value)
        overflow = node.__dict__
        if overflow:
            for key, value in overflow.items():
                if key in _SERIALIZE_EXCLUDED_SET:
                    continue
                result[key] = to_dict(value)
        return result
    if isinstance(node, list):
        return [to_dict(item) for item in node]
    return node


def from_dict(data: Any) -> Any:
    """Inverse of :func:`to_dict` for dicts that carry a ``type`` key."""
    if isinstance(data, dict) and "type" in data:
        fields = {key: from_dict(value) for key, value in data.items() if key != "type"}
        return Node(data["type"], **fields)
    if isinstance(data, list):
        return [from_dict(item) for item in data]
    return data


#: Single-node slots an empty replacement list clears instead of
#: leaving ``{}``: the statement there is optional.
_OPTIONAL_SLOTS = frozenset({("IfStatement", "alternate"), ("ForStatement", "init")})


def clone(node: Any, edits: dict[int, Node | list[Node]] | None = None) -> Any:
    """Deep-copy an AST subtree (drops parent/flow annotations), applying
    ``edits``.

    ``edits`` maps ``id(node)`` of a node in the tree to what takes its
    place in the copy:

    - a node;
    - a list of nodes, spliced into a list position and wrapped in a
      ``BlockStatement`` in a single-node slot (``if (c) <stmt>``);
    - an empty list, which removes the node from a list position, leaves
      ``{}`` in a slot that needs a statement, and clears an optional one
      (an ``else``, a ``for`` initializer).

    An edited node is not copied.  Its replacements are, through the same
    edits, so edits nested inside a kept part compose: with the outer
    ``if (true)`` mapped to its consequent and the inner ``if (false)``
    to ``[]``, ``if (true) { if (false) x(); }`` copies to ``{}``.  A
    replacement must not contain the node it replaces.
    """
    return _copy_value(None, None, node, edits)


def replace(node: Node, **changes: Any) -> Node:
    """A shallow copy of ``node`` with ``changes`` (no annotations).

    Its other children are the input's own nodes, which :func:`clone`
    copies through the same edits: ``edits[id(block)] = replace(block,
    body=preamble + block.body)`` prepends to a block whose statements
    carry edits of their own.
    """
    fields = {
        key: value
        for key, value in _set_fields(node)
        if key != "type" and key not in _ANALYSIS_FIELDS
    }
    fields.update(changes)
    return Node(node.type, **fields)


def _copy(node: Node, edits: dict | None) -> Node:
    node_type = node.type
    fields: dict[str, Any] = {}
    schema_fields = node._fields
    if schema_fields is None:
        for key, value in node.__dict__.items():
            if key == "type" or key in _SERIALIZE_EXCLUDED_SET:
                continue
            fields[key] = _copy_value(node_type, key, value, edits)
        return Node(node_type, **fields)
    child_fields = node._child_fields
    for key in schema_fields:
        value = getattr(node, key, _MISSING)
        if value is not _MISSING:
            fields[key] = (
                _copy_value(node_type, key, value, edits) if key in child_fields else value
            )
    for key in _SERIALIZE_KEPT_ANALYSIS:
        value = getattr(node, key, _MISSING)
        if value is not _MISSING:
            fields[key] = value
    overflow = node.__dict__
    if overflow:
        for key, value in overflow.items():
            if key in _SERIALIZE_EXCLUDED_SET:
                continue
            fields[key] = _copy_value(node_type, key, value, edits)
    return Node(node_type, **fields)


def _copy_value(parent_type: str | None, key: str | None, value: Any, edits: dict | None) -> Any:
    if isinstance(value, Node):
        if edits and id(value) in edits:
            return _slot(parent_type, key, value, edits)
        return _copy(value, edits)
    if value.__class__ is list:
        return _copy_list(value, edits)
    return value


def _slot(parent_type: str | None, key: str | None, node: Node, edits: dict) -> Node | None:
    """What an edited ``node`` becomes in a single-node slot."""
    replacement = edits[id(node)]
    if isinstance(replacement, Node):
        return _copy_value(parent_type, key, replacement, edits)
    body = _copy_list(replacement, edits)
    if not body and (parent_type, key) in _OPTIONAL_SLOTS:
        return None
    return Node("BlockStatement", body=body)


def _copy_list(items: list, edits: dict | None) -> list:
    if not edits:
        return [_copy_value(None, None, item, None) for item in items]
    out: list = []
    for item in items:
        replacement = edits.get(id(item), _MISSING)
        while isinstance(replacement, Node):
            item = replacement
            replacement = edits.get(id(item), _MISSING)
        if replacement is _MISSING:
            out.append(_copy_value(None, None, item, edits))
        else:
            out.extend(_copy_list(replacement, edits))
    return out
