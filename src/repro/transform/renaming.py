"""Shared identifier-renaming machinery.

Used by the minifiers (short sequential names), the identifier
obfuscator and the obfuscator.io-style tools (``_0x``-prefixed hex
names), and the deob rename pass: every renamer builds its edits with
:func:`rename_edits`.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator

from repro.js.ast_nodes import Node, clone, replace
from repro.js.builder import identifier
from repro.js.scope import analyze_scopes
from repro.js.tokens import KEYWORDS
from repro.js.visitor import walk

_UNSAFE_NAMES = frozenset({"arguments", "eval", "undefined", "NaN", "Infinity"})

_ALPHA = "abcdefghijklmnopqrstuvwxyz"
_ALPHA_ALL = _ALPHA + _ALPHA.upper()
_ALNUM = _ALPHA_ALL + "0123456789"


def short_name_generator() -> Iterator[str]:
    """a, b, ..., z, A, ..., Z, aa, ab, ... (skipping reserved words)."""
    single = list(_ALPHA_ALL)
    for name in single:
        yield name
    length = 2
    while True:
        # Enumerate names of the current length in lexicographic order.
        def emit(prefix: str, remaining: int) -> Iterator[str]:
            if remaining == 0:
                if prefix not in KEYWORDS and prefix != "do":
                    yield prefix
                return
            charset = _ALPHA_ALL if not prefix else _ALNUM
            for char in charset:
                yield from emit(prefix + char, remaining - 1)

        yield from emit("", length)
        length += 1


def hex_digits(rng: random.Random, count: int) -> str:
    """``count`` random lowercase hex digits, one ``rng.choice`` each."""
    return "".join(rng.choice("0123456789abcdef") for _ in range(count))


def hex_name(rng: random.Random, digits: int = 6) -> str:
    """An obfuscator.io-style name: ``_0x`` and ``digits`` random hex digits."""
    return "_0x" + hex_digits(rng, digits)


def hex_name_generator(rng: random.Random) -> Iterator[str]:
    """Distinct :func:`hex_name` names."""
    seen: set[str] = set()
    while True:
        name = hex_name(rng)
        if name in seen:
            continue
        seen.add(name)
        yield name


#: The node types whose identifier the parser shares between two slots.
SHARING_TYPES = ("Property", "ImportSpecifier", "ExportSpecifier")


def rename_edits(
    sharing: Iterable[Node], renames: Iterable[tuple[Node, str]]
) -> dict[int, Node]:
    """Edits that give each identifier of ``renames`` its new name.

    ``sharing`` is the tree's :data:`SHARING_TYPES` nodes.  The edits
    split the identifier a node shares between two slots, so renaming the
    bound one leaves the other as written: a shorthand property ``{x}``
    (or pattern ``{x = 1}``) becomes ``{x: x}`` with a key of its own,
    every shorthand property is written out, and ``import {x}`` and
    ``export {x}`` keep their module-facing name.
    """
    edits: dict[int, Node] = {}
    for node in sharing:
        if node.type == "Property":
            if not node.get("shorthand"):
                continue
            value = node.value
            shares_key = value is node.key or (
                value.type == "AssignmentPattern" and value.left is node.key
            )
            key = identifier(node.key.name) if shares_key else node.key
            edits[id(node)] = replace(node, key=key, shorthand=False)
        elif node.type == "ImportSpecifier" and node.imported is node.local:
            edits[id(node)] = replace(node, imported=identifier(node.imported.name))
        elif node.type == "ExportSpecifier" and node.exported is node.local:
            edits[id(node)] = replace(node, exported=identifier(node.exported.name))
    for node, name in renames:
        edits[id(node)] = identifier(name)
    return edits


def rename_bindings(
    program: Node,
    make_generator: Callable[[], Iterator[str]],
) -> tuple[Node, int]:
    """``program`` with every renameable binding renamed, and their count.

    Globals that were never declared in the file (``console``, ``window``,
    ...) keep their names, as do ``arguments``/``eval``.
    """
    count, renames = _renames(program, make_generator)
    sharing = [node for node in walk(program) if node.type in SHARING_TYPES]
    return clone(program, rename_edits(sharing, renames)), count


def _renames(
    program: Node, make_generator: Callable[[], Iterator[str]]
) -> tuple[int, list[tuple[Node, str]]]:
    """How many bindings of ``program`` get a new name, and each of their
    identifiers in ``program`` with its new name.

    Scope analysis annotates the tree it reads, so it reads a copy.  The
    copy has ``program``'s shape, so walking both side by side pairs each
    identifier of the copy with the one of ``program`` it stands for.  The
    caller clones ``program``, not the copy, so the output holds no
    analysed tree (a clone keeps ``binding`` annotations, and a binding
    reaches its whole tree).
    """
    copy = clone(program)
    bindings = list(analyze_scopes(copy).iter_all_bindings())
    taken = {
        binding.name
        for binding in bindings
        if binding.kind == "global" or binding.name in _UNSAFE_NAMES
    }
    generator = make_generator()
    new_names: dict[int, str] = {}
    count = 0
    for binding in bindings:
        if binding.kind == "global" or binding.name in _UNSAFE_NAMES:
            continue
        new_name = next(generator)
        while new_name in taken or new_name in KEYWORDS:
            new_name = next(generator)
        taken.add(new_name)
        count += 1
        for node in binding.sites:
            new_names[id(node)] = new_name
    return count, [
        (node, new_names[id(twin)])
        for node, twin in zip(walk(program), walk(copy))
        if id(twin) in new_names
    ]


def rename_short(program: Node) -> tuple[Node, int]:
    """Minifier-style renaming to the shortest available names."""
    return rename_bindings(program, short_name_generator)


def rename_hex(program: Node, rng: random.Random) -> tuple[Node, int]:
    """Obfuscator-style renaming to ``_0x…`` hex names."""
    return rename_bindings(program, lambda: hex_name_generator(rng))
