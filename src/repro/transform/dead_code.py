"""Dead-code injection (§II-A: logic structure obfuscation).

Inserts irrelevant instructions that can never execute or never matter:

- opaque-predicate branches (``if`` over a constant-false comparison of two
  random string literals) whose bodies clone real statements of the file,
- junk variable declarations and junk helper functions that are never used.

As obfuscator.io does, the pass also renames identifiers to hex names, so
samples carry two ground-truth labels.
"""

from __future__ import annotations

import random

from repro.js.ast_nodes import Node, clone, replace
from repro.js.builder import (
    binary,
    block,
    call,
    expr_statement,
    function_decl,
    identifier,
    if_stmt,
    literal,
    member,
    ret,
    string,
    var_decl,
)
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import Technique, Transformer, looks_minified, register
from repro.transform.renaming import hex_digits, hex_name, rename_hex

_JUNK_WORDS = (
    "apply",
    "call",
    "concat",
    "filter",
    "index",
    "length",
    "map",
    "pop",
    "push",
    "search",
    "shift",
    "slice",
    "splice",
    "test",
    "value",
)


def _opaque_false_test(rng: random.Random) -> Node:
    """A comparison of two distinct random hex strings — always false."""
    left = hex_digits(rng, 5)
    right = hex_digits(rng, 5)
    while right == left:
        right = hex_digits(rng, 5)
    return binary("===", string(left), string(right))


def _junk_statement(rng: random.Random) -> Node:
    """A statement with no observable effect on the original program."""
    choice = rng.randrange(3)
    name = hex_name(rng)
    if choice == 0:
        word = rng.choice(_JUNK_WORDS)
        return var_decl(
            name, call(member(string(word), "split"), [string("")])
        )
    if choice == 1:
        return var_decl(
            name,
            binary("*", literal(rng.randint(2, 0xFF)), literal(rng.randint(2, 0xFF))),
        )
    return function_decl(
        name,
        [],
        [ret(call(member(identifier("Math"), "random"), []))],
    )


def inject_dead_code(
    program: Node, rng: random.Random, density: float = 0.35
) -> tuple[Node, int]:
    """``program`` with dead branches and junk statements in its top level
    and every function declaration's body, and how many went in."""
    real_statements = [
        statement
        for statement in program.body
        if statement.type in ("ExpressionStatement", "VariableDeclaration", "ReturnStatement")
    ]
    injected = 0
    edits: dict[int, Node] = {}

    def inject_into(body: list[Node]) -> list[Node]:
        nonlocal injected
        out: list[Node] = []
        for statement in body:
            if rng.random() < density:
                out.append(_make_dead(rng))
                injected += 1
            out.append(statement)
            if statement.type == "FunctionDeclaration":
                body_block = statement.body
                edits[id(body_block)] = replace(body_block, body=inject_into(body_block.body))
        if rng.random() < density or not injected:
            out.append(_make_dead(rng))
            injected += 1
        return out

    def _make_dead(rng: random.Random) -> Node:
        if real_statements and rng.random() < 0.5:
            cloned = clone(rng.choice(real_statements))
            if cloned.type == "ReturnStatement":
                cloned = expr_statement(cloned.argument or literal(0))
            return if_stmt(_opaque_false_test(rng), block([cloned]))
        return _junk_statement(rng)

    edits[id(program)] = replace(program, body=inject_into(program.body))
    return clone(program, edits), injected


class DeadCodeInjector(Transformer):
    """Opaque-false branches + junk declarations (obfuscator.io style)."""

    technique = Technique.DEAD_CODE_INJECTION
    labels = frozenset(
        {Technique.DEAD_CODE_INJECTION, Technique.IDENTIFIER_OBFUSCATION}
    )

    def __init__(self, density: float = 0.35) -> None:
        if not 0.0 <= density <= 1.0:
            raise ValueError("density must be within [0, 1]")
        self.density = density

    def transform(self, source: str, rng: random.Random) -> str:
        program, _ = inject_dead_code(parse(source), rng, density=self.density)
        program, _ = rename_hex(program, rng)
        return generate(program, compact=looks_minified(source))


register(DeadCodeInjector())
