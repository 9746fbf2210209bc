"""Obfuscated field reference — an *unmonitored* technique (§II-A, §V-A).

The paper lists this data-obfuscation technique (bracket notation instead
of dot notation so property names can be computed [34]) but does **not**
include it among the ten monitored classes.  Its role in the evaluation is
the §V-A claim: *"our level 1 detector can recognize samples as
transformed, even if they use techniques that we do not monitor."*

This transformer is therefore intentionally NOT registered in the
technique registry; the test suite uses it to exercise that claim.
"""

from __future__ import annotations

import random

from repro.js.ast_nodes import Node, clone, replace
from repro.js.builder import string
from repro.js.codegen import generate
from repro.js.parser import parse
from repro.js.visitor import walk
from repro.transform.base import looks_minified


def obfuscate_field_references(
    program: Node, rng: random.Random, probability: float = 1.0
) -> tuple[Node, int]:
    """``program`` with ``obj.prop`` rewritten to ``obj["prop"]``, and the count."""
    edits: dict[int, Node] = {}
    for node in walk(program):
        if node.type != "MemberExpression" or node.get("computed"):
            continue
        prop = node.property
        if prop.type != "Identifier":
            continue
        if rng.random() > probability:
            continue
        edits[id(node)] = replace(node, property=string(prop.name), computed=True)
    return clone(program, edits), len(edits)


class FieldReferenceObfuscator:
    """Dot→bracket rewriting; unmonitored by the level-2 detector."""

    name = "obfuscated_field_reference"

    def transform(self, source: str, rng: random.Random) -> str:
        program, _ = obfuscate_field_references(parse(source), rng)
        return generate(program, compact=looks_minified(source))
