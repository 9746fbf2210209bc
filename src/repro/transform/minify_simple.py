"""Basic minification (§II-A: *minification simple*).

Mirrors "JavaScript Minifier"-class tools: strip whitespace and comments,
shorten variable names.  Structure and logic are untouched.
"""

from __future__ import annotations

import random

from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import Technique, Transformer, register
from repro.transform.renaming import rename_short


class SimpleMinifier(Transformer):
    """Whitespace/comment removal + identifier shortening."""

    technique = Technique.MINIFICATION_SIMPLE
    labels = frozenset({Technique.MINIFICATION_SIMPLE})

    def transform(self, source: str, rng: random.Random) -> str:
        program, _ = rename_short(parse(source))
        return generate(program, compact=True)


register(SimpleMinifier())
