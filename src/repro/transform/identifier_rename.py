"""Identifier obfuscation (§II-A: randomization obfuscation).

Renames every local binding to an ``_0x``-prefixed random hex name, the
convention obfuscator.io made ubiquitous.  Formatting is preserved (pretty
output), so the only trace is the identifier shape — the paper's manual
analysis notes such files otherwise "look very regular".
"""

from __future__ import annotations

import random

from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import Technique, Transformer, looks_minified, register
from repro.transform.renaming import rename_hex


class IdentifierObfuscator(Transformer):
    """Random hex renaming of all local bindings."""

    technique = Technique.IDENTIFIER_OBFUSCATION
    labels = frozenset({Technique.IDENTIFIER_OBFUSCATION})

    def transform(self, source: str, rng: random.Random) -> str:
        program, _ = rename_hex(parse(source), rng)
        return generate(program, compact=looks_minified(source))


register(IdentifierObfuscator())
