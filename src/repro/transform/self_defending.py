"""Self-defending code (§II-A: code protection).

Reproduces obfuscator.io's *self defending* option [24]: the output is
wrapped in a guard that stringifies one of its own functions and tests the
formatting with a regular expression — reformatting (beautifying) or
renaming the code breaks the check.  The technique only makes sense on
compact output, so the tool always minifies and hex-renames too; samples
built with it therefore carry three ground-truth labels (the paper's
"up to three different labels" case, §III-E1).
"""

from __future__ import annotations

import random

from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import Technique, Transformer, register
from repro.transform.renaming import hex_name, rename_hex

_GUARD_TEMPLATE = """\
var {outer} = (function () {{
    var {flag} = true;
    return function ({context}, {callback}) {{
        var {wrapper} = {flag} ? function () {{
            if ({callback}) {{
                var {result} = {callback}["apply"]({context}, arguments);
                {callback} = null;
                return {result};
            }}
        }} : function () {{}};
        {flag} = false;
        return {wrapper};
    }};
}})();
var {checker} = {outer}(this, function () {{
    var {probe} = function () {{
        var {pattern} = {probe}
            ["constructor"]('return /" + this + "/')()
            ["compile"]('^([^ ]+( +[^ ]+)+)+[^ ]}}');
        return !{pattern}["test"]({checker});
    }};
    return {probe}();
}});
{checker}();
"""


def build_guard(rng: random.Random) -> str:
    """The self-defending preamble with randomized identifiers."""
    names = {
        key: hex_name(rng)
        for key in (
            "outer",
            "flag",
            "context",
            "callback",
            "wrapper",
            "result",
            "checker",
            "probe",
            "pattern",
        )
    }
    return _GUARD_TEMPLATE.format(**names)


class SelfDefendingWrapper(Transformer):
    """Formatting-sensitive guard + aggressive minification + renaming."""

    technique = Technique.SELF_DEFENDING
    labels = frozenset(
        {
            Technique.SELF_DEFENDING,
            Technique.IDENTIFIER_OBFUSCATION,
            Technique.MINIFICATION_SIMPLE,
        }
    )

    def transform(self, source: str, rng: random.Random) -> str:
        guarded = build_guard(rng) + "\n" + source
        program, _ = rename_hex(parse(guarded), rng)
        return generate(program, compact=True)


register(SelfDefendingWrapper())
