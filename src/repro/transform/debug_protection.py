"""Debug protection (§II-A: code protection).

Reproduces obfuscator.io's *debug protection* option [24]: a recursive
probe calls the ``debugger`` statement through a constructed function in a
tight loop (re-armed with ``setInterval``), which freezes the page as soon
as the browser's Developer Tools open.  Like the other obfuscator.io
options, identifiers are also hex-renamed.
"""

from __future__ import annotations

import random

from repro.js.codegen import generate
from repro.js.parser import parse
from repro.transform.base import Technique, Transformer, looks_minified, register
from repro.transform.renaming import hex_name, rename_hex

_PROTECTION_TEMPLATE = """\
function {guard}({counter}) {{
    function {probe}({depth}) {{
        if (typeof {depth} === "string") {{
            return function ({loop}) {{}}
                ["constructor"]("while (true) {{}}")
                ["apply"]("counter");
        }} else {{
            if (("" + {depth} / {depth})["length"] !== 1 || {depth} % 20 === 0) {{
                (function () {{
                    return true;
                }})
                ["constructor"]("debugger")
                ["call"]("action");
            }} else {{
                (function () {{
                    return false;
                }})
                ["constructor"]("debugger")
                ["apply"]("stateObject");
            }}
        }}
        {probe}(++{depth});
    }}
    try {{
        if ({counter}) {{
            return {probe};
        }} else {{
            {probe}(0);
        }}
    }} catch ({error}) {{}}
}}
setInterval(function () {{
    {guard}();
}}, 4000);
"""


def build_protection(rng: random.Random) -> str:
    """The debug-protection preamble with randomized identifiers."""
    names = {
        key: hex_name(rng) for key in ("guard", "counter", "probe", "depth", "loop", "error")
    }
    return _PROTECTION_TEMPLATE.format(**names)


class DebugProtector(Transformer):
    """debugger-loop anti-devtools wrapper + hex renaming."""

    technique = Technique.DEBUG_PROTECTION
    labels = frozenset({Technique.DEBUG_PROTECTION, Technique.IDENTIFIER_OBFUSCATION})

    def transform(self, source: str, rng: random.Random) -> str:
        protected = build_protection(rng) + "\n" + source
        program, _ = rename_hex(parse(protected), rng)
        return generate(program, compact=looks_minified(source))


register(DebugProtector())
