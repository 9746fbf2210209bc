"""Dean Edwards-style packer (the Daft Logic obfuscator's engine [10], [12]).

This tool is **not** part of the training-set generation — the paper uses
it exclusively as a held-out "new tool" to show the detectors generalize
(§III-E3).  The construction matches p.a.c.k.e.r:

1. minify the input,
2. collect repeated words (identifiers/keywords), replace each with a
   base-62 token,
3. ship the tokenized payload plus the dictionary inside the canonical
   ``eval(function(p,a,c,k,e,d){…}(payload,62,count,dict.split('|'),0,{}))``
   wrapper.

The syntactic footprint is the one the paper reports the packer leaving:
aggressive minification, short/meaningless identifiers and strings that no
longer appear in plain text.
"""

from __future__ import annotations

import random
import re

from repro.transform.minify_simple import SimpleMinifier

#: p.a.c.k.e.r's base-62 digits (``deob/unpack.py`` decodes with them).
BASE62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

_UNPACKER = (
    "eval(function(p,a,c,k,e,d){e=function(c){return(c<a?'':e(parseInt(c/a)))+"
    "((c=c%a)>35?String.fromCharCode(c+29):c.toString(36))};if(!''.replace(/^/,String)){"
    "while(c--){d[e(c)]=k[c]||e(c)}k=[function(e){return d[e]}];e=function(){return'\\\\w+'};"
    "c=1};while(c--){if(k[c]){p=p.replace(new RegExp('\\\\b'+e(c)+'\\\\b','g'),k[c])}}"
    "return p}("
)


def _encode_base62(value: int) -> str:
    if value < 62:
        return BASE62[value]
    out = ""
    while value:
        value, rem = divmod(value, 62)
        out = BASE62[rem] + out
    return out


_WORD_RE = re.compile(r"\b\w\w+\b")


def pack(source: str, rng: random.Random) -> str:
    """Pack ``source`` into the eval(function(p,a,c,k,e,d)…) wrapper."""
    minified = SimpleMinifier().transform(source, rng)

    counts: dict[str, int] = {}
    for match in _WORD_RE.finditer(minified):
        word = match.group(0)
        counts[word] = counts.get(word, 0) + 1
    # Words worth packing: repeated, and longer than their token.
    words = [word for word, count in counts.items() if count >= 2 and len(word) >= 2]
    words.sort(key=lambda word: -counts[word] * len(word))

    token_of = {word: _encode_base62(index) for index, word in enumerate(words)}

    def _tokenize(match: re.Match) -> str:
        word = match.group(0)
        return token_of.get(word, word)

    payload = _WORD_RE.sub(_tokenize, minified)
    payload = payload.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    dictionary = "|".join(words)
    return (
        _UNPACKER
        + "'"
        + payload
        + "',62,"
        + str(len(words))
        + ",'"
        + dictionary
        + "'.split('|'),0,{}))"
    )


class DeanEdwardsPacker:
    """Callable wrapper mirroring the Transformer interface (held-out tool)."""

    name = "daft_logic_packer"

    def transform(self, source: str, rng: random.Random) -> str:
        return pack(source, rng)
