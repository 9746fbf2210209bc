"""JavaScript tokenizer — a flat fast scanner with an exact scanner behind it.

:meth:`Lexer.scan_all` lexes with one ``findall`` over a group-free master
regex and a tight loop that types each match by its first character.  At
the first token that loop cannot prove, the table-driven scanner takes
over and lexes the rest of the file; it consumes trivia (whitespace,
newlines, comments) and literal bodies in batched ``str.find``/regex-driven
jumps, which keeps tokenization the cheapest layer of the pipeline (see
DESIGN.md §9 and BENCH_parse.json).  Coverage is ES5 plus the ES2015+
constructs common in the wild: template literals (with a real substitution
sub-scanner), arrow ``=>``, spread ``...``, binary/octal/BigInt numerics
and ``_`` numeric separators, Unicode escapes in identifiers,
regular-expression literals (with the standard slash disambiguation,
including statement-parenthesis tracking for the ``)``-before-``/``
ambiguity), and both comment styles.  Comments are collected separately so
feature extraction can measure comment density while the parser sees clean
input.

:func:`summarize_tokens` folds a token stream into a :class:`TokenSummary`
(per-type counts, identifier spellings, string and comment statistics).
The token-stage rules read it without parsing, and the static features
take their ``src_*``/``tok_*``/``str_*`` block from it.
"""

from __future__ import annotations

import re

from repro.js.tokens import (
    KEYWORDS,
    PUNCTUATORS,
    REGEX_ALLOWED_AFTER_KEYWORDS,
    REGEX_ALLOWED_AFTER_PUNCTUATORS,
    Token,
    TokenType,
)

# -- character-class dispatch table -------------------------------------------
#
# One entry per Latin-1 code point; code points above 0xFF are classified by
# exclusion (the only high trivia characters are consumed by the trivia
# regex, everything else is an identifier character, matching Esprima's
# lenient "any non-ASCII is identifier-ish" behaviour).  U+0080–U+00FF are
# identifier characters for the same reason (``\xa0`` is trivia and never
# reaches dispatch), exactly as in :data:`_ID_RE`.

_CC_INVALID = 0
_CC_ID = 1
_CC_DIGIT = 2
_CC_QUOTE = 3
_CC_BACKTICK = 4
_CC_SLASH = 5
_CC_DOT = 6
_CC_PUNCT = 7
_CC_BACKSLASH = 8

_CLASS = [_CC_INVALID] * 128 + [_CC_ID] * 128
for _ch in "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ$_":
    _CLASS[ord(_ch)] = _CC_ID
for _ch in "0123456789":
    _CLASS[ord(_ch)] = _CC_DIGIT
for _punct in PUNCTUATORS:
    _CLASS[ord(_punct[0])] = _CC_PUNCT
_CLASS[ord('"')] = _CC_QUOTE
_CLASS[ord("'")] = _CC_QUOTE
_CLASS[ord("`")] = _CC_BACKTICK
_CLASS[ord("/")] = _CC_SLASH
_CLASS[ord(".")] = _CC_DOT
_CLASS[ord("\\")] = _CC_BACKSLASH
del _ch

# Punctuator candidates per first character, longest first, values interned
# as module-level constants so every emitted token shares one string object.
_PUNCT_TABLE: dict[str, tuple[str, ...]] = {}
for _punct in PUNCTUATORS:
    _PUNCT_TABLE[_punct[0]] = _PUNCT_TABLE.get(_punct[0], ()) + (_punct,)
del _punct

#: ``(`` directly after one of these keywords opens a *statement* head, so
#: a ``/`` right after the matching ``)`` starts a regex, not a division
#: (``if (x) /re/.test(s)``).
_STATEMENT_PAREN_KEYWORDS = frozenset({"if", "for", "while", "with"})

# Numeric literal shapes, shared by both scanners.  A ``_`` separator
# sits between two digits, and never in a literal that starts with ``0``
# (``0_1``, legacy octal): ``1__0``, ``1_`` and ``0_1`` all stop before
# the ``_`` and so still raise "identifier starts immediately after
# number".
_DIGITS = r"[0-9]++(?:_[0-9]++)*+"
_EXPONENT = rf"(?:[eE][+-]?{_DIGITS})?"
_NUM_INTEGER = r"(?:[1-9][0-9]*+(?:_[0-9]++)*+|[0-9]++)"
_NUM_FRACTION = rf"(?:\.(?:{_DIGITS})?)?{_EXPONENT}"
_NUM_DOT = rf"\.{_DIGITS}{_EXPONENT}"
_NUM_HEX = r"0[xX](?:[0-9a-fA-F]++(?:_[0-9a-fA-F]++)*+)?"
_NUM_OCT = r"0[oO](?:[0-7]++(?:_[0-7]++)*+)?"
_NUM_BIN = r"0[bB](?:[01]++(?:_[01]++)*+)?"
_NUM_LEGACY_OCT = r"0[0-7]++"

# Batched scanners (all anchored with .match/.search so they run in C).
_TRIVIA_RUN_RE = re.compile("[ \t\v\f\xa0\ufeff\n\r\u2028\u2029]+")
_LINE_TERM_RE = re.compile("[\n\r\u2028\u2029]")
_ID_RE = re.compile(r"[A-Za-z$_\x80-\U0010ffff][0-9A-Za-z$_\x80-\U0010ffff]*")
_ID_PART_RE = re.compile(r"[0-9A-Za-z$_\x80-\U0010ffff]*")
_NUM_DEC_RE = re.compile(_NUM_INTEGER + _NUM_FRACTION)
_NUM_DOT_RE = re.compile(_NUM_DOT)
_NUM_HEX_RE = re.compile(_NUM_HEX)
_NUM_OCT_RE = re.compile(_NUM_OCT)
_NUM_BIN_RE = re.compile(_NUM_BIN)
_NUM_LEGACY_OCT_RE = re.compile(_NUM_LEGACY_OCT)
_STRING_RE = {
    '"': re.compile(r'"(?:[^"\\\n\r]++|\\(?:\r\n|[\s\S]))*"'),
    "'": re.compile(r"'(?:[^'\\\n\r]++|\\(?:\r\n|[\s\S]))*'"),
}
_LINE_TERMINATORS = frozenset("\n\r\u2028\u2029")

# Next character a template-body scan has to stop and think about.
_TEMPLATE_SPECIAL_RE = re.compile(r"[\\`$]")
# Next character a regex-literal scan has to stop and think about; plain
# pattern characters are skipped in one C-level search per special.
_REGEX_SPECIAL_RE = re.compile(
    "[\\\\[\\]/\n\r" + "".join(sorted(_LINE_TERMINATORS - set("\n\r"))) + "]"
)

# -- master scan regex ---------------------------------------------------------
#
# One group-free alternation covering every token shape that needs no
# lexer state, consumed with ``findall`` so the hot loop runs inside the
# regex engine and gets back one plain string per match.  The trailing
# catch-all makes the scan *gap-free* — every source character is in
# exactly one match, so cumulative lengths are exact absolute offsets.
# Anything the alternation cannot express — template literals, regex
# literals after ``)``, identifier Unicode escapes, unterminated literals,
# stray characters — arrives as a catch-all character or a flagged match,
# and :meth:`Lexer._scan_one` takes over from that token.
#
# Alternative order is load-bearing: the regex engine takes the first
# alternative that matches, so comments must precede punctuators (``//``
# before ``/``), numbers must precede punctuators (``.5`` before ``.``),
# and the legacy-octal alternative must precede plain decimal so ``0778``
# splits into ``077`` + ``8`` exactly like the reference scanner.

# Single-char punctuators that prefix no longer punctuator collapse into
# one character class up front; the rest are grouped by first character
# (longest first inside a family, which is all maximal munch needs) with
# the families ordered by how often minified code starts a punctuator
# with that character, so the engine's alternation scan stays short.
_PUNCT_SAFE_SINGLE = [
    p
    for p in PUNCTUATORS
    if len(p) == 1 and not any(q != p and q.startswith(p) for q in PUNCTUATORS)
]
_PUNCT_FAMILY_ORDER = "=.+-<>!*&|?%^/"
assert set(_PUNCT_FAMILY_ORDER) == {
    p[0] for p in PUNCTUATORS if p not in _PUNCT_SAFE_SINGLE
}
def _punct_regex(punct: str) -> str:
    # ``?.`` is only optional chaining when no decimal digit follows —
    # ``a?.5:0`` is a ternary over ``.5`` (spec: OptionalChainingPunctuator
    # lookahead).  :meth:`Lexer._scan_punctuator` applies the same guard.
    if punct == "?.":
        return r"\?\.(?![0-9])"
    return re.escape(punct)


_PUNCT_PATTERN = "[" + "".join(re.escape(p) for p in _PUNCT_SAFE_SINGLE) + "]|" + "|".join(
    "|".join(
        _punct_regex(p)
        for p in sorted(_PUNCT_TABLE[first], key=len, reverse=True)
    )
    for first in _PUNCT_FAMILY_ORDER
)

_FLAT_MASTER_RE = re.compile(
    "[ \t\v\f\xa0\ufeff\n\r\u2028\u2029]++"  # ws
    "|//[^\n\r\u2028\u2029]*+"  # comment: line ...
    r"|/\*[^*]*+\*+(?:[^/*][^*]*+\*+)*+/"  # ... or terminated block
    "|[A-Za-z$_\x80-\U0010ffff][0-9A-Za-z$_\x80-\U0010ffff]*+"  # identifier
    f"|{_NUM_HEX}n?|{_NUM_OCT}n?|{_NUM_BIN}n?"  # number: radix
    f"|{_NUM_LEGACY_OCT}"  # legacy octal (before decimal; no BigInt suffix)
    f"|{_NUM_INTEGER}(?:n|{_NUM_FRACTION})"  # decimal / BigInt
    f"|{_NUM_DOT}"  # dot-start (before punctuator ".")
    '|"(?:[^"\\\\\n\r]++|\\\\(?:\r\n|[\\s\\S]))*"'  # string: double ...
    "|'(?:[^'\\\\\n\r]++|\\\\(?:\r\n|[\\s\\S]))*'"  # ... or single quoted
    "|" + _PUNCT_PATTERN  # punctuator
    + r"|[\s\S]"  # catch-all: one character the flat scan stops at
)

# Punctuator value interning: every emitted token shares one string object.
_PUNCT_CANON = {p: p for p in PUNCTUATORS}

# Per-first-character classification for the flat scan: a match's token
# type follows from its first character, with the three ambiguous cases
# (``/`` comment-vs-punctuator-vs-regex, ``.`` punctuator-vs-number,
# identifier-vs-keyword) resolved on the value.
_FK_WS = 0
_FK_ID = 1
_FK_NUM = 2
_FK_STR = 3
_FK_SLASH = 5
_FK_DOT = 6
_FK_BAIL = 7

# First character -> token kind.  Unambiguous punctuator openers map
# straight to their TokenType (no second lookup); the rest map to the
# marker ints above; anything absent (identifier alphabet, astral
# planes) defaults to identifier-ish at the lookup site.  Keys are the
# single-character strings `findall` hands back, so the lookup skips the
# ord()/table-bounds dance entirely.
_FLAT_KIND0: dict = {}
for _ch in " \t\v\f\xa0\ufeff" + "".join(_LINE_TERMINATORS):
    _FLAT_KIND0[_ch] = _FK_WS
for _ch in "0123456789":
    _FLAT_KIND0[_ch] = _FK_NUM
for _punct in PUNCTUATORS:
    _FLAT_KIND0[_punct[0]] = TokenType.PUNCTUATOR
_FLAT_KIND0["/"] = _FK_SLASH
_FLAT_KIND0["."] = _FK_DOT
_FLAT_KIND0['"'] = _FK_STR
_FLAT_KIND0["'"] = _FK_STR
# Catch-all-only characters: templates, identifier escapes, and invalid
# bytes all need lexer state (or an error) the flat scan does not have.
_FLAT_KIND0["`"] = _FK_BAIL
_FLAT_KIND0["\\"] = _FK_BAIL
for _code in range(128):
    if _CLASS[_code] == _CC_INVALID and chr(_code) not in _FLAT_KIND0:
        _FLAT_KIND0[chr(_code)] = _FK_BAIL
del _ch, _punct, _code

# Exact-value lookup taking identifier spellings to keyword-family types.
_KEYWORD_TYPE = {keyword: TokenType.KEYWORD for keyword in KEYWORDS}
_KEYWORD_TYPE["true"] = TokenType.BOOLEAN
_KEYWORD_TYPE["false"] = TokenType.BOOLEAN
_KEYWORD_TYPE["null"] = TokenType.NULL
# Token types the identifier alternative produces.
_WORD_TYPES = frozenset(_KEYWORD_TYPE.values()) | {TokenType.IDENTIFIER}

# Characters that may directly follow a numeric literal without tripping
# the reference scanner's "identifier starts immediately after number"
# error: any ASCII that is not an identifier character.
_NUM_SAFE_NEXT = frozenset(chr(i) for i in range(128) if _CLASS[i] != _CC_ID)


class LexerError(ValueError):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _opens_statement_head(prev: Token | None) -> bool:
    """Does a ``(`` after ``prev`` head an if/for/while/with statement?"""
    return (
        prev is not None
        and prev.type is TokenType.KEYWORD
        and prev.value in _STATEMENT_PAREN_KEYWORDS
    )


class Lexer:
    """Stateful scanner over a JavaScript source string."""

    __slots__ = (
        "source",
        "length",
        "pos",
        "line",
        "line_start",
        "tokens",
        "comments",
        "_has_ls_ps",
        "_paren_stack",
        "_close_paren_statement",
    )

    def __init__(self, source: str) -> None:
        self.source = source
        self.length = len(source)
        self.pos = 0
        self.line = 1
        self.line_start = 0
        self.tokens: list[Token] = []
        self.comments: list[Token] = []
        # Sources without U+2028/U+2029 (almost all of them) skip the
        # supplementary terminator bookkeeping in the line counter.
        self._has_ls_ps = "\u2028" in source or "\u2029" in source
        # One bool per open "(": does it head an if/for/while/with statement?
        self._paren_stack: list[bool] = []
        self._close_paren_statement = False

    # -- public API --------------------------------------------------------

    def scan_all(self) -> list[Token]:
        """Tokenize the whole input; returns tokens without comments.

        Two scanners, fastest first:

        1. :meth:`_scan_flat` — a single ``findall`` over the group-free
           master regex plus one tight Python loop.  It never raises and
           never guesses: at the first token it cannot prove (a template,
           a slash after ``)``, an identifier escape, a lexing error) it
           stops, keeping every token and comment before that one.
        2. :meth:`_scan_one` — the table-driven stateful scanner.  It
           resumes where the flat scan stopped, with the
           statement-parenthesis state replayed from the kept tokens, and
           lexes to the end of the file; the only scanner that raises
           :class:`LexerError`.
        """
        self._scan_flat()
        if self.pos < self.length:
            self._replay_parens()
            while self.pos < self.length:
                self._scan_one()
        pos = self.pos
        self.tokens.append(
            Token(TokenType.EOF, "", pos, pos, self.line, pos - self.line_start)
        )
        return self.tokens

    def _scan_flat(self) -> None:
        """Fast scanner: lex from one group-free ``findall`` as far as it can.

        ``findall`` with zero groups returns plain strings, so no Match
        or group-tuple objects are allocated; token positions are
        rebuilt from cumulative lengths, which the pattern's catch-all
        alternative makes exact (every character is in exactly one
        match).  The loop never raises — when it meets something it
        cannot prove (a catch-all character, a slash after ``)``, a
        number running into an identifier, a regex literal straddled by
        another match) it stops with ``pos``/``line``/``line_start`` at
        that token's start, and :meth:`scan_all` resumes there.
        """
        src = self.source
        length = self.length
        values = _FLAT_MASTER_RE.findall(src)
        tokens = self.tokens
        append = tokens.append
        kind0 = _FLAT_KIND0.get
        keyword_type = _KEYWORD_TYPE.get
        punct_canon = _PUNCT_CANON
        safe_next = _NUM_SAFE_NEXT
        terminators = _LINE_TERMINATORS
        has_ls_ps = self._has_ls_ps
        token_new = Token.__new__
        identifier_type = TokenType.IDENTIFIER
        punctuator_type = TokenType.PUNCTUATOR
        keyword_type_tag = TokenType.KEYWORD
        numeric_type = TokenType.NUMERIC
        string_type = TokenType.STRING
        regex_type = TokenType.REGULAR_EXPRESSION
        pos = 0
        line = 1
        line_start = 0
        values_iter = iter(values)
        for value in values_iter:
            start = pos
            pos = end = start + len(value)
            kind = kind0(value[0], _FK_ID)
            if kind is punctuator_type:
                # Single-char values arrive as cached ASCII singletons; only
                # multi-char punctuators need the canon-intern lookup.
                if len(value) > 1:
                    value = punct_canon[value]
            elif kind == _FK_WS:
                if "\n" in value:
                    if "\r" not in value and not has_ls_ps:
                        line += value.count("\n")
                        line_start = start + value.rfind("\n") + 1
                        continue
                elif "\r" not in value and (
                    not has_ls_ps or terminators.isdisjoint(value)
                ):
                    continue
                # CR / LS / PS forms are rare: use the exact counter.
                self.line = line
                self.line_start = line_start
                self._count_lines(start, end)
                line = self.line
                line_start = self.line_start
                continue
            elif kind == _FK_ID:
                kind = keyword_type(value) or identifier_type
            elif kind == _FK_NUM:
                if end < length and src[end] not in safe_next:
                    break  # number-into-identifier needs the error path
                kind = numeric_type
            elif kind == _FK_STR:
                if len(value) == 1:
                    break  # catch-all: unterminated string
                kind = string_type
                if "\\" in value and not terminators.isdisjoint(value):
                    token = token_new(Token)
                    token.type = kind
                    token.value = value
                    token.start = start
                    token.end = end
                    token.line = line
                    token.column = start - line_start
                    append(token)
                    self.line = line
                    self.line_start = line_start
                    self._count_escaped_newlines(start + 1, end - 1)
                    line = self.line
                    line_start = self.line_start
                    continue
            elif kind == _FK_SLASH:
                if len(value) > 1 and (value[1] == "/" or value[1] == "*"):
                    comment_kind = "Line" if value[1] == "/" else "Block"
                    self.comments.append(
                        Token(
                            TokenType.COMMENT,
                            value,
                            start,
                            end,
                            line,
                            start - line_start,
                            extra={"kind": comment_kind},
                        )
                    )
                    if comment_kind == "Block" and not terminators.isdisjoint(value):
                        self.line = line
                        self.line_start = line_start
                        self._count_lines(start + 2, end - 2)
                        line = self.line
                        line_start = self.line_start
                    continue
                # A lone "/" directly before "*" is an *unterminated*
                # block comment (a terminated one is taken by the comment
                # alternative): the error path owns it.
                if value == "/" and end < length and src[end] == "*":
                    break
                # Bare "/" or "/=": division or regex per the previous
                # token.  Only the ")" case is ambiguous here (statement-
                # paren provenance lives in the stack this scan does not
                # maintain) and is left to the exact scanner.
                if tokens:
                    prev = tokens[-1]
                    prev_type = prev.type
                    if prev_type is punctuator_type:
                        prev_value = prev.value
                        if prev_value == ")":
                            break
                        want_regex = prev_value in REGEX_ALLOWED_AFTER_PUNCTUATORS
                    elif prev_type is keyword_type_tag:
                        want_regex = prev.value in REGEX_ALLOWED_AFTER_KEYWORDS
                    else:
                        want_regex = False
                else:
                    want_regex = True
                if want_regex:
                    # Scan the literal straight off the source, then walk
                    # the remaining `findall` matches it swallowed.  If a
                    # swallowed match straddles the literal's end (a quote
                    # in the pattern opening a phantom string), the walk
                    # cannot land exactly and the literal is handed back.
                    span = _regex_end(src, start)
                    if span is None:
                        break  # unterminated: the exact scanner raises
                    pattern_end, rx_end = span
                    token = token_new(Token)
                    token.type = regex_type
                    token.value = src[start:rx_end]
                    token.start = start
                    token.end = rx_end
                    token.line = line
                    token.column = start - line_start
                    token.extra = {
                        "pattern": src[start + 1 : pattern_end - 1],
                        "flags": src[pattern_end:rx_end],
                    }
                    append(token)
                    while pos < rx_end:
                        pos += len(next(values_iter))
                    if pos != rx_end:
                        tokens.pop()  # a match straddles the regex end
                        break
                    continue
                kind = punctuator_type
                value = punct_canon[value]
            elif kind == _FK_DOT:
                if value == "." or value == "...":
                    kind = punctuator_type
                    value = punct_canon[value]
                else:
                    if end < length and src[end] not in safe_next:
                        break
                    kind = numeric_type
            else:  # _FK_BAIL: templates, escapes, invalid characters
                if value == "\\" and tokens:
                    prev = tokens[-1]
                    if prev.end == start and prev.type in _WORD_TYPES:
                        start = prev.start  # the escape continues this word
                        tokens.pop()
                break
            token = token_new(Token)
            token.type = kind
            token.value = value
            token.start = start
            token.end = end
            token.line = line
            token.column = start - line_start
            append(token)
        else:
            start = pos  # every character consumed
        self.pos = start
        self.line = line
        self.line_start = line_start

    def _replay_parens(self) -> None:
        """Rebuild the statement-parenthesis state the flat scan does not
        keep, in one pass over the tokens it emitted."""
        stack = self._paren_stack
        prev = None
        for token in self.tokens:
            if token.type is TokenType.PUNCTUATOR:
                if token.value == "(":
                    stack.append(_opens_statement_head(prev))
                elif token.value == ")":
                    self._close_paren_statement = stack.pop() if stack else False
            prev = token

    def _scan_one(self) -> None:
        """Scan one token (or trailing trivia) with the stateful machinery.

        This is the exact half of :meth:`scan_all`: dispatch on the
        character-class table, full template/regex/escape handling, exact
        reference error messages.  A no-op at end of input.
        """
        src = self.source
        length = self.length
        self._skip_trivia()
        pos = self.pos
        if pos >= length:
            return
        code = ord(src[pos])
        cc = _CLASS[code] if code < 256 else _CC_ID
        if cc == _CC_ID:
            self._scan_identifier()
        elif cc == _CC_PUNCT:
            self._scan_punctuator()
        elif cc == _CC_DIGIT:
            self._scan_number()
        elif cc == _CC_QUOTE:
            self._scan_string(src[pos])
        elif cc == _CC_SLASH:
            if self._regex_allowed():
                self._scan_regex()
            else:
                self._scan_punctuator()
        elif cc == _CC_DOT:
            if pos + 1 < length and src[pos + 1] in "0123456789":
                self._scan_number()
            else:
                self._scan_punctuator()
        elif cc == _CC_BACKTICK:
            self._scan_template()
        elif cc == _CC_BACKSLASH:
            if pos + 1 < length and src[pos + 1] == "u":
                self._scan_identifier()
            else:
                raise LexerError(
                    f"Unexpected character {src[pos]!r}",
                    self.line,
                    pos - self.line_start,
                )
        else:
            raise LexerError(
                f"Unexpected character {src[pos]!r}",
                self.line,
                pos - self.line_start,
            )

    # -- line bookkeeping --------------------------------------------------

    @property
    def column(self) -> int:
        return self.pos - self.line_start

    def _count_lines(self, start: int, end: int) -> None:
        """Batched line accounting for the span ``[start, end)``.

        Counts line terminators (``\\r\\n`` as one) with C-level
        ``str.count`` and moves ``line_start`` past the last one.
        """
        src = self.source
        newlines = src.count("\n", start, end)
        line_start = src.rfind("\n", start, end) + 1  # 0 when absent
        carriage = src.count("\r", start, end)
        if carriage:
            newlines += carriage - src.count("\r\n", start, end)
            last_cr = src.rfind("\r", start, end)
            if last_cr + 1 > line_start and (
                last_cr + 1 >= end or src[last_cr + 1] != "\n"
            ):
                line_start = last_cr + 1
        if self._has_ls_ps:
            for terminator in ("\u2028", "\u2029"):
                count = src.count(terminator, start, end)
                if count:
                    newlines += count
                    line_start = max(line_start, src.rfind(terminator, start, end) + 1)
        if newlines:
            self.line += newlines
            self.line_start = line_start

    def _newline_at(self, pos: int) -> int:
        """Record one line terminator starting at ``pos``; returns the
        position after it (``\\r\\n`` consumed as a single terminator)."""
        src = self.source
        if src[pos] == "\r" and pos + 1 < self.length and src[pos + 1] == "\n":
            pos += 2
        else:
            pos += 1
        self.line += 1
        self.line_start = pos
        return pos

    # -- trivia ------------------------------------------------------------

    def _skip_trivia(self) -> None:
        src = self.source
        length = self.length
        pos = self.pos
        while pos < length:
            match = _TRIVIA_RUN_RE.match(src, pos)
            if match is not None:
                end = match.end()
                self._count_lines(pos, end)
                pos = end
                continue
            char = src[pos]
            if char == "/" and pos + 1 < length:
                nxt = src[pos + 1]
                if nxt == "/":
                    pos = self._scan_line_comment(pos)
                    continue
                if nxt == "*":
                    pos = self._scan_block_comment(pos)
                    continue
                break
            if char == "#" and pos == 0 and src.startswith("#!"):
                # Shebang line in Node scripts.
                pos = self._scan_line_comment(0)
                continue
            break
        self.pos = pos

    def _scan_line_comment(self, start: int) -> int:
        src = self.source
        match = _LINE_TERM_RE.search(src, start + 2)
        end = match.start() if match is not None else self.length
        self.comments.append(
            Token(
                TokenType.COMMENT,
                src[start:end],
                start,
                end,
                self.line,
                start - self.line_start,
                extra={"kind": "Line"},
            )
        )
        return end

    def _scan_block_comment(self, start: int) -> int:
        src = self.source
        close = src.find("*/", start + 2)
        if close == -1:
            raise LexerError(
                "Unterminated block comment", self.line, start - self.line_start
            )
        start_line, start_col = self.line, start - self.line_start
        self._count_lines(start + 2, close)
        end = close + 2
        self.comments.append(
            Token(
                TokenType.COMMENT,
                src[start:end],
                start,
                end,
                start_line,
                start_col,
                extra={"kind": "Block"},
            )
        )
        return end

    # -- identifiers and keywords -----------------------------------------

    def _scan_identifier(self) -> None:
        src = self.source
        start = self.pos
        if src[start] == "\\":
            end = self._consume_identifier_escape(start)
        else:
            end = _ID_RE.match(src, start).end()
        # Unicode escapes (A / \u{41}) may continue an identifier.
        while end < self.length and src[end] == "\\":
            end = self._consume_identifier_escape(end)
        value = src[start:end]
        self.tokens.append(
            Token(
                _KEYWORD_TYPE.get(value, TokenType.IDENTIFIER),
                value,
                start,
                end,
                self.line,
                start - self.line_start,
            )
        )
        self.pos = end

    def _consume_identifier_escape(self, pos: int) -> int:
        """Consume ``\\uXXXX`` or ``\\u{...}`` plus the id-part run after it."""
        src = self.source
        length = self.length
        if pos + 1 >= length or src[pos + 1] != "u":
            raise LexerError(
                f"Unexpected character {src[pos]!r}", self.line, pos - self.line_start
            )
        cursor = pos + 2
        if cursor < length and src[cursor] == "{":
            close = src.find("}", cursor + 1)
            hex_digits = src[cursor + 1 : close] if close != -1 else ""
            if close == -1 or not hex_digits or any(
                ch not in "0123456789abcdefABCDEF" for ch in hex_digits
            ):
                raise LexerError(
                    f"Unexpected character {src[pos]!r}",
                    self.line,
                    pos - self.line_start,
                )
            cursor = close + 1
        else:
            hex_digits = src[cursor : cursor + 4]
            if len(hex_digits) != 4 or any(
                ch not in "0123456789abcdefABCDEF" for ch in hex_digits
            ):
                raise LexerError(
                    f"Unexpected character {src[pos]!r}",
                    self.line,
                    pos - self.line_start,
                )
            cursor += 4
        return _ID_PART_RE.match(src, cursor).end()

    # -- numbers -----------------------------------------------------------

    def _scan_number(self) -> None:
        src = self.source
        start = self.pos
        length = self.length
        char = src[start]
        bigint_ok = True
        if char == "0" and start + 1 < length:
            marker = src[start + 1]
            if marker in "xX":
                end = _NUM_HEX_RE.match(src, start).end()
            elif marker in "oO":
                end = _NUM_OCT_RE.match(src, start).end()
            elif marker in "bB":
                end = _NUM_BIN_RE.match(src, start).end()
            elif marker in "01234567":
                # Legacy octal (sloppy mode); consume the octal digits.
                end = _NUM_LEGACY_OCT_RE.match(src, start).end()
                bigint_ok = False
            else:
                end = _NUM_DEC_RE.match(src, start).end()
        elif char == ".":
            end = _NUM_DOT_RE.match(src, start).end()
            bigint_ok = False
        else:
            end = _NUM_DEC_RE.match(src, start).end()
        value = src[start:end]
        if (
            bigint_ok
            and end < length
            and src[end] == "n"
            and "." not in value
            and (value[:2] in ("0x", "0X", "0o", "0O", "0b", "0B") or
                 ("e" not in value and "E" not in value))
        ):
            end += 1  # BigInt literal suffix
            value = src[start:end]
        self.pos = end
        if end < length:
            nxt = src[end]
            code = ord(nxt)
            if (code < 256 and _CLASS[code] == _CC_ID) or code > 0x7F:
                raise LexerError(
                    f"Identifier starts immediately after number {value!r}",
                    self.line,
                    end - self.line_start,
                )
        self.tokens.append(
            Token(
                TokenType.NUMERIC, value, start, end, self.line, start - self.line_start
            )
        )

    # -- strings -----------------------------------------------------------

    def _scan_string(self, quote: str) -> None:
        src = self.source
        start = self.pos
        start_line, start_col = self.line, start - self.line_start
        match = _STRING_RE[quote].match(src, start)
        if match is None:
            raise LexerError("Unterminated string literal", start_line, start_col)
        end = match.end()
        value = src[start:end]
        # Escaped line terminators (line continuations) shift every later
        # token's reported line; raw terminators cannot appear unescaped.
        if "\\" in value and (
            "\n" in value
            or "\r" in value
            or (self._has_ls_ps and ("\u2028" in value or "\u2029" in value))
        ):
            self._count_escaped_newlines(start + 1, end - 1)
        self.tokens.append(
            Token(TokenType.STRING, value, start, end, start_line, start_col)
        )
        self.pos = end

    def _count_escaped_newlines(self, start: int, end: int) -> None:
        """Line accounting for ``\\<terminator>`` pairs inside a literal."""
        src = self.source
        pos = start
        while True:
            pos = src.find("\\", pos, end)
            if pos == -1:
                return
            nxt = src[pos + 1]
            if nxt in _LINE_TERMINATORS:
                pos = self._newline_at(pos + 1)
            else:
                pos += 2

    # -- templates ---------------------------------------------------------

    def _scan_template(self) -> None:
        """Scan a whole template literal (including ``${ }`` substitutions).

        The token keeps the raw source; the parser splits it again with
        :func:`split_template`.  Both use :func:`_template_end`, whose
        substitution sub-scanner skips nested strings, templates, and
        comments, so braces or backticks inside a quoted string
        (`` `${"}"}` ``) cannot corrupt the nesting.
        """
        src = self.source
        start = self.pos
        start_line, start_col = self.line, start - self.line_start
        end = _template_end(src, start)
        if end < 0:
            raise LexerError("Unterminated template literal", start_line, start_col)
        self._count_lines(start, end)
        self.tokens.append(
            Token(TokenType.TEMPLATE, src[start:end], start, end, start_line, start_col)
        )
        self.pos = end

    # -- regular expressions ----------------------------------------------

    def _regex_allowed(self) -> bool:
        """Decide whether ``/`` begins a regex literal at the current position.

        The previous significant token decides (comments never enter
        ``self.tokens``): after most punctuators and the value-less
        keywords a regex may start; after ``this``/``super``, literals,
        identifiers, and closing brackets it is a division.  A closing
        ``)`` is ambiguous and resolved by the statement-parenthesis
        stack maintained in :meth:`_scan_punctuator`.
        """
        tokens = self.tokens
        if not tokens:
            return True
        last = tokens[-1]
        kind = last.type
        if kind is TokenType.PUNCTUATOR:
            if last.value == ")":
                return self._close_paren_statement
            return last.value in REGEX_ALLOWED_AFTER_PUNCTUATORS
        if kind is TokenType.KEYWORD:
            return last.value in REGEX_ALLOWED_AFTER_KEYWORDS
        return False

    def _scan_regex(self) -> None:
        src = self.source
        start = self.pos
        start_col = start - self.line_start
        span = _regex_end(src, start)
        if span is None:
            raise LexerError("Unterminated regular expression", self.line, start_col)
        pattern_end, end = span
        self.tokens.append(
            Token(
                TokenType.REGULAR_EXPRESSION,
                src[start:end],
                start,
                end,
                self.line,
                start_col,
                extra={
                    "pattern": src[start + 1 : pattern_end - 1],
                    "flags": src[pattern_end:end],
                },
            )
        )
        self.pos = end

    # -- punctuators -------------------------------------------------------

    def _scan_punctuator(self) -> None:
        src = self.source
        start = self.pos
        candidates = _PUNCT_TABLE.get(src[start])
        if candidates is None:
            raise LexerError(
                f"Unexpected character {src[start]!r}",
                self.line,
                start - self.line_start,
            )
        tokens = self.tokens
        for punct in candidates:
            if len(punct) == 1 or src.startswith(punct, start):
                if (
                    punct == "?."
                    and start + 2 < len(src)
                    and "0" <= src[start + 2] <= "9"
                ):
                    continue  # ``a?.5:0`` is a ternary over ``.5``, not chaining
                if punct == "(":
                    self._paren_stack.append(
                        _opens_statement_head(tokens[-1] if tokens else None)
                    )
                elif punct == ")":
                    stack = self._paren_stack
                    self._close_paren_statement = stack.pop() if stack else False
                end = start + len(punct)
                tokens.append(
                    Token(
                        TokenType.PUNCTUATOR,
                        punct,
                        start,
                        end,
                        self.line,
                        start - self.line_start,
                    )
                )
                self.pos = end
                return
        raise LexerError(
            f"Unexpected character {src[start]!r}", self.line, start - self.line_start
        )


# -- literal spans (shared by both scanners and the parser) -------------------


def _regex_end(src: str, start: int) -> tuple[int, int] | None:
    """Span of the regex literal whose ``/`` is at ``start``.

    Returns ``(pattern_end, end)`` — offsets just past the closing ``/``
    and past the flags — or None when the literal never closes.
    """
    pos = start + 1
    in_class = False
    search = _REGEX_SPECIAL_RE.search
    while True:
        match = search(src, pos)
        if match is None:
            return None
        pos = match.start()
        char = src[pos]
        if char == "\\":
            pos += 2
            continue
        if char == "[":
            in_class = True
        elif char == "]":
            in_class = False
        elif char == "/":
            if not in_class:
                pos += 1
                return pos, _ID_PART_RE.match(src, pos).end()
        else:  # raw line terminator: unterminated
            return None
        pos += 1


def _substitution_end(raw: str, pos: int) -> int:
    """End of the ``${`` substitution whose body starts at ``pos``.

    Returns the index just after the closing ``}``, or -1 when the
    substitution never closes.  Nested strings, templates, comments, and
    brace pairs are skipped structurally rather than counted blindly.
    """
    length = len(raw)
    depth = 1
    while pos < length:
        char = raw[pos]
        if char == "}":
            depth -= 1
            pos += 1
            if depth == 0:
                return pos
        elif char == "{":
            depth += 1
            pos += 1
        elif char == "'" or char == '"':
            quote = char
            pos += 1
            while pos < length:
                if raw[pos] == "\\":
                    pos += 2
                elif raw[pos] == quote:
                    pos += 1
                    break
                else:
                    pos += 1
        elif char == "`":
            pos = _template_end(raw, pos)
            if pos < 0:
                return -1
        elif char == "/" and pos + 1 < length and raw[pos + 1] == "/":
            match = _LINE_TERM_RE.search(raw, pos + 2)
            pos = match.start() if match is not None else length
        elif char == "/" and pos + 1 < length and raw[pos + 1] == "*":
            close = raw.find("*/", pos + 2)
            pos = length if close == -1 else close + 2
        elif char == "\\":
            pos += 2
        else:
            pos += 1
    return -1


def _template_end(raw: str, pos: int) -> int:
    """End of the template literal whose backtick is at ``pos``.

    Returns the index just after the closing backtick, or -1 when the
    template never closes.  Plain template text is skipped in one
    C-level search per special character.
    """
    search = _TEMPLATE_SPECIAL_RE.search
    pos += 1
    while True:
        match = search(raw, pos)
        if match is None:
            return -1
        pos = match.start()
        char = raw[pos]
        if char == "`":
            return pos + 1
        if char == "\\":
            pos += 2
        elif raw.startswith("{", pos + 1):
            pos = _substitution_end(raw, pos + 2)
            if pos < 0:
                return -1
        else:
            pos += 1


def split_template(raw: str) -> tuple[list[str], list[str]]:
    """Split a raw template token into quasi chunks and substitution sources.

    ``raw`` includes the enclosing backticks.  Returns ``(chunks, exprs)``
    where ``len(chunks) == len(exprs) + 1``; chunks keep their original
    escape sequences.  Uses the same structure-aware substitution scanner
    as the lexer, so strings containing braces or backticks inside
    ``${...}`` split correctly.
    """
    inner = raw[1:-1]
    length = len(inner)
    chunks: list[str] = []
    exprs: list[str] = []
    chunk_start = 0
    pos = 0
    while pos < length:
        char = inner[pos]
        if char == "\\":
            pos += 2
        elif char == "$" and pos + 1 < length and inner[pos + 1] == "{":
            chunks.append(inner[chunk_start:pos])
            expr_start = pos + 2
            pos = _substitution_end(inner, expr_start)
            if pos < 0:  # unbalanced: the substitution runs to the end
                pos = length
            exprs.append(inner[expr_start : pos - 1])
            chunk_start = pos
        else:
            pos += 1
    chunks.append(inner[chunk_start:])
    return chunks, exprs


# -- single-pass token summary ------------------------------------------------


class TokenSummary:
    """Token-level aggregates folded out of one scan, no AST required.

    Everything the token-stage rules and the static features' ``src_*``/
    ``tok_*``/``str_*`` block consume: per-type counts, identifier
    spellings, string statistics, and comment mass.
    """

    __slots__ = (
        "n_tokens",
        "type_counts",
        "identifier_values",
        "string_chars",
        "escape_chars",
        "n_strings",
        "max_string_len",
        "comment_chars",
        "n_comments",
    )

    def __init__(self) -> None:
        self.n_tokens = 0
        self.type_counts: dict[TokenType, int] = {}
        self.identifier_values: list[str] = []
        self.string_chars = 0
        self.escape_chars = 0
        self.n_strings = 0
        self.max_string_len = 0
        self.comment_chars = 0
        self.n_comments = 0


def summarize_tokens(
    tokens: list[Token],
    comments: list[Token] | None = None,
) -> TokenSummary:
    """Fold a token stream (EOF skipped) into a :class:`TokenSummary`."""
    summary = TokenSummary()
    counts = summary.type_counts
    identifiers = summary.identifier_values
    eof = TokenType.EOF
    identifier = TokenType.IDENTIFIER
    string = TokenType.STRING
    for token in tokens:
        kind = token.type
        if kind is eof:
            continue
        counts[kind] = counts.get(kind, 0) + 1
        if kind is identifier:
            identifiers.append(token.value)
        elif kind is string:
            value = token.value
            size = len(value)
            summary.string_chars += size
            summary.escape_chars += value.count("\\")
            if size > summary.max_string_len:
                summary.max_string_len = size
    summary.n_tokens = sum(counts.values())
    summary.n_strings = counts.get(string, 0)
    if comments:
        summary.n_comments = len(comments)
        summary.comment_chars = sum(len(comment.value) for comment in comments)
    return summary


def tokenize(source: str, include_comments: bool = False) -> list[Token]:
    """Tokenize JavaScript source.

    Returns the token list (terminated by an EOF token).  With
    ``include_comments`` the comment tokens are merged in source order.
    """
    lexer = Lexer(source)
    tokens = lexer.scan_all()
    if include_comments:
        merged = sorted(tokens + lexer.comments, key=lambda token: token.start)
        return merged
    return tokens
