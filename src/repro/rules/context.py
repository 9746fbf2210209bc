"""Shared analysis context for one file, with staged, lazy construction.

Rules declare how much structure they need (``text`` < ``tokens`` <
``ast``); the context materialises each layer on first use so the triage
path can answer "obviously minified" from the raw text without ever
lexing, and "hex-renamed" from the token stream without ever parsing.
When the full pipeline already built an :class:`EnhancedAST`, the context
wraps it and every layer is free.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from repro.flows.cfg import build_control_flow
from repro.flows.dfg import build_data_flow
from repro.flows.graph import EnhancedAST
from repro.js.ast_nodes import Node, iter_child_nodes
from repro.js.flat import FlatIndex, build_flat_index
from repro.js.parser import Parser
from repro.js.scope import analyze_scopes
from repro.js.semantics import MISS, literal_value, static_truth
from repro.js.tokens import Token, TokenType


class RuleContext:
    """Lazy per-file view shared by every rule evaluation.

    Parameters
    ----------
    source:
        Raw JavaScript text (required unless ``enhanced`` is given).
    enhanced:
        An already-built :class:`EnhancedAST` — the full-pipeline path
        passes the one it extracted features from, so rules never parse
        twice.
    data_flow:
        Whether :attr:`enhanced` may build data-flow edges when it has to
        parse itself (the triage path disables this: taint rules degrade
        gracefully and triage stays cheap).
    """

    def __init__(
        self,
        source: str | None = None,
        enhanced: EnhancedAST | None = None,
        data_flow: bool = True,
    ) -> None:
        if source is None and enhanced is None:
            raise ValueError("RuleContext needs source text or an EnhancedAST")
        self._source = enhanced.source if enhanced is not None else source
        self._enhanced = enhanced
        self._data_flow = data_flow
        self._tokens: list[Token] | None = enhanced.tokens if enhanced is not None else None
        self._parser: Parser | None = None  #: lexed, not yet enhanced (see :attr:`tokens`)
        self._flat: FlatIndex | None = None  #: parsed, not yet enhanced (see :attr:`flat`)
        self._token_list: list[Token] | None = None
        self._summary = None
        self._line_starts: list[int] | None = None
        self._nodes_by_type: dict[str, list[Node]] | None = None

    # -- layers ----------------------------------------------------------------

    @property
    def source(self) -> str:
        return self._source  # type: ignore[return-value]

    @property
    def tokens(self) -> list[Token]:
        """Token stream (lexes on demand; EOF excluded; cached).

        Lexing builds the :class:`Parser` (its constructor is the lexer)
        and keeps it, so a later :attr:`enhanced` parses these very tokens
        instead of lexing the source a second time.
        """
        if self._token_list is None:
            if self._tokens is None:
                self._parser = Parser(self.source)
                self._tokens = self._parser.tokens
            self._token_list = [t for t in self._tokens if t.type is not TokenType.EOF]
        return self._token_list

    @property
    def summary(self):
        """One-pass :class:`~repro.js.lexer.TokenSummary` of the stream.

        Token-stage rules and the triage ambiguity gate read their
        aggregates (type histogram, identifier spellings) from here, so
        the stream is folded exactly once per file.
        """
        if self._summary is None:
            from repro.js.lexer import summarize_tokens

            self._summary = summarize_tokens(self.tokens)
        return self._summary

    @property
    def flat(self) -> FlatIndex:
        """Flat index of the parsed tree (parses on demand; no scope or flows).

        The deob engine sizes a program state from it before any scope
        analysis or rule runs; :attr:`enhanced` builds on the same parse.
        """
        if self._enhanced is not None:
            return self._enhanced.flat
        if self._flat is None:
            self.tokens  # lexes once; the parse below reads these tokens
            self._flat = build_flat_index(self._parser.parse_program())
        return self._flat

    @property
    def enhanced(self) -> EnhancedAST:
        """Enhanced AST (parses + builds flows on demand)."""
        if self._enhanced is None:
            flat = self.flat
            parser, self._parser, self._flat = self._parser, None, None
            program = flat.nodes[0]
            scope = analyze_scopes(program)
            control_flow = build_control_flow(program)
            data_flow = build_data_flow(program, scope=scope) if self._data_flow else None
            self._enhanced = EnhancedAST(
                source=self.source,
                program=program,
                tokens=parser.tokens,
                comments=parser.comments,
                scope=scope,
                control_flow=control_flow,
                data_flow=data_flow,
                flat=flat,
                flow_timeout=self._data_flow and data_flow is None,
            )
            self._tokens = self._enhanced.tokens
        return self._enhanced

    @property
    def interproc(self):
        """Interprocedural summaries (lazy, budgeted, cached on the AST).

        Only the AST-stage decoder rules touch this, and they pre-gate on
        cheap structural checks first — rules-only triage never pays for
        the whole-program pass unless a candidate decoder shape exists.
        """
        return self.enhanced.interproc()

    @property
    def program(self) -> Node:
        return self.enhanced.program

    # -- indices ---------------------------------------------------------------

    def nodes(self, *types: str) -> list[Node]:
        """All AST nodes of the given types (one cached walk).

        Within one type, every node is listed before its descendants.
        """
        if self._nodes_by_type is None:
            self._nodes_by_type = nodes_by_type(self.program)
        return select_types(self._nodes_by_type, types)

    @property
    def identifier_values(self) -> list[str]:
        """Identifier token spellings (token layer — no parse needed)."""
        return self.summary.identifier_values

    def token_counts(self) -> Counter:
        """Token-type histogram (token layer)."""
        return Counter(self.summary.type_counts)

    # -- locations -------------------------------------------------------------

    def line_of(self, offset: int) -> tuple[int, int]:
        """(1-based line, 1-based column) for a character offset."""
        if self._line_starts is None:
            starts = [0]
            find = self.source.find
            pos = find("\n")
            while pos != -1:
                starts.append(pos + 1)
                pos = find("\n", pos + 1)
            self._line_starts = starts
        index = bisect_right(self._line_starts, max(0, offset)) - 1
        return index + 1, offset - self._line_starts[index] + 1

    def location(self, item: Node | Token):
        """A :class:`~repro.rules.findings.Location` for a node or token."""
        from repro.rules.findings import Location

        if isinstance(item, Node):
            start = item.get("start") or 0
            end = item.get("end") or start
        else:
            start, end = item.start, item.end
        line, column = self.line_of(start)
        return Location(line=line, column=column, start=start, end=end)

    def snippet(self, node: Node, limit: int = 60) -> str:
        """The source text of a node, truncated for evidence strings."""
        start = node.get("start") or 0
        end = node.get("end") or start
        text = " ".join(self.source[start:end].split())
        return text if len(text) <= limit else text[: limit - 1] + "…"


# -- typed node index ------------------------------------------------------------


def nodes_by_type(root: Node) -> dict[str, list[Node]]:
    """Every node under ``root`` bucketed by type, in one walk.

    Within one type, every node is listed before its descendants, and
    nodes that do not nest are listed in reverse document order.
    """
    index: dict[str, list[Node]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        index.setdefault(node.type, []).append(node)
        stack.extend(iter_child_nodes(node))
    return index


def select_types(index: dict[str, list[Node]], types: tuple[str, ...]) -> list[Node]:
    """The nodes of ``types`` in a :func:`nodes_by_type` index."""
    if len(types) == 1:
        return index.get(types[0], [])
    out: list[Node] = []
    for node_type in types:
        out.extend(index.get(node_type, []))
    return out


# -- small AST helpers shared by the rule catalog -----------------------------


def prop_name(member: Node) -> str | None:
    """The property name of a member access, through both spellings.

    Obfuscated code flips freely between ``x.push`` and ``x["push"]`` —
    signatures must match either.
    """
    prop = member.property
    if not member.get("computed") and prop.type == "Identifier":
        return prop.name
    if member.get("computed") and prop.type == "Literal" and isinstance(prop.value, str):
        return prop.value
    return None


def callee_name(call: Node) -> str | None:
    """The plain identifier a call invokes, or ``None``."""
    callee = call.callee
    return callee.name if callee.type == "Identifier" else None


def is_constant_false(test: Node) -> bool:
    """True when a branch test statically evaluates to false.

    Covers the opaque-predicate shapes dead-code injectors emit: bare
    falsy literals and *equality* comparisons of two same-type literals.
    Ordering comparisons and mixed-type operands are deliberately out of
    scope — organically written (and synthetically generated) regular
    code contains nonsense like ``if ("submit" > 3.41)``, and JavaScript
    coercion semantics make those unsafe to fold statically.
    """
    if test.type == "BinaryExpression":
        left, right = literal_value(test.left), literal_value(test.right)
        if left is MISS or type(left) is not type(right):
            return False
    elif test.type != "Literal":
        return False
    return static_truth(test) is False


def is_truthy_literal(test: Node | None) -> bool:
    """True for an always-true loop test (``while (true)``, ``while (!0)``,
    ``while (/x/)``)."""
    return test is not None and static_truth(test) is True


def walk_subtree(node: Node):
    """Pre-order generator over one subtree (local, allocation-light)."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(iter_child_nodes(current))
