"""Rule engine: full-file analysis and staged rules-only triage.

Two entry points:

- :meth:`RuleEngine.analyze` evaluates the whole catalog against an
  :class:`~repro.flows.graph.EnhancedAST` the pipeline already built —
  this is how findings ride along with feature extraction for free.
- :meth:`RuleEngine.triage` lifts a raw source through the analysis
  stages lazily (text → tokens → AST) and stops as soon as a
  high-confidence signature fires, so obvious files never pay for a
  parse, let alone 4-gram extraction.  An ambiguity gate decides whether
  an undecided file is worth parsing at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.flows.graph import EnhancedAST
from repro.js.tokens import TokenType
from repro.outcome import RECURSION_TOKENS, DetectionError, detection_error
from repro.rules.base import STAGE_AST, STAGE_TEXT, STAGE_TOKENS, Rule, stage_order
from repro.rules.catalog import DEFAULT_RULES
from repro.rules.context import RuleContext
from repro.rules.findings import Finding, max_confidence_by_technique

#: Default confidence at which a triage finding counts as decisive.
TRIAGE_THRESHOLD = 0.85

_HEX_IDENT_RE = re.compile(r"^_0x[0-9a-fA-F]+$")

#: Identifier spellings that mark a file as worth parsing during triage:
#: the AST-stage signatures all leave at least one of these in the stream.
_SUSPICIOUS_IDENTIFIERS = frozenset(
    {
        "eval",
        "Function",
        "atob",
        "unescape",
        "execScript",
        "fromCharCode",
        "charCodeAt",
        "debugger",
        "setInterval",
    }
)

#: String-literal payloads of reflective access (``x["constructor"](...)``,
#: ``x["compile"](...)``).  These only count when quoted: the words appear
#: as plain properties in ordinary code, but obfuscators reach them
#: through bracket-string access.
_SUSPICIOUS_STRING_VALUES = frozenset({"constructor", "compile"})

#: A flattened dispatcher's order string: digits joined by pipes, quoted
#: (``"2|0|1"``).  Regular code essentially never contains one, so this
#: is the text-level trigger for the switch-dispatcher parse.
_ORDER_STRING_RE = re.compile(r"""["']\d+(?:\|\d+)+["']""")

#: Raw-text substrings that make lexing worthwhile at all.  The token
#: stage can only ever find hex identifiers (``_0x``), and the ambiguity
#: gate only ever finds these spellings — a file containing none of them
#: is guaranteed undecidable past the text stage, so triage skips the
#: lexer entirely (the dominant cost for clean files).
_LEX_TRIGGERS = ("_0x", "\\x", "\\u") + tuple(_SUSPICIOUS_IDENTIFIERS)


@dataclass
class TriageResult:
    """Outcome of the staged rules-only path for one file.

    ``decided`` means a signature at or above the confidence threshold
    fired and the caller may skip full feature extraction.  ``stage``
    records the deepest analysis layer that was built (``text`` <
    ``tokens`` < ``ast``) — the cost actually paid.  ``error`` is set
    when the file could not be lexed/parsed at the stage it needed.
    """

    findings: list[Finding] = field(default_factory=list)
    stage: str = STAGE_TEXT
    decided: bool = False
    error: DetectionError | None = None

    @property
    def techniques(self) -> dict[str, float]:
        """Strongest finding confidence per technique label."""
        return max_confidence_by_technique(self.findings)


class RuleEngine:
    """Evaluate a rule catalog over files, fully or in staged triage."""

    def __init__(
        self,
        rules: tuple[Rule, ...] | list[Rule] | None = None,
    ) -> None:
        self.rules: tuple[Rule, ...] = tuple(DEFAULT_RULES if rules is None else rules)
        self._by_stage: dict[str, list[Rule]] = {
            STAGE_TEXT: [],
            STAGE_TOKENS: [],
            STAGE_AST: [],
        }
        for rule in self.rules:
            self._by_stage[rule.stage].append(rule)

    # -- full analysis ---------------------------------------------------------

    def analyze(self, enhanced: EnhancedAST) -> list[Finding]:
        """Run every rule against an already-built enhanced AST."""
        return self._evaluate(RuleContext(enhanced=enhanced), self.rules)

    def analyze_source(
        self, source: str | RuleContext, data_flow: bool = True
    ) -> list[Finding]:
        """Parse ``source`` and run every rule (raises on invalid JS).

        ``source`` may also be a :class:`RuleContext` the caller keeps (its
        own ``data_flow`` setting applies): the deob engine analyses each
        program state this way, then runs its passes on the tree, scope
        and typed node index the rules built.
        """
        if not isinstance(source, RuleContext):
            source = RuleContext(source=source, data_flow=data_flow)
        return self._evaluate(source, self.rules)

    # -- staged triage -----------------------------------------------------------

    def triage(
        self,
        source: str,
        threshold: float = TRIAGE_THRESHOLD,
        deep: bool | str = "auto",
    ) -> TriageResult:
        """Rules-only verdict for one file, paying for as little as possible.

        Stages run in cost order and stop at the first decisive finding.
        ``deep`` controls the AST stage for files still undecided after
        the token stage: ``True`` always parses, ``False`` never does
        (the pre-filter configuration — the full pipeline will parse
        anyway), and ``"auto"`` parses only when the token stream shows a
        marker one of the AST signatures needs (hex identifiers, dynamic
        code callees, escape-saturated strings, dispatcher vocabulary).
        """
        ctx = RuleContext(source=source, data_flow=False)
        result = TriageResult()

        result.findings.extend(self._evaluate(ctx, self._by_stage[STAGE_TEXT]))
        if self._decisive(result.findings, threshold):
            result.decided = True
            return result

        if not self._worth_lexing(source):
            return result
        try:
            ctx.tokens
        except Exception as error:  # noqa: BLE001 - triage must not raise
            result.error = detection_error(error, RECURSION_TOKENS)
            return result
        result.stage = STAGE_TOKENS
        result.findings.extend(self._evaluate(ctx, self._by_stage[STAGE_TOKENS]))
        if self._decisive(result.findings, threshold):
            result.decided = True
            return result

        if deep is False or (deep == "auto" and not self._ambiguous(ctx)):
            return result
        try:
            ctx.enhanced
        except Exception as error:  # noqa: BLE001 - triage must not raise
            result.error = detection_error(error)
            return result
        result.stage = STAGE_AST
        result.findings.extend(self._evaluate(ctx, self._by_stage[STAGE_AST]))
        result.decided = self._decisive(result.findings, threshold)
        return result

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _evaluate(ctx: RuleContext, rules: list[Rule] | tuple[Rule, ...]) -> list[Finding]:
        findings: list[Finding] = []
        for rule in rules:
            findings.extend(rule.evaluate(ctx))
        return findings

    @staticmethod
    def _decisive(findings: list[Finding], threshold: float) -> bool:
        return any(finding.confidence >= threshold for finding in findings)

    @staticmethod
    def _worth_lexing(source: str) -> bool:
        """Text-level gate: could the token stage or the ambiguity gate
        possibly find anything?  Conservative superset — every token-stage
        signal and every :meth:`_ambiguous` trigger implies one of these
        raw substrings, so skipping the lexer on a miss loses nothing."""
        if any(trigger in source for trigger in _LEX_TRIGGERS):
            return True
        if "push" in source and "shift" in source:
            return True  # rotation-loop vocabulary
        if "constructor" in source or "compile" in source:
            return True  # reflective access (string-token check downstream)
        return bool(_ORDER_STRING_RE.search(source))

    @staticmethod
    def _ambiguous(ctx: RuleContext) -> bool:
        """Token-level markers that make the AST stage worth its parse."""
        if any(_HEX_IDENT_RE.match(value) for value in ctx.identifier_values):
            return True
        token_values = {token.value for token in ctx.tokens}
        if token_values & _SUSPICIOUS_IDENTIFIERS:
            return True  # dynamic-code / string-builder / timer vocabulary
        strings = {
            token.value.strip("\"'")
            for token in ctx.tokens
            if token.type is TokenType.STRING
        }
        if strings & _SUSPICIOUS_STRING_VALUES:
            return True  # x["constructor"](...) / x["compile"](...)
        if "switch" in token_values and _ORDER_STRING_RE.search(ctx.source or ""):
            return True  # dispatcher loop with its pipe-joined order string
        if "push" in token_values and "shift" in token_values:
            return True  # rotation-loop vocabulary
        if any("\\x" in value or "\\u" in value for value in strings):
            return True  # escape-encoded strings
        return False

    def sorted_rules(self) -> list[Rule]:
        """Catalog in (stage, rule id) order — the evaluation order."""
        return sorted(self.rules, key=lambda rule: (stage_order(rule.stage), rule.rule_id))


#: Module-level shared engine: feature extraction and the batch engine's
#: worker processes reuse one catalog without pickling rule instances.
_default_engine: RuleEngine | None = None


def default_engine() -> RuleEngine:
    global _default_engine
    if _default_engine is None:
        _default_engine = RuleEngine()
    return _default_engine
