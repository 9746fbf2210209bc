"""The enhanced AST: parse tree + tokens + control flow + data flow.

:func:`enhance` is the single entry point the detector pipeline uses to
abstract a JavaScript file (paper §III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flows.cfg import ControlFlowEdge, build_control_flow
from repro.flows.dfg import DataFlowEdge, build_data_flow
from repro.js.ast_nodes import Node
from repro.js.flat import FlatIndex, build_flat_index
from repro.js.parser import Parser
from repro.js.scope import Scope, analyze_scopes
from repro.js.tokens import Token


@dataclass
class EnhancedAST:
    """A JavaScript file abstracted per the paper: AST + CF + DF + tokens."""

    source: str
    program: Node
    tokens: list[Token]
    comments: list[Token]
    scope: Scope
    #: Pre-order flat arrays over ``program`` (node pool, type ids/names,
    #: parents, depths), built once at parse time.
    flat: FlatIndex
    control_flow: list[ControlFlowEdge] = field(default_factory=list)
    data_flow: list[DataFlowEdge] | None = None
    #: True when a flow analysis (DFG pair cap or interproc budget breach)
    #: silently degraded for this file.  Threaded through
    #: ``DetectionResult``, scan store records, and serve ``/metrics``.
    flow_timeout: bool = False
    _interproc: "object | None" = field(default=None, init=False, repr=False)

    @property
    def data_flow_available(self) -> bool:
        """False when the data-flow pass hit its pair cap (CF-only fallback)."""
        return self.data_flow is not None

    def interproc(self, budget=None):
        """Lazily computed interprocedural summaries (cached per instance).

        The first call pays for the whole-program analysis; budget caps
        degrade to empty summaries and flip :attr:`flow_timeout` instead
        of raising.  Passing an explicit ``budget`` bypasses the cache.
        """
        from repro.flows.interproc import analyze_program

        if budget is not None:
            result = analyze_program(self.program, budget=budget)
            if result.degraded:
                self.flow_timeout = True
            return result
        if self._interproc is None:
            self._interproc = analyze_program(self.program)
            if self._interproc.degraded:
                self.flow_timeout = True
        return self._interproc

    @property
    def node_count(self) -> int:
        return len(self.flat)


def enhance(source: str) -> EnhancedAST:
    """Parse and enhance a script with control and data flows.

    Raises :class:`repro.js.parser.ParseError` (or ``LexerError``) on
    syntactically invalid input — callers that scan corpora catch these and
    count the file as unparseable, as a real Esprima pipeline would.
    """
    parser = Parser(source)
    program = parser.parse_program()
    flat = build_flat_index(program)
    scope = analyze_scopes(program)
    control_flow = build_control_flow(program)
    data_flow = build_data_flow(program, scope=scope)
    return EnhancedAST(
        source=source,
        program=program,
        tokens=parser.tokens,
        comments=parser.comments,
        scope=scope,
        control_flow=control_flow,
        data_flow=data_flow,
        flat=flat,
        flow_timeout=data_flow is None,
    )
