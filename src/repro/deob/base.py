"""Pass protocol, safety budgets, and shared context for ``repro.deob``.

A deobfuscation pass is a *pure* AST rewrite: it receives the current
program plus a :class:`PassContext` and returns a :class:`PassResult`
whose ``program`` is either the input (untouched, zero rewrites) or a
fresh tree.  Every pass rewrites the same way: it reads the state's
typed node lists, bindings and interprocedural result through the
context, builds an edit map (``id(node)`` → replacement) without
changing anything, and returns ``clone(program, edits)`` when the map is
not empty (see :func:`~repro.js.ast_nodes.clone`).  The lint gate in
``scripts/lint.sh`` runs every registered pass against a canned sample
and fails the build if the input tree changed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.flows.interproc import InterprocResult, analyze_program
from repro.js.ast_nodes import Node, clone
from repro.js.scope import Binding, analyze_scopes
from repro.rules.context import RuleContext, nodes_by_type, prop_name, select_types
from repro.rules.findings import Finding


@dataclass(frozen=True)
class Budget:
    """Safety limits for one :class:`~repro.deob.engine.DeobEngine` run.

    The engine bails out (leaving the input unchanged, or stopping with
    partial progress at the iteration cap) rather than ever looping or
    scanning unboundedly on adversarial input.  Every cap counts work, so
    a run's outcome depends on its input alone, never on the host.
    """

    max_nodes: int = 400_000  #: refuse files whose AST exceeds this size
    max_iterations: int = 8  #: fixpoint iterations before giving up
    #: AST nodes analysed, summed over the program states of one run; a
    #: trip returns the input unchanged.  A 322 KB minified bundle takes
    #: about 284k (three states).
    max_work: int = 1_000_000
    max_eval_depth: int = 3  #: nested eval/Function payload unwraps
    max_eval_ops: int = 2_000_000  #: JSFuck evaluator operation ceiling


@dataclass
class PassContext:
    """Per-iteration state shared by the passes.

    ``findings`` are the rule engine's findings for the *current* program
    state — passes consume the typed evidence on them (dispatcher order
    strings, string-array offsets) instead of re-deriving it.
    ``analysis`` is the rule context those findings came from: the
    passes read the state's typed node lists, identifier names, bindings
    and interprocedural summaries through :meth:`nodes`, :meth:`names`,
    :meth:`bindings` and :meth:`interproc`, which reuse the rules' walk,
    scope analysis and decoder analysis.  A tree an earlier pass produced
    in the same iteration (or any tree, without an ``analysis``) gets its
    index from the same accessors, built on first use; only the latest
    tree's index is kept.
    """

    source: str  #: source text of the current program state
    findings: list[Finding] = field(default_factory=list)
    budget: Budget = field(default_factory=Budget)
    eval_unwraps: int = 0  #: payload unwraps performed so far (all passes)
    notes: list[str] = field(default_factory=list)
    analysis: RuleContext | None = None  #: the rules' context of ``source``
    _index: tuple[Node, dict] | None = field(default=None, init=False, repr=False)

    def _analysed(self, program: Node) -> bool:
        return self.analysis is not None and program is self.analysis.program

    def nodes(self, program: Node, *types: str) -> list[Node]:
        """``program``'s nodes of the given types (ancestors first; see
        :func:`~repro.rules.context.nodes_by_type` for the order)."""
        if self._analysed(program):
            return self.analysis.nodes(*types)
        if self._index is None or self._index[0] is not program:
            self._index = (program, nodes_by_type(program))
        return select_types(self._index[1], types)

    def names(self, program: Node) -> set[str]:
        """Every identifier spelling in ``program``."""
        return {node.name for node in self.nodes(program, "Identifier")}

    def scoped(self, program: Node) -> tuple[Node, list[Binding]]:
        """Every binding in ``program``'s scopes, and the tree they annotate.

        That is ``program`` itself when it is the state's tree.  Any other
        tree is analysed on a copy, so the tree a pass was handed is never
        annotated: a pass that edits by binding keys its edits on the
        returned tree and clones that."""
        if self._analysed(program):
            return program, list(self.analysis.enhanced.scope.iter_all_bindings())
        copy = clone(program)
        return copy, list(analyze_scopes(copy).iter_all_bindings())

    def bindings(self, program: Node) -> list[Binding]:
        """Every binding in ``program``'s scopes (see :meth:`scoped`)."""
        return self.scoped(program)[1]

    def interproc(self, program: Node) -> InterprocResult:
        """``program``'s interprocedural summaries: the state's own, which
        the decoder rules computed and cached, or for any other tree those
        of a copy."""
        if self._analysed(program):
            return self.analysis.interproc
        return analyze_program(clone(program))

    def dispatcher_order(self, state_variable: str) -> list[str] | None:
        """Execution-order case labels recovered for a dispatcher, if any."""
        for finding in self.findings:
            evidence = finding.dispatcher
            if (
                evidence is not None
                and evidence.state_variable == state_variable
                and evidence.order_string
            ):
                return evidence.order
        return None

    def string_array_evidence(self) -> list[Any]:
        """Every typed string-array evidence record in the findings."""
        return [
            finding.string_array
            for finding in self.findings
            if finding.string_array is not None
        ]

    def decoder_evidence(self) -> list[Any]:
        """Every typed decoder evidence record (R013/R014) in the findings."""
        return [
            finding.decoder
            for finding in self.findings
            if finding.decoder is not None
        ]


@dataclass
class PassResult:
    """Outcome of one pass application."""

    program: Node  #: input program (unchanged) or a fresh rewritten tree
    rewrites: int = 0  #: number of nodes rewritten/removed/inlined

    @property
    def changed(self) -> bool:
        return self.rewrites > 0


class DeobPass(ABC):
    """One invertible normalization step.

    ``techniques`` names the monitored techniques the pass targets (used
    in reports); ``late`` passes (cosmetic renaming) only run once the
    structural passes have reached fixpoint, so structural evidence is
    consumed before names change.
    """

    name: str = "pass"
    techniques: tuple[str, ...] = ()
    late: bool = False

    @abstractmethod
    def rewrite(self, program: Node, ctx: PassContext) -> PassResult:
        """Return the (possibly) rewritten program; never mutate the input."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeobPass {self.name}>"


_PURE_LITERAL_CALLS = frozenset({"split", "reverse", "join", "concat", "slice"})


def is_pure_expression(node: Node | None) -> bool:
    """Conservatively true when evaluating ``node`` cannot have effects.

    Used by dead-code elimination to decide whether an unused declaration
    can be dropped.  Identifier reads are treated as pure (worst case a
    ReferenceError in code that never ran anyway).
    """
    if node is None:
        return True
    node_type = node.type
    if node_type == "Literal":
        return True
    if node_type == "Identifier":
        return True
    if node_type in ("FunctionExpression", "ArrowFunctionExpression"):
        return True
    if node_type == "UnaryExpression":
        return node.operator != "delete" and is_pure_expression(node.argument)
    if node_type in ("BinaryExpression", "LogicalExpression"):
        return is_pure_expression(node.left) and is_pure_expression(node.right)
    if node_type == "ConditionalExpression":
        return (
            is_pure_expression(node.test)
            and is_pure_expression(node.consequent)
            and is_pure_expression(node.alternate)
        )
    if node_type == "ArrayExpression":
        return all(is_pure_expression(el) for el in node.elements if el is not None)
    if node_type == "MemberExpression":
        return is_pure_expression(node.object) and (
            not node.get("computed") or is_pure_expression(node.property)
        )
    if node_type == "CallExpression":
        # String-method chains on literals ("ab".split("")) are pure.
        callee = node.callee
        if callee.type != "MemberExpression" or prop_name(callee) not in _PURE_LITERAL_CALLS:
            return False
        return is_pure_expression(callee.object) and all(
            is_pure_expression(arg) for arg in node.arguments
        )
    return False


def drop_declarations(
    declarations: list[Node],
    functions: set[str],
    variables: set[str],
    edits: dict[int, Any],
    init: Callable[[Node | None], bool] | None = None,
) -> int:
    """Edit out named declarations; the number of declarations removed.

    ``declarations`` are FunctionDeclaration and VariableDeclaration
    nodes.  A function declaration goes when ``functions`` names it, a
    declarator when ``variables`` names its identifier and ``init`` (if
    given) accepts its initializer, and a declaration goes whole once
    every declarator is gone.
    """
    removed = 0
    for node in declarations:
        if node.type == "FunctionDeclaration":
            identifier = node.get("id")
            if identifier is not None and identifier.name in functions:
                edits[id(node)] = []
                removed += 1
            continue
        dropped = [
            declarator
            for declarator in node.declarations
            if declarator.id.type == "Identifier"
            and declarator.id.name in variables
            and (init is None or init(declarator.get("init")))
        ]
        if not dropped:
            continue
        removed += len(dropped)
        if len(dropped) == len(node.declarations):
            edits[id(node)] = []
        else:
            edits.update((id(declarator), []) for declarator in dropped)
    return removed
