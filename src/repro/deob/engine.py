"""Fixpoint pass scheduler, safety budgets, and the deobfuscation report.

:class:`DeobEngine` drives the pass pipeline to a fixpoint: every pass
gets the current tree plus the rule engine's typed evidence for its
source, the rewritten tree is regenerated, and the loop repeats until
nothing changes, a state repeats, or a budget trips.  Each iteration
starts from the parse of the last generated source, so the emitted
normal form is codegen output, re-parseable by construction.

Each distinct program state is lexed, parsed, indexed and
scope-analysed once per run, by the rule analysis, and the passes run
on that analysed tree through :class:`~repro.deob.base.PassContext`.
Rule findings and node counts are memoised by source text in a dict
local to the run (its keys are also the states seen, which stops A→B→A
cycles): the input's score feeds iteration one, and the final score
reuses the last iteration's analysis.  Codegen runs once per state; the
final normal form is the last generated source.  Every budget counts
work, and the engine reads no clock: callers time a run.

The report measures removal the model-free way: rule-engine confidences
per technique before and after, with *removed* meaning a technique that
was evidenced at or above the triage threshold before normalization and
is not after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.deob.base import Budget, DeobPass, PassContext, PassResult
from repro.deob.constant_fold import ConstantFoldPass
from repro.deob.dead_code import DeadCodePass
from repro.deob.jsfuck import JsfuckDecodePass
from repro.deob.rename import RenamePass
from repro.deob.string_array import StringArrayInlinePass
from repro.deob.traps import TrapRemovalPass
from repro.deob.unflatten import UnflattenPass
from repro.deob.unminify import UnminifyPass
from repro.deob.unpack import EvalUnwrapPass
from repro.js.codegen import generate
from repro.outcome import detection_error
from repro.rules.context import RuleContext
from repro.rules.engine import RuleEngine, default_engine
from repro.rules.findings import max_confidence_by_technique

#: confidence bar a technique must drop below to count as *removed*.
#: Lower than the triage threshold on purpose: every rule fires at ≥ 0.8
#: confidence when its signature is present, so 0.5 cleanly separates
#: "evidenced" from "gone" for all twelve rules.
REMOVAL_THRESHOLD = 0.5


def default_passes() -> list[DeobPass]:
    """The standard pipeline, in schedule order (payload reveals first)."""
    return [
        EvalUnwrapPass(),
        JsfuckDecodePass(),
        StringArrayInlinePass(),
        UnflattenPass(),
        ConstantFoldPass(),
        DeadCodePass(),
        TrapRemovalPass(),
        UnminifyPass(),
        RenamePass(),
    ]


@dataclass
class PassStats:
    """Aggregate activity of one pass across all iterations."""

    name: str
    applications: int = 0  #: iterations in which the pass changed the tree
    rewrites: int = 0  #: total nodes rewritten/removed/inlined

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "applications": self.applications,
            "rewrites": self.rewrites,
        }


@dataclass
class DeobReport:
    """What the engine did and what it removed."""

    iterations: int = 0
    passes: list[PassStats] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0
    eval_unwraps: int = 0
    techniques_before: dict[str, float] = field(default_factory=dict)
    techniques_after: dict[str, float] = field(default_factory=dict)
    techniques_removed: list[str] = field(default_factory=list)
    #: budget that tripped, "recursion", or "internal" (a pass or codegen
    #: raised), if any
    bailed: str | None = None
    error: str | None = None  #: fatal condition (input did not parse, or an internal fault)
    wall_time_ms: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def total_rewrites(self) -> int:
        return sum(stats.rewrites for stats in self.passes)

    @property
    def passes_applied(self) -> list[str]:
        return [stats.name for stats in self.passes if stats.applications]

    def to_json(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "passes": [stats.to_json() for stats in self.passes if stats.applications],
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "eval_unwraps": self.eval_unwraps,
            "total_rewrites": self.total_rewrites,
            "techniques_before": _rounded(self.techniques_before),
            "techniques_after": _rounded(self.techniques_after),
            "techniques_removed": self.techniques_removed,
            "bailed": self.bailed,
            "error": self.error,
            "wall_time_ms": round(self.wall_time_ms, 3),
            "notes": self.notes,
        }


def _rounded(confidences: dict[str, float]) -> dict[str, float]:
    return {technique: round(value, 4) for technique, value in sorted(confidences.items())}


@dataclass
class DeobResult:
    """Normalized source plus the report describing how it got there."""

    source: str
    report: DeobReport
    changed: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "changed": self.changed,
            "report": self.report.to_json(),
        }


class DeobEngine:
    """Schedules deobfuscation passes to fixpoint under safety budgets.

    ``removal_threshold`` is the confidence bar a technique must drop
    below to count as removed (defaults to the rules triage threshold).
    """

    def __init__(
        self,
        passes: list[DeobPass] | None = None,
        budget: Budget | None = None,
        rules: RuleEngine | None = None,
        removal_threshold: float = REMOVAL_THRESHOLD,
    ) -> None:
        self.passes = passes if passes is not None else default_passes()
        self.budget = budget if budget is not None else Budget()
        self.rules = rules if rules is not None else default_engine()
        self.removal_threshold = removal_threshold

    # -- public API --------------------------------------------------------------

    def run(self, source: str) -> DeobResult:
        """Normalize ``source``; never raises.

        A budget trip, or a ``RecursionError`` anywhere in the run (parse,
        rule re-runs, passes, codegen), returns the input unchanged with
        the trip named in ``report.bailed``.  So does any other exception
        a pass or codegen raises: ``bailed`` is then ``"internal"`` and
        ``report.error`` says what failed.  ``report.wall_time_ms`` is
        left to the caller, since the engine reads no clock.
        """
        report = DeobReport(passes=[PassStats(p.name) for p in self.passes])
        try:
            return self._fixpoint(source, report)
        except RecursionError:
            return self._bail(source, report, "recursion")
        except _WorkBudgetExceeded:
            return self._bail(source, report, "work-budget")
        except Exception as exc:  # fail open: one file never aborts a batch
            failed = self._bail(source, report, "internal")
            failed.report.error = detection_error(exc).message
            return failed

    # -- internals ---------------------------------------------------------------

    def _bail(self, source: str, report: DeobReport, reason: str) -> DeobResult:
        """The input unchanged, with the budget that tripped."""
        bailed = DeobReport(
            passes=[PassStats(p.name) for p in self.passes],
            nodes_before=report.nodes_before,
            nodes_after=report.nodes_before,
            techniques_before=report.techniques_before,
            techniques_after=dict(report.techniques_before),
            bailed=reason,
        )
        return DeobResult(source=source, report=bailed, changed=False)

    def _fixpoint(self, source: str, report: DeobReport) -> DeobResult:
        """Run the passes to a fixpoint and generate the normal form.

        The input is parsed once, as the first program state.  ``memo``
        (source text → rule findings and node count) lives for this run
        only, since serve and pool workers share the engine.
        """
        state = RuleContext(source=source, data_flow=False)
        try:
            report.nodes_before = len(state.flat)
        except RecursionError:
            raise
        except Exception as exc:
            report.error = f"input does not parse: {exc}"
            return DeobResult(source=source, report=report, changed=False)
        if report.nodes_before > self.budget.max_nodes:
            return self._bail(source, report, "node-budget")
        memo: dict[str, tuple[list, int]] = {}
        findings, analysis, program = self._analyse(state, memo)
        report.techniques_before = max_confidence_by_technique(findings)
        stats_by_name = {stats.name: stats for stats in report.passes}

        current_source = source
        generated = False
        eval_unwraps = 0
        structural = [p for p in self.passes if not p.late]
        late = [p for p in self.passes if p.late]

        for _ in range(self.budget.max_iterations):
            report.iterations += 1
            ctx = PassContext(
                source=current_source,
                findings=findings,
                budget=self.budget,
                eval_unwraps=eval_unwraps,
                analysis=analysis,
            )
            changed = self._run_passes(structural, program, ctx, stats_by_name)
            if changed is None:
                changed = self._run_passes(late, program, ctx, stats_by_name)
            eval_unwraps = ctx.eval_unwraps
            report.notes.extend(ctx.notes)
            if changed is None:
                break
            current_source = generate(changed)
            generated = True
            if current_source in memo:
                break
            # Only the current state's tree and index stay live; the
            # rewritten tree waits only in case its source does not parse.
            ctx = analysis = program = None
            state = RuleContext(source=current_source, data_flow=False)
            findings, analysis, program = self._analyse(state, memo)
            if program is None:
                program = changed  # the generated source does not re-parse
            changed = None
        else:
            report.bailed = "iteration-budget"

        report.eval_unwraps = eval_unwraps
        # Once the loop generated ``program``, ``current_source`` is its text.
        normalized = current_source if generated else generate(program)
        if normalized not in memo:
            self._analyse(RuleContext(source=normalized, data_flow=False), memo)
        findings, report.nodes_after = memo[normalized]
        report.techniques_after = max_confidence_by_technique(findings)
        report.techniques_removed = sorted(
            technique
            for technique, confidence in report.techniques_before.items()
            if confidence >= self.removal_threshold
            and report.techniques_after.get(technique, 0.0) < self.removal_threshold
        )
        return DeobResult(
            source=normalized, report=report, changed=normalized != source
        )

    def _run_passes(self, passes, program, ctx, stats_by_name):
        """Apply one round of passes; the rewritten program, or ``None``."""
        changed = False
        for deob_pass in passes:
            result: PassResult = deob_pass.rewrite(program, ctx)
            if result.changed:
                stats = stats_by_name[deob_pass.name]
                stats.applications += 1
                stats.rewrites += result.rewrites
                program = result.program
                changed = True
        return program if changed else None

    def _analyse(self, state: RuleContext, memo: dict[str, tuple[list, int]]):
        """Findings, rule context and tree of one program state, once per run.

        The state's parse is charged to the work budget before any scope
        analysis or rule runs.  A source that does not re-parse has no
        findings and no tree; one the rules fail on keeps its tree but no
        analysis.  Running out of stack ends the run.
        """
        try:
            nodes = len(state.flat)
        except RecursionError:
            raise
        except Exception:
            memo[state.source] = ([], 0)
            return [], None, None
        memo[state.source] = ([], nodes)
        if sum(counted for _, counted in memo.values()) > self.budget.max_work:
            raise _WorkBudgetExceeded
        program = state.flat.nodes[0]
        try:
            findings = self.rules.analyze_source(state)
        except RecursionError:
            raise
        except Exception:
            return [], None, program
        memo[state.source] = (findings, nodes)
        return findings, state, program


class _WorkBudgetExceeded(Exception):
    """The run analysed more nodes than ``Budget.max_work`` allows."""


def deobfuscate(
    source: str,
    budget: Budget | None = None,
    passes: list[DeobPass] | None = None,
) -> DeobResult:
    """One-shot convenience wrapper around :class:`DeobEngine`."""
    return DeobEngine(passes=passes, budget=budget).run(source)
