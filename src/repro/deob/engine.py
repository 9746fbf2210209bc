"""Fixpoint pass scheduler, safety budgets, and the deobfuscation report.

:class:`DeobEngine` drives the pass pipeline to a fixpoint: every pass
gets the current tree plus the rule engine's typed evidence for its
source, the rewritten tree is regenerated, and the loop repeats until
nothing changes, a state repeats, or a budget trips.  Passes return
fresh trees, so each iteration starts from a clean, annotation-free AST,
and the emitted normal form is codegen output, re-parseable by
construction.

Each distinct program state is paid for once per run.  Rule findings
are memoised by source text in a dict local to the run (its keys are
also the states seen, which stops A→B→A cycles): the input's score
feeds iteration one, and the final score reuses the last iteration's
analysis.  Codegen runs once per state; the final normal form is the
last generated source.

The report measures removal the model-free way: rule-engine confidences
per technique before and after, with *removed* meaning a technique that
was evidenced at or above the triage threshold before normalization and
is not after.
"""

from __future__ import annotations

import time
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
from repro.js.parser import parse
from repro.js.visitor import count_nodes
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
    bailed: str | None = None  #: budget that tripped, if any
    error: str | None = None  #: fatal condition (input did not parse)
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
            "techniques_before": {
                technique: round(confidence, 4)
                for technique, confidence in sorted(self.techniques_before.items())
            },
            "techniques_after": {
                technique: round(confidence, 4)
                for technique, confidence in sorted(self.techniques_after.items())
            },
            "techniques_removed": self.techniques_removed,
            "bailed": self.bailed,
            "error": self.error,
            "wall_time_ms": round(self.wall_time_ms, 3),
            "notes": self.notes,
        }


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
        """Normalize ``source``; never raises on malformed input.

        A budget trip, or a ``RecursionError`` anywhere in the run (parse,
        rule re-runs, passes, codegen), returns the input unchanged with
        the trip named in ``report.bailed``.
        """
        started = time.perf_counter()
        report = DeobReport(passes=[PassStats(p.name) for p in self.passes])
        try:
            program = parse(source)
        except RecursionError:
            return self._bail(source, report, started, "recursion")
        except Exception as exc:
            report.error = f"input does not parse: {exc}"
            report.wall_time_ms = (time.perf_counter() - started) * 1000
            return DeobResult(source=source, report=report, changed=False)
        try:
            report.nodes_before = count_nodes(program)
            if report.nodes_before > self.budget.max_nodes:
                return self._bail(source, report, started, "node-budget")
            return self._fixpoint(source, program, report, started)
        except RecursionError:
            return self._bail(source, report, started, "recursion")

    # -- internals ---------------------------------------------------------------

    def _bail(
        self, source: str, report: DeobReport, started: float, reason: str
    ) -> DeobResult:
        """The input unchanged, with the budget that tripped."""
        bailed = DeobReport(
            passes=[PassStats(p.name) for p in self.passes],
            nodes_before=report.nodes_before,
            nodes_after=report.nodes_before,
            techniques_before=report.techniques_before,
            techniques_after=dict(report.techniques_before),
            bailed=reason,
            wall_time_ms=(time.perf_counter() - started) * 1000,
        )
        return DeobResult(source=source, report=bailed, changed=False)

    def _fixpoint(self, source, program, report, started) -> DeobResult:
        """Run the passes to a fixpoint and generate the normal form.

        ``analyses`` (source text → rule findings) lives for this run
        only, since serve and pool workers share the engine.

        The whole-run ``max_seconds`` watchdog is read once per iteration;
        when it trips, the run keeps its input rather than emit a
        half-normalized source that depends on host speed.
        """
        analyses: dict[str, list] = {}
        report.techniques_before = self._confidences(source, analyses)
        stats_by_name = {stats.name: stats for stats in report.passes}

        current_source = source
        generated = False
        eval_unwraps = 0
        structural = [p for p in self.passes if not p.late]
        late = [p for p in self.passes if p.late]

        for _ in range(self.budget.max_iterations):
            if time.perf_counter() - started > self.budget.max_seconds:
                return self._bail(source, report, started, "time-budget")
            report.iterations += 1
            ctx = PassContext(
                source=current_source,
                findings=self._findings(current_source, analyses),
                budget=self.budget,
                eval_unwraps=eval_unwraps,
            )
            changed = self._run_passes(structural, program, ctx, stats_by_name)
            if changed is None:
                changed = self._run_passes(late, program, ctx, stats_by_name)
            eval_unwraps = ctx.eval_unwraps
            report.notes.extend(ctx.notes)
            if changed is None:
                break
            program = changed
            current_source = generate(program)
            generated = True
            if current_source in analyses:
                break
        else:
            report.bailed = "iteration-budget"

        report.eval_unwraps = eval_unwraps
        # Once the loop generated ``program``, ``current_source`` is its text.
        normalized = current_source if generated else generate(program)
        report.nodes_after = count_nodes(program)
        report.techniques_after = self._confidences(normalized, analyses)
        report.techniques_removed = sorted(
            technique
            for technique, confidence in report.techniques_before.items()
            if confidence >= self.removal_threshold
            and report.techniques_after.get(technique, 0.0) < self.removal_threshold
        )
        report.wall_time_ms = (time.perf_counter() - started) * 1000
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

    def _findings(self, source: str, analyses: dict[str, list]):
        """Rule findings for one program state, analysed once per run; a
        source that does not re-parse has none, but running out of stack
        ends the run (and is never recorded)."""
        findings = analyses.get(source)
        if findings is None:
            try:
                findings = self.rules.analyze_source(source, data_flow=False)
            except RecursionError:
                raise
            except Exception:
                findings = []
            analyses[source] = findings
        return findings

    def _confidences(self, source: str, analyses: dict[str, list]) -> dict[str, float]:
        return max_confidence_by_technique(self._findings(source, analyses))


def deobfuscate(
    source: str,
    budget: Budget | None = None,
    passes: list[DeobPass] | None = None,
) -> DeobResult:
    """One-shot convenience wrapper around :class:`DeobEngine`."""
    return DeobEngine(passes=passes, budget=budget).run(source)
