"""Human-readable per-file analysis reports.

Combines everything the pipeline knows about one script — admission
filters, structural statistics, detector verdicts with confidences, and
notable syntactic markers — into a :class:`FileReport` that renders as
text.  This is the "analyst view" a downstream user of the paper's system
would want for triage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.filters import passes_content_filter, passes_size_filter
from repro.detector.pipeline import TransformationDetector
from repro.features.static_features import compute_static_features
from repro.flows import enhance

#: feature -> (threshold, marker text); fired markers appear in the report.
_MARKERS: list[tuple[str, float, str]] = [
    ("id_hex_ratio", 0.2, "obfuscator-style _0x… identifiers"),
    ("src_jsfuck_char_ratio", 0.9, "JSFuck-style six-character alphabet"),
    ("cff_dispatch_present", 0.5, "switch-dispatcher inside a loop (control-flow flattening)"),
    ("debugger_per_node", 1e-9, "debugger statements (debug protection)"),
    ("builtin_eval", 0.5, "eval() usage (dynamic code generation)"),
    ("builtin_unescape", 0.5, "unescape() usage (encoded payload)"),
    ("constructor_access_per_node", 1e-9, "Function-constructor access"),
    ("str_escape_density", 0.3, "heavily escaped string literals"),
    ("opaque_if_per_node", 1e-9, "constant-test branches (dead code)"),
    ("bind_unused_ratio", 0.4, "many unused bindings (dead code)"),
    ("arr_max_size", 19.5, "large literal array (global string array)"),
]


@dataclass
class FileReport:
    """Everything the pipeline reports about one script."""

    admissible: bool
    rejection_reason: str | None = None
    level1: set[str] = field(default_factory=set)
    transformed: bool = False
    techniques: list[tuple[str, float]] = field(default_factory=list)
    markers: list[str] = field(default_factory=list)
    statistics: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """Multi-line text form of the report."""
        if not self.admissible:
            return f"rejected: {self.rejection_reason}"
        lines = [
            f"level 1:     {'/'.join(sorted(self.level1))}"
            f" ({'transformed' if self.transformed else 'regular'})",
        ]
        if self.techniques:
            lines.append("techniques:")
            for name, probability in self.techniques:
                lines.append(f"  - {name} ({probability:.0%})")
        if self.markers:
            lines.append("markers:")
            for marker in self.markers:
                lines.append(f"  - {marker}")
        stats = self.statistics
        lines.append(
            "stats:       "
            f"{stats.get('src_chars', 0):.0f} B, "
            f"{stats.get('src_lines', 0):.0f} lines, "
            f"{stats.get('ast_nodes', 0):.0f} AST nodes, "
            f"avg line {stats.get('src_avg_line_length', 0):.0f} chars, "
            f"avg identifier {stats.get('id_avg_length', 0):.1f} chars"
        )
        return "\n".join(lines)


def analyze_file(
    source: str,
    detector: TransformationDetector,
    k: int = 4,
    threshold: float = 0.10,
) -> FileReport:
    """Produce a full :class:`FileReport` for one script."""
    if not passes_size_filter(source):
        return FileReport(
            admissible=False,
            rejection_reason="size outside the 512 B – 2 MB window",
        )
    try:
        enhanced = enhance(source)
    except (SyntaxError, ValueError, RecursionError) as error:
        return FileReport(admissible=False, rejection_reason=f"unparseable: {error}")
    if not passes_content_filter(enhanced.program):
        return FileReport(
            admissible=False,
            rejection_reason="no conditional/function/call node (JSON-like)",
        )

    statistics = compute_static_features(enhanced)
    markers = [
        text for name, cutoff, text in _MARKERS if statistics.get(name, 0.0) > cutoff
    ]
    result = detector.classify(source, k=k, threshold=threshold)
    return FileReport(
        admissible=True,
        level1=result.level1,
        transformed=result.transformed,
        techniques=result.techniques,
        markers=markers,
        statistics=statistics,
    )
