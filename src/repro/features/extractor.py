"""The vector spaces for the level-1 and level-2 detectors (§III-B).

Each level gets one vector space with consistent dimensions: the hashed
AST 4-gram block followed by the hand-picked feature block.  Level 1 keeps
the generic regular-vs-transformed features; level 2 adds the
per-technique indicators.
"""

from __future__ import annotations

import numpy as np

from repro.features.flow_features import FLOW_FEATURES, compute_flow_features
from repro.features.ngrams import hashed_ngram_vector
from repro.features.rule_features import RULE_FEATURES, compute_rule_features
from repro.features.static_features import compute_static_features
from repro.flows.graph import EnhancedAST, enhance
from repro.outcome import FileOutcome
from repro.rules.findings import Finding

# Hand-picked features for distinguishing regular from transformed code.
GENERIC_FEATURES = [
    "src_avg_line_length",
    "src_max_line_length",
    "src_whitespace_ratio",
    "src_non_alnum_ratio",
    "src_jsfuck_char_ratio",
    "src_comment_ratio",
    "src_comments_per_line",
    "tok_per_char",
    "tok_identifier_ratio",
    "tok_punctuator_ratio",
    "tok_string_ratio",
    "tok_numeric_ratio",
    "tok_keyword_ratio",
    "str_chars_ratio",
    "str_escape_density",
    "str_avg_length",
    "ast_depth_per_line",
    "ast_breadth_per_line",
    "ast_nodes_per_line",
    "ast_nodes_per_char",
    "ast_prop_Literal",
    "ast_prop_Identifier",
    "ast_prop_CallExpression",
    "ast_prop_MemberExpression",
    "ast_prop_BinaryExpression",
    "ast_prop_ConditionalExpression",
    "ast_prop_UnaryExpression",
    "ast_prop_SequenceExpression",
    "ast_prop_VariableDeclaration",
    "ast_prop_FunctionExpression",
    "member_per_unique_id",
    "id_unique_ratio",
    "id_avg_length",
    "id_single_char_ratio",
    "id_hex_ratio",
    "id_entropy",
    "string_ops_per_call",
    "calls_per_node",
    "builtin_eval",
    "builtin_unescape",
    "builtin_Function",
    "cf_edges_per_node",
    "df_edges_per_node",
    # Signature-engine block (repro.rules): both levels see the rule
    # evidence, so it lives in the generic list.
    *RULE_FEATURES,
    # Interprocedural block (repro.flows.interproc): call-graph shape and
    # decoder counts — zeros when the analysis degrades under budget.
    *FLOW_FEATURES,
]

# Additional per-technique indicators for the level-2 detector.
TECHNIQUE_FEATURES = GENERIC_FEATURES + [
    "id_digit_ratio",
    "lit_string_entropy",
    "lit_hexish_string_ratio",
    "arr_count_per_node",
    "arr_avg_size",
    "arr_max_size",
    "arr_empty_ratio",
    "obj_avg_size",
    "ternary_per_statement",
    "seq_avg_length",
    "bang_number_ratio",
    "member_bracket_ratio",
    "member_per_node",
    "op_split_per_node",
    "op_fromCharCode_per_node",
    "op_reverse_per_node",
    "op_join_per_node",
    "op_charCodeAt_per_node",
    "op_replace_per_node",
    "builtin_escape",
    "builtin_atob",
    "builtin_setInterval",
    "builtin_setTimeout",
    "builtin_parseInt",
    "builtin_eval_per_node",
    "constructor_access_per_node",
    "debugger_per_node",
    "while_true_per_node",
    "switch_dispatch_per_node",
    "cff_dispatch_present",
    "opaque_if_per_node",
    "cases_per_switch",
    "bind_unused_ratio",
    "bind_array_ratio",
    "df_fetched_from_array_ratio",
    "df_available",
]


class FeatureExtractor:
    """Turn JavaScript source (or an :class:`EnhancedAST`) into a vector."""

    def __init__(
        self,
        level: int = 1,
        ngram_dims: int = 256,
    ) -> None:
        if level not in (1, 2):
            raise ValueError("level must be 1 or 2")
        self.level = level
        self.ngram_dims = ngram_dims
        self.static_names = (
            list(GENERIC_FEATURES) if level == 1 else list(TECHNIQUE_FEATURES)
        )

    @property
    def n_features(self) -> int:
        return self.ngram_dims + len(self.static_names)

    @property
    def feature_names(self) -> list[str]:
        """Dimension names: ngram buckets then static features."""
        return [f"ngram_{i}" for i in range(self.ngram_dims)] + self.static_names

    def ngram_block(self, enhanced: EnhancedAST) -> np.ndarray:
        """The hashed n-gram block of the vector (first ``ngram_dims`` dims).

        The flat index's pre-order type-name array *is* the unit sequence,
        so no second tree walk is needed.
        """
        return hashed_ngram_vector(enhanced.flat.type_names, n_dims=self.ngram_dims)

    def project(
        self,
        enhanced: EnhancedAST,
        static: dict[str, float],
        ngrams: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assemble the vector from precomputed blocks (one-pass batch path)."""
        if ngrams is None:
            ngrams = self.ngram_block(enhanced)
        tail = np.array(
            [static.get(name, 0.0) for name in self.static_names], dtype=np.float64
        )
        vector = np.concatenate([ngrams, tail])
        return np.nan_to_num(vector, nan=0.0, posinf=1e12, neginf=-1e12)

    def extract_from_enhanced(self, enhanced: EnhancedAST) -> np.ndarray:
        """Feature vector from an already-enhanced AST."""
        from repro.rules.engine import default_engine

        static = compute_static_features(enhanced)
        static.update(compute_rule_features(default_engine().analyze(enhanced)))
        static.update(compute_flow_features(enhanced.interproc()))
        return self.project(enhanced, static)

    def extract(self, source: str) -> np.ndarray:
        """Feature vector for one script (parses + enhances internally)."""
        enhanced = enhance(source)
        return self.extract_from_enhanced(enhanced)

    def extract_matrix(self, sources: list[str]) -> np.ndarray:
        """(n, n_features) matrix for a list of scripts."""
        if not sources:
            return np.zeros((0, self.n_features), dtype=np.float64)
        return np.vstack([self.extract(source) for source in sources])


class PairedFeatureExtractor:
    """Project one parsed script into *both* detector vector spaces.

    The naive pipeline parses and flow-enhances every transformed script
    twice — once per level.  This extractor parses/enhances exactly once,
    computes the static-feature dictionary once, shares the n-gram block
    when both levels use the same n-gram configuration, and projects the
    single :class:`EnhancedAST` into the level-1 and level-2 spaces.
    """

    def __init__(self, level1: FeatureExtractor, level2: FeatureExtractor) -> None:
        self.level1 = level1
        self.level2 = level2

    def extract_pair_from_enhanced(
        self, enhanced: EnhancedAST
    ) -> tuple[np.ndarray, np.ndarray, list[Finding]]:
        """(level-1 vector, level-2 vector, findings) from one enhanced AST.

        Findings are computed once — they feed the ``RuleFeatures`` block
        of both vectors *and* ride back to the caller so the batch engine
        can attach them to :class:`DetectionResult` without re-analysis.
        """
        from repro.rules.engine import default_engine

        findings = default_engine().analyze(enhanced)
        static = compute_static_features(enhanced)
        static.update(compute_rule_features(findings))
        # The decoder rules may already have paid for the summaries; the
        # per-AST cache makes this second read free in that case.
        static.update(compute_flow_features(enhanced.interproc()))
        ngrams1 = self.level1.ngram_block(enhanced)
        ngrams2 = (
            ngrams1
            if self.level1.ngram_dims == self.level2.ngram_dims
            else self.level2.ngram_block(enhanced)
        )
        return (
            self.level1.project(enhanced, static, ngrams1),
            self.level2.project(enhanced, static, ngrams2),
            findings,
        )

    def extract_pair(self, source: str) -> FileOutcome:
        """One-pass extraction of both vectors (raises on invalid JS)."""
        enhanced = enhance(source)
        vector1, vector2, findings = self.extract_pair_from_enhanced(enhanced)
        return FileOutcome(
            vector1=vector1,
            vector2=vector2,
            df_available=enhanced.data_flow_available,
            flow_timeout=enhanced.flow_timeout,
            findings=findings,
        )
