"""Hand-picked syntactic features (§III-B).

Implements the features the paper describes plus the per-technique
indicators its in-depth study of the ten transformation techniques calls
for: generic structure ratios (AST depth/breadth per line, node-type
proportions), minification signals (identifier length, characters per
line, ternary proportion), obfuscation signals (dot-vs-bracket ratio,
array sizes, variables fetched from arrays via data flows, escape density,
built-in usage), and logic-structure signals (switch-in-loop dispatchers,
opaque literal branches, unused bindings).

Every feature is a finite float; the ordered name list is exported so the
vector space has one consistent dimension per feature.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from repro.flows.graph import EnhancedAST
from repro.js.ast_nodes import Node
from repro.js.lexer import summarize_tokens
from repro.js.tokens import TokenType

_HEX_NAME_RE = re.compile(r"^_0x[0-9a-fA-F]+$")

_STRING_OP_NAMES = (
    "split",
    "concat",
    "join",
    "reverse",
    "replace",
    "charAt",
    "charCodeAt",
    "fromCharCode",
    "substr",
    "substring",
    "slice",
    "toString",
)

_SUSPICIOUS_BUILTINS = (
    "eval",
    "unescape",
    "escape",
    "atob",
    "btoa",
    "setInterval",
    "setTimeout",
    "parseInt",
    "Function",
)

_COUNTED_NODE_TYPES = (
    "Literal",
    "Identifier",
    "CallExpression",
    "MemberExpression",
    "BinaryExpression",
    "LogicalExpression",
    "ConditionalExpression",
    "UnaryExpression",
    "UpdateExpression",
    "AssignmentExpression",
    "SequenceExpression",
    "VariableDeclaration",
    "VariableDeclarator",
    "FunctionDeclaration",
    "FunctionExpression",
    "ArrowFunctionExpression",
    "IfStatement",
    "ForStatement",
    "WhileStatement",
    "DoWhileStatement",
    "SwitchStatement",
    "SwitchCase",
    "TryStatement",
    "CatchClause",
    "ArrayExpression",
    "ObjectExpression",
    "Property",
    "NewExpression",
    "ReturnStatement",
    "BlockStatement",
    "ExpressionStatement",
    "ThrowStatement",
    "DebuggerStatement",
    "TemplateLiteral",
    "SpreadElement",
    "ClassDeclaration",
)


def _entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute_static_features(enhanced: EnhancedAST) -> dict[str, float]:
    """All hand-picked features for one enhanced AST, keyed by name."""
    source = enhanced.source
    features: dict[str, float] = {}

    # ---- source text ------------------------------------------------------
    # str.count / map(str.isalnum) keep the per-character scans in C; the
    # integer counts equal per-character loops, so the ratios are exact.
    n_chars = len(source)
    lines = source.split("\n")
    n_lines = len(lines)
    features["src_chars"] = float(n_chars)
    features["src_lines"] = float(n_lines)
    features["src_avg_line_length"] = _safe_div(n_chars, n_lines)
    features["src_max_line_length"] = float(max(map(len, lines), default=0))
    whitespace = sum(map(source.count, " \t\n\r"))
    features["src_whitespace_ratio"] = _safe_div(whitespace, n_chars)
    alnum = sum(map(str.isalnum, source))
    features["src_non_alnum_ratio"] = 1.0 - _safe_div(alnum, n_chars)
    jsfuck_chars = sum(map(source.count, "[]()!+"))
    features["src_jsfuck_char_ratio"] = _safe_div(jsfuck_chars, n_chars)
    summary = summarize_tokens(enhanced.tokens, enhanced.comments)
    features["src_comment_ratio"] = _safe_div(summary.comment_chars, n_chars)
    features["src_comments_per_line"] = _safe_div(summary.n_comments, n_lines)

    # ---- tokens -----------------------------------------------------------
    n_tokens = summary.n_tokens
    by_type = summary.type_counts
    features["tok_per_char"] = _safe_div(n_tokens, n_chars)
    for token_type, key in (
        (TokenType.IDENTIFIER, "tok_identifier_ratio"),
        (TokenType.PUNCTUATOR, "tok_punctuator_ratio"),
        (TokenType.STRING, "tok_string_ratio"),
        (TokenType.NUMERIC, "tok_numeric_ratio"),
        (TokenType.KEYWORD, "tok_keyword_ratio"),
        (TokenType.REGULAR_EXPRESSION, "tok_regex_ratio"),
    ):
        features[key] = _safe_div(by_type.get(token_type, 0), n_tokens)

    features["str_chars_ratio"] = _safe_div(summary.string_chars, n_chars)
    features["str_escape_density"] = _safe_div(
        summary.escape_chars, summary.string_chars
    )
    features["str_avg_length"] = _safe_div(summary.string_chars, summary.n_strings)
    features["str_max_length"] = float(summary.max_string_len)

    # ---- AST shape ---------------------------------------------------------
    identifier_nodes: list[Node] = []
    string_literals: list[Node] = []
    arrays: list[Node] = []
    objects: list[Node] = []
    sequences: list[Node] = []
    members: list[Node] = []
    calls: list[Node] = []
    loops: list[Node] = []
    ifs: list[Node] = []
    declarators: list[Node] = []
    bang_number = 0
    # Counts, depth, and breadth reduce to C-speed Counter/max scans over
    # the flat index's pre-order arrays; one zip loop collects the
    # per-type work lists.
    flat = enhanced.flat
    type_names = flat.type_names
    depths = flat.depths
    n_nodes = len(type_names)
    node_counts = Counter(type_names)
    level_width = Counter(depths)
    max_depth = max(depths) if n_nodes else 0
    buckets = {
        "Identifier": identifier_nodes.append,
        "ArrayExpression": arrays.append,
        "ObjectExpression": objects.append,
        "SequenceExpression": sequences.append,
        "MemberExpression": members.append,
        "CallExpression": calls.append,
        "NewExpression": calls.append,
        "WhileStatement": loops.append,
        "DoWhileStatement": loops.append,
        "ForStatement": loops.append,
        "IfStatement": ifs.append,
        "VariableDeclarator": declarators.append,
    }
    buckets_get = buckets.get
    for node, kind in zip(flat.nodes, type_names):
        append = buckets_get(kind)
        if append is not None:
            append(node)
        elif kind == "Literal":
            if isinstance(node.value, str):
                string_literals.append(node)
        elif (
            kind == "UnaryExpression"
            and node.operator == "!"
            and node.argument.type == "Literal"
            and isinstance(node.argument.value, (int, float))
        ):
            bang_number += 1
    # Identifiers and string literals feed order-sensitive float sums (the
    # entropy features).  The features were defined over a stack walk that
    # visits children right-to-left, so leaves arrived in reverse document
    # order; reversing the pre-order collections keeps those sums
    # bit-identical to that definition (and to tests/reference_parser.py).
    identifier_nodes.reverse()
    string_literals.reverse()
    max_breadth = max(level_width.values()) if level_width else 0

    features["ast_nodes"] = float(n_nodes)
    features["ast_depth"] = float(max_depth)
    features["ast_breadth"] = float(max_breadth)
    features["ast_depth_per_line"] = _safe_div(max_depth, n_lines)
    features["ast_breadth_per_line"] = _safe_div(max_breadth, n_lines)
    features["ast_nodes_per_line"] = _safe_div(n_nodes, n_lines)
    features["ast_nodes_per_char"] = _safe_div(n_nodes, n_chars)

    for node_type in _COUNTED_NODE_TYPES:
        features[f"ast_prop_{node_type}"] = _safe_div(node_counts[node_type], n_nodes)

    # ---- identifiers ------------------------------------------------------
    names = [n.name for n in identifier_nodes]
    unique_names = set(names)
    features["id_unique_ratio"] = _safe_div(len(unique_names), len(names))
    features["id_avg_length"] = _safe_div(sum(len(n) for n in names), len(names))
    features["id_single_char_ratio"] = _safe_div(
        sum(1 for n in unique_names if len(n) == 1), len(unique_names)
    )
    features["id_hex_ratio"] = _safe_div(
        sum(1 for n in unique_names if _HEX_NAME_RE.match(n)), len(unique_names)
    )
    features["id_digit_ratio"] = _safe_div(
        sum(1 for n in unique_names if any(c.isdigit() for c in n)), len(unique_names)
    )
    features["id_entropy"] = _entropy("".join(unique_names))
    features["member_per_unique_id"] = _safe_div(
        node_counts["MemberExpression"], len(unique_names)
    )

    # ---- literals ---------------------------------------------------------
    features["lit_string_entropy"] = (
        sum(_entropy(n.value) for n in string_literals) / len(string_literals)
        if string_literals
        else 0.0
    )
    hexish = sum(
        1
        for n in string_literals
        if n.value and all(c in "0123456789abcdefABCDEF" for c in n.value)
    )
    features["lit_hexish_string_ratio"] = _safe_div(hexish, len(string_literals))

    # ---- structures (arrays / objects / ternaries / sequences) ------------
    array_sizes = [len(a.elements) for a in arrays]
    features["arr_count_per_node"] = _safe_div(len(arrays), n_nodes)
    features["arr_avg_size"] = _safe_div(sum(array_sizes), len(array_sizes))
    features["arr_max_size"] = float(max(array_sizes, default=0))
    features["arr_empty_ratio"] = _safe_div(
        sum(1 for s in array_sizes if s == 0), len(array_sizes)
    )
    features["obj_avg_size"] = _safe_div(
        sum(len(o.properties) for o in objects), len(objects)
    )
    statements = sum(
        node_counts[t]
        for t in (
            "ExpressionStatement",
            "VariableDeclaration",
            "ReturnStatement",
            "IfStatement",
            "ForStatement",
            "WhileStatement",
            "BlockStatement",
        )
    )
    features["ternary_per_statement"] = _safe_div(
        node_counts["ConditionalExpression"], statements
    )
    features["seq_avg_length"] = _safe_div(
        sum(len(s.expressions) for s in sequences), len(sequences)
    )
    features["bang_number_ratio"] = _safe_div(bang_number, n_nodes)

    # ---- member access style ---------------------------------------------
    computed = sum(1 for m in members if m.get("computed"))
    features["member_bracket_ratio"] = _safe_div(computed, len(members))
    features["member_per_node"] = _safe_div(len(members), n_nodes)

    # ---- calls and built-ins ----------------------------------------------
    string_op_counts = Counter()
    builtin_counts = Counter()
    constructor_access = 0
    for call_node in calls:
        callee = call_node.callee
        if callee.type == "Identifier":
            if callee.name in _SUSPICIOUS_BUILTINS:
                builtin_counts[callee.name] += 1
        elif callee.type == "MemberExpression":
            prop = callee.property
            prop_name = None
            if not callee.get("computed") and prop.type == "Identifier":
                prop_name = prop.name
            elif callee.get("computed") and prop.type == "Literal" and isinstance(prop.value, str):
                prop_name = prop.value
            if prop_name in _STRING_OP_NAMES:
                string_op_counts[prop_name] += 1
    for member_node in members:
        prop = member_node.property
        if (
            not member_node.get("computed")
            and prop.type == "Identifier"
            and prop.name == "constructor"
        ) or (
            member_node.get("computed")
            and prop.type == "Literal"
            and prop.value == "constructor"
        ):
            constructor_access += 1
    features["calls_per_node"] = _safe_div(len(calls), n_nodes)
    features["string_ops_per_call"] = _safe_div(
        sum(string_op_counts.values()), len(calls)
    )
    for op in ("split", "fromCharCode", "reverse", "join", "charCodeAt", "replace"):
        features[f"op_{op}_per_node"] = _safe_div(string_op_counts[op], n_nodes)
    for builtin in _SUSPICIOUS_BUILTINS:
        features[f"builtin_{builtin}"] = float(builtin_counts[builtin] > 0)
    features["builtin_eval_per_node"] = _safe_div(builtin_counts["eval"], n_nodes)
    features["constructor_access_per_node"] = _safe_div(constructor_access, n_nodes)
    features["debugger_per_node"] = _safe_div(node_counts["DebuggerStatement"], n_nodes)

    # ---- logic-structure signals ------------------------------------------
    while_true = 0
    switch_in_loop = 0
    literal_test_ifs = 0
    for node in loops:
        test = node.get("test")
        if test is not None and (
            (test.type == "Literal" and test.value is True)
            or (
                test.type == "UnaryExpression"
                and test.operator == "!"
                and test.argument.type == "Literal"
            )
        ):
            while_true += 1
        body = node.get("body")
        if body is not None:
            direct = body.body if body.type == "BlockStatement" else [body]
            if any(s.type == "SwitchStatement" for s in direct):
                switch_in_loop += 1
    for node in ifs:
        test = node.test
        if test.type == "Literal" or (
            test.type == "BinaryExpression"
            and test.left.type == "Literal"
            and test.right.type == "Literal"
        ):
            literal_test_ifs += 1
    features["while_true_per_node"] = _safe_div(while_true, n_nodes)
    features["switch_dispatch_per_node"] = _safe_div(switch_in_loop, n_nodes)
    features["cff_dispatch_present"] = float(switch_in_loop > 0)
    features["opaque_if_per_node"] = _safe_div(literal_test_ifs, n_nodes)
    switch_count = node_counts["SwitchStatement"]
    features["cases_per_switch"] = _safe_div(node_counts["SwitchCase"], switch_count)

    # ---- scope / flow features ---------------------------------------------
    bindings = list(enhanced.scope.iter_all_bindings())
    local_bindings = [b for b in bindings if b.kind != "global"]
    unused = sum(1 for b in local_bindings if not b.references)
    features["bind_local_count"] = float(len(local_bindings))
    features["bind_unused_ratio"] = _safe_div(unused, len(local_bindings))
    features["cf_edges_per_node"] = _safe_div(len(enhanced.control_flow), n_nodes)
    if enhanced.data_flow is not None:
        features["df_edges_per_node"] = _safe_div(len(enhanced.data_flow), n_nodes)
        features["df_available"] = 1.0
    else:
        features["df_edges_per_node"] = 0.0
        features["df_available"] = 0.0

    # Variables fetched from arrays/global dictionaries (data-flow based,
    # per the paper): bindings whose definition reads an indexed structure,
    # weighted by how often their value then flows to a use site.
    _attach_declarator_info(declarators)
    fetched_uses = 0
    total_uses = 0
    array_binding_count = 0
    for binding in local_bindings:
        uses = len(binding.references)
        total_uses += uses
        kinds = {decl.get("decl_init_kind") for decl in binding.declarations}
        if "indexed" in kinds:
            fetched_uses += uses
        if "array" in kinds:
            array_binding_count += 1
    features["df_fetched_from_array_ratio"] = _safe_div(fetched_uses, total_uses)
    features["bind_array_ratio"] = _safe_div(array_binding_count, len(local_bindings))

    return features


def _attach_declarator_info(declarators: list[Node]) -> None:
    """Annotate declaration identifiers with their initialiser kind.

    Sets ``decl_init_kind`` on the pattern identifier:
    ``"array"`` for array-literal inits, ``"indexed"`` for computed member
    reads or single-argument calls (the global-array accessor shape).
    """
    for node in declarators:
        if node.get("init") is None:
            continue
        target = node.id
        if target.type != "Identifier":
            continue
        init = node.init
        if init.type == "ArrayExpression":
            target.decl_init_kind = "array"
        elif init.type == "MemberExpression" and init.get("computed"):
            target.decl_init_kind = "indexed"
        elif init.type == "CallExpression" and len(init.arguments) == 1 and init.arguments[0].type == "Literal":
            target.decl_init_kind = "indexed"

