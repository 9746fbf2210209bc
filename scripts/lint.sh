#!/usr/bin/env bash
# Lint gate: ruff over src/, tests/, benchmarks/, examples/, scripts/.
#
# Configuration lives in pyproject.toml ([tool.ruff]).  The gate degrades
# gracefully: containers without ruff (it is not a runtime dependency and
# must not be auto-installed) get a loud skip and exit 0, so the test
# pipeline never hard-fails on a missing dev tool.
#
# Usage:
#   scripts/lint.sh             # lint everything
#   scripts/lint.sh --fix       # apply safe autofixes first
set -euo pipefail
cd "$(dirname "$0")/.."

TARGETS=(src tests benchmarks examples)

run_ruff() {
  "$@" check "${FIX_ARGS[@]}" "${TARGETS[@]}"
}

FIX_ARGS=()
if [[ "${1:-}" == "--fix" ]]; then
  FIX_ARGS=(--fix)
  shift
fi

# Placeholder gate: stray TODO/FIXME/XXX markers must not ship in src/
# (they once leaked into generated-corpus comment text, silently biasing
# the comment features).  This check needs no dev tools, so it always runs.
if grep -rnwE "TODO|FIXME|XXX" src --include='*.py'; then
  echo "[lint] placeholder markers found in src/ (see matches above)" >&2
  exit 1
fi

# Flat-AST gate: the parse layer must build nodes through the generated
# slotted classes (or their positional factories), never through the
# string-dispatched dict-bag form ``Node("Type", ...)`` — those nodes land
# in __dict__, dodge the per-type field tables, and silently fall off the
# flat-index fast paths.  ast_nodes.py itself hosts the dispatcher (and
# its doctest), so it is exempt.
if grep -rnE 'Node\("' src/repro/js --include='*.py' \
    | grep -v 'src/repro/js/ast_nodes.py'; then
  echo "[lint] dict-bag Node(\"Type\", ...) construction in src/repro/js/" >&2
  echo "[lint] use the generated slotted class or a fast_constructor factory" >&2
  exit 1
fi

# Scan/serve isolation gate: the crawl-scale scan workers must stay
# importable (and shippable to worker hosts) without dragging in the
# serving layer.  Scan and serve share the metrics registry through the
# leaf module repro/obs.py, never through each other.
if grep -rnE '^[[:space:]]*(from|import)[[:space:]]+repro\.serve' src/repro/scan \
    --include='*.py'; then
  echo "[lint] repro.scan must never import the serve layer (see matches above)" >&2
  exit 1
fi

# Leaf-module gate: repro/obs.py is imported by both scan and serve, so it
# must import no other repro module (or it would pull one into the other).
if grep -nE '^[[:space:]]*(from|import)[[:space:]]+repro([.[:space:]]|$)' src/repro/obs.py; then
  echo "[lint] src/repro/obs.py must not import other repro modules" >&2
  exit 1
fi

# Flow-layer layering gate: repro.flows is analysis substrate consumed by
# the rules, detector and deob layers — it must never import back up into
# its consumers, or the interprocedural analysis becomes unusable from a
# worker that ships without them (and the import graph grows a cycle).
if grep -rnE '^[[:space:]]*(from|import)[[:space:]]+repro\.(rules|detector|deob)' \
    src/repro/flows --include='*.py'; then
  echo "[lint] repro.flows must never import repro.rules/repro.detector/repro.deob" >&2
  exit 1
fi

# Clock-free analysis gate: a verdict must depend on the source alone, so
# the lexer/parser, flow, rule, feature and deob layers bound their work
# by counted caps, never by reading the clock.  Callers time a deob run.
if grep -rnE '^[[:space:]]*(import[[:space:]]+([[:alnum:]_.]+,[[:space:]]*)*time([[:space:],]|$)|from[[:space:]]+time[[:space:]]+import)' \
    src/repro/js src/repro/flows src/repro/rules src/repro/features src/repro/deob --include='*.py'; then
  echo "[lint] the js/flows/rules/features/deob layers must not import time (see matches above)" >&2
  exit 1
fi

# One-value-semantics gate: JavaScript's value rules (ToNumber, ToString,
# the folded operators, fromCharCode, unescape, atob) live in
# src/repro/js/semantics.py alone.  A private copy in a folder drifts from
# ECMA-262 on its own (Python's % and repr are not JavaScript's), so the
# transform, deob and flows layers may neither redefine them nor decode
# base64 themselves (flows/values.py builds its UTF-8 replay on atob).
if grep -rnE '^[[:space:]]*def[[:space:]]+(_literal_value|_to_js_string|_both_numbers|_is_number|_to_number|_to_base|js_unescape)[[:space:]]*\(' \
    src/repro/transform src/repro/deob src/repro/flows --include='*.py'; then
  echo "[lint] JavaScript value rules copied outside src/repro/js/semantics.py (see matches above)" >&2
  exit 1
fi
if grep -rnE 'b64decode[[:space:]]*\(' src/repro/transform src/repro/deob src/repro/flows --include='*.py'; then
  echo "[lint] base64 decoded outside src/repro/js/semantics.py; use its atob (see matches above)" >&2
  exit 1
fi

# Edit gate: transformers and deob passes build an edit map read-only and
# return clone(program, edits), the one way this code base rewrites a
# tree.  A write into a node (setattr, a reassigned body list, an in-place
# rewriter class) corrupts any caller still holding the tree, and cannot
# leave a statement in a single-statement slot (`if (a) if (false) x();`
# crashed codegen) as clone's edits can.
if grep -rnE 'setattr\(|\bNodeTransformer\b|\.body[[:space:]]*=[^=]' \
    src/repro/transform src/repro/deob --include='*.py'; then
  echo "[lint] in-place AST write in src/repro/transform or src/repro/deob (see matches above)" >&2
  echo "[lint] compute edits and return clone(program, edits) instead" >&2
  exit 1
fi

# Purity gate: transform helpers and deobfuscation passes must never
# mutate the AST they are handed — they scan read-only and return
# clone(program, edits).  A pass that edits in place corrupts the deob
# engine's fixpoint bookkeeping (and any caller still holding the tree),
# so this runs each transform helper over a sample and each registered
# pass against a transformed sample, and asserts the input tree is
# bit-identical afterwards.  Pure stdlib + repro, so it always runs.
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - <<'PY'
import random
import sys

from repro.deob import default_passes
from repro.deob.base import PassContext
from repro.js.ast_nodes import to_dict
from repro.js.parser import parse
from repro.rules.engine import default_engine
from repro.transform.base import TECHNIQUES, get_transformer
from repro.transform.control_flow_flattening import flatten_program
from repro.transform.dead_code import inject_dead_code
from repro.transform.field_reference import obfuscate_field_references
from repro.transform.global_array import extract_strings_to_array
from repro.transform.minify_advanced import _replace_undefined, fold_program
from repro.transform.renaming import rename_hex, rename_short
from repro.transform.string_obfuscation import obfuscate_string_literals

SAMPLE = """
var secret = "abc" + "def";
function dispatch(op, x) {
  switch (op) {
    case "inc": return x + 1;
    case "dec": return x - 1;
    default: return x;
  }
}
for (var i = 0; i < 10; i++) { dispatch("inc", i); }
"""

HELPERS = {
    "rename_short": lambda program, rng: rename_short(program),
    "rename_hex": rename_hex,
    "extract_strings_to_array": lambda program, rng: extract_strings_to_array(
        program, rng, encoding="rc4", rotate=True
    ),
    "obfuscate_string_literals": obfuscate_string_literals,
    "flatten_program": flatten_program,
    "inject_dead_code": inject_dead_code,
    "obfuscate_field_references": obfuscate_field_references,
    "fold_program": lambda program, rng: fold_program(program),
    "_replace_undefined": lambda program, rng: _replace_undefined(program),
}

failures = []
for name, helper in HELPERS.items():
    program = parse(SAMPLE + "const y = { secret }; if (true) { y.z = undefined; }")
    snapshot = to_dict(program)
    helper(program, random.Random(5))
    if to_dict(program) != snapshot:
        failures.append(f"transform helper {name} mutated its input")

rules = default_engine()
for technique in TECHNIQUES:
    source = get_transformer(technique).transform(SAMPLE, random.Random(5))
    program = parse(source)
    snapshot = to_dict(program)
    ctx = PassContext(source=source, findings=rules.analyze_source(source, data_flow=False))
    for deob_pass in default_passes():
        deob_pass.rewrite(program, ctx)
        if to_dict(program) != snapshot:
            failures.append(f"{deob_pass.name} mutated its input on {technique.value}")
            snapshot = to_dict(program)  # report each offending pass once

if failures:
    print("[lint] purity violations:", file=sys.stderr)
    for failure in failures:
        print(f"[lint]   {failure}", file=sys.stderr)
    sys.exit(1)
print("[lint] purity gate: all transform helpers and deob passes leave their input AST untouched")
PY

if command -v ruff >/dev/null 2>&1; then
  run_ruff ruff
elif python -c "import ruff" >/dev/null 2>&1; then
  run_ruff python -m ruff
else
  echo "[lint] ruff is not installed in this environment — skipping" >&2
  echo "[lint] (install with: pip install ruff — config is in pyproject.toml)" >&2
  exit 0
fi
echo "[lint] clean"
