"""Transformers rewrite through ``clone(program, edits)``.

- Output pin: the sha256 of every tool's output over a fixed corpus
  sample, so a refactor of the rewrite machinery cannot move a generated
  input by one byte.
- Purity: every transform helper that takes a ``Program`` leaves it as it
  was and returns a new tree.
- Module-facing names: renaming never touches the name another module
  imports or this one exports.
"""

import hashlib
import random

import pytest

from repro.corpus.generator import generate_corpus
from repro.deob import DeobEngine
from repro.js.ast_nodes import to_dict
from repro.js.parser import parse
from repro.js.visitor import find_all
from repro.transform import TECHNIQUES, TransformationPipeline, get_transformer
from repro.transform.control_flow_flattening import flatten_program
from repro.transform.dead_code import inject_dead_code
from repro.transform.field_reference import FieldReferenceObfuscator, obfuscate_field_references
from repro.transform.global_array import extract_strings_to_array
from repro.transform.minify_advanced import _replace_undefined, fold_program
from repro.transform.renaming import rename_hex, rename_short
from repro.transform.string_obfuscation import obfuscate_string_literals

#: sha256 over ``tool.transform(source, random.Random(i))`` for the i-th
#: of ``generate_corpus(50, seed=7)``, outputs NUL-separated.
OUTPUT_DIGESTS = {
    "control_flow_flattening": "31e6494f596b6d9225b04440b66fbe6d95398e8c06f5ff181bc3a3d0ca8d9ca7",
    "dead_code_injection": "41bf45a284a0e144ca3d7c5759e79d46ae664aefe7e37858f3885426e8d17c6a",
    "debug_protection": "bd3f78de74eb64c1e81edc9fb3268139535e30c0ffb4d3fee72c71b641a461c3",
    "global_array": "98241026607dc2a26bb1bf6e4edcfe7f0309941ee3fe3875b81093a49aea5013",
    "identifier_obfuscation": "ca97037843fab22b74875319f7c9fd90137939cc55e24cf4f71137d69ea345e0",
    "minification_advanced": "ee3df4cd58875bcba4fdfcd0035517b9f50f097926e7203f31f05cc73325a85c",
    "minification_advanced+global_array": "937e944fc65610e44a178318e4c8e0f744ef3d8303ecff54b8824225429b183d",
    "minification_simple": "f01e59f1e26e26cd6adb2b3bb8d39a7c2a8b4de7630543ae4cc87bce7534f211",
    "no_alphanumeric": "cb39c128f5f19e077ae0ff51a2e57bd6212aea106d306b194a3b9ddf4ba60a75",
    "obfuscated_field_reference": "f79a55fe27ba74592e11da4077df3f028b407b4f1b640c9e81618560c50b3816",
    "self_defending": "200f3525425f13361f0cfd57229fc4463b2c1f7e5f9308f2a8b060a6984a8b8a",
    "string_obfuscation": "aecfffbe3789e5b20825a31b38579bc516781aed0b5f545b0b20e1c421d88b1a",
}


def _tools() -> dict:
    tools = {technique.value: get_transformer(technique) for technique in TECHNIQUES}
    tools["obfuscated_field_reference"] = FieldReferenceObfuscator()
    tools["minification_advanced+global_array"] = TransformationPipeline(
        ["minification_advanced", "global_array"]
    )
    return tools


@pytest.fixture(scope="module")
def pin_corpus() -> list[str]:
    return generate_corpus(50, seed=7)


@pytest.mark.parametrize("tool", sorted(OUTPUT_DIGESTS))
def test_outputs_are_pinned(tool, pin_corpus):
    transformer = _tools()[tool]
    digest = hashlib.sha256()
    for index, source in enumerate(pin_corpus):
        digest.update(transformer.transform(source, random.Random(index)).encode("utf-8"))
        digest.update(b"\0")
    assert digest.hexdigest() == OUTPUT_DIGESTS[tool]


PURITY_SOURCE = """
import { helper } from "lib";
var config = { retries: 3, endpoint: "https://api.example.com", debug: false };
function tally(items) {
  let total = 0;
  const scale = 2 + 3;
  for (var i = 0; i < items.length; i++) { total += items[i].value * scale; }
  if (true) { report({ total }); } else { report(undefined); }
  return total;
}
var { retries } = config;
tally([config.endpoint, retries, helper("label")]);
"""

HELPERS = {
    "rename_short": lambda program, rng: rename_short(program),
    "rename_hex": rename_hex,
    "extract_strings_to_array": extract_strings_to_array,
    "extract_strings_to_array_rc4": lambda program, rng: extract_strings_to_array(
        program, rng, encoding="rc4", rotate=True
    ),
    "obfuscate_string_literals": obfuscate_string_literals,
    "flatten_program": flatten_program,
    "inject_dead_code": inject_dead_code,
    "obfuscate_field_references": obfuscate_field_references,
    "fold_program": lambda program, rng: fold_program(program),
    "replace_undefined": lambda program, rng: _replace_undefined(program),
}


@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_helpers_leave_their_input_alone(helper):
    program = parse(PURITY_SOURCE)
    snapshot = to_dict(program)
    result = HELPERS[helper](program, random.Random(5))
    rewritten = result[0] if isinstance(result, tuple) else result
    assert to_dict(program) == snapshot, f"{helper} mutated its input"
    assert to_dict(rewritten) != snapshot, f"{helper} rewrote nothing"


RENAMING = [
    "identifier_obfuscation",
    "global_array",
    "dead_code_injection",
    "control_flow_flattening",
    "debug_protection",
    "self_defending",
    "minification_simple",
    "minification_advanced",
]


def _specifiers(program) -> tuple[list, list]:
    return find_all(program, "ImportSpecifier"), find_all(program, "ExportSpecifier")


@pytest.mark.parametrize("technique", RENAMING)
def test_renaming_keeps_module_facing_names(technique):
    source = 'import {foo} from "m"; var bar = 1; foo(bar); export {bar};'
    program = parse(get_transformer(technique).transform(source, random.Random(1)))
    (imported,), (exported,) = _specifiers(program)
    assert imported.imported.name == "foo"
    assert exported.exported.name == "bar"
    callees = {call.callee.get("name") for call in find_all(program, "CallExpression")}
    assert imported.local.name in callees
    declared = {declarator.id.name for declarator in find_all(program, "VariableDeclarator")}
    assert exported.local.name in declared


RENAMERS = {
    "identifier_obfuscation": lambda source: get_transformer("identifier_obfuscation").transform(
        source, random.Random(1)
    ),
    "minification_simple": lambda source: get_transformer("minification_simple").transform(
        source, random.Random(1)
    ),
    "deob": lambda source: DeobEngine().run(source).source,
}


@pytest.mark.parametrize("renamer", sorted(RENAMERS))
def test_import_alias_keeps_the_imported_name(renamer):
    # `_0xa` after `import {` names m's export, not the local var _0xa.
    out = RENAMERS[renamer]('import {_0xa as _0xb} from "m"; var _0xa = 1; _0xb(_0xa);')
    (specifier,), _ = _specifiers(parse(out))
    assert specifier.imported.name == "_0xa"
    assert specifier.local.name != "_0xb"


@pytest.mark.parametrize("renamer", sorted(RENAMERS))
def test_export_alias_keeps_the_exported_name(renamer):
    # `export {_0xa as _0xb}` exports the var _0xa under the name _0xb.
    program = parse(RENAMERS[renamer]("var _0xa = 1, _0xb = 2; export {_0xa as _0xb};"))
    _, (specifier,) = _specifiers(program)
    assert specifier.exported.name == "_0xb"
    first = find_all(program, "VariableDeclarator")[0]
    assert specifier.local.name == first.id.name != "_0xa"
