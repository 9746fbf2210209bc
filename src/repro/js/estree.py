"""The ESTree field schema driving the slotted AST node classes.

One table describes every node type the parser, builder, and transformers
produce: the ordered field list (matching the parser's construction order,
which fixes child-iteration order and therefore traversal, n-gram, and
codegen behaviour) and which of those fields can carry child nodes.

``ast_nodes`` generates one ``__slots__`` class per entry; ``flat`` interns
the type names into dense integer ids for the flat post-order index.
Fields marked with a trailing ``*`` are child-bearing: they may hold a
:class:`~repro.js.ast_nodes.Node` or a list of nodes.  Scalar fields
(operators, flags, raw strings) are never traversed.
"""

from __future__ import annotations

# type -> space-separated ordered fields; "*" suffix marks child-bearing
# fields.  Order matters: it is the construction order the recursive-descent
# parser uses, and generic traversal yields children in this order.
_SCHEMA_SPEC: dict[str, str] = {
    "Program": "body* sourceType start end",
    "EmptyStatement": "start end",
    "BlockStatement": "body* start end",
    "VariableDeclaration": "declarations* kind start end",
    "VariableDeclarator": "id* init* start end",
    "Identifier": "name start end",
    "PrivateIdentifier": "name start end",
    "FunctionDeclaration": "id* params* body* generator start end async",
    "FunctionExpression": "id* params* body* generator start end async",
    "ArrowFunctionExpression": "id* params* body* expression generator start end async",
    "RestElement": "argument* start end",
    "SpreadElement": "argument* start end",
    "AssignmentPattern": "left* right* start end",
    "ArrayPattern": "elements* start end",
    "ObjectPattern": "properties* start end",
    "ClassDeclaration": "id* superClass* body* start end",
    "ClassExpression": "id* superClass* body* start end",
    "ClassBody": "body* start end",
    "MethodDefinition": "key* value* kind static computed start end",
    "PropertyDefinition": "key* value* static computed start end",
    "IfStatement": "test* consequent* alternate* start end",
    "ForStatement": "init* test* update* body* start end",
    "ForInStatement": "left* right* body* start end",
    "ForOfStatement": "left* right* body* start end",
    "WhileStatement": "test* body* start end",
    "DoWhileStatement": "body* test* start end",
    "SwitchStatement": "discriminant* cases* start end",
    "SwitchCase": "test* consequent* start end",
    "ReturnStatement": "argument* start end",
    "BreakStatement": "label* start end",
    "ContinueStatement": "label* start end",
    "ThrowStatement": "argument* start end",
    "TryStatement": "block* handler* finalizer* start end",
    "CatchClause": "param* body* start end",
    "DebuggerStatement": "start end",
    "WithStatement": "object* body* start end",
    "LabeledStatement": "label* body* start end",
    "ExpressionStatement": "expression* start end",
    "ImportDeclaration": "specifiers* source* start end",
    "ImportDefaultSpecifier": "local* start end",
    "ImportNamespaceSpecifier": "local* start end",
    "ImportSpecifier": "imported* local* start end",
    "ExportDefaultDeclaration": "declaration* start end",
    "ExportAllDeclaration": "exported* source* start end",
    "ExportNamedDeclaration": "declaration* specifiers* source* start end",
    "ExportSpecifier": "local* exported* start end",
    "SequenceExpression": "expressions* start end",
    "AssignmentExpression": "operator left* right* start end",
    "YieldExpression": "argument* delegate start end",
    "ConditionalExpression": "test* consequent* alternate* start end",
    "LogicalExpression": "operator left* right* start end",
    "BinaryExpression": "operator left* right* start end",
    "UnaryExpression": "operator argument* prefix start end",
    "UpdateExpression": "operator argument* prefix start end",
    "AwaitExpression": "argument* start end",
    "MemberExpression": "object* property* computed optional start end",
    "CallExpression": "callee* arguments* optional start end",
    "TaggedTemplateExpression": "tag* quasi* start end",
    "MetaProperty": "meta* property* start end",
    "NewExpression": "callee* arguments* start end",
    "Literal": "value raw regex start end",
    "ThisExpression": "start end",
    "Super": "start end",
    "Import": "start end",
    "ArrayExpression": "elements* start end",
    "ObjectExpression": "properties* start end",
    "Property": "key* value* kind method shorthand computed start end",
    "TemplateLiteral": "quasis* expressions* start end",
    "TemplateElement": "value tail start end",
}

#: type -> ordered tuple of all fields (construction / iteration order).
NODE_FIELDS: dict[str, tuple[str, ...]] = {}
#: type -> ordered tuple of the child-bearing subset of ``NODE_FIELDS``.
CHILD_FIELDS: dict[str, tuple[str, ...]] = {}

for _type, _spec in _SCHEMA_SPEC.items():
    _fields = []
    _children = []
    for _name in _spec.split():
        if _name.endswith("*"):
            _name = _name[:-1]
            _children.append(_name)
        _fields.append(_name)
    NODE_FIELDS[_type] = tuple(_fields)
    CHILD_FIELDS[_type] = tuple(_children)

#: Dense integer id per schema type, in schema declaration order.  Unknown
#: (generic) node types are interned on top of this table at runtime by
#: :mod:`repro.js.flat`.
TYPE_NAMES: tuple[str, ...] = tuple(_SCHEMA_SPEC)
TYPE_IDS: dict[str, int] = {name: i for i, name in enumerate(TYPE_NAMES)}

#: Analysis annotations every node can carry (set by scope / flow passes).
#: They live in dedicated slots so annotation never allocates an overflow
#: dict, and generic traversal never mistakes them for child fields.
ANALYSIS_FIELDS: tuple[str, ...] = (
    "parent",
    "scope",
    "binding",
    "decl_init_kind",
    "flow_out",
    "flow_in",
    "data_out",
    "data_in",
)
