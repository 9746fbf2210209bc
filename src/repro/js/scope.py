"""Lexical scope analysis for JavaScript ASTs.

Builds a scope tree with bindings, then resolves every value-position
``Identifier`` to its binding.  This drives two consumers:

- the data-flow pass (def→use edges between ``Identifier`` nodes), and
- the renaming transformers (identifier shortening / obfuscation), which
  need to know every reference of every binding plus which names leak to
  the global scope and therefore must not be renamed.

Scoping rules implemented: ``var`` and function declarations hoist to the
nearest function (or global) scope, ``let``/``const``/``class`` are
block-scoped, parameters and the function's own name live in the function
scope, and catch parameters get their own scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.js.ast_nodes import Node, iter_child_nodes

FUNCTION_TYPES = frozenset(
    {"FunctionDeclaration", "FunctionExpression", "ArrowFunctionExpression"}
)

_SCOPE_CREATING_BLOCKS = frozenset(
    {
        "BlockStatement",
        "ForStatement",
        "ForInStatement",
        "ForOfStatement",
        "CatchClause",
        "SwitchStatement",
    }
)


@dataclass
class Binding:
    """One declared name with its definition and reference sites."""

    name: str
    kind: str  # var | let | const | function | class | param | catch | import
    scope: "Scope"
    declarations: list[Node] = field(default_factory=list)
    references: list[Node] = field(default_factory=list)
    assignments: list[Node] = field(default_factory=list)

    @property
    def sites(self) -> list[Node]:
        """Every identifier that names this binding (what a renamer edits)."""
        return self.declarations + self.references + self.assignments


class Scope:
    """One lexical scope and its bindings."""

    def __init__(self, kind: str, node: Node, parent: "Scope | None") -> None:
        self.kind = kind  # global | function | block | catch | class
        self.node = node
        self.parent = parent
        self.children: list[Scope] = []
        self.bindings: dict[str, Binding] = {}
        if parent is not None:
            parent.children.append(self)

    def declare(self, name: str, kind: str, node: Node) -> Binding:
        target = self
        if kind in ("var", "function") and self.kind not in ("function", "global"):
            target = self.function_scope()
        binding = target.bindings.get(name)
        if binding is None:
            binding = Binding(name=name, kind=kind, scope=target)
            target.bindings[name] = binding
        binding.declarations.append(node)
        return binding

    def function_scope(self) -> "Scope":
        scope: Scope = self
        while scope.kind not in ("function", "global"):
            assert scope.parent is not None
            scope = scope.parent
        return scope

    def resolve(self, name: str) -> Binding | None:
        scope: Scope | None = self
        while scope is not None:
            binding = scope.bindings.get(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None

    def iter_all_bindings(self):
        yield from self.bindings.values()
        for child in self.children:
            yield from child.iter_all_bindings()

    def names_in_scope(self) -> set[str]:
        """Every name visible from this scope (for collision-free renaming)."""
        names: set[str] = set()
        scope: Scope | None = self
        while scope is not None:
            names.update(scope.bindings)
            scope = scope.parent
        return names


class ScopeAnalyzer:
    """Two-pass analysis: declare bindings, then resolve references."""

    def __init__(self) -> None:
        self.global_scope: Scope | None = None
        self.unresolved: list[Node] = []

    def analyze(self, program: Node) -> Scope:
        self.global_scope = Scope("global", program, None)
        program.scope = self.global_scope
        self._hoist_declarations(program, self.global_scope)
        self._visit_statements(program.body, self.global_scope)
        return self.global_scope

    # -- declaration pass ---------------------------------------------------

    def _hoist_declarations(self, node: Node, scope: Scope) -> None:
        """Register `var` and function declarations for a function body."""
        for child in iter_child_nodes(node):
            self._hoist_walk(child, scope)

    def _hoist_walk(self, node: Node, scope: Scope) -> None:
        stack = [node]
        while stack:
            current = stack.pop()
            kind = current.type
            if kind == "FunctionDeclaration":
                # Hoist the name, but not the body (its own pass later).
                if current.get("id") is not None:
                    scope.declare(current.id.name, "function", current.id)
                continue
            if kind in FUNCTION_TYPES:
                continue  # nested function: its own hoisting pass later
            if kind == "VariableDeclaration" and current.kind == "var":
                for declarator in current.declarations:
                    for name_node in _pattern_identifiers(declarator.id):
                        scope.declare(name_node.name, "var", name_node)
            # Inlined iter_child_nodes: same push order, no generator frame.
            child_fields = current._child_fields
            if child_fields is None:
                stack.extend(iter_child_nodes(current))
                continue
            for key in child_fields:
                value = getattr(current, key, None)
                if value is None:
                    continue
                if value.__class__ is list:
                    for item in value:
                        if isinstance(item, Node):
                            stack.append(item)
                elif isinstance(value, Node):
                    stack.append(value)

    # -- resolution pass ----------------------------------------------------

    def _visit_statements(self, body: list[Node], scope: Scope) -> None:
        # Lexical declarations in this statement list (let/const/class) are
        # visible to the whole list.
        for statement in body:
            self._declare_lexical(statement, scope)
        for statement in body:
            self._visit(statement, scope)

    def _declare_lexical(self, node: Node, scope: Scope) -> None:
        if node.type == "VariableDeclaration" and node.kind in ("let", "const"):
            for declarator in node.declarations:
                for name_node in _pattern_identifiers(declarator.id):
                    scope.declare(name_node.name, node.kind, name_node)
        elif node.type == "ClassDeclaration" and node.get("id") is not None:
            scope.declare(node.id.name, "class", node.id)
        elif node.type == "ImportDeclaration":
            for spec in node.specifiers:
                scope.declare(spec.local.name, "import", spec.local)
        elif node.type in ("ExportNamedDeclaration", "ExportDefaultDeclaration") and node.get(
            "declaration"
        ):
            self._declare_lexical(node.declaration, scope)

    def _visit(self, node: Node | None, scope: Scope) -> None:
        if node is None:
            return
        # Iterative default descent: expression chains (e.g. thousand-term
        # string concatenations in machine-generated code) must not recurse.
        # Dispatch goes through a prebuilt type->method table (built once
        # below the class body) instead of a per-node getattr on an f-string.
        handlers = _VISIT_HANDLERS
        handlers_get = handlers.get
        stack = [node]
        pop = stack.pop
        push = stack.append
        while stack:
            current = pop()
            handler = handlers_get(current.type)
            if handler is not None:
                handler(self, current, scope)
                continue
            # Inlined iter_child_nodes: same push order, no generator frame.
            child_fields = current._child_fields
            if child_fields is None:
                stack.extend(iter_child_nodes(current))
                continue
            for key in child_fields:
                value = getattr(current, key, None)
                if value is None:
                    continue
                if value.__class__ is list:
                    for item in value:
                        if isinstance(item, Node):
                            push(item)
                elif isinstance(value, Node):
                    push(value)

    # Identifier resolution -------------------------------------------------

    def _reference(self, node: Node, scope: Scope, is_write: bool = False) -> None:
        binding = scope.resolve(node.name)
        if binding is None:
            # Implicit global (or browser/Node builtin).
            assert self.global_scope is not None
            binding = Binding(name=node.name, kind="global", scope=self.global_scope)
            self.global_scope.bindings[node.name] = binding
            self.unresolved.append(node)
        node.binding = binding
        if is_write:
            binding.assignments.append(node)
        else:
            binding.references.append(node)

    def _visit_Identifier(self, node: Node, scope: Scope) -> None:
        self._reference(node, scope)

    def _visit_MemberExpression(self, node: Node, scope: Scope) -> None:
        self._visit(node.object, scope)
        if node.get("computed"):
            self._visit(node.property, scope)
        # Non-computed property names are not variable references.

    def _visit_Property(self, node: Node, scope: Scope) -> None:
        if node.get("computed"):
            self._visit(node.key, scope)
        elif node.get("shorthand") and node.value is node.key:
            # `{ x }` reads variable x.
            self._visit(node.value, scope)
            return
        self._visit(node.value, scope)

    def _visit_MethodDefinition(self, node: Node, scope: Scope) -> None:
        if node.get("computed"):
            self._visit(node.key, scope)
        self._visit(node.value, scope)

    def _visit_PropertyDefinition(self, node: Node, scope: Scope) -> None:
        if node.get("computed"):
            self._visit(node.key, scope)
        self._visit(node.get("value"), scope)

    # Module names: ``imported``/``exported`` and a re-export's ``local``
    # name another module's bindings or this module's exports, never a
    # variable of this file.

    def _visit_ImportSpecifier(self, node: Node, scope: Scope) -> None:
        self._visit(node.local, scope)

    def _visit_ExportNamedDeclaration(self, node: Node, scope: Scope) -> None:
        self._visit(node.get("declaration"), scope)
        if node.get("source") is None:
            for specifier in node.specifiers:
                self._visit(specifier.local, scope)

    def _visit_ExportAllDeclaration(self, node: Node, scope: Scope) -> None:
        pass

    def _visit_LabeledStatement(self, node: Node, scope: Scope) -> None:
        self._visit(node.body, scope)  # label is not a variable

    def _visit_BreakStatement(self, node: Node, scope: Scope) -> None:
        pass

    def _visit_ContinueStatement(self, node: Node, scope: Scope) -> None:
        pass

    # Assignment tracking ----------------------------------------------------

    def _visit_AssignmentExpression(self, node: Node, scope: Scope) -> None:
        self._visit_pattern_writes(node.left, scope)
        self._visit(node.right, scope)

    def _visit_UpdateExpression(self, node: Node, scope: Scope) -> None:
        if node.argument.type == "Identifier":
            self._reference(node.argument, scope, is_write=True)
            binding = node.argument.get("binding")
            if binding is not None:
                binding.references.append(node.argument)  # read-modify-write
        else:
            self._visit(node.argument, scope)

    def _visit_pattern_writes(self, node: Node, scope: Scope) -> None:
        if node.type == "Identifier":
            self._reference(node, scope, is_write=True)
            return
        if node.type == "MemberExpression":
            self._visit_MemberExpression(node, scope)
            return
        if node.type in ("ArrayPattern", "ArrayExpression"):
            for element in node.elements:
                if element is not None:
                    self._visit_pattern_writes(element, scope)
            return
        if node.type in ("ObjectPattern", "ObjectExpression"):
            for prop in node.properties:
                if prop.type == "RestElement":
                    self._visit_pattern_writes(prop.argument, scope)
                else:
                    if prop.get("computed"):
                        self._visit(prop.key, scope)
                    self._visit_pattern_writes(prop.value, scope)
            return
        if node.type in ("RestElement", "SpreadElement"):
            self._visit_pattern_writes(node.argument, scope)
            return
        if node.type == "AssignmentPattern":
            self._visit_pattern_writes(node.left, scope)
            self._visit(node.right, scope)
            return
        self._visit(node, scope)

    # Declarations -----------------------------------------------------------

    def _visit_VariableDeclaration(self, node: Node, scope: Scope) -> None:
        for declarator in node.declarations:
            for name_node in _pattern_identifiers(declarator.id):
                binding = scope.resolve(name_node.name)
                if binding is None:
                    binding = scope.declare(name_node.name, node.kind, name_node)
                name_node.binding = binding
                if declarator.init is not None or node.kind != "var":
                    binding.assignments.append(name_node)
            self._visit_pattern_defaults(declarator.id, scope)
            self._visit(declarator.init, scope)

    def _visit_pattern_defaults(self, node: Node, scope: Scope) -> None:
        """Visit default-value expressions inside a binding pattern."""
        if node.type == "AssignmentPattern":
            self._visit_pattern_defaults(node.left, scope)
            self._visit(node.right, scope)
        elif node.type == "ArrayPattern":
            for element in node.elements:
                if element is not None:
                    self._visit_pattern_defaults(element, scope)
        elif node.type == "ObjectPattern":
            for prop in node.properties:
                if prop.type == "RestElement":
                    self._visit_pattern_defaults(prop.argument, scope)
                else:
                    if prop.get("computed"):
                        self._visit(prop.key, scope)
                    self._visit_pattern_defaults(prop.value, scope)
        elif node.type == "RestElement":
            self._visit_pattern_defaults(node.argument, scope)

    def _visit_FunctionDeclaration(self, node: Node, scope: Scope) -> None:
        if node.get("id") is not None:
            binding = scope.resolve(node.id.name) or scope.declare(
                node.id.name, "function", node.id
            )
            node.id.binding = binding
            binding.assignments.append(node.id)
        self._enter_function(node, scope)

    def _visit_FunctionExpression(self, node: Node, scope: Scope) -> None:
        self._enter_function(node, scope)

    def _visit_ArrowFunctionExpression(self, node: Node, scope: Scope) -> None:
        self._enter_function(node, scope)

    def _enter_function(self, node: Node, scope: Scope) -> None:
        fn_scope = Scope("function", node, scope)
        node.scope = fn_scope
        if node.type == "FunctionExpression" and node.get("id") is not None:
            binding = fn_scope.declare(node.id.name, "function", node.id)
            node.id.binding = binding
        for param in node.params:
            for name_node in _pattern_identifiers(param):
                binding = fn_scope.declare(name_node.name, "param", name_node)
                name_node.binding = binding
                binding.assignments.append(name_node)
            self._visit_pattern_defaults(param, fn_scope)
        body = node.body
        if body.type == "BlockStatement":
            self._hoist_declarations(body, fn_scope)
            self._visit_statements(body.body, fn_scope)
        else:
            self._visit(body, fn_scope)

    def _visit_ClassDeclaration(self, node: Node, scope: Scope) -> None:
        if node.get("id") is not None:
            binding = scope.resolve(node.id.name) or scope.declare(
                node.id.name, "class", node.id
            )
            node.id.binding = binding
        self._visit(node.get("superClass"), scope)
        class_scope = Scope("class", node, scope)
        node.scope = class_scope
        self._visit(node.body, class_scope)

    def _visit_ClassExpression(self, node: Node, scope: Scope) -> None:
        class_scope = Scope("class", node, scope)
        node.scope = class_scope
        if node.get("id") is not None:
            binding = class_scope.declare(node.id.name, "class", node.id)
            node.id.binding = binding
        self._visit(node.get("superClass"), scope)
        self._visit(node.body, class_scope)

    # Blocks ------------------------------------------------------------------

    def _visit_BlockStatement(self, node: Node, scope: Scope) -> None:
        block_scope = Scope("block", node, scope)
        node.scope = block_scope
        self._visit_statements(node.body, block_scope)

    def _visit_ForStatement(self, node: Node, scope: Scope) -> None:
        for_scope = Scope("block", node, scope)
        node.scope = for_scope
        if node.init is not None and node.init.type == "VariableDeclaration":
            self._declare_lexical(node.init, for_scope)
        self._visit(node.init, for_scope)
        self._visit(node.test, for_scope)
        self._visit(node.update, for_scope)
        self._visit_loop_body(node.body, for_scope)

    def _visit_ForInStatement(self, node: Node, scope: Scope) -> None:
        self._visit_for_in_of(node, scope)

    def _visit_ForOfStatement(self, node: Node, scope: Scope) -> None:
        self._visit_for_in_of(node, scope)

    def _visit_for_in_of(self, node: Node, scope: Scope) -> None:
        for_scope = Scope("block", node, scope)
        node.scope = for_scope
        if node.left.type == "VariableDeclaration":
            self._declare_lexical(node.left, for_scope)
            self._visit(node.left, for_scope)
        else:
            self._visit_pattern_writes(node.left, for_scope)
        self._visit(node.right, for_scope)
        self._visit_loop_body(node.body, for_scope)

    def _visit_loop_body(self, body: Node, scope: Scope) -> None:
        if body.type == "BlockStatement":
            self._visit_BlockStatement(body, scope)
        else:
            self._visit(body, scope)

    def _visit_CatchClause(self, node: Node, scope: Scope) -> None:
        catch_scope = Scope("catch", node, scope)
        node.scope = catch_scope
        if node.get("param") is not None:
            for name_node in _pattern_identifiers(node.param):
                binding = catch_scope.declare(name_node.name, "catch", name_node)
                name_node.binding = binding
                binding.assignments.append(name_node)
        self._visit_BlockStatement(node.body, catch_scope)

    def _visit_SwitchStatement(self, node: Node, scope: Scope) -> None:
        self._visit(node.discriminant, scope)
        switch_scope = Scope("block", node, scope)
        node.scope = switch_scope
        all_statements = [
            statement for case in node.cases for statement in case.consequent
        ]
        for statement in all_statements:
            self._declare_lexical(statement, switch_scope)
        for case in node.cases:
            self._visit(case.test, switch_scope)
            for statement in case.consequent:
                self._visit(statement, switch_scope)


# node type -> unbound ScopeAnalyzer method, replacing the historical
# ``getattr(self, f"_visit_{type}")`` probe on every visited node.
_VISIT_HANDLERS = {
    name[len("_visit_") :]: method
    for name, method in vars(ScopeAnalyzer).items()
    if name.startswith("_visit_") and callable(method)
}


def _pattern_identifiers(node: Node | None) -> list[Node]:
    """All Identifier nodes that a binding pattern declares."""
    if node is None:
        return []
    if node.type == "Identifier":
        return [node]
    if node.type == "AssignmentPattern":
        return _pattern_identifiers(node.left)
    if node.type == "ArrayPattern":
        result: list[Node] = []
        for element in node.elements:
            if element is not None:
                result.extend(_pattern_identifiers(element))
        return result
    if node.type == "ObjectPattern":
        result = []
        for prop in node.properties:
            if prop.type == "RestElement":
                result.extend(_pattern_identifiers(prop.argument))
            else:
                result.extend(_pattern_identifiers(prop.value))
        return result
    if node.type == "RestElement":
        return _pattern_identifiers(node.argument)
    return []


def analyze_scopes(program: Node) -> Scope:
    """Analyze a ``Program`` and return its global scope (tree root)."""
    return ScopeAnalyzer().analyze(program)


def pattern_identifiers(node: Node | None) -> list[Node]:
    """Public alias of the pattern-identifier extractor."""
    return _pattern_identifiers(node)
