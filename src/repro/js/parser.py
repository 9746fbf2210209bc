"""Recursive-descent JavaScript parser producing ESTree-compatible ASTs.

Covers ES5 plus the ES2015 feature set prevalent in real-world scripts:
``let``/``const``, arrow functions, classes, template literals, spread and
rest elements, destructuring, ``for-of``, computed properties, shorthand
object members, default parameters, generators, and ``async``/``await``.

Automatic semicolon insertion follows the standard rules: a statement may be
terminated by an explicit ``;``, a closing ``}``, end-of-input, or a line
break before the offending token.  Restricted productions (``return``,
``throw``, ``break``, ``continue`` and postfix ``++``/``--``) respect line
breaks.
"""

from __future__ import annotations

from repro.js.ast_nodes import NODE_CLASSES, Node, fast_constructor
from repro.js.lexer import Lexer, split_template
from repro.js.tokens import Token, TokenType


class ParseError(SyntaxError):
    """Raised on syntactically invalid input."""

    def __init__(self, message: str, token: Token | None = None) -> None:
        if token is not None:
            message = f"{message} at line {token.line}, column {token.column}"
        super().__init__(message)
        self.token = token


# Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "??": 1,
    "||": 2,
    "&&": 3,
    "|": 4,
    "^": 5,
    "&": 6,
    "==": 7,
    "!=": 7,
    "===": 7,
    "!==": 7,
    "<": 8,
    ">": 8,
    "<=": 8,
    ">=": 8,
    "instanceof": 8,
    "in": 8,
    "<<": 9,
    ">>": 9,
    ">>>": 9,
    "+": 10,
    "-": 10,
    "*": 11,
    "/": 11,
    "%": 11,
    "**": 12,
}

_ASSIGNMENT_OPERATORS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", ">>>=", "&=", "|=", "^=", "**=", "&&=", "||=", "??="}
)

_UNARY_OPERATORS = frozenset({"+", "-", "~", "!", "typeof", "void", "delete"})

# Interned token kinds: identity checks against locals beat repeated enum
# attribute lookups in the hot helpers below.
_PUNCT = TokenType.PUNCTUATOR
_KEYWORD = TokenType.KEYWORD
_IDENTIFIER = TokenType.IDENTIFIER
_EOF = TokenType.EOF

# Direct constructors for the generated slotted node classes: hot paths
# skip the ``Node(type, ...)`` dispatch in ``Node.__new__`` entirely.
_ArrayExpression = NODE_CLASSES["ArrayExpression"]
_ArrayPattern = NODE_CLASSES["ArrayPattern"]
_ArrowFunctionExpression = NODE_CLASSES["ArrowFunctionExpression"]
_AssignmentExpression = NODE_CLASSES["AssignmentExpression"]
_AssignmentPattern = NODE_CLASSES["AssignmentPattern"]
_AwaitExpression = NODE_CLASSES["AwaitExpression"]
_BlockStatement = NODE_CLASSES["BlockStatement"]
_CallExpression = NODE_CLASSES["CallExpression"]
_CatchClause = NODE_CLASSES["CatchClause"]
_ClassBody = NODE_CLASSES["ClassBody"]
_ConditionalExpression = NODE_CLASSES["ConditionalExpression"]
_DebuggerStatement = NODE_CLASSES["DebuggerStatement"]
_DoWhileStatement = NODE_CLASSES["DoWhileStatement"]
_EmptyStatement = NODE_CLASSES["EmptyStatement"]
_ExportAllDeclaration = NODE_CLASSES["ExportAllDeclaration"]
_ExportDefaultDeclaration = NODE_CLASSES["ExportDefaultDeclaration"]
_ExportNamedDeclaration = NODE_CLASSES["ExportNamedDeclaration"]
_ExportSpecifier = NODE_CLASSES["ExportSpecifier"]
_ExpressionStatement = NODE_CLASSES["ExpressionStatement"]
_ForStatement = NODE_CLASSES["ForStatement"]
_FunctionExpression = NODE_CLASSES["FunctionExpression"]
_Identifier = NODE_CLASSES["Identifier"]
_IfStatement = NODE_CLASSES["IfStatement"]
_Import = NODE_CLASSES["Import"]
_ImportDeclaration = NODE_CLASSES["ImportDeclaration"]
_ImportDefaultSpecifier = NODE_CLASSES["ImportDefaultSpecifier"]
_ImportNamespaceSpecifier = NODE_CLASSES["ImportNamespaceSpecifier"]
_ImportSpecifier = NODE_CLASSES["ImportSpecifier"]
_LabeledStatement = NODE_CLASSES["LabeledStatement"]
_Literal = NODE_CLASSES["Literal"]
_MemberExpression = NODE_CLASSES["MemberExpression"]
_MetaProperty = NODE_CLASSES["MetaProperty"]
_MethodDefinition = NODE_CLASSES["MethodDefinition"]
_NewExpression = NODE_CLASSES["NewExpression"]
_ObjectExpression = NODE_CLASSES["ObjectExpression"]
_ObjectPattern = NODE_CLASSES["ObjectPattern"]
_BinaryExpression = NODE_CLASSES["BinaryExpression"]
_ClassDeclaration = NODE_CLASSES["ClassDeclaration"]
_ClassExpression = NODE_CLASSES["ClassExpression"]
_ForInStatement = NODE_CLASSES["ForInStatement"]
_ForOfStatement = NODE_CLASSES["ForOfStatement"]
_FunctionDeclaration = NODE_CLASSES["FunctionDeclaration"]
_LogicalExpression = NODE_CLASSES["LogicalExpression"]
_Program = NODE_CLASSES["Program"]
_Property = NODE_CLASSES["Property"]
_PropertyDefinition = NODE_CLASSES["PropertyDefinition"]
_RestElement = NODE_CLASSES["RestElement"]
_ReturnStatement = NODE_CLASSES["ReturnStatement"]
_SequenceExpression = NODE_CLASSES["SequenceExpression"]
_SpreadElement = NODE_CLASSES["SpreadElement"]
_Super = NODE_CLASSES["Super"]
_SwitchCase = NODE_CLASSES["SwitchCase"]
_SwitchStatement = NODE_CLASSES["SwitchStatement"]
_TaggedTemplateExpression = NODE_CLASSES["TaggedTemplateExpression"]
_TemplateElement = NODE_CLASSES["TemplateElement"]
_TemplateLiteral = NODE_CLASSES["TemplateLiteral"]
_ThisExpression = NODE_CLASSES["ThisExpression"]
_ThrowStatement = NODE_CLASSES["ThrowStatement"]
_TryStatement = NODE_CLASSES["TryStatement"]
_UnaryExpression = NODE_CLASSES["UnaryExpression"]
_UpdateExpression = NODE_CLASSES["UpdateExpression"]
_VariableDeclaration = NODE_CLASSES["VariableDeclaration"]
_VariableDeclarator = NODE_CLASSES["VariableDeclarator"]
_WhileStatement = NODE_CLASSES["WhileStatement"]
_WithStatement = NODE_CLASSES["WithStatement"]
_YieldExpression = NODE_CLASSES["YieldExpression"]

# Positional factories for the hottest node shapes: one Python frame per
# node, no kwargs dict, no per-field sentinel checks.  Each factory is
# bound to the exact field set its call sites pass, so set-vs-unset
# semantics match the keyword constructors above.
_mk_identifier = fast_constructor("Identifier", "name", "start", "end")
_mk_literal = fast_constructor("Literal", "value", "raw", "start", "end")
_mk_member = fast_constructor(
    "MemberExpression", "object", "property", "computed", "start", "end"
)
_mk_member_optional = fast_constructor(
    "MemberExpression", "object", "property", "computed", "optional", "start", "end"
)
_mk_call = fast_constructor("CallExpression", "callee", "arguments", "start", "end")
_mk_call_optional = fast_constructor(
    "CallExpression", "callee", "arguments", "optional", "start", "end"
)
_mk_binary = fast_constructor(
    "BinaryExpression", "operator", "left", "right", "start", "end"
)
_mk_logical = fast_constructor(
    "LogicalExpression", "operator", "left", "right", "start", "end"
)
_mk_assignment = fast_constructor(
    "AssignmentExpression", "operator", "left", "right", "start", "end"
)
_mk_conditional = fast_constructor(
    "ConditionalExpression", "test", "consequent", "alternate", "start", "end"
)
_mk_unary = fast_constructor(
    "UnaryExpression", "operator", "argument", "prefix", "start", "end"
)
_mk_update = fast_constructor(
    "UpdateExpression", "operator", "argument", "prefix", "start", "end"
)
_mk_sequence = fast_constructor("SequenceExpression", "expressions", "start", "end")
_mk_spread = fast_constructor("SpreadElement", "argument", "start", "end")
_mk_array = fast_constructor("ArrayExpression", "elements", "start", "end")
_mk_object = fast_constructor("ObjectExpression", "properties", "start", "end")
_mk_property = fast_constructor(
    "Property", "key", "value", "kind", "method", "shorthand", "computed", "start", "end"
)
_mk_block = fast_constructor("BlockStatement", "body", "start", "end")
_mk_expression_statement = fast_constructor(
    "ExpressionStatement", "expression", "start", "end"
)
_mk_variable_declaration = fast_constructor(
    "VariableDeclaration", "declarations", "kind", "start", "end"
)
_mk_variable_declarator = fast_constructor(
    "VariableDeclarator", "id", "init", "start", "end"
)
_mk_return = fast_constructor("ReturnStatement", "argument", "start", "end")
_mk_if = fast_constructor(
    "IfStatement", "test", "consequent", "alternate", "start", "end"
)


class Parser:
    """Parser over a pre-tokenized stream (enables cheap lookahead)."""

    def __init__(self, source: str) -> None:
        self.source = source
        lexer = Lexer(source)
        self.tokens = lexer.scan_all()
        self.comments = lexer.comments
        self.index = 0
        self.token = self.tokens[0]
        self.in_function = 0
        self.in_loop = 0
        self.in_switch = 0
        # Built on first arrow probe — sources whose expressions never
        # start with ``(`` skip the whole-stream bracket scan.
        self._paren_match: dict[int, int] | None = None

    def _match_brackets(self) -> dict[int, int]:
        """Token index of the closer for every opening bracket token."""
        matches: dict[int, int] = {}
        stack: list[int] = []
        punctuator = TokenType.PUNCTUATOR
        # Prefilter at comprehension speed; multi-char punctuator values
        # never pass the single-char substring test.
        brackets = [
            (idx, token.value)
            for idx, token in enumerate(self.tokens)
            if token.type is punctuator and token.value in "([{)]}"
        ]
        push = stack.append
        pop = stack.pop
        for idx, value in brackets:
            if value in "([{":
                push(idx)
            elif stack:
                matches[pop()] = idx
        return matches

    # -- token helpers -------------------------------------------------------
    #
    # ``self.token`` is a plain attribute kept in sync by every advance (the
    # cursor only ever moves forward), so the hot helpers below are single
    # attribute loads plus identity checks — no property indirection.

    def _peek(self, offset: int = 1) -> Token:
        tokens = self.tokens
        idx = self.index + offset
        if idx >= len(tokens):
            idx = len(tokens) - 1
        return tokens[idx]

    def _advance(self) -> Token:
        token = self.token
        if token.type is not _EOF:
            index = self.index + 1
            self.index = index
            self.token = self.tokens[index]
        return token

    def _at(self, type_: TokenType, value: str | None = None) -> bool:
        token = self.token
        if token.type is not type_:
            return False
        return value is None or token.value == value

    def _at_punct(self, value: str) -> bool:
        token = self.token
        return token.type is _PUNCT and token.value == value

    def _at_keyword(self, value: str) -> bool:
        token = self.token
        return token.type is _KEYWORD and token.value == value

    def _eat_punct(self, value: str) -> bool:
        token = self.token
        if token.type is _PUNCT and token.value == value:
            index = self.index + 1
            self.index = index
            self.token = self.tokens[index]
            return True
        return False

    def _eat_keyword(self, value: str) -> bool:
        token = self.token
        if token.type is _KEYWORD and token.value == value:
            index = self.index + 1
            self.index = index
            self.token = self.tokens[index]
            return True
        return False

    def _expect_punct(self, value: str) -> Token:
        token = self.token
        if token.type is not _PUNCT or token.value != value:
            raise ParseError(f"Expected {value!r}, got {token.value!r}", token)
        index = self.index + 1
        self.index = index
        self.token = self.tokens[index]
        return token

    def _expect_keyword(self, value: str) -> Token:
        token = self.token
        if token.type is not _KEYWORD or token.value != value:
            raise ParseError(f"Expected keyword {value!r}, got {token.value!r}", token)
        index = self.index + 1
        self.index = index
        self.token = self.tokens[index]
        return token

    def _newline_before(self) -> bool:
        if self.index == 0:
            return False
        return self.token.line > self.tokens[self.index - 1].line

    def _consume_semicolon(self) -> None:
        """Apply automatic semicolon insertion."""
        if self._eat_punct(";"):
            return
        if self._at_punct("}") or self.token.type is TokenType.EOF:
            return
        if self._newline_before():
            return
        raise ParseError(f"Expected ';', got {self.token.value!r}", self.token)

    # -- entry point ---------------------------------------------------------

    def parse_program(self) -> Node:
        body: list[Node] = []
        while self.token.type is not TokenType.EOF:
            body.append(self._parse_statement_list_item())
        return _Program(
            body=body,
            sourceType="script",
            start=0,
            end=len(self.source),
        )

    # -- statements ----------------------------------------------------------

    def _parse_statement_list_item(self) -> Node:
        token = self.token
        if token.type is _KEYWORD:
            if token.value == "import":
                # Dynamic import() and import.meta are expressions.
                nxt = self._peek()
                if not (nxt.type is _PUNCT and nxt.value in ("(", ".")):
                    return self._parse_import_declaration()
            elif token.value == "export":
                return self._parse_export_declaration()
        return self._parse_statement()

    def _parse_statement(self) -> Node:
        token = self.token
        ttype = token.type
        if ttype is _PUNCT:
            if token.value == "{":
                return self._parse_block()
            if token.value == ";":
                start = self._advance()
                return _EmptyStatement(start=start.start, end=start.end)
        elif ttype is _KEYWORD:
            # Table-driven dispatch (built once, below the class body).
            handler = _STATEMENT_KEYWORDS.get(token.value)
            if handler is not None:
                if token.value == "let":
                    # `let` as identifier in sloppy mode: let[x] / let.y etc.
                    nxt = self._peek()
                    if not (
                        nxt.type in (TokenType.IDENTIFIER, TokenType.KEYWORD)
                        or (nxt.type is _PUNCT and nxt.value in ("[", "{"))
                    ):
                        return self._parse_expression_statement()
                return handler(self)
        elif ttype is _IDENTIFIER:
            if token.value == "async":
                nxt = self._peek()
                if (
                    nxt.type is _KEYWORD
                    and nxt.value == "function"
                    and nxt.line == token.line
                ):
                    return self._parse_function_declaration()
            nxt = self._peek()
            if nxt.type is _PUNCT and nxt.value == ":":
                return self._parse_labeled_statement()
        return self._parse_expression_statement()

    def _parse_block(self) -> Node:
        start = self._expect_punct("{")
        body: list[Node] = []
        while not self._at_punct("}"):
            if self.token.type is TokenType.EOF:
                raise ParseError("Unexpected end of input in block", self.token)
            body.append(self._parse_statement_list_item())
        end = self._expect_punct("}")
        return _mk_block(body, start.start, end.end)

    def _parse_variable_statement(self) -> Node:
        declaration = self._parse_variable_declaration()
        self._consume_semicolon()
        return declaration

    def _parse_variable_declaration(self, in_for: bool = False) -> Node:
        kind_token = self._advance()
        declarations = [self._parse_variable_declarator(in_for)]
        while self._eat_punct(","):
            declarations.append(self._parse_variable_declarator(in_for))
        return _mk_variable_declaration(
            declarations, kind_token.value, kind_token.start, declarations[-1].end
        )

    def _parse_variable_declarator(self, in_for: bool = False) -> Node:
        ident = self._parse_binding_target()
        init = None
        if self._eat_punct("="):
            init = self._parse_assignment_expression(no_in=in_for)
        end = init.end if init is not None else ident.end
        return _mk_variable_declarator(ident, init, ident.start, end)

    def _parse_binding_target(self) -> Node:
        token = self.token
        if token.type is _PUNCT:
            if token.value == "[":
                return self._reinterpret_as_pattern(self._parse_array_literal())
            if token.value == "{":
                return self._reinterpret_as_pattern(self._parse_object_literal())
        return self._parse_identifier_name()

    def _parse_identifier_name(self) -> Node:
        token = self.token
        if token.type is TokenType.IDENTIFIER or (
            token.type is TokenType.KEYWORD
            and token.value in ("let", "yield", "await", "of")
        ):
            self._advance()
            return _mk_identifier(token.value, token.start, token.end)
        raise ParseError(f"Expected identifier, got {token.value!r}", token)

    def _parse_function_declaration(self, allow_anonymous: bool = False) -> Node:
        return self._parse_function(declaration=True, allow_anonymous=allow_anonymous)

    def _parse_function(self, declaration: bool, allow_anonymous: bool = False) -> Node:
        start = self.token
        is_async = False
        if self.token.type is TokenType.IDENTIFIER and self.token.value == "async":
            is_async = True
            self._advance()
        self._expect_keyword("function")
        generator = self._eat_punct("*")
        ident = None
        if not self._at_punct("("):
            ident = self._parse_identifier_name()
        elif declaration and not allow_anonymous:
            raise ParseError("Function declarations require a name", self.token)
        params = self._parse_function_params()
        self.in_function += 1
        body = self._parse_block()
        self.in_function -= 1
        node_cls = _FunctionDeclaration if declaration else _FunctionExpression
        return node_cls(
            id=ident,
            params=params,
            body=body,
            generator=generator,
            # `async` is a reserved attribute name in Python only via keyword
            # use; fine as a plain attribute.
            start=start.start,
            end=body.end,
            **{"async": is_async},
        )

    def _parse_function_params(self) -> list[Node]:
        self._expect_punct("(")
        params: list[Node] = []
        while not self._at_punct(")"):
            if self._at_punct("..."):
                rest_start = self._advance()
                argument = self._parse_binding_target()
                params.append(
                    _RestElement(argument=argument, start=rest_start.start, end=argument.end)
                )
            else:
                target = self._parse_binding_target()
                if self._eat_punct("="):
                    default = self._parse_assignment_expression()
                    target = _AssignmentPattern(
                        left=target,
                        right=default,
                        start=target.start,
                        end=default.end,
                    )
                params.append(target)
            if not self._at_punct(")"):
                self._expect_punct(",")
        self._expect_punct(")")
        return params

    def _parse_class_declaration(self, allow_anonymous: bool = False) -> Node:
        return self._parse_class(declaration=True, allow_anonymous=allow_anonymous)

    def _parse_class(self, declaration: bool, allow_anonymous: bool = False) -> Node:
        start = self._expect_keyword("class")
        ident = None
        if self.token.type is TokenType.IDENTIFIER:
            ident = self._parse_identifier_name()
        elif declaration and not allow_anonymous:
            raise ParseError("Class declarations require a name", self.token)
        super_class = None
        if self._eat_keyword("extends"):
            super_class = self._parse_left_hand_side_expression()
        body = self._parse_class_body()
        node_cls = _ClassDeclaration if declaration else _ClassExpression
        return node_cls(
            id=ident,
            superClass=super_class,
            body=body,
            start=start.start,
            end=body.end,
        )

    def _parse_class_body(self) -> Node:
        start = self._expect_punct("{")
        members: list[Node] = []
        while not self._at_punct("}"):
            if self._eat_punct(";"):
                continue
            members.append(self._parse_class_member())
        end = self._expect_punct("}")
        return _ClassBody(body=members, start=start.start, end=end.end)

    def _parse_class_member(self) -> Node:
        start = self.token
        is_static = False
        if (
            self.token.type is TokenType.IDENTIFIER
            and self.token.value == "static"
            and not (self._peek().type is TokenType.PUNCTUATOR and self._peek().value in ("(", "="))
        ):
            is_static = True
            self._advance()
        kind = "method"
        is_async = False
        generator = False
        if (
            self.token.type is TokenType.IDENTIFIER
            and self.token.value in ("get", "set")
            and not (self._peek().type is TokenType.PUNCTUATOR and self._peek().value in ("(", "=", ";", "}"))
        ):
            kind = self.token.value
            self._advance()
        elif (
            self.token.type is TokenType.IDENTIFIER
            and self.token.value == "async"
            and not (self._peek().type is TokenType.PUNCTUATOR and self._peek().value in ("(", "=", ";", "}"))
        ):
            is_async = True
            self._advance()
        if self._eat_punct("*"):
            generator = True
        key, computed = self._parse_property_key()
        if self._at_punct("(") :
            params = self._parse_function_params()
            self.in_function += 1
            body = self._parse_block()
            self.in_function -= 1
            value = _FunctionExpression(
                id=None,
                params=params,
                body=body,
                generator=generator,
                start=key.start,
                end=body.end,
                **{"async": is_async},
            )
            if kind == "method" and not computed and key.type == "Identifier" and key.name == "constructor":
                kind = "constructor"
            return _MethodDefinition(
                key=key,
                value=value,
                kind=kind,
                static=is_static,
                computed=computed,
                start=start.start,
                end=body.end,
            )
        # Class field (ES2022); common enough in the wild to support.
        value = None
        if self._eat_punct("="):
            value = self._parse_assignment_expression()
        self._consume_semicolon()
        return _PropertyDefinition(
            key=key,
            value=value,
            static=is_static,
            computed=computed,
            start=start.start,
            end=value.end if value is not None else key.end,
        )

    def _parse_property_key(self) -> tuple[Node, bool]:
        token = self.token
        if self._eat_punct("["):
            key = self._parse_assignment_expression()
            self._expect_punct("]")
            return key, True
        if token.type in (TokenType.STRING, TokenType.NUMERIC):
            self._advance()
            return self._literal_from_token(token), False
        if token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD, TokenType.BOOLEAN, TokenType.NULL):
            self._advance()
            return _mk_identifier(token.value, token.start, token.end), False
        raise ParseError(f"Invalid property key {token.value!r}", token)

    def _parse_if(self) -> Node:
        start = self._expect_keyword("if")
        self._expect_punct("(")
        test = self._parse_expression()
        self._expect_punct(")")
        consequent = self._parse_statement()
        alternate = None
        if self._eat_keyword("else"):
            alternate = self._parse_statement()
        end = alternate.end if alternate is not None else consequent.end
        return _mk_if(test, consequent, alternate, start.start, end)

    def _parse_for(self) -> Node:
        start = self._expect_keyword("for")
        self._expect_punct("(")
        init: Node | None = None
        if self._at_punct(";"):
            self._advance()
        else:
            if self._at_keyword("var") or self._at_keyword("let") or self._at_keyword("const"):
                init = self._parse_variable_declaration(in_for=True)
            else:
                init = self._parse_expression(no_in=True)
            if self._at_keyword("in") or (
                self.token.type is TokenType.IDENTIFIER and self.token.value == "of"
            ):
                return self._parse_for_in_of(start, init)
            self._expect_punct(";")
        test = None if self._at_punct(";") else self._parse_expression()
        self._expect_punct(";")
        update = None if self._at_punct(")") else self._parse_expression()
        self._expect_punct(")")
        self.in_loop += 1
        body = self._parse_statement()
        self.in_loop -= 1
        return _ForStatement(
            init=init,
            test=test,
            update=update,
            body=body,
            start=start.start,
            end=body.end,
        )

    def _parse_for_in_of(self, start: Token, left: Node) -> Node:
        is_of = self.token.value == "of"
        self._advance()
        if left.type not in ("VariableDeclaration",):
            left = self._reinterpret_as_pattern(left)
        right = self._parse_assignment_expression() if is_of else self._parse_expression()
        self._expect_punct(")")
        self.in_loop += 1
        body = self._parse_statement()
        self.in_loop -= 1
        node_cls = _ForOfStatement if is_of else _ForInStatement
        return node_cls(
            left=left,
            right=right,
            body=body,
            start=start.start,
            end=body.end,
        )

    def _parse_while(self) -> Node:
        start = self._expect_keyword("while")
        self._expect_punct("(")
        test = self._parse_expression()
        self._expect_punct(")")
        self.in_loop += 1
        body = self._parse_statement()
        self.in_loop -= 1
        return _WhileStatement(test=test, body=body, start=start.start, end=body.end)

    def _parse_do_while(self) -> Node:
        start = self._expect_keyword("do")
        self.in_loop += 1
        body = self._parse_statement()
        self.in_loop -= 1
        self._expect_keyword("while")
        self._expect_punct("(")
        test = self._parse_expression()
        end = self._expect_punct(")")
        self._eat_punct(";")
        return _DoWhileStatement(body=body, test=test, start=start.start, end=end.end)

    def _parse_switch(self) -> Node:
        start = self._expect_keyword("switch")
        self._expect_punct("(")
        discriminant = self._parse_expression()
        self._expect_punct(")")
        self._expect_punct("{")
        cases: list[Node] = []
        self.in_switch += 1
        while not self._at_punct("}"):
            cases.append(self._parse_switch_case())
        self.in_switch -= 1
        end = self._expect_punct("}")
        return _SwitchStatement(
            discriminant=discriminant,
            cases=cases,
            start=start.start,
            end=end.end,
        )

    def _parse_switch_case(self) -> Node:
        start = self.token
        test = None
        if self._eat_keyword("case"):
            test = self._parse_expression()
        else:
            self._expect_keyword("default")
        self._expect_punct(":")
        consequent: list[Node] = []
        while not (
            self._at_punct("}") or self._at_keyword("case") or self._at_keyword("default")
        ):
            consequent.append(self._parse_statement_list_item())
        end = consequent[-1].end if consequent else start.end
        return _SwitchCase(test=test, consequent=consequent, start=start.start, end=end)

    def _parse_return(self) -> Node:
        start = self._expect_keyword("return")
        argument = None
        if (
            not self._at_punct(";")
            and not self._at_punct("}")
            and self.token.type is not TokenType.EOF
            and not self._newline_before()
        ):
            argument = self._parse_expression()
        self._consume_semicolon()
        end = argument.end if argument is not None else start.end
        return _mk_return(argument, start.start, end)

    def _parse_break_continue(self) -> Node:
        start = self._advance()
        label = None
        if self.token.type is TokenType.IDENTIFIER and not self._newline_before():
            label = self._parse_identifier_name()
        self._consume_semicolon()
        kind = "BreakStatement" if start.value == "break" else "ContinueStatement"
        end = label.end if label is not None else start.end
        return NODE_CLASSES[kind](label=label, start=start.start, end=end)

    def _parse_throw(self) -> Node:
        start = self._expect_keyword("throw")
        if self._newline_before():
            raise ParseError("Illegal newline after throw", self.token)
        argument = self._parse_expression()
        self._consume_semicolon()
        return _ThrowStatement(argument=argument, start=start.start, end=argument.end)

    def _parse_try(self) -> Node:
        start = self._expect_keyword("try")
        block = self._parse_block()
        handler = None
        finalizer = None
        if self._at_keyword("catch"):
            catch_start = self._advance()
            param = None
            if self._eat_punct("("):
                param = self._parse_binding_target()
                self._expect_punct(")")
            body = self._parse_block()
            handler = _CatchClause(
                param=param, body=body, start=catch_start.start, end=body.end
            )
        if self._eat_keyword("finally"):
            finalizer = self._parse_block()
        if handler is None and finalizer is None:
            raise ParseError("Missing catch or finally after try", self.token)
        end = (finalizer or handler).end
        return _TryStatement(
            block=block,
            handler=handler,
            finalizer=finalizer,
            start=start.start,
            end=end,
        )

    def _parse_debugger(self) -> Node:
        start = self._expect_keyword("debugger")
        self._consume_semicolon()
        return _DebuggerStatement(start=start.start, end=start.end)

    def _parse_with(self) -> Node:
        start = self._expect_keyword("with")
        self._expect_punct("(")
        obj = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return _WithStatement(object=obj, body=body, start=start.start, end=body.end)

    def _parse_labeled_statement(self) -> Node:
        label = self._parse_identifier_name()
        self._expect_punct(":")
        body = self._parse_statement()
        return _LabeledStatement(label=label, body=body, start=label.start, end=body.end)

    def _parse_expression_statement(self) -> Node:
        expression = self._parse_expression()
        self._consume_semicolon()
        return _mk_expression_statement(expression, expression.start, expression.end)

    # -- modules -------------------------------------------------------------

    def _parse_import_declaration(self) -> Node:
        start = self._expect_keyword("import")
        specifiers: list[Node] = []
        if self.token.type is TokenType.STRING:
            source_token = self._advance()
            self._consume_semicolon()
            return _ImportDeclaration(
                specifiers=specifiers,
                source=self._literal_from_token(source_token),
                start=start.start,
                end=source_token.end,
            )
        if self.token.type is TokenType.IDENTIFIER:
            local = self._parse_identifier_name()
            specifiers.append(
                _ImportDefaultSpecifier(local=local, start=local.start, end=local.end)
            )
            if self._eat_punct(","):
                self._parse_import_rest(specifiers)
        else:
            self._parse_import_rest(specifiers)
        if not (self.token.type is TokenType.IDENTIFIER and self.token.value == "from"):
            raise ParseError("Expected 'from' in import declaration", self.token)
        self._advance()
        if self.token.type is not TokenType.STRING:
            raise ParseError("Expected module source string", self.token)
        source_token = self._advance()
        self._consume_semicolon()
        return _ImportDeclaration(
            specifiers=specifiers,
            source=self._literal_from_token(source_token),
            start=start.start,
            end=source_token.end,
        )

    def _parse_import_rest(self, specifiers: list[Node]) -> None:
        if self._eat_punct("*"):
            if not (self.token.type is TokenType.IDENTIFIER and self.token.value == "as"):
                raise ParseError("Expected 'as' in namespace import", self.token)
            self._advance()
            local = self._parse_identifier_name()
            specifiers.append(
                _ImportNamespaceSpecifier(local=local, start=local.start, end=local.end)
            )
            return
        self._expect_punct("{")
        while not self._at_punct("}"):
            imported = self._parse_identifier_name()
            local = imported
            if self.token.type is TokenType.IDENTIFIER and self.token.value == "as":
                self._advance()
                local = self._parse_identifier_name()
            specifiers.append(
                _ImportSpecifier(
                    imported=imported,
                    local=local,
                    start=imported.start,
                    end=local.end,
                )
            )
            if not self._at_punct("}"):
                self._expect_punct(",")
        self._expect_punct("}")

    def _parse_export_declaration(self) -> Node:
        start = self._expect_keyword("export")
        if self._eat_keyword("default"):
            if self._at_keyword("function") or (
                self.token.type is TokenType.IDENTIFIER
                and self.token.value == "async"
                and self._peek().value == "function"
            ):
                declaration = self._parse_function_declaration(allow_anonymous=True)
            elif self._at_keyword("class"):
                declaration = self._parse_class_declaration(allow_anonymous=True)
            else:
                declaration = self._parse_assignment_expression()
                self._consume_semicolon()
            return _ExportDefaultDeclaration(
                declaration=declaration,
                start=start.start,
                end=declaration.end,
            )
        if self._at_punct("*"):
            self._advance()
            exported = None
            if self.token.type is TokenType.IDENTIFIER and self.token.value == "as":
                self._advance()
                exported = self._parse_identifier_name()
            if self.token.type is TokenType.IDENTIFIER and self.token.value == "from":
                self._advance()
            source_token = self._advance()
            self._consume_semicolon()
            return _ExportAllDeclaration(
                exported=exported,
                source=self._literal_from_token(source_token),
                start=start.start,
                end=source_token.end,
            )
        if self._at_punct("{"):
            self._expect_punct("{")
            specifiers = []
            while not self._at_punct("}"):
                local = self._parse_identifier_name()
                exported = local
                if self.token.type is TokenType.IDENTIFIER and self.token.value == "as":
                    self._advance()
                    exported = self._parse_identifier_name()
                specifiers.append(
                    _ExportSpecifier(
                        local=local,
                        exported=exported,
                        start=local.start,
                        end=exported.end,
                    )
                )
                if not self._at_punct("}"):
                    self._expect_punct(",")
            end = self._expect_punct("}")
            source = None
            if self.token.type is TokenType.IDENTIFIER and self.token.value == "from":
                self._advance()
                source = self._literal_from_token(self._advance())
            self._consume_semicolon()
            return _ExportNamedDeclaration(
                declaration=None,
                specifiers=specifiers,
                source=source,
                start=start.start,
                end=end.end,
            )
        declaration = self._parse_statement_list_item()
        return _ExportNamedDeclaration(
            declaration=declaration,
            specifiers=[],
            source=None,
            start=start.start,
            end=declaration.end,
        )

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self, no_in: bool = False) -> Node:
        expression = self._parse_assignment_expression(no_in=no_in)
        if self._at_punct(","):
            expressions = [expression]
            while self._eat_punct(","):
                expressions.append(self._parse_assignment_expression(no_in=no_in))
            return _mk_sequence(expressions, expressions[0].start, expressions[-1].end)
        return expression

    def _parse_assignment_expression(self, no_in: bool = False) -> Node:
        token = self.token
        ttype = token.type
        # Arrow-function heads start with an identifier or "(" — skip the
        # probe entirely for every other token kind.
        if ttype is _IDENTIFIER or (ttype is _PUNCT and token.value == "("):
            arrow = self._try_parse_arrow_function()
            if arrow is not None:
                return arrow
        elif ttype is _KEYWORD and token.value == "yield" and self.in_function:
            return self._parse_yield()
        left = self._parse_conditional_expression(no_in=no_in)
        if self.token.type is TokenType.PUNCTUATOR and self.token.value in _ASSIGNMENT_OPERATORS:
            operator = self._advance().value
            if operator == "=":
                left = self._reinterpret_as_pattern(left, assignment=True)
            right = self._parse_assignment_expression(no_in=no_in)
            return _mk_assignment(operator, left, right, left.start, right.end)
        return left

    def _parse_yield(self) -> Node:
        start = self._expect_keyword("yield")
        delegate = self._eat_punct("*")
        argument = None
        if (
            not self._newline_before()
            and not self._at_punct(")")
            and not self._at_punct("]")
            and not self._at_punct("}")
            and not self._at_punct(",")
            and not self._at_punct(";")
            and self.token.type is not TokenType.EOF
        ):
            argument = self._parse_assignment_expression()
        end = argument.end if argument is not None else start.end
        return _YieldExpression(
            argument=argument, delegate=delegate, start=start.start, end=end
        )

    def _try_parse_arrow_function(self) -> Node | None:
        """Detect `x => ...`, `(a, b) => ...` and `async (...) => ...`."""
        token = self.token
        is_async = False
        offset = 0
        if (
            token.type is TokenType.IDENTIFIER
            and token.value == "async"
            and self._peek().line == token.line
            and (
                self._peek().type is TokenType.IDENTIFIER
                or (self._peek().type is TokenType.PUNCTUATOR and self._peek().value == "(")
            )
        ):
            # Only treat as async-arrow if the parameter list is followed by =>.
            is_async = True
            offset = 1
        probe = self._peek(offset) if offset else token
        if probe.type is TokenType.IDENTIFIER:
            after = self._peek(offset + 1)
            if after.type is TokenType.PUNCTUATOR and after.value == "=>":
                if is_async:
                    self._advance()
                param = self._parse_identifier_name()
                return self._finish_arrow([param], is_async)
            return None
        if probe.type is TokenType.PUNCTUATOR and probe.value == "(":
            close = self._find_matching_paren(self.index + offset)
            if close is None:
                return None
            after = self.tokens[min(close + 1, len(self.tokens) - 1)]
            if not (after.type is TokenType.PUNCTUATOR and after.value == "=>"):
                return None
            if is_async:
                self._advance()
            params = self._parse_function_params()
            return self._finish_arrow(params, is_async)
        return None

    def _find_matching_paren(self, open_index: int) -> int | None:
        matches = self._paren_match
        if matches is None:
            matches = self._paren_match = self._match_brackets()
        return matches.get(open_index)

    def _finish_arrow(self, params: list[Node], is_async: bool) -> Node:
        self._expect_punct("=>")
        if self._at_punct("{"):
            self.in_function += 1
            body = self._parse_block()
            self.in_function -= 1
            expression = False
        else:
            self.in_function += 1
            body = self._parse_assignment_expression()
            self.in_function -= 1
            expression = True
        start = params[0].start if params else body.start
        return _ArrowFunctionExpression(
            id=None,
            params=params,
            body=body,
            expression=expression,
            generator=False,
            start=start,
            end=body.end,
            **{"async": is_async},
        )

    def _parse_conditional_expression(self, no_in: bool = False) -> Node:
        test = self._parse_binary_expression(0, no_in=no_in)
        if self._eat_punct("?"):
            consequent = self._parse_assignment_expression()
            self._expect_punct(":")
            alternate = self._parse_assignment_expression(no_in=no_in)
            return _mk_conditional(test, consequent, alternate, test.start, alternate.end)
        return test

    def _binary_op_precedence(self, no_in: bool) -> tuple[str, int] | None:
        token = self.token
        ttype = token.type
        if ttype is _PUNCT:
            precedence = _BINARY_PRECEDENCE.get(token.value)
            if precedence is not None:
                return token.value, precedence
            return None
        if ttype is _KEYWORD and token.value in ("instanceof", "in"):
            if token.value == "in" and no_in:
                return None
            return token.value, _BINARY_PRECEDENCE[token.value]
        return None

    def _parse_binary_expression(self, min_precedence: int, no_in: bool = False) -> Node:
        left = self._parse_unary_expression()
        while True:
            op_info = self._binary_op_precedence(no_in)
            if op_info is None:
                break
            operator, precedence = op_info
            if precedence < min_precedence:
                break
            self._advance()
            # ** is right-associative; everything else left-associative.
            next_min = precedence if operator == "**" else precedence + 1
            right = self._parse_binary_expression(next_min, no_in=no_in)
            make = _mk_logical if operator in ("&&", "||", "??") else _mk_binary
            left = make(operator, left, right, left.start, right.end)
        return left

    def _parse_unary_expression(self) -> Node:
        token = self.token
        if (
            token.type is TokenType.PUNCTUATOR and token.value in ("+", "-", "~", "!")
        ) or (
            token.type is TokenType.KEYWORD and token.value in ("typeof", "void", "delete")
        ):
            self._advance()
            argument = self._parse_unary_expression()
            return _mk_unary(token.value, argument, True, token.start, argument.end)
        if token.type is TokenType.PUNCTUATOR and token.value in ("++", "--"):
            self._advance()
            argument = self._parse_unary_expression()
            return _mk_update(token.value, argument, True, token.start, argument.end)
        if token.type is TokenType.KEYWORD and token.value == "await" and self.in_function:
            self._advance()
            argument = self._parse_unary_expression()
            return _AwaitExpression(
                argument=argument, start=token.start, end=argument.end
            )
        expression = self._parse_postfix_expression()
        return expression

    def _parse_postfix_expression(self) -> Node:
        expression = self._parse_left_hand_side_expression(allow_call=True)
        token = self.token
        if (
            token.type is _PUNCT
            and token.value in ("++", "--")
            and not self._newline_before()
        ):
            operator = self._advance()
            expression = _mk_update(
                operator.value, expression, False, expression.start, operator.end
            )
        return expression

    def _parse_left_hand_side_expression(self, allow_call: bool = True) -> Node:
        if self._at_keyword("new"):
            expression = self._parse_new_expression()
        else:
            expression = self._parse_primary_expression()
        # Suffix loop: one token fetch per iteration, dispatch on the
        # punctuator value directly instead of chained _at_punct probes.
        while True:
            token = self.token
            ttype = token.type
            if ttype is _PUNCT:
                value = token.value
                if value == ".":
                    self._advance()
                    prop = self._parse_member_property_name()
                    expression = _mk_member(
                        expression, prop, False, expression.start, prop.end
                    )
                elif value == "(":
                    if not allow_call:
                        break
                    arguments = self._parse_arguments()
                    expression = _mk_call(
                        expression,
                        arguments,
                        expression.start,
                        self.tokens[self.index - 1].end,
                    )
                elif value == "[":
                    self._advance()
                    prop = self._parse_expression()
                    end = self._expect_punct("]")
                    expression = _mk_member(
                        expression, prop, True, expression.start, end.end
                    )
                elif value == "?.":
                    self._advance()
                    if self._at_punct("("):
                        arguments = self._parse_arguments()
                        expression = _mk_call_optional(
                            expression,
                            arguments,
                            True,
                            expression.start,
                            self.tokens[self.index - 1].end,
                        )
                    elif self._at_punct("["):
                        self._advance()
                        prop = self._parse_expression()
                        end = self._expect_punct("]")
                        expression = _mk_member_optional(
                            expression, prop, True, True, expression.start, end.end
                        )
                    else:
                        prop = self._parse_member_property_name()
                        expression = _mk_member_optional(
                            expression, prop, False, True, expression.start, prop.end
                        )
                else:
                    break
            elif ttype is TokenType.TEMPLATE:
                quasi = self._parse_template_literal()
                expression = _TaggedTemplateExpression(
                    tag=expression,
                    quasi=quasi,
                    start=expression.start,
                    end=quasi.end,
                )
            else:
                break
        return expression

    def _parse_member_property_name(self) -> Node:
        token = self.token
        if token.type in (
            TokenType.IDENTIFIER,
            TokenType.KEYWORD,
            TokenType.BOOLEAN,
            TokenType.NULL,
        ):
            self._advance()
            return _mk_identifier(token.value, token.start, token.end)
        raise ParseError(f"Expected property name, got {token.value!r}", token)

    def _parse_new_expression(self) -> Node:
        start = self._expect_keyword("new")
        if self._at_punct("."):
            self._advance()
            prop = self._parse_identifier_name()
            return _MetaProperty(
                meta=_Identifier(name="new", start=start.start, end=start.end),
                property=prop,
                start=start.start,
                end=prop.end,
            )
        callee = self._parse_left_hand_side_expression(allow_call=False)
        arguments: list[Node] = []
        end = callee.end
        if self._at_punct("("):
            arguments = self._parse_arguments()
            end = self.tokens[self.index - 1].end
        return _NewExpression(
            callee=callee,
            arguments=arguments,
            start=start.start,
            end=end,
        )

    def _parse_arguments(self) -> list[Node]:
        self._expect_punct("(")
        arguments: list[Node] = []
        while not self._at_punct(")"):
            if self._at_punct("..."):
                spread_start = self._advance()
                argument = self._parse_assignment_expression()
                arguments.append(
                    _mk_spread(argument, spread_start.start, argument.end)
                )
            else:
                arguments.append(self._parse_assignment_expression())
            if not self._at_punct(")"):
                self._expect_punct(",")
        self._expect_punct(")")
        return arguments

    def _parse_primary_expression(self) -> Node:
        token = self.token
        if token.type is TokenType.NUMERIC or token.type is TokenType.STRING:
            self._advance()
            return self._literal_from_token(token)
        if token.type is TokenType.BOOLEAN:
            self._advance()
            return _mk_literal(
                token.value == "true", token.value, token.start, token.end
            )
        if token.type is TokenType.NULL:
            self._advance()
            return _mk_literal(None, "null", token.start, token.end)
        if token.type is TokenType.REGULAR_EXPRESSION:
            self._advance()
            return _Literal(
                value=None,
                raw=token.value,
                regex={"pattern": token.extra["pattern"], "flags": token.extra["flags"]},
                start=token.start,
                end=token.end,
            )
        if token.type is TokenType.TEMPLATE:
            return self._parse_template_literal()
        if token.type is TokenType.IDENTIFIER:
            if (
                token.value == "async"
                and self._peek().type is TokenType.KEYWORD
                and self._peek().value == "function"
                and self._peek().line == token.line
            ):
                return self._parse_function(declaration=False)
            self._advance()
            return _mk_identifier(token.value, token.start, token.end)
        if token.type is TokenType.KEYWORD:
            if token.value == "this":
                self._advance()
                return _ThisExpression(start=token.start, end=token.end)
            if token.value == "super":
                self._advance()
                return _Super(start=token.start, end=token.end)
            if token.value == "function":
                return self._parse_function(declaration=False)
            if token.value == "class":
                return self._parse_class(declaration=False)
            if token.value in ("let", "yield", "await", "import"):
                if token.value == "import":
                    self._advance()
                    return _Import(start=token.start, end=token.end)
                self._advance()
                return _mk_identifier(token.value, token.start, token.end)
        if token.type is TokenType.PUNCTUATOR:
            if token.value == "(":
                self._advance()
                expression = self._parse_expression()
                self._expect_punct(")")
                return expression
            if token.value == "[":
                return self._parse_array_literal()
            if token.value == "{":
                return self._parse_object_literal()
        if (
            token.type is TokenType.IDENTIFIER
            and token.value == "async"
            and self._peek().type is TokenType.KEYWORD
            and self._peek().value == "function"
        ):
            return self._parse_function(declaration=False)
        raise ParseError(f"Unexpected token {token.value!r}", token)

    def _literal_from_token(self, token: Token) -> Node:
        if token.type is TokenType.NUMERIC:
            raw = token.value
            # Fast path: plain decimal integers (the overwhelming case).
            # Mirrors the slow path exactly — including float round-trip
            # semantics for huge literals and legacy octal handling.
            if raw.isdigit() and (raw[0] != "0" or raw == "0"):
                value = float(raw)
                if value.is_integer():
                    value = int(value)
                return _mk_literal(value, raw, token.start, token.end)
            try:
                lowered = raw.lower()
                if lowered.startswith("0x"):
                    value: float | int = int(raw, 16)
                elif lowered.startswith("0o"):
                    value = int(raw[2:], 8)
                elif lowered.startswith("0b"):
                    value = int(raw[2:], 2)
                elif raw.startswith("0") and raw.isdigit() and raw != "0" and all(c in "01234567" for c in raw[1:]):
                    value = int(raw, 8)
                else:
                    value = float(raw)
                    if value.is_integer() and "e" not in lowered and "." not in raw:
                        value = int(value)
            except ValueError:
                value = 0
            return _mk_literal(value, raw, token.start, token.end)
        # String literal: decode escapes for `value`, keep raw.
        return _mk_literal(
            _decode_string_literal(token.value), token.value, token.start, token.end
        )

    def _parse_array_literal(self) -> Node:
        start = self._expect_punct("[")
        elements: list[Node | None] = []
        while not self._at_punct("]"):
            if self._at_punct(","):
                self._advance()
                elements.append(None)
                continue
            if self._at_punct("..."):
                spread_start = self._advance()
                argument = self._parse_assignment_expression()
                elements.append(
                    _mk_spread(argument, spread_start.start, argument.end)
                )
            else:
                elements.append(self._parse_assignment_expression())
            if not self._at_punct("]"):
                self._expect_punct(",")
        end = self._expect_punct("]")
        return _mk_array(elements, start.start, end.end)

    def _parse_object_literal(self) -> Node:
        start = self._expect_punct("{")
        properties: list[Node] = []
        while not self._at_punct("}"):
            properties.append(self._parse_object_property())
            if not self._at_punct("}"):
                self._expect_punct(",")
        end = self._expect_punct("}")
        return _mk_object(properties, start.start, end.end)

    def _parse_object_property(self) -> Node:
        token = self.token
        if self._at_punct("..."):
            spread_start = self._advance()
            argument = self._parse_assignment_expression()
            return _mk_spread(argument, spread_start.start, argument.end)
        is_async = False
        generator = False
        kind = "init"
        if (
            token.type is TokenType.IDENTIFIER
            and token.value in ("get", "set")
            and not (
                self._peek().type is TokenType.PUNCTUATOR
                and self._peek().value in (",", ":", "}", "(")
            )
        ):
            kind = token.value
            self._advance()
        elif (
            token.type is TokenType.IDENTIFIER
            and token.value == "async"
            and not (
                self._peek().type is TokenType.PUNCTUATOR
                and self._peek().value in (",", ":", "}", "(")
            )
        ):
            is_async = True
            self._advance()
        if self._eat_punct("*"):
            generator = True
        key, computed = self._parse_property_key()
        if kind in ("get", "set") or self._at_punct("("):
            params = self._parse_function_params()
            self.in_function += 1
            body = self._parse_block()
            self.in_function -= 1
            value = _FunctionExpression(
                id=None,
                params=params,
                body=body,
                generator=generator,
                start=key.start,
                end=body.end,
                **{"async": is_async},
            )
            return _mk_property(
                key,
                value,
                kind if kind in ("get", "set") else "init",
                kind == "init",
                False,
                computed,
                key.start,
                body.end,
            )
        if self._eat_punct(":"):
            value = self._parse_assignment_expression()
            return _mk_property(
                key, value, "init", False, False, computed, key.start, value.end
            )
        # Shorthand { x } or shorthand-with-default { x = 1 } (pattern form).
        value = key
        if self._at_punct("="):
            self._advance()
            default = self._parse_assignment_expression()
            value = _AssignmentPattern(
                left=key, right=default, start=key.start, end=default.end
            )
        return _mk_property(
            key, value, "init", False, True, computed, key.start, value.end
        )

    def _parse_template_literal(self) -> Node:
        token = self.token
        if token.type is not TokenType.TEMPLATE:
            raise ParseError("Expected template literal", token)
        self._advance()
        raw = token.value
        quasis: list[Node] = []
        expressions: list[Node] = []
        # Split the raw template on top-level ${...} substitutions.  The
        # lexer's splitter understands strings, comments and nested
        # templates inside substitutions, so `${"}"}` cannot desync it.
        chunks, exprs = split_template(raw)
        for pos, chunk in enumerate(chunks):
            quasis.append(
                _TemplateElement(
                    value={"raw": chunk, "cooked": _decode_template_chunk(chunk)},
                    tail=pos == len(chunks) - 1,
                    start=token.start,
                    end=token.end,
                )
            )
        for expr_src in exprs:
            sub = Parser(expr_src)
            sub.in_function = self.in_function
            expression = sub._parse_expression()
            if sub.token.type is not TokenType.EOF:
                raise ParseError("Trailing tokens in template substitution", sub.token)
            # Offset positions so they stay within the outer token's range.
            expression.start = token.start
            expression.end = token.end
            expressions.append(expression)
        return _TemplateLiteral(
            quasis=quasis,
            expressions=expressions,
            start=token.start,
            end=token.end,
        )

    # -- patterns ------------------------------------------------------------

    def _reinterpret_as_pattern(self, node: Node, assignment: bool = False) -> Node:
        """Convert an expression parsed in a binding position into a pattern."""
        if node.type == "ArrayExpression":
            elements = []
            for element in node.elements:
                if element is None:
                    elements.append(None)
                elif element.type == "SpreadElement":
                    elements.append(
                        _RestElement(
                            argument=self._reinterpret_as_pattern(element.argument, assignment),
                            start=element.start,
                            end=element.end,
                        )
                    )
                else:
                    elements.append(self._reinterpret_as_pattern(element, assignment))
            return _ArrayPattern(elements=elements, start=node.start, end=node.end)
        if node.type == "ObjectExpression":
            properties = []
            for prop in node.properties:
                if prop.type == "SpreadElement":
                    properties.append(
                        _RestElement(
                            argument=self._reinterpret_as_pattern(prop.argument, assignment),
                            start=prop.start,
                            end=prop.end,
                        )
                    )
                else:
                    properties.append(
                        _Property(
                            key=prop.key,
                            value=self._reinterpret_as_pattern(prop.value, assignment),
                            kind="init",
                            method=False,
                            shorthand=prop.shorthand,
                            computed=prop.computed,
                            start=prop.start,
                            end=prop.end,
                        )
                    )
            return _ObjectPattern(properties=properties, start=node.start, end=node.end)
        if node.type == "AssignmentExpression" and node.operator == "=":
            return _AssignmentPattern(
                left=self._reinterpret_as_pattern(node.left, assignment),
                right=node.right,
                start=node.start,
                end=node.end,
            )
        if node.type in ("Identifier", "MemberExpression", "AssignmentPattern", "ArrayPattern", "ObjectPattern", "RestElement"):
            return node
        if assignment:
            # e.g. `(a, b) = ...` is invalid but parenthesised member chains are fine.
            return node
        raise ParseError(f"Invalid binding target of type {node.type}")


# Statement dispatch over interned keyword values: one shared table of
# unbound methods instead of a dict literal rebuilt on every statement.
_STATEMENT_KEYWORDS = {
    "var": Parser._parse_variable_statement,
    "let": Parser._parse_variable_statement,
    "const": Parser._parse_variable_statement,
    "function": Parser._parse_function_declaration,
    "class": Parser._parse_class_declaration,
    "if": Parser._parse_if,
    "for": Parser._parse_for,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "switch": Parser._parse_switch,
    "return": Parser._parse_return,
    "break": Parser._parse_break_continue,
    "continue": Parser._parse_break_continue,
    "throw": Parser._parse_throw,
    "try": Parser._parse_try,
    "debugger": Parser._parse_debugger,
    "with": Parser._parse_with,
}


def _decode_string_literal(raw: str) -> str:
    """Decode a quoted JS string literal into its runtime value."""
    return _decode_escapes(raw[1:-1])


def _decode_template_chunk(raw: str) -> str:
    return _decode_escapes(raw)


_SIMPLE_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "'": "'",
    '"': '"',
    "`": "`",
    "\\": "\\",
    "\n": "",
    "\r": "",
}


def _decode_escapes(text: str) -> str:
    if "\\" not in text:
        return text
    out: list[str] = []
    index = 0
    length = len(text)
    find = text.find
    while index < length:
        backslash = find("\\", index)
        if backslash == -1:
            out.append(text[index:])
            break
        if backslash > index:
            out.append(text[index:backslash])
        index = backslash + 1
        if index >= length:
            break
        esc = text[index]
        if esc == "x" and index + 2 < length + 1:
            hex_digits = text[index + 1 : index + 3]
            try:
                out.append(chr(int(hex_digits, 16)))
                index += 3
                continue
            except ValueError:
                pass
        if esc == "u":
            if index + 1 < length and text[index + 1] == "{":
                close = text.find("}", index + 1)
                if close != -1:
                    try:
                        out.append(chr(int(text[index + 2 : close], 16)))
                        index = close + 1
                        continue
                    except ValueError:
                        pass
            hex_digits = text[index + 1 : index + 5]
            try:
                out.append(chr(int(hex_digits, 16)))
                index += 5
                continue
            except ValueError:
                pass
        out.append(_SIMPLE_ESCAPES.get(esc, esc))
        index += 1
    return "".join(out)


def parse(source: str) -> Node:
    """Parse JavaScript source text into an ESTree ``Program`` node."""
    return Parser(source).parse_program()
