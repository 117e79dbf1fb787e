"""Recursive-descent parser for the SQL++ subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SqlppSyntaxError
from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
    FromTerm,
    FunctionDefinition,
    GroupKey,
    IndexAccess,
    LetClause,
    Literal,
    MissingLiteral,
    ObjectConstructor,
    OrderItem,
    Projection,
    SelectBlock,
    Star,
    Subquery,
    UnaryOp,
    VarRef,
)
from .lexer import Token, tokenize
from .statements import (
    ConnectFeed,
    CreateDataset,
    CreateFeed,
    CreateFunction,
    CreateIndex,
    CreateType,
    DeleteStatement,
    InsertStatement,
    QueryStatement,
    StartFeed,
    Statement,
    StopFeed,
)

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------- utilities

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str) -> SqlppSyntaxError:
        tok = self.current
        shown = tok.text or "<eof>"
        return SqlppSyntaxError(
            f"{message} (found {shown!r})", tok.line, tok.column
        )

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise self.error(f"expected {word.upper()}")
        return self.advance()

    def expect_punct(self, text: str) -> Token:
        if not self.current.is_punct(text):
            raise self.error(f"expected {text!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.kind == "ident":
            return self.advance().text
        # allow non-reserved use of a few keyword-ish names as identifiers
        if self.current.kind == "keyword" and self.current.text in ("value", "key"):
            return self.advance().text
        raise self.error("expected an identifier")

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def accept_punct(self, text: str) -> bool:
        if self.current.is_punct(text):
            self.advance()
            return True
        return False

    def collect_hints(self) -> Tuple[str, ...]:
        hints = []
        while self.current.kind == "hint":
            hints.append(self.advance().text)
        return tuple(hints)

    # ------------------------------------------------------------ expressions

    def parse_expression(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.current.is_keyword("or"):
            self.advance()
            left = BinaryOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.current.is_keyword("and"):
            self.advance()
            left = BinaryOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.current.is_keyword("not"):
            self.advance()
            return UnaryOp("not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        tok = self.current
        if tok.kind == "punct" and tok.text in _COMPARISON_OPS:
            op = self.advance().text
            return BinaryOp(op, left, self.parse_additive())
        if tok.is_keyword("in"):
            self.advance()
            return BinaryOp("in", left, self.parse_additive())
        if tok.is_keyword("not") and self.peek().is_keyword("in"):
            self.advance()
            self.advance()
            return BinaryOp("not_in", left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.current.kind == "punct" and self.current.text in ("+", "-"):
            op = self.advance().text
            left = BinaryOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.current.kind == "punct" and self.current.text in ("*", "/", "%"):
            op = self.advance().text
            left = BinaryOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.current.is_punct("-"):
            self.advance()
            return UnaryOp("-", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self, allow_star: bool = False) -> Expr:
        expr = self.parse_primary()
        while True:
            if self.current.is_punct("."):
                if allow_star and self.peek().is_punct("*"):
                    self.advance()
                    self.advance()
                    return Star(expr)
                self.advance()
                field = self._path_component()
                expr = FieldAccess(expr, field)
            elif self.current.is_punct("["):
                self.advance()
                index = self.parse_expression()
                self.expect_punct("]")
                expr = IndexAccess(expr, index)
            else:
                return expr

    def _path_component(self) -> str:
        if self.current.kind in ("ident", "string"):
            return self.advance().text
        if self.current.kind == "keyword":  # keywords allowed as field names
            return self.advance().text
        raise self.error("expected a field name after '.'")

    def parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "number":
            self.advance()
            text = tok.text
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if tok.kind == "string":
            self.advance()
            return Literal(tok.text)
        if tok.is_keyword("true"):
            self.advance()
            return Literal(True)
        if tok.is_keyword("false"):
            self.advance()
            return Literal(False)
        if tok.is_keyword("null"):
            self.advance()
            return Literal(None)
        if tok.is_keyword("missing"):
            self.advance()
            return MissingLiteral()
        if tok.is_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            inner = self.parse_query_expression()
            self.expect_punct(")")
            return Exists(inner)
        if tok.is_keyword("case"):
            return self.parse_case()
        if tok.is_keyword("select"):
            # bare select block as an expression (inside EXISTS etc.)
            return self.parse_select_block()
        if tok.is_punct("$"):
            # Figure 20: statement parameters of predeployed queries
            self.advance()
            return VarRef("$" + self.expect_ident())
        if tok.is_punct("("):
            self.advance()
            if self.current.is_keyword("select") or self.current.is_keyword("let"):
                inner = self.parse_query_expression()
                self.expect_punct(")")
                if isinstance(inner, SelectBlock):
                    return Subquery(inner)
                return inner
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if tok.is_punct("{"):
            return self.parse_object_constructor()
        if tok.is_punct("["):
            return self.parse_array_constructor()
        if tok.kind == "ident" or (
            tok.kind == "keyword" and tok.text in ("value", "key")
        ):
            name = self.advance().text
            if self.current.is_punct("#"):  # library#function(...)
                self.advance()
                fn_name = self.expect_ident()
                args = self.parse_call_args()
                return Call(fn_name, tuple(args), library=name)
            if self.current.is_punct("("):
                args = self.parse_call_args()
                return Call(name, tuple(args))
            return VarRef(name)
        raise self.error("expected an expression")

    def parse_call_args(self) -> List[Expr]:
        self.expect_punct("(")
        args: List[Expr] = []
        if self.current.is_punct("*"):  # count(*)
            self.advance()
            args.append(Star(VarRef("*")))
            self.expect_punct(")")
            return args
        if not self.current.is_punct(")"):
            args.append(self.parse_query_expression())
            while self.accept_punct(","):
                args.append(self.parse_query_expression())
        self.expect_punct(")")
        return args

    def parse_case(self) -> Expr:
        self.expect_keyword("case")
        operand: Optional[Expr] = None
        if not self.current.is_keyword("when"):
            operand = self.parse_expression()
        whens: List[Tuple[Expr, Expr]] = []
        while self.accept_keyword("when"):
            cond = self.parse_expression()
            self.expect_keyword("then")
            value = self.parse_query_expression()
            whens.append((cond, value))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default: Optional[Expr] = None
        if self.accept_keyword("else"):
            default = self.parse_query_expression()
        self.expect_keyword("end")
        return CaseExpr(operand, tuple(whens), default)

    def parse_object_constructor(self) -> Expr:
        self.expect_punct("{")
        fields: List[Tuple[str, Expr]] = []
        if not self.current.is_punct("}"):
            fields.append(self._object_field())
            while self.accept_punct(","):
                fields.append(self._object_field())
        self.expect_punct("}")
        return ObjectConstructor(tuple(fields))

    def _object_field(self) -> Tuple[str, Expr]:
        if self.current.kind in ("string", "ident"):
            name = self.advance().text
        elif self.current.kind == "keyword":
            name = self.advance().text
        else:
            raise self.error("expected an object field name")
        self.expect_punct(":")
        return name, self.parse_query_expression()

    def parse_array_constructor(self) -> Expr:
        self.expect_punct("[")
        items: List[Expr] = []
        if not self.current.is_punct("]"):
            items.append(self.parse_query_expression())
            while self.accept_punct(","):
                items.append(self.parse_query_expression())
        self.expect_punct("]")
        return ArrayConstructor(tuple(items))

    # --------------------------------------------------------------- queries

    def parse_query_expression(self) -> Expr:
        """An expression that may be a (LET-prefixed) SELECT block."""
        if self.current.is_keyword("let"):
            lets = self.parse_let_clauses()
            if self.current.is_keyword("select"):
                block = self.parse_select_block()
                block.lets = lets + block.lets
                return block
            # LET over a plain expression: desugar via a trivial select
            expr = self.parse_expression()
            block = SelectBlock(select_value=expr, lets=lets)
            return block
        if self.current.is_keyword("select"):
            return self.parse_select_block()
        return self.parse_expression()

    def parse_let_clauses(self) -> List[LetClause]:
        self.expect_keyword("let")
        lets = [self._one_let()]
        while self.accept_punct(","):
            lets.append(self._one_let())
        return lets

    def _one_let(self) -> LetClause:
        var = self.expect_ident()
        self.expect_punct("=")
        return LetClause(var, self.parse_query_expression())

    def parse_select_block(self) -> SelectBlock:
        self.expect_keyword("select")
        block = SelectBlock()
        block.hints = self.collect_hints()
        if self.accept_keyword("distinct"):
            block.distinct = True
        if self.accept_keyword("value"):
            block.select_value = self.parse_query_expression()
        else:
            block.projections.append(self.parse_projection())
            while self.accept_punct(","):
                block.projections.append(self.parse_projection())
        if self.accept_keyword("from"):
            block.from_terms.append(self.parse_from_term())
            while self.accept_punct(","):
                block.from_terms.append(self.parse_from_term())
        if self.current.is_keyword("let"):
            block.post_lets = self.parse_let_clauses()
        if self.accept_keyword("where"):
            block.where = self.parse_expression()
        if self.current.is_keyword("group"):
            self.advance()
            self.expect_keyword("by")
            block.group_keys.append(self.parse_group_key())
            while self.accept_punct(","):
                block.group_keys.append(self.parse_group_key())
        if self.current.is_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            block.order_items.append(self.parse_order_item())
            while self.accept_punct(","):
                block.order_items.append(self.parse_order_item())
        if self.accept_keyword("limit"):
            block.limit = self.parse_expression()
        return block

    def parse_projection(self) -> Projection:
        expr = self.parse_projection_expr()
        alias: Optional[str] = None
        if isinstance(expr, Star):
            return Projection(expr)
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        elif self.current.kind == "ident":
            alias = self.advance().text
        return Projection(expr, alias)

    def parse_projection_expr(self) -> Expr:
        """Like parse_expression but allows a trailing ``.*``."""
        # Star can only appear at the end of a postfix chain with no
        # surrounding operators, so try postfix-with-star first.
        saved = self.pos
        try:
            expr = self.parse_postfix(allow_star=True)
        except SqlppSyntaxError:
            self.pos = saved
            return self.parse_query_expression()
        if isinstance(expr, Star):
            return expr
        # Not a star: re-parse as a full expression (operators may follow).
        self.pos = saved
        return self.parse_query_expression()

    def parse_from_term(self) -> FromTerm:
        source = self.parse_expression()
        hints = self.collect_hints()
        var: Optional[str] = None
        if self.accept_keyword("as"):
            var = self.expect_ident()
        elif self.current.kind == "ident":
            var = self.advance().text
        if var is None:
            if isinstance(source, VarRef):
                var = source.name
            else:
                raise self.error("FROM term requires a binding variable")
        hints = hints + self.collect_hints()
        return FromTerm(source, var, hints)

    def parse_group_key(self) -> GroupKey:
        expr = self.parse_expression()
        alias: Optional[str] = None
        if self.accept_keyword("as"):
            alias = self.expect_ident()
        return GroupKey(expr, alias)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("desc"):
            descending = True
        elif self.accept_keyword("asc"):
            descending = False
        return OrderItem(expr, descending)

    # ------------------------------------------------------------ statements

    def parse_statement(self) -> Statement:
        tok = self.current
        if tok.is_keyword("create"):
            return self._parse_create()
        if tok.is_keyword("connect"):
            return self._parse_connect_feed()
        if tok.is_keyword("start"):
            self.advance()
            self.expect_keyword("feed")
            return StartFeed(self.expect_ident())
        if tok.is_keyword("stop"):
            self.advance()
            self.expect_keyword("feed")
            return StopFeed(self.expect_ident())
        if tok.is_keyword("insert") or tok.is_keyword("upsert"):
            upsert = tok.text == "upsert"
            self.advance()
            self.expect_keyword("into")
            dataset = self.expect_ident()
            self.expect_punct("(")
            query = self.parse_query_expression()
            self.expect_punct(")")
            return InsertStatement(dataset, query, upsert=upsert)
        if tok.is_keyword("delete"):
            self.advance()
            self.expect_keyword("from")
            dataset = self.expect_ident()
            var = self.expect_ident() if self.current.kind == "ident" else dataset
            where = None
            if self.accept_keyword("where"):
                where = self.parse_expression()
            return DeleteStatement(dataset, var, where)
        if tok.is_keyword("select") or tok.is_keyword("let"):
            return QueryStatement(self.parse_query_expression())
        raise self.error("expected a statement")

    def parse_statements(self) -> List[Statement]:
        statements: List[Statement] = []
        while self.current.kind != "eof":
            statements.append(self.parse_statement())
            while self.accept_punct(";"):
                pass
        return statements

    def _parse_connect_feed(self) -> Statement:
        self.expect_keyword("connect")
        self.expect_keyword("feed")
        feed = self.expect_ident()
        self.expect_keyword("to")
        self.expect_keyword("dataset")
        dataset = self.expect_ident()
        functions: List[str] = []
        while self.accept_keyword("apply"):
            self.expect_keyword("function")
            functions.append(self.expect_ident())
            while self.accept_punct(","):
                functions.append(self.expect_ident())
        return ConnectFeed(feed, dataset, functions)

    def _parse_create(self) -> Statement:
        self.expect_keyword("create")
        tok = self.current
        if tok.is_keyword("type"):
            self.advance()
            name = self.expect_ident()
            self.expect_keyword("as")
            is_open = True
            if self.accept_keyword("closed"):
                is_open = False
            else:
                self.accept_keyword("open")
            self.expect_punct("{")
            fields = {}
            if not self.current.is_punct("}"):
                fname, fspec = self._type_field()
                fields[fname] = fspec
                while self.accept_punct(","):
                    fname, fspec = self._type_field()
                    fields[fname] = fspec
            self.expect_punct("}")
            return CreateType(name, fields, is_open)
        if tok.is_keyword("dataset"):
            self.advance()
            name = self.expect_ident()
            self.expect_punct("(")
            type_name = self.expect_ident()
            self.expect_punct(")")
            self.expect_keyword("primary")
            self.expect_keyword("key")
            key = self.expect_ident()
            while self.accept_punct("."):
                key += "." + self.expect_ident()
            return CreateDataset(name, type_name, key)
        if tok.is_keyword("index"):
            self.advance()
            name = self.expect_ident()
            self.expect_keyword("on")
            dataset = self.expect_ident()
            self.expect_punct("(")
            fields = [self._dotted_ident()]
            while self.accept_punct(","):
                fields.append(self._dotted_ident())
            self.expect_punct(")")
            index_type = "btree"
            if self.accept_keyword("type"):
                if self.accept_keyword("rtree"):
                    index_type = "rtree"
                else:
                    self.expect_keyword("btree")
            return CreateIndex(name, dataset, fields, index_type)
        if tok.is_keyword("function"):
            self.advance()
            name = self.expect_ident()
            self.expect_punct("(")
            params = []
            if not self.current.is_punct(")"):
                params.append(self.expect_ident())
                while self.accept_punct(","):
                    params.append(self.expect_ident())
            self.expect_punct(")")
            self.expect_punct("{")
            body = self.parse_query_expression()
            self.expect_punct("}")
            return CreateFunction(FunctionDefinition(name, params, body))
        if tok.is_keyword("feed"):
            self.advance()
            name = self.expect_ident()
            self.expect_keyword("with")
            obj = self.parse_object_constructor()
            config = {}
            for fname, fexpr in obj.fields:
                if not isinstance(fexpr, Literal):
                    raise self.error("feed config values must be literals")
                config[fname] = fexpr.value
            return CreateFeed(name, config)
        raise self.error("expected TYPE, DATASET, INDEX, FUNCTION, or FEED")

    def _type_field(self) -> Tuple[str, str]:
        name = self.expect_ident()
        self.expect_punct(":")
        spec = self.expect_ident()
        if self.accept_punct("?"):
            spec += "?"
        return name, spec

    def _dotted_ident(self) -> str:
        name = self.expect_ident()
        while self.accept_punct("."):
            name += "." + self.expect_ident()
        return name


# ------------------------------------------------------------------- facade


def parse_expression(source: str) -> Expr:
    parser = Parser(source)
    expr = parser.parse_query_expression()
    if parser.current.kind != "eof":
        raise parser.error("unexpected trailing input")
    return expr


def parse_function(source: str) -> FunctionDefinition:
    parser = Parser(source)
    stmt = parser.parse_statement()
    if not isinstance(stmt, CreateFunction):
        raise SqlppSyntaxError("expected a CREATE FUNCTION statement")
    return stmt.definition


def parse_statement(source: str) -> Statement:
    parser = Parser(source)
    stmt = parser.parse_statement()
    parser.accept_punct(";")
    if parser.current.kind != "eof":
        raise parser.error("unexpected trailing input")
    return stmt


def parse_statements(source: str) -> List[Statement]:
    return Parser(source).parse_statements()
