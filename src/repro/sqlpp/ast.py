"""AST node definitions for the SQL++ subset.

The subset covers everything the paper's eight enrichment UDFs and
analytical queries use: SELECT [VALUE] blocks with FROM (including joins),
LET, WHERE, GROUP BY (with aliases and aggregates), ORDER BY, LIMIT,
subqueries, EXISTS/IN, CASE, object/array constructors, path navigation,
indexing, arithmetic/comparison/boolean operators, function calls
(including ``lib#javaUdf`` references), and optimizer hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


class Expr:
    """Base class for all expression nodes.

    Every node is a ``slots=True`` dataclass: ASTs are allocated on the
    ingestion hot path (probe expressions, circle-flip rewrites), so
    per-instance ``__dict__`` overhead is measurable on the wall clock.
    """

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expr):
    value: object  # int, float, str, bool, None


@dataclass(frozen=True, slots=True)
class MissingLiteral(Expr):
    pass


@dataclass(frozen=True, slots=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class FieldAccess(Expr):
    base: Expr
    field: str


@dataclass(frozen=True, slots=True)
class IndexAccess(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    """A function call; ``library`` is set for ``lib#fn(...)`` Java UDFs."""

    name: str
    args: Tuple[Expr, ...]
    library: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.library}#{self.name}" if self.library else self.name


@dataclass(frozen=True, slots=True)
class Star(Expr):
    """``v.*`` inside a SELECT projection list."""

    base: Expr


@dataclass(frozen=True, slots=True)
class UnaryOp(Expr):
    op: str  # 'not', '-'
    operand: Expr


@dataclass(frozen=True, slots=True)
class BinaryOp(Expr):
    op: str  # 'and' 'or' '=' '!=' '<' '<=' '>' '>=' '+' '-' '*' '/' '%' 'in' 'not_in'
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Exists(Expr):
    subquery: Expr


@dataclass(frozen=True, slots=True)
class CaseExpr(Expr):
    """``CASE [operand] WHEN c THEN v ... [ELSE d] END``."""

    operand: Optional[Expr]
    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr]


@dataclass(frozen=True, slots=True)
class ObjectConstructor(Expr):
    fields: Tuple[Tuple[str, Expr], ...]


@dataclass(frozen=True, slots=True)
class ArrayConstructor(Expr):
    items: Tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Subquery(Expr):
    """A parenthesized SELECT usable as an expression (yields an array)."""

    select: "SelectBlock"


# --------------------------------------------------------------------- SELECT


@dataclass(frozen=True, slots=True)
class FromTerm:
    """One FROM binding: ``expr [AS] var``, with optional per-source hints."""

    source: Expr
    var: str
    hints: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class LetClause:
    var: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class Projection:
    """One SELECT list item: expression plus optional output alias.

    ``Star`` projections expand the base record's fields in place.
    """

    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True, slots=True)
class GroupKey:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True, slots=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(slots=True)
class SelectBlock(Expr):
    """A full SELECT block (also usable as a subquery expression)."""

    projections: List[Projection] = field(default_factory=list)
    select_value: Optional[Expr] = None  # SELECT VALUE <expr>
    from_terms: List[FromTerm] = field(default_factory=list)
    lets: List[LetClause] = field(default_factory=list)  # LET before SELECT
    post_lets: List[LetClause] = field(default_factory=list)  # LET after FROM
    where: Optional[Expr] = None
    group_keys: List[GroupKey] = field(default_factory=list)
    order_items: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    distinct: bool = False
    hints: Tuple[str, ...] = ()

    @property
    def all_lets(self) -> List[LetClause]:
        return list(self.lets) + list(self.post_lets)


# ------------------------------------------------------------------ functions


@dataclass(slots=True)
class FunctionDefinition:
    """``CREATE FUNCTION name(params) { body }`` — the SQL++ UDF form."""

    name: str
    params: List[str]
    body: Expr  # usually a SelectBlock, possibly with leading LETs folded in


def walk(expr) -> "list":
    """Pre-order traversal of an expression tree (including select blocks)."""
    out = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        out.append(node)
        if isinstance(node, SelectBlock):
            for proj in node.projections:
                stack.append(proj.expr)
            stack.append(node.select_value)
            for term in node.from_terms:
                stack.append(term.source)
            for let in node.all_lets:
                stack.append(let.expr)
            stack.append(node.where)
            for key in node.group_keys:
                stack.append(key.expr)
            for item in node.order_items:
                stack.append(item.expr)
            stack.append(node.limit)
        elif isinstance(node, Subquery):
            stack.append(node.select)
        elif isinstance(node, FieldAccess):
            stack.append(node.base)
        elif isinstance(node, IndexAccess):
            stack.append(node.base)
            stack.append(node.index)
        elif isinstance(node, Call):
            stack.extend(node.args)
        elif isinstance(node, Star):
            stack.append(node.base)
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Exists):
            stack.append(node.subquery)
        elif isinstance(node, CaseExpr):
            stack.append(node.operand)
            for cond, value in node.whens:
                stack.append(cond)
                stack.append(value)
            stack.append(node.default)
        elif isinstance(node, ObjectConstructor):
            for _name, value in node.fields:
                stack.append(value)
        elif isinstance(node, ArrayConstructor):
            stack.extend(node.items)
    return out
