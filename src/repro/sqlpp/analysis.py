"""Semantic analysis: free variables, dataset references, statefulness.

The paper's key distinction (Section 4.3) is *stateless* vs *stateful*
UDFs: a stateful UDF accesses data beyond its input record (reference
datasets or node-local resource files) and therefore builds intermediate
state whose freshness the ingestion framework must manage.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
    FunctionDefinition,
    IndexAccess,
    Literal,
    MissingLiteral,
    ObjectConstructor,
    SelectBlock,
    Star,
    Subquery,
    UnaryOp,
    VarRef,
    walk,
)
from .functions import AGGREGATE_NAMES, BUILTINS


def free_vars(expr: Optional[Expr], bound: Optional[Set[str]] = None) -> Set[str]:
    """Variables referenced by ``expr`` that are not bound inside it."""
    if expr is None:
        return set()
    bound = bound or set()
    out: Set[str] = set()
    _free_vars(expr, frozenset(bound), out)
    return out


def _free_vars(expr, bound: frozenset, out: Set[str]) -> None:
    if expr is None:
        return
    if isinstance(expr, VarRef):
        if expr.name not in bound and expr.name != "*":
            out.add(expr.name)
    elif isinstance(expr, FieldAccess):
        _free_vars(expr.base, bound, out)
    elif isinstance(expr, IndexAccess):
        _free_vars(expr.base, bound, out)
        _free_vars(expr.index, bound, out)
    elif isinstance(expr, Call):
        for arg in expr.args:
            _free_vars(arg, bound, out)
    elif isinstance(expr, Star):
        _free_vars(expr.base, bound, out)
    elif isinstance(expr, UnaryOp):
        _free_vars(expr.operand, bound, out)
    elif isinstance(expr, BinaryOp):
        _free_vars(expr.left, bound, out)
        _free_vars(expr.right, bound, out)
    elif isinstance(expr, Exists):
        _free_vars(expr.subquery, bound, out)
    elif isinstance(expr, CaseExpr):
        _free_vars(expr.operand, bound, out)
        for cond, value in expr.whens:
            _free_vars(cond, bound, out)
            _free_vars(value, bound, out)
        _free_vars(expr.default, bound, out)
    elif isinstance(expr, ObjectConstructor):
        for _name, value in expr.fields:
            _free_vars(value, bound, out)
    elif isinstance(expr, ArrayConstructor):
        for item in expr.items:
            _free_vars(item, bound, out)
    elif isinstance(expr, Subquery):
        _free_vars(expr.select, bound, out)
    elif isinstance(expr, SelectBlock):
        inner = set(bound)
        for let in expr.lets:
            _free_vars(let.expr, frozenset(inner), out)
            inner.add(let.var)
        for term in expr.from_terms:
            _free_vars(term.source, frozenset(inner), out)
            inner.add(term.var)
        for let in expr.post_lets:
            _free_vars(let.expr, frozenset(inner), out)
            inner.add(let.var)
        frozen = frozenset(inner)
        _free_vars(expr.where, frozen, out)
        for key in expr.group_keys:
            _free_vars(key.expr, frozen, out)
            if key.alias:
                inner.add(key.alias)
        frozen = frozenset(inner)
        for item in expr.order_items:
            _free_vars(item.expr, frozen, out)
        for proj in expr.projections:
            _free_vars(proj.expr, frozen, out)
        _free_vars(expr.select_value, frozen, out)
        _free_vars(expr.limit, frozen, out)
    elif isinstance(expr, (Literal, MissingLiteral)):
        pass


def dataset_references(expr: Optional[Expr], catalog_names: Set[str]) -> Set[str]:
    """Names of catalog datasets the expression reads from.

    A dataset reference is a free variable that resolves to a dataset name
    — exactly how SQL++ resolves an unbound FROM identifier.
    """
    return {name for name in free_vars(expr) if name in catalog_names}


def is_stateful(
    definition: FunctionDefinition, catalog_names: Set[str]
) -> bool:
    """Stateful = the body reads anything beyond its parameters (§4.3.1)."""
    outside = free_vars(definition.body, set(definition.params))
    return bool(outside & catalog_names)


def call_dependencies(
    expr: Optional[Expr], functions, catalog_names
) -> Optional[FrozenSet[str]]:
    """The catalog datasets the registered SQL++ functions ``expr`` calls
    read, directly or through each other; None when it calls a Java UDF
    that ``functions`` does not register as pure, directly or through such
    a function.  What ``expr`` returns depends on those datasets too, and
    on an impure UDF's earlier calls."""
    deps: Set[str] = set()
    seen: Set[str] = set()
    pending = [expr]
    while pending:
        for node in walk(pending.pop()):
            if not isinstance(node, Call):
                continue
            if node.library is not None:
                if functions is None or not functions.is_pure_java(
                    node.library, node.name
                ):
                    return None
            elif (
                functions is not None
                and functions.has(node.name)
                and node.name not in seen
            ):
                seen.add(node.name)
                definition = functions.get(node.name).definition
                body = definition.body
                deps |= free_vars(body, set(definition.params)) & catalog_names
                pending.append(body)
    return frozenset(deps)


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a WHERE clause into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def references_only(expr: Expr, allowed: Set[str]) -> bool:
    """True if every free variable of ``expr`` is in ``allowed``."""
    return free_vars(expr) <= allowed


def field_path_of(expr: Expr, var: str) -> Optional[str]:
    """If ``expr`` is a pure field path rooted at ``var``, return the path.

    ``m.monument_location`` rooted at ``m`` -> ``"monument_location"``;
    nested paths join with dots.  Returns None otherwise.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, FieldAccess):
        parts.append(node.field)
        node = node.base
    if isinstance(node, VarRef) and node.name == var and parts:
        return ".".join(reversed(parts))
    return None


def contains_aggregate(expr: Optional[Expr]) -> bool:
    """True if ``expr`` has an aggregate call not nested in a subquery."""
    if expr is None:
        return False
    if isinstance(expr, Call):
        if expr.library is None and expr.name.lower() in AGGREGATE_NAMES:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, FieldAccess):
        return contains_aggregate(expr.base)
    if isinstance(expr, IndexAccess):
        return contains_aggregate(expr.base) or contains_aggregate(expr.index)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, CaseExpr):
        if contains_aggregate(expr.operand) or contains_aggregate(expr.default):
            return True
        return any(
            contains_aggregate(c) or contains_aggregate(v) for c, v in expr.whens
        )
    if isinstance(expr, ObjectConstructor):
        return any(contains_aggregate(v) for _n, v in expr.fields)
    if isinstance(expr, ArrayConstructor):
        return any(contains_aggregate(i) for i in expr.items)
    # Subquery / SelectBlock / Exists: aggregates inside belong to the
    # nested scope, not this one.
    return False


def uses_unsupported_builtin(definition: FunctionDefinition) -> List[str]:
    """Names called that are neither builtins nor aggregate functions.

    Used at registration time to surface typos early; calls to other
    registered UDFs are filtered out by the caller.
    """
    from .ast import walk

    unknown = []
    for node in walk(definition.body):
        if isinstance(node, Call) and node.library is None:
            name = node.name.lower()
            if name not in BUILTINS and name not in AGGREGATE_NAMES:
                unknown.append(node.name)
    return unknown
