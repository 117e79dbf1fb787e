"""Compile-once query plans for SQL++ SELECT blocks (the §5.2 analog).

The paper's parameterized predeployed jobs compile a computing job once
and re-invoke it per batch with only the parameters changing.  This module
is the expression-level counterpart: all *structural* analysis of a
``SelectBlock`` — conjunct splitting, free-variable classification, greedy
join ordering, access-path selection — plus compilation of every scalar
expression into a direct-call closure happens exactly once per (block,
visible-names) pair and is cached for the lifetime of the function
definition.  The per-record inner loop then runs closures instead of
walking the AST through ``Evaluator._DISPATCH``.

What is deliberately *not* decided at plan time:

* which physical index serves an access path — ``Dataset.index_on`` is
  consulted per access, so dropping/creating an index flips the
  chosen path without any plan invalidation;
* per-batch visibility — the plan calls back into the evaluator's
  ``_scan_dataset`` / ``_hash_probe`` / ``_btree_probe`` / ``_rtree_probe``
  primitives, so the generation rules (hash builds stale-within-batch,
  index probes live) and every ``WorkMeter`` charge are byte-identical to
  interpreted evaluation.

Closures are duck-typed ``fn(evaluator, env) -> value``; this module never
imports the evaluator (the evaluator imports *us*), which keeps the layer
acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..adm.schema import field_getter
from ..adm.values import MISSING, DateTime, Duration
from ..errors import SqlppAnalysisError, SqlppEvaluationError
from ..hyracks.cost import WorkMeter
from .analysis import (
    contains_aggregate,
    field_path_of,
    free_vars,
    references_only,
    split_conjuncts,
)
from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
    FromTerm,
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
from .functions import AGGREGATE_NAMES, BUILTINS, VECTORIZABLE_BUILTINS

#: the "name is unbound" marker shared with ``Env`` (class attr ``_SENTINEL``)
SENTINEL = object()


class DatasetRef:
    """Wrapper marking a variable that resolved to a stored dataset."""

    __slots__ = ("dataset",)

    def __init__(self, dataset):
        self.dataset = dataset


# ------------------------------------------------------------ shared helpers


def aggregate_values(name: str, values):
    """Fold a cleaned value list with the named SQL++ aggregate."""
    if name == "count":
        return len(values)
    if name == "array_agg":
        return list(values)
    if not values:
        return None
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    raise SqlppEvaluationError(f"unknown aggregate {name!r}")


def truthy(value) -> bool:
    """SQL++ WHERE semantics: NULL/MISSING are not true."""
    if value is MISSING or value is None:
        return False
    return bool(value)


def add_values(left, right):
    if isinstance(left, DateTime) and isinstance(right, Duration):
        return left.add(right)
    if isinstance(left, Duration) and isinstance(right, DateTime):
        return right.add(left)
    if isinstance(left, str) or isinstance(right, str):
        if isinstance(left, str) and isinstance(right, str):
            return left + right
        raise SqlppEvaluationError("cannot add string and non-string")
    return left + right


def subtract_values(left, right):
    if isinstance(left, DateTime) and isinstance(right, Duration):
        return left.add(Duration(-right.months, -right.millis))
    return left - right


def membership(op: str, left, right):
    if right is MISSING or left is MISSING:
        return MISSING
    if right is None:
        return None
    if not isinstance(right, list):
        raise SqlppEvaluationError("IN requires an array on the right side")
    result = left in right
    return result if op == "in" else not result


def apply_binary(op: str, left, right):
    """Non-short-circuit binary operator semantics on evaluated operands."""
    if op in ("in", "not_in"):
        return membership(op, left, right)
    if left is MISSING or right is MISSING:
        return MISSING
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return add_values(left, right)
        if op == "-":
            return subtract_values(left, right)
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
    except TypeError as exc:
        raise SqlppEvaluationError(
            f"operator {op!r} cannot combine "
            f"{type(left).__name__} and {type(right).__name__}"
        ) from exc
    raise SqlppEvaluationError(f"unknown operator {op!r}")


def default_alias(expr: Expr, fallback: Optional[str]) -> Optional[str]:
    if isinstance(expr, FieldAccess):
        return expr.field
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, Call):
        return expr.name
    return fallback


def has_top_level_aggregate(block: SelectBlock) -> bool:
    if block.select_value is not None and contains_aggregate(block.select_value):
        return True
    return any(contains_aggregate(p.expr) for p in block.projections)


# ------------------------------------- access-path pattern matchers (§4.3.4)


def match_equality(conjunct: Expr, var: str, allowed: Set[str]):
    """Match ``var.path = <expr free of var>`` (either side)."""
    if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
        return None
    outer_allowed = allowed - {var}
    for term_side, other_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        path = field_path_of(term_side, var)
        if path is not None and references_only(other_side, outer_allowed):
            return (path, other_side)
    return None


def match_spatial(conjunct: Expr, var: str, allowed: Set[str]):
    """Match spatial_intersect patterns usable with an R-tree on ``var``.

    Handled shapes (X = any expression not referencing ``var``, P = a
    ``create_point(...)`` call not referencing it):
      spatial_intersect(var.f, X)                -> probe with X
      spatial_intersect(X, var.f)                -> probe with X
      spatial_intersect(P, create_circle(var.f, R)) -> probe with circle(P, R)
        (point-in-circle around var.f  ==  var.f within R of the point)
    The circle flip is an identity only for a point, so any other outer
    region has no access path and is filtered from the scan.
    Returns (field, probe_expr) where probe_expr evaluates to the query
    region, or None.
    """
    if not _is_builtin_call(conjunct, "spatial_intersect", 2):
        return None
    outer_allowed = allowed - {var}
    a, b = conjunct.args
    for term_side, other_side in ((a, b), (b, a)):
        path = field_path_of(term_side, var)
        if path is not None and references_only(other_side, outer_allowed):
            return (path, other_side)
        if _is_builtin_call(term_side, "create_circle", 2) and _is_builtin_call(
            other_side, "create_point", 2
        ):
            center, radius = term_side.args
            path = field_path_of(center, var)
            if (
                path is not None
                and references_only(radius, outer_allowed)
                and references_only(other_side, outer_allowed)
            ):
                return (path, Call("create_circle", (other_side, radius)))
    return None


def _is_builtin_call(expr: Expr, name: str, arity: int) -> bool:
    return (
        isinstance(expr, Call)
        and expr.library is None
        and expr.name.lower() == name
        and len(expr.args) == arity
    )


def find_access_path(
    term: FromTerm,
    conjuncts: List[Expr],
    bound: Set[str],
    catalog_names: FrozenSet[str],
):
    """Return ("equality"|"spatial", field, probe_expr) or None."""
    if not isinstance(term.source, VarRef):
        return None
    if term.source.name not in catalog_names:
        return None
    var = term.var
    allowed = set(bound) | catalog_names
    for conjunct in conjuncts:
        path = match_equality(conjunct, var, allowed)
        if path is not None:
            return ("equality",) + path
        path = match_spatial(conjunct, var, allowed)
        if path is not None:
            return ("spatial",) + path
    return None


def order_terms(
    terms: List[FromTerm],
    conjuncts: List[Expr],
    outer_bound: Set[str],
    catalog_names: FrozenSet[str],
) -> List[FromTerm]:
    """Greedy join-order: pick next the term with a usable access path."""
    remaining = list(terms)
    ordered: List[FromTerm] = []
    bound = set(outer_bound)
    while remaining:
        chosen = None
        for term in remaining:
            if find_access_path(term, conjuncts, bound, catalog_names) is not None:
                chosen = term
                break
        if chosen is None:
            chosen = remaining[0]
        ordered.append(chosen)
        remaining.remove(chosen)
        bound.add(chosen.var)
    return ordered


# -------------------------------------------------------- expression closures


def compile_expr(expr: Expr) -> Callable:
    """Compile ``expr`` to a closure ``fn(evaluator, env) -> value``.

    Each closure mirrors the corresponding ``Evaluator._eval_*`` method
    exactly (including error messages and GROUP BY key shadowing); the
    structural decisions — which node kind, which operator, which argument
    sub-closures — are made here, once, instead of per record.  It is the
    one expression compiler: the columnar kernels map these closures over
    a batch and shape probe matches with the plan's own output stage.
    """
    builder = _COMPILERS.get(type(expr))
    if builder is None:
        raise SqlppEvaluationError(f"cannot compile node {type(expr).__name__}")
    return builder(expr)


def _compile_literal(expr: Literal) -> Callable:
    value = expr.value
    return lambda ev, env: value


def _compile_missing(expr: MissingLiteral) -> Callable:
    return lambda ev, env: MISSING


def _compile_varref(expr: VarRef) -> Callable:
    name = expr.name

    def run(ev, env):
        # group-key expression lookup first (GROUP BY aliases shadow);
        # ``env.group`` is the O(1) nearest-enclosing-group pointer
        group = env.group
        if group is not None and group.key_values:
            if expr in group.key_values:
                return group.key_values[expr]
        value = env.lookup(name)
        if value is not SENTINEL:
            return value
        dataset = ev.ctx.dataset(name)
        if dataset is not None:
            return DatasetRef(dataset)
        raise SqlppAnalysisError(f"unresolved variable: {name}")

    return run


def _compile_field(expr: FieldAccess) -> Callable:
    if type(expr.base) is VarRef:
        return _compile_var_field(expr)
    base_fn = compile_expr(expr.base)
    field = expr.field

    def run(ev, env):
        group = env.group
        if group is not None and group.key_values:
            if expr in group.key_values:
                return group.key_values[expr]
        base = base_fn(ev, env)
        if isinstance(base, dict):
            return base.get(field, MISSING)
        return MISSING

    return run


def _compile_var_field(expr: FieldAccess) -> Callable:
    """``var.field`` as one closure: :func:`_compile_field` over
    :func:`_compile_varref`, with the same group-key shadowing order (the
    field expression, then the variable) and the same results."""
    var = expr.base
    name = var.name
    field = expr.field

    def run(ev, env):
        group = env.group
        if group is not None and group.key_values:
            key_values = group.key_values
            if expr in key_values:
                return key_values[expr]
            if var in key_values:
                base = key_values[var]
                return base.get(field, MISSING) if isinstance(base, dict) else MISSING
        base = env.lookup(name)
        if base is SENTINEL:
            if ev.ctx.dataset(name) is not None:
                return MISSING  # a DatasetRef has no fields
            raise SqlppAnalysisError(f"unresolved variable: {name}")
        if isinstance(base, dict):
            return base.get(field, MISSING)
        return MISSING

    return run


def _compile_index(expr: IndexAccess) -> Callable:
    base_fn = compile_expr(expr.base)
    index_fn = compile_expr(expr.index)

    def run(ev, env):
        base = base_fn(ev, env)
        index = index_fn(ev, env)
        if base is MISSING or index is MISSING:
            return MISSING
        if base is None or index is None:
            return None
        if not isinstance(base, list) or not isinstance(index, int):
            return MISSING
        if -len(base) <= index < len(base):
            return base[index]
        return MISSING

    return run


def _compile_unary(expr: UnaryOp) -> Callable:
    operand_fn = compile_expr(expr.operand)
    if expr.op == "not":

        def run(ev, env):
            value = operand_fn(ev, env)
            if value is MISSING or value is None:
                return value
            return not bool(value)

        return run
    if expr.op == "-":

        def run(ev, env):
            value = operand_fn(ev, env)
            if value is MISSING or value is None:
                return value
            return -value

        return run
    raise SqlppEvaluationError(f"unknown unary operator {expr.op!r}")


def _compile_binary(expr: BinaryOp) -> Callable:
    op = expr.op
    left_fn = compile_expr(expr.left)
    right_fn = compile_expr(expr.right)
    if op == "and":

        def run(ev, env):
            if not truthy(left_fn(ev, env)):
                return False
            return truthy(right_fn(ev, env))

        return run
    if op == "or":

        def run(ev, env):
            if truthy(left_fn(ev, env)):
                return True
            return truthy(right_fn(ev, env))

        return run

    if op == "=" or op == "!=":
        # the hottest comparisons (probe/WHERE predicates): inline the
        # MISSING/NULL propagation instead of re-dispatching on op
        equals = op == "="

        def run(ev, env):
            left = left_fn(ev, env)
            right = right_fn(ev, env)
            if left is MISSING or right is MISSING:
                return MISSING
            if left is None or right is None:
                return None
            return (left == right) if equals else (left != right)

        return run

    def run(ev, env):
        return apply_binary(op, left_fn(ev, env), right_fn(ev, env))

    return run


def _compile_aggregate(expr: Call, lowered: str) -> Callable:
    """Aggregate call: iterate the group with a *compiled* argument closure.

    Mirrors ``Evaluator._eval_aggregate`` exactly — grouped form folds the
    argument over the member envs, ungrouped form is the SQL++ array form.
    Malformed corner cases (no argument, ``*`` outside a group) delegate to
    the interpreted method so error messages stay identical.
    """
    count_star = bool(expr.args) and isinstance(expr.args[0], Star)
    arg_fn = None
    if expr.args and not count_star:
        arg_fn = compile_expr(expr.args[0])

    def run(ev, env):
        group = env.group
        if group is not None:
            if count_star:
                return aggregate_values(lowered, [1] * len(group.members))
            if arg_fn is None:
                return ev._eval_aggregate(expr, env)
            values = []
            for tuple_env in group.members:
                value = arg_fn(ev, tuple_env)
                if value is not MISSING and value is not None:
                    values.append(value)
            return aggregate_values(lowered, values)
        # No group: SQL++ array form — the argument must be a collection.
        if not expr.args or count_star:
            return ev._eval_aggregate(expr, env)
        value = arg_fn(ev, env)
        if value is MISSING:
            return MISSING
        if value is None:
            return None
        if not isinstance(value, list):
            raise SqlppEvaluationError(
                f"{lowered}() outside GROUP BY requires an array argument"
            )
        cleaned = [v for v in value if v is not None and v is not MISSING]
        return aggregate_values(lowered, cleaned)

    return run


def _compile_call(expr: Call) -> Callable:
    name = expr.name
    lowered = name.lower()
    library = expr.library
    if library is None and lowered in AGGREGATE_NAMES:
        return _compile_aggregate(expr, lowered)
    arg_fns = tuple(compile_expr(arg) for arg in expr.args)
    if library is not None:
        qualified = expr.qualified_name

        def run(ev, env):
            args = [fn(ev, env) for fn in arg_fns]
            functions = ev.ctx.functions
            if functions is None:
                raise SqlppAnalysisError(f"no function registry for {qualified}")
            return functions.invoke_java(library, name, args, ev.ctx)

        return run

    # BUILTINS is fixed at import; a SQL++ UDF of the same name, which may
    # be registered after this compiles, still shadows it on every call
    builtin = BUILTINS.lookup(lowered)

    def run(ev, env):
        args = [fn(ev, env) for fn in arg_fns]
        functions = ev.ctx.functions
        if functions is not None and functions.has(name):
            return functions.invoke(name, args, ev.ctx)
        if builtin is None:
            raise SqlppAnalysisError(f"unknown function: {name}")
        try:
            return builtin(ev.ctx, *args)
        except (TypeError, ValueError, AttributeError) as exc:
            raise SqlppEvaluationError(f"{name}: {exc}") from exc

    return run


def _compile_case(expr: CaseExpr) -> Callable:
    operand_fn = (
        compile_expr(expr.operand) if expr.operand is not None else None
    )
    when_fns = tuple(
        (compile_expr(cond), compile_expr(value))
        for cond, value in expr.whens
    )
    default_fn = (
        compile_expr(expr.default) if expr.default is not None else None
    )
    if operand_fn is not None:

        def run(ev, env):
            operand = operand_fn(ev, env)
            for cond_fn, value_fn in when_fns:
                if cond_fn(ev, env) == operand:
                    return value_fn(ev, env)
            if default_fn is not None:
                return default_fn(ev, env)
            return None

        return run

    def run(ev, env):
        for cond_fn, value_fn in when_fns:
            if truthy(cond_fn(ev, env)):
                return value_fn(ev, env)
        if default_fn is not None:
            return default_fn(ev, env)
        return None

    return run


def _compile_object(expr: ObjectConstructor) -> Callable:
    field_fns = tuple(
        (name, compile_expr(value)) for name, value in expr.fields
    )

    def run(ev, env):
        out = {}
        for name, fn in field_fns:
            value = fn(ev, env)
            if value is not MISSING:
                out[name] = value
        return out

    return run


def _compile_array(expr: ArrayConstructor) -> Callable:
    item_fns = tuple(compile_expr(item) for item in expr.items)

    def run(ev, env):
        return [fn(ev, env) for fn in item_fns]

    return run


def _compile_exists(expr: Exists) -> Callable:
    sub_fn = compile_expr(expr.subquery)

    def run(ev, env):
        value = sub_fn(ev, env)
        if isinstance(value, list):
            return len(value) > 0
        return value is not MISSING and value is not None

    return run


def _compile_subquery(expr: Subquery) -> Callable:
    select = expr.select
    # Child plans resolve through _cached_select at runtime: the child's
    # plan key depends on the *runtime* visible names (group aliases,
    # ORDER BY row envs), which static simulation cannot reproduce.
    return lambda ev, env: ev._cached_select(select, env)


def _compile_select(expr: SelectBlock) -> Callable:
    return lambda ev, env: ev._cached_select(expr, env)


def _compile_star(expr: Star) -> Callable:
    def run(ev, env):
        raise SqlppEvaluationError("'.*' is only valid in a SELECT clause")

    return run


_COMPILERS = {
    Literal: _compile_literal,
    MissingLiteral: _compile_missing,
    VarRef: _compile_varref,
    FieldAccess: _compile_field,
    IndexAccess: _compile_index,
    UnaryOp: _compile_unary,
    BinaryOp: _compile_binary,
    Call: _compile_call,
    CaseExpr: _compile_case,
    ObjectConstructor: _compile_object,
    ArrayConstructor: _compile_array,
    Exists: _compile_exists,
    Subquery: _compile_subquery,
    SelectBlock: _compile_select,
    Star: _compile_star,
}


# ---------------------------------------------------------------- hoisting


@dataclass(frozen=True, slots=True)
class Hoisted(Expr):
    """``expr``, evaluated at most once per binding of the names it reads:
    into the evaluation's slot ``slot``, or once per plan when ``slot`` is
    None (a constant).  Only :class:`Hoisting` builds one."""

    expr: Expr
    slot: Optional[int]


def _charged_value(ev, fn: Callable, env) -> Tuple:
    """``(fn(ev, env), counts)``: the value and the WorkMeter counts its
    evaluation charged, taken on a scratch meter so that every use can
    replay them.  What an evaluation that raises charged stays charged."""
    ctx = ev.ctx
    meter = ctx.meter
    ctx.meter = scratch = WorkMeter()
    try:
        value = fn(ev, env)
    except BaseException:
        meter.absorb(scratch)
        raise
    finally:
        ctx.meter = meter
    return value, scratch.counts()


def _compile_hoisted(node: Hoisted) -> Callable:
    fn = compile_expr(node.expr)
    slot = node.slot
    if slot is None:
        held: List[Tuple] = []  # the plan's one (value, counts)

        def run(ev, env):
            if not held:
                held.append(_charged_value(ev, fn, env))
            value, counts = held[0]
            if counts:
                ev.ctx.meter.add(counts)
            return value

        return run

    def run(ev, env):
        cache = ev.hoisted
        held = cache[slot]
        if held is None:
            held = cache[slot] = _charged_value(ev, fn, env)
        value, counts = held
        if counts:
            ev.ctx.meter.add(counts)
        return value

    return run


_COMPILERS[Hoisted] = _compile_hoisted


# -------------------------------------------------------------- select plans


class TermPlan:
    """The precomputed access decision for one (ordered) FROM term."""

    __slots__ = (
        "term",
        "var",
        "is_dataset",
        "dataset_name",
        "no_index",
        "access_kind",  # "equality" | "spatial" | None
        "access_field",
        "probe_expr",
        "probe_fn",
        "source_fn",  # compiled source for non-dataset terms
    )

    def __init__(self):
        self.term = None
        self.var = None
        self.is_dataset = False
        self.dataset_name = None
        self.no_index = False
        self.access_kind = None
        self.access_field = None
        self.probe_expr = None
        self.probe_fn = None
        self.source_fn = None


class SpatialFilter:
    """How a term's leading spatial conjunct is written, and its field
    column: what ``Evaluator._filtered_access`` tests candidates with."""

    __slots__ = ("call_name", "field_first", "flipped", "column_of")

    def __init__(self, tp: TermPlan, lead: Call):
        self.call_name = lead.name  # as written: it prefixes wrapped errors
        first, second = (field_path_of(arg, tp.var) is not None for arg in lead.args)
        self.field_first = first
        self.flipped = not (first or second)  # create_circle(var.f, R) instead
        get = field_getter(tp.access_field)
        self.column_of = lambda records: tuple(map(get, records))


#: builtins that charge a WorkMeter and do nothing else a hoisted
#: evaluation could observe: the charge is recorded once and replayed
METERED_BUILTINS = frozenset({"spatial_intersect", "edit_distance"})


def _charge_safe(*exprs: Expr) -> Optional[Tuple[FrozenSet[str], FrozenSet]]:
    """``(builtins as written, (library, name) of Java calls)`` when
    ``exprs`` call only charge-free or metered builtins and Java UDFs (the
    caller checks those are pure) and hold no subquery, aggregate or
    ``.*``; None otherwise."""
    calls = set()
    java = set()
    for node in (node for expr in exprs for node in walk(expr)):
        if isinstance(node, (SelectBlock, Subquery, Exists, Star)):
            return None
        if isinstance(node, Call):
            if node.library is not None:
                java.add((node.library, node.name))
                continue
            lowered = node.name.lower()
            if not (lowered in VECTORIZABLE_BUILTINS or lowered in METERED_BUILTINS):
                return None
            calls.add(node.name)
    return frozenset(calls), frozenset(java)


def _with_children(expr: Expr, sub: Callable[[Expr], Expr]) -> Expr:
    """``expr`` with ``sub`` applied to each child expression, or ``expr``
    itself when none changed; a select block, and what holds one, is a
    leaf."""
    if isinstance(expr, (SelectBlock, Subquery, Exists)):
        return expr

    def rebuilt(value):
        if isinstance(value, Expr):
            return sub(value)
        if isinstance(value, tuple):  # call arguments, CASE arms, object fields
            return tuple(map(rebuilt, value))
        return value

    old = [getattr(expr, field.name) for field in fields(expr)]
    new = list(map(rebuilt, old))
    return expr if new == old else type(expr)(*new)


class Hoisting:
    """A FROM block's WHERE and probe closures with each maximal
    charge-safe subexpression evaluated at most once per binding of the
    names it reads.

    A subexpression's *depth* is where the names it reads are bound: 0
    for none (a constant, kept by the plan), 1 for names bound outside the
    FROM terms (one block evaluation), ``k + 2`` for FROM term ``k``'s
    variable (one candidate of that term), and past the last term for a
    post-FROM LET.  The WHERE runs at the last term's depth and term
    ``k``'s probe at term ``k - 1``'s, so what reads only shallower names
    is evaluated lazily, at its first use under the current bindings, and
    reused until a shallower term binds its next candidate
    (``resets[k]`` lists the slots term ``k``'s candidates empty).  The
    evaluation's WorkMeter counts are recorded on a scratch meter and
    replayed at every use, so every use charges what evaluating it would
    have, and an unreached subexpression is never evaluated: errors and
    charges come exactly where they did.

    Charge-safe means calling only :data:`VECTORIZABLE_BUILTINS`,
    :data:`METERED_BUILTINS` and Java UDFs whose class declares
    ``pure``, with no subquery and no aggregate.  :meth:`applies` checks
    what the plan cannot know: no registered function may shadow a
    hoisted builtin, and every hoisted Java UDF must be pure.  Values are
    held in ``Evaluator.hoisted``, never in an ``Env``, so nested
    plan-cache keys see the same bound names as without hoisting.

    ``filter`` is what the only FROM term's access step tests (see
    :func:`_filter_calls`); its calls are in ``calls``, so :meth:`applies`
    is the one bail-out rule for both.  The filter's survivors run
    ``residual_fn``, the WHERE after its leading conjunct, and a binding
    the access step declines runs ``where_fn``, all of it.
    """

    __slots__ = ("where_fn", "residual_fn", "probe_fns", "slots", "resets",
                 "calls", "java", "filter", "_verdict")

    def __init__(self):
        self.slots: List[int] = []  # per evaluation slot: its depth
        self.calls = set()
        self.java = set()
        self.filter = None
        self._verdict = None

    def hoist(self, expr: Expr, depth: Dict[str, int], context: int) -> Expr:
        """``expr`` with each maximal charge-safe subexpression that calls
        something and reads only names bound above ``context`` (per
        ``depth``; 1 for a name it lacks) replaced by a :class:`Hoisted`."""
        safe = _charge_safe(expr)
        if safe is not None and (safe[0] or safe[1]):
            calls, java = safe
            level = max((depth.get(name, 1) for name in free_vars(expr)), default=0)
            if java and level == 0:
                # a Java instance, and the charge of loading it, is per generation
                level = 1
            if level < context:
                self.calls |= calls
                self.java |= java
                if level == 0:
                    return Hoisted(expr, None)
                self.slots.append(level)
                return Hoisted(expr, len(self.slots) - 1)
        return _with_children(expr, lambda child: self.hoist(child, depth, context))

    def applies(self, functions) -> bool:
        """Whether the hoisted closures mean what the plan's own do, for
        this registry at its current version."""
        version = getattr(functions, "version", None)
        verdict = self._verdict
        if verdict is not None and verdict[0] is functions and verdict[1] == version:
            return verdict[2]
        if functions is None:
            ok = not self.java
        else:
            ok = not any(map(functions.has, self.calls)) and all(
                functions.is_pure_java(library, name) for library, name in self.java
            )
        if version is not None:
            self._verdict = (functions, version, ok)
        return ok


def _plan_hoisting(
    block: SelectBlock, plan: "SelectPlan", bound_names: FrozenSet[str]
) -> Optional[Hoisting]:
    """``plan``'s :class:`Hoisting`, or None when it hoists nothing and
    tests no filter."""
    hoisting = Hoisting()
    depth: Dict[str, int] = {}
    probe_fns = []
    for k, tp in enumerate(plan.terms):
        fn = tp.probe_fn
        if tp.probe_expr is not None:
            probe = hoisting.hoist(tp.probe_expr, depth, k + 1)
            if probe is not tp.probe_expr:
                fn = compile_expr(probe)
        probe_fns.append(fn)
        depth[tp.var] = k + 2
    total = len(plan.terms)
    for let in block.post_lets:
        depth[let.var] = total + 2
    conjuncts = split_conjuncts(block.where)
    allowed = bound_names | plan.catalog_names | {let.var for let in block.lets}
    calls = _filter_calls(block, plan.terms, conjuncts, allowed)
    if calls is not None:
        hoisting.filter = SpatialFilter(plan.terms[0], conjuncts[0])
        hoisting.calls |= calls
    hoisted = [hoisting.hoist(conjunct, depth, total + 1) for conjunct in conjuncts]
    hoisting.where_fn = _conjoined(hoisted)
    hoisting.residual_fn = _conjoined(hoisted[1:])
    # a filter calls its conjunct's builtin, so it is never hoisting nothing
    if not (hoisting.calls or hoisting.java):
        return None
    hoisting.probe_fns = tuple(probe_fns)
    hoisting.resets = tuple(
        tuple(slot for slot, level in enumerate(hoisting.slots) if level == k + 2)
        for k in range(total)
    )
    hoisting.calls = frozenset(hoisting.calls)
    hoisting.java = frozenset(hoisting.java)
    return hoisting


def _conjoined(conjuncts: List[Expr]) -> Optional[Callable]:
    """The compiled AND of ``conjuncts``, or None for none."""
    if not conjuncts:
        return None
    return compile_expr(reduce(lambda l, r: BinaryOp("and", l, r), conjuncts))


def _filter_calls(
    block: SelectBlock,
    terms: Tuple[TermPlan, ...],
    conjuncts: List[Expr],
    allowed: FrozenSet[str],
) -> Optional[FrozenSet[str]]:
    """The names the leading conjunct calls, as written, when the access
    step may test it, else None: the scalar loop evaluates it once per
    candidate, first (it is the only FROM term's spatial access conjunct,
    with no post-FROM LET), and its region is charge-free."""
    tp = terms[0]
    if len(terms) > 1 or tp.access_kind != "spatial" or block.post_lets:
        return None
    lead = conjuncts[0]
    # find_access_path takes the first conjunct that matches, so if the
    # leading one does it is the term's access conjunct
    if not match_spatial(lead, tp.var, allowed):
        return None
    safe = _charge_safe(*lead.args, tp.probe_expr)
    if safe is None or safe[1]:
        return None
    calls, _java = safe
    if any(name.lower() in METERED_BUILTINS for name in calls):
        return None
    return calls | {lead.name}


class SelectPlan:
    """Everything per-record evaluation needs, analyzed exactly once."""

    __slots__ = (
        "block",
        "token",
        "cacheable",
        "dataset_deps",  # frozenset of referenced datasets when cacheable
        "correlated_vars",  # sorted tuple of free non-catalog (outer) vars
        "correlated_deps",  # frozenset of free catalog datasets
        "catalog_names",
        "let_fns",
        "post_let_fns",
        "where_fn",
        "terms",  # tuple of TermPlan in join order, or None (no FROM)
        "hoisting",  # Hoisting of the WHERE and probes, or None
        "has_group",
        "implicit_group",
        "group_keys",  # tuple of (expr, alias, default_name, fn)
        "select_value_fn",
        "projections",  # tuple of (name, fn); name None = ``v.*`` expansion
        "order_items",  # tuple of (fn, descending)
        "limit_fn",
        "distinct",
        "batch_kernel",  # (registry_version, BlockKernel|UNSUPPORTED) or None
        "called_deps",  # (registry, version, call_dependencies) or None
    )


def build_select_plan(
    block: SelectBlock,
    bound_names: FrozenSet[str],
    catalog_names: FrozenSet[str],
    token: int,
) -> SelectPlan:
    """Analyze ``block`` once for the given visible names and catalog."""
    plan = SelectPlan()
    plan.block = block
    plan.token = token
    plan.catalog_names = catalog_names
    fv = free_vars(block)
    # Cacheable = uncorrelated: every free variable is a catalog dataset
    # (the stale-until-next-batch top-10 list of Figure 18).
    plan.cacheable = bool(fv) and fv <= catalog_names
    # The datasets the cached result is derived from: the guard set for
    # the cross-batch StateCache's version key (None when not cacheable).
    plan.dataset_deps = frozenset(fv) if plan.cacheable else None
    # Correlated split (the key-level enrichment memo's guard material):
    # the outer variables whose bindings parameterize the block's result,
    # and the catalog datasets the result is derived from.
    plan.correlated_vars = tuple(sorted(fv - catalog_names))
    plan.correlated_deps = frozenset(fv & catalog_names)
    plan.let_fns = tuple((let.var, compile_expr(let.expr)) for let in block.lets)
    plan.post_let_fns = tuple(
        (let.var, compile_expr(let.expr)) for let in block.post_lets
    )
    plan.where_fn = compile_expr(block.where) if block.where is not None else None
    plan.terms = (
        _plan_from_terms(block, bound_names, catalog_names)
        if block.from_terms
        else None
    )
    plan.hoisting = _plan_hoisting(block, plan, bound_names) if plan.terms else None
    implicit = (
        not block.group_keys
        and bool(block.from_terms)
        and has_top_level_aggregate(block)
    )
    plan.implicit_group = implicit
    plan.has_group = bool(block.group_keys) or implicit
    plan.group_keys = tuple(
        (
            key.expr,
            key.alias,
            default_alias(key.expr, fallback=None),
            compile_expr(key.expr),
        )
        for key in block.group_keys
    )
    plan.select_value_fn = (
        compile_expr(block.select_value) if block.select_value is not None else None
    )
    projections = []
    for position, proj in enumerate(block.projections, start=1):
        if isinstance(proj.expr, Star):
            projections.append((None, compile_expr(proj.expr.base)))
        else:
            name = proj.alias or default_alias(proj.expr, fallback=f"${position}")
            projections.append((name, compile_expr(proj.expr)))
    plan.projections = tuple(projections)
    plan.order_items = tuple(
        (compile_expr(item.expr), item.descending) for item in block.order_items
    )
    plan.limit_fn = compile_expr(block.limit) if block.limit is not None else None
    plan.distinct = block.distinct
    plan.batch_kernel = None  # lazily compiled by columnar.kernel_for
    plan.called_deps = None  # lazily derived by Evaluator._guard
    return plan


def _plan_from_terms(
    block: SelectBlock,
    bound_names: FrozenSet[str],
    catalog_names: FrozenSet[str],
) -> Tuple[TermPlan, ...]:
    """Join-order the FROM terms and fix each term's access decision.

    Mirrors ``Evaluator._generate_tuples``: the greedy ordering and the
    access-path match depend only on the AST, the names visible outside
    the block, and the catalog's dataset names — all fixed per plan.
    """
    conjuncts = split_conjuncts(block.where)
    scope_names = set(bound_names)
    for let in block.lets:
        scope_names.add(let.var)
    outer_bound = scope_names - catalog_names
    order = order_terms(block.from_terms, conjuncts, outer_bound, catalog_names)
    plans: List[TermPlan] = []
    bound = set(outer_bound)
    visible = set(scope_names)
    for term in order:
        tp = TermPlan()
        tp.term = term
        tp.var = term.var
        source = term.source
        tp.is_dataset = (
            isinstance(source, VarRef)
            and source.name in catalog_names
            and source.name not in visible
        )
        if tp.is_dataset:
            tp.dataset_name = source.name
            tp.no_index = "no-index" in term.hints or "no-index" in block.hints
            path = find_access_path(term, conjuncts, bound, catalog_names)
            if path is not None:
                tp.access_kind, tp.access_field, tp.probe_expr = path
                tp.probe_fn = compile_expr(tp.probe_expr)
        else:
            tp.source_fn = compile_expr(source)
        plans.append(tp)
        bound.add(term.var)
        visible.add(term.var)
    return tuple(plans)


# ---------------------------------------------------------------- plan cache


class PlanCache:
    """Compiled plans keyed by stable AST identity.

    Raw ``id()`` keys are unsafe on their own — a GC'd AST node's id can be
    recycled by a later allocation (e.g. a re-registered function body).
    The cache therefore pins every keyed block with a strong reference, so
    an id stays unique for as long as it is used as a key, and hands out
    monotonically increasing *tokens* for uncorrelated-result keys.  Tokens
    are never reused, even across :meth:`invalidate`, so a stale
    ``("uncorrelated", token)`` result can never be served to a different
    block.
    """

    def __init__(self):
        self._plans: Dict[tuple, SelectPlan] = {}
        self._blocks: Dict[int, SelectBlock] = {}  # strong refs pin ids
        self._tokens: Dict[int, int] = {}
        self._next_token = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def token_for(self, block: SelectBlock) -> int:
        """A stable, never-reused identity token for ``block``."""
        token = self._tokens.get(id(block))
        if token is None:
            self._blocks[id(block)] = block
            self._next_token += 1
            token = self._next_token
            self._tokens[id(block)] = token
        return token

    def plan_for(
        self, block: SelectBlock, bound_names: Set[str], catalog: Dict[str, object]
    ) -> SelectPlan:
        """The compiled plan for ``block`` with the given visible names.

        Revalidated against the catalog's dataset names on every lookup, so
        CREATE/DROP DATASET transparently re-plans; index changes need no
        re-plan at all (``index_on`` is consulted at runtime).
        """
        key = (id(block), frozenset(bound_names))
        plan = self._plans.get(key)
        if plan is not None and catalog.keys() == plan.catalog_names:
            self.hits += 1
            return plan
        self.misses += 1
        plan = build_select_plan(
            block,
            frozenset(bound_names),
            frozenset(catalog),
            self.token_for(block),
        )
        self._plans[key] = plan
        return plan

    def invalidate(self) -> None:
        """Drop every plan (function UPSERT / DDL change).

        ``_next_token`` is deliberately NOT reset: the current generation's
        ``SnapshotSet`` may still hold ``("uncorrelated", token)`` results
        from the dropped plans, and a recycled token would let a new block
        read another block's cached rows.
        """
        if self._plans or self._tokens:
            self.invalidations += 1
        self._plans.clear()
        self._blocks.clear()
        self._tokens.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def __len__(self) -> int:
        return len(self._plans)
