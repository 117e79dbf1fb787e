"""Columnar batch execution for predeployed plans.

SQL++ expressions compile exactly once, in :func:`plans.compile_expr`;
this module batches *operators*, not expressions.  A top-level UDF body
(no FROM, a chain of LETs, a projection list) compiles into a
:class:`BlockKernel` whose every column — LET, WHERE, SELECT VALUE,
projection — is one callable ``fn(ev, cb) -> list`` of three kinds:

* a **column reference** to the parameter or an earlier LET;
* a **batched subquery** (:func:`_vec_subquery`): an uncorrelated
  cacheable block evaluated once per batch through
  ``Evaluator._cached_select`` and broadcast, or a single-term equality
  block run as **one hash-probe pass per batch** against the evaluator's
  batch-cached (and, cross-batch, StateCache'd) build table, with the
  inner block's shaping (SELECT VALUE / named projections / implicit
  GROUP BY aggregates / single-key ORDER BY / LIMIT) applied per match
  list;
* the plan's own **scalar closure mapped over the batch** with a pooled
  flat ``Env`` whose bound-name set is the scalar chain's, so nested
  plan-cache keys (and therefore batch-cache tokens) match the
  record-at-a-time path exactly.

Hoisting: a batchable subquery the scalar closure evaluates for *every*
record (``(SELECT sum(...) ...)[0]``, ``EXISTS(...)``) is lifted out of
its expression into a batched column and bound as a placeholder variable
of the mapped closure.  A subquery in a conditionally-evaluated position
(right side of AND/OR, CASE arms past the first condition), or one whose
shape the probe kernel declines, stays inside the closure and runs per
record — the one thing ``fallback_lets`` counts.

Byte-identity contract: stored output and every ``WorkMeter`` counter
total must equal the scalar planned path for the same frame.  Mapped
closures charge exactly what they charge record-at-a-time; batched
subqueries go through the shared evaluator primitives (``_hash_table`` /
``_cached_select`` — builds are idempotent within a generation) or
charge one aggregated per-batch increment equal to the sum of the scalar
per-record increments, which is why they are only hoisted from
always-evaluated positions and why per-match shaping is restricted to
charge-free expressions.

Failure protocol: kernels never handle errors themselves.  A
:class:`KernelFallback` runtime guard aborts one function's kernel: the
feed's invoker discards what that kernel charged and runs the function
once per record instead.  Any other exception propagates to the UDF
operator, which discards the frame's charges and re-runs each record
alone, as a batch of one, so the soft-error policy sees the record that
failed.  Build-side state installed by an aborted attempt lives in the
batch cache, so neither re-run re-charges it — totals stay identical.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..adm.values import MISSING
from ..storage.index import IndexKind
from .analysis import split_conjuncts
from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
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
from .evaluator import Env, _sort_key
from .functions import AGGREGATE_NAMES, VECTORIZABLE_BUILTINS
from .memo import canonical_probe_key
from .plans import (
    SelectPlan,
    aggregate_values,
    compile_expr,
    default_alias,
    truthy,
)


class Unsupported(Exception):
    """Compile-time: this shape has no batched form."""


class KernelFallback(Exception):
    """Runtime: this batch cannot run vectorized (e.g. a B-tree index
    appeared on the probe field); the caller discards the kernel's
    charges and evaluates this function's batch record by record."""


#: cached on ``SelectPlan.batch_kernel`` when compilation found the block
#: unsupported, so the verdict is not re-derived every batch
UNSUPPORTED = object()


class ColumnBatch:
    """Column views over one batch: variable name -> list of values."""

    __slots__ = ("n", "columns")

    def __init__(self, columns: Dict[str, list], n: int):
        self.columns = columns
        self.n = n


# ------------------------------------------------------------------- columns
#
# A column is ``fn(ev, cb) -> list`` producing one value per record.
# ``known`` is the ordered tuple of names bound so far: the parameter plus
# the LETs above this column.


def _compile_column(
    expr: Expr, scalar_fn: Callable, known: Tuple[str, ...], ctx
) -> Tuple[Callable, bool]:
    """``(column, per_record)`` for one record-level expression.

    ``scalar_fn`` is the plan's compiled closure for ``expr``;
    ``per_record`` reports that a subquery was left inside the mapped
    closure and so runs once per record instead of once per batch.
    """
    if isinstance(expr, VarRef) and expr.name in known:
        name = expr.name
        return (lambda ev, cb: cb.columns[name]), False
    hoisted: List[Tuple[str, Callable]] = []
    body = _hoist(expr, known, ctx, hoisted)
    if not hoisted:
        return _mapped(scalar_fn, known), _runs_select(expr)
    if isinstance(body, VarRef):  # the expression *is* the subquery
        return hoisted[0][1], False
    # Placeholders join the closure's env; they can only widen the plan
    # key of a subquery left behind in this same expression, never its
    # token or its result.
    mapped = _mapped(
        compile_expr(body), known + tuple(name for name, _column in hoisted)
    )

    def run(ev, cb):
        columns = dict(cb.columns)
        for name, column in hoisted:
            columns[name] = column(ev, cb)
        return mapped(ev, ColumnBatch(columns, cb.n))

    return run, _runs_select(body)


def _runs_select(expr: Expr) -> bool:
    return any(isinstance(node, SelectBlock) for node in walk(expr))


def _mapped(fn: Callable, names: Tuple[str, ...]) -> Callable:
    """The scalar closure ``fn(ev, env)`` applied to every record.

    The pooled env is rebound per record with exactly ``names`` — what the
    scalar chain has bound at this column — so ``bound_names()``, and
    with it every nested plan-cache key, matches the record-at-a-time
    path.
    """
    env = Env({})
    env_vars = env.vars

    def run(ev, cb):
        columns = cb.columns
        out = []
        append = out.append
        if len(names) == 1:  # the hot case: a probe key over the parameter
            (name,) = names
            for value in columns[name]:
                env_vars[name] = value
                append(fn(ev, env))
            return out
        for values in zip(*[columns[name] for name in names]):
            for name, value in zip(names, values):
                env_vars[name] = value
            append(fn(ev, env))
        return out

    return run


def _hoist(expr: Expr, known: Tuple[str, ...], ctx, hoisted: List) -> Expr:
    """``expr`` with every always-evaluated batchable subquery replaced by
    a placeholder variable, its batched column appended to ``hoisted``.

    Descends only into positions the scalar closure evaluates for every
    record: subquery kernels charge meters (probe/group/sort counters,
    once-per-generation builds), so the right side of AND/OR and the CASE
    arms past the first condition are left alone.
    """
    t = type(expr)
    if t is Subquery or t is SelectBlock:
        inner = expr.select if t is Subquery else expr
        try:
            column = _vec_subquery(inner, known, ctx)
        except Unsupported:
            return expr
        # '#' never starts a parsed identifier, so no user name collides
        hoisted.append((f"#{len(hoisted)}", column))
        return VarRef(hoisted[-1][0])

    def sub(child):
        return _hoist(child, known, ctx, hoisted)

    if t is FieldAccess:
        return FieldAccess(sub(expr.base), expr.field)
    if t is IndexAccess:
        return IndexAccess(sub(expr.base), sub(expr.index))
    if t is UnaryOp:
        return UnaryOp(expr.op, sub(expr.operand))
    if t is Exists:
        return Exists(sub(expr.subquery))
    if t is BinaryOp:
        right = expr.right if expr.op in ("and", "or") else sub(expr.right)
        return BinaryOp(expr.op, sub(expr.left), right)
    if t is Call:
        return Call(expr.name, tuple(sub(arg) for arg in expr.args), expr.library)
    if t is CaseExpr:
        operand = sub(expr.operand) if expr.operand is not None else None
        (cond, value), *rest = expr.whens
        return CaseExpr(operand, ((sub(cond), value), *rest), expr.default)
    if t is ObjectConstructor:
        return ObjectConstructor(
            tuple((name, sub(value)) for name, value in expr.fields)
        )
    if t is ArrayConstructor:
        return ArrayConstructor(tuple(sub(item) for item in expr.items))
    return expr


def _vec_subquery(inner: SelectBlock, known: Tuple[str, ...], ctx) -> Callable:
    inner_bound = frozenset(known)
    inner_plan = ctx.plan_cache.plan_for(inner, inner_bound, ctx.catalog)
    if inner_plan.cacheable:
        # Uncorrelated: one evaluation per batch generation, broadcast.
        # _cached_select keys by the plan token and handles the StateCache,
        # so charges and reuse are byte-identical to the scalar path.  The
        # dummy env only supplies the bound-name set for the plan-cache
        # key; cacheable blocks never read outer values.
        dummy_env = Env({name: None for name in inner_bound})

        def run(ev, cb):
            result = ev._cached_select(inner, dummy_env)
            return [result] * cb.n

        return run
    return _compile_probe_kernel(inner_plan, known, ctx)


# ----------------------------------------------------- match-level expressions
#
# Inside a probe subquery, shaping expressions run once per *match*.  They
# come from the same compiler as everything else, with the FROM-term
# variable resolved directly to the match record (no Env per match).

_MATCH_NODES = (
    Literal,
    MissingLiteral,
    VarRef,
    FieldAccess,
    IndexAccess,
    UnaryOp,
    BinaryOp,
    Call,
    CaseExpr,
    ObjectConstructor,
    ArrayConstructor,
)


def compile_match_expr(expr: Expr, var: str, functions) -> Callable:
    """``fn(ev, match)`` for a charge-free expression over ``var`` alone.

    Anything else raises :class:`Unsupported` and the enclosing column
    runs per record: outer references and nested selects need the
    per-record env; Java, registry and metered builtin calls can charge,
    and shaping skips matches (LIMIT, memo hits) the scalar path
    evaluates.  A registry function shadowing a builtin name is refused
    like any other — the closure's registry-first lookup is the only one.
    """
    for node in walk(expr):
        if not isinstance(node, _MATCH_NODES):
            raise Unsupported(type(node).__name__)
        if isinstance(node, VarRef) and node.name != var:
            raise Unsupported(f"match expr references {node.name!r}")
        if isinstance(node, Call) and (
            node.library is not None
            or node.name.lower() not in VECTORIZABLE_BUILTINS
            or (functions is not None and functions.has(node.name))
        ):
            raise Unsupported(f"function {node.qualified_name}")
    return compile_expr(expr, row_var=var)


# ------------------------------------------------------- probe subquery kernel


def _compile_probe_kernel(
    inner_plan: SelectPlan, known: Tuple[str, ...], ctx
) -> Callable:
    """One hash-probe pass per batch over a single-term equality subquery.

    Supported inner shape (anything else raises :class:`Unsupported`):
    exactly one FROM term with an equality access path, the WHERE being
    exactly the probe conjunct, no LETs, no DISTINCT; shaping limited to
    SELECT VALUE / named projections over the term variable, implicit
    GROUP BY with root-level aggregate projections, a single ORDER BY key
    over the term variable (SELECT VALUE rows only), and a literal LIMIT.
    """
    terms = inner_plan.terms
    if terms is None or len(terms) != 1:
        raise Unsupported("probe kernel needs exactly one FROM term")
    tp = terms[0]
    if not tp.is_dataset or tp.access_kind != "equality":
        raise Unsupported("no single-dataset equality access path")
    if inner_plan.let_fns or inner_plan.post_let_fns:
        raise Unsupported("inner LETs")
    if inner_plan.distinct:
        raise Unsupported("inner DISTINCT")
    if inner_plan.group_keys:
        raise Unsupported("explicit GROUP BY")
    block = inner_plan.block
    if len(split_conjuncts(block.where)) != 1:
        raise Unsupported("WHERE is more than the probe conjunct")
    probe_k, per_record = _compile_column(tp.probe_expr, tp.probe_fn, known, ctx)
    if per_record:
        raise Unsupported("probe key runs a subquery per record")
    var = tp.var
    field = tp.access_field
    dataset_name = tp.dataset_name
    no_index = tp.no_index

    # --- shaping: compiled per match list ---------------------------------
    if inner_plan.implicit_group:
        if inner_plan.order_items or block.limit is not None:
            raise Unsupported("ORDER/LIMIT over an implicit group")
        shape = _compile_group_shape(block, var, ctx.functions)
    else:
        shape = _compile_row_shape(inner_plan, block, var, ctx.functions)

    token = inner_plan.token

    def run(ev, cb):
        ctx = ev.ctx
        dataset = ctx.catalog[dataset_name]
        if (
            not no_index
            and ctx.allow_index
            and dataset.index_on(field, IndexKind.BTREE) is not None
        ):
            # The scalar path would probe the live B-tree per record,
            # with different charges — this batch cannot vectorize.
            raise KernelFallback(f"B-tree on {dataset_name}.{field}")
        probe_col = probe_k(ev, cb)
        if ctx.memo is None:
            table = ev._hash_table(dataset, field)
            # one aggregated charge == n per-record `hash_probes += 1`
            ctx.meter.hash_probes += cb.n
            empty: List = []
            get = table.get
            out = []
            append = out.append
            for key in probe_col:
                if key is MISSING or key is None:
                    matches = empty
                elif key != key:
                    # NaN probe: dict lookup could identity-match the stored
                    # key, but the scalar WHERE recheck (NaN = NaN) rejects it
                    matches = empty
                else:
                    matches = get(key, empty)
                append(matches)
            return shape(ev, out)
        return run_memoized(ev, cb, dataset, probe_col)

    def run_memoized(ev, cb, dataset, probe_col):
        """The probe pass with the key-level memo in front of it.

        Every record whose canonical key is already shaped — in this batch
        (L1 dict) or in a prior batch under the same dataset version (L2
        memo) — reuses the shaped row list and is charged through the
        priced ``memo_hits`` / ``memo_reused_records`` counters; only the
        remaining misses acquire the hash table (an all-hit batch skips
        even the build/StateCache lookup), pay their per-record
        ``hash_probes``, and run the compiled shaping, so miss charges are
        computed by exactly the unmemoized code.  With zero hits the
        charges and output are identical to the plain path.  NULL/MISSING/
        NaN probes never memoize (the scalar recheck semantics make them
        per-record empties) and stay probe-charged misses.
        """
        ctx = ev.ctx
        memo = ctx.memo
        meter = ctx.meter
        # the version this generation pinned, not the live one: a write
        # landing mid-job must not refile pre-write rows as current
        version_key = ((dataset_name, ev._pin(dataset).lsns),)
        l1: Dict = {}
        l1_get = l1.get
        slots: List = [None] * cb.n
        miss_indices: List[int] = []
        miss_keys: List = []
        for i, key in enumerate(probe_col):
            if key is MISSING or key is None or key != key:
                miss_indices.append(i)
                miss_keys.append(key)
                continue
            ck = canonical_probe_key(key)
            rows = l1_get(ck)
            if rows is None:
                entry = memo.get(("probe", token, ck), version_key)
                if entry is None:
                    miss_indices.append(i)
                    miss_keys.append(key)
                    continue
                rows = entry.value
                l1[ck] = rows
            meter.memo_hits += 1
            meter.memo_reused_records += len(rows)
            slots[i] = rows
        if miss_indices:
            table = ev._hash_table(dataset, field)
            meter.hash_probes += len(miss_indices)
            empty: List = []
            get = table.get
            out = []
            for key in miss_keys:
                if key is MISSING or key is None or key != key:
                    out.append(empty)
                else:
                    out.append(get(key, empty))
            shaped = shape(ev, out)
            memo_put = memo.put
            for slot, key, rows in zip(miss_indices, miss_keys, shaped):
                slots[slot] = rows
                if key is MISSING or key is None or key != key:
                    continue
                ck = canonical_probe_key(key)
                l1[ck] = rows
                memo_put(("probe", token, ck), version_key, rows, len(rows))
        return slots

    return run


def _compile_group_shape(block: SelectBlock, var: str, functions) -> Callable:
    """Implicit-group shaping: one aggregate row per record's match list."""
    if block.select_value is not None:
        spec = _aggregate_spec(block.select_value, var, functions)

        def shape_value(ev, match_lists):
            total = 0
            out = []
            for matches in match_lists:
                total += len(matches)
                out.append([_run_aggregate(ev, spec, matches)])
            ev.ctx.meter.group_items += total
            return out

        return shape_value
    specs = []
    for position, proj in enumerate(block.projections, start=1):
        if isinstance(proj.expr, Star):
            raise Unsupported("star projection in a group")
        name = proj.alias or default_alias(proj.expr, fallback=f"${position}")
        specs.append((name, _aggregate_spec(proj.expr, var, functions)))

    def shape(ev, match_lists):
        total = 0
        out = []
        for matches in match_lists:
            total += len(matches)
            row = {}
            for name, spec in specs:
                value = _run_aggregate(ev, spec, matches)
                if value is not MISSING:
                    row[name] = value
            out.append([row])
        ev.ctx.meter.group_items += total
        return out

    return shape


def _aggregate_spec(expr: Expr, var: str, functions) -> Tuple:
    """(aggregate_name, arg_fn_or_None_for_count_star)."""
    if not (
        isinstance(expr, Call)
        and expr.library is None
        and expr.name.lower() in AGGREGATE_NAMES
    ):
        raise Unsupported("group projection is not a root-level aggregate")
    lowered = expr.name.lower()
    if expr.args and isinstance(expr.args[0], Star):
        return (lowered, None)
    if not expr.args:
        raise Unsupported(f"aggregate {expr.name} without argument")
    return (lowered, compile_match_expr(expr.args[0], var, functions))


def _run_aggregate(ev, spec: Tuple, matches: List):
    lowered, arg_fn = spec
    if arg_fn is None:
        return aggregate_values(lowered, [1] * len(matches))
    values = []
    for m in matches:
        value = arg_fn(ev, m)
        if value is not MISSING and value is not None:
            values.append(value)
    return aggregate_values(lowered, values)


def _compile_row_shape(
    plan: SelectPlan, block: SelectBlock, var: str, functions
) -> Callable:
    """Per-match projection + optional single-key ORDER BY + literal LIMIT."""
    if block.select_value is not None:
        project = compile_match_expr(block.select_value, var, functions)
    else:
        if plan.order_items:
            # dict rows can shadow ORDER BY names via _order_env; the
            # scalar path must handle those
            raise Unsupported("ORDER BY over named projections")
        proj_fns = []
        for position, proj in enumerate(block.projections, start=1):
            if isinstance(proj.expr, Star):
                raise Unsupported("star projection over a match")
            name = proj.alias or default_alias(
                proj.expr, fallback=f"${position}"
            )
            proj_fns.append((name, compile_match_expr(proj.expr, var, functions)))

        def project(ev, m):
            out = {}
            for name, fn in proj_fns:
                value = fn(ev, m)
                if value is not MISSING:
                    out[name] = value
            return out

    order_fn = None
    descending = False
    if plan.order_items:
        if len(plan.order_items) != 1:
            raise Unsupported("multi-key ORDER BY")
        item = block.order_items[0]
        order_fn = compile_match_expr(item.expr, var, functions)
        descending = item.descending

    limit = None
    if block.limit is not None:
        if not (
            isinstance(block.limit, Literal)
            and isinstance(block.limit.value, int)
            and block.limit.value >= 0
        ):
            raise Unsupported("non-literal LIMIT")
        limit = block.limit.value

    if order_fn is None:

        def shape_plain(ev, match_lists):
            return [
                [project(ev, m) for m in matches[:limit]]
                for matches in match_lists
            ]

        return shape_plain

    def shape(ev, match_lists):
        out = []
        append = out.append
        sort_total = 0
        for matches in match_lists:
            rows = [project(ev, m) for m in matches]
            sort_total += len(rows)
            if rows:
                for row in rows:
                    if isinstance(row, dict):
                        # _order_env would rebind row keys — scalar only
                        raise KernelFallback("dict rows under ORDER BY")
                pairs = [
                    (_sort_key(order_fn(ev, m)), row)
                    for m, row in zip(matches, rows)
                ]
                pairs.sort(key=_item0, reverse=descending)
                rows = [row for _key, row in pairs]
            if limit is not None:
                rows = rows[:limit]
            append(rows)
        ev.ctx.meter.sort_items += sort_total
        return out

    return shape


def _item0(pair):
    return pair[0]


# -------------------------------------------------------------- block kernels


class BlockKernel:
    """A compiled whole-batch executor for one top-level UDF body."""

    __slots__ = (
        "param",
        "lets",  # tuple of (var, column) for lets + post_lets
        "where",  # column or None
        "select_value",  # column or None
        "projections",  # tuple of (name_or_None, column)
        "fallback_lets",  # columns whose subquery runs per record
    )

    def __init__(self):
        self.param = None
        self.lets = ()
        self.where = None
        self.select_value = None
        self.projections = ()
        self.fallback_lets = 0

    def run(self, ev, records: List[dict]) -> List:
        """Evaluate the whole batch; returns the flattened output rows."""
        columns: Dict[str, list] = {self.param: records}
        cb = ColumnBatch(columns, len(records))
        for var, column in self.lets:
            columns[var] = column(ev, cb)
        if self.where is not None:
            keep = [truthy(value) for value in self.where(ev, cb)]
            if not any(keep):
                return []
            if not all(keep):
                # the scalar path never projects a filtered-out record
                cb = ColumnBatch(
                    {
                        name: [v for v, ok in zip(col, keep) if ok]
                        for name, col in columns.items()
                    },
                    sum(keep),
                )
        if self.select_value is not None:
            return list(self.select_value(ev, cb))
        proj_cols = [(name, column(ev, cb)) for name, column in self.projections]
        out = []
        append = out.append
        for i in range(cb.n):
            row: Dict[str, object] = {}
            for name, col in proj_cols:
                value = col[i]
                if name is None:  # ``v.*`` expansion
                    if isinstance(value, dict):
                        row.update(value)
                    continue
                if value is not MISSING:
                    row[name] = value
            append(row)
        return out


def compile_block_kernel(
    plan: SelectPlan, params: Tuple[str, ...], ctx
) -> BlockKernel:
    """Compile ``plan`` (a top-level UDF body) into a :class:`BlockKernel`.

    Raises :class:`Unsupported` when the block has FROM terms, grouping,
    ordering, LIMIT, or DISTINCT at the top level — those shapes keep the
    scalar path.
    """
    if len(params) != 1:
        raise Unsupported("kernels require unary functions")
    if plan.terms is not None:
        raise Unsupported("top-level FROM")
    if plan.has_group or plan.order_items or plan.distinct:
        raise Unsupported("top-level GROUP/ORDER/DISTINCT")
    if plan.limit_fn is not None:
        raise Unsupported("top-level LIMIT")
    kernel = BlockKernel()
    kernel.param = params[0]
    block = plan.block
    known: Tuple[str, ...] = (params[0],)

    def column(expr, scalar_fn):
        fn, per_record = _compile_column(expr, scalar_fn, known, ctx)
        kernel.fallback_lets += per_record
        return fn

    lets = []
    for (var, scalar_fn), let in zip(
        plan.let_fns + plan.post_let_fns, block.all_lets
    ):
        lets.append((var, column(let.expr, scalar_fn)))
        known += (var,)
    kernel.lets = tuple(lets)
    if plan.where_fn is not None:
        kernel.where = column(block.where, plan.where_fn)
    if plan.select_value_fn is not None:
        kernel.select_value = column(block.select_value, plan.select_value_fn)
    else:
        kernel.projections = tuple(
            (
                name,
                column(
                    proj.expr.base if isinstance(proj.expr, Star) else proj.expr,
                    scalar_fn,
                ),
            )
            for (name, scalar_fn), proj in zip(plan.projections, block.projections)
        )
    return kernel


def kernel_for(
    plan: SelectPlan, params: Tuple[str, ...], ctx, registry_version: int
):
    """The cached batch kernel for ``plan`` (or :data:`UNSUPPORTED`).

    Cached on the plan keyed by registry version: a new function or Java
    registration can change how a ``Call`` resolves without invalidating
    the plan cache, so kernels recompile when the version moves.
    """
    cached = plan.batch_kernel
    if cached is not None and cached[0] == registry_version:
        return cached[1]
    try:
        kernel = compile_block_kernel(plan, params, ctx)
    except Unsupported:
        kernel = UNSUPPORTED
    plan.batch_kernel = (registry_version, kernel)
    return kernel
