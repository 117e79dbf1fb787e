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
  per-generation (and, cross-batch, StateCache-booked) build table.  The
  inner block's shaping is the planned path's own output stage
  (``Evaluator._planned_output``: group or project, ORDER BY, DISTINCT,
  LIMIT) over a key's match list, run once per build key and match
  list, not once per record: the kernel keeps a key's shaped rows until
  a write changes that key's matches (:func:`_shaped_rows`, the one probe
  pass; a memo only books those rows);
* the plan's own **scalar closure mapped over the batch** with a pooled
  flat ``Env`` whose bound-name set is the scalar chain's, so nested
  plan-cache keys (and therefore uncorrelated-result tokens) match the
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
always-evaluated positions and why per-key shaping is restricted to
charge-free expressions.  A record served rows an earlier batch shaped
is charged its probe and the sort / group items shaping them charged,
exactly as if it had shaped them itself.

Failure protocol: kernels never handle errors themselves.  A
:class:`KernelFallback` runtime guard — a live B-tree on the probed
field, the one shape only known at run time — aborts one function's
kernel: the feed's invoker discards what that kernel charged and runs
the function once per record instead.  Any other exception propagates to the UDF
operator, which discards the frame's charges and re-runs each record
alone, as a batch of one, so the soft-error policy sees the record that
failed.  A build an aborted attempt charged is kept in the generation's
``SnapshotSet``, so neither re-run re-charges it — totals stay identical.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, Tuple

from ..adm.values import MISSING
from ..hyracks.cost import WorkMeter
from ..storage.index import IndexKind
from .analysis import call_dependencies, split_conjuncts
from .ast import (
    ArrayConstructor,
    BinaryOp,
    Call,
    CaseExpr,
    Exists,
    Expr,
    FieldAccess,
    IndexAccess,
    ObjectConstructor,
    SelectBlock,
    Star,
    Subquery,
    UnaryOp,
    VarRef,
    walk,
)
from .evaluator import Env, _BuildSide
from .functions import AGGREGATE_NAMES, VECTORIZABLE_BUILTINS
from .memo import canonical_probe_key
from .plans import SelectPlan, compile_expr, truthy
from .state_cache import estimate_entry_bytes


class Unsupported(Exception):
    """Compile-time: this shape has no batched form."""


class KernelFallback(Exception):
    """Runtime: this batch cannot run vectorized (a B-tree index appeared
    on the probe field); the caller discards the kernel's charges and
    evaluates this function's batch record by record."""


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


# ------------------------------------------------------- probe subquery kernel


def _compile_probe_kernel(
    inner_plan: SelectPlan, known: Tuple[str, ...], ctx
) -> Callable:
    """One hash-probe pass per batch over a single-term equality subquery.

    Admitted (anything else raises :class:`Unsupported`): exactly one FROM
    term, with an equality access path; a WHERE that is exactly the probe
    conjunct; no LETs; and shaping — SELECT, GROUP BY, ORDER BY, LIMIT —
    that reads no name bound outside the block but the term variable and
    calls only charge-free builtins and aggregates no registered function
    shadows.  A key's rows are then the planned path's own output stage
    (``Evaluator._planned_output``) over one ``Env`` per match, a pure
    function of the match list.
    """
    terms = inner_plan.terms
    if terms is None or len(terms) != 1:
        raise Unsupported("probe kernel needs exactly one FROM term")
    tp = terms[0]
    if not tp.is_dataset or tp.access_kind != "equality":
        raise Unsupported("no single-dataset equality access path")
    if inner_plan.let_fns or inner_plan.post_let_fns:
        raise Unsupported("inner LETs")
    block = inner_plan.block
    if len(split_conjuncts(block.where)) != 1:
        raise Unsupported("WHERE is more than the probe conjunct")
    _check_shaping(block, known, ctx.functions)
    probe_k, per_record = _compile_column(tp.probe_expr, tp.probe_fn, known, ctx)
    if per_record:
        raise Unsupported("probe key runs a subquery per record")
    var = tp.var
    field = tp.access_field
    dataset_name = tp.dataset_name
    no_index = tp.no_index
    scope = Env()  # the block's scope: the shaping reads nothing outside it
    scratch = WorkMeter()

    def shape(ev, matches) -> Tuple:
        """``(rows, group_items, sort_items)`` for one match list."""
        ctx = ev.ctx
        meter, ctx.meter = ctx.meter, scratch
        try:
            rows = ev._planned_output(
                inner_plan, scope, [Env({var: match}, scope) for match in matches]
            )
            return rows, scratch.group_items, scratch.sort_items
        finally:
            ctx.meter = meter
            scratch.group_items = scratch.sort_items = 0

    # this kernel's (snapshot, shaped-row store): see _shaped_rows
    held = [(None, {})]
    token = inner_plan.token

    def run(ev, cb):
        dataset = ev.ctx.catalog[dataset_name]
        if not no_index and dataset.index_on(field, IndexKind.BTREE) is not None:
            # The scalar path would probe the live B-tree per record,
            # with different charges — this batch cannot vectorize.
            raise KernelFallback(f"B-tree on {dataset_name}.{field}")
        keys = probe_k(ev, cb)
        return _shaped_rows(ev, dataset, field, shape, held, token, keys)

    return run


#: what shaping may call: aggregates and the builtins that never charge
_SHAPING_CALLS = VECTORIZABLE_BUILTINS | AGGREGATE_NAMES


def _check_shaping(block: SelectBlock, known: Tuple[str, ...], functions) -> None:
    """Raise :class:`Unsupported` unless ``block``'s shaping is charge-free
    and reads nothing the record-at-a-time path binds outside the block.

    Shaping runs once per key, not once per record, so it must charge
    nothing (Java, registry and metered builtin calls can; a registered
    function shadowing a builtin is refused like any other) and run no
    nested select.  An outer name (``known``) would resolve per record;
    every other name resolves inside the block, in the catalog, or nowhere,
    on both paths alike.
    """
    exprs = [
        block.select_value,
        block.limit,
        *(proj.expr for proj in block.projections),
        *(key.expr for key in block.group_keys),
        *(item.expr for item in block.order_items),
    ]
    for node in (node for expr in exprs for node in walk(expr)):
        if isinstance(node, (SelectBlock, Subquery)):
            raise Unsupported("nested select in the shaping")
        if isinstance(node, VarRef) and node.name in known:
            raise Unsupported(f"shaping reads outer {node.name!r}")
        if isinstance(node, Call) and (
            node.library is not None
            or node.name.lower() not in _SHAPING_CALLS
            or (functions is not None and functions.has(node.name))
        ):
            raise Unsupported(f"function {node.qualified_name}")


def _shaped_rows(
    ev, dataset, field: str, shape: Callable, held: List, token, keys: List
) -> List:
    """The shaped rows of each probe key in ``keys``, in one probe pass.

    A key's rows are a pure function of its build-table match list
    (:func:`_compile_probe_kernel` admits no shaping that charges or reads
    past the block), so they are derived once per match list and kernel:
    ``held[0]`` is the kernel's ``(snapshot, store)`` pair.  When the
    generation pins another snapshot than the store was last read against,
    the store carries over to it, dropping each entry whose key's match
    list in the new ``("hash", name, field)`` table is not the very list
    it was shaped from.  A carried-forward table copies only the lists a
    write touched (``evaluator._BuildSide.forward``) and a rebuilt one
    holds all new lists, so a write reshapes exactly the keys whose
    matches it changed.  The store lives and dies with the compiled kernel
    — never keyed by a plan token (tokens are per ``PlanCache``), never
    left on the snapshot by a kernel a registry recompiled.  A key is
    shaped the first time a batch probes it, and its entry is ``(rows,
    group_items, sort_items, nbytes, matches)``: what ``shape(ev,
    matches)`` returned, the rows' byte estimate, sized once per entry
    (``None`` when no memo was attached to book them), and the match
    list.  Keys that match nothing (absent, NULL, MISSING, and NaN, which
    the scalar WHERE recheck rejects) share the single entry of the empty
    match list, filed under ``None`` with ``None`` for its match list: no
    table key equals ``None``, so that entry survives every carry-over,
    and a store never holds more than the table's distinct keys + 1
    entries.  Records share row lists; nothing downstream mutates them in
    place.

    Every charge stays per record.  An attached memo books each key's rows
    (``("probe", token, canonical key)``, no value) and only decides the
    charge: a booked key is ``memo_hits`` +1 and ``memo_reused_records``
    + its row count, any other (NULL, MISSING and NaN always) is
    ``hash_probes`` +1 plus its entry's group and sort items.  A booking
    implies the store holds the key: the same version pins the same
    snapshot, and a registration, which recompiles kernels, clears the
    memo.  The build is charged only when some key is not booked.
    """
    ctx = ev.ctx
    memo = ctx.memo
    booked = set()  # canonical keys the memo booked at this version
    canonical = repeat(None)  # per record: its canonical key, or None
    build = memo is None
    if memo is not None:
        version = ctx.snapshots.version((dataset.name,))
        canonical = [
            None
            if key is MISSING or key is None or key != key
            else canonical_probe_key(key)
            for key in keys
        ]
        for ck in canonical:  # a key is asked until it hits
            if ck in booked:
                continue
            if ck is not None and memo.get(("probe", token, ck), version) is not None:
                booked.add(ck)
            else:
                build = True
    if build:
        ev._hash_table(dataset, field)
    snapshot = ctx.snapshots.pin(dataset)
    matched = _BuildSide(dataset.name, field).table(snapshot).get
    shaped_from, store = held[0]
    if shaped_from is not snapshot:
        # an entry stays while its key's matches are the list it was shaped from
        for key in [k for k, entry in store.items() if matched(k) is not entry[4]]:
            del store[key]
        held[0] = (snapshot, store)
    cached = store.get
    shaped = []
    append = shaped.append
    grouped = sorted_ = hits = reused = 0
    for key, ck in zip(keys, canonical):
        try:
            entry = cached(key)
        except TypeError:  # an array or object: see _BuildSide
            key = canonical_probe_key(key)
            entry = cached(key)
        if entry is None:
            matches = None
            if key is not MISSING and key is not None and key == key:
                matches = matched(key)
            if matches is None:
                key = None
                entry = cached(None)
            if entry is None:  # a raise stores nothing
                rows, group_items, sort_items = shape(ev, matches or [])
                nbytes = None if memo is None else estimate_entry_bytes(rows)
                entry = store[key] = (rows, group_items, sort_items, nbytes, matches)
        if ck in booked:
            hits += 1
            reused += len(entry[0])
        else:
            grouped += entry[1]
            sorted_ += entry[2]
        append(entry)
    meter = ctx.meter
    meter.hash_probes += len(keys) - hits
    meter.group_items += grouped
    meter.sort_items += sorted_
    if memo is not None:
        meter.memo_hits += hits
        meter.memo_reused_records += reused
        for ck, (rows, _g, _s, nbytes, _m) in zip(canonical, shaped):
            if ck is not None and ck not in booked:
                if nbytes is None:  # shaped by a run with no memo attached
                    nbytes = estimate_entry_bytes(rows)
                memo.put(("probe", token, ck), version, None, len(rows), nbytes)
    return [entry[0] for entry in shaped]


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
    scalar path — and when it calls an impure Java UDF: column by column,
    its calls would come in another order than record by record.
    """
    if len(params) != 1:
        raise Unsupported("kernels require unary functions")
    if call_dependencies(plan.block, ctx.functions, plan.catalog_names) is None:
        raise Unsupported("calls an impure Java UDF")
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
