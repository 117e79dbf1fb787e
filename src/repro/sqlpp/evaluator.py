"""SQL++ evaluation with per-batch access plans (Model 2 semantics).

The interpreter evaluates any expression of the subset against the stored
catalog.  Its crucial property for the paper is *how* it accesses reference
datasets:

* **batch-cached hash access** — an equality-correlated subquery over a
  dataset without a matching index scans the dataset once per
  :class:`EvaluationContext` generation and builds an in-memory hash table
  (the hash-join build of §4.3.4 case 1).  Updates committed after the
  build are invisible until the context is refreshed — exactly the paper's
  per-batch visibility rule (§5.1).
* **live index probes** — a correlated predicate matching a B-tree/R-tree
  index probes the *live* index, so it observes updates mid-batch (§4.3.4
  case 3, the Nearby Monuments plan).
* **batch-cached uncorrelated subqueries** — a subquery with no free outer
  variables (e.g. Figure 18's top-10 countries) is evaluated once per
  context generation and cached.

A *computing job* gives every batch a fresh context generation; the *old*
static framework reuses one generation for the feed's lifetime, which is
precisely why it serves stale enrichments.

Work-unit accounting: cache *builds* meter onto ``ctx.shared_meter``
(that work is partitioned across the cluster by the computing job), while
per-record probe work meters onto ``ctx.meter`` (per-partition).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isfinite
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..adm.schema import field_getter
from ..adm.values import MISSING, Circle, Point, Rectangle
from ..adm.values import spatial_intersect as _geo_intersect
from ..errors import SqlppAnalysisError, SqlppEvaluationError
from ..hyracks.cost import WorkMeter
from ..storage.dataset import ReferenceSnapshot
from ..storage.index import IndexKind
from ..storage.rtree import BOUNDABLE
from .analysis import call_dependencies, free_vars, split_conjuncts
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
)
from .functions import (
    AGGREGATE_NAMES,
    BUILTINS,
    distinct_values,
    sort_key,
    value_key,
)
from .plans import (
    SENTINEL,
    DatasetRef,
    PlanCache,
    SelectPlan,
    SpatialFilter,
    TermPlan,
    aggregate_values,
    apply_binary,
    default_alias,
    find_access_path,
    has_top_level_aggregate,
    order_terms,
    truthy,
)
from .memo import canonical_probe_key
from .state_cache import dict_slot_bytes, estimate_entry_bytes, seq_slot_bytes


class SnapshotSet:
    """What one context generation reads, and what it built from that.

    :meth:`pin` takes a dataset's snapshot at the generation's first touch
    of it, whichever read that is, uncharged: every scan, hash build and
    probe of the generation reads that snapshot's ``records``, so a write
    landing inside the job stays invisible until the next generation.
    :meth:`version` is the one spelling of the proof every StateCache and
    memo entry is filed under.  ``built`` holds what the generation
    computed once — charged builds, uncorrelated-subquery results, Java
    UDF instances — and lapses with it.
    """

    __slots__ = ("catalog", "pinned", "built")

    def __init__(self, catalog: Dict[str, object]):
        self.catalog = catalog
        self.pinned: Dict[str, ReferenceSnapshot] = {}
        self.built: Dict[tuple, object] = {}

    def pin(self, dataset) -> ReferenceSnapshot:
        snapshot = self.pinned.get(dataset.name)
        if snapshot is None:
            snapshot = self.pinned[dataset.name] = dataset.snapshot()
        return snapshot

    def version(self, names) -> Tuple:
        """Sorted ``(name, lsns)`` pairs for the catalog datasets in
        ``names``, at the LSNs this generation pinned — never live ones, so
        a write that reaches a partition mid-job cannot file pre-write state
        as current."""
        catalog = self.catalog
        return tuple(
            (name, self.pin(catalog[name]).lsns)
            for name in sorted(names)
            if name in catalog
        )

    def java_instance(self, descriptor, meter: WorkMeter):
        """This generation's instance of a Java UDF, created on first use.

        Resource files are node-local: every node re-reads the whole file
        when a new generation initializes the UDF, so ``meter`` is the
        context's replicated meter.
        """
        key = ("java_instance", descriptor.qualified_name)
        instance = self.built.get(key)
        if instance is None:
            instance = self.built[key] = descriptor.instantiate()
            meter.records_scanned += instance.resource_lines_loaded
        return instance


class EvaluationContext:
    """Catalog + functions + work meters + the generation's snapshots."""

    def __init__(
        self,
        catalog: Dict[str, object],
        functions=None,
        meter: Optional[WorkMeter] = None,
        reference_work_scale: float = 1.0,
        use_plans: bool = True,
        state_cache=None,
        memo=None,
    ):
        self.catalog = catalog
        self.functions = functions  # repro.udf.FunctionRegistry or None
        self.reference_work_scale = reference_work_scale
        self.meter = meter if meter is not None else WorkMeter()
        self.meter.scale = reference_work_scale
        self.shared_meter = WorkMeter(scale=reference_work_scale)
        # Work replicated on EVERY node (node-local resource-file reads):
        # charged in full to each node, unlike shared_meter which is
        # partitioned work divided across the cluster.
        self.replicated_meter = WorkMeter(scale=reference_work_scale)
        self.snapshots = SnapshotSet(catalog)
        self.cluster_nodes = 1  # set by the ingestion pipelines
        # Compile-once plans (§5.2 analog): share the registry's cache when
        # there is one, so plans survive across per-batch contexts and are
        # invalidated centrally on function UPSERTs / DDL.
        self.use_plans = use_plans
        registry_cache = getattr(functions, "plan_cache", None)
        self.plan_cache: PlanCache = (
            registry_cache if registry_cache is not None else PlanCache()
        )
        # Cross-batch enrichment-state cache (version-keyed build reuse).
        # ``None`` (the default) keeps exact per-batch-rebuild cost
        # accounting; feed pipelines attach the registry-owned cache when
        # the feed's policy grants a byte budget.
        self.state_cache = state_cache
        # Cross-batch key-level enrichment memo (per-key correlated
        # subquery / probe-kernel results).  Same attach contract as the
        # state cache: ``None`` by default, wired in by the pipelines when
        # ``FeedPolicy.enrichment_memo_bytes`` grants a budget.
        self.memo = memo

    def refresh_batch(self) -> None:
        """Start a new generation: nothing pinned, nothing built."""
        self.snapshots = SnapshotSet(self.catalog)

    def dataset(self, name: str):
        return self.catalog.get(name)


class Group:
    """One GROUP BY group as the scopes inside it see it: the member tuple
    envs (what an aggregate folds over) and the key values that shadow a
    re-evaluation of the key expressions."""

    __slots__ = ("members", "key_values")

    def __init__(self, members: List["Env"], key_values: Dict[Expr, object]):
        self.members = members
        self.key_values = key_values


class Env:
    """A lexical scope chain of variable bindings."""

    __slots__ = ("vars", "parent", "group")

    def __init__(self, vars=None, parent: Optional["Env"] = None):
        self.vars: Dict[str, object] = vars or {}
        self.parent = parent
        # Nearest enclosing group, maintained eagerly so the per-record hot
        # path (every VarRef/FieldAccess checks for group-key shadowing) is
        # an attribute read instead of a chain walk.  A group env assigns
        # ``.group`` before any child scopes are made, so inheriting the
        # parent's pointer at construction is exact.  The pointer is to the
        # :class:`Group`, not to the group env: an env that pointed at
        # itself would be a reference cycle only the collector frees.
        self.group: Optional[Group] = parent.group if parent is not None else None

    _SENTINEL = SENTINEL  # shared with compiled closures (plans.SENTINEL)

    def lookup(self, name: str):
        env: Optional[Env] = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return Env._SENTINEL

    def is_bound(self, name: str) -> bool:
        return self.lookup(name) is not Env._SENTINEL

    def bound_names(self) -> Set[str]:
        names: Set[str] = set()
        env: Optional[Env] = self
        while env is not None:
            names.update(env.vars)
            env = env.parent
        return names

    def child(self, vars=None) -> "Env":
        return Env(vars or {}, parent=self)


# SQL++ WHERE semantics: NULL/MISSING are not true (shared with plans.py).
_truthy = truthy

_ITEM0 = itemgetter(0)

# Returned by _memoized_correlated when the memo proof does not hold and
# the caller must fall through to a live _planned_select evaluation.
_MEMO_BYPASS = object()


class _CarriedTable(dict):
    """A build table carried forward from its predecessor snapshot's, with
    ``positions``: per key, the ``(partition, primary key)`` of each of its
    records, in the order the records are."""

    __slots__ = ("positions",)


class _BuildSide:
    """``records -> {field value: [records]}``, the hash-join build side.

    An unhashable value (an array or object) keys by
    :func:`~repro.sqlpp.memo.canonical_probe_key`, and so does every probe
    that is one: equal ADM values share one key, and no scalar equals one
    (``'US' = ['US']`` is false).
    """

    __slots__ = ("key", "get")

    def __init__(self, name: str, field: str):
        self.key = ("hash", name, field)
        self.get = field_getter(field)

    def table(self, snapshot) -> Dict:
        """``snapshot``'s table: carried forward from its predecessor's, or
        built from its records."""
        return snapshot.derived(self.key, self.build, self.forward)

    def build(self, records) -> Dict:
        key_of = self._key_of
        table: Dict = {}
        for record in records:
            key = key_of(record)
            if key is not None:
                table.setdefault(key, []).append(record)
        return table

    def _key_of(self, record):
        """The table key ``record`` files under; ``None`` for none."""
        value = self.get(record)
        if value is MISSING or value is None:
            return None
        try:
            hash(value)
        except TypeError:
            return canonical_probe_key(value)
        return value

    def forward(self, table: Dict, delta) -> Optional[Dict]:
        """``table`` moved by ``delta``, copy on write: a key's list is
        copied only when one of its records changes, so every other key
        keeps its list, and a record goes in where the scan has it.
        ``None`` when positions do not order (keys of several types in one
        partition)."""
        positions = getattr(table, "positions", None)
        if positions is None:
            positions = {}
            for position, record in zip(delta.old.positions(), delta.old.records):
                key = self._key_of(record)
                if key is not None:
                    positions.setdefault(key, []).append(position)
        moved = _CarriedTable(table)
        moved.positions = at = dict(positions)
        copied = set()

        def own(key):
            if key not in copied:
                copied.add(key)
                moved[key] = list(moved.get(key, ()))
                at[key] = list(at.get(key, ()))
            return moved[key], at[key]

        try:
            for position, record in delta.removed:
                key = self._key_of(record)
                if key is not None:
                    matches, spots = own(key)
                    i = bisect_left(spots, position)
                    del matches[i], spots[i]
            for position, record in delta.added:
                key = self._key_of(record)
                if key is not None:
                    matches, spots = own(key)
                    i = bisect_left(spots, position)
                    matches.insert(i, record)
                    spots.insert(i, position)
        except TypeError:
            return None
        for key in copied:
            if not moved[key]:
                del moved[key], at[key]
        return moved

    def forward_bytes(self, nbytes: int, delta) -> int:
        """The table's byte estimate moved by ``delta``: the changed
        records' slots, and a key's slot when it comes or goes."""
        old, new = self.table(delta.old), self.table(delta.new)
        keys = set()
        for sign, changes in ((-1, delta.removed), (1, delta.added)):
            for _position, record in changes:
                key = self._key_of(record)
                if key is not None:
                    nbytes += sign * seq_slot_bytes(record)
                    keys.add(key)
        for key in keys:
            if (key in old) != (key in new):
                nbytes += (1 if key in new else -1) * dict_slot_bytes(key, ())
        return nbytes


def _forward_scan_bytes(nbytes: int, delta) -> int:
    """The scan's byte estimate moved by ``delta``'s record slots."""
    return (
        nbytes
        + sum(seq_slot_bytes(record) for _position, record in delta.added)
        - sum(seq_slot_bytes(record) for _position, record in delta.removed)
    )


class Evaluator:
    """Evaluates expressions of the SQL++ subset."""

    def __init__(self, ctx: EvaluationContext):
        self.ctx = ctx
        # the running block evaluation's hoisted values (plans.Hoisting)
        self.hoisted: Optional[List] = None

    # ----------------------------------------------------------------- entry

    def evaluate(self, expr: Expr, env: Env):
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise SqlppEvaluationError(f"cannot evaluate node {type(expr).__name__}")
        return method(self, expr, env)

    def evaluate_query(self, expr: Expr, bindings: Optional[Dict[str, object]] = None):
        """Evaluate a top-level query; returns its value (list for selects)."""
        return self.evaluate(expr, Env(dict(bindings or {})))

    # ------------------------------------------------------------ leaf nodes

    def _eval_literal(self, expr: Literal, env: Env):
        return expr.value

    def _eval_missing(self, expr: MissingLiteral, env: Env):
        return MISSING

    def _eval_varref(self, expr: VarRef, env: Env):
        # group-key expression lookup first (GROUP BY aliases shadow)
        group = env.group
        if group is not None and group.key_values:
            if expr in group.key_values:
                return group.key_values[expr]
        value = env.lookup(expr.name)
        if value is not Env._SENTINEL:
            return value
        dataset = self.ctx.dataset(expr.name)
        if dataset is not None:
            return DatasetRef(dataset)
        raise SqlppAnalysisError(f"unresolved variable: {expr.name}")

    def _eval_field(self, expr: FieldAccess, env: Env):
        group = env.group
        if group is not None and group.key_values:
            if expr in group.key_values:
                return group.key_values[expr]
        base = self.evaluate(expr.base, env)
        if base is MISSING or base is None:
            return MISSING
        if isinstance(base, dict):
            return base.get(expr.field, MISSING)
        return MISSING

    def _eval_index(self, expr: IndexAccess, env: Env):
        base = self.evaluate(expr.base, env)
        index = self.evaluate(expr.index, env)
        if base is MISSING or index is MISSING:
            return MISSING
        if base is None or index is None:
            return None
        if not isinstance(base, list) or not isinstance(index, int):
            return MISSING
        if -len(base) <= index < len(base):
            return base[index]
        return MISSING

    # ------------------------------------------------------------- operators

    def _eval_unary(self, expr: UnaryOp, env: Env):
        value = self.evaluate(expr.operand, env)
        if expr.op == "not":
            if value is MISSING or value is None:
                return value
            return not bool(value)
        if expr.op == "-":
            if value is MISSING or value is None:
                return value
            return -value
        raise SqlppEvaluationError(f"unknown unary operator {expr.op!r}")

    def _eval_binary(self, expr: BinaryOp, env: Env):
        op = expr.op
        if op == "and":
            left = self.evaluate(expr.left, env)
            if not _truthy(left):
                return False
            return _truthy(self.evaluate(expr.right, env))
        if op == "or":
            left = self.evaluate(expr.left, env)
            if _truthy(left):
                return True
            return _truthy(self.evaluate(expr.right, env))
        left = self.evaluate(expr.left, env)
        right = self.evaluate(expr.right, env)
        return apply_binary(op, left, right)

    # ------------------------------------------------------------------ call

    def _eval_call(self, expr: Call, env: Env):
        name = expr.name.lower()
        if expr.library is None and name in AGGREGATE_NAMES:
            return self._eval_aggregate(expr, env)
        args = [self.evaluate(arg, env) for arg in expr.args]
        if expr.library is not None:
            if self.ctx.functions is None:
                raise SqlppAnalysisError(
                    f"no function registry for {expr.qualified_name}"
                )
            return self.ctx.functions.invoke_java(
                expr.library, expr.name, args, self.ctx
            )
        if self.ctx.functions is not None and self.ctx.functions.has(expr.name):
            return self.ctx.functions.invoke(expr.name, args, self.ctx)
        builtin = BUILTINS.lookup(name)
        if builtin is None:
            raise SqlppAnalysisError(f"unknown function: {expr.name}")
        try:
            return builtin(self.ctx, *args)
        except (TypeError, ValueError, AttributeError) as exc:
            raise SqlppEvaluationError(f"{expr.name}: {exc}") from exc

    def _eval_aggregate(self, expr: Call, env: Env):
        name = expr.name.lower()
        group = env.group
        if group is not None:
            values = []
            if expr.args and isinstance(expr.args[0], Star):
                values = [1] * len(group.members)
            else:
                arg = expr.args[0] if expr.args else Star(VarRef("*"))
                for tuple_env in group.members:
                    value = self.evaluate(arg, tuple_env)
                    if value is not MISSING and value is not None:
                        values.append(value)
            return aggregate_values(name, values)
        # No group: SQL++ array form — the argument must be a collection.
        if not expr.args:
            raise SqlppEvaluationError(f"{name}() requires an argument")
        value = self.evaluate(expr.args[0], env)
        if value is MISSING:
            return MISSING
        if value is None:
            return None
        if not isinstance(value, list):
            raise SqlppEvaluationError(
                f"{name}() outside GROUP BY requires an array argument"
            )
        cleaned = [v for v in value if v is not None and v is not MISSING]
        return aggregate_values(name, cleaned)

    # ----------------------------------------------------------- other nodes

    def _eval_case(self, expr: CaseExpr, env: Env):
        if expr.operand is not None:
            operand = self.evaluate(expr.operand, env)
            for cond, value in expr.whens:
                if self.evaluate(cond, env) == operand:
                    return self.evaluate(value, env)
        else:
            for cond, value in expr.whens:
                if _truthy(self.evaluate(cond, env)):
                    return self.evaluate(value, env)
        if expr.default is not None:
            return self.evaluate(expr.default, env)
        return None

    def _eval_object(self, expr: ObjectConstructor, env: Env):
        out = {}
        for name, value_expr in expr.fields:
            value = self.evaluate(value_expr, env)
            if value is not MISSING:
                out[name] = value
        return out

    def _eval_array(self, expr: ArrayConstructor, env: Env):
        return [self.evaluate(item, env) for item in expr.items]

    def _eval_exists(self, expr: Exists, env: Env):
        value = self.evaluate(expr.subquery, env)
        if isinstance(value, list):
            return len(value) > 0
        return value is not MISSING and value is not None

    def _eval_subquery(self, expr: Subquery, env: Env):
        return self._cached_select(expr.select, env)

    def _eval_star(self, expr: Star, env: Env):
        raise SqlppEvaluationError("'.*' is only valid in a SELECT clause")

    # ---------------------------------------------------------------- select

    def _cached_select(self, block: SelectBlock, env: Env):
        """Evaluate a select block, once per generation when it has no
        outer refs (:meth:`_uncorrelated`).

        With ``use_plans`` (the default) the block's compiled plan carries
        the cacheability verdict and all structural analysis; the
        interpreted fallback re-derives them per call.
        """
        ctx = self.ctx
        if ctx.use_plans:
            plan = ctx.plan_cache.plan_for(block, env.bound_names(), ctx.catalog)
            if plan.cacheable:
                return self._uncorrelated(
                    plan.token, plan.dataset_deps, self._planned_select, plan, env
                )
            if (
                ctx.memo is not None
                and plan.correlated_vars
                and plan.correlated_deps
            ):
                result = self._memoized_correlated(plan, env)
                if result is not _MEMO_BYPASS:
                    return result
            return self._planned_select(plan, env)
        fv = free_vars(block)
        if fv and all(name in ctx.catalog for name in fv):
            return self._uncorrelated(
                ctx.plan_cache.token_for(block), fv, self.evaluate_select, block, env
            )
        return self.evaluate_select(block, env)

    def _uncorrelated(self, token, deps, select, subject, env: Env) -> List:
        """A block whose free variables are all catalog datasets, evaluated
        once per generation: Figure 18's top-10 list, stale until the next
        batch.  ``select(subject, env, meter=...)`` is the planned or the
        interpreted SELECT; its work goes on the shared meter.

        Keyed by the plan cache's stable token, never raw ``id()``, which
        can be recycled after the block is garbage-collected.  The result
        is the one value the StateCache holds: no snapshot re-derives it.
        """
        ctx = self.ctx
        key = ("uncorrelated", token)
        built = ctx.snapshots.built
        result = built.get(key)
        if result is not None:
            return result
        cache = ctx.state_cache
        if cache is not None:
            deps = self._guard(subject, deps)
            if deps is None:
                cache = None
        if cache is not None:
            version = ctx.snapshots.version(deps)
            entry = cache.get(key, version)
            if entry is not None:
                ctx.shared_meter.state_cache_hits += 1
                ctx.shared_meter.state_cache_reused_records += entry.records
                built[key] = entry.value
                return entry.value
        result = built[key] = select(subject, env, meter=ctx.shared_meter)
        if cache is not None:
            cache.put(key, version, result, len(result))
        return result

    def _guard(self, subject, deps):
        """The datasets a cross-batch cache entry (the state cache's, the
        memo's) for the block of ``subject``, a plan or the interpreter's
        block, is filed under: its own ``deps`` and those its registered
        functions read.  None when no such cache may serve it: it calls an
        impure Java UDF, whose value depends on the calls before it
        (:func:`call_dependencies`).  A plan keeps the verdict per registry
        version."""
        functions = self.ctx.functions
        if not isinstance(subject, SelectPlan):
            called = call_dependencies(subject, functions, self.ctx.catalog.keys())
        else:
            version = getattr(functions, "version", None)
            verdict = subject.called_deps
            if verdict is None or verdict[0] is not functions or verdict[1] != version:
                verdict = subject.called_deps = (
                    functions,
                    version,
                    call_dependencies(subject.block, functions, subject.catalog_names),
                )
            called = verdict[2]
        return None if called is None else deps | called

    def evaluate_select(
        self, block: SelectBlock, env: Env, meter: Optional[WorkMeter] = None
    ) -> List:
        """Full SELECT block evaluation; returns a list of results."""
        saved_meter = None
        if meter is not None:
            saved_meter = self.ctx.meter
            self.ctx.meter = meter
        try:
            return self._evaluate_select(block, env)
        finally:
            if saved_meter is not None:
                self.ctx.meter = saved_meter

    def _evaluate_select(self, block: SelectBlock, env: Env) -> List:
        scope = env.child()
        for let in block.lets:
            scope.vars[let.var] = self.evaluate(let.expr, scope)

        if block.from_terms:
            tuple_envs = self._generate_tuples(block, scope)
        else:
            single = scope.child()
            for let in block.post_lets:
                single.vars[let.var] = self.evaluate(let.expr, single)
            if block.where is not None and not _truthy(
                self.evaluate(block.where, single)
            ):
                tuple_envs = []
            else:
                tuple_envs = [single]

        implicit_group = (
            not block.group_keys
            and block.from_terms
            and has_top_level_aggregate(block)
        )
        if block.group_keys or implicit_group:
            rows = self._grouped_output(block, scope, tuple_envs, implicit_group)
        else:
            rows = self._ordered_projected(block, tuple_envs)

        if block.distinct:
            rows = distinct_values(rows)
        if block.limit is not None:
            limit = self.evaluate(block.limit, scope)
            if not isinstance(limit, int) or limit < 0:
                raise SqlppEvaluationError("LIMIT must be a non-negative integer")
            rows = rows[:limit]
        return rows

    # ------------------------------------------------------- tuple generation

    def _generate_tuples(self, block: SelectBlock, scope: Env) -> List[Env]:
        conjuncts = split_conjuncts(block.where)
        outer_bound = scope.bound_names() - set(self.ctx.catalog)
        order = order_terms(
            block.from_terms, conjuncts, outer_bound, frozenset(self.ctx.catalog)
        )
        tuples: List[Env] = []

        def recurse(idx: int, env_cur: Env, bound: Set[str], dataset_depth: int):
            if idx == len(order):
                final = env_cur.child()
                for let in block.post_lets:
                    final.vars[let.var] = self.evaluate(let.expr, final)
                if block.where is not None and not _truthy(
                    self.evaluate(block.where, final)
                ):
                    return
                tuples.append(final)
                return
            term = order[idx]
            is_dataset_term = (
                isinstance(term.source, VarRef)
                and term.source.name in self.ctx.catalog
                and not env_cur.is_bound(term.source.name)
            )
            candidates = self._access_term(term, conjuncts, env_cur, bound, block)
            if is_dataset_term and dataset_depth >= 1:
                # Reference-to-reference join pairs: the outer side's
                # candidate count is itself scaled down, so the pair work
                # carries one extra reference-work-scale factor (pair counts
                # are quadratic in dataset cardinality; the meter applies
                # the other factor).
                candidates = list(candidates)
                self.ctx.meter.nlj_pairs += int(
                    len(candidates) * self.ctx.reference_work_scale
                )
            for record in candidates:
                recurse(
                    idx + 1,
                    env_cur.child({term.var: record}),
                    bound | {term.var},
                    dataset_depth + (1 if is_dataset_term else 0),
                )

        recurse(0, scope, set(outer_bound), 0)
        return tuples

    # ----------------------------------------------------------- access paths

    def _access_term(
        self,
        term: FromTerm,
        conjuncts: List[Expr],
        env: Env,
        bound: Set[str],
        block: SelectBlock,
    ) -> Iterable:
        source = term.source
        # Non-dataset sources: evaluate and iterate.
        if not (
            isinstance(source, VarRef)
            and source.name in self.ctx.catalog
            and not env.is_bound(source.name)
        ):
            value = self.evaluate(source, env)
            if isinstance(value, DatasetRef):
                return self._scan_dataset(value.dataset)
            if value is MISSING or value is None:
                return []
            if isinstance(value, list):
                return value
            raise SqlppEvaluationError(
                f"FROM source for {term.var!r} is not iterable"
            )

        dataset = self.ctx.catalog[source.name]
        no_index = "no-index" in term.hints or "no-index" in block.hints
        path = find_access_path(term, conjuncts, bound, frozenset(self.ctx.catalog))
        if path is not None:
            kind, field, probe_builder = path
            if kind == "equality":
                probe_value = self.evaluate(probe_builder, env)
                index_name = (
                    dataset.index_on(field, IndexKind.BTREE) if not no_index else None
                )
                if index_name is not None:
                    return self._btree_probe(dataset, index_name, probe_value)
                return self._hash_probe(dataset, field, probe_value)
            if kind == "spatial":
                index_name = (
                    dataset.index_on(field, IndexKind.RTREE) if not no_index else None
                )
                if index_name is not None:
                    query = self.evaluate(probe_builder, env)
                    if query is MISSING or query is None:
                        return []
                    return self._rtree_probe(dataset, index_name, query)
                # no index: fall through to a batch-cached scan (naive NLJ)
        return self._scan_dataset(dataset)

    # Access-path implementations ------------------------------------------

    @staticmethod
    def _penalty_units(dataset, reads: int, index_probe: bool = False) -> int:
        """Activity-penalty units for ``reads`` reference accesses (§7.3).

        Zero when the dataset's in-memory component is quiescent.  A
        per-batch *scan* ploughs through the memtable once — its penalty
        grows gently (sqrt) with update pressure.  *Index probes* pay the
        memtable check on every access throughout the job, so their
        penalty grows much faster — this is why Nearby Monuments degrades
        to 24% under a 400/s update rate while the scan-once cases keep
        ~52% (paper §7.3).
        """
        if not dataset.update_activity:
            return 0
        pressure = dataset.update_pressure
        if index_probe:
            return int(reads * (0.15 + 4.0 * pressure))
        return int(reads * 0.35 * pressure**0.5)

    def _memoized_correlated(self, plan, env):
        """Key-level memo for a correlated (hash-probe-backed) subquery.

        The block's result is a pure function of (a) the bindings of its
        free outer variables and (b) the contents of the catalog datasets
        it reads — so an entry keyed on the canonical outer bindings and
        guarded by the datasets' :meth:`SnapshotSet.version` is a proof the
        recomputation would be identical — the datasets the functions it
        calls read among them (:meth:`_guard`).  Bypasses (returns
        :data:`_MEMO_BYPASS`) whenever the proof does not hold: the block
        calls an impure Java UDF, an outer GROUP BY key may shadow one of
        its expressions (the key is no binding the entry is filed under),
        an outer variable is unbound here, a dep dataset is missing from
        the catalog, or a dep dataset carries a secondary index the
        planner may probe *live* (live index probes see mid-batch updates,
        which a cross-batch memo must never mask).
        """
        ctx = self.ctx
        catalog = ctx.catalog
        deps = self._guard(plan, plan.correlated_deps)
        if deps is None or env.group is not None:
            return _MEMO_BYPASS
        for name in deps:
            dataset = catalog.get(name)
            if dataset is None or dataset.indexes:
                return _MEMO_BYPASS
        bindings = []
        for var in plan.correlated_vars:
            value = env.lookup(var)
            if value is Env._SENTINEL:
                return _MEMO_BYPASS
            bindings.append(canonical_probe_key(value))
        key = ("correlated", plan.token, tuple(bindings))
        version = ctx.snapshots.version(deps)
        entry = ctx.memo.get(key, version)
        if entry is not None:
            ctx.meter.memo_hits += 1
            ctx.meter.memo_reused_records += entry.records
            return entry.value
        result = self._planned_select(plan, env)
        ctx.memo.put(key, version, result, len(result))
        return result

    def _charge_build(
        self, key, dataset, charge, forward_bytes
    ) -> ReferenceSnapshot:
        """Charge building ``key`` from ``dataset``'s pinned snapshot — or,
        when the StateCache booked that build at the snapshot's version,
        its reuse — and return the snapshot the state is read from.

        Callers run this once per generation (``snapshots.built``) and read
        the state from the snapshot, on a hit exactly as on a rebuild, so a
        StateCache entry books a build (key, version, records, bytes) and
        holds no value.  ``charge(snapshot)`` meters the build and returns
        what its bytes are estimated over; the estimate is memoized on the
        snapshot, so every cache that books this build (one per fleet
        tenant) walks it once, and ``forward_bytes`` moves it to the next
        snapshot by the records a write changed.
        """
        ctx = self.ctx
        snapshot = ctx.snapshots.pin(dataset)
        cache = ctx.state_cache
        if cache is None:
            charge(snapshot)
            return snapshot
        version = ctx.snapshots.version((dataset.name,))
        entry = cache.get(key, version)
        if entry is not None:
            ctx.shared_meter.state_cache_hits += 1
            ctx.shared_meter.state_cache_reused_records += entry.records
            return snapshot
        payload = charge(snapshot)
        nbytes = snapshot.derived(
            ("nbytes", key),
            lambda _records: estimate_entry_bytes(payload),
            forward_bytes,
        )
        cache.put(key, version, None, len(snapshot.records), nbytes)
        return snapshot

    def _charged_scan(self, dataset) -> ReferenceSnapshot:
        """The generation's pinned snapshot, charged as this batch's scan.

        Every batch is charged a full scan (or a StateCache reuse), as the
        modeled per-job rebuild demands; the records themselves come from
        :meth:`Dataset.snapshot`, which moves its held snapshot forward by
        the writes the dataset took since.  A batch the memo serves
        whole pins the snapshot but is charged neither.
        """
        key = ("scan", dataset.name)
        built = self.ctx.snapshots.built
        snapshot = built.get(key)
        if snapshot is None:

            def charge(snapshot):
                scanned = len(snapshot.records)
                meter = self.ctx.shared_meter
                meter.records_scanned += scanned
                meter.penalized_reads += self._penalty_units(dataset, scanned)
                return snapshot.records

            snapshot = built[key] = self._charge_build(
                key, dataset, charge, _forward_scan_bytes
            )
        return snapshot

    def _scan_dataset(self, dataset) -> Tuple[dict, ...]:
        """Batch-cached full scan (once per context generation)."""
        return self._charged_scan(dataset).records

    def _hash_probe(self, dataset, field: str, probe_value) -> List[dict]:
        """Batch-cached hash table keyed on ``field`` (§4.3.4 case 1).

        The build reads the generation's pinned snapshot, so pre-warming
        the scan (as the stream-model pipeline does at feed start) freezes
        the data the table will be built from.  With a StateCache attached,
        a build booked at the dataset's pinned LSNs is charged as a reuse
        until a write moves them — the UDF observes updates at exactly the
        same batch boundaries as a rebuild would.
        """
        table = self._hash_table(dataset, field)
        self.ctx.meter.hash_probes += 1
        if probe_value is MISSING or probe_value is None:
            return []
        try:
            return table.get(probe_value, [])
        except TypeError:  # an array or object: see _BuildSide
            return table.get(canonical_probe_key(probe_value), [])

    def _hash_table(self, dataset, field: str) -> Dict:
        """The batch-cached build side of :meth:`_hash_probe`.

        Split out so the columnar kernels can acquire the table once per
        batch and charge all probes in one aggregated increment; the build
        charges (``hash_builds`` on the shared meter, StateCache reuse)
        are identical whichever path triggers them first.
        """
        key = ("hash", dataset.name, field)
        built = self.ctx.snapshots.built
        table = built.get(key)
        if table is None:
            side = _BuildSide(dataset.name, field)

            def charge(snapshot):
                self._charged_scan(dataset)
                self.ctx.shared_meter.hash_builds += len(snapshot.records)
                return side.table(snapshot)

            snapshot = self._charge_build(key, dataset, charge, side.forward_bytes)
            table = built[key] = side.table(snapshot)
        return table

    def _btree_probe(self, dataset, index_name: str, probe_value) -> List[dict]:
        """Live B-tree index probe — sees mid-batch updates."""
        self.ctx.meter.btree_probes += 1
        self.ctx.meter.penalized_reads += self._penalty_units(
            dataset, 1, index_probe=True
        )
        if probe_value is MISSING or probe_value is None:
            return []
        matches = list(dataset.index_probe_equal(index_name, probe_value))
        self.ctx.meter.index_fetches += len(matches)
        return matches

    def _rtree_probe(self, dataset, index_name: str, query) -> Sequence[dict]:
        """Live R-tree index probe — sees mid-batch updates.

        A region the R-tree cannot bound (a string, a number) reads the
        charged scan instead, so the exact test raises its error, or a scan
        of nothing returns nothing, exactly as without the index.
        """
        if not isinstance(query, BOUNDABLE):
            return self._scan_dataset(dataset)
        visits: List[int] = []
        matches = list(dataset.index_probe_spatial(index_name, query, visits))
        ctx = self.ctx
        meter = ctx.meter
        meter.rtree_nodes_visited += max(sum(visits), 1)
        # The probe record is broadcast to every index partition (§7.4.2);
        # this work is per record x per node, so it does not shrink as the
        # cluster grows — the reason Nearby Monuments speeds up poorly.
        meter.broadcast_records += max(dataset.num_partitions, ctx.cluster_nodes)
        meter.index_fetches += len(matches)  # random record fetches
        if dataset.update_activity:
            meter.penalized_reads += self._penalty_units(
                dataset, 1 + len(matches), index_probe=True
            )
        return matches

    # --------------------------------------------------------------- shaping

    def _order_env(self, env: Env, row) -> Env:
        """ORDER BY may reference SELECT output aliases (SQL++ semantics)."""
        if isinstance(row, dict):
            child = env.child(dict(row))
            return child
        return env

    def _order_key_for(self, block: SelectBlock, env: Env, row) -> Tuple:
        oenv = self._order_env(env, row)
        return tuple(
            _OrderKey(sort_key(self.evaluate(item.expr, oenv)), item.descending)
            for item in block.order_items
        )

    def _ordered_projected(self, block: SelectBlock, tuple_envs: List[Env]) -> List:
        rows = [self._project(block, env) for env in tuple_envs]
        if block.order_items:
            self.ctx.meter.sort_items += len(rows)
            decorated = [
                (self._order_key_for(block, env, row), index, row)
                for index, (env, row) in enumerate(zip(tuple_envs, rows))
            ]
            decorated.sort(key=lambda item: (item[0], item[1]))
            rows = [row for _key, _index, row in decorated]
        return rows

    def _grouped_output(
        self,
        block: SelectBlock,
        scope: Env,
        tuple_envs: List[Env],
        implicit: bool,
    ) -> List:
        self.ctx.meter.group_items += len(tuple_envs)
        if implicit:
            # one group of every tuple: one row even over an empty input
            grouped = [((), tuple_envs)]
        else:
            grouped = _hash_groups(
                tuple_envs,
                [
                    tuple(self.evaluate(k.expr, env) for k in block.group_keys)
                    for env in tuple_envs
                ],
            )
        group_envs: List[Env] = []
        for key, members in grouped:
            genv = scope.child()
            genv.group = group = Group(members, {})
            for key_spec, value in zip(block.group_keys, key):
                group.key_values[key_spec.expr] = value
                if key_spec.alias:
                    genv.vars[key_spec.alias] = value
                else:
                    # allow referring to the key by its last path component
                    name = default_alias(key_spec.expr, fallback=None)
                    if name:
                        genv.vars.setdefault(name, value)
            group_envs.append(genv)

        rows = [self._project(block, genv) for genv in group_envs]
        if block.order_items:
            self.ctx.meter.sort_items += len(group_envs)
            decorated = [
                (self._order_key_for(block, genv, row), index, row)
                for index, (genv, row) in enumerate(zip(group_envs, rows))
            ]
            decorated.sort(key=lambda item: (item[0], item[1]))
            rows = [row for _key, _index, row in decorated]
        return rows

    def _project(self, block: SelectBlock, env: Env):
        if block.select_value is not None:
            return self.evaluate(block.select_value, env)
        out: Dict[str, object] = {}
        for position, proj in enumerate(block.projections, start=1):
            if isinstance(proj.expr, Star):
                base = self.evaluate(proj.expr.base, env)
                if isinstance(base, dict):
                    out.update(base)
                continue
            name = proj.alias or default_alias(proj.expr, fallback=f"${position}")
            value = self.evaluate(proj.expr, env)
            if value is not MISSING:
                out[name] = value
        return out

    # -------------------------------------------------------- planned path
    #
    # Mirrors of the interpreted SELECT machinery above, driven by a
    # compiled :class:`~repro.sqlpp.plans.SelectPlan` instead of the AST.
    # Every WorkMeter charge and every per-generation/visibility rule must
    # stay byte-identical to the interpreted path — the access primitives
    # (_scan_dataset/_hash_probe/_btree_probe/_rtree_probe) are shared.

    def _planned_select(
        self, plan: SelectPlan, env: Env, meter: Optional[WorkMeter] = None
    ) -> List:
        saved_meter = None
        if meter is not None:
            saved_meter = self.ctx.meter
            self.ctx.meter = meter
        try:
            return self._run_plan(plan, env)
        finally:
            if saved_meter is not None:
                self.ctx.meter = saved_meter

    def _run_plan(self, plan: SelectPlan, env: Env) -> List:
        scope = env.child()
        for var, fn in plan.let_fns:
            scope.vars[var] = fn(self, scope)

        if plan.terms is not None:
            tuple_envs = self._planned_tuples(plan, scope)
        else:
            single = scope.child()
            for var, fn in plan.post_let_fns:
                single.vars[var] = fn(self, single)
            if plan.where_fn is not None and not _truthy(
                plan.where_fn(self, single)
            ):
                tuple_envs = []
            else:
                tuple_envs = [single]

        return self._planned_output(plan, scope, tuple_envs)

    def _planned_output(
        self, plan: SelectPlan, scope: Env, tuple_envs: List[Env]
    ) -> List:
        """A block's rows from its tuple envs: group or project, ORDER BY,
        DISTINCT, LIMIT.  The columnar probe kernel runs it once per build
        key over that key's match list."""
        if plan.has_group:
            rows = self._planned_grouped(plan, scope, tuple_envs)
        else:
            rows = self._planned_ordered_projected(plan, tuple_envs)
        if plan.distinct:
            rows = distinct_values(rows)
        if plan.limit_fn is not None:
            limit = plan.limit_fn(self, scope)
            if not isinstance(limit, int) or limit < 0:
                raise SqlppEvaluationError("LIMIT must be a non-negative integer")
            rows = rows[:limit]
        return rows

    def _planned_tuples(self, plan: SelectPlan, scope: Env) -> List[Env]:
        terms = plan.terms
        tuples: List[Env] = []
        hoisting = plan.hoisting
        if hoisting is not None and (
            # an outer GROUP BY key may shadow a hoisted expression
            scope.group is not None or not hoisting.applies(self.ctx.functions)
        ):
            hoisting = None
        if hoisting is None:
            probe_fns = [tp.probe_fn for tp in terms]
            loop = (plan, plan.where_fn, probe_fns, ((),) * len(terms), tuples)
            self._bind_term(loop, 0, scope, 0, None)
            return tuples
        saved = self.hoisted
        self.hoisted = [None] * len(hoisting.slots)
        try:
            where_fn, survivors = hoisting.where_fn, None
            if hoisting.filter is not None:
                survivors = self._filtered_access(terms[0], scope, hoisting.filter)
                if survivors is not None:
                    where_fn = hoisting.residual_fn
            loop = (plan, where_fn, hoisting.probe_fns, hoisting.resets, tuples)
            self._bind_term(loop, 0, scope, 0, survivors)
        finally:
            self.hoisted = saved
        return tuples

    def _bind_term(self, loop, idx: int, env_cur: Env, dataset_depth: int, candidates):
        """Bind FROM term ``idx`` to each of its candidates under ``env_cur``
        (``candidates`` when the access step chose them already), then bind
        the next term, or keep the tuple env when the WHERE passes it.
        ``loop`` is ``(plan, where_fn, probe_fns, resets, tuples)``."""
        plan, where_fn, probe_fns, resets, tuples = loop
        terms = plan.terms
        tp = terms[idx]
        if candidates is None:
            candidates = self._planned_access(tp, env_cur, probe_fns[idx])
        if tp.is_dataset and dataset_depth >= 1:
            # Reference-to-reference join pairs: the outer side's
            # candidate count is itself scaled down, so the pair work
            # carries one extra reference-work-scale factor (pair counts
            # are quadratic in dataset cardinality; the meter applies
            # the other factor).
            candidates = list(candidates)
            ctx = self.ctx
            ctx.meter.nlj_pairs += int(len(candidates) * ctx.reference_work_scale)
        var = tp.var
        if idx + 1 < len(terms):
            next_depth = dataset_depth + (1 if tp.is_dataset else 0)
            reset, cache = resets[idx], self.hoisted
            for record in candidates:
                for slot in reset:  # what read the previous candidate
                    cache[slot] = None
                env = Env({var: record}, env_cur)
                self._bind_term(loop, idx + 1, env, next_depth, None)
            return
        # The last term: the WHERE runs at its depth, so no hoisted slot
        # reads its variable and nothing is reset per candidate.
        post_let_fns = plan.post_let_fns
        for record in candidates:
            final = Env({var: record}, env_cur)  # fresh, so safe to keep
            if post_let_fns:
                final = final.child()
                for name, fn in post_let_fns:
                    final.vars[name] = fn(self, final)
            if where_fn is None or _truthy(where_fn(self, final)):
                tuples.append(final)

    def _planned_access(self, tp: TermPlan, env: Env, probe_fn) -> Iterable:
        # Non-dataset sources: evaluate and iterate.
        if not tp.is_dataset:
            value = tp.source_fn(self, env)
            if isinstance(value, DatasetRef):
                return self._scan_dataset(value.dataset)
            if value is MISSING or value is None:
                return []
            if isinstance(value, list):
                return value
            raise SqlppEvaluationError(
                f"FROM source for {tp.var!r} is not iterable"
            )
        dataset = self.ctx.catalog[tp.dataset_name]
        if tp.access_kind == "equality":
            probe_value = probe_fn(self, env)
            index_name = (
                dataset.index_on(tp.access_field, IndexKind.BTREE)
                if not tp.no_index
                else None
            )
            if index_name is not None:
                return self._btree_probe(dataset, index_name, probe_value)
            return self._hash_probe(dataset, tp.access_field, probe_value)
        if tp.access_kind == "spatial":
            index_name = self._spatial_index(tp, dataset)
            if index_name is not None:
                query = probe_fn(self, env)
                if query is MISSING or query is None:
                    return []
                return self._rtree_probe(dataset, index_name, query)
            # no index: fall through to a batch-cached scan (naive NLJ)
        return self._scan_dataset(dataset)

    def _spatial_index(self, tp: TermPlan, dataset) -> Optional[str]:
        """The R-tree serving ``tp`` right now — asked per access, so an
        index created or dropped mid-run flips the path without a re-plan."""
        if tp.no_index:
            return None
        return dataset.index_on(tp.access_field, IndexKind.RTREE)

    def _filtered_access(
        self, tp: TermPlan, scope: Env, spatial: SpatialFilter
    ) -> Optional[Iterable]:
        """Term ``tp``'s candidates from :meth:`_planned_access`'s R-tree
        probe or charged scan that pass ``Hoisting.filter``, tested against
        the region evaluated once; or None when this binding must test it
        in the WHERE.  ``spatial_tests`` counts what the builtin would:
        the candidates whose field is neither MISSING nor NULL, charged up
        to each survivor before it is yielded and before an error is
        raised, so a residual that raises leaves the scalar loop's count.
        """
        dataset = self.ctx.catalog[tp.dataset_name]
        index_name = self._spatial_index(tp, dataset)
        if index_name is not None:
            region = tp.probe_fn(self, scope)
            if region is MISSING or region is None:
                return ()
            records = self._rtree_probe(dataset, index_name, region)
            values = spatial.column_of(records)
        else:
            snapshot = self._charged_scan(dataset)
            records = snapshot.records
            try:
                region = tp.probe_fn(self, scope)
            except Exception:
                return None  # the scalar loop raises it where, and if, it would
            if region is MISSING or region is None:
                # flipped, create_circle still type-checks every center
                return None if spatial.flipped else ()
            values = snapshot.derived(("column", tp.access_field), spatial.column_of)
        if spatial.flipped:  # as written: the circle is around the candidate
            center, radius = region.center, region.radius
            contains = lambda point: point.distance_to(center) <= radius
        else:
            contains = getattr(region, "contains_point", None)  # circle, rectangle
        window = None
        if index_name is None and contains is not None:
            window = _x_window(region)
        if window is not None:
            by_x = snapshot.derived(
                ("points by x", tp.access_field), lambda _records: _points_by_x(values)
            )
            if by_x is not None:
                return self._window_survivors(
                    spatial, records, values, contains, by_x, window
                )
        return self._survivors(spatial, records, values, contains, region)

    def _survivors(self, spatial: SpatialFilter, records, values, contains, region):
        """:meth:`_filtered_access`'s survivors, tested as the builtin does:
        ``contains`` a point, the flip's create_circle check, or the
        geometry in written order."""
        meter = self.ctx.meter
        flipped, field_first = spatial.flipped, spatial.field_first
        tests = 0
        for record, value in zip(records, values):
            if value is MISSING or value is None:
                continue
            try:
                if contains is not None and isinstance(value, Point):
                    tests += 1
                    hit = contains(value)
                elif flipped:  # not counted: create_circle raises first
                    raise SqlppEvaluationError("create_circle: center must be a point")
                else:
                    tests += 1
                    pair = (value, region) if field_first else (region, value)
                    hit = _geo_intersect(*pair)
            except BaseException as exc:
                meter.spatial_tests += tests
                if isinstance(exc, (TypeError, ValueError, AttributeError)):
                    raise SqlppEvaluationError(f"{spatial.call_name}: {exc}") from exc
                raise
            if hit:
                meter.spatial_tests += tests
                tests = 0
                yield record
        meter.spatial_tests += tests

    def _window_survivors(
        self, spatial: SpatialFilter, records, values, contains, by_x, window
    ):
        """:meth:`_filtered_access`'s survivors when every value is a
        point: only the points whose x lies in ``window``, found by
        bisecting the snapshot's points sorted by x (``by_x``), are tested,
        in record order; every point is charged, as the scalar loop tests
        them all."""
        meter = self.ctx.meter
        xs, order = by_x
        lo, hi = window
        charged = 0
        for at in sorted(order[bisect_left(xs, lo) : bisect_right(xs, hi)]):
            try:
                hit = contains(values[at])
            except BaseException as exc:
                meter.spatial_tests += at + 1 - charged
                if isinstance(exc, (TypeError, ValueError, AttributeError)):
                    raise SqlppEvaluationError(f"{spatial.call_name}: {exc}") from exc
                raise
            if hit:
                meter.spatial_tests += at + 1 - charged
                charged = at + 1
                yield records[at]
        meter.spatial_tests += len(records) - charged

    def _planned_sorted_rows(
        self, plan: SelectPlan, envs: List[Env], rows: List
    ) -> List:
        self.ctx.meter.sort_items += len(rows)
        items = plan.order_items
        if len(items) == 1:
            # Single key: skip the _OrderKey wrappers — a stable C-level
            # sort on the raw sort_key tuple with ``reverse`` for DESC is
            # order-identical (ties keep input order either way).
            fn, descending = items[0]
            pairs = [
                (sort_key(fn(self, self._order_env(env, row))), row)
                for env, row in zip(envs, rows)
            ]
            pairs.sort(key=_ITEM0, reverse=descending)
            return [row for _key, row in pairs]
        decorated = []
        for index, (env, row) in enumerate(zip(envs, rows)):
            oenv = self._order_env(env, row)
            key = tuple(
                _OrderKey(sort_key(fn(self, oenv)), descending)
                for fn, descending in items
            )
            decorated.append((key, index, row))
        # The unique index breaks ties, so rows are never compared.
        decorated.sort()
        return [row for _key, _index, row in decorated]

    def _planned_ordered_projected(
        self, plan: SelectPlan, tuple_envs: List[Env]
    ) -> List:
        rows = [self._planned_project(plan, env) for env in tuple_envs]
        if plan.order_items:
            rows = self._planned_sorted_rows(plan, tuple_envs, rows)
        return rows

    def _planned_grouped(
        self, plan: SelectPlan, scope: Env, tuple_envs: List[Env]
    ) -> List:
        self.ctx.meter.group_items += len(tuple_envs)
        keys = plan.group_keys
        if plan.implicit_group:
            # one group of every tuple: one row even over an empty input
            grouped = [((), tuple_envs)]
        else:
            grouped = _hash_groups(
                tuple_envs,
                [
                    tuple(fn(self, env) for _expr, _alias, _default, fn in keys)
                    for env in tuple_envs
                ],
            )
        group_envs: List[Env] = []
        for key, members in grouped:
            genv = scope.child()
            genv.group = group = Group(members, {})
            for (expr, alias, default_name, _fn), value in zip(keys, key):
                group.key_values[expr] = value
                if alias:
                    genv.vars[alias] = value
                elif default_name:
                    # allow referring to the key by its last path component
                    genv.vars.setdefault(default_name, value)
            group_envs.append(genv)

        rows = [self._planned_project(plan, genv) for genv in group_envs]
        if plan.order_items:
            rows = self._planned_sorted_rows(plan, group_envs, rows)
        return rows

    def _planned_project(self, plan: SelectPlan, env: Env):
        if plan.select_value_fn is not None:
            return plan.select_value_fn(self, env)
        out: Dict[str, object] = {}
        for name, fn in plan.projections:
            if name is None:  # ``v.*`` expansion
                base = fn(self, env)
                if isinstance(base, dict):
                    out.update(base)
                continue
            value = fn(self, env)
            if value is not MISSING:
                out[name] = value
        return out

    _DISPATCH = {}


def _x_window(region) -> Optional[Tuple[float, float]]:
    """An x range outside which no point is in ``region`` (a circle or a
    rectangle), or None unless its coordinates are finite floats.  A
    circle's range is widened far past any rounding of its distance test,
    so the window is conservative and the exact test decides."""
    if type(region) is Rectangle:
        bounds = region.x1, region.x2
    elif type(region) is Circle and type(region.center) is Point:
        bounds = region.center.x, region.radius
    else:
        return None
    if not all(type(c) is float and isfinite(c) for c in bounds):
        return None
    if type(region) is Rectangle:
        return bounds
    x, radius = bounds
    margin = 1e-9 * (1.0 + abs(x) + abs(radius))
    return x - radius - margin, x + radius + margin


def _points_by_x(values) -> Optional[Tuple[List, List[int]]]:
    """``(xs, order)``: the positions of ``values`` sorted by x, and their
    x values in that order; None unless every value is a point whose x is
    a finite float."""
    if not all(
        type(v) is Point and type(v.x) is float and isfinite(v.x) for v in values
    ):
        return None
    order = sorted(range(len(values)), key=lambda at: values[at].x)
    return [values[at].x for at in order], order


def _hash_groups(envs: List[Env], keys: List[Tuple]) -> List[Tuple]:
    """``(key, member envs)`` per GROUP BY key, in first-seen order; keys
    are equal when their values are, under :func:`value_key`."""
    groups: Dict[Tuple, Tuple] = {}
    for env, key in zip(envs, keys):
        identity = tuple(map(value_key, key))
        group = groups.get(identity)
        if group is None:
            group = groups[identity] = (key, [])
        group[1].append(env)
    return list(groups.values())


class _OrderKey:
    """Comparable wrapper honoring per-item DESC flags."""

    __slots__ = ("key", "descending")

    def __init__(self, key, descending: bool):
        self.key = key
        self.descending = descending

    def __lt__(self, other: "_OrderKey"):
        if self.descending:
            return other.key < self.key
        return self.key < other.key

    def __eq__(self, other):
        return self.key == other.key


# Bind the dispatch table now that all methods exist.
Evaluator._DISPATCH = {
    Literal: Evaluator._eval_literal,
    MissingLiteral: Evaluator._eval_missing,
    VarRef: Evaluator._eval_varref,
    FieldAccess: Evaluator._eval_field,
    IndexAccess: Evaluator._eval_index,
    UnaryOp: Evaluator._eval_unary,
    BinaryOp: Evaluator._eval_binary,
    Call: Evaluator._eval_call,
    CaseExpr: Evaluator._eval_case,
    ObjectConstructor: Evaluator._eval_object,
    ArrayConstructor: Evaluator._eval_array,
    Exists: Evaluator._eval_exists,
    Subquery: Evaluator._eval_subquery,
    Star: Evaluator._eval_star,
    SelectBlock: Evaluator._cached_select,
}
