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

from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..adm.schema import field_getter
from ..adm.values import MISSING, Point
from ..adm.values import spatial_intersect as _geo_intersect
from ..errors import SqlppAnalysisError, SqlppEvaluationError
from ..hyracks.cost import WorkMeter
from ..storage.index import IndexKind
from .analysis import (
    contains_aggregate,
    free_vars,
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
)
from .functions import AGGREGATE_NAMES, BUILTINS
from .plans import (
    SENTINEL,
    DatasetRef,
    PlanCache,
    SelectPlan,
    TermPlan,
    aggregate_values,
    apply_binary,
    default_alias,
    truthy,
)
from .plans import find_access_path as _plan_find_access_path
from .memo import canonical_probe_key
from .state_cache import StateCache, dataset_version_key, estimate_entry_bytes


class EvaluationContext:
    """Catalog + functions + work meters + the per-batch cache."""

    def __init__(
        self,
        catalog: Dict[str, object],
        functions=None,
        meter: Optional[WorkMeter] = None,
        allow_index: bool = True,
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
        self.allow_index = allow_index
        self.batch_cache: Dict[object, object] = {}
        self.generation = 0
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
        """Drop all cached intermediate state (a new batch begins)."""
        self.batch_cache.clear()
        self.generation += 1

    def dataset(self, name: str):
        return self.catalog.get(name)


class Env:
    """A lexical scope chain of variable bindings."""

    __slots__ = ("vars", "parent", "_group", "_group_env", "group_key_values")

    def __init__(self, vars=None, parent: Optional["Env"] = None):
        self.vars: Dict[str, object] = vars or {}
        self.parent = parent
        self._group: Optional[List["Env"]] = None  # set in group contexts
        # Nearest enclosing group env, maintained eagerly so the per-record
        # hot path (every VarRef/FieldAccess checks for group-key
        # shadowing) is an attribute read instead of a chain walk.  Group
        # envs always assign ``.group`` before any child scopes are made,
        # so inheriting the parent's pointer at construction is exact.
        self._group_env: Optional["Env"] = (
            parent._group_env if parent is not None else None
        )
        self.group_key_values: Optional[Dict[Expr, object]] = None

    @property
    def group(self) -> Optional[List["Env"]]:
        return self._group

    @group.setter
    def group(self, members: Optional[List["Env"]]) -> None:
        self._group = members
        if members is not None:
            self._group_env = self

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

    def find_group(self) -> Optional["Env"]:
        return self._group_env


# SQL++ WHERE semantics: NULL/MISSING are not true (shared with plans.py).
_truthy = truthy

_ITEM0 = itemgetter(0)

# Returned by _memoized_correlated when the memo proof does not hold and
# the caller must fall through to a live _planned_select evaluation.
_MEMO_BYPASS = object()


def _hash_table_builder(field: str):
    """``records -> {field value: [records]}``, the hash-join build side."""
    get = field_getter(field)

    def build(records) -> Dict:
        table: Dict = {}
        for record in records:
            value = get(record)
            if value is not MISSING and value is not None:
                table.setdefault(value, []).append(record)
        return table

    return build


def _sort_key(value):
    """Total order across mixed/unknown values: MISSING < NULL < typed."""
    if value is MISSING:
        return (0, 0)
    if value is None:
        return (1, 0)
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, (int, float)):
        return (3, value)
    if isinstance(value, str):
        return (4, value)
    return (5, repr(value))


class Evaluator:
    """Evaluates expressions of the SQL++ subset."""

    def __init__(self, ctx: EvaluationContext):
        self.ctx = ctx

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
        genv = env.find_group()
        if genv is not None and genv.group_key_values:
            if expr in genv.group_key_values:
                return genv.group_key_values[expr]
        value = env.lookup(expr.name)
        if value is not Env._SENTINEL:
            return value
        dataset = self.ctx.dataset(expr.name)
        if dataset is not None:
            return DatasetRef(dataset)
        raise SqlppAnalysisError(f"unresolved variable: {expr.name}")

    def _eval_field(self, expr: FieldAccess, env: Env):
        genv = env.find_group()
        if genv is not None and genv.group_key_values:
            if expr in genv.group_key_values:
                return genv.group_key_values[expr]
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
        genv = env.find_group()
        if genv is not None:
            values = []
            if expr.args and isinstance(expr.args[0], Star):
                values = [1] * len(genv.group)
            else:
                arg = expr.args[0] if expr.args else Star(VarRef("*"))
                for tuple_env in genv.group:
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
        """Evaluate a select block, caching it when it has no outer refs.

        Cacheable = every free variable is a catalog dataset.  The cache
        lives for one context generation (one batch), implementing the
        stale-until-next-batch top-10 list of Figure 18.

        With ``use_plans`` (the default) the block's compiled plan carries
        the cacheability verdict and all structural analysis; the
        interpreted fallback re-derives them per call.  Both paths key the
        batch cache by the plan cache's stable token — never raw ``id()``,
        which can be recycled after the block is garbage-collected.
        """
        ctx = self.ctx
        if ctx.use_plans:
            plan = ctx.plan_cache.plan_for(block, env.bound_names(), ctx.catalog)
            if plan.cacheable:
                key = ("uncorrelated", plan.token)
                if key not in ctx.batch_cache:
                    version_key = None
                    if ctx.state_cache is not None:
                        version_key = self._pinned_version_key(plan.dataset_deps)
                        reused = self._reuse_cached_state(
                            key, key, version_key
                        )
                        if reused is not None:
                            return reused
                    result = self._planned_select(
                        plan, env, meter=ctx.shared_meter
                    )
                    ctx.batch_cache[key] = result
                    if version_key is not None:
                        self._install_built_state(
                            key, version_key, result, len(result)
                        )
                return ctx.batch_cache[key]
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
            key = ("uncorrelated", ctx.plan_cache.token_for(block))
            if key not in ctx.batch_cache:
                version_key = None
                if ctx.state_cache is not None:
                    version_key = self._pinned_version_key(fv)
                    reused = self._reuse_cached_state(key, key, version_key)
                    if reused is not None:
                        return reused
                result = self.evaluate_select(
                    block, env, meter=ctx.shared_meter
                )
                ctx.batch_cache[key] = result
                if version_key is not None:
                    self._install_built_state(
                        key, version_key, result, len(result)
                    )
            return ctx.batch_cache[key]
        return self.evaluate_select(block, env)

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
            and self._has_top_level_aggregate(block)
        )
        if block.group_keys or implicit_group:
            rows = self._grouped_output(block, scope, tuple_envs, implicit_group)
        else:
            rows = self._ordered_projected(block, tuple_envs)

        if block.distinct:
            rows = _distinct_rows(rows)
        if block.limit is not None:
            limit = self.evaluate(block.limit, scope)
            if not isinstance(limit, int) or limit < 0:
                raise SqlppEvaluationError("LIMIT must be a non-negative integer")
            rows = rows[:limit]
        return rows

    def _has_top_level_aggregate(self, block: SelectBlock) -> bool:
        if block.select_value is not None and contains_aggregate(block.select_value):
            return True
        return any(contains_aggregate(p.expr) for p in block.projections)

    # ------------------------------------------------------- tuple generation

    def _generate_tuples(self, block: SelectBlock, scope: Env) -> List[Env]:
        conjuncts = split_conjuncts(block.where)
        outer_bound = scope.bound_names() - set(self.ctx.catalog)
        order = self._order_terms(block.from_terms, conjuncts, outer_bound, block)
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

    def _order_terms(
        self,
        terms: List[FromTerm],
        conjuncts: List[Expr],
        outer_bound: Set[str],
        block: SelectBlock,
    ) -> List[FromTerm]:
        """Greedy join-order: pick next the term with a usable access path."""
        remaining = list(terms)
        ordered: List[FromTerm] = []
        bound = set(outer_bound)
        while remaining:
            chosen = None
            for term in remaining:
                if self._find_access_path(term, conjuncts, bound, block) is not None:
                    chosen = term
                    break
            if chosen is None:
                chosen = remaining[0]
            ordered.append(chosen)
            remaining.remove(chosen)
            bound.add(chosen.var)
        return ordered

    # ----------------------------------------------------------- access paths

    def _find_access_path(
        self,
        term: FromTerm,
        conjuncts: List[Expr],
        bound: Set[str],
        block: SelectBlock,
    ):
        """Return ("equality"|"spatial", field, probe_expr_builder) or None."""
        return _plan_find_access_path(
            term, conjuncts, bound, frozenset(self.ctx.catalog)
        )

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
        path = self._find_access_path(term, conjuncts, bound, block)
        if path is not None:
            kind, field, probe_builder = path
            if kind == "equality":
                probe_value = self.evaluate(probe_builder, env)
                index_name = (
                    dataset.index_on(field, IndexKind.BTREE) if not no_index else None
                )
                if index_name is not None and self.ctx.allow_index:
                    return self._btree_probe(dataset, index_name, probe_value)
                return self._hash_probe(dataset, field, probe_value)
            if kind == "spatial":
                index_name = (
                    dataset.index_on(field, IndexKind.RTREE) if not no_index else None
                )
                if index_name is not None and self.ctx.allow_index:
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

    def _reuse_cached_state(self, batch_key, state_key, version_key):
        """Cross-batch StateCache lookup for one materialised-state key.

        On a hit the cached object is installed into this generation's
        ``batch_cache`` (pinning it against eviction for the rest of the
        batch) and the *reuse* — not the avoided build — is metered onto
        ``shared_meter`` so the win is observable instead of silent.
        Returns the cached value or ``None``.
        """
        cache = self.ctx.state_cache
        if cache is None:
            return None
        entry = cache.get(state_key, version_key)
        if entry is None:
            return None
        self.ctx.batch_cache[batch_key] = entry.value
        self.ctx.shared_meter.state_cache_hits += 1
        self.ctx.shared_meter.state_cache_reused_records += entry.records
        return entry.value

    def _install_built_state(self, state_key, version_key, value, records):
        cache = self.ctx.state_cache
        if cache is not None:
            cache.put(state_key, version_key, value, records)

    def _pin(self, dataset):
        """The snapshot of ``dataset`` this generation reads at — uncharged.

        Taken at the generation's first touch of the dataset, whichever
        read that is.  One object is both the value — every scan, hash
        build and probe of this generation reads its ``records`` — and,
        through its ``lsns``, the proof every StateCache / memo ``get`` and
        ``put`` is filed under.  So a write landing inside the job cannot
        pass pre-write state off as current, and a write that reaches a
        partition without going through the ``Dataset`` (``version`` does
        not move, the WAL LSN does) invalidates like any other.  The scan
        charge, or the StateCache reuse charge, stays with the first read
        that needs the records (:meth:`_charged_scan`): a batch the memo
        serves whole pins but is charged neither.
        """
        key = ("pinned", dataset.name)
        snapshot = self.ctx.batch_cache.get(key)
        if snapshot is None:
            snapshot = self.ctx.batch_cache[key] = dataset.snapshot()
        return snapshot

    def _pinned_version_key(self, names) -> Tuple:
        return dataset_version_key(
            self.ctx.catalog, names, lambda dataset: self._pin(dataset).lsns
        )

    def _install_snapshot_state(self, key, snapshot, value, payload):
        """Offer state built from ``snapshot`` to the StateCache.

        ``payload`` is what the entry pins; its size estimate is memoized
        on the snapshot, so every cache that admits this version of this
        state (one cache per fleet tenant) walks it once.
        """
        cache = self.ctx.state_cache
        if cache is not None:
            nbytes = snapshot.derived(
                ("nbytes", key), lambda _records: estimate_entry_bytes(payload)
            )
            cache.put(key, snapshot.lsns, value, len(snapshot.records), nbytes)

    def _memoized_correlated(self, plan, env):
        """Key-level memo for a correlated (hash-probe-backed) subquery.

        The block's result is a pure function of (a) the bindings of its
        free outer variables and (b) the contents of the catalog datasets
        it reads — so an entry keyed on the canonical outer bindings and
        guarded by the datasets' ``dataset_version_key`` is a proof the
        recomputation would be identical.  Bypasses (returns
        :data:`_MEMO_BYPASS`) whenever the proof does not hold: an outer
        variable is unbound here, a dep dataset is missing from the
        catalog, or a dep dataset carries a secondary index the planner
        may probe *live* (live index probes see mid-batch updates, which
        a cross-batch memo must never mask).
        """
        ctx = self.ctx
        catalog = ctx.catalog
        for name in plan.correlated_deps:
            dataset = catalog.get(name)
            if dataset is None or (ctx.allow_index and dataset.indexes):
                return _MEMO_BYPASS
        bindings = []
        for var in plan.correlated_vars:
            value = env.lookup(var)
            if value is Env._SENTINEL:
                return _MEMO_BYPASS
            bindings.append(canonical_probe_key(value))
        key = ("correlated", plan.token, tuple(bindings))
        version_key = self._pinned_version_key(plan.correlated_deps)
        entry = ctx.memo.get(key, version_key)
        if entry is not None:
            ctx.meter.memo_hits += 1
            ctx.meter.memo_reused_records += entry.records
            return entry.value
        result = self._planned_select(plan, env)
        ctx.memo.put(key, version_key, result, len(result))
        return result

    def _charged_scan(self, dataset):
        """The generation's pinned snapshot, charged as this batch's scan.

        Every batch is charged a full scan (or a StateCache reuse), as the
        modeled per-job rebuild demands; the records themselves come from
        :meth:`Dataset.snapshot`, which rescans only when the dataset has
        taken a write since its last snapshot.
        """
        key = ("scan", dataset.name)
        snapshot = self.ctx.batch_cache.get(key)
        if snapshot is not None:
            return snapshot
        snapshot = self._pin(dataset)
        if self._reuse_cached_state(key, key, snapshot.lsns) is None:
            scanned = len(snapshot.records)
            self.ctx.shared_meter.records_scanned += scanned
            self.ctx.shared_meter.penalized_reads += self._penalty_units(
                dataset, scanned
            )
            self._install_snapshot_state(key, snapshot, snapshot, snapshot.records)
        self.ctx.batch_cache[key] = snapshot
        return snapshot

    def _scan_dataset(self, dataset) -> Tuple[dict, ...]:
        """Batch-cached full scan (once per context generation)."""
        return self._charged_scan(dataset).records

    def _hash_probe(self, dataset, field: str, probe_value) -> List[dict]:
        """Batch-cached hash table keyed on ``field`` (§4.3.4 case 1).

        The build reads the generation's scan snapshot, so pre-warming the
        scan cache (as the stream-model pipeline does at feed start) freezes
        the data the table will be built from.  With a StateCache attached,
        a table built at the dataset's current committed version is reused
        across batches until a write bumps the version — the UDF observes
        updates at exactly the same batch boundaries as a rebuild would.
        """
        table = self._hash_table(dataset, field)
        self.ctx.meter.hash_probes += 1
        if probe_value is MISSING or probe_value is None:
            return []
        return table.get(probe_value, [])

    def _hash_table(self, dataset, field: str) -> Dict:
        """The batch-cached build side of :meth:`_hash_probe`.

        Split out so the columnar kernels can acquire the table once per
        batch and charge all probes in one aggregated increment; the build
        charges (``hash_builds`` on the shared meter, StateCache reuse)
        are identical whichever path triggers them first.
        """
        key = ("hash", dataset.name, field)
        table = self.ctx.batch_cache.get(key)
        if table is None:
            table = self._reuse_cached_state(key, key, self._pin(dataset).lsns)
        if table is None:
            snapshot = self._charged_scan(dataset)
            table = snapshot.derived(key, _hash_table_builder(field))
            self.ctx.batch_cache[key] = table
            self.ctx.shared_meter.hash_builds += len(snapshot.records)
            self._install_snapshot_state(key, snapshot, table, table)
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

    def _rtree_probe(self, dataset, index_name: str, query) -> List[dict]:
        """Live R-tree index probe — sees mid-batch updates."""
        before = sum(idx.nodes_visited for idx in dataset.indexes[index_name])
        matches = list(dataset.index_probe_spatial(index_name, query))
        after = sum(idx.nodes_visited for idx in dataset.indexes[index_name])
        self.ctx.meter.rtree_nodes_visited += max(after - before, 1)
        # The probe record is broadcast to every index partition (§7.4.2);
        # this work is per record x per node, so it does not shrink as the
        # cluster grows — the reason Nearby Monuments speeds up poorly.
        self.ctx.meter.broadcast_records += max(
            dataset.num_partitions, self.ctx.cluster_nodes
        )
        self.ctx.meter.index_fetches += len(matches)  # random record fetches
        self.ctx.meter.penalized_reads += self._penalty_units(
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
            _OrderKey(_sort_key(self.evaluate(item.expr, oenv)), item.descending)
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
        groups: Dict[Tuple, List[Env]] = {}
        group_order: List[Tuple] = []
        if implicit:
            key_values: List[Tuple] = [()] * len(tuple_envs)
        else:
            key_values = [
                tuple(self.evaluate(k.expr, env) for k in block.group_keys)
                for env in tuple_envs
            ]
        for env, key in zip(tuple_envs, key_values):
            hashable = tuple(_sort_key(v) for v in key)
            if hashable not in groups:
                groups[hashable] = []
                group_order.append((hashable, key))
            groups[hashable].append(env)
        if implicit and not tuple_envs:
            # SQL semantics: aggregates over an empty input yield one row.
            group_order.append(((), ()))
            groups[()] = []

        group_envs: List[Env] = []
        for hashable, key in group_order:
            members = groups[hashable]
            genv = scope.child()
            genv.group = members
            genv.group_key_values = {}
            for key_spec, value in zip(block.group_keys, key):
                genv.group_key_values[key_spec.expr] = value
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
    # Every WorkMeter charge and every batch-cache/visibility rule must
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

        if plan.has_group:
            rows = self._planned_grouped(plan, scope, tuple_envs)
        else:
            rows = self._planned_ordered_projected(plan, tuple_envs)

        if plan.distinct:
            rows = _distinct_rows(rows)
        if plan.limit_fn is not None:
            limit = plan.limit_fn(self, scope)
            if not isinstance(limit, int) or limit < 0:
                raise SqlppEvaluationError("LIMIT must be a non-negative integer")
            rows = rows[:limit]
        return rows

    def _planned_tuples(self, plan: SelectPlan, scope: Env) -> List[Env]:
        ctx = self.ctx
        terms = plan.terms
        total = len(terms)
        if terms[0].filter_join is not None:
            tuples = self._spatial_filter_join(terms[0], scope)
            if tuples is not None:
                return tuples
        post_let_fns = plan.post_let_fns
        where_fn = plan.where_fn
        tuples: List[Env] = []

        def recurse(idx: int, env_cur: Env, dataset_depth: int):
            if idx == total:
                if post_let_fns:
                    final = env_cur.child()
                    for var, fn in post_let_fns:
                        final.vars[var] = fn(self, final)
                else:
                    # no post-FROM LETs: the last term's binding env IS the
                    # tuple env (fresh per candidate, so safe to keep)
                    final = env_cur
                if where_fn is not None and not _truthy(where_fn(self, final)):
                    return
                tuples.append(final)
                return
            tp = terms[idx]
            candidates = self._planned_access(tp, env_cur)
            if tp.is_dataset and dataset_depth >= 1:
                # Reference-to-reference join pairs: the outer side's
                # candidate count is itself scaled down, so the pair work
                # carries one extra reference-work-scale factor (pair counts
                # are quadratic in dataset cardinality; the meter applies
                # the other factor).
                candidates = list(candidates)
                ctx.meter.nlj_pairs += int(
                    len(candidates) * ctx.reference_work_scale
                )
            next_depth = dataset_depth + (1 if tp.is_dataset else 0)
            var = tp.var
            for record in candidates:
                recurse(idx + 1, Env({var: record}, env_cur), next_depth)

        recurse(0, scope, 0)
        return tuples

    def _planned_access(self, tp: TermPlan, env: Env) -> Iterable:
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
            probe_value = tp.probe_fn(self, env)
            index_name = (
                dataset.index_on(tp.access_field, IndexKind.BTREE)
                if not tp.no_index
                else None
            )
            if index_name is not None and self.ctx.allow_index:
                return self._btree_probe(dataset, index_name, probe_value)
            return self._hash_probe(dataset, tp.access_field, probe_value)
        if tp.access_kind == "spatial":
            index_name = self._spatial_index(tp, dataset)
            if index_name is not None:
                query = tp.probe_fn(self, env)
                if query is MISSING or query is None:
                    return []
                return self._rtree_probe(dataset, index_name, query)
            # no index: fall through to a batch-cached scan (naive NLJ)
        return self._scan_dataset(dataset)

    def _spatial_index(self, tp: TermPlan, dataset) -> Optional[str]:
        """The R-tree serving ``tp`` right now — asked per access, so an
        index created or dropped mid-run flips the path without a re-plan."""
        if tp.no_index or not self.ctx.allow_index:
            return None
        return dataset.index_on(tp.access_field, IndexKind.RTREE)

    def _spatial_filter_join(self, tp: TermPlan, scope: Env) -> Optional[List[Env]]:
        """The tuple envs of a :class:`~repro.sqlpp.plans.SpatialFilterJoin`
        block, or None when this binding must run the scalar loop.

        Candidates come from the same R-tree probe or charged scan as
        :meth:`_planned_access`; each one's field value is tested against
        the probe region directly, and only the survivors get an ``Env``
        and the residual WHERE.  ``spatial_tests`` is charged for exactly
        the candidates the builtin would have charged: those whose field
        is neither MISSING nor NULL, up to and including one that raises.
        """
        kernel = tp.filter_join
        ctx = self.ctx
        functions = ctx.functions
        if scope._group_env is not None or (
            functions is not None and any(map(functions.has, kernel.calls))
        ):
            return None  # an outer GROUP BY key or a UDF may shadow the conjunct
        dataset = ctx.catalog[tp.dataset_name]
        index_name = self._spatial_index(tp, dataset)
        if index_name is not None:
            region = tp.probe_fn(self, scope)
            if region is MISSING or region is None:
                return []
            records = self._rtree_probe(dataset, index_name, region)
            values = kernel.column_of(records)
        else:
            snapshot = self._charged_scan(dataset)
            records = snapshot.records
            try:
                region = tp.probe_fn(self, scope)
            except Exception:
                return None  # the scalar loop raises it where, and if, it would
            if region is MISSING or region is None:
                # flipped, create_circle still type-checks every center
                return None if kernel.flipped else []
            values = snapshot.derived(("column", tp.access_field), kernel.column_of)
        if kernel.flipped:  # as written: the circle is around the candidate
            center, radius = region.center, region.radius
            contains = lambda point: point.distance_to(center) <= radius
        else:
            contains = getattr(region, "contains_point", None)  # circle, rectangle
        var, residual_fn = tp.var, kernel.residual_fn
        tuples: List[Env] = []
        tests = 0
        try:
            for record, value in zip(records, values):
                if value is MISSING or value is None:
                    continue
                try:
                    if contains is not None and isinstance(value, Point):
                        tests += 1
                        hit = contains(value)
                    elif kernel.flipped:
                        raise SqlppEvaluationError(
                            "create_circle: center must be a point"
                        )
                    else:
                        tests += 1
                        hit = (
                            _geo_intersect(value, region)
                            if kernel.field_first
                            else _geo_intersect(region, value)
                        )
                except (TypeError, ValueError, AttributeError) as exc:
                    raise SqlppEvaluationError(f"{kernel.call_name}: {exc}") from exc
                if hit:
                    env = Env({var: record}, scope)
                    if residual_fn is None or _truthy(residual_fn(self, env)):
                        tuples.append(env)
        finally:
            ctx.meter.spatial_tests += tests
        return tuples

    def _planned_order_key(self, plan: SelectPlan, env: Env, row) -> Tuple:
        oenv = self._order_env(env, row)
        items = plan.order_items
        if len(items) == 1:  # by far the common case; skip the genexpr
            fn, descending = items[0]
            return (_OrderKey(_sort_key(fn(self, oenv)), descending),)
        return tuple(
            _OrderKey(_sort_key(fn(self, oenv)), descending)
            for fn, descending in items
        )

    def _planned_sorted_rows(
        self, plan: SelectPlan, envs: List[Env], rows: List
    ) -> List:
        self.ctx.meter.sort_items += len(rows)
        items = plan.order_items
        if len(items) == 1:
            # Single key: skip the _OrderKey wrappers — a stable C-level
            # sort on the raw _sort_key tuple with ``reverse`` for DESC is
            # order-identical (ties keep input order either way).
            fn, descending = items[0]
            pairs = [
                (_sort_key(fn(self, self._order_env(env, row))), row)
                for env, row in zip(envs, rows)
            ]
            pairs.sort(key=_ITEM0, reverse=descending)
            return [row for _key, row in pairs]
        decorated = [
            (self._planned_order_key(plan, env, row), index, row)
            for index, (env, row) in enumerate(zip(envs, rows))
        ]
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
        groups: Dict[Tuple, List[Env]] = {}
        group_order: List[Tuple] = []
        if plan.implicit_group:
            key_values: List[Tuple] = [()] * len(tuple_envs)
        else:
            key_values = [
                tuple(fn(self, env) for _expr, _alias, _default, fn in plan.group_keys)
                for env in tuple_envs
            ]
        for env, key in zip(tuple_envs, key_values):
            hashable = tuple(_sort_key(v) for v in key)
            if hashable not in groups:
                groups[hashable] = []
                group_order.append((hashable, key))
            groups[hashable].append(env)
        if plan.implicit_group and not tuple_envs:
            # SQL semantics: aggregates over an empty input yield one row.
            group_order.append(((), ()))
            groups[()] = []

        group_envs: List[Env] = []
        for hashable, key in group_order:
            members = groups[hashable]
            genv = scope.child()
            genv.group = members
            genv.group_key_values = {}
            for (expr, alias, default_name, _fn), value in zip(plan.group_keys, key):
                genv.group_key_values[expr] = value
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


def _distinct_rows(rows: List) -> List:
    seen = set()
    out = []
    for row in rows:
        key = repr(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


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
