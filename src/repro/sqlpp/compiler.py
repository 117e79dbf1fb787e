"""Compiling SQL++ queries into Hyracks jobs (the Figure 2 path).

Analytical queries over a single stored dataset compile into a partitioned
scan -> let/filter -> (group-by | sort | limit) -> project pipeline — the
same translation Figure 2 sketches for the country-count query.  Queries
outside that shape (joins between datasets in the outer FROM, nested
outer-FROM sources) are evaluated by the interpreter on the Cluster
Controller node, with their work charged through the work meter; this
mirrors AsterixDB evaluating a sequential plan section centrally.

Either way the *result is identical* — the compiler is a physical-plan
choice, which the test suite asserts by differential testing against the
interpreter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SqlppAnalysisError
from ..hyracks.connectors import HashPartition, OneToOne
from ..hyracks.executor import JobResult
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import (
    AssignOperator,
    CollectSink,
    DatasetScanSource,
    DatasetWriteSink,
    FilterOperator,
    ListSource,
    SortOperator,
)
from ..hyracks.operators.sort_group import Aggregator, HashGroupByOperator
from .analysis import contains_aggregate
from .ast import Expr, SelectBlock, VarRef
from .evaluator import (
    EvaluationContext,
    Env,
    Evaluator,
    _sort_key,
    _truthy,
)


class CompiledQuery:
    """A query bound to an execution strategy."""

    def __init__(self, strategy: str, runner):
        self.strategy = strategy  # 'hyracks' | 'interpreter'
        self._runner = runner

    def execute(self) -> List:
        return self._runner()


class QueryCompiler:
    """Chooses and builds the physical plan for a top-level query."""

    def __init__(self, cluster, catalog: Dict[str, object], registry=None):
        self.cluster = cluster
        self.catalog = catalog
        self.registry = registry

    def fresh_context(self) -> EvaluationContext:
        return EvaluationContext(self.catalog, functions=self.registry)

    # ------------------------------------------------------------- dispatch

    def compile(self, query: Expr) -> CompiledQuery:
        if isinstance(query, SelectBlock) and self._is_parallelizable(query):
            return CompiledQuery("hyracks", lambda: self._run_hyracks(query))
        return CompiledQuery("interpreter", lambda: self._run_interpreter(query))

    def _is_parallelizable(self, block: SelectBlock) -> bool:
        """Single stored-dataset FROM, no top-level LETs before SELECT."""
        if len(block.from_terms) != 1 or block.lets:
            return False
        source = block.from_terms[0].source
        if not (isinstance(source, VarRef) and source.name in self.catalog):
            return False
        if block.distinct:
            return False
        # Aggregates without GROUP BY need a global fold; keep those central.
        if not block.group_keys and self._has_aggregate(block):
            return False
        return True

    def _has_aggregate(self, block: SelectBlock) -> bool:
        if block.select_value is not None and contains_aggregate(block.select_value):
            return True
        return any(contains_aggregate(p.expr) for p in block.projections)

    # ------------------------------------------------------- interpreter path

    def _run_interpreter(self, query: Expr) -> List:
        ctx = self.fresh_context()
        result = Evaluator(ctx).evaluate_query(query)
        return result if isinstance(result, list) else [result]

    # ----------------------------------------------------------- hyracks path

    def _run_hyracks(self, block: SelectBlock) -> List:
        ctx = self.fresh_context()
        evaluator = Evaluator(ctx)
        term = block.from_terms[0]
        dataset = self.catalog[term.source.name]
        var = term.var
        n = self.cluster.num_nodes

        def bind(record: dict) -> Optional[dict]:
            """Evaluate post-LETs into an env record for downstream exprs."""
            env = Env({var: record})
            binding = {var: record}
            for let in block.post_lets:
                value = evaluator.evaluate(let.expr, env)
                env.vars[let.var] = value
                binding[let.var] = value
            return binding

        def where_ok(binding: dict) -> bool:
            if block.where is None:
                return True
            return _truthy(evaluator.evaluate(block.where, Env(dict(binding))))

        spec = JobSpecification("query")
        scan = spec.add_operator(
            OperatorDescriptor(
                "scan", lambda c: DatasetScanSource(c, dataset), partitions=n
            )
        )
        assign = spec.add_operator(
            OperatorDescriptor("assign", lambda c: AssignOperator(c, bind), n)
        )
        spec.connect(scan, assign, OneToOne())
        upstream = assign
        if block.where is not None:
            flt = spec.add_operator(
                OperatorDescriptor("filter", lambda c: FilterOperator(c, where_ok), n)
            )
            spec.connect(upstream, flt, OneToOne())
            upstream = flt

        results: List = []
        if block.group_keys:
            upstream = self._attach_group_by(spec, upstream, block, evaluator, n)
            sink_input = self._attach_order_limit_project(
                spec, upstream, block, evaluator, grouped=True
            )
        else:
            sink_input = self._attach_order_limit_project(
                spec, upstream, block, evaluator, grouped=False
            )
        sink = spec.add_operator(
            OperatorDescriptor("result", lambda c: CollectSink(c, results), 1)
        )
        spec.connect(sink_input, sink, OneToOne())
        self.cluster.controller.run_job(spec)
        return results

    def _attach_group_by(self, spec, upstream, block, evaluator, n):
        key_exprs = [k.expr for k in block.group_keys]

        def key_fn(binding: dict):
            env = Env(dict(binding))
            return tuple(
                _sort_key(evaluator.evaluate(expr, env)) for expr in key_exprs
            )

        def raw_keys(binding: dict):
            env = Env(dict(binding))
            return tuple(evaluator.evaluate(expr, env) for expr in key_exprs)

        collect = Aggregator(
            "__group__", lambda: [], lambda acc, record: acc + [record]
        )
        first_key = Aggregator(
            "__keys__",
            lambda: None,
            lambda acc, record: acc if acc is not None else raw_keys(record),
        )
        gby = spec.add_operator(
            OperatorDescriptor(
                "group-by",
                lambda c: HashGroupByOperator(
                    c, key_fn, ["__hash__"], [collect, first_key]
                ),
                partitions=n,
            )
        )
        spec.connect(upstream, gby, HashPartition(key_fn))
        return gby

    def _attach_order_limit_project(self, spec, upstream, block, evaluator, grouped):
        n_out = 1 if (block.order_items or block.limit is not None) else None

        def project(binding: dict):
            if grouped:
                return self._project_group(block, evaluator, binding)
            env = Env(dict(binding))
            return evaluator._project(block, env)

        if block.order_items:

            def order_key(binding: dict):
                if grouped:
                    env = self._group_env(block, evaluator, binding)
                else:
                    env = Env(dict(binding))
                # ORDER BY may reference SELECT output aliases, so the
                # sort key is computed against the projected row too.
                row = evaluator._project(block, env)
                return evaluator._order_key_for(block, env, row)

            sorter = spec.add_operator(
                OperatorDescriptor(
                    "order-by", lambda c: SortOperator(c, order_key), partitions=1
                )
            )
            spec.connect(upstream, sorter, OneToOne())
            upstream = sorter
        if block.limit is not None:
            ctx0 = self.fresh_context()
            limit_value = Evaluator(ctx0).evaluate_query(block.limit)
            from ..hyracks.operators import LimitOperator

            limiter = spec.add_operator(
                OperatorDescriptor(
                    "limit",
                    lambda c: LimitOperator(c, int(limit_value)),
                    partitions=1,
                )
            )
            spec.connect(upstream, limiter, OneToOne())
            upstream = limiter
        projector = spec.add_operator(
            OperatorDescriptor(
                "project",
                lambda c: AssignOperator(c, project),
                partitions=n_out or upstream.partitions,
            )
        )
        spec.connect(upstream, projector, OneToOne())
        return projector

    def _group_env(self, block, evaluator, group_record: dict) -> Env:
        env = Env({})
        env.group = [Env(dict(binding)) for binding in group_record["__group__"]]
        env.group_key_values = {}
        keys = group_record["__keys__"] or ()
        for key_spec, value in zip(block.group_keys, keys):
            env.group_key_values[key_spec.expr] = value
            if key_spec.alias:
                env.vars[key_spec.alias] = value
            else:
                from .evaluator import _default_alias

                name = _default_alias(key_spec.expr, fallback=None)
                if name:
                    env.vars.setdefault(name, value)
        return env

    def _project_group(self, block, evaluator, group_record: dict):
        env = self._group_env(block, evaluator, group_record)
        return evaluator._project(block, env)


def run_insert(
    cluster,
    catalog: Dict[str, object],
    dataset_name: str,
    rows: List[dict],
    upsert: bool = False,
) -> JobResult:
    """The insert job: hash-partition rows by primary key and store them."""
    if dataset_name not in catalog:
        raise SqlppAnalysisError(f"unknown dataset: {dataset_name}")
    dataset = catalog[dataset_name]
    from ..adm.schema import primary_key_of

    n = cluster.num_nodes
    spec = JobSpecification(f"insert-{dataset_name}")
    src = spec.add_operator(
        OperatorDescriptor("rows", lambda c: ListSource(c, rows), partitions=n)
    )
    sink = spec.add_operator(
        OperatorDescriptor(
            "store",
            lambda c: DatasetWriteSink(c, dataset, "upsert" if upsert else "insert"),
            partitions=n,
        )
    )
    spec.connect(
        src, sink, HashPartition(lambda r: primary_key_of(r, dataset.primary_key))
    )
    return cluster.controller.run_job(spec)
