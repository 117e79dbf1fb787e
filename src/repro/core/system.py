"""The public facade: an embedded AsterixDB-like system.

This is the user model the paper assumes — DDL for types, datasets,
indexes, functions, and feeds; DML for inserts and queries; feeds for
continuous ingestion with attached enrichment UDFs.  Statements can be
issued as SQL++ text (``execute``) or through the equivalent programmatic
methods.

>>> system = AsterixLite(num_nodes=3)
>>> system.execute('''
...     CREATE TYPE TweetType AS OPEN { id: int64, text: string };
...     CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
... ''')
>>> system.insert("Tweets", [{"id": 0, "text": "Let there be light"}])
1
>>> system.query("SELECT VALUE t.text FROM Tweets t")
['Let there be light']
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..adm.schema import make_type, primary_key_of
from ..adm.types import Datatype
from ..cluster.controller import Cluster
from ..errors import FeedStateError, SqlppAnalysisError
from ..hyracks.connectors import HashPartition
from ..hyracks.cost import CostModel
from ..hyracks.executor import JobResult
from ..hyracks.job import JobSpecification, OperatorDescriptor
from ..hyracks.operators import DatasetWriteSink, ListSource
from ..ingestion.adapter import FeedAdapter
from ..ingestion.feed import (
    AttachedFunction,
    ComputingModel,
    FeedDefinition,
    FeedRunReport,
    Framework,
)
from ..ingestion.fabric import FeedLaunch, merge_fault_plans
from ..ingestion.pipelines import (
    ActiveFeedManager,
    DynamicIngestionPipeline,
    StaticIngestionPipeline,
    drive_runs,
)
from ..ingestion.policy import DEFAULT_POLICY, FeedPolicy
from ..runtime.faults import FaultPlan
from ..runtime.metrics import PLAN_CACHE_COUNTERS
from ..storage.checkpoint import CheckpointStore
from ..sqlpp.evaluator import Env, EvaluationContext, Evaluator
from ..sqlpp.parser import parse_statements
from ..sqlpp.plans import PlanCache, compile_expr, truthy
from ..sqlpp.statements import (
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
    StopFeed,
)
from ..storage.dataset import Dataset
from ..storage.index import IndexKind
from ..udf.registry import FunctionRegistry


def run_insert(
    cluster: Cluster,
    catalog: Dict[str, Dataset],
    dataset_name: str,
    rows: List[dict],
    upsert: bool = False,
) -> JobResult:
    """The insert job (§5.1): hash-partition rows by primary key and store them."""
    if dataset_name not in catalog:
        raise SqlppAnalysisError(f"unknown dataset: {dataset_name}")
    dataset = catalog[dataset_name]
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


class _FeedState:
    def __init__(self, name: str, config: Dict[str, object]):
        self.name = name
        self.config = config
        self.target_dataset: Optional[str] = None
        self.functions: List[AttachedFunction] = []
        self.adapter: Optional[FeedAdapter] = None
        self.policy: Optional[FeedPolicy] = None
        self.external_enrichers: List[object] = []
        self.last_report: Optional[FeedRunReport] = None
        self.running = False


#: policy fields only the dynamic framework's run honours; a static run
#: refuses a policy that sets one rather than ignore it
_DYNAMIC_ONLY_POLICY_FIELDS = (
    "state_cache_bytes",
    "enrichment_memo_bytes",
    "intake_partitions",
    "max_subbatch_records",
    "min_computing_workers",
    "max_computing_workers",
)


class AsterixLite:
    """An embedded, single-process reproduction of the paper's system."""

    def __init__(
        self,
        num_nodes: int = 1,
        cost_model: Optional[CostModel] = None,
        default_partitions: Optional[int] = None,
    ):
        self.cluster = Cluster(num_nodes, cost_model)
        self.types: Dict[str, Datatype] = {}
        self.catalog: Dict[str, Dataset] = {}
        self.registry = FunctionRegistry(lambda: set(self.catalog))
        self.feeds: Dict[str, _FeedState] = {}
        self.afm = ActiveFeedManager(self.cluster)
        self.default_partitions = default_partitions or num_nodes

    # ------------------------------------------------------------------- DDL

    def create_type(
        self, name: str, fields: Dict[str, str], open: bool = True  # noqa: A002
    ) -> Datatype:
        if name in self.types:
            raise SqlppAnalysisError(f"type {name!r} already exists")
        datatype = make_type(name, fields, open=open)
        self.types[name] = datatype
        return datatype

    def create_dataset(
        self,
        name: str,
        type_name: str,
        primary_key: str,
        num_partitions: Optional[int] = None,
    ) -> Dataset:
        if name in self.catalog:
            raise SqlppAnalysisError(f"dataset {name!r} already exists")
        if type_name not in self.types:
            raise SqlppAnalysisError(f"unknown type: {type_name}")
        dataset = Dataset(
            name,
            self.types[type_name],
            primary_key,
            num_partitions=num_partitions or self.default_partitions,
        )
        self.catalog[name] = dataset
        self.registry.invalidate_plans()
        return dataset

    def create_index(
        self, name: str, dataset: str, field: str, kind: str = "btree"
    ) -> None:
        try:
            index_kind = IndexKind(kind)
        except ValueError:
            raise SqlppAnalysisError(
                f"unknown index type {kind!r}: expected 'btree' or 'rtree'"
            ) from None
        self._dataset(dataset).create_index(name, field, index_kind)
        self.registry.invalidate_plans()

    def drop_index(self, dataset: str, name: str) -> None:
        self._dataset(dataset).drop_index(name)
        self.registry.invalidate_plans()

    def plan_cache_stats(self, feed: Optional[str] = None) -> Dict[str, int]:
        """Plan-cache counters, or one feed's cache / memo / columnar row.

        With no ``feed``: the registry's plan cache (``plans`` / ``hits``
        / ``misses`` / ``invalidations``), the one cache every feed over
        this system shares.  With a feed name: *that feed's* labeled row —
        its last run's hit / miss / eviction deltas on its own state cache
        and memo (:meth:`FunctionRegistry.caches_for`; no other feed's
        traffic is in them) plus its columnar counters, all zero before
        the feed's first run.
        """
        if feed is not None:
            report = self._feed(feed).last_report
            stats: Dict[str, int] = {"feed": feed}
            if report is None:
                return stats
            for name in PLAN_CACHE_COUNTERS:
                stats[name] = getattr(report, name)
            return stats
        return self.registry.plan_cache.stats()

    def create_function(self, source_or_definition) -> None:
        self.registry.register_sqlpp(source_or_definition)

    def create_java_function(self, descriptor) -> None:
        self.registry.register_java(descriptor)

    def create_feed(self, name: str, config: Optional[Dict] = None) -> None:
        if name in self.feeds:
            raise FeedStateError(f"feed {name!r} already exists")
        self.feeds[name] = _FeedState(name, dict(config or {}))

    def connect_feed(
        self,
        feed: str,
        dataset: str,
        apply_functions: Iterable[Union[str, AttachedFunction]] = (),
        policy: Optional[FeedPolicy] = None,
        external_enrichers: Iterable[object] = (),
    ) -> None:
        """Connect a feed to its target dataset.

        ``policy`` (a :class:`~repro.ingestion.policy.FeedPolicy`, e.g.
        ``FeedPolicy.spill()``) governs soft errors, congestion, and actor
        restarts for every subsequent run of this feed; the default is the
        fail-fast ``Basic`` policy.

        ``external_enrichers`` (a sequence of
        :class:`~repro.ingestion.external.EnricherBinding`) routes probe
        keys through simulated remote lookup services with the full
        resilience stack — see :mod:`repro.ingestion.external`.
        """
        state = self._feed(feed)
        self._dataset(dataset)  # validate existence
        state.target_dataset = dataset
        state.functions = [
            fn if isinstance(fn, AttachedFunction) else AttachedFunction(fn)
            for fn in apply_functions
        ]
        state.policy = policy
        state.external_enrichers = list(external_enrichers)

    # ------------------------------------------------------------------ feeds

    def set_feed_adapter(self, feed: str, adapter: FeedAdapter) -> None:
        self._feed(feed).adapter = adapter

    def _prepare_run(
        self,
        feed: str,
        adapter,
        batch_size: int,
        balanced_intake: bool,
        computing_model: ComputingModel,
        policy: Optional[FeedPolicy],
        fault_plan: Optional[FaultPlan],
        framework: Framework = Framework.DYNAMIC,
    ):
        """Check ``feed`` can start; returns ``(state, adapter, definition)``
        with the run's overrides laid over what the feed was connected with."""
        state = self._feed(feed)
        if state.target_dataset is None:
            raise FeedStateError(f"feed {feed!r} is not connected to a dataset")
        if state.running:
            raise FeedStateError(f"feed {feed!r} is already running")
        adapter = adapter if adapter is not None else state.adapter
        if adapter is None:
            raise FeedStateError(f"feed {feed!r} has no adapter")
        type_name = state.config.get("type-name")
        definition = FeedDefinition(
            name=feed,
            target_dataset=state.target_dataset,
            datatype=self.types.get(type_name) if type_name else None,
            batch_size=batch_size,
            framework=framework,
            computing_model=computing_model,
            functions=list(state.functions),
            balanced_intake=balanced_intake,
            policy=policy or state.policy,
            fault_plan=fault_plan,
            external_enrichers=list(state.external_enrichers),
        )
        return state, adapter, definition

    def start_feed(
        self,
        feed: str,
        adapter: Optional[Union[FeedAdapter, Sequence[FeedAdapter]]] = None,
        framework: Union[str, Framework] = Framework.DYNAMIC,
        batch_size: int = 420,
        balanced_intake: bool = False,
        computing_model: ComputingModel = ComputingModel.PER_BATCH,
        update_client=None,
        policy: Optional[FeedPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint: Optional[CheckpointStore] = None,
        resume: bool = False,
    ) -> FeedRunReport:
        """Run the feed to adapter exhaustion; returns the run report.

        The embedded execution model is synchronous: starting a feed drives
        it until the adapter's stream ends (a ``QueueAdapter`` ends when its
        producer calls ``end()``, which is the STOP FEED analog).

        ``adapter`` can be a sequence for partitioned intake (one adapter
        per intake partition), or a single splittable adapter combined
        with a policy whose ``intake_partitions`` exceeds one.

        ``policy`` overrides the policy attached at ``connect_feed`` time
        for this run only; ``fault_plan`` injects a deterministic schedule
        of actor crashes/stalls/disconnects (chaos testing).

        ``checkpoint`` (a :class:`~repro.storage.CheckpointStore`) makes
        the run durably restartable (dynamic framework only): see
        :meth:`resume_run`.
        """
        framework = Framework(framework) if isinstance(framework, str) else framework
        state, adapter, definition = self._prepare_run(
            feed, adapter, batch_size, balanced_intake, computing_model,
            policy, fault_plan, framework,
        )
        if framework is Framework.STATIC and checkpoint is not None:
            raise FeedStateError(
                "durable checkpoints need the dynamic framework (the static "
                "pipeline is one monolithic job with no restart cursor)"
            )
        if framework is Framework.STATIC and not isinstance(adapter, FeedAdapter):
            raise FeedStateError(
                "partitioned intake (multiple adapters) needs the dynamic "
                "framework"
            )
        if framework is Framework.STATIC:
            run_policy = definition.policy or DEFAULT_POLICY
            for name in _DYNAMIC_ONLY_POLICY_FIELDS:
                if getattr(run_policy, name) != getattr(DEFAULT_POLICY, name):
                    raise FeedStateError(
                        f"policy field {name!r} needs the dynamic framework "
                        "(the static pipeline is one job: no cross-batch "
                        "caches, intake partitions, sub-batches or worker "
                        "pool)"
                    )
        state.running = True
        try:
            if framework is Framework.STATIC:
                pipeline = StaticIngestionPipeline(
                    self.cluster, self.catalog, self.registry
                )
                report = pipeline.run(definition, adapter)
            else:
                pipeline = DynamicIngestionPipeline(
                    self.cluster, self.catalog, self.registry, afm=self.afm
                )
                report = pipeline.run(
                    definition,
                    adapter,
                    update_client=update_client,
                    checkpoint=checkpoint,
                    resume=resume,
                )
        finally:
            state.running = False
        state.last_report = report
        return report

    def start_feeds(
        self,
        launches: Sequence[Union[str, FeedLaunch]],
        fabric=None,
        computing_model: ComputingModel = ComputingModel.PER_BATCH,
    ) -> Dict[str, FeedRunReport]:
        """Run several feeds concurrently on one shared simulated runtime.

        Each entry is a :class:`~repro.ingestion.fabric.FeedLaunch` (or a
        bare feed name for all-default settings).  Every feed's layers run
        as processes on *one* discrete-event runtime sharing the cluster
        clock, so the feeds genuinely contend: the fleet's makespan — the
        shared runtime's elapsed time — lands in every report's
        ``simulated_seconds``.

        ``fabric`` (a :class:`~repro.ingestion.fabric.FeedFabric`) makes
        the fleet multi-tenant: per-feed elastic controllers bid into one
        global worker budget, and — when the fabric carries a memory
        governor — it sets the budget of each feed's own cache/memo.
        Without one there is no arbitration (feeds still share the clock
        but size their pools independently).  Per-feed stored
        outputs are byte-identical with and without a fabric — the fabric
        only changes pool sizes over time, never batch order.

        Per-feed fault plans are merged onto the shared runtime; target
        entries should use feed-scoped names (``feed-<name>.computing``)
        and :class:`~repro.runtime.faults.AdapterFailAt` entries the
        ``feed=`` field, since bare layer targets match every feed.

        Returns ``{feed name: report}``; each feed's report is also its
        ``last_report`` (visible to :meth:`feed_report` and
        ``plan_cache_stats(feed=...)``).
        """
        launches = [
            launch if isinstance(launch, FeedLaunch) else FeedLaunch(feed=launch)
            for launch in launches
        ]
        if not launches:
            raise FeedStateError("start_feeds needs at least one feed")
        names = [launch.feed for launch in launches]
        if len(set(names)) != len(names):
            raise FeedStateError(f"duplicate feeds in start_feeds: {names}")

        entries = []
        for launch in launches:
            state, adapter, definition = self._prepare_run(
                launch.feed, launch.adapter, launch.batch_size,
                launch.balanced_intake, computing_model, launch.policy,
                launch.fault_plan,
            )
            entries.append((state, launch, adapter, definition))

        if fabric is not None:
            fabric.validate(
                [
                    (d.name, d.policy or DEFAULT_POLICY)
                    for _, _, _, d in entries
                ]
            )
        runtime = self.cluster.new_runtime("fleet")
        runtime.install_fault_plan(
            merge_fault_plans([d.fault_plan for _, _, _, d in entries])
        )
        if fabric is not None:
            fabric.bind(runtime)
        pipeline = DynamicIngestionPipeline(
            self.cluster, self.catalog, self.registry, afm=self.afm
        )
        for state, _, _, _ in entries:
            state.running = True
        try:
            runs = []
            try:
                for _, launch, adapter, definition in entries:
                    runs.append(
                        pipeline.launch(
                            definition,
                            adapter,
                            update_client=launch.update_client,
                            runtime=runtime,
                            fabric=fabric,
                        )
                    )
            except BaseException:
                for run in runs:
                    run.cleanup()
                raise
            reports = dict(zip(names, drive_runs(runtime, runs)))
        finally:
            for state, _, _, _ in entries:
                state.running = False
        for state, _, _, _ in entries:
            state.last_report = reports[state.name]
        return reports

    def resume_run(
        self,
        feed: str,
        adapter: Optional[Union[FeedAdapter, Sequence[FeedAdapter]]] = None,
        checkpoint: Optional[CheckpointStore] = None,
        **kwargs,
    ) -> FeedRunReport:
        """Restart an interrupted feed run from its durable checkpoint.

        Pass *fresh* adapters over the same source(s) (the interrupted
        process's live adapters are gone): each intake partition is
        re-opened at its persisted cursor, so everything acked before the
        interruption is skipped, the un-acked tail is replayed, and
        pk-upsert dedupes the overlap — the final datasets are
        byte-identical to an uninterrupted run.  Accepts the same keyword
        arguments as :meth:`start_feed`.
        """
        if checkpoint is None:
            raise FeedStateError("resume_run needs the run's CheckpointStore")
        return self.start_feed(
            feed, adapter, checkpoint=checkpoint, resume=True, **kwargs
        )

    def feed_report(self, feed: str) -> Optional[FeedRunReport]:
        return self._feed(feed).last_report

    def replay_dead_letters(
        self,
        feed: str,
        batch_size: int = 420,
        policy: Optional[FeedPolicy] = None,
    ):
        """Re-ingest the feed's repaired dead-letter rows and clear them.

        See :func:`repro.ingestion.replay.replay_dead_letters`; returns its
        :class:`~repro.ingestion.replay.ReplayReport`.
        """
        from ..ingestion.replay import replay_dead_letters

        return replay_dead_letters(self, feed, batch_size=batch_size, policy=policy)

    def backfill_pending(
        self,
        feed: str,
        bindings=None,
        policy: Optional[FeedPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        """Catch-up pass: re-probe stored ``_enrichment_pending`` records.

        Runs the feed's external enrichers (or ``bindings``) over every
        stored record still carrying the pending marker — once the remote
        has recovered this drives enrichment completeness back to 1.0.
        See :func:`repro.ingestion.external.backfill_pending`; returns its
        :class:`~repro.ingestion.external.BackfillReport`.
        """
        from ..ingestion.external import backfill_pending

        return backfill_pending(
            self, feed, bindings=bindings, policy=policy, fault_plan=fault_plan
        )

    # ------------------------------------------------------------------- DML

    def insert(self, dataset: str, records: List[dict], upsert: bool = False) -> int:
        result = run_insert(
            self.cluster, self.catalog, dataset, list(records), upsert=upsert
        )
        return result.records_out

    def upsert(self, dataset: str, records: List[dict]) -> int:
        return self.insert(dataset, records, upsert=True)

    def delete_where(self, dataset_name: str, var: str, where=None) -> int:
        """Delete records matching ``where``; returns how many went."""
        dataset = self._dataset(dataset_name)
        evaluator = self.evaluator()
        matches = compile_expr(where) if where is not None else None
        doomed = []
        for record in dataset.scan():
            if matches is None or truthy(matches(evaluator, Env({var: record}))):
                doomed.append(primary_key_of(record, dataset.primary_key))
        for key in doomed:
            dataset.delete(key)
        return len(doomed)

    def query(self, text_or_ast) -> List:
        """Evaluate a query (Option 1: enrichment-during-querying)."""
        if isinstance(text_or_ast, str):
            statements = parse_statements(text_or_ast)
            if len(statements) != 1 or not isinstance(statements[0], QueryStatement):
                raise SqlppAnalysisError("query() expects exactly one SELECT")
            ast = statements[0].query
        else:
            ast = text_or_ast
        return self._evaluate(ast)

    def _evaluate(self, query) -> List:
        result = self.evaluator().evaluate_query(query)
        return result if isinstance(result, list) else [result]

    # ------------------------------------------------------------- statements

    def execute(self, sqlpp_text: str):
        """Execute one or more SQL++ statements; returns the last result."""
        result = None
        for statement in parse_statements(sqlpp_text):
            result = self._execute_one(statement)
        return result

    def _execute_one(self, statement):
        if isinstance(statement, CreateType):
            return self.create_type(
                statement.name, statement.fields, open=statement.is_open
            )
        if isinstance(statement, CreateDataset):
            return self.create_dataset(
                statement.name, statement.type_name, statement.primary_key
            )
        if isinstance(statement, CreateIndex):
            if len(statement.fields) != 1:
                raise SqlppAnalysisError(
                    "composite indexes are not supported: "
                    f"{statement.name} ON {statement.dataset}"
                    f"({', '.join(statement.fields)})"
                )
            return self.create_index(
                statement.name,
                statement.dataset,
                statement.fields[0],
                kind=statement.index_type,
            )
        if isinstance(statement, CreateFunction):
            return self.create_function(statement.definition)
        if isinstance(statement, CreateFeed):
            return self.create_feed(statement.name, statement.config)
        if isinstance(statement, ConnectFeed):
            return self.connect_feed(
                statement.feed, statement.dataset, statement.apply_functions
            )
        if isinstance(statement, StartFeed):
            return self.start_feed(statement.feed)
        if isinstance(statement, StopFeed):
            state = self._feed(statement.feed)
            if state.adapter is not None and hasattr(state.adapter, "end"):
                state.adapter.end()
            return None
        if isinstance(statement, DeleteStatement):
            return self.delete_where(
                statement.dataset, statement.var, statement.where
            )
        if isinstance(statement, InsertStatement):
            rows = self._evaluate(statement.query)
            return self.insert(statement.dataset, rows, upsert=statement.upsert)
        if isinstance(statement, QueryStatement):
            return self._evaluate(statement.query)
        raise SqlppAnalysisError(f"unsupported statement: {type(statement).__name__}")

    # ---------------------------------------------------------------- helpers

    def evaluation_context(self) -> EvaluationContext:
        return EvaluationContext(self.catalog, functions=self.registry)

    def evaluator(self) -> Evaluator:
        """An evaluator for one ad-hoc statement.

        Its plans live in a cache of its own: ``PlanCache`` pins every
        block it has planned, and an ad-hoc query's AST is never seen
        again, so in the registry's cache (which feeds share, and which
        only DDL empties) each query would stay pinned for good.
        """
        ctx = self.evaluation_context()
        ctx.plan_cache = PlanCache()
        return Evaluator(ctx)

    def _dataset(self, name: str) -> Dataset:
        if name not in self.catalog:
            raise SqlppAnalysisError(f"unknown dataset: {name}")
        return self.catalog[name]

    def _feed(self, name: str) -> _FeedState:
        if name not in self.feeds:
            raise FeedStateError(f"unknown feed: {name}")
        return self.feeds[name]
