"""The IDEA ingestion framework: static vs dynamic pipelines, feeds."""

from .adapter import (
    ADAPTER_IDLE,
    FeedAdapter,
    FileAdapter,
    GeneratorAdapter,
    QueueAdapter,
    drain_available,
)
from .external import (
    PENDING_FIELD,
    BackfillReport,
    EnricherBinding,
    EnrichmentCoordinator,
    ExternalEnricher,
    backfill_pending,
    enrichment_completeness,
)
from .fabric import (
    FeedFabric,
    FeedLaunch,
    FeedSignals,
    MemoryGovernor,
    merge_fault_plans,
)
from .feed import (
    AttachedFunction,
    BatchStats,
    ComputingModel,
    FeedDefinition,
    FeedRunReport,
    Framework,
)
from .pipelines import DynamicIngestionPipeline, FeedRun, StaticIngestionPipeline
from .policy import (
    CircuitBreaker,
    CongestionAction,
    ExternalFailureAction,
    FeedPolicy,
    SoftErrorAction,
    SoftErrorHandler,
    ensure_dead_letter_dataset,
)
from .replay import ReplayReport, replay_dead_letters
from .udf_operator import UdfEvaluatorOperator, make_invoker
from .updates import ReferenceUpdateClient

__all__ = [
    "ADAPTER_IDLE",
    "AttachedFunction",
    "BackfillReport",
    "BatchStats",
    "CircuitBreaker",
    "ComputingModel",
    "CongestionAction",
    "DynamicIngestionPipeline",
    "EnricherBinding",
    "EnrichmentCoordinator",
    "ExternalEnricher",
    "ExternalFailureAction",
    "FeedAdapter",
    "FeedDefinition",
    "FeedFabric",
    "FeedLaunch",
    "FeedPolicy",
    "FeedRun",
    "FeedRunReport",
    "FeedSignals",
    "FileAdapter",
    "Framework",
    "MemoryGovernor",
    "GeneratorAdapter",
    "PENDING_FIELD",
    "QueueAdapter",
    "ReferenceUpdateClient",
    "ReplayReport",
    "SoftErrorAction",
    "SoftErrorHandler",
    "StaticIngestionPipeline",
    "UdfEvaluatorOperator",
    "backfill_pending",
    "drain_available",
    "enrichment_completeness",
    "ensure_dead_letter_dataset",
    "make_invoker",
    "merge_fault_plans",
    "replay_dead_letters",
]
