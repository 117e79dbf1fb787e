"""The calibrated cost model driving the simulated cluster clock.

The reproduction executes every operator's *logic* for real (records are
actually parsed, joined, enriched, and stored) but runs on one machine, so
wall-clock time cannot show 24-node scale-out.  Instead each operator
charges simulated seconds to the node it is placed on, and a job's makespan
is ``startup + max-over-nodes(busy)``.

Constants are calibrated so that the reproduction lands in the same regime
as the paper's testbed (dual-core Opteron 2212, GbE):

* ``parse_per_record`` ≈ 65 µs ⇒ one parsing node sustains ~15 k records/s,
  matching Figure 24's flat "Static Ingestion" line;
* ``job_invoke_base/per_node`` give a predeployed computing-job startup of
  ~10 ms on 24 nodes, matching Section 7.1's observed refresh rates
  (68/27/10 jobs/s at 1X/4X/16X batches);
* ``job_compile`` makes a non-predeployed job pay query compilation and
  distribution on every invocation (the §5.1 ablation);
* ``lsm_active_penalty`` inflates reference-data access while the reference
  dataset's in-memory LSM component is active (the §7.3 effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass
class CostModel:
    """All simulated-time constants, in seconds."""

    # Feed intake side
    receive_per_record: float = 22.0e-6  # adapter: accept raw bytes, enqueue
    parse_per_record: float = 65.0e-6  # JSON bytes -> typed ADM record
    intake_fanout_per_record: float = 0.35e-6  # round-robin partitioner, per target hop

    # Generic operator work
    move_per_record: float = 2.0e-6  # sink hand-off
    transfer_per_record: float = 4.0e-6  # cross-node connector hop
    sort_per_record_log: float = 1.2e-6  # multiplied by log2(n)
    group_per_record: float = 2.5e-6
    hash_build_per_record: float = 3.0e-6
    hash_probe_per_record: float = 2.2e-6
    nlj_per_pair: float = 0.35e-6  # nested-loop join, per compared pair
    btree_probe: float = 6.0e-6  # one index descent
    rtree_probe_per_node: float = 1.8e-6  # per R-tree node visited
    scan_per_record: float = 1.6e-6  # dataset scan

    # Enrichment work (charged by the UDF evaluator via the WorkMeter)
    udf_eval_base: float = 4.0e-6  # per input record
    edit_distance_per_cell: float = 0.010e-6  # per DP cell (engine builtin)
    spatial_test_per_pair: float = 0.12e-6  # exact geometric predicate
    java_op_cost: float = 0.006e-6  # one compiled-UDF inner-loop operation
    inlj_broadcast_per_record: float = 200.0e-6  # ship+handle one probe
    #                       record on one receiving node (INLJ broadcast)
    java_resource_load_per_line: float = 1.0e-6
    # Cross-batch state-cache reuse: a hit swaps the rebuild charges for a
    # validation + pointer-install charge plus a small per-record touch
    # (the reused table still occupies memory bandwidth when probed).
    state_cache_hit: float = 8.0e-6  # version check + install one entry
    state_cache_reuse_per_record: float = 0.05e-6  # per record reused
    # Key-level enrichment memo: a hit swaps one probe + its per-match
    # shaping for a version check + canonical-key lookup plus a per-record
    # touch of the reused result (cheaper than the probe it replaces, but
    # never free — the memo'd value still crosses memory).
    memo_hit: float = 1.0e-6  # version check + one canonical-key lookup
    memo_reuse_per_record: float = 0.05e-6  # per reused result record

    # Storage side
    store_per_record: float = 18.0e-6  # LSM write incl. log flush share
    log_flush_per_batch: float = 1.2e-3  # group-commit style log force
    lsm_active_penalty: float = 2.0  # multiplier on reference reads while
    #                                  the ref dataset's memtable is active
    lsm_component_read: float = 2.5e-6  # per extra LSM component consulted

    # Job lifecycle
    job_compile: float = 45.0e-3  # parse+optimize+codegen a job spec
    # UDF-bearing computing jobs pay extra per-invocation setup (UDF
    # evaluator/runtime initialization, reference-dataset locks, result
    # sync) that grows with cluster size — the §7.4 observation that the
    # cheap hash-join UDFs barely speed up from 6 to 24 nodes while the
    # no-UDF refresh rates of §7.1 stay high.
    udf_job_overhead_base: float = 80.0e-3
    udf_job_overhead_per_node: float = 12.0e-3
    job_distribute_per_node: float = 2.0e-3  # ship the spec to one node
    job_invoke_base: float = 4.0e-3  # invoke a predeployed job
    job_invoke_per_node: float = 0.45e-3  # per-node task activation
    job_teardown_base: float = 1.0e-3

    def job_startup(self, num_nodes: int, predeployed: bool) -> float:
        """Simulated cost of getting a job running on ``num_nodes`` nodes."""
        if predeployed:
            return self.job_invoke_base + self.job_invoke_per_node * num_nodes
        return (
            self.job_compile
            + self.job_distribute_per_node * num_nodes
            + self.job_invoke_base
            + self.job_invoke_per_node * num_nodes
        )

    def job_teardown(self, num_nodes: int) -> float:
        return self.job_teardown_base + 0.1e-3 * num_nodes

    def udf_job_overhead(self, num_nodes: int) -> float:
        """Extra per-invocation cost of a computing job with UDFs attached."""
        return self.udf_job_overhead_base + self.udf_job_overhead_per_node * num_nodes


DEFAULT_COST_MODEL = CostModel()


@dataclass
class WorkMeter:
    """Work-unit counters incremented by enrichment internals.

    The SQL++ interpreter and the UDF library cannot charge a clock
    directly (they are shared, clock-agnostic code), so they count work
    units here; the UDF evaluator operator converts the counts to simulated
    seconds using the :class:`CostModel`.

    ``scale`` is the *reference work scale*: benchmarks run against
    reference datasets scaled down from the paper's cardinalities (e.g.
    1/100), so the counters whose magnitude is proportional to reference
    cardinality — scans, hash builds, per-candidate predicate work — are
    multiplied back up when charged.  Per-probe counters (one hash/B-tree
    descent per record) are cardinality-insensitive and stay unscaled.
    """

    records_scanned: int = 0
    hash_builds: int = 0
    hash_probes: int = 0
    btree_probes: int = 0
    rtree_nodes_visited: int = 0
    nlj_pairs: int = 0
    edit_distance_cells: int = 0
    spatial_tests: int = 0
    sort_items: int = 0
    group_items: int = 0
    penalized_reads: int = 0  # reference reads under LSM update activity
    java_ops: int = 0  # compiled-UDF inner-loop operations (scan/DP cells)
    index_fetches: int = 0  # random record fetches through an index
    broadcast_records: int = 0  # probe-record deliveries (record x node)
    state_cache_hits: int = 0  # cross-batch build-state reuses
    state_cache_reused_records: int = 0  # records inside reused state
    memo_hits: int = 0  # per-key enrichment-memo reuses
    memo_reused_records: int = 0  # records inside reused memo results
    scale: float = 1.0  # reference work scale (not a counter)

    _COUNTERS = (
        "records_scanned",
        "hash_builds",
        "hash_probes",
        "btree_probes",
        "rtree_nodes_visited",
        "nlj_pairs",
        "edit_distance_cells",
        "spatial_tests",
        "sort_items",
        "group_items",
        "penalized_reads",
        "java_ops",
        "index_fetches",
        "broadcast_records",
        "state_cache_hits",
        "state_cache_reused_records",
        "memo_hits",
        "memo_reused_records",
    )
    #: counters proportional to reference-data cardinality
    _SCALED = frozenset(
        {
            "records_scanned",
            "hash_builds",
            "nlj_pairs",
            "edit_distance_cells",
            "spatial_tests",
            "penalized_reads",
            "java_ops",
            "index_fetches",
            "state_cache_reused_records",
            "memo_reused_records",
        }
    )

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def counts(self) -> Tuple[Tuple[str, int], ...]:
        """The nonzero counters as ``(name, count)`` pairs: a charge that
        :meth:`add` replays."""
        return tuple(
            (name, getattr(self, name))
            for name in self._COUNTERS
            if getattr(self, name)
        )

    def add(self, counts) -> None:
        """Charge ``counts`` (as :meth:`counts` returns them) again."""
        for name, count in counts:
            setattr(self, name, getattr(self, name) + count)

    def absorb(self, other: "WorkMeter") -> None:
        """Add ``other``'s counts into this meter.

        Counters are plain integer sums, so merging a scratch meter that
        accumulated a whole batch is exactly equivalent to charging the
        same work record-at-a-time (``charge`` applies scaling at
        conversion time, not at count time).
        """
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def charge(self, cost: CostModel) -> float:
        """Convert counted work to simulated seconds."""
        s = self.scale

        def scaled(name: str) -> float:
            value = getattr(self, name)
            return value * s if name in self._SCALED else value

        sort_items = scaled("sort_items")
        sort_cost = 0.0
        if sort_items > 1:
            sort_cost = sort_items * math.log2(sort_items) * cost.sort_per_record_log
        elif sort_items == 1:
            sort_cost = cost.sort_per_record_log
        return (
            scaled("records_scanned") * cost.scan_per_record
            + scaled("hash_builds") * cost.hash_build_per_record
            + scaled("hash_probes") * cost.hash_probe_per_record
            + scaled("btree_probes") * cost.btree_probe
            + scaled("rtree_nodes_visited") * cost.rtree_probe_per_node
            + scaled("nlj_pairs") * cost.nlj_per_pair
            + scaled("edit_distance_cells") * cost.edit_distance_per_cell
            + scaled("spatial_tests") * cost.spatial_test_per_pair
            + sort_cost
            + scaled("group_items") * cost.group_per_record
            + scaled("java_ops") * cost.java_op_cost
            + scaled("index_fetches") * cost.btree_probe
            + scaled("broadcast_records") * cost.inlj_broadcast_per_record
            + scaled("state_cache_hits") * cost.state_cache_hit
            + scaled("state_cache_reused_records")
            * cost.state_cache_reuse_per_record
            + scaled("memo_hits") * cost.memo_hit
            + scaled("memo_reused_records") * cost.memo_reuse_per_record
            + scaled("penalized_reads")
            * cost.lsm_component_read
            * (cost.lsm_active_penalty - 1.0)
        )
