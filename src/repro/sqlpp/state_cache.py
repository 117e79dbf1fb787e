"""Cross-batch enrichment-state cache, keyed by reference-data version.

The paper's computing job rebuilds all per-batch intermediate state (hash
join build tables, batch-cached scans, uncorrelated top-k subquery
results) on every invocation so that enrichment UDFs observe reference
updates at batch boundaries (§5, §7.3).  When the reference dataset has
*not* changed between two batches that rebuild is pure waste: the build
input is byte-identical, so the build output is too.  Every write to a
:class:`~repro.storage.dataset.Dataset` partition appends a WAL record, so
the partitions' LSNs — carried by the
:class:`~repro.storage.dataset.ReferenceSnapshot` a batch pins — are
exactly the proof needed: the classic view-maintenance observation (Gupta
& Mumick) specialised to the degenerate "nothing changed" delta.

This module implements that reuse as an LRU-by-bytes cache:

* entries are keyed by the *identity* of the materialised state — e.g.
  ``("scan", dataset_name)``, ``("hash", dataset_name, field)``,
  ``("uncorrelated", plan_token)`` — and guarded by a **version key**:
  the LSNs of the snapshot(s) the state was built from;
* :meth:`StateCache.get` returns the entry only when the stored version
  key equals the current one, so *any* committed write (insert, upsert,
  delete, dead-letter replay) between batches forces a rebuild at the
  next batch boundary — precisely where the per-batch-rebuild baseline
  would have picked the change up;
* DDL and function changes clear the cache wholesale (the owning
  :class:`~repro.udf.registry.FunctionRegistry` calls :meth:`clear` from
  ``invalidate_plans``/``replace_sqlpp``), so ``create_index`` /
  ``drop_index`` / ``CREATE OR REPLACE FUNCTION`` all start the next
  batch from a cold build;
* eviction (LRU by estimated bytes, against a per-feed configured
  budget) only drops the *cache's* reference — a batch that already
  installed the table into its per-batch ``batch_cache`` keeps using it
  safely, so eviction can never invalidate state a worker is mid-probe
  on.

Semantics are therefore unchanged from per-batch rebuild: state is still
stale-within-batch, and it refreshes at exactly the same batch
boundaries.  Only the *cost* of the refresh changes, which is why the
:class:`~repro.hyracks.cost.WorkMeter` grows explicit
``state_cache_hits`` / ``state_cache_reused_records`` counters instead of
silently dropping the build charges.

Concurrency: the elastic worker pool shares one cache per feed (it hangs
off the registry), but workers run on the cooperative discrete-event
scheduler and a computing-job invocation is synchronous within one worker
resume, so ``get``/``put`` never interleave mid-build.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

#: fixed per-entry overhead (key + version key + OrderedDict slot)
ENTRY_OVERHEAD_BYTES = 512

#: CPython-flavoured base costs for the payload-aware sizer: small-object
#: header + typical container slack.  Estimates, not ``sys.getsizeof``
#: truth — the budget is a working-set bound, not an accounting ledger —
#: but they track *relative* entry weight, which is what LRU-by-bytes
#: eviction order actually depends on.
_SCALAR_BYTES = 28
_STR_BASE_BYTES = 49
_BYTES_BASE_BYTES = 33
_SEQ_BASE_BYTES = 56
_SEQ_SLOT_BYTES = 8
_DICT_BASE_BYTES = 64
_DICT_SLOT_BYTES = 24
_OPAQUE_BYTES = 48


def estimate_payload_bytes(value) -> int:
    """Recursive, payload-aware size estimate for a cached value.

    Walks dicts/lists/tuples/sets and sums per-element estimates, so an
    entry holding ten 1 KiB documents weighs ~40× one holding ten small
    ints — a row count would price both identically.  Shared
    sub-objects are counted at every reference
    (deliberate: eviction should track what the entry *pins*, and a
    conservative overestimate only evicts a little early).
    """
    if value is None or isinstance(value, (bool, int, float)):
        return _SCALAR_BYTES
    if isinstance(value, str):
        return _STR_BASE_BYTES + len(value)
    if isinstance(value, (bytes, bytearray)):
        return _BYTES_BASE_BYTES + len(value)
    if isinstance(value, dict):
        total = _DICT_BASE_BYTES
        for key, item in value.items():
            total += (
                _DICT_SLOT_BYTES
                + estimate_payload_bytes(key)
                + estimate_payload_bytes(item)
            )
        return total
    if isinstance(value, (list, tuple, set, frozenset)):
        total = _SEQ_BASE_BYTES
        for item in value:
            total += _SEQ_SLOT_BYTES + estimate_payload_bytes(item)
        return total
    return _OPAQUE_BYTES  # datetimes, spatial values, other leaf objects


def estimate_entry_bytes(value) -> int:
    """What :meth:`StateCache.put` books for an entry holding ``value``."""
    return ENTRY_OVERHEAD_BYTES + estimate_payload_bytes(value)


class StateCacheEntry:
    """One cached piece of build-side state."""

    __slots__ = ("key", "version_key", "value", "records", "nbytes")

    def __init__(self, key, version_key, value, records: int, nbytes: int):
        self.key = key
        self.version_key = version_key
        self.value = value
        self.records = records
        self.nbytes = nbytes


class StateCache:
    """LRU-by-bytes cache of version-guarded enrichment state.

    ``budget_bytes`` bounds the estimated resident size; ``put`` evicts
    least-recently-used entries until the new entry fits.  An entry
    larger than the whole budget is not admitted at all (it would only
    evict everything and then thrash).

    The budget is *live-resizable*: :meth:`configure` may be called
    mid-run (the multi-tenant memory governor does, at batch boundaries)
    and a shrink evicts immediately, so the cache never sits over its
    current grant.  :meth:`mark_window`/:meth:`window_counts` give a
    recency-weighted utility signal for that arbitration without
    disturbing the cumulative counters reports diff.
    """

    #: tenant-kind tag for governor/report labeling (subclasses override)
    kind = "state"

    def __init__(self, budget_bytes: int = 0, label: str = ""):
        self.budget_bytes = int(budget_bytes)
        #: owner tag for multi-tenant reporting (e.g. ``"F3.state"``)
        self.label = label
        self._entries: "OrderedDict[tuple, StateCacheEntry]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0  # full clears (DDL / function replace)
        self.version_mismatches = 0  # stale entries displaced by a rebuild
        # window marks: lookups since the last mark_window() (the memory
        # governor's recency-weighted hit-ratio signal)
        self._window_hits_mark = 0
        self._window_misses_mark = 0

    # ---------------------------------------------------------------- config

    def configure(self, budget_bytes: int) -> None:
        """Set the byte budget (a feed policy attaching to this cache).

        Shrinking the budget evicts immediately so a freshly attached
        feed never observes the cache over its own bound.
        """
        self.budget_bytes = int(budget_bytes)
        self._evict_to(self.budget_bytes)

    # ---------------------------------------------------------------- lookup

    def get(self, key: tuple, version_key) -> Optional[StateCacheEntry]:
        """The entry for ``key`` iff it was built at ``version_key``.

        A present-but-stale entry counts as a miss (and is left in place
        — the subsequent :meth:`put` of the rebuilt state replaces it).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.version_key != version_key:
            self.misses += 1
            self.version_mismatches += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def put(
        self, key: tuple, version_key, value, records: int,
        nbytes: Optional[int] = None,
    ) -> None:
        """Install freshly built state under the current version key."""
        if nbytes is None:
            nbytes = estimate_entry_bytes(value)
        old = self._entries.pop(key, None)
        if old is not None:
            self.current_bytes -= old.nbytes
        if nbytes > self.budget_bytes:
            return  # would thrash the whole cache; skip admission
        self._evict_to(self.budget_bytes - nbytes)
        self._entries[key] = StateCacheEntry(
            key, version_key, value, records, nbytes
        )
        self.current_bytes += nbytes

    def _evict_to(self, target_bytes: int) -> None:
        while self._entries and self.current_bytes > target_bytes:
            _key, entry = self._entries.popitem(last=False)
            self.current_bytes -= entry.nbytes
            self.evictions += 1

    # ------------------------------------------------------------ management

    def clear(self) -> None:
        """Drop everything (DDL change / function replacement)."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    # ----------------------------------------------------------------- stats

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def window_counts(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`mark_window`."""
        return (
            self.hits - self._window_hits_mark,
            self.misses - self._window_misses_mark,
        )

    def mark_window(self) -> None:
        """Start a fresh observation window (governor rebalance boundary)."""
        self._window_hits_mark = self.hits
        self._window_misses_mark = self.misses

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.current_bytes,
            "budget_bytes": self.budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "version_mismatches": self.version_mismatches,
        }


def dataset_version_key(
    catalog: Dict[str, object], names, version_of: Callable[[object], object]
) -> Tuple:
    """The version key for state derived from several datasets.

    Sorted ``(name, version)`` pairs: equal iff every referenced dataset
    is at the same committed version as when the state was built.
    ``version_of`` is the evaluator's read of the LSNs its generation
    *pinned* — never a live counter.
    """
    return tuple(
        (name, version_of(catalog[name])) for name in sorted(names)
        if name in catalog
    )
