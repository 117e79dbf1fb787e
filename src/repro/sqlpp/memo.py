"""Key-level enrichment memoization: an L1/L2 probe-key result memo.

The :class:`~repro.sqlpp.state_cache.StateCache` (PR 5) reuses *build-side*
state across batches — the hash table behind a probe, a materialised scan —
but every record still pays the probe and its per-match shaping, and every
external probe key is re-sent to the remote once per batch even when the
identical key was enriched moments ago.  Production traces show exactly
this redundancy: cowrieprocessor's ADR-007 measured 5–6× repeated
enrichment calls for the same keys at 1.68M sessions.  This module
memoizes the *result* of enriching one key, across batches:

* **L1** is per-batch and free: within one batch the columnar probe
  kernel resolves duplicate keys from a plain dict, and the external
  coordinator's PR-8 key dedup already guarantees one remote hit per
  distinct key per batch.
* **L2** is the :class:`EnrichmentMemo` below — a cross-batch
  LRU-by-bytes inventory (it reuses the StateCache machinery: same
  ``get``/``put``/``configure``/``clear`` contract, same payload-aware
  sizer) keyed on the **canonical probe key** and guarded by the same
  ``dataset_version_key`` proofs as the StateCache, so a hit is a proof
  the recomputation would return an identical value.  It is attached to a
  run only when ``FeedPolicy.enrichment_memo_bytes > 0`` (default 0 =
  off, keeping every committed benchmark table byte-identical).

Invalidation mirrors the StateCache exactly: any committed write bumps
the source dataset's ``version`` and makes entries guarded by it
unreachable; DDL / ``replace_sqlpp`` / dead-letter replay clear the
memo wholesale through the owning
:class:`~repro.udf.registry.FunctionRegistry`.  External-enrichment
entries carry the constant :data:`EXTERNAL_VERSION_KEY` guard (a remote's
answer is not derived from any local dataset) and only ``"ok"`` outcomes
are ever memoized — PENDING/timeout/error outcomes must stay re-probable
so ``backfill_pending`` semantics survive.

Reuse is charged honestly through the priced ``memo_hits`` /
``memo_reused_records`` :class:`~repro.hyracks.cost.WorkMeter` counters
(local paths) and shows up as genuinely skipped remote calls (external
path: an L2 hit consumes no lane time and no breaker budget).
"""

from __future__ import annotations

from .state_cache import StateCache

#: version guard for externally-enriched entries: the remote's answer is
#: not derived from any catalog dataset, so the guard never goes stale —
#: only registry-level clears (DDL / function replace) drop the entries.
EXTERNAL_VERSION_KEY = ("external",)

_OBJ_TAG = "\x00obj"
_ARR_TAG = "\x00arr"
_OPAQUE_TAG = "\x00opaque"


def canonical_probe_key(value):
    """A hashable canonical form of one probe-key value.

    Scalars pass through unchanged (so ``1``, ``1.0``, and ``True``
    collapse exactly as dict-key equality already collapses them in a
    hash-probe table); arrays and objects become tagged tuples with
    object fields sorted by field name, so two ADM values that compare
    equal canonicalize identically regardless of construction order.
    The tags are namespaced with a NUL prefix no real string key starts
    with, so a list value can never collide with a string key.

    This is the one shared normalization used by the enrichment memo,
    the :class:`~repro.ingestion.external.EnrichmentCoordinator`'s
    per-batch key dedup, and the keyless-record replay-dedup fallback.
    """
    if value is None or isinstance(value, (str, int, float, bool, bytes)):
        return value
    if isinstance(value, dict):
        return (
            _OBJ_TAG,
            tuple(
                (str(name), canonical_probe_key(item))
                for name, item in sorted(
                    value.items(), key=lambda pair: str(pair[0])
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return (_ARR_TAG, tuple(canonical_probe_key(item) for item in value))
    try:
        hash(value)
    except TypeError:
        return (_OPAQUE_TAG, repr(value))
    return value


class EnrichmentMemo(StateCache):
    """The cross-batch (L2) per-key enrichment memo.

    Identical mechanics to the StateCache — LRU by payload-estimated
    bytes, version-key-guarded lookups, wholesale ``clear`` on DDL — but
    its entries are per-key *results* (one correlated-subquery answer,
    one shaped probe-kernel row, one external enrichment value), not
    build-side tables.  Subclassing keeps the two caches behaviourally
    interchangeable while letting reports tell their counters apart —
    including under the multi-tenant memory governor, which resizes both
    kinds through the shared ``configure``/``mark_window`` surface.
    """

    __slots__ = ()

    kind = "memo"
