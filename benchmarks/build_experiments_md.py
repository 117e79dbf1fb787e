"""Assemble EXPERIMENTS.md from benchmarks/results/ tables + commentary.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/build_experiments_md.py
"""
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"


def table(name: str) -> str:
    return "```\n" + (RESULTS / f"{name}.txt").read_text().strip() + "\n```"


DOC_TEMPLATE = """# EXPERIMENTS — paper vs. measured

Every figure of the paper's evaluation (Section 7) is regenerated by one
benchmark file; `pytest benchmarks/ --benchmark-only` reruns them all and
rewrites the tables below into `benchmarks/results/`; this document is
rebuilt with `python benchmarks/build_experiments_md.py`.

**How to read the numbers.**  The reproduction runs on a simulated
cluster with a calibrated cost model (see DESIGN.md sections 3 and 7):
operators execute their real logic, but time is charged in simulated
seconds.  Reference datasets are generated at 1/100 of the paper's
cardinalities and their access work is charged scaled back up, so
throughputs and refresh periods land in the paper's *regime*; we compare
**shapes** — who wins, by roughly what factor, where curves bend — not
absolute numbers.  Tweet volumes per run are reduced (documented per
figure); `REPRO_BENCH_SCALE` / `REPRO_BENCH_TWEETS` restore larger runs.

---

## Figure 24 — basic ingestion speed-up (no UDF), 1-24 nodes

Paper: 10M tweets; static ingestion flat at ~13k records/s (parsing
bottlenecked on the single intake node), balanced static growing to
~150k at 24 nodes, dynamic (single intake) rising then saturating,
larger batches faster, balanced dynamic tracking balanced static on
small clusters but falling behind as per-job overhead grows; refresh
rates 68/27/10 jobs/s at 1X/4X/16X on 24 nodes.

Measured:

{fig24}

**Verdict: shape reproduced.**  Static flat (~8-11k vs paper's ~13k);
balanced static reaches ~180k at 24 nodes (paper ~150k); dynamic
saturates ~38k on the intake node; 16X >= 4X >= 1X everywhere; balanced
dynamic ends below balanced static at 24 nodes — the §7.1 overhead
crossover.  Our refresh-rate ratio 1X:4X:16X ≈ 9:3:1 matches the
paper's 6.8:2.7:1 (absolute rates differ with the shorter stream).

---

## Figure 25 — enrichment throughput with UDFs 1-5 (6 nodes, log scale)

Paper: Static Java beats Dynamic everywhere except Nearby Monuments,
where the SQL++ R-tree plan wins; throughput grows with batch size, much
less for Fuzzy Suspects / Nearby Monuments whose per-record computation
dominates.

Measured:

{fig25}

**Verdict: shape reproduced.**  Static Java tops the three hash-join
cases (stale state for free); Dynamic SQL++ beats Dynamic Java at small
batches because Java re-reads its node-local resource file in full on
*every node* per batch, while the SQL++ hash build is partitioned;
Nearby Monuments is the one case where SQL++ (index NLJ) beats Java
(linear scan), as in the paper.

---

## Figure 26 — refresh periods (Dynamic SQL++, 6 nodes)

Paper (1X / 4X / 16X seconds): Safety Rating 1.02/0.52/0.66, Religious
Population 1.20/0.65/0.74, Largest Religions 1.29/0.65/0.82, Fuzzy
Suspects 21.97/1.71/5.72, Nearby Monuments 22.65/1.81/6.36.

Measured:

{fig26}

**Verdict: partially reproduced.**  The hash-join cases refresh in
roughly half-second periods (paper ~0.5-1.3s) and stay nearly flat with
batch size (state-rebuild dominated); the computation-dominated cases
take several times longer per batch and grow with batch size.  The
paper's *non-monotone* 1X values (Fuzzy/Monuments 1X slower than 4X by
12x) are not reproduced: a clean per-batch cost model cannot make a
batch 4x smaller take 12x longer — we read those points as measurement
artifacts (queueing at very high job rates) and document the deviation.

---

## Figure 27 — throughput under concurrent reference updates (§7.3)

Paper: every case drops when updates begin (the LSM in-memory component
activates); throughput then declines gradually with rate; Fuzzy Suspects
(smallest reference data) least affected; Nearby Monuments most affected
at high rates — 24% of its no-update throughput at 400/s vs 52% for
Safety Rating.

Measured:

{fig27}

**Verdict: shape reproduced.**  Monotone decline with rate for every
sizable-reference case; Nearby Monuments degrades the most (its index
probes pay the memtable penalty on every access, not once per batch);
Fuzzy Suspects is nearly flat.  Our magnitudes are milder than the
paper's (our runs are shorter, so update pressure ramps rather than
saturating).

---

## Figure 28 — reference-data scale-out (1X-4X data on 6-24 nodes)

Paper: throughput drops only slightly as data and cluster grow together
— "the new ingestion framework scaled well with the reference data
size."

Measured:

{fig28}

**Verdict: reproduced.**  Within a few percent of flat for the hash
cases (per-node build work constant: 2X data / 2X nodes), slight decline
from growing per-job overhead — the paper's exact observation.

These sweeps scale the *cluster*; intake itself now scales too: the
table's single-adapter runs are cross-checked by
`test_fig28_partitioned_intake_parity`, which re-runs a Figure 28
configuration through four real intake partitions (four adapter lanes,
four intake actors) and asserts identical stored output and
no-worse throughput, so the scale-out numbers no longer rest on a
single-lane intake path.

---

## Figure 29 — complex UDF comparison (use cases 5-8, 6 nodes)

Paper: these UDFs run at hundreds of records/second; Tweet Context
(multiple reference-to-reference spatial joins) benefits most from
larger batches; the sequential-join cases gain less.

Measured:

{fig29}

**Verdict: partially reproduced.**  Tweet Context is the slowest case
(most complex), and batching never hurts.  Deviation: in our physical
plans the biggest batching beneficiary is Suspicious Names — its
1M-row equality hash table is rebuilt per batch — while Tweet Context's
subqueries run through live R-tree probes per record rather than
per-batch reference joins, so batching gains it little.  The paper's
compiled plans evidently materialize Tweet Context's reference joins per
batch; our optimizer makes a different (also valid) plan choice.

---

## Figure 30 — speed-up, 24 vs 6 nodes, all eight UDFs

Paper: the cheap hash-join UDFs speed up poorly (their refresh periods
are already small; larger clusters add per-job overhead); Nearby
Monuments barely speeds up (index probes are broadcast to all nodes);
the computation-heavy UDFs speed up well, Tweet Context best
(super-ideal in the paper thanks to added memory).

Measured:

{fig30}

**Verdict: shape reproduced.**  Hash-join cases and the broadcast-
probing monuments case land well under 2x; Fuzzy Suspects and Tweet
Context scale past 2x; larger batches speed up at least as well as
smaller ones.  (We do not model the paper's memory effect that pushed
Tweet Context past ideal.)

---

## Figure 31 — throughput and speed-up vs cluster size, complex UDFs

Paper: throughput improves with nodes and levels off; indexed Nearby
Monuments speeds up worst (broadcast); Naive Nearby Monuments starts far
lower but scales almost linearly as its scan splits across nodes.

Measured:

{fig31}

**Verdict: reproduced.**  The indexed plan starts ~15x faster than the
naive plan but plateaus; the naive plan scales near-linearly; the other
complex UDFs land in between and level off as cluster overhead grows.

As with Figure 28, the table's runs are cross-checked against the real
partitioned pipeline: `test_fig31_partitioned_subbatch_parity` re-runs
Suspicious Names with 4 intake partitions, a 4-worker pool, and
quarter-batch sub-splits and asserts byte-identical storage and
no-worse makespan.  The `scaleout` suite (`python
benchmarks/bench_all.py --suites scaleout`) measures the partitioned
path's own speedups (>=1.8x at 4 intake partitions on an
intake-bound feed, >=1.5x from sub-batch splits on one oversized batch)
plus the durable kill/resume cycle, writing `BENCH_scaleout.json`.

---

## Section 7.1 text — refresh rates

Paper: 68 / 27 / 10 computing jobs per second at 1X / 4X / 16X batches
on 24 nodes.  Measured (printed with Figure 24's table): same ordering
and roughly 3:1 ratios per 4x batch-size step; absolute rates are lower
because the scaled-down stream amortizes less per run.

## Section 7.3 text — degradation ratios at 400 updates/s

Paper: Nearby Monuments retains 24% of its no-update throughput, Safety
Rating 52%.  Measured (Figure 27's ratio table): Nearby Monuments is the
most-degraded case and the scan-once cases degrade about half as much,
at milder absolute ratios (see the Figure 27 verdict).

Beyond the paper, the `updates` suite (`python benchmarks/bench_all.py
--suites updates`) sweeps the update rate with the cross-batch state
cache off and on (`BENCH_updates.json`): a
>=2x win in *simulated* computing cost at rate 0, degrading to parity at
100 updates/s, stored bytes identical at every rate.  Neither it nor the
`memo` suite reads the wall clock any more.  The cache is modeled
reuse; the scan and hash build it saves in the model are shared
physically by `Dataset.snapshot()` whether the cache is on or off
(DESIGN.md §8.2), so on the wall clock the cache-on run has only its own
bookkeeping left to show.  That path is measured end to end instead: the
`enrich_updates` workload of `BENCHMARK.json` runs `upd_cached` with
both `state_cache_bytes` and `enrichment_memo_bytes` granted, and its
`records_per_s` may not fall.

---

## Ablations (design choices the paper calls out)

{ablation_predeploy}

{ablation_decoupling}

{ablation_models}

{ablation_holder_capacity}

Predeployed invocation beats recompile-per-batch (§5.1); decoupled
computing/storage beats the coupled insert job (§5.2); Model 1
per-record < Model 2 per-batch < Model 3 stream in throughput with the
inverse freshness ordering (§4.3), and Model 3 over a spilling build
side raises `StreamingJoinError` (§4.3.4 case 2); bounded intake holders
never lose records under backpressure (§5.3).

---

## Reproduction summary

| Experiment | Status |
|---|---|
| Fig. 24 basic ingestion | shape reproduced (all six series) |
| Fig. 25 UDF enrichment | shape reproduced |
| Fig. 26 refresh periods | partially (monotone component; paper's non-monotone 1X spikes not reproduced) |
| Fig. 27 update rates | shape reproduced (milder magnitudes) |
| Fig. 28 reference scale-out | reproduced |
| Fig. 29 complex UDFs | partially (Tweet Context slowest; batching winner differs by plan choice) |
| Fig. 30 speed-up 24v6 | shape reproduced |
| Fig. 31 complex scale-out | reproduced |
| §7.1 refresh rates | ratios reproduced |
| §7.3 degradation ratios | ordering reproduced |
"""


def main() -> None:
    doc = DOC_TEMPLATE.format(
        fig24=table("fig24_basic_ingestion"),
        fig25=table("fig25_udf_enrichment"),
        fig26=table("fig26_refresh_periods"),
        fig27=table("fig27_update_rates"),
        fig28=table("fig28_ref_scaleout"),
        fig29=table("fig29_complexity"),
        fig30=table("fig30_speedup"),
        fig31=table("fig31_complex_scaleout"),
        ablation_predeploy=table("ablation_predeploy"),
        ablation_decoupling=table("ablation_decoupling"),
        ablation_models=table("ablation_models"),
        ablation_holder_capacity=table("ablation_holder_capacity"),
    )
    (ROOT / "EXPERIMENTS.md").write_text(doc)
    print(f"EXPERIMENTS.md written ({len(doc)} chars)")


if __name__ == "__main__":
    main()
