"""Figure 31: throughput (a) and speed-up (b) vs cluster size, complex UDFs.

Paper setup: 100k tweets, 16X batches, cluster sizes 6/12/18/24, for
Nearby Monuments, Naive Nearby Monuments (index disabled via a query
hint), Suspicious Names, Tweet Context, and Worrisome Tweets.  Expected
shapes:

* throughput improves with nodes, leveling off as per-job execution
  overhead eats the gains;
* Nearby Monuments speeds up worst — the index NLJ broadcasts every
  record to all nodes;
* Naive Nearby Monuments starts far below the indexed plan but *scales
  better* — its scan-based join is split across nodes.
"""

from repro.bench import BATCH_SIZES, USE_CASES, env_tweets, format_table

CASES = [
    "nearby_monuments",
    "naive_nearby_monuments",
    "suspicious_names",
    "tweet_context",
    "worrisome_tweets",
]
NODE_SIZES = [6, 12, 18, 24]
TWEETS = env_tweets(7000)
# the naive scan plan tests every monument for every tweet (in wall-clock
# 3-8x the others' cost per tweet); its simulated throughput is per-record
# dominated, so a shorter stream measures the same steady state, and the
# committed table was produced at this count
NAIVE_TWEETS = env_tweets(800)


def run_sweep(harness):
    throughput = {}
    for case in CASES:
        tweets = NAIVE_TWEETS if case == "naive_nearby_monuments" else TWEETS
        for nodes in NODE_SIZES:
            throughput[(case, nodes)] = harness.run_enrichment(
                case, tweets, nodes, batch_size=BATCH_SIZES["16X"],
                language="sqlpp",
            ).throughput
    return throughput


def test_fig31_complex_scaleout(harness, benchmark, emit):
    result = {}
    benchmark.pedantic(
        lambda: result.setdefault("tput", run_sweep(harness)),
        rounds=1, iterations=1,
    )
    throughput = result["tput"]

    tput_rows = [
        [USE_CASES[case].title] + [throughput[(case, n)] for n in NODE_SIZES]
        for case in CASES
    ]
    speedup_rows = [
        [USE_CASES[case].title]
        + [throughput[(case, n)] / throughput[(case, 6)] for n in NODE_SIZES]
        for case in CASES
    ]
    table = format_table(
        f"Figure 31a — {TWEETS} tweets, 16X batches, throughput "
        "(records/simulated second)",
        ["use case"] + [f"{n} nodes" for n in NODE_SIZES],
        tput_rows,
    )
    table += "\n\n" + format_table(
        "Figure 31b — speed-up relative to 6 nodes",
        ["use case"] + [f"{n} nodes" for n in NODE_SIZES],
        speedup_rows,
    )
    emit("fig31_complex_scaleout", table)

    for case in CASES:
        # more nodes help every complex case
        assert throughput[(case, 24)] > throughput[(case, 6)], case
    # indexed monuments >> naive monuments in absolute terms at 6 nodes
    assert (
        throughput[("nearby_monuments", 6)]
        > 2 * throughput[("naive_nearby_monuments", 6)]
    )
    # ...but the naive plan scales better (its scan divides across nodes;
    # the index plan broadcasts every probe)
    naive_speedup = (
        throughput[("naive_nearby_monuments", 24)]
        / throughput[("naive_nearby_monuments", 6)]
    )
    indexed_speedup = (
        throughput[("nearby_monuments", 24)] / throughput[("nearby_monuments", 6)]
    )
    assert naive_speedup > indexed_speedup
    # gains level off: 24 nodes is less than the ideal 4x over 6 nodes
    for case in CASES:
        assert throughput[(case, 24)] < 4.5 * throughput[(case, 6)], case


def test_fig31_partitioned_subbatch_parity(harness):
    """One complex-UDF configuration on the real scaled-out path.

    Runs Suspicious Names with 4 intake partitions, a 4-worker pool,
    and quarter-batch splits — the full partitioned pipeline — and
    checks it stores exactly what the single-lane run stores."""
    tweets = env_tweets(800)
    batch = BATCH_SIZES["16X"]
    single = harness.run_enrichment(
        "suspicious_names", tweets, 6, batch_size=batch, language="sqlpp"
    )
    scaled = harness.run_enrichment(
        "suspicious_names", tweets, 6, batch_size=batch, language="sqlpp",
        # the stream is shorter than one 16X batch, so split on a quarter
        # of the actual batch record count
        intake_partitions=4, max_subbatch_records=tweets // 4,
        computing_workers=4,
    )
    assert scaled.intake_partitions == 4
    assert scaled.subbatches_dispatched > 0
    assert scaled.records_stored == single.records_stored
    # the pool + splits may help; they must never hurt
    assert scaled.runtime.makespan_seconds <= single.runtime.makespan_seconds * 1.05
