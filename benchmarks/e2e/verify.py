"""Untimed correctness checks on what the timed feeds stored.

Per feed: the report's stored count equals the records offered; the stored
primary keys are exactly the input's ids; and, for feeds whose reference
data did not change under them, a seeded sample is re-evaluated through the
tree-walking interpreter (``use_plans=False``, no state cache or memo — the
ROADMAP's oracle) and must serialize to the same bytes as the stored record.
A record that fails any check counts once into ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Set

from repro.adm.parser import parse_json, serialize
from repro.sqlpp.evaluator import EvaluationContext

from workloads import Bench, CallResult, FeedSpec

#: the issue's oracle sample at full size; scaled like the record counts
ORACLE_SAMPLE = 500


def _read_prefix(path: str, count: int) -> List[str]:
    lines: List[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if len(lines) >= count:
                break
            lines.append(line.rstrip("\n"))
    return lines


def _oracle_outputs(bench: Bench, spec: FeedSpec, records: List[dict]) -> List[List[str]]:
    """Each record's expected stored bytes, computed without the feed path."""
    system = bench.system
    if spec.java:
        # the Java UDF's own evaluate(), on a freshly initialized instance
        instance = system.registry.get_java("udflib", spec.java).instantiate()
        return [[serialize(instance.evaluate(record))] for record in records]
    ctx = EvaluationContext(
        system.catalog, functions=system.registry, use_plans=False
    )
    ctx.cluster_nodes = system.cluster.num_nodes
    out = []
    for record in records:
        result = system.registry.invoke(spec.function, [record], ctx)
        rows = result if isinstance(result, list) else [result]
        out.append([serialize(row) for row in rows])
    return out


def verify(
    bench: Bench,
    results: List[CallResult],
    seed: int,
    oracle: bool,
) -> Dict[str, object]:
    """Check every feed of the workload; returns counts and the digest."""
    specs = {feed.name: feed for call in bench.calls for feed in call.feeds}
    most = max(bench.records_of(spec) for spec in specs.values())
    lines = _read_prefix(bench.input_path, most)
    ids = [json.loads(line)["id"] for line in lines]
    datatype = bench.system.types["TweetType"]

    digest = hashlib.sha256()
    attempted = 0
    failed = 0
    per_feed: Dict[str, Dict[str, int]] = {}
    for result in results:
        for name, report in result.reports.items():
            spec = specs[name]
            offered = bench.records_of(spec)
            stored = {
                record["id"]: serialize(record)
                for record in bench.system.catalog[spec.dataset].scan()
            }
            bad: Set[object] = set(ids[:offered]).symmetric_difference(stored)
            if report.records_stored != offered:
                # the report disagrees with the dataset: trust neither
                bad.update(ids[:offered])
            sampled = 0
            if oracle and spec.udf and spec.update is None:
                size = min(offered, max(1, round(ORACLE_SAMPLE * bench.scale)))
                picks = sorted(random.Random(seed).sample(range(offered), size))
                parsed = [parse_json(lines[i], datatype) for i in picks]
                expected = _oracle_outputs(bench, spec, parsed)
                for i, rows in zip(picks, expected):
                    if rows != [stored.get(ids[i])]:
                        bad.add(ids[i])
                sampled = size
            digest.update(f"#{name}\n".encode())
            for key in sorted(stored):
                digest.update(stored[key].encode())
                digest.update(b"\n")
            attempted += offered
            failed += min(len(bad), offered)
            per_feed[name] = {
                "offered": offered,
                "stored": report.records_stored,
                "failed": len(bad),
                "oracle_sample": sampled,
            }
    return {
        "attempted": attempted,
        "failed": failed,
        "output_digest": digest.hexdigest(),
        "feeds": per_feed,
    }
