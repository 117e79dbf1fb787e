"""What several suites do the same way: input streams, the compute-bound
scenario, digests, ratios."""

from __future__ import annotations

import hashlib
import json
from typing import Callable, List

from repro.core.system import AsterixLite
from repro.ingestion.adapter import GeneratorAdapter


def raw_records(count: int, record: Callable[[int], dict]) -> List[str]:
    """The deterministic raw feed: ``record(i)`` as one JSON line per ``i``."""
    return [json.dumps(record(i)) for i in range(count)]


def intake_adapters(raw: List[str], partitions: int):
    """``raw`` as ``start_feed``'s adapter argument: one adapter, or a
    round-robin pre-split (partition p streams records p, p+N, ... — the
    union is exactly the single-adapter stream)."""
    if partitions <= 1:
        return GeneratorAdapter(raw)
    return [GeneratorAdapter(raw[p::partitions]) for p in range(partitions)]


def heavy_check_system(words: int) -> AsterixLite:
    """A 4-node system with the paper's compute-bound enrichment: ``TweetType``
    and ``heavyCheck``, the sensitive-words EXISTS join over ``words`` words."""
    system = AsterixLite(num_nodes=4)
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE TYPE WordType AS OPEN { wid: int64 };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        """
    )
    system.insert(
        "SensitiveWords",
        [{"wid": i, "country": "US", "word": f"w{i}"} for i in range(words)],
    )
    system.execute(
        """
        CREATE FUNCTION heavyCheck(tweet) {
            LET flag = CASE
                EXISTS(SELECT w FROM SensitiveWords w
                       WHERE tweet.country = w.country
                         AND contains(tweet.text, w.word))
                WHEN true THEN "Red" ELSE "Green" END
            SELECT tweet.*, flag
        };
        """
    )
    return system


def sha256_json(value) -> str:
    """Digest of a stored-output summary (byte-identity checks compare these)."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def ratio(base: float, other: float) -> float:
    """``base / other`` as a speedup; 0.0 when ``other`` did no work."""
    return base / other if other > 0 else 0.0
