"""Quickstart: the paper's user model in five minutes.

Creates a type and datasets (Figure 1), inserts records (Figure 3), runs
analytical queries (Figure 2's group-by), defines a feed with DDL
(Figure 4), and streams data through it.

Run:  python examples/quickstart.py
"""

import json

from repro import AsterixLite
from repro.ingestion import GeneratorAdapter


def main() -> None:
    system = AsterixLite(num_nodes=3)

    # --- DDL: Figure 1 --------------------------------------------------
    system.execute(
        """
        CREATE TYPE TweetType AS OPEN {
            id: int64,
            text: string
        };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        """
    )

    # --- DML: Figure 3 --------------------------------------------------
    system.execute(
        'INSERT INTO Tweets ([{"id": 0, "text": "Let there be light"}])'
    )
    print("inserted:", system.query("SELECT VALUE t FROM Tweets t"))

    # --- a batch of richer tweets, then Figure 2's analytical query ------
    system.insert(
        "Tweets",
        [
            {"id": i, "text": f"tweet number {i}", "country": f"C{i % 4}"}
            for i in range(1, 101)
        ],
    )
    counts = system.query(
        """
        SELECT t.country AS country, count(*) AS num
        FROM Tweets t
        GROUP BY t.country
        ORDER BY num DESC, country
        """
    )
    print("tweets per country:", counts)

    # --- feeds: Figure 4 --------------------------------------------------
    system.execute(
        """
        CREATE FEED TweetFeed WITH {
            "type-name"   : "TweetType",
            "adapter-name": "socket_adapter",
            "format"      : "JSON"
        };
        CONNECT FEED TweetFeed TO DATASET Tweets;
        """
    )
    live_tweets = (
        json.dumps({"id": 1000 + i, "text": f"live tweet {i}"})
        for i in range(500)
    )
    report = system.start_feed(
        "TweetFeed", adapter=GeneratorAdapter(live_tweets), batch_size=50
    )
    print(
        f"feed ingested {report.records_stored} records in "
        f"{report.num_computing_jobs} computing jobs "
        f"({report.throughput:,.0f} records/simulated-second)"
    )
    print("total tweets stored:", len(system.catalog["Tweets"]))


if __name__ == "__main__":
    main()
