"""Machine-speed calibration for wall-clock measurements.

The end-to-end benchmark (``benchmarks/e2e``) is the repo's wall-clock
record; it stamps each result with this score so numbers from different
hosts can be told apart.
"""

from __future__ import annotations

import time


def calibration_score(repeats: int = 3, loops: int = 200_000) -> float:
    """Machine-speed score: pure-Python ops/sec on a fixed loop.

    Interpreter throughput is machine-dependent; dividing a rec/s figure
    by this score (measured on the same machine, at the same time, with
    the same Python) yields a throughput that is comparable across hosts.
    The loop mixes dict access, attribute-free arithmetic, and branching,
    approximating the interpreter's instruction mix.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        acc = 0
        table = {"a": 1, "b": 2}
        start = time.perf_counter()
        for i in range(loops):
            acc += table["a"] + (i & 7)
            table["b"] = acc & 1023
            if table["b"] > 512:
                acc -= 1
        best = min(best, time.perf_counter() - start)
    return loops / best
