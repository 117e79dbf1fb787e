"""Update-rate sensitivity benchmark for the enrichment-state cache.

Sweeps the reference-update rate (0, 1, 10, 100 updates per simulated
second) over a hash-join enrichment feed with the cross-batch state
cache off and on (§7.3 sensitivity curve), verifying:

* >= 2x simulated computing-cost win at rate 0 (build-dominated UDF);
* graceful degradation to baseline-equivalent throughput as the update
  rate grows;
* byte-identical stored outputs cache-on vs. cache-off at every rate.

Output goes to ``BENCH_updates.json`` at the repo root (simulated
numbers; ``benchmarks/results/`` holds the paper-figure tables only).

Usage::

    python benchmarks/bench_updates.py            # full run
    python benchmarks/bench_updates.py --smoke    # quick CI run

Exits non-zero if any invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI (fewer records)",
    )
    parser.add_argument("--ref-records", type=int, default=None)
    parser.add_argument("--tweets", type=int, default=None)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_updates.json",
    )
    args = parser.parse_args(argv)

    ref_records = args.ref_records or (2000 if args.smoke else 20000)
    tweets = args.tweets or (600 if args.smoke else 3000)
    batch_size = args.batch_size or (60 if args.smoke else 100)
    # The smoke run's smaller reference dataset charges its work at a
    # higher scale so the build stays dominated by reference cardinality
    # (the regime the cache targets), like the figure benches do.
    work_scale = 100.0 if args.smoke else 30.0

    from repro.bench.updates import run_update_sweep

    result = run_update_sweep(
        ref_records=ref_records,
        tweets=tweets,
        batch_size=batch_size,
        work_scale=work_scale,
    )
    result["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"update-rate benchmark -> {args.output}")
    for rate, cell in result["rates"].items():
        print(
            f"  rate {rate:>6}: win {cell['computing_seconds_win']:.2f}x  "
            f"throughput on/off {cell['throughput_ratio_on_vs_off']:.3f}  "
            f"hits {cell['cache_on']['state_cache_hits']}  "
            f"hashes_equal={cell['output_hashes_equal']}"
        )
    for name, passed in result["checks"].items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    if not result["ok"]:
        print("update-rate benchmark FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
