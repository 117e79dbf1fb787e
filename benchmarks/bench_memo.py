"""Key-level enrichment-memo benchmark (key skew x update rate).

Sweeps the probe-key distribution (high skew vs. all-unique) and the
reference-update rate over a hash-join enrichment feed with the
cross-batch enrichment memo off and on, verifying:

* >= 2x simulated computing-cost win at high skew / update rate 0;
* *exact* 1.00x parity (and zero hits) when every probe key is unique;
* byte-identical stored outputs memo-on vs. memo-off at every sweep
  point, including a 4-worker computing pool and a 4-partition intake.

Output goes to ``BENCH_memo.json`` at the repo root (simulated numbers;
``benchmarks/results/`` holds the paper-figure tables only).

Usage::

    python benchmarks/bench_memo.py            # full run
    python benchmarks/bench_memo.py --smoke    # quick CI run

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
        default=REPO_ROOT / "BENCH_memo.json",
    )
    args = parser.parse_args(argv)

    ref_records = args.ref_records or (2000 if args.smoke else 20000)
    tweets = args.tweets or (600 if args.smoke else 3000)
    batch_size = args.batch_size or (60 if args.smoke else 100)
    # As in the state-cache bench, the smoke run's smaller reference
    # dataset charges its work at a higher scale so the per-batch build
    # and probe work stay the dominant cost the memo removes.
    work_scale = 100.0 if args.smoke else 30.0

    from repro.bench.memo import run_memo_sweep

    result = run_memo_sweep(
        ref_records=ref_records,
        tweets=tweets,
        batch_size=batch_size,
        work_scale=work_scale,
    )
    result["mode"] = "smoke" if args.smoke else "full"
    args.output.write_text(json.dumps(result, indent=2) + "\n")

    print(f"enrichment-memo benchmark -> {args.output}")
    for profile, block in result["profiles"].items():
        for rate, cell in block["rates"].items():
            print(
                f"  {profile:>10} rate {rate:>5}: "
                f"win {cell['computing_seconds_win']:.2f}x  "
                f"hits {cell['memo_on']['memo_hits']}  "
                f"misses {cell['memo_on']['memo_misses']}  "
                f"hashes_equal={cell['output_hashes_equal']}"
            )
    for shape, cell in result["shapes"].items():
        print(
            f"  {shape:>20}: win {cell['computing_seconds_win']:.2f}x  "
            f"hashes_equal={cell['output_hashes_equal']}"
        )
    for name, passed in result["checks"].items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    if not result["ok"]:
        print("enrichment-memo benchmark FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
