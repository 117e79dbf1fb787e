"""Perf observatory: the one runner of every simulated-cost suite.

Runs the selected ``benchmarks/suites`` modules (updates, elastic, chaos,
scale-out, external, memo, multitenant) in this process, writes each
result to ``BENCH_<suite>.json``, prints its trajectory summary and its
named checks, and appends a per-PR row to ``BENCH_TRAJECTORY.json`` — one
row per git head, so the file reads as the repo's performance history.
Wall-clock throughput is not measured here: that is
``benchmarks/e2e`` (``BENCHMARK.json``).  Rows recorded before the
``wallclock`` suite was retired keep its numbers; nothing reads them.

Usage::

    python benchmarks/bench_all.py                  # full run, all suites
    python benchmarks/bench_all.py --smoke          # quick CI run
    python benchmarks/bench_all.py --suites memo,updates
    python benchmarks/bench_all.py --smoke --baseline BENCH_TRAJECTORY.json

A full run writes the committed ``BENCH_<suite>.json`` files and
``BENCH_TRAJECTORY.json`` at the repo root; a ``--smoke`` run writes
both under the ignored ``benchmarks/out/``.  ``--output`` names another
trajectory file; ``--baseline`` reads the one it is given.

Exit is non-zero if any suite fails one of its checks, or — with
``--baseline`` — if a gated simulated speedup ratio (the memo's rate-0
win, the fabric's skewed-fleet win) dropped more than
``--baseline-tolerance`` (default 20%) below the last committed
trajectory row.  Speedup *ratios* are compared, never absolute rec/s:
ratios survive workload-size changes, throughput does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from suites import SUITES  # noqa: E402  (needs src/ on the path)

SMOKE_DIR = REPO_ROOT / "benchmarks" / "out"


def _checks(result: dict) -> dict:
    """Every named verdict of a result: its own ``checks`` and, for the
    scenario suites (chaos, external), each scenario's and the
    cross-scenario ones."""
    checks = dict(result.get("checks", {}))
    for name, scenario in result.get("scenarios", {}).items():
        for check, passed in scenario["checks"].items():
            checks[f"{name}: {check}"] = passed
    checks.update(result.get("cross_scenario_checks", {}))
    return checks


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _git_label() -> str:
    """Short hash of HEAD, with a ``+`` when tracked files differ from it:
    a row measured before its commit exists names the parent it sits on."""
    try:
        head = _git("rev-parse", "--short", "HEAD") or "unknown"
        dirty = _git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + "+" if dirty else head


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every suite at its small CI size",
    )
    parser.add_argument(
        "--suites",
        type=str,
        default=",".join(SUITES),
        help="comma-separated subset of: " + ", ".join(SUITES),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="trajectory file to append this run's row to (default: "
        "BENCH_TRAJECTORY.json beside the run's BENCH_<suite>.json files)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="previous BENCH_TRAJECTORY.json to gate the simulated "
        "speedup ratios against (fail on regression beyond the tolerance)",
    )
    parser.add_argument(
        "--baseline-tolerance",
        type=float,
        default=0.20,
        help="allowed fractional drop in the gated speedup ratios vs the "
        "last baseline row",
    )
    args = parser.parse_args(argv)

    selected = [name.strip() for name in args.suites.split(",") if name.strip()]
    unknown = [name for name in selected if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")

    # Snapshot the baseline row before running: --output may point at the
    # committed BENCH_TRAJECTORY.json, which this run rewrites.  Only rows
    # recorded at the same workload size are comparable, so the gate uses
    # the most recent row whose mode matches this run's.
    mode = "smoke" if args.smoke else "full"
    label = _git_label()  # before a full run rewrites the BENCH_*.json
    baseline_row = None
    if args.baseline is not None and args.baseline.exists():
        rows = json.loads(args.baseline.read_text()).get("rows", [])
        matching = [r for r in rows if r.get("mode") == mode]
        if matching:
            baseline_row = matching[-1]

    out_dir = SMOKE_DIR if args.smoke else REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.output is None:
        args.output = out_dir / "BENCH_TRAJECTORY.json"
    suites: dict = {}
    for name in selected:
        print(f"=== {name} ({mode})")
        result = SUITES[name].run(args.smoke)
        result["mode"] = mode
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        suites[name] = SUITES[name].summarize(result)
        parts = ", ".join(
            f"{key} {value:.2f}" if isinstance(value, float) else f"{key} {value}"
            for key, value in suites[name].items()
        )
        print(f"  {parts} -> {path}")
        for check, passed in _checks(result).items():
            print(f"  [{'PASS' if passed else 'FAIL'}] {check}")
        if not result["ok"]:
            print(f"FAIL: suite {name} failed a check", file=sys.stderr)
            return 1

    row = {
        "label": label,
        "mode": mode,
        "suites": suites,
    }

    trajectory = {"benchmark": "per-PR performance trajectory", "rows": []}
    if args.output.exists():
        trajectory = json.loads(args.output.read_text())
    rows = trajectory.setdefault("rows", [])
    # One row per (git head, mode): re-running on the same commit replaces
    # the old row instead of appending a duplicate.
    rows[:] = [
        r
        for r in rows
        if (r.get("label"), r.get("mode")) != (row["label"], row["mode"])
    ]
    rows.append(row)
    args.output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"wrote {args.output} ({len(rows)} row(s), head {row['label']})")

    if baseline_row is not None:
        for suite_name, current in suites.items():
            recorded = baseline_row.get("suites", {}).get(suite_name, {})
            for metric in getattr(SUITES[suite_name], "GATED_RATIOS", ()):
                recorded_value = recorded.get(metric)
                if not recorded_value:
                    continue  # baseline predates this metric
                floor = recorded_value * (1.0 - args.baseline_tolerance)
                print(
                    f"  baseline {suite_name} {metric} {recorded_value:.2f}x "
                    f"(floor {floor:.2f}x at {args.baseline_tolerance:.0%} "
                    f"tolerance) -> current {current[metric]:.2f}x"
                )
                if current[metric] < floor:
                    print(
                        f"FAIL: {suite_name} {metric} regressed more than "
                        f"{args.baseline_tolerance:.0%} vs "
                        f"{baseline_row.get('label', '?')} in {args.baseline}",
                        file=sys.stderr,
                    )
                    return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
