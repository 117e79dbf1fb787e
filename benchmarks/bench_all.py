"""Perf observatory: run every BENCH_* suite through one harness.

Runs each standalone simulated-cost benchmark script (updates, elastic,
chaos, scale-out, external, memo, multitenant) as a subprocess, collects
the key machine-comparable numbers from the ``BENCH_*.json`` each one
writes, and appends a per-PR row to ``BENCH_TRAJECTORY.json`` at the repo
root — one row per git head, so the file reads as the repo's performance
history.  Wall-clock throughput is not measured here: that is
``benchmarks/e2e`` (``BENCHMARK.json``).  Rows recorded before the
``wallclock`` suite was retired keep its numbers; nothing reads them.

Usage::

    python benchmarks/bench_all.py                  # full run, all suites
    python benchmarks/bench_all.py --smoke          # quick CI run
    python benchmarks/bench_all.py --suites memo,updates
    python benchmarks/bench_all.py --smoke --baseline BENCH_TRAJECTORY.json

Exit is non-zero if any suite fails its own invariants (each script
already gates itself), or — with ``--baseline`` — if a gated simulated
speedup ratio (the memo's rate-0 win, the fabric's skewed-fleet win)
dropped more than ``--baseline-tolerance`` (default 20%) below the last
committed trajectory row.  Speedup *ratios* are compared, never absolute
rec/s: ratios survive workload-size changes, throughput does not.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def _updates_summary(result: dict) -> dict:
    return {"sim_win_rate0": result["wins"][0], "ok": result["ok"]}


def _elastic_summary(result: dict) -> dict:
    return {
        "speedup_at_max_workers": result["speedup_at_max_workers"],
        "elastic_speedup": result["elastic_speedup"],
        "ok": result["ok"],
    }


def _chaos_summary(result: dict) -> dict:
    return {"scenarios": len(result["scenarios"]), "ok": result["ok"]}


def _external_summary(result: dict) -> dict:
    return {
        "scenarios": len(result["scenarios"]),
        "hard_down_completeness": result["scenarios"]["hard_down"][
            "enrichment_completeness"
        ],
        "ok": result["ok"],
    }


def _memo_summary(result: dict) -> dict:
    high = result["profiles"]["high_skew"]["rates"]
    rate0 = high["0.0"]
    return {
        "sim_win_rate0": rate0["computing_seconds_win"],
        "memo_hits_rate0": rate0["memo_on"]["memo_hits"],
        "parity_all_unique": result["checks"]["exact_parity_at_all_unique_keys"],
        "ok": result["ok"],
    }


def _multitenant_summary(result: dict) -> dict:
    return {
        "skewed_speedup": result["skewed_speedup"],
        "uniform_speedup": result["uniform_speedup"],
        "recalls_issued": result["skewed"]["fabric"]["fabric_summary"][
            "recalls_issued"
        ],
        "ok": result["ok"],
    }


def _scaleout_summary(result: dict) -> dict:
    return {
        "intake_speedup_at_max_partitions": result[
            "intake_speedup_at_max_partitions"
        ],
        "subbatch_speedup_at_quarter_splits": result[
            "subbatch_speedup_at_quarter_splits"
        ],
        "ok": result["ok"],
    }


#: suite name -> (script, output json, summary extractor)
SUITES = {
    "updates": ("bench_updates.py", "BENCH_updates.json", _updates_summary),
    "elastic": ("bench_elastic.py", "BENCH_elastic.json", _elastic_summary),
    "chaos": ("bench_chaos.py", "BENCH_chaos.json", _chaos_summary),
    "scaleout": ("bench_scaleout.py", "BENCH_scaleout.json", _scaleout_summary),
    "external": ("bench_external.py", "BENCH_external.json", _external_summary),
    "memo": ("bench_memo.py", "BENCH_memo.json", _memo_summary),
    "multitenant": (
        "bench_multitenant.py",
        "BENCH_multitenant.json",
        _multitenant_summary,
    ),
}

#: suite -> speedup-ratio metrics the --baseline gate compares (ratios
#: survive machine and workload-size changes; absolute numbers do not)
GATED_RATIOS = {
    "memo": ("sim_win_rate0",),
    "multitenant": ("skewed_speedup",),
}


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
        help="pass --smoke to every suite (small fast CI run)",
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
        default=REPO_ROOT / "BENCH_TRAJECTORY.json",
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
    label = _git_label()  # before the suites rewrite their BENCH_*.json
    baseline_row = None
    if args.baseline is not None and args.baseline.exists():
        rows = json.loads(args.baseline.read_text()).get("rows", [])
        matching = [r for r in rows if r.get("mode") == mode]
        if matching:
            baseline_row = matching[-1]

    suites: dict = {}
    for name in selected:
        script, output_json, summarize = SUITES[name]
        cmd = [sys.executable, str(BENCH_DIR / script)]
        if args.smoke:
            cmd.append("--smoke")
        print(f"=== {name}: {' '.join(cmd[1:])}")
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            print(f"FAIL: suite {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads((REPO_ROOT / output_json).read_text())
        suites[name] = summarize(result)

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
    for name, summary in suites.items():
        parts = ", ".join(
            f"{key} {value:.2f}" if isinstance(value, float) else f"{key} {value}"
            for key, value in summary.items()
        )
        print(f"  {name:10s} {parts}")

    if baseline_row is not None:
        for suite_name, metrics in GATED_RATIOS.items():
            if suite_name not in suites:
                continue
            recorded = baseline_row.get("suites", {}).get(suite_name, {})
            current = suites[suite_name]
            for metric in metrics:
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
