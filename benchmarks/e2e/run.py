#!/usr/bin/env python3
"""End-to-end wall-clock feed benchmark with per-layer attribution.

    python3 benchmarks/e2e/run.py --workload enrich_hash --seed 7 --seconds 8 --trace 0

runs one workload the way ``BENCHMARK.json`` declares it and prints, as the
last line of stdout, ``{"correct", "attempted", "failed", "metrics"}`` with
every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  Without ``--workload`` all five run one after another.

A run is a sequence of *rounds*.  Each round is a fresh child interpreter
(``child.py``) that sets the system up, runs the workload's feeds once over
a fixed number of records, and verifies what was stored; there are at least
two rounds, and more until their timed wall seconds add up to ``--seconds``,
and the run reports the median round.  Times are *steady seconds*
(``steady.py``): wall seconds with the shared host's changing speed divided
out.  Metric names, units and bounds are read from ``BENCHMARK.json``.

Other modes: ``--runs R`` repeats the whole run and reports median/min/max
(``--out FILE`` saves it); ``--compare A.json B.json`` checks two saved
results against the bounds; ``--smoke`` runs every workload once at 1/50 size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from steady import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 150
MAX_ROUNDS = 6


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


# --------------------------------------------------------------------- rounds


def generate_input(workload: str, seed: int, scale: float, directory: str):
    """Write the workload's tweets; returns (path, sha256, records)."""
    import workloads

    count = workloads.input_records(workload, scale)
    generator = workloads.paper_workload(seed).tweet_generator
    path = os.path.join(directory, "input.jsonl")
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for raw in generator.raw_json(count):
            line = raw.encode("utf-8") + b"\n"
            digest.update(line)
            handle.write(line)
    return path, digest.hexdigest(), count


def run_round(
    workload: str, input_path: str, seed: int, scale: float,
    traced: bool, oracle: bool,
) -> dict:
    """One fresh child interpreter; returns the JSON it printed."""
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--input", input_path,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--trace", str(int(traced)),
        "--oracle", str(int(oracle)),
        "--trace-out", os.path.join(OUT, workload),
        "--spawned-at", repr(monotonic()),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    done = subprocess.run(
        command, env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: child exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    workload: str, seed: int, seconds: float, scale: float, trace: bool
) -> dict:
    """Rounds until ``seconds`` of timed work; returns the aggregated run."""
    directory = os.path.join(OUT, f"tmp-{os.getpid()}-{workload}")
    os.makedirs(directory, exist_ok=True)
    try:
        input_path, input_sha256, _ = generate_input(
            workload, seed, scale, directory
        )
        rounds: List[dict] = []
        # a median wants two rounds, and a traced run one of each kind
        least = 1 if seconds <= 0 and not trace else 2
        while len(rounds) < MAX_ROUNDS and (
            len(rounds) < least
            or sum(r["timed_wall_s"] for r in rounds) < seconds
        ):
            rounds.append(
                run_round(
                    workload, input_path, seed, scale,
                    traced=trace and len(rounds) % 2 == 1,
                    # later rounds are checked by their digest equalling
                    # the first round's, which the oracle vouched for
                    oracle=not rounds,
                )
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return aggregate(workload, rounds, input_sha256)


def _median(rounds: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def aggregate(workload: str, rounds: List[dict], input_sha256: str) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    first = rounds[0]
    problems = []
    for r in rounds[1:]:
        if r["output_digest"] != first["output_digest"]:
            problems.append("rounds stored different bytes")
        if r["report"] != first["report"]:
            problems.append("report counts differ between rounds")
    # per-call wall seconds come from untraced rounds, self times from traced
    layers = {
        name: statistics.median(r["layers"][name] for r in plain)
        for name in first["layers"]
    }
    if traced:
        for name in traced[0]["layers"]:
            if name not in layers:
                layers[name] = statistics.median(
                    r["layers"][name] for r in traced
                )
        layers["trace.overhead_ratio"] = _median(traced, "timed_s") / _median(
            plain, "timed_s"
        )
        if abs(layers["trace.self_coverage"] - 1.0) > 0.01:
            problems.append("span self times do not sum to the root span")
    failed = sum(r["failed"] for r in rounds)
    return {
        "workload": workload,
        "rounds": len(rounds),
        "timed_s": [r["timed_s"] for r in rounds],
        "timed_wall_s": [r["timed_wall_s"] for r in rounds],
        "machine_slowdown": _median(rounds, "machine_slowdown"),
        "correct": failed == 0 and not problems,
        "problems": sorted(set(problems)),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "input_sha256": input_sha256,
        "output_digest": first["output_digest"],
        "feeds": first["feeds"],
        "end_to_end": {
            "records_per_s": _median(plain, "records_per_s"),
            "sim_records_per_s": _median(plain, "sim_records_per_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "setup_s": _median(plain, "setup_s"),
        },
        "report": first["report"],
        "layers": layers,
    }


# ------------------------------------------------------------------ reporting


def contract_line(contract: dict, run: dict, trace: bool) -> str:
    """The last stdout line the driver parses."""
    if trace:
        # a feed that is not part of this workload took no time
        values = {**run["report"], **run["layers"]}
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in contract["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": run["end_to_end"][m["name"]], "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def print_run(contract: dict, run: dict, trace: bool) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    print(
        f"== {run['workload']}: {run['rounds']} round(s), "
        f"records_attempted {run['attempted']}, records_failed {run['failed']}"
    )
    print(f"   input_sha256  {run['input_sha256']}")
    print(f"   output_digest {run['output_digest']}")
    for problem in run["problems"]:
        print(f"   PROBLEM: {problem}")
    for name, value in run["end_to_end"].items():
        print(f"   {name:<22} {value:>14.4f} {units[name]}")
    print(f"   machine_slowdown       {run['machine_slowdown']:>14.4f} "
          f"(wall seconds per steady second of the timed calls)")
    if not trace:
        return
    layers = run["layers"]
    root = layers["trace.root_s"]
    print(f"   {'layer (traced self time)':<30} {'seconds':>10} {'share':>7}")
    timed = sorted(
        (
            (name, value)
            for name, value in layers.items()
            if name.endswith("_s")
            and not name.startswith(("ingestion.feed_s.", "trace."))
        ),
        key=lambda item: -item[1],
    )
    for name, value in timed:
        print(f"   {name:<30} {value:>10.4f} {value / root:>6.1%}")
    print(f"   {'simulated layer busy time':<30} {'seconds':>10}")
    for name in ("intake", "computing", "storage"):
        key = f"ingestion.sim_{name}_s"
        print(f"   {key:<30} {run['report'][key]:>10.4f}")
    ratio = layers["trace.overhead_ratio"]
    print(f"   trace.overhead_ratio {ratio:.3f}, self coverage "
          f"{layers['trace.self_coverage']:.4f}")
    if ratio > 1.15:
        print(f"   WARNING: tracing overhead {ratio:.3f} exceeds 1.15",
              file=sys.stderr)


def summarize_runs(contract: dict, runs: List[Dict[str, dict]], args) -> dict:
    """Median/min/max per workload x end-to-end metric over ``--runs``."""
    from repro.bench.wallclock import calibration_score
    import workloads

    out = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "runs": len(runs),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "calibration_ops_per_s": calibration_score(),
        },
        "batch_size": workloads.BATCH_SIZE,
        "workloads": {},
    }
    for name in runs[0]:
        first = runs[0][name]
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [run[name]["end_to_end"][metric["name"]] for run in runs]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
        out["workloads"][name] = {
            "correct": all(run[name]["correct"] for run in runs),
            "attempted": sum(run[name]["attempted"] for run in runs),
            "failed": sum(run[name]["failed"] for run in runs),
            "input_sha256": first["input_sha256"],
            "output_digest": first["output_digest"],
            "end_to_end": end_to_end,
            "machine_slowdown": [run[name]["machine_slowdown"] for run in runs],
            "report": first["report"],
            "layers": {
                k: statistics.median(run[name]["layers"][k] for run in runs)
                for k in first["layers"]
            },
        }
    return out


def compare(contract: dict, path_a: str, path_b: str) -> int:
    """B against A: PASS unless B is worse than A by more than the bound."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    failures = 0
    print(f"{'workload':<16} {'metric':<18} {'A median':>12} {'A min..max':>25} "
          f"{'B median':>12} {'B min..max':>25} {'change':>8} {'bound':>6}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric in contract["end_to_end"]:
            ma = wa["end_to_end"][metric["name"]]
            mb = wb["end_to_end"][metric["name"]]
            change = mb["median"] / ma["median"] - 1.0
            worse = -change if metric["better"] == "higher" else change
            # the simulated clock is deterministic: any difference is a change
            bound = 1e-9 if metric["name"] == "sim_records_per_s" else metric["bound"]
            ok = worse <= bound
            failures += not ok
            print(
                f"{name:<16} {metric['name']:<18} {ma['median']:>12.4f} "
                f"{ma['min']:>12.4f}..{ma['max']:<11.4f} {mb['median']:>12.4f} "
                f"{mb['min']:>12.4f}..{mb['max']:<11.4f} {change:>+8.2%} "
                f"{bound:>6.2g} {'PASS' if ok else 'FAIL'}"
            )
        exact = {"input_sha256": (wa["input_sha256"], wb["input_sha256"]),
                 "output_digest": (wa["output_digest"], wb["output_digest"])}
        for key in sorted(set(wa["report"]) | set(wb["report"])):
            exact[key] = (wa["report"].get(key), wb["report"].get(key))
        differing = [key for key, (x, y) in exact.items() if x != y]
        failures += len(differing)
        verdict = "PASS" if not differing else "FAIL " + ", ".join(differing)
        print(f"{name:<16} {len(exact)} exact values (digests, report counts): {verdict}")
    return 1 if failures else 0


# ----------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None, help="save the results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.compare:
        return compare(contract, *args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    names = [w["name"] for w in contract["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    args.scale = workloads.SMOKE_SCALE if args.smoke else workloads.SCALE
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    # subprocess.run kills and reaps the child on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)

    runs: List[Dict[str, dict]] = []
    for _ in range(args.runs):
        runs.append({})
        for name in names:
            run = run_workload(
                name, args.seed, args.seconds, args.scale, bool(args.trace)
            )
            runs[-1][name] = run
            print_run(contract, run, bool(args.trace))
    summary = summarize_runs(contract, runs, args)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    if args.runs > 1:
        for name, row in summary["workloads"].items():
            for metric, v in row["end_to_end"].items():
                print(f"{name:<16} {metric:<18} median {v['median']:>12.4f} "
                      f"min {v['min']:>12.4f} max {v['max']:>12.4f} {v['unit']}")
    print(json.dumps({k: v for k, v in summary.items() if k != "workloads"}))
    if len(names) == 1 and args.runs == 1:
        print(contract_line(contract, runs[0][names[0]], bool(args.trace)))
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
