#!/usr/bin/env python3
"""Execution census: which functions in ``src/repro`` does no workload enter?

    python benchmarks/census.py            # print the never-called list
    python benchmarks/census.py --check    # compare it with census_never_called.txt

A *function* is every ``def`` / ``async def`` in the tree, nested ones
included (lambdas and comprehensions are not).  It is *entered* when the
interpreter raises a profile ``call`` event for its code object — so a
generator function that is called but never advanced is not entered
(CPython 3.11 does enter it once when the unstarted generator is discarded,
to throw ``GeneratorExit``).  The
*traffic* is everything in the repository that is not a test: the nine figure
/ ablation files and the substrate micro-benchmarks (one pytest session;
``benchmarks/results/`` is rewritten byte-identical in any order),
``bench_all.py --smoke``, the e2e benchmark at smoke size and with one
full-size plain and one traced round per workload, and the five examples.

The hook is a ``usercustomize.py`` in a temporary ``PYTHONUSERBASE``: every
child interpreter loads it at start-up, including the ones ``e2e/run.py``
spawns with a replaced ``PYTHONPATH``.  The figure session runs with
``--benchmark-disable`` because pytest-benchmark unsets the profile hook for
the whole of ``benchmark.pedantic(...)``, which is where each figure sweeps.

``census_never_called.txt`` holds one ``path::qualname  # reason`` line per
function that is allowed to stay without traffic.  ``--check`` fails on a
never-called function missing from it, and on an entry that is now called,
gone, or has no reason — so new dead code has to be named to land.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
KEEP_FILE = Path(__file__).with_name("census_never_called.txt")

FIGURES = [
    f"benchmarks/bench_{name}.py"
    for name in (
        "fig24_basic_ingestion", "fig25_udf_enrichment", "fig26_refresh_periods",
        "fig27_update_rates", "fig28_ref_scaleout", "fig29_complexity",
        "fig30_speedup", "fig31_complex_scaleout", "ablation_framework",
        "micro_substrates",
    )
]
EXAMPLES = sorted(str(p.relative_to(REPO)) for p in (REPO / "examples").glob("*.py"))
PY = sys.executable
TRAFFIC: List[List[str]] = [
    [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable", *FIGURES],
    # its trajectory row goes beside the smoke results, not into the committed file
    [PY, "benchmarks/bench_all.py", "--smoke",
     "--output", "benchmarks/out/BENCH_TRAJECTORY.json"],
    [PY, "benchmarks/e2e/run.py", "--smoke"],
    [PY, "benchmarks/e2e/run.py", "--seconds", "0", "--trace", "1"],
    *([PY, example] for example in EXAMPLES),
]

# The profile hook every child interpreter installs.  {root!r} and {out!r}
# are baked in, so the hook reads nothing from the environment.
HOOK = '''\
import atexit, os, sys, threading
_root, _out, _seen = {root!r}, {out!r}, set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    rows = sorted((c.co_filename, c.co_firstlineno) for c in _seen
                  if c.co_filename.startswith(_root))
    with open(os.path.join(_out, "%d.txt" % os.getpid()), "a") as handle:
        handle.writelines("%s\\t%d\\n" % row for row in rows)
atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def defined_functions(package: Path) -> Dict[Tuple[str, int], str]:
    """``{(path relative to package, first line): qualname}`` for every def.

    The first line is the code object's ``co_firstlineno``: the first
    decorator's line when there is one.  A qualname defined twice in one
    file (a property and its setter) gets ``@2`` on the second.
    """
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        counts: Dict[str, int] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    counts[name] = counts.get(name, 0) + 1
                    if counts[name] > 1:
                        name = f"{name}@{counts[name]}"
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(relative, line)] = name
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def entered_by(
    commands: Iterable[Sequence[str]], package: Path, cwd: Path, pythonpath: Path
) -> Set[Tuple[str, int]]:
    """Run each command under the hook; the ``(path, first line)`` pairs entered."""
    package = package.resolve()
    with tempfile.TemporaryDirectory(prefix="census-") as base:
        out = Path(base, "entered")
        out.mkdir()
        env = dict(os.environ, PYTHONUSERBASE=base, PYTHONPATH=str(pythonpath))
        env.pop("PYTHONNOUSERSITE", None)
        site = Path(subprocess.run(
            [PY, "-m", "site", "--user-site"], env=env, stdout=subprocess.PIPE, text=True,
        ).stdout.strip())
        site.mkdir(parents=True)
        (site / "usercustomize.py").write_text(
            HOOK.format(root=str(package) + os.sep, out=str(out))
        )
        for command in commands:
            print("census:", " ".join(command), file=sys.stderr, flush=True)
            subprocess.run(list(command), cwd=cwd, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        dumps = list(out.iterdir())
        if not dumps:
            raise SystemExit(
                "census: no child loaded usercustomize.py (user site disabled?)"
            )
        entered: Set[Tuple[str, int]] = set()
        for dump in dumps:
            for row in dump.read_text().splitlines():
                filename, line = row.rsplit("\t", 1)
                entered.add((Path(filename).relative_to(package).as_posix(), int(line)))
    return entered


def never_called(package: Path, entered: Set[Tuple[str, int]]) -> List[str]:
    """Sorted ``path::qualname`` of every def no command entered."""
    return sorted(
        f"{path}::{name}"
        for (path, line), name in defined_functions(package).items()
        if (path, line) not in entered
    )


def read_keep_file(path: Path) -> Dict[str, str]:
    """``{path::qualname: reason}``; blank lines and ``#`` lines are skipped."""
    kept: Dict[str, str] = {}
    for row in path.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            name, _, reason = row.partition("#")
            kept[name.strip()] = reason.strip()
    return kept


def check(never: Sequence[str], kept: Dict[str, str]) -> List[str]:
    """Every way the keep file and the measured list disagree."""
    measured = set(never)
    problems = [f"never called and not listed: {name}" for name in never if name not in kept]
    problems += [f"listed but now called or gone: {name}" for name in kept if name not in measured]
    problems += [f"listed without a reason: {name}" for name, why in kept.items() if not why]
    return problems


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless the list equals {KEEP_FILE.name}")
    args = parser.parse_args(argv)
    never = never_called(PACKAGE, entered_by(TRAFFIC, PACKAGE, REPO, SRC))
    total = len(defined_functions(PACKAGE))
    if not args.check:
        print("\n".join(never))
        print(f"census: {len(never)} of {total} functions never called", file=sys.stderr)
        return 0
    problems = check(never, read_keep_file(KEEP_FILE))
    print("\n".join(problems) or f"census: ok, {len(never)} of {total} never called")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
