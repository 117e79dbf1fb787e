"""The simulated-cost suites that go beyond the paper's evaluation.

A suite is a scenario: a module with ``run(smoke) -> dict`` — a
deterministic function of its two size sets (``SMOKE`` / ``FULL``) whose
result carries numbers and named pass/fail checks — plus
``summarize(result) -> dict``, its entry in a ``BENCH_TRAJECTORY.json``
row, and optionally ``GATED_RATIOS``, the summary keys the ``--baseline``
gate compares (speedup ratios survive machine and workload-size changes;
absolute numbers do not).  ``benchmarks/bench_all.py`` is the only runner.
"""

from . import chaos, elastic, external, memo, multitenant, scaleout, updates

#: suite name -> module, in run order
SUITES = {
    "updates": updates,
    "elastic": elastic,
    "chaos": chaos,
    "scaleout": scaleout,
    "external": external,
    "memo": memo,
    "multitenant": multitenant,
}
