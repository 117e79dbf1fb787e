"""The simulated-cost suites live under ``benchmarks/suites`` and have one
runner, ``benchmarks/bench_all.py``, which calls them in-process."""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SUITE_NAMES = [
    "updates", "elastic", "chaos", "scaleout", "external", "memo", "multitenant",
]


@pytest.fixture
def bench_all(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_all

    return bench_all


def test_registry_lists_the_seven_suites(bench_all):
    assert list(bench_all.SUITES) == SUITE_NAMES
    for name, module in bench_all.SUITES.items():
        assert module.__name__ == f"suites.{name}"
        assert callable(module.run) and callable(module.summarize)
        assert len(module.SMOKE) == len(module.FULL)
    gated = {
        name: module.GATED_RATIOS
        for name, module in bench_all.SUITES.items()
        if hasattr(module, "GATED_RATIOS")
    }
    assert gated == {
        "memo": ("sim_win_rate0",),
        "multitenant": ("skewed_speedup",),
    }


def test_smoke_run_writes_results_and_a_trajectory_row(
    bench_all, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(bench_all, "SMOKE_DIR", tmp_path / "out")
    trajectory = tmp_path / "trajectory.json"
    old_row = {"label": "abc1234", "mode": "smoke", "suites": {"chaos": {"ok": True}}}
    trajectory.write_text(json.dumps({"rows": [old_row]}))

    code = bench_all.main(
        ["--smoke", "--suites", "chaos,external", "--output", str(trajectory),
         "--baseline", str(trajectory)]
    )

    assert code == 0
    for name in ("chaos", "external"):
        result = json.loads((tmp_path / "out" / f"BENCH_{name}.json").read_text())
        assert result["ok"] is True
        assert result["mode"] == "smoke"
        assert result["records"] == 600
    rows = json.loads(trajectory.read_text())["rows"]
    assert rows[0] == old_row  # older rows still load and stay
    assert rows[-1]["mode"] == "smoke"
    assert rows[-1]["suites"] == {
        "chaos": {"scenarios": 7, "ok": True},
        "external": {"scenarios": 7, "hard_down_completeness": 0.0, "ok": True},
    }
    printed = capsys.readouterr().out
    assert "[PASS] adapter_crash_resume: zero_acked_loss" in printed
    assert "[PASS] breaker_recovered_in_run" in printed
    assert "[FAIL]" not in printed



def test_smoke_run_without_output_leaves_the_baseline_alone(
    bench_all, monkeypatch, tmp_path
):
    """A smoke run's trajectory row goes beside its suites under the smoke
    directory; the committed trajectory it gates against is only read."""
    monkeypatch.setattr(bench_all, "SMOKE_DIR", tmp_path / "out")
    baseline = tmp_path / "BENCH_TRAJECTORY.json"
    baseline.write_text(json.dumps({"rows": []}))

    code = bench_all.main(
        ["--smoke", "--suites", "chaos", "--baseline", str(baseline)]
    )

    assert code == 0
    assert json.loads(baseline.read_text()) == {"rows": []}
    written = tmp_path / "out" / "BENCH_TRAJECTORY.json"
    assert [row["mode"] for row in json.loads(written.read_text())["rows"]] == [
        "smoke"
    ]
