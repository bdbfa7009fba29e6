"""The benchmark pair runner tools/bench_pair.py, with its benchmark runs stubbed."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _metrics(**values):
    return {name: {"value": value} for name, value in values.items()}


PARENT = _metrics(wall_s=1.0, job_p50_s=0.01, job_p90_s=0.02, setup_s=1.5, peak_rss_mib=100.0)


def _run_main(bench_pair, monkeypatch, tmp_path, change, failed=lambda workload, side: 0):
    calls = []

    def run(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        metrics = change.get(workload, PARENT) if checkout == "C" else PARENT
        return {"failed": failed(workload, checkout), "metrics": metrics}, {"nproc": 2}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pair, "run", run)
    monkeypatch.setattr(sys, "argv", ["bench_pair.py", "--parent", "P", "--change", "C",
                                      "--out", str(out)])
    code = bench_pair.main()
    assert len(calls) == 2 * len(bench_pair.WORKLOADS) * len(bench_pair.SEEDS)
    return code, json.loads(out.read_text())


def test_no_regression_exits_0(bench_pair, monkeypatch, tmp_path, capsys):
    # 20 % slower and 19 % more memory stay inside the bounds of 25 % and 20 %
    change = {"exact": _metrics(wall_s=1.2, job_p50_s=0.012, job_p90_s=0.01, setup_s=1.5,
                                peak_rss_mib=119.0)}
    code, result = _run_main(bench_pair, monkeypatch, tmp_path, change)
    assert code == 0
    assert result["regressions"] == []
    assert result["workloads"]["exact"]["metrics"]["wall_s"]["ratio"] == pytest.approx(1.2)
    assert "regressions: none" in capsys.readouterr().out


def test_metrics_past_their_bounds_and_failed_jobs_exit_1(bench_pair, monkeypatch, tmp_path,
                                                          capsys):
    change = {
        "exact": _metrics(wall_s=1.3, job_p50_s=0.01, job_p90_s=0.02, setup_s=1.5,
                          peak_rss_mib=121.0),
        "fibres": _metrics(wall_s=0.5, job_p50_s=0.01, job_p90_s=0.02, setup_s=1.5,
                           peak_rss_mib=100.0),
    }
    code, result = _run_main(bench_pair, monkeypatch, tmp_path, change,
                             failed=lambda workload, side: int(workload == "mc-wide" and side == "C"))
    assert code == 1
    assert result["regressions"] == [
        "exact wall_s: 1 -> 1.3 (30.0% worse, bound 25%)",
        "exact peak_rss_mib: 100 -> 121 (21.0% worse, bound 20%)",
        "mc-wide failed jobs: 0 -> 3",
    ]
    assert "exact wall_s: 1 -> 1.3" in capsys.readouterr().out


def test_higher_is_better_metrics_regress_downwards(bench_pair):
    benchmark = {"end_to_end": [{"name": "rate", "better": "higher", "bound": 0.1}]}

    def report(ratio):
        return {"w": {"metrics": {"rate": {"parent": 10.0, "change": 10.0 * ratio,
                                           "ratio": ratio}},
                      "failed": {"parent": 0, "change": 0}}}

    assert bench_pair.regressions(report(1.5), benchmark) == []
    assert bench_pair.regressions(report(0.95), benchmark) == []
    assert bench_pair.regressions(report(0.8), benchmark) == [
        "w rate: 10 -> 8 (20.0% worse, bound 10%)"]
