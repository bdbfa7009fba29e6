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


def _claim_main(bench_pair, monkeypatch, tmp_path, change_p90, seeds, claim="exact:job_p90_s"):
    """main() with --seeds and --claim; on exact the parent's job_p90_s
    reads 10, 11, ... ms over the seeds, and the change's what change_p90(i)
    gives for the i-th seed."""
    calls = []

    def run(checkout, workload, seed):
        i = seeds.index(seed)
        calls.append((checkout, seed))
        if workload != "exact":
            return {"failed": 0, "metrics": PARENT}, {}
        p90 = change_p90(i) if checkout == "C" else 0.010 + 0.001 * i
        return {"failed": 0, "metrics": {**PARENT, **_metrics(job_p90_s=p90)}}, {}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pair, "run", run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pair.py", "--parent", "P", "--change", "C", "--out", str(out),
        "--seeds", *map(str, seeds), "--claim", claim])
    code = bench_pair.main()
    assert len(calls) == 2 * len(bench_pair.WORKLOADS) * len(seeds)
    # pairs alternate which side runs first
    assert [c for c, _ in calls[:4]] == ["P", "C", "C", "P"]
    return code, json.loads(out.read_text())


def test_claim_holds_with_nine_wins_in_ten_and_a_wide_gap(bench_pair, monkeypatch, tmp_path,
                                                            capsys):
    seeds = list(range(1, 11))
    # twice as fast on nine seeds, slower on the last one
    code, result = _claim_main(bench_pair, monkeypatch, tmp_path,
                               lambda i: 0.1 if i == 9 else 0.5 * (0.010 + 0.001 * i), seeds)
    claim = result["claim"]
    assert code == 0 and result["seeds"] == seeds and result["regressions"] == []
    assert claim["workload"] == "exact" and claim["metric"] == "job_p90_s"
    assert claim["pairs"] == 10 and claim["wins"] == 9 and claim["holds"]
    assert claim["parent_median"] == pytest.approx(0.0145)
    assert claim["change_median"] == pytest.approx(0.00725)
    # exclusive quartiles of 10, 11, ..., 19 ms: 11.75 and 17.25 ms
    assert claim["parent_quartile_distance"] == pytest.approx(0.0055)
    assert '"holds": true' in capsys.readouterr().out


@pytest.mark.parametrize("change_p90,seeds", [
    (lambda i: 0.1 if i >= 8 else 0.5 * (0.010 + 0.001 * i), list(range(1, 11))),  # 8 wins
    (lambda i: 0.8 * (0.010 + 0.001 * i), list(range(1, 11))),  # gap inside the quartiles
    (lambda i: 0.5 * (0.010 + 0.001 * i), list(range(1, 10))),  # nine pairs only
    (lambda i: 0.010 + 0.001 * i, list(range(1, 11))),  # ties win nothing
], ids=["8-wins", "narrow-gap", "9-pairs", "ties"])
def test_claim_fails_and_exits_1(bench_pair, monkeypatch, tmp_path, change_p90, seeds):
    code, result = _claim_main(bench_pair, monkeypatch, tmp_path, change_p90, seeds)
    assert code == 1 and result["regressions"] == [] and not result["claim"]["holds"]


def test_claim_needs_a_known_metric_and_two_seeds(bench_pair, monkeypatch, tmp_path):
    with pytest.raises(SystemExit):
        _claim_main(bench_pair, monkeypatch, tmp_path, lambda i: 0.01, [1, 2],
                    claim="exact:chains.move_table.s")
    with pytest.raises(SystemExit):
        _claim_main(bench_pair, monkeypatch, tmp_path, lambda i: 0.01, [1, 2],
                    claim="nothing:job_p90_s")
    with pytest.raises(SystemExit):
        _claim_main(bench_pair, monkeypatch, tmp_path, lambda i: 0.01, [1],
                    claim="exact:job_p90_s")


def test_workloads_flag_runs_only_those_workloads(bench_pair, monkeypatch, tmp_path):
    seeds = list(range(1, 11))
    calls = []

    def run(checkout, workload, seed):
        calls.append((checkout, workload, seed))
        wall = 0.5 if checkout == "C" else 1.0 + 0.01 * seed
        return {"failed": 0, "metrics": {**PARENT, **_metrics(wall_s=wall)}}, {}

    out = tmp_path / "bench.json"
    monkeypatch.setattr(bench_pair, "run", run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pair.py", "--parent", "P", "--change", "C", "--out", str(out),
        "--workloads", "fibres", "--seeds", *map(str, seeds), "--claim", "fibres:wall_s"])
    assert bench_pair.main() == 0
    result = json.loads(out.read_text())
    assert {workload for _, workload, _ in calls} == {"fibres"} and len(calls) == 20
    assert list(result["workloads"]) == ["fibres"] and result["regressions"] == []
    assert result["claim"]["workload"] == "fibres" and result["claim"]["holds"]
    # a claim on a workload that is not run is refused
    monkeypatch.setattr(sys, "argv", [
        "bench_pair.py", "--parent", "P", "--change", "C", "--out", str(out),
        "--workloads", "fibres", "--seeds", "1", "2", "--claim", "exact:wall_s"])
    with pytest.raises(SystemExit):
        bench_pair.main()
