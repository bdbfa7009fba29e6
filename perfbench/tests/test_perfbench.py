"""Tests of the benchmark itself: span arithmetic, the percentile rule, the
seeded instance mix, and every oracle rejecting a corrupted result.

    python3 -m pytest perfbench/tests
"""

import copy
import os
import sys
import time
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import oracles as O  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from groupwalks import chains, cli, diagnostics as dg, spectral  # noqa: E402


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 3.0, 6.0, 0, 1),    # overlaps b: children cover 1..6
        ("d", 8.0, 12.0, 0, 1),   # clipped to 8..10
        ("e", 2.0, 3.0, 1, 1),    # grandchild, only reduces b
        ("f", 20.0, 21.0, -1, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.0])


def test_layer_self_times_and_unattributed_add_up_to_traced_wall():
    spans = [
        ("cli.spectrum", 0.0, 5.0, -1, 0),
        ("chains.enumerate", 0.5, 1.0, 0, 0),
        ("chains.dense", 1.0, 3.0, 0, 0),
        ("chains.move_table", 1.2, 2.2, 2, 0),
        ("spectral.eigensolve", 3.0, 4.5, 0, 0),
        ("chains.batch", 6.0, 7.0, -1, 1),
    ]
    m = tracing.layer_metrics(spans, {}, {}, passes=2, traced_job_time=16.0)
    assert m["chains.dense.self_s"] == pytest.approx(0.5)     # (2 - 1) / 2 passes
    assert m["cli.spectrum.self_s"] == pytest.approx(0.5)     # (5 - 0.5 - 2 - 1.5) / 2
    total = sum(m[name] for name in tracing.TIME_METRIC.values()) + m["bench.unattributed_s"]
    assert total == pytest.approx(m["bench.traced_wall_s"]) == pytest.approx(8.0)
    assert m["bench.unattributed_s"] == pytest.approx(5.0)


def test_tracer_records_nested_spans_through_cli(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.job = 7
        assert cli.main(["spectrum", "--walk", "transvection", "-n", "3", "-k", "1",
                         "--out", str(tmp_path / "o.json")]) == 0
        tracer.job = None
        chains.stiefel_space(3, 1)  # outside a job: not recorded
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.spectrum"
    assert {"chains.enumerate", "chains.move_table", "chains.dense",
            "spectral.eigensolve", "diagnostics.fibre_scan"} <= set(names)
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.counts["chains.enumerate.states"] == 7
    assert tracer.counts["chains.enumerate.ambient"] == 8
    assert not hasattr(chains.stiefel_space, "__wrapped__")
    assert not hasattr(cli._DISPATCH["spectrum"], "__wrapped__")
    assert not hasattr(chains._WalkBase.dense, "__wrapped__")


# ---------------------------------------------------------------------------
# percentiles


def test_p90_needs_ten_samples_beyond_it():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    with pytest.raises(ValueError):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(100)), 90) == pytest.approx(89.5)
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_speed_probe_scales_each_job_by_the_calibrations_around_it(monkeypatch):
    import child

    ticks = iter([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    monkeypatch.setattr(child, "calibrate", lambda: next(ticks))
    probe = child.SpeedProbe(sample=False)
    for _ in range(6):
        assert probe.run(lambda: 0.5) == 0.5
    f = probe.factors()  # 6 calibrations before jobs, 1 after the last
    assert f[0] == pytest.approx(child.CAL_REF_S / 1.0)   # median of cals[0:3]
    assert f[5] == pytest.approx(child.CAL_REF_S / 2.0)   # median of cals[3:7]
    assert len(f) == 6


def test_speed_probe_samples_during_a_job_and_nets_out_its_time():
    import child

    probe = child.SpeedProbe(sample=True)
    dt = probe.run(lambda: (time.sleep(0.45), 0.45)[1])
    lo, hi = probe.spans[0]
    assert hi - lo >= 3            # one before the job, two or more while it slept
    assert dt < 0.45 and probe.spent > 0


# ---------------------------------------------------------------------------
# seeded job lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_keep_the_instance_mix(workload, tmp_path):
    def mix(jobs):
        return Counter((j.kind, j.label, j.size, j.trial_steps) for j in jobs)

    a = workloads.build(workload, 1, 0, str(tmp_path))
    b = workloads.build(workload, 2, 0, str(tmp_path))
    c = workloads.build(workload, 1, 3, str(tmp_path))
    assert mix(a) == mix(b) == mix(c)
    assert [j.label for j in a] != [j.label for j in b]
    assert len(a) >= (100 if workload == "exact" else 20)
    kinds = {j.kind for j in a}
    assert {j.kind for j in workloads.warmups(a)} == kinds


# ---------------------------------------------------------------------------
# oracles reject corrupted results


def _report(tmp_path, argv):
    out = str(tmp_path / "r.json")
    assert cli.main([str(a) for a in argv] + ["--out", out]) == 0
    return O.read_json_report(out)


def _rejects(check, *args):
    with pytest.raises(O.OracleError):
        check(*args)


def test_kernel_check_rejects_perturbed_row():
    P = chains.TransvectionWalk(3, 2).dense()
    O.check_kernel(P, "ok")
    bad = P.copy()
    bad[0, :2] += [0.01, -0.02]
    _rejects(O.check_kernel, bad, "perturbed")


def test_mixing_check_rejects_off_by_one(tmp_path):
    rep = _report(tmp_path, ["mixing", "--mode", "exact", "--walk", "transvection",
                             "-n", 4, "-k", 1, "--laziness", 0.5])
    O.check_mixing(rep, "transvection", 4, 1, 0.5, 0.25)
    for shift in (1, -1):
        bad = copy.deepcopy(rep)
        bad["mixing_time"] += shift
        _rejects(O.check_mixing, bad, "transvection", 4, 1, 0.5, 0.25)
    bad = copy.deepcopy(rep)
    bad["tv"][1] *= 1.5
    _rejects(O.check_mixing, bad, "transvection", 4, 1, 0.5, 0.25)


def test_spectrum_checks_reject_wrong_values(tmp_path):
    rep = _report(tmp_path, ["spectrum", "--walk", "transvection", "-n", 4, "-k", 2,
                             "--laziness", 0.25])
    O.check_spectrum(rep, "transvection", 4, 2, 0.25)
    O.check_fibre_scan(rep["fibre_scan"], 4, 2)
    bad = copy.deepcopy(rep)
    bad["eigenvalues_top"][1] += 1e-6
    _rejects(O.check_spectrum, bad, "transvection", 4, 2, 0.25)
    bad = copy.deepcopy(rep)
    bad["states"] -= 1
    _rejects(O.check_spectrum, bad, "transvection", 4, 2, 0.25)
    scan = dict(rep["fibre_scan"], good_fibre_count=rep["fibre_scan"]["good_fibre_count"] + 1)
    _rejects(O.check_fibre_scan, scan, 4, 2)


def test_composition_counts_match_known_values_and_reject_off_by_one():
    res = dg.good_set_measure(dg.transvection_good_set(8, 2))
    counts = O.transvection_good_counts(8, 2)
    O.check_good_measure_exact(res, counts)
    _rejects(O.check_good_measure_exact, dict(res, pi_bad_count=res["pi_bad_count"] + 1), counts)
    assert O.transvection_good_counts(12, 2)[1:] == (13_081_216, 16_764_930, 13_068_930)
    res = dg.good_set_measure(dg.heisenberg_good_set(3, 3, 1, 0.6))
    O.check_good_measure_exact(res, O.heisenberg_good_counts(3, 3, 0.6))


def test_one_column_stationary_failure_mass():
    assert O.oc_stationary_failure(64) == pytest.approx(0.0327658, abs=5e-8)
    law = O.weight_laws(64, [4000])[4000]
    assert float(law[O.oc_bad_weights(64)].sum()) == pytest.approx(O.oc_stationary_failure(64))


def test_burnin_check_rejects_shifted_counts():
    res = dg.burnin_occupancy(chains.OneColumnWalk(64, 2), dg.transvection_good_set(64, 1),
                              [0, 300, 2662], 2000, 5)
    O.check_burnin_one_column(res, 64, 2000)
    bad = dict(res, failure_counts=np.array(res["failure_counts"]) + [0, 0, 80])
    _rejects(O.check_burnin_one_column, bad, 64, 2000)


def test_mc_tv_check_rejects_shifted_curve(tmp_path):
    rep = _report(tmp_path, ["mixing", "--mode", "mc", "-r", 16, "--trials", 3000, "--seed", 4])
    O.check_mc_tv(rep, 16, 3000)
    bad = dict(rep, tv=[v + 0.15 for v in rep["tv"]])
    _rejects(O.check_mc_tv, bad, 16, 3000)


def test_birth_death_checks_reject_wrong_values(tmp_path):
    rep = _report(tmp_path, ["birthdeath", "-r", 16, "-p", 3, "--target", 12, "--A0", 2, "--A1", 8])
    O.check_birthdeath(rep, 16, 3)
    bad = copy.deepcopy(rep)
    bad["hitting"][0]["expected_steps"] += 1.0
    _rejects(O.check_birthdeath, bad, 16, 3)
    params = dg.BDParams(32, 3)
    res = dg.bd_hitting_mc(1, 16, params, 10_000, 3)
    exact = dg.bd_hitting_time(1, 16, params)
    O.check_bd_hitting(res, exact)
    _rejects(O.check_bd_hitting, dict(res, mean=res["mean"] + 10 * res["sem"]), exact)
    res = dg.embedded_crossing_mc(3, 2, 10, params, 10_000, 3)
    exact = dg.bd_crossing_prob(3, 2, 10, params)
    O.check_crossing(res, exact)
    _rejects(O.check_crossing, dict(res, hits=res["hits"] + 200), exact)


def test_good_measure_mc_check_rejects_biased_estimate():
    res = dg.good_set_measure(dg.transvection_good_set(16, 2), "monte_carlo", 50_000, 9)
    counts = O.transvection_good_counts(16, 2)
    O.check_good_measure_mc(res, counts)
    _rejects(O.check_good_measure_mc, dict(res, mu_gc=res["mu_gc"] + 0.02), counts)


def test_pipeline_check_rejects_wrong_bound(tmp_path):
    rep = _report(tmp_path, ["pipeline", "--walk", "transvection", "-n", 4, "-k", 2,
                             "-s", 50, "-L", 30, "--t-star", 25])
    O.check_pipeline(rep, 4, 2)
    _rejects(O.check_pipeline, dict(rep, tv_bound=rep["tv_bound"] * 1.001), 4, 2)
    _rejects(O.check_pipeline, dict(rep, pi_good_complement=0.5), 4, 2)


def test_fibre_and_repcheck_checks_reject_wrong_values(tmp_path):
    rep = _report(tmp_path, ["spectrum", "--walk", "pa-pra", "-r", 8, "-p", 3, "-m", 1,
                             "--fibres-only", "--fibre-trials", 2, "--seed", 6])
    sample = dg.sample_balanced_frozen_tuples(8, 3, 1, 0.5, 2, 6)
    O.check_balanced_fibres(rep, sample, 8, 3, 0.5)
    bad = copy.deepcopy(rep)
    bad["balanced_fibres"]["min_gap"] += 1e-6
    _rejects(O.check_balanced_fibres, bad, sample, 8, 3, 0.5)
    rep = _report(tmp_path, ["repcheck", "-p", 3])
    O.check_repcheck(rep, 3)
    bad = copy.deepcopy(rep)
    bad["representations"][0]["mult_residual"] = 1e-3
    _rejects(O.check_repcheck, bad, 3)


def test_spectral_checks_reject_wrong_values():
    walk = chains.TransvectionWalk(4, 2)
    space = walk.space()
    P = walk.dense(space)
    rows = np.array([space.state_at(i) for i in range(space.size)])
    mask = dg.good_mask_rows(rows, dg.transvection_good_set(4, 2))
    KG = P[np.ix_(mask, mask)]
    rho = np.full(KG.shape[0], 1.0 / KG.shape[0])
    est = spectral.lsi_estimate(KG, rho, seed=1)
    O.check_lsi(est, KG, rho)
    est.value *= 1.01
    _rejects(O.check_lsi, est, KG, rho)
    u0 = np.linspace(0.1, 1.0, KG.shape[0])
    rep = spectral.entropy_decay_check(KG, rho, u0, [1.0, 4.0], 3.0, check_hypothesis=False)
    O.check_entropy_decay(rep, KG, rho, u0, [1.0, 4.0], 3.0)
    rep["points"][1]["lhs"] *= 1.01
    _rejects(O.check_entropy_decay, rep, KG, rho, u0, [1.0, 4.0], 3.0)


def test_simulate_and_batch_checks_reject_corruption(tmp_path):
    out = str(tmp_path / "s.csv")
    assert cli.main(["simulate", "--walk", "transvection", "-n", "6", "-k", "2", "--steps", "100",
                     "--trials", "2", "--record-every", "10", "--out", out]) == 0
    O.check_simulate_csv(out, "transvection", {"n": 6, "k": 2}, 100, 2, 10)
    with open(out, newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[3].split(",")
    cells[2] = str(int(cells[2]) + 2)
    lines[3] = ",".join(cells)
    with open(out, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
    _rejects(O.check_simulate_csv, out, "transvection", {"n": 6, "k": 2}, 100, 2, 10)
    states = {0: np.array([[1, 2, 0], [3, 0, 0]])}   # second tuple has rank 1
    _rejects(O.check_batch_states, states, "transvection", {"n": 3, "k": 2})


def test_probe_job_rejects_unexpected_exit_code(tmp_path):
    job = workloads._cli_job("probe", "x", 1, ["spectrum", "--walk", "transvection", "-n", 3,
                                              "-k", 1], str(tmp_path / "p.json"), expect=2)
    _rejects(job.check, job.run())
