"""Seeded job lists for the four workloads.

A job is one in-process ``groupwalks.cli.main(argv)`` call writing to a
temporary ``--out`` file, or one call to a public library function.  The
seed (and the pass number) changes the job order, every RNG seed and every
sampled input, never the instance mix, so passes and seeds cost the same.
Each job carries its oracle check, which runs outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as O

WORKLOADS = ("exact", "fibres", "mc-wide", "mc-narrow")


@dataclass
class Job:
    kind: str                      # warm-up unit: one job of each kind runs before timing
    label: str                     # instance, independent of the seed
    size: int                      # state count, kernel entries or trial-steps
    run: Callable[[], object]
    check: Callable[[object], None]
    trial_steps: int = 0           # > 0 marks a trajectory job
    out: str | None = None


def _cli_job(kind, label, size, argv, out, check=None, expect=0, trial_steps=0):
    from groupwalks import cli

    argv = [str(a) for a in argv] + ["--out", out]

    def run():
        return cli.main(argv)

    def verify(rc):
        O.require(rc == expect, f"exit code {rc}, expected {expect}")
        if expect == 0 and check is not None:
            check(out)

    return Job(kind, label, size, run, verify, trial_steps, out)


def _walk_argv(walk, a, b):
    if walk == "transvection":
        return ["--walk", "transvection", "-n", a, "-k", b]
    return ["--walk", "one-column", "-r", a, "-p", b]


def _write_config(tmp, name, cfg):
    path = os.path.join(tmp, f"cfg-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


# ---------------------------------------------------------------------------
# exact: enumerable instances, dense kernels, matrix powers


SWEEP = ([("transvection", n, k) for n, k in ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2))]
         + [("one-column", r, 3) for r in range(2, 7)]
         + [("one-column", r, 5) for r in range(2, 5)])
LAZINESS = (0.25, 0.5)
# Small instances (at most 210 states) also run at two more laziness values.
# Their jobs take 5-30 ms, so the extra samples put the job-latency median in
# a dense band of small jobs, where it is far steadier than at a gap between
# job sizes; they add about half a second to a pass.
SMALL = [inst for inst in SWEEP if O.state_count(*inst) <= 210]
EXTRA_LAZINESS = (0.125, 0.375)


def _exact(rng, tmp, out):
    from groupwalks import chains, diagnostics as dg, spectral

    jobs = []
    for walk, a, b in SWEEP:
        M = O.state_count(walk, a, b)
        for q in LAZINESS + (EXTRA_LAZINESS if (walk, a, b) in SMALL else ()):
            lab = f"{walk}({a},{b}) q={q}"
            jobs.append(_cli_job(
                "cli.mixing", lab, M,
                ["mixing", "--mode", "exact", *_walk_argv(walk, a, b), "--laziness", q], out(),
                lambda o, w=walk, a=a, b=b, q=q: O.check_mixing(O.read_json_report(o), w, a, b, q, 0.25)))

            def check_spec(o, w=walk, a=a, b=b, q=q):
                rep = O.read_json_report(o)
                O.check_spectrum(rep, w, a, b, q)
                if w == "transvection":
                    O.check_fibre_scan(rep["fibre_scan"], a, b)

            jobs.append(_cli_job("cli.spectrum", lab, M,
                                 ["spectrum", *_walk_argv(walk, a, b), "--laziness", q], out(), check_spec))
        # budget refusals: cheap ones set a budget one below what the instance needs
        q = float(rng.choice(LAZINESS))
        cfg = _write_config(tmp, f"eig-{walk}-{a}-{b}", {"eig_budget": M - 1})
        jobs.append(_cli_job("probe", f"eig_budget {walk}({a},{b})", M,
                             ["spectrum", *_walk_argv(walk, a, b), "--laziness", q, "--config", cfg],
                             out(), expect=2))
        if (walk, a, b) in SMALL:
            cfg = _write_config(tmp, f"dense-{walk}-{a}-{b}", {"dense_budget": M - 1})
            jobs.append(_cli_job("probe", f"dense_budget {walk}({a},{b})", M,
                                 ["mixing", "--mode", "exact", *_walk_argv(walk, a, b),
                                  "--laziness", q, "--config", cfg], out(), expect=2))
    for walk, a, b, ambient in (("transvection", 5, 2, 1 << 10), ("one-column", 6, 3, 3**6)):
        cfg = _write_config(tmp, f"state-{walk}", {"state_budget": ambient - 1})
        jobs.append(_cli_job("probe", f"state_budget {walk}({a},{b})", ambient,
                             ["mixing", "--mode", "exact", *_walk_argv(walk, a, b), "--config", cfg],
                             out(), expect=2))
    # known defect: the dense kernel (6560^2 doubles) is built before the budget check
    jobs.append(_cli_job("probe", "default budgets one-column(8,3)", O.one_column_count(8, 3),
                         ["mixing", "--mode", "exact", "--walk", "one-column", "-r", 8, "-p", 3,
                          "--laziness", float(rng.choice(LAZINESS))], out(), expect=2))

    for n, k in ((4, 2), (5, 2)):
        jobs.append(_cli_job(
            "cli.pipeline", f"Stief({n},{k})", O.stiefel_count(n, k),
            ["pipeline", "--walk", "transvection", "-n", n, "-k", k, "-s", 50, "-L", 30,
             "--t-star", 25], out(),
            lambda o, n=n, k=k: O.check_pipeline(O.read_json_report(o), n, k)))
    for r in (8, 16, 32, 64):
        for p in (2, 3, 5):
            jobs.append(_cli_job(
                "cli.birthdeath", f"bd r={r} p={p}", r,
                ["birthdeath", "-r", r, "-p", p, "--target", 3 * r // 4, "--A0", 2, "--A1", r // 2],
                out(),
                lambda o, r=r, p=p: O.check_birthdeath(O.read_json_report(o), r, p)))

    # PA-PRA on generating pairs of H(3, 1): 432 states in two components
    walk = chains.PaPraWalk(2, 3, 1)
    space = walk.space()

    def check_space(s):
        O.require(s.size == 432 and bool(np.all(np.diff(s.codes) > 0)), "PaPraWalk(2,3,1) space")

    def check_perms(perms):
        O.require(perms.shape == (12, 432), "move table shape")
        O.require(bool(np.all(np.sort(perms, axis=1) == np.arange(432))), "a move is not a bijection")

    def check_components(labels):
        O.require(sorted(np.bincount(labels).tolist()) == [216, 216], "expected two components of 216")

    def papra_spectrum():
        P = walk.dense(space)
        return P, spectral.spectrum(P)

    def check_papra_spectrum(res):
        P, evs = res
        O.check_kernel(P, "PaPraWalk(2,3,1) kernel")
        O.require(abs(evs[0] - 1) < 1e-9 and abs(evs[1] - 1) < 1e-9 and evs[2] < 1 - 1e-9,
                  "eigenvalue 1 should have multiplicity 2")
        O.require(evs[-1] >= -1 - 1e-9, "eigenvalue below -1")

    jobs += [
        Job("lib.papra.space", "PaPraWalk(2,3,1)", 432, walk.space, check_space),
        Job("lib.papra.move_table", "PaPraWalk(2,3,1)", 432,
            lambda: walk.move_permutations(space), check_perms),
        Job("lib.papra.components", "PaPraWalk(2,3,1)", 432,
            lambda: chains.connected_components(walk.move_permutations(space)), check_components),
        Job("lib.papra.spectrum", "PaPraWalk(2,3,1)", 432, papra_spectrum, check_papra_spectrum),
    ]
    for n in (8, 9, 10):
        spec = dg.transvection_good_set(n, 2)
        jobs.append(Job("lib.good_measure", f"transvection n={n} k=2", 4**n,
                        lambda spec=spec: dg.good_set_measure(spec, method="exact"),
                        lambda res, n=n: O.check_good_measure_exact(res, O.transvection_good_counts(n, 2))))
    beta0 = round(float(rng.uniform(0.5, 0.95)), 3)
    spec = dg.heisenberg_good_set(3, 3, 1, beta0)
    jobs.append(Job("lib.good_measure", "heisenberg r=3 p=3", 27**3,
                    lambda: dg.good_set_measure(spec, method="exact"),
                    lambda res: O.check_good_measure_exact(res, O.heisenberg_good_counts(3, 3, beta0))))

    # killed kernel of Stief(4,2) on its balanced set (24 states)
    tw = chains.TransvectionWalk(4, 2)
    tspace = tw.space()
    P = tw.dense(tspace)
    rows = np.array([tspace.state_at(i) for i in range(tspace.size)], dtype=np.int64)
    mask = dg.good_mask_rows(rows, dg.transvection_good_set(4, 2))
    KG = P[np.ix_(mask, mask)]
    rho = np.full(KG.shape[0], 1.0 / KG.shape[0])
    A = spectral.ambient_lsi_A_for_good_support(P, mask)["A"]
    u0 = rng.uniform(0.05, 1.0, size=KG.shape[0])
    t_grid = [0.5, 2.0, 8.0, 32.0]
    s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
    jobs += [
        Job("lib.lsi", "killed Stief(4,2)", KG.shape[0],
            lambda: spectral.lsi_estimate(KG, rho, seed=s1), lambda est: O.check_lsi(est, KG, rho)),
        Job("lib.entropy_decay", "killed Stief(4,2)", KG.shape[0],
            lambda: spectral.entropy_decay_check(KG, rho, u0, t_grid, A, seed=s2),
            lambda rep: O.check_entropy_decay(rep, KG, rho, u0, t_grid, A)),
    ]
    return jobs


# ---------------------------------------------------------------------------
# fibres: Python-level Heisenberg arithmetic in fibre kernels and repcheck


FIBRES = ((8, 3, 2, 11), (16, 3, 2, 11), (8, 5, 1, 10))  # (r, p, fibre trials, jobs per pass)


def _fibres(rng, tmp, out):
    from groupwalks import diagnostics as dg

    jobs = []
    for r, p, trials, count in FIBRES:
        for _ in range(count):
            seed = int(rng.integers(0, 2**31))

            def check(o, r=r, p=p, trials=trials, seed=seed):
                sample = dg.sample_balanced_frozen_tuples(r, p, 1, 0.5, trials, seed)
                O.check_balanced_fibres(O.read_json_report(o), sample, r, p, 0.5)

            jobs.append(_cli_job(
                "cli.spectrum.fibres", f"pa-pra r={r} p={p} trials={trials}", trials * p**6,
                ["spectrum", "--walk", "pa-pra", "-r", r, "-p", p, "-m", 1, "--fibres-only",
                 "--fibre-trials", trials, "--seed", seed], out(), check))
    for p in (3, 5):
        jobs.append(_cli_job("cli.repcheck", f"repcheck p={p}", p**6, ["repcheck", "-p", p], out(),
                             lambda o, p=p: O.check_repcheck(O.read_json_report(o), p)))
    return jobs


# ---------------------------------------------------------------------------
# mc-wide: batch engines with 10^3 - 10^4 trials


def _burnin_grid(r):
    t = int(10 * r * math.log(r))
    return [0, t // 8, t // 4, t // 2, t]


def _mc_wide(rng, tmp, out):
    from groupwalks import chains, diagnostics as dg

    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    jobs = []
    oc_grid = [0, 100, 200, 300, 400, 600, 800, 1200, 1600, 2662]
    for _ in range(3):
        trials, s = 2000, seed()
        jobs.append(Job(
            "lib.burnin", "one-column r=64", trials * oc_grid[-1],
            lambda s=s, trials=trials: dg.burnin_occupancy(
                chains.OneColumnWalk(64, 2), dg.transvection_good_set(64, 1), oc_grid, trials, s),
            lambda res, trials=trials: O.check_burnin_one_column(res, 64, trials),
            trial_steps=trials * oc_grid[-1]))
    for r in (16, 24, 32):
        trials, s, grid = 1000, seed(), _burnin_grid(r)
        jobs.append(Job(
            "lib.burnin", f"pa-pra r={r}", trials * grid[-1],
            lambda r=r, s=s, grid=grid: dg.burnin_occupancy(
                chains.PaPraWalk(r, 3, 1), dg.heisenberg_good_set(r, 3, 1, 0.75), grid, 1000, s),
            lambda res, r=r: O.check_burnin_stationary(res, 1000,
                                                      O.heisenberg_good_counts(r, 3, 0.75)),
            trial_steps=trials * grid[-1]))
    grid = _burnin_grid(16)
    for _ in range(2):
        s = seed()
        jobs.append(Job(
            "lib.burnin", "transvection n=16 k=2", 2000 * grid[-1],
            lambda s=s: dg.burnin_occupancy(chains.TransvectionWalk(16, 2),
                                         dg.transvection_good_set(16, 2), grid, 2000, s),
            lambda res: O.check_burnin_stationary(res, 2000, O.transvection_good_counts(16, 2)),
            trial_steps=2000 * grid[-1]))
    for r in (16, 32, 64):
        t_max = int(8 * r * math.log(r)) + 1
        for _ in range(2):
            jobs.append(_cli_job(
                "cli.mixing.mc", f"mc r={r}", 3000 * t_max,
                ["mixing", "--mode", "mc", "-r", r, "--trials", 3000, "--seed", seed()], out(),
                lambda o, r=r: O.check_mc_tv(O.read_json_report(o), r, 3000),
                trial_steps=3000 * t_max))
    for r, p, s0, target in ((32, 3, 1, 16), (32, 3, 1, 24), (64, 2, 1, 32), (16, 5, 1, 12)):
        params, s = dg.BDParams(r, p), seed()
        jobs.append(Job(
            "lib.bd_hitting", f"r={r} p={p} {s0}->{target}", 10_000,
            lambda params=params, s=s, s0=s0, target=target: dg.bd_hitting_mc(s0, target, params, 10_000, s),
            lambda res, params=params, s0=s0, target=target: O.check_bd_hitting(
                res, dg.bd_hitting_time(s0, target, params))))
    for r, p, s0, a0, a1 in ((16, 3, 3, 2, 8), (32, 3, 3, 2, 10), (64, 2, 4, 3, 12), (16, 5, 2, 1, 6)):
        params, s = dg.BDParams(r, p), seed()
        jobs.append(Job(
            "lib.bd_crossing", f"r={r} p={p} {s0} in [{a0},{a1}]", 10_000,
            lambda params=params, s=s, s0=s0, a0=a0, a1=a1: dg.embedded_crossing_mc(
                s0, a0, a1, params, 10_000, s),
            lambda res, params=params, s0=s0, a0=a0, a1=a1: O.check_crossing(
                res, dg.bd_crossing_prob(s0, a0, a1, params))))
    for _ in range(2):
        s1, s2 = seed(), seed()
        jobs.append(Job(
            "lib.good_measure.mc", "transvection n=16 k=2", 50_000,
            lambda s=s1: dg.good_set_measure(dg.transvection_good_set(16, 2), "monte_carlo", 50_000, s),
            lambda res: O.check_good_measure_mc(res, O.transvection_good_counts(16, 2))))
        jobs.append(Job(
            "lib.good_measure.mc", "heisenberg r=16 p=3", 50_000,
            lambda s=s2: dg.good_set_measure(dg.heisenberg_good_set(16, 3, 1, 0.75), "monte_carlo", 50_000, s),
            lambda res: O.check_good_measure_mc(res, O.heisenberg_good_counts(16, 3, 0.75))))
    return jobs


# ---------------------------------------------------------------------------
# mc-narrow: the same trajectory code with few trials and many steps

SIMULATE = (("one-column", {"r": 32, "p": 2}, ((10_000, 1), (2000, 4), (1000, 8))),
            ("one-column", {"r": 16, "p": 3}, ((10_000, 1), (2000, 4), (1000, 8))),
            ("transvection", {"n": 8, "k": 2}, ((10_000, 1), (2000, 4), (1000, 8))),
            ("pa-pra", {"r": 8, "p": 3, "m": 1}, ((2000, 1), (1000, 2), (1000, 4))))


def _batch_job(engine, params, trials, steps, seed):
    from groupwalks import chains, diagnostics as dg

    grid = list(range(0, steps + 1, steps // 10))
    states: dict = {}
    if engine == "one-column":
        start = np.zeros(params["r"], dtype=np.uint8)
        start[0] = 1

        def run():
            states.clear()
            chains.one_column_batch(params["r"], params["p"], trials, grid, seed,
                                    lambda t, y: states.__setitem__(t, y.copy()), start=start)
            return states
    elif engine == "transvection":
        start = np.zeros(params["n"], dtype=np.int64)
        start[: params["k"]] = 1 << np.arange(params["k"])

        def run():
            states.clear()
            chains.transvection_batch(params["n"], params["k"], trials, grid, seed,
                                      lambda t, z: states.__setitem__(t, z.copy()), start=start)
            return states
    else:
        sv, sz = dg.canonical_start(params["r"], params["p"], 1)
        start = sv

        def run():
            states.clear()
            chains.pa_pra_batch(params["r"], params["p"], 1, trials, grid, seed,
                                lambda t, v, z: states.__setitem__(t, (v.copy(), z.copy())),
                                start_v=sv, start_z=sz)
            return states

    def check(st):
        O.require(sorted(st) == grid, "recorded grid times")
        first = st[0][0] if engine == "pa-pra" else st[0]
        O.require(bool(np.all(first == np.asarray(start)[None])), "state at t=0 is not the start")
        O.check_batch_states(st, engine, params)

    label = f"{engine}_batch {params} trials={trials}"
    return Job("lib.batch", label, trials * steps, run, check, trial_steps=trials * steps)


def _mc_narrow(rng, tmp, out):
    from groupwalks import diagnostics as dg

    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    jobs = []
    for walk, params, shapes in SIMULATE:
        flags = [x for key, val in params.items() for x in (f"-{key}", val)]
        for steps, trials in shapes:
            o = out(".csv")
            jobs.append(_cli_job(
                "cli.simulate", f"{walk} {params} {steps}x{trials}", steps * trials,
                ["simulate", "--walk", walk, *flags, "--steps", steps, "--trials", trials,
                 "--record-every", 10, "--seed", seed()], o,
                lambda o, w=walk, prm=params, st=steps, tr=trials: O.check_simulate_csv(o, w, prm, st, tr, 10),
                trial_steps=steps * trials))
    for r, p in ((16, 3), (32, 3), (16, 5)):
        s = seed()
        jobs.append(Job(
            "lib.support_freq", f"r={r} p={p}", 20_000,
            lambda r=r, p=p, s=s: dg.support_transition_frequencies(r, p, 20_000, s, chains=16),
            lambda res, r=r, p=p: O.check_support_frequencies(res, r, p, 20_000),
            trial_steps=20_000))
    for engine, params, trials, steps in (
            ("one-column", {"r": 32, "p": 2}, 8, 5000), ("one-column", {"r": 16, "p": 3}, 16, 5000),
            ("transvection", {"n": 8, "k": 2}, 8, 5000), ("transvection", {"n": 16, "k": 2}, 16, 5000),
            ("pa-pra", {"r": 8, "p": 3}, 8, 2000), ("pa-pra", {"r": 16, "p": 3}, 16, 2000)):
        jobs.append(_batch_job(engine, params, trials, steps, seed()))
    return jobs


_BUILDERS = {"exact": _exact, "fibres": _fibres, "mc-wide": _mc_wide, "mc-narrow": _mc_narrow}


def build(workload: str, seed: int, pass_index: int, tmp: str) -> list[Job]:
    """The pass's job list, in seeded order, with outputs under ``tmp``."""
    rng = np.random.default_rng([seed, pass_index, WORKLOADS.index(workload)])
    counter = itertools.count()

    def out(suffix=".json"):
        return os.path.join(tmp, f"p{pass_index}-{next(counter)}{suffix}")

    jobs = _BUILDERS[workload](rng, tmp, out)
    return [jobs[i] for i in rng.permutation(len(jobs))]


def warmups(jobs: list[Job]) -> list[Job]:
    """The smallest job of each kind, in first-seen order."""
    best: dict[str, Job] = {}
    for job in jobs:
        if job.kind not in best or job.size < best[job.kind].size:
            best[job.kind] = job
    return list(best.values())
