"""Acceptance gate: twelve end-to-end checks, one verdict line each.

Every test prints exactly one line of the form

    CRITERION nn: PASS/FAIL -- detail

and then asserts, so a red criterion is visible both inline and in the
pytest summary.  The lines are replayed after the run by the conftest
terminal-summary hook.  Thresholds, tolerances, and instance sizes are
fixed; randomized checks use frozen seeds so the verdicts are
reproducible bit for bit.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from groupwalks import spectral
from groupwalks.chains import (
    OneColumnWalk,
    PaPraWalk,
    TransvectionWalk,
    build_fibre_kernel,
)
from groupwalks.diagnostics import (
    BDParams,
    bd_crossing_prob,
    bd_hitting_mc,
    bd_hitting_time,
    bd_probs,
    burnin_occupancy,
    embedded_crossing_mc,
    good_fibre_gap_scan,
    good_mask_rows,
    heisenberg_good_set,
    hyperplane_gap_floor,
    mc_tv_curve_one_column,
    rate_I,
    rate_J,
    sample_balanced_frozen_tuples,
    support_transition_frequencies,
    transvection_good_set,
    tv_counting_lower,
)
from groupwalks.groups import (
    Representation,
    fixed_projection,
    heisenberg_elements,
    psi,
    representation_dimension_check,
)

ACCEPTANCE_LINES: list[str] = []


def _criterion(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _dense_walk(walk, budget=1 << 16):
    space = walk.space(budget=budget)
    return space, walk.dense(space)


@pytest.fixture(scope="module")
def stief32():
    walk = TransvectionWalk(3, 2)
    space, P = _dense_walk(walk)
    states = np.array([space.state_at(i) for i in range(space.size)], dtype=np.int64)
    mask = good_mask_rows(states, transvection_good_set(3, 2))
    return walk, space, P, mask


# ---------------------------------------------------------------------------
# 1. kernel exactness on the three enumerable state spaces


def _horizontal_det(state) -> int:
    """Determinant mod 3 of the 2x2 matrix of horizontal parts of a pair."""
    v1, v2 = state[0].v.entries, state[1].v.entries
    return (v1[0] * v2[1] - v1[1] * v2[0]) % 3


def test_criterion_01_kernel_exactness():
    # The strong components must be exactly the level sets of the invariant
    # each walk's moves conserve.  On generating pairs every move adds a
    # multiple of one horizontal part to the other, which keeps the 2x2
    # determinant in F_3^*, so V_2(H) splits into two 216-state classes.
    t0 = time.perf_counter()
    cases = [
        ("Stief(3,2)", TransvectionWalk(3, 2), None, 1),
        ("Stief(4,2)", TransvectionWalk(4, 2), None, 1),
        ("V_2(H) p=3 m=1", PaPraWalk(2, 3, 1), _horizontal_det, 2),
    ]
    ok = True
    parts = []
    for name, walk, invariant, expected in cases:
        space, P = _dense_walk(walk)
        row_err = float(np.abs(P.sum(axis=1) - 1.0).max())
        sym_err = float(np.abs(P - P.T).max())  # uniform reversibility
        ncomp, labels = connected_components(
            csr_matrix(P > 0), directed=True, connection="strong"
        )
        if invariant is None:
            classes = np.zeros(space.size, dtype=np.int64)
        else:
            classes = np.array([invariant(space.state_at(i)) for i in range(space.size)])
        # components coincide with the classes iff every (class, component)
        # pair is the only one of its component and the only one of its class
        pairs = {(int(c), int(l)) for c, l in zip(classes, labels)}
        nclass = len(np.unique(classes))
        good = (
            row_err <= 1e-12 and sym_err <= 1e-12
            and len(pairs) == ncomp == nclass == expected
        )
        ok = ok and good
        sizes = np.bincount(labels, minlength=ncomp)
        comps = ", ".join(
            f"{sizes[l]}" + ("" if invariant is None else f" det {c}")
            for c, l in sorted(pairs)
        )
        parts.append(
            f"{name}: {space.size} states, row err {row_err:.1e}, "
            f"sym err {sym_err:.1e}, {ncomp} component(s) [{comps}]"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _criterion(1, ok, "; ".join(parts) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. closed-form fibre eigenvalues against dense eigendecompositions


def test_criterion_02_fibre_eigenvalue_formula():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, 4))
        frozen = tuple(int(c) for c in rng.integers(0, 1 << k, size=n - 1))
        formula = np.sort(
            np.fromiter(spectral.fibre_eigenvalues_tr(0, frozen, k).values(), float)
        )
        K = build_fibre_kernel("transvection", frozen, k=k)
        dense = np.sort(np.linalg.eigvalsh(K))
        worst = max(worst, float(np.abs(formula - dense).max()))
    _criterion(
        2, worst <= 1e-10, f"10^4 random fibres (n<=16, k<=3), worst dev {worst:.2e}"
    )


# ---------------------------------------------------------------------------
# 3. exhaustive good-fibre gap floor of 1/2 at n=12


def test_criterion_03_good_fibre_gap_floor():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for k in (1, 2):
        scan = good_fibre_gap_scan(12, k)
        below = int((scan["good_gaps"] < 0.5).sum())
        ok = ok and scan["good_fibre_count"] > 0 and below == 0
        parts.append(
            f"k={k}: {scan['good_fibre_count']}/{scan['fibre_count']} good fibres, "
            f"min gap {scan['min_good_gap']:.6f}, {below} below 1/2"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _criterion(3, ok, "; ".join(parts) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4 + 5. representation axioms and the two-projections constant


@pytest.fixture(scope="module")
def heisenberg_reps():
    data = {}
    for p in (3, 5):
        elems = list(heisenberg_elements(p, 1))
        N = len(elems)
        index_of = {(int(g.v.entries[0]), int(g.v.entries[1]), int(g.z)): i
                    for i, g in enumerate(elems)}
        prod_idx = np.empty((N, N), dtype=np.int64)
        for a, g in enumerate(elems):
            for b, h in enumerate(elems):
                gh = g * h
                prod_idx[a, b] = index_of[
                    (int(gh.v.entries[0]), int(gh.v.entries[1]), int(gh.z))
                ]
        V = np.array([[int(g.v.entries[0]), int(g.v.entries[1])] for g in elems])
        Z = np.array([int(g.z) for g in elems])
        omega = (V[:, 0, None] * V[None, :, 1] - V[:, 1, None] * V[None, :, 0]) % p
        mats = {
            lam: np.stack([Representation(p, 1, lam).matrix(g) for g in elems])
            for lam in range(1, p)
        }
        data[p] = {
            "elems": elems,
            "prod_idx": prod_idx,
            "V": V,
            "Z": Z,
            "omega": omega,
            "mats": mats,
        }
    return data


def test_criterion_04_representation_axioms(heisenberg_reps):
    ok = True
    parts = []
    for p, d in heisenberg_reps.items():
        N = len(d["elems"])
        mult = unit = central = comm = 0.0
        for lam, mats in d["mats"].items():
            dim = mats.shape[1]
            eye = np.eye(dim)
            phase = np.exp(2j * np.pi * lam * d["omega"] / p)
            for a in range(N):
                prods = mats[a] @ mats
                mult = max(mult, float(np.abs(prods - mats[d["prod_idx"][a]]).max()))
                rhs = phase[a][:, None, None] * (mats @ mats[a])
                comm = max(comm, float(np.abs(prods - rhs).max()))
            gram = np.einsum("nij,nkj->nik", mats, mats.conj())
            unit = max(unit, float(np.abs(gram - eye).max()))
            for i in np.flatnonzero((d["V"] == 0).all(axis=1)):
                target = psi(lam * int(d["Z"][i]), p) * eye
                central = max(central, float(np.abs(mats[i] - target).max()))
        dim_sum, order = representation_dimension_check(p, 1)
        good = (
            max(mult, unit, central, comm) <= 1e-10
            and dim_sum == order
            and N == order
        )
        ok = ok and good
        parts.append(
            f"p={p}: {N}^2 pairs x {p - 1} reps, mult {mult:.1e}, unit {unit:.1e}, "
            f"central {central:.1e}, commutation {comm:.1e}, dim sum {dim_sum} = |H| {order}"
        )
    _criterion(4, ok, "; ".join(parts))


def test_criterion_05_two_projections_norm(heisenberg_reps):
    ok = True
    parts = []
    for p, d in heisenberg_reps.items():
        target = p ** -0.5
        worst = 0.0
        pairs = 0
        for lam, mats in d["mats"].items():
            projs = np.stack(
                [fixed_projection(U, p).matrix for U in mats]
            )
            ia, ib = np.nonzero(d["omega"])
            prods = projs[ia] @ projs[ib]
            svals = np.linalg.svd(prods, compute_uv=False)[:, 0]
            worst = max(worst, float(np.abs(svals - target).max()))
            pairs += ia.size
        good = worst <= 1e-10 and pairs > 0
        if p == 3:
            good = good and abs(target - 0.5773502692) < 1e-10
        ok = ok and good
        parts.append(f"p={p}: {pairs} pairs, target {target:.10f}, worst dev {worst:.2e}")
    _criterion(5, ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 6. sampled balanced fibres beat the hyperplane gap floor


def test_criterion_06_heisenberg_fibre_gap():
    gamma = hyperplane_gap_floor(3, 0.5)
    ok = True
    parts = []
    for r, seed in ((8, 60), (16, 61)):
        sample = sample_balanced_frozen_tuples(r, 3, 1, 0.5, 1000, seed=seed)
        codes = sample["V"] @ np.array([1, 3]) + 9 * sample["Z"]  # element codes (v, z)
        assert codes.shape == (1000, r - 1)
        gmin = 1.0
        for row in codes:
            K = build_fibre_kernel("heisenberg", row, p=3, m=1)
            gmin = min(gmin, spectral.spectral_gap(K))
        ok = ok and gmin >= gamma
        parts.append(f"r={r}: min gap {gmin:.6f} over 10^3 tuples")
    _criterion(6, ok, "; ".join(parts) + f"; floor {gamma:.6f}")


# ---------------------------------------------------------------------------
# 7. birth-death formulas against simulation


def test_criterion_07_birth_death_formulas():
    # one-step frequencies, 10^6 steps at r=12
    params12 = BDParams(12, 3)
    freq = support_transition_frequencies(12, 3, 1_000_000, seed=0)
    worst_z = 0.0
    cells = 0
    edges_ok = True
    for s in range(1, 13):
        visits = int(freq["visits"][s])
        if visits == 0:
            continue
        birth, death = bd_probs(s, params12)
        for hat, exact in ((freq["birth_hat"][s], birth), (freq["death_hat"][s], death)):
            if exact in (0.0, 1.0):
                edges_ok = edges_ok and hat == exact
                continue
            sigma = math.sqrt(exact * (1.0 - exact) / visits)
            worst_z = max(worst_z, abs(float(hat) - exact) / sigma)
            cells += 1
    freq_ok = worst_z <= 3.0 and edges_ok and cells >= 20

    # mean hitting time of the 2r/3 support level at r=20
    params20 = BDParams(20, 3)
    target = math.ceil(2 * 20 / 3)
    exact_hit = bd_hitting_time(1, target, params20)
    mc = bd_hitting_mc(1, target, params20, trials=10_000, seed=5)
    rel = abs(mc["mean"] - exact_hit) / exact_hit
    hit_ok = rel <= 0.02 and mc["unfinished"] == 0

    # crossing probability against the embedded jump chain
    exact_cross = bd_crossing_prob(4, 2, 8, params12)
    mcx = embedded_crossing_mc(4, 2, 8, params12, trials=10_000, seed=5)
    sigma = math.sqrt(exact_cross * (1.0 - exact_cross) / mcx["trials"])
    z_cross = abs(mcx["estimate"] - exact_cross) / sigma
    cross_ok = z_cross <= 3.0

    _criterion(
        7,
        freq_ok and hit_ok and cross_ok,
        f"frequencies worst z {worst_z:.2f} over {cells} cells; hitting 1->{target} "
        f"rel err {rel:.4f}; crossing z {z_cross:.2f}",
    )


# ---------------------------------------------------------------------------
# 8. the two large-deviation rates agree on the matched arguments


def test_criterion_08_rate_identity():
    worst = 0.0
    for p in (3, 5, 7):
        for beta in np.linspace(1.0 / p + 1e-3, 0.999, 60):
            dev = abs(rate_J(p, 1.0 - beta, (p - 1) / p) - rate_I(p, float(beta)))
            worst = max(worst, dev)
    _criterion(8, worst <= 1e-8, f"p in {{3,5,7}}, 60-point grids, worst dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. entropy machinery: four bounds, 500 randomized trials each


def test_criterion_09_entropy_machinery(stief32):
    _, _, P, _ = stief32
    size = P.shape[0]
    rng = np.random.default_rng(90)

    tensor_bad = 0
    for _ in range(500):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(2, 5)) for _ in range(ndim))
        F = rng.random(shape) + 0.05
        lhs, rhs = spectral.tensorization_sides(F)
        if lhs > rhs + 1e-10:
            tensor_bad += 1

    decay_bad = 0
    for _ in range(500):
        mask = rng.random(size) < rng.uniform(0.2, 0.9)
        if not mask.any() or mask.all():
            mask[rng.integers(0, size)] = True
            mask[: size // 2] = False
        ext = spectral.ambient_lsi_A_for_good_support(P, mask)
        KG, _ = spectral.killed_kernel(P, mask)
        g = int(mask.sum())
        rho_g = np.full(g, 1.0 / g)
        u0 = rng.random(g) + 0.01
        t_grid = np.sort(rng.uniform(0.0, 40.0, size=3))
        report = spectral.entropy_decay_check(
            KG, rho_g, u0, t_grid, ext["A"], check_hypothesis=False
        )
        decay_bad += report["violations"]

    subprob_bad = 0
    for _ in range(500):
        rho = rng.random(int(rng.integers(2, 40))) + 0.05
        rho /= rho.sum()
        lam = rho * rng.uniform(0.0, 1.0, size=rho.size)
        actual, bound = spectral.subprob_tv_bound(lam, rho)
        if actual > bound + 1e-10:
            subprob_bad += 1

    path_bad = 0
    for _ in range(500):
        mask = rng.random(size) < rng.uniform(0.3, 0.9)
        if not mask.any():
            mask[rng.integers(0, size)] = True
        x = int(rng.integers(0, size))
        s = int(rng.integers(0, 25))
        t = float(rng.uniform(0.0, 30.0))
        L = int(rng.integers(1, 50))
        tv, bound = spectral.path_comparison_check(P, mask, x, s, t, L)
        if tv > bound + 1e-10:
            path_bad += 1

    ok = tensor_bad == subprob_bad == decay_bad == path_bad == 0
    _criterion(
        9,
        ok,
        "500 trials each: tensorization "
        f"{tensor_bad}, killed decay {decay_bad}, subprobability TV {subprob_bad}, "
        f"path comparison {path_bad} violations",
    )


# ---------------------------------------------------------------------------
# 10. pipeline bound dominates the exact continuous-time TV on Stief(4,2)


def test_criterion_10_pipeline_dominates():
    walk = TransvectionWalk(4, 2)
    space, P = _dense_walk(walk)
    states = np.array([space.state_at(i) for i in range(space.size)], dtype=np.int64)
    mask = good_mask_rows(states, transvection_good_set(4, 2))
    ext = spectral.ambient_lsi_A_for_good_support(P, mask)
    eta, _ = spectral.worst_exit_probability(P, mask, 50, 30)
    pi = np.full(space.size, 1.0 / space.size)
    ok = True
    parts = []
    for t_star in (5.0, 25.0):
        rep = spectral.pipeline_report(
            A=ext["A"],
            omega_size=space.size,
            pi_gc=1.0 - float(mask.mean()),
            eta=eta,
            L=30,
            t_star=t_star,
        )
        t_total = rep.t_mix_cont_upper
        hk = scipy.linalg.expm(t_total * (P - np.eye(space.size)))
        exact_tv = 0.5 * float(np.abs(hk - pi[None, :]).sum(axis=1).max())
        ok = ok and rep.tv_bound >= exact_tv - 1e-12
        parts.append(f"t*={t_star:g}: bound {rep.tv_bound:.3f} vs exact {exact_tv:.2e}")
    _criterion(10, ok, f"Stief(4,2), A={ext['A']:.3f}; " + "; ".join(parts))


# ---------------------------------------------------------------------------
# 11. mixing-time table trends, MC crossing window, counting lower bound


def test_criterion_11_mixing_trends():
    taus = {}
    slack_min = math.inf
    for n, k in ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (4, 3)):
        walk = TransvectionWalk(n, k, laziness=0.5)
        space, P = _dense_walk(walk)
        pi = 1.0 / space.size
        At = np.eye(space.size)
        for t in range(0, 200):
            worst = 0.5 * float(np.abs(At - pi).sum(axis=1).max())
            lower = tv_counting_lower(t, walk.counting_move_bound, space.size)
            slack_min = min(slack_min, worst - lower)
            if worst <= 0.25:
                taus[(n, k)] = t
                break
            At = At @ P
        else:  # pragma: no cover - mixing is fast on these instances
            taus[(n, k)] = math.inf
    monotone = all(
        taus[a] <= taus[b]
        for a, b in (
            ((4, 1), (5, 1)),
            ((5, 1), (6, 1)),
            ((4, 2), (5, 2)),
            ((4, 1), (4, 2)),
            ((4, 2), (4, 3)),
            ((5, 1), (5, 2)),
        )
    )
    counting_ok = slack_min >= -1e-12

    fit_c = []
    for r, trials, tmax in ((16, 6000, 160), (32, 6000, 350)):
        grid = sorted(set([0] + list(np.linspace(1, tmax, 45).astype(int))))
        curve = mc_tv_curve_one_column(r, trials, grid, seed=3)
        fit_c.append(curve["crossing"] / (r * math.log(r)))
    grid64 = sorted(set([0] + list(np.linspace(1, 700, 57).astype(int))))
    curve64 = mc_tv_curve_one_column(64, 10_000, grid64, seed=3)
    c64 = curve64["crossing"] / (64 * math.log(64))
    window = (0.5 * min(fit_c), 2.0 * max(fit_c))
    window_ok = window[0] <= c64 <= window[1]

    table = ", ".join(f"tau({n},{k})={taus[(n, k)]}" for (n, k) in taus)
    _criterion(
        11,
        monotone and counting_ok and window_ok,
        f"{table}; counting slack {slack_min:.1e}; n=64 crossing "
        f"{curve64['crossing']:.0f} (C={c64:.2f} in [{window[0]:.2f}, {window[1]:.2f}])",
    )


# ---------------------------------------------------------------------------
# 12. burn-in occupancy beyond the mixing scale


def _one_column_floor(n: int) -> Fraction:
    """Uniform mass on F_2^n \\ 0 of the unbalanced set, 4 |n - 2 w| > n.

    A mixed one-column walk sits at this occupancy failure, so no chain can
    stay below it after burn-in.
    """
    bad = sum(math.comb(n, w) for w in range(1, n + 1) if 4 * abs(n - 2 * w) > n)
    return Fraction(bad, 2**n - 1)


def test_criterion_12_burnin_occupancy():
    # one-column walk at n=64, checked at and beyond 10 n log n: by then the
    # failure rate has reached the exact stationary floor pi(G^c)
    assert _one_column_floor(8) == Fraction(73, 255)
    floor = float(_one_column_floor(64))
    t_occ = math.ceil(10 * 64 * math.log(64))
    oc = burnin_occupancy(
        OneColumnWalk(64, 2),
        transvection_good_set(64, 1),
        [t_occ, math.ceil(1.5 * t_occ)],
        trials=10_000,
        seed=11,
    )
    oc_ok = bool(((oc["ci_low"] <= floor) & (floor <= oc["ci_high"])).all())

    # group walk at r=32: fit the burn-in scale C r log r at r in {16, 24}
    c_fit = 0.0
    for r, tmax in ((16, 400), (24, 600)):
        rep = burnin_occupancy(
            PaPraWalk(r, 3, 1),
            heisenberg_good_set(r, 3, 1, 0.731),
            np.arange(0, tmax + 1, 25),
            trials=4000,
            seed=7,
        )
        hit = [int(t) for t, hi in zip(rep["times"], rep["ci_high"]) if hi < 0.01]
        assert hit, f"burn-in at r={r} never dropped below 1%"
        c_fit = max(c_fit, hit[0] / (r * math.log(r)))
    t32 = math.ceil(c_fit * 32 * math.log(32))
    pp = burnin_occupancy(
        PaPraWalk(32, 3, 1),
        heisenberg_good_set(32, 3, 1, 0.731),
        [t32, math.ceil(1.5 * t32)],
        trials=10_000,
        seed=11,
    )
    pp_ok = bool((pp["ci_high"] < 0.01).all())

    _criterion(
        12,
        oc_ok and pp_ok,
        f"one-column n=64 vs floor pi(G^c)={floor}: "
        + ", ".join(
            f"t={t} failure {f:.4f} (99% CI [{lo:.4f}, {hi:.4f}])"
            for t, f, lo, hi in zip(oc["times"], oc["failure"], oc["ci_low"], oc["ci_high"])
        )
        + f"; group walk r=32 at t={t32}: "
        f"failure {pp['failure'][0]:.4f} (99% CI up to {pp['ci_high'][0]:.4f})",
    )
