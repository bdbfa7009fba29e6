"""Gaps, Dirichlet forms, entropy functionals, killed chains, and the TV pipeline."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from scipy.sparse import csr_matrix

from groupwalks import spectral
from groupwalks.chains import OneColumnWalk, PaPraWalk, TransvectionWalk, build_fibre_kernel
from groupwalks.diagnostics import good_mask_rows, transvection_good_set
from groupwalks.errors import BudgetError, ConfigError, DimensionMismatch, ReversibilityError
from groupwalks.spectral import (
    ambient_lsi_A_for_good_support,
    check_reversibility,
    dirichlet_form,
    entropy,
    entropy_decay_check,
    exit_probability_exact,
    fibre_eigenvalues_tr,
    gap_lsi_bound,
    killed_kernel,
    lsi_estimate,
    path_comparison_check,
    pipeline_report,
    poincare_constant,
    poisson_cdf_lt,
    poisson_tail_gt,
    semigroup_evolve,
    spectral_gap,
    spectrum,
    subprob_tv_bound,
    tensorization_sides,
    tv_signed,
    variance,
    worst_exit_probability,
)
from test_diagnostics import EXACT_SWEEP


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _uniform_kernel(M):
    return np.full((M, M), 1.0 / M)


def _two_state(q):
    return np.array([[1 - q, q], [q, 1 - q]])


@pytest.fixture(scope="module", params=[(4, 0.0), (4, 0.25), (5, 0.0), (5, 0.25)],
                ids=["4", "4-q0.25", "5", "5-q0.25"])
def stiefel_kernels(request):
    """(dense P, CSR operator S, transvection good mask) of Stief(n, 2) at laziness q."""
    n, q = request.param
    walk = TransvectionWalk(n, 2, laziness=q)
    space = walk.space()
    rows = np.array([space.state_at(i) for i in range(space.size)], dtype=np.int64)
    return walk.dense(space), walk.operator(space), good_mask_rows(rows, transvection_good_set(n, 2))


# ---------------------------------------------------------------------------
# gaps and eigenvalues


class TestSpectralGap:
    def test_uniform_kernel(self):
        assert spectral_gap(_uniform_kernel(7)) == pytest.approx(1.0)

    def test_identity_kernel(self):
        assert spectral_gap(np.eye(5)) == pytest.approx(0.0)

    def test_cancelling_fibre(self):
        fk = build_fibre_kernel("transvection", (1, 0), k=1)
        assert spectral_gap(fk) == pytest.approx(1.0)

    def test_non_reversible_rejected(self):
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ReversibilityError):
            spectral_gap(P)

    def test_gap_in_range_on_random_symmetric_kernels(self):
        rng = _rng(1)
        for _ in range(20):
            A = rng.random((6, 6))
            S = A + A.T
            P = S / S.sum(axis=1, keepdims=True)
            # symmetrize the tiny stochasticity error away via pi-weighting
            pi = S.sum(axis=1) / S.sum()
            g = spectral_gap(P, pi)
            assert 0.0 <= g <= 2.0


def _dense_spectrum(P, pi=None):
    return np.linalg.eigvalsh(check_reversibility(P, pi))[::-1]


def _invariant_kernel(gens, seed=0):
    """A random kernel that commutes with the involutions `gens` and is
    reversible for its non-uniform law: W averages a symmetric weight matrix
    over the group, and K is W with its rows normalised.  The weights are
    integers, so the sums, and the law, are exactly invariant."""
    M = gens.shape[1]
    A = _rng(seed).integers(1, 100, (M, M)).astype(float)
    W = A + A.T
    for g in gens:
        W = W + W[g][:, g]
    return W / W.sum(axis=1, keepdims=True), W.sum(axis=1) / W.sum()


class TestSymmetryBlocks:
    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("cls,args", EXACT_SWEEP + [(PaPraWalk, (2, 3, 1))])
    def test_blocks_equal_the_dense_spectrum(self, cls, args, q, monkeypatch):
        walk = cls(*args, laziness=q)
        space = walk.space()
        P = walk.dense(space)
        expect = _dense_spectrum(P)
        assert np.array_equal(spectrum(P), expect)
        monkeypatch.setattr(spectral, "_BLOCK_MIN_STATES", 0)
        got = spectrum(P, symmetries=walk.symmetries(space))
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    def test_sparse_operator_gives_the_dense_spectrum(self, n):
        walk = TransvectionWalk(n, 2, laziness=0.25)
        space = walk.space()
        gens = walk.symmetries(space)
        assert np.array_equal(spectrum(walk.operator(space), symmetries=gens),
                              spectrum(walk.dense(space), symmetries=gens))

    def test_kernel_consumers_take_the_sparse_operator(self):
        walk = TransvectionWalk(3, 2, laziness=0.25)
        space = walk.space()
        f = np.arange(space.size, dtype=float)
        calls = [
            spectral_gap,
            check_reversibility,
            gap_lsi_bound,
            lambda K: dirichlet_form(K, None, f),
            lambda K: lsi_estimate(K, restarts=2, steps=20).value,
            lambda K: entropy_decay_check(K, None, 0.5 + f / f.sum(), [0.5, 2.0], 10.0,
                                          check_hypothesis=False),
        ]
        for call in calls:
            np.testing.assert_equal(call(walk.operator(space)), call(walk.dense(space)))

    def test_below_the_crossover_is_the_dense_solve(self):
        walk = OneColumnWalk(4, 3, laziness=0.25)
        space = walk.space()
        assert space.size < spectral._BLOCK_MIN_STATES
        P = walk.dense(space)
        assert np.array_equal(spectrum(P, symmetries=walk.symmetries(space)), _dense_spectrum(P))

    def test_weighted_law_and_fixed_points(self, monkeypatch):
        """Orbits of sizes 1, 2 and 4, so stabilisers of three sizes, under
        a non-uniform law."""
        monkeypatch.setattr(spectral, "_BLOCK_MIN_STATES", 0)
        gens = np.array([[1, 0, 3, 2, 5, 4, 6, 7, 8, 9, 10, 11],
                         [2, 3, 0, 1, 4, 5, 7, 6, 9, 8, 10, 11]])
        K, pi = _invariant_kernel(gens)
        assert not np.allclose(pi, pi[0])
        np.testing.assert_allclose(spectrum(K, pi, symmetries=gens), _dense_spectrum(K, pi),
                                   rtol=0, atol=1e-12)

    def test_asymmetric_kernel_raises_on_the_block_path(self, monkeypatch):
        monkeypatch.setattr(spectral, "_BLOCK_MIN_STATES", 0)
        cycle = np.roll(np.eye(8), 1, axis=1)  # x -> x + 1, doubly stochastic
        half_turn = (np.arange(8) + 4) % 8  # commutes with the cycle
        with pytest.raises(ReversibilityError):
            spectrum(cycle, symmetries=[half_turn])

    @pytest.mark.parametrize("gens,pi,error", [
        ([[1, 2, 0, 3]], None, "commuting involutions"),  # a 3-cycle
        ([[1, 0, 2, 3], [0, 2, 1, 3]], None, "commuting involutions"),  # (0 1), (1 2)
        ([[1, 0, 2]], None, "array of state indices"),
        ([[1, 0, 2, 4]], None, "array of state indices"),
        ([[1, 0, 2, 3]], [0.1, 0.2, 0.3, 0.4], "not invariant"),
    ])
    def test_bad_symmetries_rejected(self, gens, pi, error, monkeypatch):
        monkeypatch.setattr(spectral, "_BLOCK_MIN_STATES", 0)
        with pytest.raises(ValueError, match=error):
            spectrum(_uniform_kernel(4), pi, symmetries=gens)


class TestFibreEigenvalues:
    def test_trivial_functional_eigenvalue(self):
        evs = fibre_eigenvalues_tr(0, (1, 0), k=1)
        assert evs[0] == pytest.approx(1.0)

    def test_cancellation_example(self):
        evs = fibre_eigenvalues_tr(0, (1, 0), k=1)
        assert evs[1] == pytest.approx(0.0)

    def test_matches_dense_eigendecomposition(self):
        rng = _rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, 4))
            frozen = tuple(int(x) for x in rng.integers(0, 1 << k, n - 1))
            evs = fibre_eigenvalues_tr(0, frozen, k=k)
            fk = build_fibre_kernel("transvection", frozen, k=k)
            dense = np.sort(np.linalg.eigvalsh(fk))
            formula = np.sort(np.array([evs[x] for x in range(1 << k)]))
            assert np.abs(dense - formula).max() < 1e-10

    def test_balanced_fibre_envelope_exhaustive(self):
        # every fibre whose completion can be balanced keeps all nontrivial
        # eigenvalues within (n/4 + 1)/(n - 1) in absolute value
        n, k = 12, 2
        W = 1 << k
        codes = np.arange(W)
        parity = np.bitwise_count(codes[:, None] & codes[None, :]).astype(np.int64) & 1
        sgn = 1 - 2 * parity
        bound = (n / 4 + 1) / (n - 1)

        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        checked = 0
        for comp in compositions(n - 1, W):
            vec = np.array(comp)
            meets = False
            for w in range(W):
                full = vec.copy()
                full[w] += 1
                if (4 * np.abs(sgn[1:] @ full) <= n).all():
                    meets = True
                    break
            if not meets:
                continue
            eigs = (sgn[1:] @ vec) / (n - 1)
            assert np.abs(eigs).max() <= bound + 1e-12
            checked += 1
        assert checked == 28


# ---------------------------------------------------------------------------
# Dirichlet forms, entropy, Poincare


class TestDirichletForm:
    def test_constant_function(self):
        P = _two_state(0.3)
        rho = np.array([0.5, 0.5])
        assert dirichlet_form(P, rho, np.ones(2)) == pytest.approx(0.0)

    def test_identity_kernel(self):
        rho = np.ones(4) / 4
        f = np.arange(4.0)
        assert dirichlet_form(np.eye(4), rho, f) == pytest.approx(0.0)

    def test_two_state_indicator(self):
        P = _two_state(0.5)
        rho = np.array([0.5, 0.5])
        f = np.array([0.0, 1.0])
        assert dirichlet_form(P, rho, f) == pytest.approx(0.25)

    def test_quadratic_form_identity(self):
        # E(f, f) = <f, (I - K) f>_rho for stochastic and substochastic kernels
        rng = _rng(3)
        P = _two_state(0.2)
        rho = np.array([0.5, 0.5])
        for _ in range(20):
            f = rng.standard_normal(2)
            direct = dirichlet_form(P, rho, f)
            quad = float(rho @ (f * (f - P @ f)))
            assert direct == pytest.approx(quad)

    def test_bilinear_symmetric(self):
        rng = _rng(4)
        P = _uniform_kernel(5)
        rho = np.ones(5) / 5
        f, g = rng.standard_normal(5), rng.standard_normal(5)
        assert dirichlet_form(P, rho, f, g) == pytest.approx(dirichlet_form(P, rho, g, f))


class TestEntropy:
    def test_constant_density(self):
        rho = np.ones(6) / 6
        assert entropy(rho, np.ones(6)) == pytest.approx(0.0)

    def test_point_mass_density(self):
        M = 8
        rho = np.ones(M) / M
        u = np.zeros(M)
        u[3] = M
        assert entropy(rho, u) == pytest.approx(math.log(M))

    def test_nonnegative_on_random_densities(self):
        rng = _rng(5)
        rho = np.ones(10) / 10
        for _ in range(100):
            u = rng.random(10) * 3
            assert entropy(rho, u) >= -1e-12

    def test_matches_direct_formula_when_normalized(self):
        rng = _rng(6)
        rho = np.ones(5) / 5
        f = rng.random(5) + 0.1
        f /= math.sqrt(float(rho @ (f * f)))
        u = f * f
        direct = float(rho @ (u * np.log(u)))
        assert entropy(rho, u) == pytest.approx(direct)


class TestPoincare:
    def test_uniform_kernel(self):
        assert poincare_constant(_uniform_kernel(9)) == pytest.approx(1.0)

    def test_two_state_flip(self):
        for q in (0.1, 0.25, 0.5):
            assert poincare_constant(_two_state(q)) == pytest.approx(1.0 / (2 * q))

    def test_zero_gap_signals_infinity(self):
        assert poincare_constant(np.eye(3)) == math.inf

    def test_variance_bound_with_equality_witness(self):
        rng = _rng(7)
        walk = TransvectionWalk(3, 2)
        P = walk.dense()
        rho = np.ones(P.shape[0]) / P.shape[0]
        cp = poincare_constant(P, rho)
        for _ in range(1000):
            f = rng.standard_normal(P.shape[0])
            assert variance(rho, f) <= cp * dirichlet_form(P, rho, f) + 1e-10
        # the second eigenfunction achieves the constant
        S = check_reversibility(P, rho)
        evs, vecs = np.linalg.eigh(S)
        f2 = vecs[:, -2] / np.sqrt(rho)
        ratio = variance(rho, f2) / dirichlet_form(P, rho, f2)
        assert ratio == pytest.approx(cp, rel=1e-9)

    def test_gap_lsi_bound_formula(self):
        P = _two_state(0.25)
        rho = np.array([0.5, 0.5])
        expect = 4.0 * 2.0 * math.log(2.0)
        assert gap_lsi_bound(P, rho) == pytest.approx(expect)
        assert gap_lsi_bound(P, rho, C=1.0) == pytest.approx(expect / 4)


# ---------------------------------------------------------------------------
# numeric log-Sobolev constants


class TestLsiNumeric:
    def test_two_state_uniform_flip(self):
        # 1-parameter family oracle: f = (cos t, sin t) maximizes the
        # entropy/energy ratio at 2 for the flip-1/2 chain
        K = _two_state(0.5)
        best = 0.0
        for th in np.linspace(1e-4, math.pi / 2 - 1e-4, 4001):
            f = np.array([math.cos(th), math.sin(th)])
            m = float((f * f).mean())
            ent = float((f * f * np.log(f * f)).mean() - m * math.log(m))
            var = float(((f - f.mean()) ** 2).mean())
            if var > 1e-15:
                best = max(best, ent / var)
        assert best == pytest.approx(2.0, abs=1e-5)
        got = lsi_estimate(K).value
        assert got == pytest.approx(2.0, abs=1e-4)

    def test_certificate_is_a_real_ratio(self):
        P = _uniform_kernel(6)
        est = lsi_estimate(P)
        rho = np.ones(6) / 6
        f = est.witness
        ent = entropy(rho, f * f)
        dir_ = dirichlet_form(P, rho, f)
        assert est.value == pytest.approx(ent / dir_, rel=1e-6)
        # the near-constant family pushes the ratio to 2 * C_P from below
        assert est.value >= 2.0 * poincare_constant(P) - 1e-4

    def test_laziness_doubles_the_constant(self):
        P = _uniform_kernel(4)
        Q = 0.5 * (np.eye(4) + P)
        a = lsi_estimate(P, seed=3).value
        b = lsi_estimate(Q, seed=3).value
        assert b == pytest.approx(2 * a, rel=0.05)

    def test_size_cap(self):
        with pytest.raises(BudgetError):
            lsi_estimate(_uniform_kernel(8), size_cap=4)

    def test_size_cap_refuses_before_densifying(self, monkeypatch):
        def densify(self, *args, **kwargs):
            raise AssertionError("a refused kernel was densified")

        K = csr_matrix(_uniform_kernel(65))
        monkeypatch.setattr(csr_matrix, "toarray", densify)
        with pytest.raises(BudgetError):
            lsi_estimate(K)

    def test_reducible_chain_reports_infinity(self):
        P = np.eye(4)
        assert lsi_estimate(P).value == math.inf

    @pytest.mark.parametrize("kwargs", [{"restarts": -2}, {"steps": -1}])
    def test_negative_restarts_or_steps_refused(self, kwargs):
        walk = TransvectionWalk(3, 2)
        with pytest.raises(ConfigError, match="must be nonnegative"):
            lsi_estimate(walk.dense(walk.space()), **kwargs)


# ---------------------------------------------------------------------------
# killed kernels and semigroups


class TestKilledKernel:
    def test_full_space(self):
        P = _two_state(0.3)
        K, delta = killed_kernel(P, np.array([True, True]))
        assert np.array_equal(K, P) and not K.flags.writeable
        assert delta == pytest.approx(0.0)

    def test_substochastic_rows_checked(self):
        K, delta = killed_kernel(0.5 * _two_state(0.3), np.array([True, True]))
        assert K.shape == (2, 2) and delta == pytest.approx(0.5)
        for P in (2 * _two_state(0.3), np.array([[0.5, -0.1], [0.2, 0.3]])):
            with pytest.raises(ValueError, match="not substochastic"):
                killed_kernel(P, np.array([True, True]))

    def test_single_state(self):
        P = _two_state(0.3)
        K, delta = killed_kernel(P, np.array([True, False]))
        assert delta == pytest.approx(0.3)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            killed_kernel(_two_state(0.3), np.array([False, False]))

    def test_killing_rate_bound_on_random_subsets(self):
        walk = TransvectionWalk(3, 2)
        P = walk.dense()
        M = P.shape[0]
        pi = np.ones(M) / M
        rng = _rng(8)
        for _ in range(100):
            mask = rng.random(M) < rng.uniform(0.2, 0.9)
            if not mask.any() or mask.all():
                continue
            _, delta = killed_kernel(P, mask, pi)
            pi_gc = float(pi[~mask].sum())
            pi_g = float(pi[mask].sum())
            assert delta <= pi_gc / pi_g + 1e-12

    def test_operator_equals_dense(self, stiefel_kernels):
        P, S, mask = stiefel_kernels
        (KP, dP), (KS, dS) = killed_kernel(P, mask), killed_kernel(S, mask)
        assert np.array_equal(KS, KP) and dS == dP
        assert ambient_lsi_A_for_good_support(S, mask) == ambient_lsi_A_for_good_support(P, mask)


class TestSemigroup:
    def test_time_zero(self):
        P = _two_state(0.3)
        u0 = np.array([1.0, 0.0])
        assert np.abs(semigroup_evolve(P, u0, 0.0) - u0).max() < 1e-15

    def test_identity_kernel_is_stationary(self):
        u0 = np.array([0.2, 0.8])
        for t in (0.5, 3.0, 10.0):
            out = semigroup_evolve(np.eye(2), u0, t)
            assert np.abs(out - u0).max() < 1e-11

    def test_matches_matrix_exponential(self):
        rng = _rng(9)
        for _ in range(10):
            A = rng.random((5, 5))
            P = A / A.sum(axis=1, keepdims=True)
            u0 = rng.random(5)
            u0 /= u0.sum()
            t = float(rng.uniform(0.1, 8.0))
            direct = u0 @ scipy.linalg.expm(t * (P - np.eye(5)))
            series = semigroup_evolve(P, u0, t, mode="distribution")
            assert np.abs(direct - series).max() < 1e-10

    def test_killed_mass_nonincreasing(self):
        walk = TransvectionWalk(3, 2)
        P = walk.dense()
        M = P.shape[0]
        mask = np.zeros(M, dtype=bool)
        mask[: M // 2] = True
        K = P[np.ix_(mask, mask)]
        u0 = np.zeros(int(mask.sum()))
        u0[0] = 1.0
        last = 1.0
        for t in np.linspace(0.0, 12.0, 13):
            mass = float(semigroup_evolve(K, u0, float(t), mode="distribution").sum())
            assert mass <= last + 1e-12
            last = mass

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            semigroup_evolve(np.eye(2), np.array([1.0, 0.0]), -0.5)

    @pytest.mark.parametrize("t", [0.0, 2.5, 30.0])
    def test_operator_equals_dense(self, stiefel_kernels, t):
        P, S, mask = stiefel_kernels
        rows = np.eye(P.shape[0])[:: P.shape[0] // 7]
        for mode, u0 in (("distribution", rows), ("distribution", rows[1]),
                         ("function", rows.T), ("function", mask.astype(float))):
            got = semigroup_evolve(S, u0, t, mode=mode)
            assert got.shape == u0.shape
            np.testing.assert_allclose(got, semigroup_evolve(P, u0, t, mode=mode), rtol=0, atol=1e-14)


class TestPoissonTails:
    def test_tail_matches_scipy(self):
        for t in (0.3, 2.0, 17.5, 140.0):
            for L in (0, 1, 5, 40, 200):
                mine = poisson_tail_gt(t, L)
                ref = float(scipy.stats.poisson.sf(L, t))
                assert mine == pytest.approx(ref, rel=1e-9, abs=1e-14)

    def test_lower_tail_matches_scipy(self):
        for t in (1.0, 9.0, 64.0):
            for n in (0.5, 3.0, 30.0):
                mine = poisson_cdf_lt(t, n)
                ref = float(scipy.stats.poisson.cdf(math.ceil(n) - 1, t))
                assert mine == pytest.approx(ref, rel=1e-9, abs=1e-14)


# ---------------------------------------------------------------------------
# subprobability TV and entropy decay


class TestSubprobTv:
    def test_equal_distributions(self):
        rho = np.ones(4) / 4
        actual, bound = subprob_tv_bound(rho, rho)
        assert actual == pytest.approx(0.0)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_zero_measure(self):
        rho = np.ones(4) / 4
        actual, bound = subprob_tv_bound(np.zeros(4), rho)
        assert actual == pytest.approx(1.0)
        assert bound == pytest.approx(1.0)

    def test_never_violated_on_random_subprobabilities(self):
        rng = _rng(10)
        M = 42
        rho = np.ones(M) / M
        for _ in range(1000):
            lam = rng.random(M)
            lam *= rng.uniform(0.0, 1.0) / lam.sum()
            actual, bound = subprob_tv_bound(lam, rho)
            assert actual <= bound + 1e-12

    def test_null_set_support_rejected(self):
        rho = np.array([0.5, 0.5, 0.0])
        lam = np.array([0.2, 0.2, 0.2])
        with pytest.raises(ValueError):
            subprob_tv_bound(lam, rho)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            subprob_tv_bound([0.5, 0.5], [1.0])


class TestEntropyDecay:
    def test_stationary_density_stays_flat(self):
        P = _uniform_kernel(6)
        rho = np.ones(6) / 6
        report = entropy_decay_check(P, rho, np.ones(6), [0.0, 1.0, 5.0], A=2.0,
                                     check_hypothesis=False)
        assert report["delta"] == pytest.approx(0.0)
        assert report["violations"] == 0
        for pt in report["points"]:
            assert pt["lhs"] == pytest.approx(0.0, abs=1e-12)

    def test_long_time_limit(self):
        walk = TransvectionWalk(3, 2)
        P = walk.dense()
        M = P.shape[0]
        pi = np.ones(M) / M
        mask = np.zeros(M, dtype=bool)
        mask[: M // 2] = True
        KG, _ = killed_kernel(P, mask, pi)
        rho_g = pi[mask] / pi[mask].sum()
        A = 50.0
        report = entropy_decay_check(KG, rho_g, np.ones(int(mask.sum())), [1e4],
                                     A=A, check_hypothesis=False)
        pt = report["points"][0]
        # at t >> A the bound settles at the equilibrium level A * delta * m0
        assert pt["rhs"] == pytest.approx(A * report["delta"] * report["mass0"], rel=1e-6)
        assert pt["lhs"] <= pt["rhs"] + 1e-10

    def test_decay_inequality_on_killed_chain(self):
        walk = TransvectionWalk(4, 2)
        space = walk.space()
        P = walk.dense(space)
        spec = transvection_good_set(4, 2)
        rows = np.array([space.state_at(i) for i in range(space.size)], dtype=np.int64)
        mask = good_mask_rows(rows, spec)
        pi = np.ones(space.size) / space.size
        ext = ambient_lsi_A_for_good_support(P, mask, pi)
        KG, _ = killed_kernel(P, mask, pi)
        rho_g = pi[mask] / pi[mask].sum()
        rng = _rng(11)
        t_grid = np.linspace(0.0, 30.0, 10)
        for _ in range(20):
            u0 = rng.random(int(mask.sum()))
            report = entropy_decay_check(KG, rho_g, u0, t_grid, A=ext["A"],
                                         check_hypothesis=False)
            assert report["violations"] == 0

    @pytest.mark.parametrize("A", [-1.0, 0.0, math.nan])
    def test_nonpositive_A_refused(self, A):
        with pytest.raises(ConfigError, match="must be positive"):
            entropy_decay_check(_uniform_kernel(2), None, np.ones(2), [1.0], A=A)

    def test_infinite_A_allowed(self):
        report = entropy_decay_check(_uniform_kernel(2), None, np.ones(2), [1.0], A=math.inf)
        assert report["A"] == math.inf and report["hypothesis_ok"]

    def test_infinite_A_uses_the_limit_bound(self):
        # as A -> inf, A (1 - e^{-t/A}) -> t: the bound is H(u0) + delta m0 t, not inf * 0
        K = np.array([[0.3, 0.2], [0.2, 0.3]])
        report = entropy_decay_check(K, None, np.array([1.5, 0.5]), [1, 5], A=math.inf,
                                     check_hypothesis=False)
        slacks = []
        for pt in report["points"]:
            limit = report["entropy0"] + report["delta"] * report["mass0"] * pt["t"]
            assert math.isfinite(pt["rhs"]) and pt["rhs"] == pytest.approx(limit, rel=1e-12)
            slacks.append(pt["lhs"] - pt["rhs"])
        assert report["max_slack"] == max(slacks)


# ---------------------------------------------------------------------------
# pipeline quantities


class TestPipelineReport:
    def test_degenerate_omega(self):
        rep = pipeline_report(A=1.0, omega_size=1, pi_gc=0.0, eta=0.0, L=5, t_star=1.0)
        assert rep.t_conf == pytest.approx(2.0)

    def test_formula_identities(self):
        A, M, pi_gc, eta, L, t_star = 3.0, 210, 0.2, 0.05, 12, 25.0
        rep = pipeline_report(A, M, pi_gc, eta, L, t_star)
        t_conf = 2 * A * math.log(math.e + math.log(M))
        assert rep.t_conf == pytest.approx(t_conf)
        R = math.exp(-t_conf / A) * math.log(M) + A * pi_gc / (1 - pi_gc)
        assert rep.R == pytest.approx(R)
        zeta = poisson_tail_gt(t_conf, L)
        assert rep.zeta == pytest.approx(zeta)
        assert rep.tv_bound == pytest.approx(2 * (eta + zeta) + math.sqrt(R / 2) + pi_gc)
        assert rep.poisson_lower_tail == pytest.approx(poisson_cdf_lt(2 * t_star, t_star))
        assert rep.condition_value == pytest.approx(rep.tv_bound + rep.poisson_lower_tail)
        assert rep.condition_ok == (rep.condition_value <= 0.25)
        assert rep.t_mix_cont_upper == pytest.approx(2 * t_star + t_conf)

    def test_zero_bad_mass_reduces_to_entropy_term(self):
        A, M = 2.0, 100
        rep = pipeline_report(A, M, 0.0, 0.0, 10_000, 1.0)
        R = math.exp(-rep.t_conf / A) * math.log(M)
        assert rep.zeta == pytest.approx(0.0, abs=1e-12)
        assert rep.tv_bound == pytest.approx(math.sqrt(R / 2))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError):
            pipeline_report(0.0, 10, 0.1, 0.0, 5, 1.0)
        with pytest.raises(ConfigError):
            pipeline_report(1.0, 10, 1.0, 0.0, 5, 1.0)
        with pytest.raises(ConfigError):
            pipeline_report(1.0, 0, 0.1, 0.0, 5, 1.0)

    def test_json_round_trip_keys(self):
        rep = pipeline_report(1.0, 42, 0.1, 0.0, 5, 1.0)
        d = rep.to_json_dict()
        assert set(d) == {
            "A", "omega_size", "t_star", "L", "t_conf", "zeta", "R", "eta",
            "pi_good_complement", "tv_bound", "poisson_lower_tail",
            "condition_value", "condition_ok", "t_mix_cont_upper",
        }


@pytest.fixture(scope="module")
def small_walk():
    walk = TransvectionWalk(3, 2)
    P = walk.dense()
    # a nontrivial alternating split keeps the killed chain substochastic
    mask = np.zeros(P.shape[0], dtype=bool)
    mask[::2] = True
    return P, mask


def _coupled_killed_fraction(P, mask, x_index, s, t, trials, seed):
    """path_comparison_check's Monte Carlo estimate by inverse CDF on the
    dense rows' cumsums, drawn from Philox stream 1."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    cum = np.cumsum(P, axis=1)
    killed = 0
    for _ in range(trials):
        x = x_index
        for _ in range(s):
            x = int(np.searchsorted(cum[x], rng.random()))
        alive = bool(mask[x])
        for _ in range(int(rng.poisson(t)) if alive else 0):
            x = int(np.searchsorted(cum[x], rng.random()))
            if not mask[x]:
                alive = False
                break
        killed += not alive
    return killed / trials


class TestPathComparison:
    def test_full_space_no_discrepancy(self, small_walk):
        P, _ = small_walk
        mask = np.ones(P.shape[0], dtype=bool)
        disc, bound = path_comparison_check(P, mask, 0, s=5, t=2.0, L=10)
        assert disc == pytest.approx(0.0, abs=1e-12)

    def test_negative_trials_refused(self, small_walk):
        # -4 trials used to return a discrepancy of -0.0, which reads as a pass
        P, mask = small_walk
        with pytest.raises(ValueError, match="trials must be nonnegative"):
            path_comparison_check(P, mask, 0, s=5, t=2.0, L=10, trials=-4)

    def test_zero_time_discrepancy_is_exit_mass(self, small_walk):
        P, mask = small_walk
        s = 4
        alpha = np.zeros(P.shape[0])
        alpha[0] = 1.0
        for _ in range(s):
            alpha = alpha @ P
        disc, bound = path_comparison_check(P, mask, 0, s=s, t=0.0, L=10)
        assert disc == pytest.approx(float(alpha[~mask].sum()))

    def test_exact_discrepancy_below_bound(self, small_walk):
        P, mask = small_walk
        rng = _rng(12)
        for _ in range(40):
            s = int(rng.integers(0, 30))
            t = float(rng.uniform(0.0, 8.0))
            L = int(rng.integers(1, 30))
            x = int(rng.integers(P.shape[0]))
            disc, bound = path_comparison_check(P, mask, x, s=s, t=t, L=L)
            assert disc <= bound + 1e-10

    @pytest.mark.parametrize("seed", [3, 11])
    def test_monte_carlo_on_the_operator(self, small_walk, stiefel_kernels, seed):
        # the operator and the dense kernel draw the same trajectories, and
        # those of the dense kernel are the inverse-CDF steps on its row cumsums
        P, S, mask = stiefel_kernels
        Q, good = small_walk
        for dense, op, keep in ((Q, csr_matrix(Q), good), (P, S, mask)):
            x = int(np.flatnonzero(keep)[0])
            want = path_comparison_check(dense, keep, x, s=3, t=1.5, L=6, trials=300, seed=seed)
            assert path_comparison_check(op, keep, x, s=3, t=1.5, L=6, trials=300, seed=seed) == want
            assert want[0] == _coupled_killed_fraction(dense, keep, x, 3, 1.5, 300, seed)

    def test_worst_exit_matches_matrix_power(self, stiefel_kernels):
        P, S, mask = stiefel_kernels
        s, L = 50, 30
        surv = np.linalg.matrix_power(P[np.ix_(mask, mask)], L) @ np.ones(int(mask.sum()))
        eta = 1.0 - np.linalg.matrix_power(P, s)[:, mask] @ surv
        value, worst = worst_exit_probability(P, mask, s, L)
        assert worst == int(np.argmax(eta))
        assert abs(value - min(1.0, float(eta.max()))) < 1e-12
        assert worst_exit_probability(S, mask, s, L) == (value, worst)

    def test_exit_probability_per_start_on_the_operator(self, stiefel_kernels):
        P, S, mask = stiefel_kernels
        s, L = 4, 3
        got = [exit_probability_exact(S, mask, x, s, L) for x in range(P.shape[0])]
        want = [exit_probability_exact(P, mask, x, s, L) for x in range(P.shape[0])]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        value, worst = worst_exit_probability(S, mask, s, L)
        assert got[worst] == value == max(got)

    def test_exit_probability_consistency(self, small_walk):
        P, mask = small_walk
        s, L = 3, 8
        eta, worst = worst_exit_probability(P, mask, s, L)
        per_start = [exit_probability_exact(P, mask, x, s, L) for x in range(P.shape[0])]
        assert eta == pytest.approx(max(per_start))
        assert per_start[worst] == pytest.approx(eta)


_EXIT_CALLS = {
    "worst": lambda P, mask, s, L: worst_exit_probability(P, mask, s, L),
    "at-start": lambda P, mask, s, L: exit_probability_exact(P, mask, 0, s, L),
}


class TestExitProbabilityInputs:
    @pytest.mark.parametrize("call", _EXIT_CALLS.values(), ids=_EXIT_CALLS.keys())
    def test_short_mask_refused(self, small_walk, call):
        P, mask = small_walk
        with pytest.raises(ValueError, match="mask size does not match the kernel"):
            call(P, mask[:-1], 2, 3)

    @pytest.mark.parametrize("x", [-1, 42])
    def test_start_out_of_range_refused(self, small_walk, x):
        P, mask = small_walk
        assert P.shape[0] == 42
        with pytest.raises(ValueError, match="x_index"):
            exit_probability_exact(P, mask, x, 2, 3)

    @pytest.mark.parametrize("call", _EXIT_CALLS.values(), ids=_EXIT_CALLS.keys())
    def test_negative_burn_in_refused(self, small_walk, call):
        P, mask = small_walk
        with pytest.raises(ValueError, match="nonnegative"):
            call(P, mask, -3, 2)

    @pytest.mark.parametrize("call", _EXIT_CALLS.values(), ids=_EXIT_CALLS.keys())
    def test_negative_window_refused(self, small_walk, call):
        P, mask = small_walk
        with pytest.raises(ValueError, match="nonnegative"):
            call(P, mask, 2, -1)


class TestSeeds:
    """lsi_estimate draws on Philox stream 0 and path_comparison_check on
    stream 1 of philox_generator, which takes any integer seed mod 2^64."""

    @staticmethod
    def _runs(P, mask, seed):
        est = lsi_estimate(P, restarts=6, steps=30, seed=seed)
        return est.value, est.witness, path_comparison_check(P, mask, 0, s=3, t=1.0, L=6, trials=200, seed=seed)

    def test_negative_seed(self, small_walk):
        P, mask = small_walk
        value, witness, mc = self._runs(P, mask, -1)
        want = self._runs(P, mask, 2**64 - 1)
        assert value == want[0] and np.array_equal(witness, want[1]) and mc == want[2]

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_nonnegative_seed_keeps_its_draws(self, monkeypatch, small_walk, seed):
        P, mask = small_walk
        got = self._runs(P, mask, seed)
        # the generators built by hand from the key (seed, stream)
        monkeypatch.setattr(spectral, "philox_generator", lambda s, stream: np.random.Generator(
            np.random.Philox(key=np.array([s, stream], dtype=np.uint64))))
        want = self._runs(P, mask, seed)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]) and got[2] == want[2]


# ---------------------------------------------------------------------------
# tensorization


class TestTensorization:
    def test_random_product_functions(self):
        rng = _rng(13)
        shapes = [(4, 4, 4), (2, 2, 2, 2, 2), (8, 8), (3, 3, 3, 3)]
        for _ in range(125):
            for shape in shapes:
                F = rng.standard_normal(shape)
                lhs, rhs = tensorization_sides(F)
                assert lhs <= rhs + 1e-10

    def test_single_coordinate_equality(self):
        rng = _rng(14)
        F = rng.random(16) + 0.2
        lhs, rhs = tensorization_sides(F)
        assert lhs == pytest.approx(rhs)


# ---------------------------------------------------------------------------
# zero extension


class TestZeroExtension:
    def test_ambient_constant_dominates_killed_constant(self):
        for n, k in ((4, 2), (8, 1)):
            walk = TransvectionWalk(n, k)
            space = walk.space(budget=1 << 20)
            if space.size > 600:
                continue
            P = walk.dense(space)
            spec = transvection_good_set(n, k)
            rows = np.array([space.state_at(i) for i in range(space.size)],
                            dtype=np.int64)
            mask = good_mask_rows(rows, spec)
            pi = np.ones(space.size) / space.size
            ext = ambient_lsi_A_for_good_support(P, mask, pi)
            assert math.isfinite(ext["A"])
            assert ext["good_size"] == int(mask.sum())
            assert ext["good_mass"] == pytest.approx(mask.mean())
            KG, _ = killed_kernel(P, mask, pi)
            killed_lsi = lsi_estimate(KG, pi[mask] / pi[mask].sum(), restarts=24,
                                      steps=2000, size_cap=4096).value
            assert killed_lsi <= ext["A"] * (1 + 1e-9)

    def test_spectrum_sorted_descending(self):
        P = _uniform_kernel(5)
        evs = spectrum(P)
        assert evs[0] == pytest.approx(1.0)
        assert np.all(np.diff(evs) <= 1e-12)

    def test_tv_signed_conventions(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.0, 0.5, 0.5])
        assert tv_signed(a, b) == pytest.approx(0.5)
        assert tv_signed(a, a) == 0.0
        with pytest.raises(DimensionMismatch):
            tv_signed([0.5, 0.5], [1.0])
