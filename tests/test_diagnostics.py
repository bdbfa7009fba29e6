"""Good sets, occupancy, mixing-time tables, birth-death analysis, and rates."""

import hashlib
import math
import time

import numpy as np
import pytest

from groupwalks.algebra import FieldVector, LinearFunctional, _digits
from groupwalks.chains import (
    OneColumnWalk,
    PaPraWalk,
    TransvectionWalk,
    build_fibre_kernel,
    philox_generator,
)
from groupwalks import chains as chain_module, diagnostics
from groupwalks.diagnostics import (
    WILSON_Z99,
    BDParams,
    bd_crossing_prob,
    bd_hitting_mc,
    bd_hitting_time,
    bd_probs,
    bd_rho,
    burnin_occupancy,
    canonical_start,
    embedded_crossing_mc,
    good_fibre_gap_scan,
    good_mask_horizontal,
    good_mask_rows,
    good_set_measure,
    heisenberg_good_set,
    hyperplane_gap_floor,
    in_good_set,
    mc_tv_curve_one_column,
    mixing_time_exact,
    n_xi,
    rate_I,
    rate_J,
    s_xi,
    sample_balanced_frozen_tuples,
    select_constants,
    support_growth_mean_check,
    support_transition_frequencies,
    transvection_good_set,
    tv_counting_lower,
    tv_exact,
    wilson_interval,
    worst_tv_curve,
)
from groupwalks.errors import BudgetError, ConfigError, DimensionMismatch
from groupwalks.groups import HeisenbergElement


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# row statistics


class TestSignStatistic:
    def test_small_example(self):
        # rows 0, 1, 1 with xi = 1: signs +1, -1, -1
        assert s_xi((0, 1, 1), 1, k=1) == -1

    def test_functional_argument(self):
        xi = LinearFunctional(FieldVector.from_bits(0b10, 2))
        assert s_xi((0b00, 0b10, 0b11, 0b01), xi, k=2) == 0

    def test_sum_over_functionals_identity(self):
        # summing S_xi over all nonzero xi counts zero rows:
        # sum_xi!=0 S_xi = 2^k * #zeros - n
        rng = _rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, 4))
            z = tuple(int(x) for x in rng.integers(0, 1 << k, n))
            total = sum(s_xi(z, code, k) for code in range(1, 1 << k))
            zeros = sum(1 for row in z if row == 0)
            assert total == (1 << k) * zeros - n

    def test_bounds_and_parity(self):
        rng = _rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            z = tuple(int(x) for x in rng.integers(0, 4, n))
            val = s_xi(z, 3, k=2)
            assert -n <= val <= n
            assert (val - n) % 2 == 0

    def test_odd_characteristic_functional_rejected(self):
        xi = LinearFunctional(FieldVector((1, 0), 3))
        with pytest.raises(DimensionMismatch):
            s_xi((0, 1), xi, k=2)

    def test_kernel_count(self):
        p, m = 3, 1
        xi = LinearFunctional(FieldVector((1, 0), p))
        g = [
            HeisenbergElement(FieldVector((0, 1), p), 0),  # in ker
            HeisenbergElement(FieldVector((1, 1), p), 2),  # out
            HeisenbergElement(FieldVector((0, 0), p), 1),  # in ker
            HeisenbergElement(FieldVector((2, 0), p), 0),  # out
        ]
        assert n_xi(g, xi) == 2


# ---------------------------------------------------------------------------
# good-set membership


class TestGoodSet:
    def test_weight_window_n8_k1(self):
        spec = transvection_good_set(8, 1)
        # |S| = |8 - 2w| <= 2 means weight w in {3, 4, 5}
        assert in_good_set((1, 1, 1, 1, 0, 0, 0, 0), spec)
        assert in_good_set((1, 1, 1, 0, 0, 0, 0, 0), spec)
        assert not in_good_set((1, 1, 0, 0, 0, 0, 0, 0), spec)
        assert not in_good_set((1, 1, 1, 1, 1, 1, 0, 0), spec)

    def test_balanced_four_rows_k2(self):
        spec = transvection_good_set(4, 2)
        assert in_good_set((0b00, 0b01, 0b10, 0b11), spec)
        assert not in_good_set((0b01, 0b01, 0b01, 0b01), spec)

    def test_permutation_invariance(self):
        rng = _rng(3)
        spec = transvection_good_set(10, 2)
        for _ in range(100):
            z = [int(x) for x in rng.integers(0, 4, 10)]
            perm = list(rng.permutation(10))
            assert in_good_set(z, spec) == in_good_set([z[i] for i in perm], spec)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            in_good_set((0, 1), transvection_good_set(3, 1))

    def test_functional_budget(self):
        spec = transvection_good_set(40, 30)
        with pytest.raises(BudgetError):
            in_good_set((0,) * 40, spec, budget=1000)

    def test_vectorized_rows_agree_with_scalar(self):
        rng = _rng(4)
        for n, k in ((8, 1), (6, 2), (9, 3)):
            spec = transvection_good_set(n, k)
            Z = rng.integers(0, 1 << k, size=(200, n)).astype(np.int64)
            mask = good_mask_rows(Z, spec)
            scalar = np.array([in_good_set(tuple(row), spec) for row in Z])
            assert np.array_equal(mask, scalar)

    def test_vectorized_horizontal_agree_with_scalar(self):
        rng = _rng(5)
        r, p, m = 6, 3, 1
        spec = heisenberg_good_set(r, p, m, 0.5)
        V = rng.integers(0, p, size=(100, r, 2 * m)).astype(np.int64)
        mask = good_mask_horizontal(V, spec)
        for row_v, ok in zip(V, mask):
            g = [HeisenbergElement(FieldVector(tuple(int(c) for c in v), p), 0)
                 for v in row_v]
            assert in_good_set(g, spec) == bool(ok)

    def test_heisenberg_threshold_is_floor(self):
        # at beta0 = 1/2, r = 6 the cap is exactly 3 kernel hits
        spec = heisenberg_good_set(6, 3, 1, 0.5)
        base = [(0, 1)] * 3 + [(1, 0)] * 2 + [(1, 1)]
        g = [HeisenbergElement(FieldVector(v, 3), 0) for v in base]
        assert in_good_set(g, spec)
        worse = [(0, 1)] * 4 + [(1, 0), (1, 1)]
        g2 = [HeisenbergElement(FieldVector(v, 3), 0) for v in worse]
        assert not in_good_set(g2, spec)

    def test_bad_spec_parameters(self):
        with pytest.raises(ConfigError):
            transvection_good_set(5, 0)
        with pytest.raises(ConfigError):
            heisenberg_good_set(4, 2, 1, 0.5)
        with pytest.raises(ConfigError):
            heisenberg_good_set(4, 3, 1, 1.5)


def _scan_counts(spec):
    """Exact (ambient, ambient_bad, spanning, spanning_bad) by a chunked scan of
    every ambient tuple; the oracle for the type-class counts."""
    if spec.kind == "transvection":
        values, total = 1 << spec.k, 1 << (spec.n * spec.k)
    else:
        values, total = spec.p ** (spec.h + 1), spec.p ** ((spec.h + 1) * spec.n)
    amb_bad = span_count = span_bad = 0
    for lo in range(0, total, 1 << 18):
        codes = np.arange(lo, min(lo + (1 << 18), total), dtype=np.int64)
        rows = _digits(codes, values, spec.n)
        if spec.kind == "transvection":
            good = good_mask_rows(rows, spec)
            spanning = chain_module.rank_bits_batch(rows, spec.k) == spec.k
        else:
            V = _digits(rows, spec.p, spec.h)  # horizontal parts, (block, r, h)
            good = good_mask_horizontal(V, spec)
            spanning = chain_module.rank_modp_batch(V, spec.p) == spec.h
        amb_bad += int((~good).sum())
        span_count += int(spanning.sum())
        span_bad += int((spanning & ~good).sum())
    return total, amb_bad, span_count, span_bad


def _mc_row_oracle(spec, trials, seed):
    """(ambient_bad, spanning, spanning_bad) of the Monte Carlo measure's draws,
    by per-row membership masks and a row reduction per sample."""
    rng = philox_generator(seed)
    if spec.kind == "transvection":
        rows = rng.integers(0, 1 << spec.k, size=(trials, spec.n)).astype(np.int64)
        good = good_mask_rows(rows, spec)
        spanning = chain_module.rank_bits_batch(rows, spec.k) == spec.k
    else:
        V = rng.integers(0, spec.p, size=(trials, spec.n, spec.h)).astype(np.int64)
        good = good_mask_horizontal(V, spec)
        spanning = chain_module.rank_modp_batch(V, spec.p) == spec.h
    return int((~good).sum()), int(spanning.sum()), int((spanning & ~good).sum())


def _value_counts(codes, size):
    trials = codes.shape[0]
    flat = (np.arange(trials)[:, None] * size + codes).ravel()
    return np.bincount(flat, minlength=trials * size).reshape(trials, size)


class TestGoodSetMeasure:
    def test_exact_counts_weight_one_rows(self):
        out = good_set_measure(transvection_good_set(8, 1), method="exact")
        assert out["method"] == "exact"
        assert out["ambient_size"] == 256
        assert out["omega_size"] == 255
        assert out["mu_bad_count"] == 74
        assert out["pi_bad_count"] == 73
        assert out["mu_gc"] == pytest.approx(74 / 256)
        assert out["pi_gc"] == pytest.approx(73 / 255)

    def test_parity_obstruction_n6_k2(self):
        # n = 6 forces |S_xi| <= 1 with S_xi even: impossible, so every
        # state is bad
        out = good_set_measure(transvection_good_set(6, 2), method="exact")
        assert out["mu_bad_count"] == out["ambient_size"]
        assert out["pi_gc"] == 1.0

    def test_nonempty_at_n12(self):
        for k in (1, 2):
            out = good_set_measure(transvection_good_set(12, k), method="exact")
            assert out["pi_gc"] < 1.0
            assert out["mu_gc"] < 1.0

    def test_monte_carlo_brackets_exact(self):
        spec = transvection_good_set(8, 1)
        exact = good_set_measure(spec, method="exact")
        mc = good_set_measure(spec, method="monte_carlo", trials=40_000, seed=7)
        lo, hi = mc["mu_gc_ci"]
        assert lo <= exact["mu_gc"] <= hi
        lo, hi = mc["pi_gc_ci"]
        assert lo <= exact["pi_gc"] <= hi

    def test_monte_carlo_heisenberg(self):
        spec = heisenberg_good_set(8, 3, 1, 0.5)
        mc = good_set_measure(spec, method="monte_carlo", trials=20_000, seed=8)
        assert 0.0 <= mc["mu_gc"] <= 1.0
        assert mc["pi_trials"] <= mc["mu_trials"]

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            good_set_measure(transvection_good_set(30, 3), method="exact", budget=1 << 20)

    @pytest.mark.parametrize("spec", [
        # the exact instances above, except (12, 2): its scan takes about 22 s
        transvection_good_set(8, 1),
        transvection_good_set(6, 2),
        transvection_good_set(12, 1),
        transvection_good_set(8, 2),
        transvection_good_set(9, 2),
        transvection_good_set(10, 2),
        transvection_good_set(5, 3),
        heisenberg_good_set(3, 3, 1, 0.5),
        heisenberg_good_set(3, 3, 1, 0.7),
        heisenberg_good_set(3, 3, 1, 0.9),
        heisenberg_good_set(4, 3, 1, 0.5),
    ], ids=lambda s: f"{s.kind}-{s.n}-{s.k if s.kind == 'transvection' else s.beta0}")
    def test_type_classes_match_ambient_scan(self, spec):
        out = good_set_measure(spec, method="exact")
        got = (out["ambient_size"], out["mu_bad_count"], out["omega_size"], out["pi_bad_count"])
        assert got == _scan_counts(spec)

    def test_type_classes_at_n12_k2(self):
        # (ambient, ambient_bad, spanning, spanning_bad) as _scan_counts gives
        # them, in about 22 s
        out = good_set_measure(transvection_good_set(12, 2), method="exact")
        got = (out["ambient_size"], out["mu_bad_count"], out["omega_size"], out["pi_bad_count"])
        assert got == (16777216, 13081216, 16764930, 13068930)

    def test_class_budget_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="class budget"):
            good_set_measure(heisenberg_good_set(40, 3, 1, 0.5), method="exact")
        with pytest.raises(BudgetError, match="class budget"):
            # two rows over 1 024 values: 524 800 classes of 1 024 entries each
            good_set_measure(transvection_good_set(2, 10), method="exact")
        with pytest.raises(BudgetError, match="class budget"):
            good_set_measure(transvection_good_set(12, 2), method="exact", budget=455 * 4 - 1)
        good_set_measure(transvection_good_set(12, 2), method="exact", budget=455 * 4)
        assert time.perf_counter() - start < 1.0

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            good_set_measure(transvection_good_set(8, 1), method="guess")

    @pytest.mark.parametrize("spec, seed", [
        (transvection_good_set(8, 1), 1),
        (transvection_good_set(16, 2), 2),
        (transvection_good_set(5, 3), 3),
        (transvection_good_set(9, 4), 4),
        (heisenberg_good_set(4, 3, 1, 0.5), 5),
        (heisenberg_good_set(16, 3, 1, 0.75), 6),
        (heisenberg_good_set(4, 5, 1, 0.6), 7),
        (heisenberg_good_set(5, 3, 2, 0.7), 8),
    ], ids=lambda x: str(x) if isinstance(x, int) else f"{x.kind}-{x.n}-{x.k or (x.p, x.m)}")
    def test_monte_carlo_counts_match_row_oracle(self, spec, seed):
        trials = 4000
        out = good_set_measure(spec, method="monte_carlo", trials=trials, seed=seed)
        amb_bad, span, span_bad = _mc_row_oracle(spec, trials, seed)
        assert out["mu_trials"] == trials and out["pi_trials"] == span
        assert out["mu_gc"] == amb_bad / trials
        assert out["pi_gc"] == span_bad / span
        assert out["mu_gc_ci"] == wilson_interval(amb_bad, trials)
        assert out["pi_gc_ci"] == wilson_interval(span_bad, span)

    @pytest.mark.parametrize("spec", [
        *(transvection_good_set(n, k) for k in (1, 2, 3, 4) for n in (k, k + 1, k + 3)),
        *(heisenberg_good_set(r, p, m, 0.5) for p, m in ((3, 1), (5, 1), (3, 2))
          for r in (2 * m, 2 * m + 1, 2 * m + 3)),
    ], ids=lambda x: f"{x.kind}-{x.n}-{x.k or (x.p, x.m)}")
    def test_no_full_count_is_full_rank(self, spec):
        # rows span exactly when no S_xi or N_xi reaches n
        rng = _rng(9)
        batch = 3000
        if spec.kind == "transvection":
            size = 1 << spec.k
            # rows drawn from a random subset of values, so rank deficits occur
            codes = rng.integers(0, size, size=(batch, spec.n)) & rng.integers(0, size, size=(batch, 1))
            rank = chain_module.rank_bits_batch(codes, spec.k) == spec.k
        else:
            size = spec.p**spec.h
            V = rng.integers(0, spec.p, size=(batch, spec.n, spec.h))
            V[: batch // 2, :, 0] = 0  # half the batch in the hyperplane v_0 = 0
            codes = V @ spec.p ** np.arange(spec.h)
            rank = chain_module.rank_modp_batch(V, spec.p) == spec.h
        T = _value_counts(codes, size) @ diagnostics._value_table(spec)
        assert np.array_equal((T < spec.n).all(axis=1), rank)
        assert rank.any() and not rank.all()

    def test_monte_carlo_budget_refused_before_drawing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("drew samples before the budget check")

        monkeypatch.setattr(diagnostics, "philox_generator", fail)
        with pytest.raises(BudgetError, match="class budget"):
            good_set_measure(transvection_good_set(8, 10), "monte_carlo", trials=100_000)
        with pytest.raises(BudgetError, match="class budget"):
            good_set_measure(heisenberg_good_set(8, 3, 1, 0.5), "monte_carlo", trials=1000,
                             budget=9 * 1000 - 1)


# ---------------------------------------------------------------------------
# burn-in occupancy


class TestBurninOccupancy:
    def test_good_start_time_zero(self):
        walk = TransvectionWalk(8, 1, laziness=0.5)
        spec = transvection_good_set(8, 1)
        start = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.int64)
        out = burnin_occupancy(walk, spec, [0, 3], trials=500, seed=1, start=start)
        assert out["failure"][0] == 0.0
        assert out["failure_counts"][0] == 0

    def test_bad_start_time_zero(self):
        walk = TransvectionWalk(8, 1, laziness=0.5)
        spec = transvection_good_set(8, 1)
        out = burnin_occupancy(walk, spec, [0], trials=300, seed=2)
        assert out["failure"][0] == 1.0

    def test_plateau_matches_stationary_mass(self):
        # the one-column mod-2 walk mixes to uniform on the 255 nonzero
        # states, where 73 are unbalanced
        walk = OneColumnWalk(8, 2, laziness=0.5)
        spec = transvection_good_set(8, 1)
        out = burnin_occupancy(walk, spec, [0, 120, 140], trials=20_000, seed=3)
        target = 73 / 255
        assert out["ci_low"][1] <= target <= out["ci_high"][1]
        assert out["ci_low"][2] <= target <= out["ci_high"][2]

    def test_spec_walk_mismatch(self):
        walk = OneColumnWalk(8, 2)
        with pytest.raises(ConfigError):
            burnin_occupancy(walk, transvection_good_set(6, 1), [0], trials=10, seed=0)
        with pytest.raises(ConfigError):
            burnin_occupancy(walk, transvection_good_set(8, 2), [0], trials=10, seed=0)
        pp = PaPraWalk(4, 3, 1)
        with pytest.raises(ConfigError):
            burnin_occupancy(pp, transvection_good_set(4, 1), [0], trials=10, seed=0)

    def test_odd_characteristic_occupancy_rejected(self):
        walk = OneColumnWalk(6, 3)
        with pytest.raises(ConfigError):
            burnin_occupancy(walk, transvection_good_set(6, 1), [0], trials=10, seed=0)

    def test_negative_grid_time_rejected(self):
        walk = TransvectionWalk(4, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            burnin_occupancy(walk, transvection_good_set(4, 2), [-1, 0, 5], trials=3, seed=0)

    @pytest.mark.parametrize("walk, spec, start", [
        (TransvectionWalk(4, 2), transvection_good_set(4, 2), [1, 1, 0, 0]),
        (OneColumnWalk(4, 2), transvection_good_set(4, 1), [0, 0, 0, 0]),
        (PaPraWalk(3, 3, 1), heisenberg_good_set(3, 3, 1, 0.75),
         ([[1, 0], [1, 0], [0, 0]], [0, 0, 0])),
    ])
    def test_start_outside_the_space_refused(self, walk, spec, start):
        # refused by the engine before any trial runs, as simulate refuses it
        with pytest.raises(ValueError, match="outside the state space"):
            burnin_occupancy(walk, spec, [0, 5], trials=10, seed=0, start=start)

    def test_pa_pra_occupancy_runs(self):
        walk = PaPraWalk(5, 3, 1, laziness=0.5)
        spec = heisenberg_good_set(5, 3, 1, 0.731)
        out = burnin_occupancy(walk, spec, [0, 10], trials=400, seed=4)
        assert out["times"].tolist() == [0, 10]
        assert ((0.0 <= out["failure"]) & (out["failure"] <= 1.0)).all()


# ---------------------------------------------------------------------------
# exact TV and mixing times


class TestTvAndMixing:
    def test_tv_exact_examples(self):
        assert tv_exact((1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0)
        assert tv_exact((0.5, 0.5), (0.5, 0.5)) == 0.0
        assert tv_exact((0.75, 0.25), (0.25, 0.75)) == pytest.approx(0.5)

    def test_tv_exact_rejects_non_probability(self):
        with pytest.raises(ConfigError):
            tv_exact((0.9, 0.3), (0.5, 0.5))

    def test_coercion_helpers(self):
        # one pair serves diagnostics and spectral: None is the uniform law,
        # `.matrix` is unwrapped, wrong shapes and sizes are refused
        assert np.array_equal(diagnostics._weights_of(None, 4), np.full(4, 0.25))
        assert diagnostics._weights_of([1, 0]).dtype == float
        with pytest.raises(ValueError):
            diagnostics._weights_of(None)
        with pytest.raises(DimensionMismatch):
            diagnostics._weights_of([0.5, 0.5], 3)
        with pytest.raises(DimensionMismatch):
            diagnostics._weights_of(np.eye(2))
        kernel = OneColumnWalk(3, 2).dense()
        wrapped = build_fibre_kernel("transvection", 0, [1, 2], k=2)
        assert diagnostics._matrix_of(kernel) is kernel
        assert np.array_equal(diagnostics._matrix_of(wrapped), wrapped.matrix)
        with pytest.raises(DimensionMismatch):
            diagnostics._matrix_of(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            diagnostics._matrix_of(np.ones(4))

    def test_uniform_kernel_mixes_in_one_step(self):
        P = np.full((5, 5), 0.2)
        assert mixing_time_exact(P) == 1

    def test_half_lazy_single_column_table_entries(self):
        w41 = TransvectionWalk(4, 1, laziness=0.5)
        assert mixing_time_exact(w41.dense()) == 15
        w42 = TransvectionWalk(4, 2, laziness=0.5)
        assert mixing_time_exact(w42.dense()) == 19

    def test_one_column_matches_row_walk(self):
        # the mod-2 one-column walk and the k=1 row walk are the same chain
        oc = OneColumnWalk(4, 2, laziness=0.5)
        assert mixing_time_exact(oc.dense()) == 15

    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            mixing_time_exact(np.eye(3), epsilon=0.0)
        with pytest.raises(BudgetError):
            mixing_time_exact(np.eye(3) * 1.0, t_max=5)

    def test_reducible_kernel_refused_before_any_product(self, monkeypatch):
        block = np.kron(np.eye(2), np.full((3, 3), 1 / 3))
        monkeypatch.setattr(diagnostics, "_worst_tv_steps", None)
        with pytest.raises(BudgetError, match=r"2 closed classes of sizes 3, 3"):
            mixing_time_exact(block)

    def test_reducible_kernel_within_epsilon_still_runs(self):
        # each start stays in its half, at TV 1/2 from uniform after one step
        block = np.kron(np.eye(2), np.full((2, 2), 0.5))
        assert mixing_time_exact(block, epsilon=0.6) == 1

    def test_worst_tv_curve_monotone_for_lazy_kernel(self):
        walk = TransvectionWalk(4, 1, laziness=0.5)
        curve = worst_tv_curve(walk.dense(), range(0, 25))
        assert (np.diff(curve) <= 1e-12).all()
        assert curve[0] == pytest.approx(1 - 1 / 15)

    def test_counting_lower_bound(self):
        assert tv_counting_lower(0, 13, 255) == pytest.approx(1 - 1 / 255)
        assert tv_counting_lower(40, 13, 255) == 0.0
        big = 2**200
        val = tv_counting_lower(50, 13, big)
        assert 0.0 < val < 1.0
        assert val == pytest.approx(1.0 - 13**50 / big)

    def test_counting_lower_validation(self):
        with pytest.raises(ConfigError):
            tv_counting_lower(-1, 13, 255)
        with pytest.raises(ConfigError):
            tv_counting_lower(3, 0, 255)


# ---------------------------------------------------------------------------
# birth-death analysis


def _oracle_support_frequencies(r, p, steps, seed, chains=16):
    """An inline p-ary stepping loop over the batch engines' drawn moves."""
    per_chain = (steps + chains - 1) // chains
    y = np.zeros((chains, r), dtype=np.int16)
    y[:, 0] = 1
    supp = (y != 0).sum(axis=1).astype(np.int64)
    counts = np.zeros((r + 1, 3), dtype=np.int64)
    rows = np.arange(chains)
    blocks = chain_module._move_blocks(philox_generator(seed), per_chain, chains, r, exponents=p)
    for i_block, j_block, a_block, _, _ in blocks:
        for i, j, a in zip(i_block, j_block, a_block):
            new_val = (y[rows, i] + a * y[rows, j]) % p
            delta = (new_val != 0).astype(np.int64) - (y[rows, i] != 0).astype(np.int64)
            np.add.at(counts, (supp, delta + 1), 1)
            y[rows, i] = new_val
            supp += delta
    return {"counts": counts, "visits": counts.sum(axis=1), "steps": per_chain * chains}


class TestBirthDeath:
    def test_probabilities_small_case(self):
        params = BDParams(r=4, p=3)
        birth, death = bd_probs(2, params)
        assert birth == pytest.approx(2 / 9)
        assert death == pytest.approx(1 / 18)

    def test_boundary_rates_vanish(self):
        params = BDParams(r=5, p=3)
        assert bd_probs(1, params)[1] == 0.0
        assert bd_probs(5, params)[0] == 0.0

    def test_range_validation(self):
        params = BDParams(r=4, p=3)
        with pytest.raises(ConfigError):
            bd_probs(0, params)
        with pytest.raises(ConfigError):
            bd_probs(5, params)
        with pytest.raises(ConfigError):
            BDParams(r=1, p=3)
        with pytest.raises(Exception):
            BDParams(r=4, p=4)

    def test_rho_matches_ratio(self):
        params = BDParams(r=4, p=3)
        birth, death = bd_probs(2, params)
        assert bd_rho(2, params) == pytest.approx(death / birth)
        assert bd_rho(2, params) == pytest.approx(0.25)
        with pytest.raises(ConfigError):
            bd_rho(4, params)

    def test_first_ladder_step(self):
        params = BDParams(r=4, p=3)
        assert bd_hitting_time(1, 2, params) == pytest.approx(6.0)

    def test_hitting_from_target_is_zero(self):
        params = BDParams(r=6, p=5)
        assert bd_hitting_time(4, 4, params) == 0.0
        assert bd_hitting_time(5, 3, params) == 0.0

    def test_hitting_additive_over_levels(self):
        params = BDParams(r=8, p=3)
        d13 = bd_hitting_time(1, 3, params)
        d35 = bd_hitting_time(3, 5, params)
        d15 = bd_hitting_time(1, 5, params)
        assert d15 == pytest.approx(d13 + d35)

    def test_crossing_endpoints(self):
        params = BDParams(r=6, p=3)
        assert bd_crossing_prob(2, 2, 5, params) == pytest.approx(1.0)
        assert bd_crossing_prob(5, 2, 5, params) == pytest.approx(0.0)

    def test_crossing_monotone_in_start(self):
        params = BDParams(r=8, p=3)
        vals = [bd_crossing_prob(s, 1, 7, params) for s in range(1, 8)]
        assert (np.diff(vals) <= 1e-12).all()

    def test_crossing_validation(self):
        params = BDParams(r=6, p=3)
        with pytest.raises(ConfigError):
            bd_crossing_prob(1, 2, 5, params)
        with pytest.raises(ConfigError):
            bd_crossing_prob(3, 3, 3, params)

    def test_hitting_mc_matches_formula(self):
        params = BDParams(r=6, p=3)
        exact = bd_hitting_time(1, 4, params)
        res = bd_hitting_mc(1, 4, params, trials=4000, seed=11)
        assert res["unfinished"] == 0
        assert abs(res["mean"] - exact) <= 4 * res["sem"]

    def test_no_trials_refused(self):
        params = BDParams(r=6, p=3)
        with pytest.raises(ConfigError, match="at least one trial"):
            bd_hitting_mc(1, 4, params, trials=0, seed=1)
        with pytest.raises(ConfigError, match="at least one trial"):
            embedded_crossing_mc(3, 1, 6, params, trials=0, seed=1)

    def test_embedded_crossing_matches_formula(self):
        params = BDParams(r=6, p=3)
        exact = bd_crossing_prob(3, 1, 6, params)
        res = embedded_crossing_mc(3, 1, 6, params, trials=4000, seed=12)
        sd = math.sqrt(exact * (1 - exact) / res["trials"])
        assert abs(res["estimate"] - exact) <= 4 * sd

    @pytest.mark.parametrize("r, p", [(16, 3), (32, 3), (16, 5)])
    def test_transition_frequencies_match_inline_loop(self, r, p):
        got = support_transition_frequencies(r, p, 20_000, seed=5)
        want = _oracle_support_frequencies(r, p, 20_000, seed=5)
        for key in ("counts", "visits", "steps"):
            assert np.array_equal(got[key], want[key])

    def test_binary_transition_frequencies_match_rates(self):
        # over F_2 the multiplier is uniform on {0, 1}, as in bd_probs
        r, p = 6, 2
        out = support_transition_frequencies(r, p, steps=120_000, seed=14)
        params = BDParams(r=r, p=p)
        for s in range(1, r + 1):
            visits = int(out["visits"][s])
            birth, death = bd_probs(s, params)
            for hat, exact in ((out["birth_hat"][s], birth), (out["death_hat"][s], death)):
                sd = math.sqrt(max(exact * (1 - exact), 1e-12) / visits)
                assert abs(hat - exact) <= 5 * sd + 1e-12

    def test_transition_frequencies_match_rates(self):
        r, p = 6, 3
        out = support_transition_frequencies(r, p, steps=240_000, seed=13)
        params = BDParams(r=r, p=p)
        checked = 0
        for s in range(1, r + 1):
            visits = int(out["visits"][s])
            if visits < 5000:
                continue
            birth, death = bd_probs(s, params)
            for hat, exact in ((out["birth_hat"][s], birth), (out["death_hat"][s], death)):
                sd = math.sqrt(max(exact * (1 - exact), 1e-12) / visits)
                assert abs(hat - exact) <= 5 * sd + 1e-12
                checked += 1
        assert checked >= 4


# ---------------------------------------------------------------------------
# rate functions and constants


class TestRates:
    def test_rate_I_endpoints(self):
        for p in (3, 5, 7):
            assert rate_I(p, 1.0 / p) == pytest.approx(0.0, abs=1e-14)
            assert rate_I(p, 1.0) == pytest.approx(math.log(p))

    def test_rate_I_domain(self):
        with pytest.raises(ConfigError):
            rate_I(3, 0.2)
        with pytest.raises(ConfigError):
            rate_I(3, 1.1)

    def test_rate_I_increasing_above_mean(self):
        grid = np.linspace(1 / 3, 1.0, 30)
        vals = [rate_I(3, float(b)) for b in grid]
        assert (np.diff(vals) >= -1e-12).all()

    def test_rate_J_degenerate_interval(self):
        assert rate_J(3, 0.4, 0.4) == 0.0

    def test_rate_J_domain(self):
        with pytest.raises(ConfigError):
            rate_J(3, 0.0, 0.5)
        with pytest.raises(ConfigError):
            rate_J(3, 0.5, 0.7)

    def test_area_equals_tail_rate(self):
        # integrating the log-ratio from 1-beta to (p-1)/p reproduces the
        # upper-tail rate at beta
        for p in (3, 5):
            for beta in (0.5, 0.7, 0.9):
                if beta <= 1 / p:
                    continue
                area = rate_J(p, 1.0 - beta, (p - 1) / p)
                assert abs(area - rate_I(p, beta)) < 1e-10

    def test_select_constants_frozen_case(self):
        rc = select_constants(3, 0.3)
        assert rc.beta0 == pytest.approx(0.731)
        assert rc.beta1 == pytest.approx((1 + rc.beta0) / 2)
        assert rc.alpha0 == pytest.approx(1 - rc.beta0)
        assert rc.alpha_star == pytest.approx(2 / 3)

    def test_select_constants_invariants(self):
        for p, eps in ((3, 0.3), (5, 0.25), (7, 0.2)):
            rc = select_constants(p, eps)
            target = eps * math.log(p)
            assert rc.I_beta0 > target + 1e-6
            # grid minimality: one step down fails the margin
            prev = rc.beta0 - 1e-3
            if prev > 1 / p:
                assert rate_I(p, prev) <= target + 1e-6
            assert rc.alpha0 < rc.alpha1 < rc.alpha_star
            assert rc.J_alpha == pytest.approx(target + 3 * rc.eta0)
            assert rc.eta0 > 0

    def test_select_constants_validation(self):
        with pytest.raises(ConfigError):
            select_constants(3, 0.0)
        with pytest.raises(ConfigError):
            select_constants(3, 1.0)


class TestWilson:
    def test_degenerate_inputs(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and lo < 1.0

    def test_contains_point_estimate(self):
        rng = _rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 5000))
            s = int(rng.integers(0, n + 1))
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_default_confidence_level(self):
        assert WILSON_Z99 == pytest.approx(2.5758293035489004)
        lo99, hi99 = wilson_interval(40, 100)
        lo95, hi95 = wilson_interval(40, 100, z=1.96)
        assert lo99 < lo95 and hi95 < hi99

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            wilson_interval(5, 3)


# ---------------------------------------------------------------------------
# fibre scans and balanced sampling


def _compositions_oracle(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions_oracle(total - first, parts - 1):
            yield (first,) + rest


def _scan_fibre_gaps(n, k):
    """(good_gaps, bad_gaps) by stepping through the frozen compositions one
    at a time; the oracle for good_fibre_gap_scan."""
    W = 1 << k
    codes = np.arange(W)
    sgn = 1 - 2 * (np.bitwise_count(codes[:, None] & codes[None, :]).astype(np.int64) & 1)
    good, bad = [], []
    for d in _compositions_oracle(n - 1, W):
        vec = np.array(d, dtype=np.int64)
        meets = False
        for w in range(W):
            full = vec.copy()
            full[w] += 1
            if (4 * np.abs(sgn[1:] @ full) <= n).all():
                meets = True
                break
        gap = 1.0 - float(((sgn[1:] @ vec) / (n - 1)).max())
        (good if meets else bad).append(gap)
    return np.array(good), np.array(bad)


class TestFibreScan:
    @pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (0, 4), (3, 2), (4, 3), (6, 4)])
    def test_compositions_in_recursive_order(self, total, parts):
        expect = np.array(list(_compositions_oracle(total, parts)), dtype=np.int64)
        assert np.array_equal(diagnostics._compositions(total, parts, 1 << 20), expect)

    @pytest.mark.parametrize("n,k", [(n, k) for k in (1, 2) for n in range(2, 13)] + [(9, 3)])
    def test_gaps_match_recursive_scan(self, n, k):
        out = good_fibre_gap_scan(n, k)
        good, bad = _scan_fibre_gaps(n, k)
        assert np.array_equal(out["good_gaps"], good)
        assert np.array_equal(out["bad_gaps"], bad)
        assert out["fibre_count"] == good.size + bad.size
        assert out["good_fibre_count"] == good.size

    def test_class_budget_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="1855967520 compositions"):
            good_fibre_gap_scan(20, 4)
        with pytest.raises(BudgetError, match="524800 compositions"):
            good_fibre_gap_scan(3, 10)
        assert time.perf_counter() - start < 1.0

    def test_weight_one_rows_scan(self):
        out = good_fibre_gap_scan(12, 1)
        assert out["fibre_count"] == 12
        assert out["good_fibre_count"] == 4
        assert out["min_good_gap"] == pytest.approx(1 - 3 / 11)

    def test_two_bit_rows_scan(self):
        out = good_fibre_gap_scan(12, 2)
        assert out["fibre_count"] == 364
        assert out["good_fibre_count"] == 28
        assert out["min_good_gap"] == pytest.approx(1 - 3 / 11)
        assert out["good_gaps"].min() >= 0.5

    def test_empty_good_side(self):
        out = good_fibre_gap_scan(6, 2)
        assert out["good_fibre_count"] == 0
        assert math.isnan(out["min_good_gap"])

    def test_scan_budget(self):
        with pytest.raises(BudgetError):
            good_fibre_gap_scan(14, 13)


class TestGapFloor:
    def test_frozen_value(self):
        assert hyperplane_gap_floor(3, 0.5) == pytest.approx(0.052831216351296784)

    def test_quadratic_branch_formula(self):
        p, beta = 5, 0.5
        expect = 0.5 * 0.25 * (1 - 5**-0.5)
        assert hyperplane_gap_floor(p, beta) == pytest.approx(expect)

    def test_linear_branch_wins_near_one(self):
        val = hyperplane_gap_floor(3, 0.999)
        assert val == pytest.approx(
            0.5 * (1 - 0.999) ** 2 * (1 - 3**-0.5)
        )
        assert hyperplane_gap_floor(3, 0.5) < 1 - 0.5

    def test_domain(self):
        with pytest.raises(ConfigError):
            hyperplane_gap_floor(3, 0.0)
        with pytest.raises(ConfigError):
            hyperplane_gap_floor(3, 1.0)


class TestBalancedSampling:
    def test_every_sample_is_balanced(self):
        r, p, m, beta = 8, 3, 1, 0.5
        out = sample_balanced_frozen_tuples(r, p, m, beta, count=300, seed=15)
        V = out["V"]
        assert V.shape == (300, r - 1, 2 * m)
        assert out["Z"].shape == (300, r - 1)
        limit = beta * (r - 1) + 1e-9
        coeffs = [(a, b) for a in range(p) for b in range(p)][1:]
        for a, b in coeffs:
            hits = ((a * V[:, :, 0] + b * V[:, :, 1]) % p == 0).sum(axis=1)
            assert (hits <= limit).all()

    def test_acceptance_rate_window(self):
        out = sample_balanced_frozen_tuples(8, 3, 1, 0.5, count=2000, seed=16)
        assert 0.42 <= out["acceptance"] <= 0.51

    def test_domain_validation(self):
        with pytest.raises(ConfigError):
            sample_balanced_frozen_tuples(8, 2, 1, 0.5, 10, 0)
        with pytest.raises(ConfigError):
            sample_balanced_frozen_tuples(8, 3, 1, 0.2, 10, 0)
        with pytest.raises(ConfigError):
            sample_balanced_frozen_tuples(8, 3, 1, 1.0, 10, 0)

    @pytest.mark.parametrize("r,m,beta", [(2, 1, 0.5), (3, 2, 0.9), (4, 2, 0.5)])
    def test_infeasible_level_refused_before_drawing(self, monkeypatch, r, m, beta):
        # any min(r-1, 2m-1) horizontal parts share a hyperplane
        monkeypatch.setattr(diagnostics, "philox_generator", None)
        with pytest.raises(BudgetError, match="after 0 draws"):
            sample_balanced_frozen_tuples(r, 3, m, beta, 10, 0)

    @pytest.mark.parametrize("args,digest", [
        ((8, 3, 1, 0.5, 50, 3), "87d28863584008bf0de848afce7bc28dc4f007041a63dc1128e3d6ea807c6a12"),
        # min(r-1, 2m-1) = 3 = beta*(r-1): feasible at the boundary
        ((5, 3, 2, 0.75, 20, 4), "ba49fda3ca4fec31c44fd1d76f038025c7cdf71f948f9f41c9dfef206fc9a2ee"),
    ])
    def test_feasible_draws_unchanged(self, args, digest):
        out = sample_balanced_frozen_tuples(*args)
        assert out["draws"] == 1024
        assert hashlib.sha256(out["V"].tobytes() + out["Z"].tobytes()).hexdigest() == digest

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetError):
            # beta just above 1/p is unreachably strict at this size
            sample_balanced_frozen_tuples(20, 3, 2, 1 / 3, 50, 0, max_draws=5000)


# ---------------------------------------------------------------------------
# exact mixing from one start per symmetry class

EXACT_SWEEP = (
    [(TransvectionWalk, (n, k)) for n, k in ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2))]
    + [(OneColumnWalk, (r, 3)) for r in range(2, 7)]
    + [(OneColumnWalk, (r, 5)) for r in range(2, 5)]
)


def _oracle_mixing_time(P, epsilon=0.25, t_max=100_000):
    """The all-starts loop of mixing_time_exact before it took starts."""
    M = P.shape[0]
    pi = np.full(M, 1.0 / M)
    worst0 = 0.5 * float(np.abs(np.eye(M) - pi[None, :]).sum(axis=1).max())
    if worst0 <= epsilon:
        return 0
    A = P.copy()
    for t in range(1, t_max + 1):
        worst = 0.5 * float(np.abs(A - pi[None, :]).sum(axis=1).max())
        if worst <= epsilon:
            return t
        A = A @ P
    raise BudgetError(f"worst-start TV still above {epsilon} after {t_max} steps")


def _oracle_worst_tv_curve(P, t_grid):
    """The all-starts loop of worst_tv_curve before it took starts."""
    M = P.shape[0]
    pi = np.full(M, 1.0 / M)
    grid = sorted(set(int(t) for t in t_grid))
    out = {}
    A = np.eye(M)
    t_cur = 0
    for t in grid:
        while t_cur < t:
            A = A @ P
            t_cur += 1
        out[t] = 0.5 * float(np.abs(A - pi[None, :]).sum(axis=1).max())
    return np.array([out[t] for t in grid])


def _class_keys(walk, space):
    """Class of each state, from the decoded states: sorted rows for the
    row walk, support size for the one-column walk."""
    if isinstance(walk, TransvectionWalk):
        return [tuple(sorted(z)) for z in space.states()]
    return [sum(1 for y in z if y) for z in space.states()]


class TestStartRepresentatives:
    @pytest.mark.parametrize("q", [0.25, 0.5])
    @pytest.mark.parametrize("cls,args", EXACT_SWEEP)
    def test_tv_rows_equal_their_representatives(self, cls, args, q):
        walk = cls(*args, laziness=q)
        space = walk.space()
        P = walk.dense(space)
        reps = walk.start_representatives(space)
        keys = _class_keys(walk, space)
        rep_of = {keys[i]: int(i) for i in reps}
        assert len(rep_of) == reps.size == len(set(keys))
        assert np.array_equal(reps, np.unique(reps))
        owner = np.array([rep_of[key] for key in keys])
        M = space.size
        A = np.eye(M)
        for _ in range(mixing_time_exact(P, starts=reps) + 1):
            tv = 0.5 * np.abs(A - 1.0 / M).sum(axis=1)
            np.testing.assert_allclose(tv, tv[owner], rtol=0, atol=1e-12)
            A = A @ P

    @pytest.mark.parametrize("cls,args", EXACT_SWEEP)
    def test_all_starts_path_is_the_old_loop(self, cls, args):
        walk = cls(*args, laziness=0.25)
        space = walk.space()
        P = walk.dense(space)
        reps = walk.start_representatives(space)
        tau = _oracle_mixing_time(P)
        assert mixing_time_exact(P) == tau
        assert mixing_time_exact(P, starts=reps) == tau
        # unsorted, with a duplicate, and running past tau
        grid = [tau + 3, 0, 2, tau, 2, 1]
        expect = _oracle_worst_tv_curve(P, grid)
        assert np.array_equal(worst_tv_curve(P, grid), expect)
        np.testing.assert_allclose(worst_tv_curve(P, grid, starts=reps), expect, rtol=0, atol=1e-12)
        assert expect[-1] <= 0.25 < expect[-3]

    def test_bad_starts_rejected(self):
        P = TransvectionWalk(4, 1).dense()
        for starts in ([], [-1], [15], [[0, 1]]):
            with pytest.raises(ConfigError):
                worst_tv_curve(P, [0, 1], starts=starts)


class TestCanonicalStart:
    def test_shape_and_content(self):
        v, z = canonical_start(5, 3, 1)
        assert v.shape == (5, 2) and z.shape == (5,)
        assert v[0].tolist() == [1, 0]
        assert v[1].tolist() == [0, 1]
        assert z.tolist() == [0, 0, 1, 0, 0]

    def test_requires_room_for_generators(self):
        with pytest.raises(ConfigError):
            canonical_start(2, 3, 1)


# ---------------------------------------------------------------------------
# growth and TV curves


class TestGrowthAndCurves:
    def test_support_growth_exponent_near_linear(self):
        out = support_growth_mean_check(3, 0.5, r_grid=(8, 16, 32), trials=800, seed=17)
        assert 0.75 <= out["fitted_exponent"] <= 1.25
        for mean, formula, sem in zip(out["means"], out["formula"], out["sems"]):
            assert abs(mean - formula) <= 5 * sem

    def test_growth_domain(self):
        with pytest.raises(ConfigError):
            support_growth_mean_check(3, 0.8)

    def test_mc_tv_curve_small_walk(self):
        out = mc_tv_curve_one_column(4, trials=20_000, t_grid=range(0, 31, 2),
                                     seed=18, laziness=0.5)
        # from the weight-one start the projected TV begins at 1 - 4/15
        assert out["tv"][0] == pytest.approx(1 - 4 / 15)
        assert out["tv"][-1] < 0.1
        assert 1.0 <= out["crossing"] <= 30.0

    @pytest.mark.parametrize("r", [5, 6])
    @pytest.mark.parametrize("laziness", [0.0, 0.25])
    def test_mc_tv_exact_equals_lumped_dense_tv(self, r, laziness):
        walk = OneColumnWalk(r, 2, laziness=laziness)
        space = walk.space()
        P = walk.dense(space)
        weight = np.bitwise_count(space.codes)
        pi_w = np.bincount(weight, minlength=r + 1) / space.size
        row = np.zeros(space.size)
        row[space.index_of((1,) + (0,) * (r - 1))] = 1.0
        grid = list(range(0, 41, 3))
        want = []
        for t in range(grid[-1] + 1):
            if t in grid:
                law = np.bincount(weight, weights=row, minlength=r + 1)
                want.append(0.5 * float(np.abs(law - pi_w).sum()))
            row = row @ P
        out = mc_tv_curve_one_column(r, trials=10, t_grid=grid, seed=0, laziness=laziness)
        assert np.abs(out["tv_exact"] - np.array(want)).max() <= 1e-12

    def test_mc_tv_plug_in_within_sampling_error_of_exact(self):
        # |tv - tv_exact| <= D = sum_w |p_hat_w - p_w| / 2, E D <= sum_w sd_w / 2,
        # and D exceeds its mean by x with probability <= exp(-2 N x^2)
        r, trials = 64, 10_000
        grid = [0, 50, 100, 200, 300, 450, 700]
        out = mc_tv_curve_one_column(r, trials, grid, seed=19)
        w = np.arange(r + 1)
        K = np.diag(1.0 - (w * (r - w) + w * (w - 1)) / (r * (r - 1)))
        K[w[:-1], w[1:]] = (w * (r - w) / (r * (r - 1)))[:-1]
        K[w[1:], w[:-1]] = (w * (w - 1) / (r * (r - 1)))[1:]
        slack = math.sqrt(math.log(1e7) / (2 * trials))
        for idx, t in enumerate(grid):
            law = np.linalg.matrix_power(K, t)[1]
            bias = 0.5 * float(np.sqrt(law * (1 - law) / trials).sum())
            assert abs(out["tv"][idx] - out["tv_exact"][idx]) <= bias + slack

    def test_mc_tv_curve_validation(self):
        with pytest.raises(ConfigError):
            mc_tv_curve_one_column(1, trials=10, t_grid=[0], seed=0)
