"""Primality, finite-field vectors, rank, functionals, and the symplectic form."""

import itertools

import numpy as np
import pytest

from groupwalks.algebra import (
    FieldVector,
    LinearFunctional,
    SymplecticForm,
    _digits,
    _pack,
    check_prime,
    half_mod,
    rank,
    rank_bits,
)
from groupwalks.errors import (
    CharacteristicError,
    ConfigError,
    DimensionMismatch,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# primality and 1/2


class TestPrimeModulus:
    def test_composite_modulus_rejected(self):
        for bad in (1, 4, 6, 9, 15):
            with pytest.raises((ConfigError, ValueError)):
                check_prime(bad)
        for good in (2, 3, 5, 97):
            check_prime(good)

    def test_half_is_scalar_inverse_of_two(self):
        for p in (3, 5, 7, 13):
            assert (2 * half_mod(p)) % p == 1
        with pytest.raises(CharacteristicError):
            half_mod(2)


# ---------------------------------------------------------------------------
# vectors


class TestFieldVector:
    def test_bit_packing_roundtrip(self):
        for bits in range(16):
            v = FieldVector.from_bits(bits, 4)
            assert v.bits == bits
            assert v.entries == tuple((bits >> i) & 1 for i in range(4))
            assert v == FieldVector(v.entries, 2) and hash(v) == hash(FieldVector(v.entries, 2))
        for bad in (-1, 16):
            with pytest.raises(ValueError):
                FieldVector.from_bits(bad, 4)
        with pytest.raises(CharacteristicError):
            FieldVector([1, 2], 3).bits

    def test_pack_inverts_digits(self):
        rng = _rng(5)
        for base, count in ((2, 1), (3, 4), (8, 5), (125, 3)):
            codes = rng.integers(0, base**count, (7, 3))
            digits = _digits(codes, base, count)
            packed = _pack(digits, base)
            assert packed.dtype == np.int64 and np.array_equal(packed, codes)

    def test_addition_is_xor_over_f2(self):
        u = FieldVector.from_bits(0b0110, 4)
        v = FieldVector.from_bits(0b0011, 4)
        assert (u + v).bits == 0b0101

    def test_mod_p_arithmetic(self):
        u = FieldVector([1, 2], 3)
        v = FieldVector([2, 2], 3)
        assert (u + v).entries == (0, 1)
        assert (u - v).entries == (2, 0)
        assert (-v).entries == (1, 1)
        assert v.scale(2).entries == (1, 1)

    def test_zero_and_is_zero(self):
        z = FieldVector.zero(3, 5)
        assert z.is_zero()
        assert not FieldVector([0, 1, 0], 5).is_zero()

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            FieldVector([1, 0], 2) + FieldVector([1, 0, 0], 2)
        with pytest.raises(DimensionMismatch):
            FieldVector([1, 0], 2) + FieldVector([1, 0], 3)

    def test_entries_reduced_mod_p(self):
        v = FieldVector([4, 7], 3)
        assert v.entries == (1, 1)

    def test_immutable_and_hashable(self):
        v = FieldVector([1, 0], 2)
        with pytest.raises(AttributeError):
            v.p = 3
        assert len({v, FieldVector([1, 0], 2)}) == 1


# ---------------------------------------------------------------------------
# rank


class TestRank:
    def test_identity_basis(self):
        vs = [FieldVector([1, 0], 2), FieldVector([0, 1], 2)]
        assert rank(vs) == 2

    def test_empty_span(self):
        assert rank([]) == 0

    def test_dependent_rows_against_exhaustive_span(self):
        vs = [FieldVector([1, 1], 2), FieldVector([1, 1], 2), FieldVector([0, 0], 2)]
        # oracle: enumerate all 2^3 combinations and count distinct sums
        span = set()
        for coeffs in itertools.product((0, 1), repeat=3):
            acc = FieldVector.zero(2, 2)
            for c, v in zip(coeffs, vs):
                if c:
                    acc = acc + v
            span.add(acc.entries)
        assert len(span) == 2  # {0, (1,1)} -> a 1-dimensional span
        assert rank(vs) == 1

    def test_result_bounded_by_count_and_dim(self):
        rng = _rng(7)
        for _ in range(50):
            n, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            vs = [FieldVector(list(rng.integers(0, 3, d)), 3) for _ in range(n)]
            assert rank(vs) <= min(n, d)

    def test_invariant_under_permutation(self):
        rng = _rng(1)
        for p in (2, 3):
            for _ in range(40):
                vs = [FieldVector(list(rng.integers(0, p, 4)), p) for _ in range(5)]
                base = rank(vs)
                perm = rng.permutation(5)
                assert rank([vs[i] for i in perm]) == base

    def test_invariant_under_row_addition(self):
        rng = _rng(2)
        for p in (2, 3):
            for _ in range(40):
                vs = [FieldVector(list(rng.integers(0, p, 4)), p) for _ in range(5)]
                base = rank(vs)
                i, j = rng.choice(5, size=2, replace=False)
                a = int(rng.integers(1, p))
                mod = list(vs)
                mod[i] = vs[i] + vs[j].scale(a)
                assert rank(mod) == base

    def test_mixed_moduli_rejected(self):
        with pytest.raises(DimensionMismatch):
            rank([FieldVector([1, 0], 2), FieldVector([1, 0], 3)])

    def test_rank_bits_matches_vector_rank(self):
        rng = _rng(3)
        for _ in range(60):
            n, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            rows = [int(b) for b in rng.integers(0, 1 << k, n)]
            vs = [FieldVector.from_bits(b, k) for b in rows]
            assert rank_bits(rows, k) == rank(vs)

    def test_rank_bits_refuses_rows_wider_than_width(self):
        assert rank_bits([0b111, 0b100]) == 2
        assert rank_bits([0b111, 0b100], 3) == 2
        for rows, width in (([0b111, 0b100], 1), ([0b1000], 3), ([-1], 3)):
            with pytest.raises(DimensionMismatch, match="does not fit"):
                rank_bits(rows, width)


# ---------------------------------------------------------------------------
# functionals


class TestFunctionals:
    def test_coordinate_projection(self):
        xi = LinearFunctional(FieldVector([1, 0], 2))
        got = xi(FieldVector([1, 1], 2))
        assert type(got) is int and got == 1

    def test_zero_functional(self):
        xi = LinearFunctional(FieldVector([0, 0], 2))
        for bits in range(4):
            assert xi(FieldVector.from_bits(bits, 2)) == 0

    def test_mod3_example_against_brute_force_table(self):
        xi = LinearFunctional(FieldVector([1, 2], 3))
        # oracle: tabulate xi over all 9 inputs by direct dot product
        for e0 in range(3):
            for e1 in range(3):
                v = FieldVector([e0, e1], 3)
                assert xi(v) == (e0 + 2 * e1) % 3
        assert xi(FieldVector([2, 2], 3)) == 0

    def test_linearity_in_both_arguments(self):
        rng = _rng(4)
        p = 5
        for _ in range(40):
            c1 = list(rng.integers(0, p, 3))
            c2 = list(rng.integers(0, p, 3))
            v = FieldVector(list(rng.integers(0, p, 3)), p)
            w = FieldVector(list(rng.integers(0, p, 3)), p)
            a = int(rng.integers(0, p))
            xi1 = LinearFunctional(FieldVector(c1, p))
            xi2 = LinearFunctional(FieldVector(c2, p))
            xi_sum = LinearFunctional(FieldVector(c1, p) + FieldVector(c2, p).scale(a))
            assert xi_sum(v) == (xi1(v) + a * xi2(v)) % p
            assert xi1(v + w.scale(a)) == (xi1(v) + a * xi1(w)) % p

    def test_dimension_mismatch(self):
        xi = LinearFunctional(FieldVector([1, 0], 2))
        with pytest.raises(DimensionMismatch):
            xi(FieldVector([1, 0, 1], 2))


# ---------------------------------------------------------------------------
# symplectic form


class TestSymplecticForm:
    def test_standard_pairing_values(self):
        form = SymplecticForm(2, 3)
        e1 = FieldVector([1, 0], 3)
        e2 = FieldVector([0, 1], 3)
        assert int(form.eval(e1, e2)) == 1
        got = form.eval(e2, e1)
        assert type(got) is int and got == 2  # -1 mod 3

    def test_alternating_on_every_vector(self):
        form = SymplecticForm(2, 3)
        for e0 in range(3):
            for e1 in range(3):
                v = FieldVector([e0, e1], 3)
                assert int(form.eval(v, v)) == 0

    def test_bilinearity_exhaustive_m1_p3(self):
        form = SymplecticForm(2, 3)
        vecs = [FieldVector([a, b], 3) for a in range(3) for b in range(3)]
        for v in vecs:
            for w in vecs:
                for u in vecs:
                    lhs = int(form.eval(v + w, u))
                    rhs = (int(form.eval(v, u)) + int(form.eval(w, u))) % 3
                    assert lhs == rhs
                for a in range(3):
                    lhs = int(form.eval(v.scale(a), w))
                    rhs = (a * int(form.eval(v, w))) % 3
                    assert lhs == rhs

    def test_consecutive_pair_convention(self):
        form = SymplecticForm(4, 5)
        basis = [FieldVector.from_bits(0, 4)] * 0  # placeholder for readability
        e = [FieldVector([1 if i == j else 0 for i in range(4)], 5) for j in range(4)]
        assert int(form.eval(e[0], e[1])) == 1
        assert int(form.eval(e[1], e[0])) == 4
        assert int(form.eval(e[2], e[3])) == 1
        assert int(form.eval(e[0], e[2])) == 0
        assert int(form.eval(e[0], e[3])) == 0

    def test_gram_matrix_nondegenerate(self):
        for p, h in ((3, 2), (3, 4), (5, 2)):
            form = SymplecticForm(h, p)
            e = [FieldVector([int(i == j) for i in range(h)], p) for j in range(h)]
            vs = [FieldVector([form.eval(ei, ej) for ej in e], p) for ei in e]
            assert rank(vs) == h

    def test_odd_dimension_rejected(self):
        with pytest.raises((ConfigError, ValueError)):
            SymplecticForm(3, 3)

    def test_dim_mismatch_rejected(self):
        form = SymplecticForm(2, 3)
        with pytest.raises(DimensionMismatch):
            form.eval(FieldVector([1, 0, 0, 0], 3), FieldVector([0, 1, 0, 0], 3))
