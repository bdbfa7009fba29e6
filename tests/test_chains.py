"""State spaces, walk moves, kernels, enumeration, and seeded simulation."""

import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from groupwalks.algebra import FieldVector, _digits, _pack, rank_bits
from groupwalks import chains, cli
from groupwalks.chains import (
    EnumeratedSpace,
    OneColumnWalk,
    PaPraWalk,
    TransvectionWalk,
    build_fibre_kernel,
    connected_components,
    heisenberg_tuple_space,
    one_column_batch,
    one_column_space,
    one_column_step,
    pa_pra_batch,
    pa_pra_step,
    philox_generator,
    rank_bits_batch,
    rank_modp_batch,
    simulate,
    stiefel_space,
    transvection_batch,
    transvection_step,
)
from groupwalks.errors import BudgetError, InvalidMove
from groupwalks.groups import (
    HeisenbergElement,
    decode_element,
    encode_element,
    generates,
    h_identity,
    h_pow,
)
from test_diagnostics import EXACT_SWEEP


def _hel(v0, v1, z, p=3):
    return HeisenbergElement(FieldVector([v0, v1], p), z)


# ---------------------------------------------------------------------------
# single moves


class TestSteps:
    def test_row_addition_example(self):
        # rows (1,0) and (0,1) pack to 1 and 2; adding row 0 into row 1
        assert transvection_step((1, 2), 0, 1) == (1, 3)

    def test_row_addition_is_involution(self):
        rng = philox_generator(3)
        for _ in range(100):
            z = tuple(int(x) for x in rng.integers(0, 8, 5))
            a, b = (int(x) for x in rng.choice(5, size=2, replace=False))
            assert transvection_step(transvection_step(z, a, b), a, b) == z

    def test_row_addition_preserves_rank(self):
        rng = philox_generator(4)
        n, k = 6, 3
        for _ in range(1000):
            z = tuple(int(x) for x in rng.integers(0, 1 << k, n))
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            assert rank_bits(transvection_step(z, a, b), k) == rank_bits(z, k)

    def test_same_index_rejected(self):
        with pytest.raises(InvalidMove):
            transvection_step((1, 2), 1, 1)
        with pytest.raises(InvalidMove):
            one_column_step((1, 0), 0, 0, 1, 2)
        with pytest.raises(InvalidMove):
            pa_pra_step((_hel(1, 0, 0), _hel(0, 1, 0)), 1, 1, 1, "R")

    def test_column_update_example(self):
        assert one_column_step((1, 0, 0), 1, 0, 1, 2) == (1, 1, 0)

    def test_zero_exponent_holds(self):
        assert one_column_step((1, 2, 0), 1, 0, 0, 3) == (1, 2, 0)
        g = (_hel(1, 0, 0), _hel(0, 1, 0))
        assert pa_pra_step(g, 0, 1, 0, "R") == g
        assert pa_pra_step(g, 0, 1, 0, "L") == g

    def test_support_changes_by_at_most_one(self):
        rng = philox_generator(5)
        r, p = 6, 3
        for _ in range(500):
            y = tuple(int(x) for x in rng.integers(0, p, r))
            if all(v == 0 for v in y):
                continue
            supp = sum(1 for v in y if v)
            for i in range(r):
                for j in range(r):
                    if i == j:
                        continue
                    for a in range(p):
                        y2 = one_column_step(y, i, j, a, p)
                        supp2 = sum(1 for v in y2 if v)
                        assert abs(supp2 - supp) <= 1

    def test_tuple_update_horizontal_projection(self):
        g = (_hel(1, 2, 1), _hel(2, 1, 2))
        for side in ("R", "L"):
            for a in range(3):
                out = pa_pra_step(g, 0, 1, a, side)
                expect = (g[0].v + g[1].v.scale(a)).entries
                assert out[0].v.entries == expect
                assert out[1] == g[1]

    def test_tuple_update_inverse_move(self):
        g = (_hel(1, 2, 1), _hel(2, 1, 2), _hel(0, 1, 0))
        for side in ("R", "L"):
            for a in range(3):
                fwd = pa_pra_step(g, 0, 2, a, side)
                back = pa_pra_step(fwd, 0, 2, (-a) % 3, side)
                assert back == g

    def test_tuple_update_matches_group_product(self):
        g = (_hel(1, 2, 1), _hel(2, 1, 2))
        for a in range(3):
            right = pa_pra_step(g, 0, 1, a, "R")
            assert right[0] == g[0] * h_pow(g[1], a)
            left = pa_pra_step(g, 0, 1, a, "L")
            assert left[0] == h_pow(g[1], a) * g[0]


# ---------------------------------------------------------------------------
# kernel rows


class TestKernelRow:
    def test_two_row_successors_uniform(self):
        walk = TransvectionWalk(2, 1)
        row = walk.apply_kernel_row((1, 1))
        assert sorted(row) == [((0, 1), 0.5), ((1, 0), 0.5)]

    def test_probabilities_sum_to_one(self):
        for walk in (
            TransvectionWalk(4, 2, laziness=0.3),
            OneColumnWalk(4, 3),
            PaPraWalk(2, 3, 1, laziness=0.5),
        ):
            state = _default_start(walk)
            row = walk.apply_kernel_row(state)
            assert sum(p for _, p in row) == pytest.approx(1.0)

    def test_half_lazy_hold_mass(self):
        walk = TransvectionWalk(3, 2, laziness=0.5)
        state = (1, 2, 3)
        row = dict(walk.apply_kernel_row(state))
        assert row[state] >= 0.5

    def test_successor_count_bound(self):
        walk = PaPraWalk(2, 3, 1)
        row = walk.apply_kernel_row((_hel(1, 0, 0), _hel(0, 1, 0)))
        assert len(row) <= 2 * 3 * 2 * 1

    def test_state_outside_space_rejected(self):
        walk = TransvectionWalk(3, 2)
        with pytest.raises(ValueError):
            walk.apply_kernel_row((0, 0, 0))
        oc = OneColumnWalk(3, 3)
        with pytest.raises(ValueError):
            oc.apply_kernel_row((0, 0, 0))

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            TransvectionWalk(1, 1)
        with pytest.raises(ValueError):
            OneColumnWalk(1, 3)
        with pytest.raises(ValueError):
            PaPraWalk(1, 3, 1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_heisenberg_rank_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="m >= 1"):
            PaPraWalk(3, 3, m)
        with pytest.raises(ValueError, match="m >= 1"):
            pa_pra_batch(3, 3, m, 2, [0, 5], 0, lambda t, v, z: None,
                         np.zeros((3, 2 * m if m > 0 else 0)), np.zeros(3))

    def test_laziness_domain(self):
        # q = 1 is the identity kernel; outside [0, 1] the kernel is not stochastic
        space = stiefel_space(3, 2)
        op = TransvectionWalk(3, 2, laziness=1.0).operator(space)
        assert np.array_equal(op.toarray(), np.eye(space.size))
        # no zero-weight move entries, so each state is its own component
        assert op.nnz == space.size and chains._weak_components(op)[0] == space.size
        assert TransvectionWalk(3, 2, laziness=1.0).apply_kernel_row((1, 2, 0)) == [((1, 2, 0), 1.0)]
        walks = ((TransvectionWalk, (3, 2)), (OneColumnWalk, (3, 3)), (PaPraWalk, (3, 3, 1)))
        for cls, args in walks:
            for q in (-0.25, 1.25):
                with pytest.raises(ValueError, match=r"laziness must lie in \[0, 1\]"):
                    cls(*args, laziness=q)

    def test_laziness_wraps_the_dense_kernel(self):
        base = TransvectionWalk(3, 2)
        lazy = TransvectionWalk(3, 2, laziness=0.5)
        space = base.space()
        P0 = base.dense(space)
        Q = lazy.dense(space)
        assert np.abs(Q - 0.5 * (np.eye(space.size) + P0)).max() < 1e-14

    def test_move_count_constants(self):
        assert TransvectionWalk(5, 2).counting_move_bound == 1 + 20
        assert OneColumnWalk(5, 2).counting_move_bound == 1 + 20
        assert OneColumnWalk(5, 3).counting_move_bound == 1 + 40
        # 2 * 12 of PA-PRA's 72 moves have exponent 0, which is the hold
        assert PaPraWalk(4, 3, 1).counting_move_bound == 1 + 2 * 2 * 12


# ---------------------------------------------------------------------------
# fibre kernels


class TestFibreKernels:
    def test_two_value_fibre_matrix(self):
        fk = build_fibre_kernel("transvection", (1, 0), k=1)
        assert np.abs(fk - 0.5 * np.ones((2, 2))).max() < 1e-15
        evs = np.sort(np.linalg.eigvalsh(fk))
        assert evs == pytest.approx([0.0, 1.0])

    def test_zero_frozen_rows_give_identity(self):
        fk = build_fibre_kernel("transvection", (0, 0, 0), k=2)
        assert np.abs(fk - np.eye(4)).max() == 0

    def test_doubly_stochastic_and_symmetric(self):
        rng = philox_generator(6)
        for _ in range(20):
            frozen = tuple(int(x) for x in rng.integers(0, 8, 6))
            fk = build_fibre_kernel("transvection", frozen, k=3)
            assert np.abs(fk.sum(axis=0) - 1).max() < 1e-12
            assert np.abs(fk.sum(axis=1) - 1).max() < 1e-12
            assert np.abs(fk - fk.T).max() < 1e-12

    def test_group_fibre_rows_sum_and_symmetry(self):
        frozen = [encode_element(g) for g in (_hel(1, 0, 0), _hel(0, 1, 0), _hel(1, 1, 2))]
        fk = build_fibre_kernel("heisenberg", frozen, p=3, m=1)
        assert fk.shape == (27, 27) and not fk.flags.writeable
        assert np.abs(fk.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(fk - fk.T).max() < 1e-12

    def test_group_fibre_matches_direct_averaging(self):
        # exact equality with the h_mul loop: every entry is a count over 2 r1 p
        rng = philox_generator(8)
        cases = [(3, 1, (_hel(1, 2, 1),))]
        for p, m, r1 in ((3, 1, 4), (5, 1, 3), (3, 2, 3)):
            cases.append((p, m, tuple(
                HeisenbergElement(FieldVector(rng.integers(0, p, 2 * m), p), int(rng.integers(p)))
                for _ in range(r1)
            )))
        for p, m, frozen in cases:
            fk = build_fibre_kernel("heisenberg", [encode_element(g) for g in frozen], p=p, m=m)
            q = p ** (2 * m + 1)
            expect = np.zeros((q, q))
            for gj in frozen:
                for a in range(p):
                    ga = h_pow(gj, a)
                    for xi in range(q):
                        x = decode_element(xi, p, m)
                        expect[xi, encode_element(x * ga)] += 1
                        expect[xi, encode_element(ga * x)] += 1
            expect /= 2 * len(frozen) * p
            assert np.array_equal(fk, expect), (p, m)

    @pytest.mark.parametrize("kind, frozen, group", [
        ("transvection", (1, 8), {"k": 3}), ("transvection", (-1,), {"k": 3}),
        ("heisenberg", (0, 27), {"p": 3, "m": 1}), ("heisenberg", (), {"p": 3, "m": 1}),
        ("heisenberg", (1, 3), {}), ("transvection", (1,), {}), ("pa_pra", (1,), {"p": 3, "m": 1}),
    ])
    def test_fibre_inputs_refused(self, kind, frozen, group):
        with pytest.raises(ValueError):
            build_fibre_kernel(kind, frozen, **group)


# ---------------------------------------------------------------------------
# enumerated spaces


class TestSpaces:
    def test_spanning_pairs_count_and_oracle(self):
        space = stiefel_space(3, 2)
        assert space.size == 42 == (8 - 1) * (8 - 2)
        # oracle: filter all 64 row triples by rank
        count = sum(
            1
            for z in itertools.product(range(4), repeat=3)
            if rank_bits(z, 2) == 2
        )
        assert count == 42

    @pytest.mark.parametrize("state", [(0b100, 0b01, 0b10), (-1, 0b01, 0b10), (1, 2)])
    def test_rows_outside_the_space_are_not_in_omega(self, state):
        assert TransvectionWalk(3, 2).in_omega(state) is False

    def test_single_column_space_size(self):
        assert stiefel_space(5, 1).size == 31
        assert one_column_space(4, 3).size == 3**4 - 1

    def test_generating_pairs_count_and_oracle(self):
        space = heisenberg_tuple_space(2, 3, 1)
        assert space.size == 432 == 9 * 8 * 6
        els = [
            HeisenbergElement(FieldVector([a, b], 3), z)
            for a in range(3)
            for b in range(3)
            for z in range(3)
        ]
        count = sum(1 for g1 in els for g2 in els if generates((g1, g2)))
        assert count == 432

    def test_roundtrip_bijection(self):
        for space in (stiefel_space(3, 2), one_column_space(3, 3), heisenberg_tuple_space(2, 3, 1)):
            for i in range(0, space.size, 7):
                assert space.index_of(space.state_at(i)) == i

    def test_missing_code_raises_key_error(self):
        space = stiefel_space(3, 2)
        for code in (-1, int(space.codes[-1]) + 1, 1 << 40):
            with pytest.raises(KeyError, match=f"code {code} is not in the space"):
                space.index_of_code(code)
        # the group walk on one coordinate has no generating tuple
        empty = heisenberg_tuple_space(1, 3, 1)
        assert empty.size == 0
        with pytest.raises(KeyError, match="code 0 is not in the space"):
            empty.index_of_code(0)

    def test_code_lookup_matches_searchsorted(self):
        for space in (stiefel_space(4, 2), one_column_space(4, 3), heisenberg_tuple_space(2, 3, 1)):
            codes = philox_generator(space.size).choice(space.codes, size=(3, 50))
            idx = chains._indices_of(space, codes)
            assert idx.dtype == np.int64 and idx.shape == codes.shape
            assert np.array_equal(idx, np.searchsorted(space.codes, codes))
            assert space.index_of_code(int(space.codes[-1])) == space.size - 1
        assert chains._indices_of(space, np.zeros((2, 0), dtype=np.int64)).shape == (2, 0)

    def test_code_lookup_names_the_first_missing_code(self):
        space = stiefel_space(3, 2)
        gap = int(np.setdiff1d(np.arange(space.codes[-1]), space.codes)[0])
        top = int(space.codes[-1])
        for codes, first in (([top, -5, gap], -5), ([top, gap, top + 1], gap),
                             ([[top, top], [top + 1, -1]], top + 1)):
            with pytest.raises(KeyError, match=f"code {first} is not in the space"):
                chains._indices_of(space, np.array(codes))
        empty = EnumeratedSpace(np.array([], dtype=np.int64), encode=None, decode=None)
        assert chains._indices_of(empty, np.array([], dtype=np.int64)).size == 0
        for code in (0, -1, 7):
            with pytest.raises(KeyError, match=f"code {code} is not in the space"):
                empty.index_of_code(code)

    def test_code_index_table_refused_before_allocation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the code-index table was allocated before the budget check")

        space = EnumeratedSpace(np.array([3, 1 << 24]), encode=None, decode=None)
        monkeypatch.setattr(np, "full", fail)
        with pytest.raises(BudgetError,
                           match="16777217 code-index table entries exceed the state budget"):
            space.index_of_code(3)

    def test_negative_codes_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EnumeratedSpace(np.array([-2, 0, 5]), encode=None, decode=None)

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            stiefel_space(12, 12, budget=1000)
        with pytest.raises(BudgetError):
            one_column_space(20, 3, budget=1000)

    def test_chunked_stiefel_scan_matches_one_block(self, monkeypatch):
        n, k = 8, 2
        codes = np.arange(1 << (n * k), dtype=np.int64)
        rows = (codes[:, None] >> (np.arange(n) * k)) & 3
        expect = codes[rank_bits_batch(rows, k) == k]
        assert np.array_equal(stiefel_space(n, k).codes, expect)
        # blocks that do not divide the ambient size
        monkeypatch.setattr(chains, "_AMBIENT_CHUNK", 1000)
        assert np.array_equal(stiefel_space(n, k).codes, expect)

    def test_chunked_heisenberg_tuple_scan_matches_direct_filter(self, monkeypatch):
        r, p, m = 3, 3, 1
        hsize = p ** (2 * m + 1)
        expect = [
            c for c in range(hsize**r)
            if generates([decode_element(c // hsize**i % hsize, p, m) for i in range(r)])
        ]
        assert np.array_equal(heisenberg_tuple_space(r, p, m).codes, expect)
        # blocks that do not divide the ambient size 27^3
        monkeypatch.setattr(chains, "_AMBIENT_CHUNK", 1000)
        assert np.array_equal(heisenberg_tuple_space(r, p, m).codes, expect)

    def test_batched_rank_helpers(self):
        rng = philox_generator(7)
        rows = rng.integers(0, 16, size=(200, 6)).astype(np.int64)
        got = rank_bits_batch(rows, 4)
        for t in range(200):
            assert got[t] == rank_bits([int(x) for x in rows[t]], 4)
        mats = rng.integers(0, 3, size=(100, 4, 2)).astype(np.int64)
        got_p = rank_modp_batch(mats, 3)
        for t in range(100):
            vs = [FieldVector([int(x) for x in mats[t, i]], 3) for i in range(4)]
            from groupwalks.algebra import rank

            assert got_p[t] == rank(vs)


# ---------------------------------------------------------------------------
# automorphisms behind the exact-mixing start representatives


def _swap01(state):
    return (state[1], state[0]) + tuple(state[2:])


def _scale0(p):
    return lambda y: ((2 * y[0]) % p,) + tuple(y[1:])


class TestKernelAutomorphisms:
    @pytest.mark.parametrize("walk,f", [
        (TransvectionWalk(4, 2, laziness=0.25), _swap01),  # row swap
        (TransvectionWalk(5, 1), _swap01),
        (OneColumnWalk(4, 2), _swap01),  # coordinate swap
        (OneColumnWalk(4, 3, laziness=0.25), _swap01),
        (OneColumnWalk(4, 3, laziness=0.25), _scale0(3)),  # scaling by 2 mod p
        (OneColumnWalk(3, 5, laziness=0.5), _scale0(5)),
    ])
    def test_symmetry_generators_fix_the_kernel(self, walk, f):
        space = walk.space()
        P = walk.dense(space)
        perm = np.array([space.index_of(f(x)) for x in space.states()])
        assert np.array_equal(np.sort(perm), np.arange(space.size))
        assert not np.array_equal(perm, np.arange(space.size))
        assert np.array_equal(P[perm][:, perm], P)

    @pytest.mark.parametrize("q", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("cls,args", EXACT_SWEEP + [(PaPraWalk, (2, 3, 1))])
    def test_symmetries_are_commuting_kernel_involutions(self, cls, args, q):
        walk = cls(*args, laziness=q)
        space = walk.space()
        P = walk.dense(space)
        pi = np.full(space.size, 1.0 / space.size)
        gens = walk.symmetries(space)
        assert gens.shape[0] >= 1 and gens.shape[1] == space.size
        for g in gens:
            assert np.array_equal(g[g], np.arange(space.size))
            assert np.array_equal(P[g][:, g], P)
            assert np.array_equal(pi[g], pi)
        for g, h in itertools.combinations(gens, 2):
            assert np.array_equal(g[h], h[g])

    @pytest.mark.parametrize("walk,value_map", [
        (TransvectionWalk(4, 2), lambda z: ((z & ~3) | (z & 1) << 1 | (z >> 1) & 1)),
        (TransvectionWalk(3, 1), None),
        (OneColumnWalk(5, 3), lambda y: -y % 3),
        (OneColumnWalk(4, 2), None),
        (PaPraWalk(3, 3, 1), lambda g: HeisenbergElement(-g.v, g.z)),
    ])
    def test_symmetries_are_the_documented_maps(self, walk, value_map):
        """Coordinate transpositions (0 1), (2 3), ..., then the value map on
        every coordinate, applied to the decoded states."""
        space = walk.space()
        states = list(space.states())
        maps = [lambda x, c=c: x[:c] + (x[c + 1], x[c]) + x[c + 2:]
                for c in range(0, walk._coords - 1, 2)]
        if value_map is not None:
            maps.append(lambda x: tuple(value_map(v) for v in x))
        expect = np.array([[space.index_of(f(x)) for x in states] for f in maps])
        assert np.array_equal(walk.symmetries(space), expect)

    @pytest.mark.parametrize("n,k", [args for cls, args in EXACT_SWEEP if cls is TransvectionWalk]
                             + [(3, 2), (4, 3)])
    def test_row_and_column_generators_commute_with_the_operator(self, n, k):
        """S[pi][:, pi] == S exactly for the row transposition (0 1) and for
        generators of GL_k(F_2): the bit swap (0 1), the bit cycle and the
        transvection adding bit 0 to bit 1 (none at k = 1)."""
        walk = TransvectionWalk(n, k, laziness=0.25)
        space = walk.space()
        S = walk.operator(space)
        states = list(space.states())
        row_maps = [lambda z: (z[1], z[0]) + z[2:]]
        if k >= 2:
            bit_maps = [lambda v: v & ~3 | (v & 1) << 1 | v >> 1 & 1,
                        lambda v: (v << 1 | v >> (k - 1)) & ((1 << k) - 1),
                        lambda v: v ^ (v & 1) << 1]
            row_maps += [lambda z, f=f: tuple(f(v) for v in z) for f in bit_maps]
        for g in row_maps:
            pi = np.array([space.index_of(g(z)) for z in states])
            assert sorted(pi) == list(range(space.size))
            assert (S[pi][:, pi] != S).nnz == 0

    @pytest.mark.parametrize("cls,args", EXACT_SWEEP + [
        (TransvectionWalk, (3, 2)), (TransvectionWalk, (4, 3)), (TransvectionWalk, (4, 4)),
        (OneColumnWalk, (3, 7)), (PaPraWalk, (2, 3, 1)),
    ])
    def test_start_generators_commute_with_the_operator(self, cls, args):
        """Every generator of start_representatives' group, as its state
        permutation pi, satisfies S[pi][:, pi] == S exactly: (0 1), the
        coordinate cycle and the value involution, plus the GL_k(F_2)
        generators (k >= 2) or the unit scaling of y_0 (odd p)."""
        walk = cls(*args, laziness=0.25)
        space = walk.space()
        S = walk.operator(space)
        digits = _digits(space.codes, walk._base, walk._coords)
        perms = [chains._indices_of(space, _pack(image, walk._base))
                 for image in walk._automorphisms(digits)]
        # (0 1) and the cycle, then the value involution and the walk's own maps, if any
        count = {TransvectionWalk: 2 + 3 * (args[1] >= 2), OneColumnWalk: 2 + 2 * (args[1] > 2),
                 PaPraWalk: 3}[cls]
        assert len(perms) == count
        for pi in perms:
            assert np.array_equal(np.sort(pi), np.arange(space.size))
            assert (S[pi][:, pi] != S).nnz == 0


# ---------------------------------------------------------------------------
# reversibility and connectivity


class TestKernelStructure:
    def test_dense_kernels_symmetric(self):
        for walk, space in (
            (TransvectionWalk(3, 2), stiefel_space(3, 2)),
            (OneColumnWalk(3, 3), one_column_space(3, 3)),
            (PaPraWalk(2, 3, 1), heisenberg_tuple_space(2, 3, 1)),
        ):
            P = walk.dense(space)
            assert np.abs(P.sum(axis=1) - 1).max() < 1e-12
            assert np.abs(P - P.T).max() < 1e-12

    def test_move_permutations_are_bijections(self):
        walk = TransvectionWalk(3, 2)
        space = walk.space()
        perms = walk.move_permutations(space)
        for row in perms:
            assert np.array_equal(np.sort(row), np.arange(space.size))

    def test_spanning_tuple_graphs_connected(self):
        for n, k in ((3, 2), (4, 2)):
            walk = TransvectionWalk(n, k)
            space = walk.space()
            labels = connected_components(walk.move_permutations(space))
            assert labels.max() == 0

    def test_generating_pair_graph_splits_by_determinant(self):
        # with only two tuple slots every move adds a multiple of one
        # horizontal part to the other, so the determinant of the 2x2
        # horizontal matrix is conserved and the graph cannot be connected
        walk = PaPraWalk(2, 3, 1)
        space = walk.space()
        labels = connected_components(walk.move_permutations(space))
        sizes = np.bincount(labels)
        assert sorted(sizes) == [216, 216]

        def det(state):
            v1, v2 = state[0].v.entries, state[1].v.entries
            return (v1[0] * v2[1] - v1[1] * v2[0]) % 3

        dets = np.array([det(space.state_at(i)) for i in range(space.size)])
        for comp in (0, 1):
            assert len(set(dets[labels == comp])) == 1

    def test_generating_triple_graph_connected(self):
        walk = PaPraWalk(3, 3, 1)
        space = walk.space()
        labels = connected_components(walk.move_permutations(space))
        assert labels.max() == 0


# ---------------------------------------------------------------------------
# vectorised move tables against the per-state apply_move oracle


def _oracle_table(walk, space, columns):
    """Successor indices by apply_move + index_of, one (move, state) at a time."""
    out = np.empty((len(walk.moves), len(columns)), dtype=np.int64)
    for ci, si in enumerate(columns):
        state = space.state_at(si)
        for mi, mv in enumerate(walk.moves):
            out[mi, ci] = space.index_of(walk.apply_move(state, mv))
    return out


def _oracle_dense(walk, perms):
    """Per-move np.add.at assembly of the kernel from a move table."""
    M = perms.shape[1]
    mat = np.zeros((M, M))
    w = (1.0 - walk.laziness) / len(walk.moves)
    rows = np.arange(M)
    for mi in range(perms.shape[0]):
        np.add.at(mat, (rows, perms[mi]), w)
    if walk.laziness:
        mat[rows, rows] += walk.laziness
    return mat


def _oracle_operator(perms, laziness):
    """The CSR operator assembled unsorted, then merged by scipy's
    sum_duplicates, q added to the diagonal and zeros eliminated."""
    n_moves, M = perms.shape
    lazy = int(laziness > 0)
    row_nnz = n_moves + lazy
    cols = perms.T if not lazy else np.column_stack([perms.T, np.arange(M)])
    weights = [(1.0 - laziness) / n_moves] * n_moves + [0.0] * lazy
    mat = csr_matrix(
        (np.tile(weights, M), cols.astype(np.int32).ravel(),
         np.arange(0, M * row_nnz + 1, row_nnz, dtype=np.int32)),
        shape=(M, M),
    )
    mat.sum_duplicates()
    if lazy:
        rows = np.repeat(np.arange(M, dtype=np.int32), np.diff(mat.indptr))
        mat.data[mat.indices == rows] += laziness
        mat.eliminate_zeros()
    return mat


def _assert_same_csr(op, oracle):
    assert op.has_canonical_format and op.shape == oracle.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(op, name), getattr(oracle, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _oracle_components(perms):
    """Depth-first labels, numbered in the order of each component's first state."""
    n_moves, M = perms.shape
    label = np.full(M, -1, dtype=np.int64)
    comp = 0
    for s0 in range(M):
        if label[s0] >= 0:
            continue
        stack = [s0]
        label[s0] = comp
        while stack:
            x = stack.pop()
            for mi in range(n_moves):
                y = int(perms[mi, x])
                if label[y] < 0:
                    label[y] = comp
                    stack.append(y)
        comp += 1
    return label


_ORACLE_WALKS = [
    (TransvectionWalk, (3, 1)),
    (TransvectionWalk, (3, 2)),
    (TransvectionWalk, (4, 2)),
    (TransvectionWalk, (5, 2)),
    (OneColumnWalk, (5, 2)),
    (OneColumnWalk, (4, 3)),
    (OneColumnWalk, (3, 5)),
    (PaPraWalk, (2, 3, 1)),
]


_OPERATOR_WALKS = EXACT_SWEEP + [
    (TransvectionWalk, (3, 2)),
    (TransvectionWalk, (4, 3)),
    (PaPraWalk, (2, 3, 1)),
    (PaPraWalk, (3, 3, 1)),
]


class TestMoveTables:
    @pytest.mark.parametrize(
        "cls,args", _ORACLE_WALKS, ids=[f"{c.__name__}{a}" for c, a in _ORACLE_WALKS]
    )
    def test_table_dense_and_components_match_oracle(self, cls, args):
        walk = cls(*args)
        space = walk.space()
        perms = walk.move_permutations(space)
        oracle = _oracle_table(walk, space, range(space.size))
        assert perms.dtype == np.int64
        assert np.array_equal(perms, oracle)
        assert np.array_equal(connected_components(perms), _oracle_components(oracle))
        for q in (0.0, 0.125, 0.25, 0.375, 0.5):
            lazy = cls(*args, laziness=q)
            dense = lazy.dense(space)
            assert np.array_equal(dense, _oracle_dense(lazy, oracle))
            op = lazy.operator(space)
            assert op.indices.dtype == op.indptr.dtype == np.int32 and op.has_canonical_format
            assert np.array_equal(op.toarray(), dense)

    @pytest.mark.parametrize(
        "cls,args", _OPERATOR_WALKS, ids=[f"{c.__name__}{a}" for c, a in _OPERATOR_WALKS])
    def test_sorted_operator_is_bitwise_the_sum_duplicates_build(self, cls, args):
        walk = cls(*args)
        perms = walk.move_permutations(walk.space())
        for q in (0.0, 0.125, 0.25, 0.375, 0.5, 1.0):
            _assert_same_csr(chains._move_operator(perms, q), _oracle_operator(perms, q))

    def test_sorted_operator_on_random_tables(self):
        # few states and repeated rows: fixed points and successors reached
        # by several moves, on and off the diagonal
        rng = philox_generator(31)
        for M, n_moves in ((1, 3), (5, 4), (12, 9), (40, 7)):
            rows = [rng.permutation(M) for _ in range(n_moves - 2)]
            perms = np.stack(rows + [np.arange(M), rows[0]])
            rng.shuffle(perms)
            for q in (0.0, 0.125, 0.375, 0.5, 1.0):
                _assert_same_csr(chains._move_operator(perms, q), _oracle_operator(perms, q))
        empty = np.zeros((3, 0), dtype=np.int64)
        _assert_same_csr(chains._move_operator(empty, 0.5), _oracle_operator(empty, 0.5))

    def test_operator_past_int32_indices_refused(self):
        # broadcast views, nothing allocated: 2^31 entries, one past the int32
        # range, from 1 024 moves or from 1 023 moves and the lazy diagonal
        perms = np.broadcast_to(np.int64(0), (1024, 1 << 21))
        for moves, q in ((1024, 0.0), (1023, 0.5)):
            with pytest.raises(BudgetError,
                               match="2147483648 operator entries exceed the int32 index budget"):
                chains._move_operator(perms[:moves], q)

    @pytest.mark.parametrize("r,p", [(3, 3), (2, 5)])
    def test_group_table_on_sampled_states(self, r, p):
        walk = PaPraWalk(r, p, 1)
        space = walk.space()
        cols = philox_generator(r * p).choice(space.size, size=500, replace=False)
        perms = walk.move_permutations(space)
        assert np.array_equal(perms[:, cols], _oracle_table(walk, space, cols))

    def test_component_labels_follow_first_state(self):
        # the cycles of a random permutation, with its inverse as the second move
        sigma = philox_generator(4).permutation(60)
        perms = np.stack([sigma, np.argsort(sigma)])
        labels = connected_components(perms)
        assert labels.max() > 2
        assert np.array_equal(labels, _oracle_components(perms))

    def test_missing_successor_raises(self):
        walk = TransvectionWalk(3, 2)
        full = walk.space()
        partial = EnumeratedSpace(np.delete(full.codes, 17), full.encode, full.decode)
        with pytest.raises(KeyError, match="is not in the space"):
            walk.move_permutations(partial)


# ---------------------------------------------------------------------------
# simulation


def _default_start(walk):
    if isinstance(walk, TransvectionWalk):
        rows = [0] * walk.n
        for i in range(walk.k):
            rows[i] = 1 << i
        return tuple(rows)
    if isinstance(walk, OneColumnWalk):
        return tuple([1] + [0] * (walk.r - 1))
    els = [h_identity(walk.p, walk.m)] * walk.r
    els[0] = _hel(1, 0, 0)
    els[1] = _hel(0, 1, 0)
    if walk.r > 2:
        els[2] = _hel(0, 0, 1)
    return tuple(els)


class TestSimulate:
    def test_zero_steps(self):
        walk = TransvectionWalk(3, 1)
        traj = simulate(walk, (1, 0, 0), 0, seed=1, keep_states=True)
        assert traj.times == [0]
        assert traj.states == [(1, 0, 0)]

    def test_same_seed_identical_streams(self):
        walk = OneColumnWalk(5, 3)
        obs = {"support": lambda y: sum(1 for v in y if v)}
        a = simulate(walk, (1, 0, 0, 0, 0), 200, seed=9, observers=obs)
        b = simulate(walk, (1, 0, 0, 0, 0), 200, seed=9, observers=obs)
        assert a.observations == b.observations
        c = simulate(walk, (1, 0, 0, 0, 0), 200, seed=10, observers=obs)
        assert a.observations != c.observations

    def test_trajectory_ids_decorrelate(self):
        walk = OneColumnWalk(5, 3)
        obs = {"support": lambda y: sum(1 for v in y if v)}
        a = simulate(walk, (1, 0, 0, 0, 0), 200, seed=9, observers=obs, traj_id=0)
        b = simulate(walk, (1, 0, 0, 0, 0), 200, seed=9, observers=obs, traj_id=1)
        assert a.observations != b.observations

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate(TransvectionWalk(3, 1), (1, 0, 0), -1)

    def test_record_every_thins_the_grid(self):
        walk = TransvectionWalk(3, 1)
        traj = simulate(walk, (1, 0, 0), 10, seed=0, record_every=4)
        assert traj.times == [0, 4, 8, 10]

    def test_invalid_start_rejected(self):
        walk = TransvectionWalk(3, 2)
        with pytest.raises(ValueError):
            simulate(walk, (0, 0, 0), 5)

    def test_visit_frequencies_match_kernel_rows(self):
        # one long trajectory on a 7-state space; conditional one-step
        # frequencies from each state must match the exact kernel row
        walk = OneColumnWalk(3, 2)
        space = walk.space()
        P = walk.dense(space)
        steps = 100_000
        traj = simulate(walk, (1, 0, 0), steps, seed=12, keep_states=True)
        idx = np.array([space.index_of(s) for s in traj.states])
        counts = np.zeros((space.size, space.size))
        np.add.at(counts, (idx[:-1], idx[1:]), 1)
        visits = counts.sum(axis=1)
        assert visits.min() > 1000
        for x in range(space.size):
            for y in range(space.size):
                q = P[x, y]
                sigma = math.sqrt(q * (1 - q) / visits[x])
                if q == 0:
                    assert counts[x, y] == 0
                else:
                    assert abs(counts[x, y] / visits[x] - q) <= 3.5 * sigma


# ---------------------------------------------------------------------------
# batched engines


class TestBatchEngines:
    def test_single_step_frequencies_match_dense_row(self):
        r, p, trials = 3, 3, 40_000
        walk = OneColumnWalk(r, p)
        space = walk.space()
        P = walk.dense(space)
        start = tuple([1] + [0] * (r - 1))
        x0 = space.index_of(start)
        hits = {}

        def stat(t, y):
            if t == 1:
                codes = [space.index_of(tuple(int(v) for v in row)) for row in y]
                for c in codes:
                    hits[c] = hits.get(c, 0) + 1

        one_column_batch(r, p, trials, [1], seed=21, stat_fn=stat,
                         start=np.array(start, dtype=np.uint8))
        for y_idx in range(space.size):
            q = P[x0, y_idx]
            got = hits.get(y_idx, 0) / trials
            sigma = math.sqrt(max(q * (1 - q), 1e-12) / trials)
            assert abs(got - q) <= 4 * sigma + 1e-12

    def test_tuple_single_step_frequencies_match_dense_row(self):
        n, k, trials = 3, 2, 40_000
        walk = TransvectionWalk(n, k)
        space = walk.space()
        P = walk.dense(space)
        start = (1, 2, 0)
        x0 = space.index_of(start)
        hits = {}

        def stat(t, z):
            if t == 1:
                for row in z:
                    c = space.index_of(tuple(int(v) for v in row))
                    hits[c] = hits.get(c, 0) + 1

        transvection_batch(n, k, trials, [1], seed=22, stat_fn=stat,
                           start=np.array(start, dtype=np.int64))
        for y_idx in range(space.size):
            q = P[x0, y_idx]
            got = hits.get(y_idx, 0) / trials
            sigma = math.sqrt(max(q * (1 - q), 1e-12) / trials)
            assert abs(got - q) <= 4 * sigma + 1e-12

    def test_group_single_step_frequencies_match_dense_row(self):
        r, p, m, trials = 2, 3, 1, 40_000
        walk = PaPraWalk(r, p, m)
        space = walk.space()
        P = walk.dense(space)
        start = (_hel(1, 0, 0), _hel(0, 1, 0))
        x0 = space.index_of(start)
        start_v = np.array([[1, 0], [0, 1]], dtype=np.int64)
        start_z = np.zeros(2, dtype=np.int64)
        hits = {}

        def stat(t, v, z):
            if t != 1:
                return
            for tr in range(trials):
                state = tuple(
                    HeisenbergElement(FieldVector([int(a) for a in v[tr, i]], p), int(z[tr, i]))
                    for i in range(r)
                )
                c = space.index_of(state)
                hits[c] = hits.get(c, 0) + 1

        pa_pra_batch(r, p, m, trials, [1], seed=23, stat_fn=stat,
                     start_v=start_v, start_z=start_z)
        for y_idx in range(space.size):
            q = P[x0, y_idx]
            got = hits.get(y_idx, 0) / trials
            sigma = math.sqrt(max(q * (1 - q), 1e-12) / trials)
            assert abs(got - q) <= 4 * sigma + 1e-12

    def test_batched_runs_never_leave_the_state_space(self):
        # roughly a million moves per engine, checked on a coarse grid
        grid = [100, 400, 1000]
        checks = []

        def oc_stat(t, y):
            checks.append((y != 0).any(axis=1).all())

        one_column_batch(8, 3, 1000, grid, seed=31, stat_fn=oc_stat)

        def tr_stat(t, z):
            checks.append(bool((rank_bits_batch(z, 2) == 2).all()))

        transvection_batch(6, 2, 1000, grid, seed=32, stat_fn=tr_stat,
                           start=np.array([1, 2, 0, 0, 0, 0], dtype=np.int64))

        def pa_stat(t, v, z):
            checks.append(bool((rank_modp_batch(v, 3) == 2).all()))

        start_v = np.zeros((4, 2), dtype=np.int64)
        start_v[0, 0] = 1
        start_v[1, 1] = 1
        start_z = np.zeros(4, dtype=np.int64)
        start_z[2] = 1
        pa_pra_batch(4, 3, 1, 1000, grid, seed=33, stat_fn=pa_stat,
                     start_v=start_v, start_z=start_z)
        assert len(checks) == 9
        assert all(checks)

    def test_lazy_batch_single_step_hold_mass(self):
        r, trials = 4, 30_000
        stays = []

        def stat(t, y):
            if t == 1:
                stays.append(int(((y == np.array([1, 0, 0, 0])).all(axis=1)).sum()))

        one_column_batch(r, 2, trials, [1], seed=41, stat_fn=stat, laziness=0.5)
        frac = stays[0] / trials
        # hold mass = laziness + (pairs with a zero donor)/12 of the rest:
        # from (1,0,0,0), 9 of the 12 ordered pairs draw donor 0
        expect = 0.5 + 0.5 * (9 / 12)
        assert abs(frac - expect) < 0.02

    # each engine checks its start once, as simulate does, before any step
    @pytest.mark.parametrize("start", [[5, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0]])
    def test_one_column_start_outside_the_space_refused(self, start):
        seen = []
        with pytest.raises(ValueError, match="outside the state space"):
            one_column_batch(4, 3, 2, [0, 5], seed=0, stat_fn=lambda t, y: seen.append(t), start=start)
        assert seen == []

    @pytest.mark.parametrize("trials", [1, 16])  # Python ints, then int64 cells
    def test_one_column_prime_past_a_byte_replays(self, trials):
        # 65 537 is a prime above 46 341, where an int32 a y would wrap
        seen = []
        one_column_batch(3, 65_537, trials, [0], 1, lambda t, y: seen.append(y.copy()),
                         start=[65_536, 0, 0])
        assert seen[0].dtype == np.int64 and seen[0].tolist() == [[65_536, 0, 0]] * trials
        assert simulate(OneColumnWalk(3, 65_537), (65_536, 0, 0), 3, keep_states=True).states[0] == (
            65_536, 0, 0)
        _assert_replay_equal("one-column p=65537", trials, list(range(201)), 83, 0.0)
        one_column_batch(3, 251, 1, [0], 1, lambda t, y: seen.append(y.copy()), start=[250, 0, 0])
        assert seen[-1].dtype == np.uint8 and seen[-1].tolist() == [[250, 0, 0]]

    def test_transvection_rows_past_the_cell_width_refused(self):
        # int64 cells: the default start's row 1 << 63 would overflow at k = 64
        seen = []
        with pytest.raises(ValueError, match="codes per coordinate exceed the engine's int64 cells"):
            TransvectionWalk(64, 64).batch(2, [0, 3], 0, lambda t, z: seen.append(t))
        assert seen == []
        TransvectionWalk(63, 63).batch(2, [0, 3], 0, lambda t, z: seen.append(z.copy()))
        assert seen[0][0].tolist() == [1 << c for c in range(63)]

    @pytest.mark.parametrize("walk, start", [
        (TransvectionWalk(4, 3), (1, 2, 3, 0)),  # rows of rank 2 in F_2^3
        (OneColumnWalk(4, 3), (0, 0, 0, 0)),  # the zero vector
    ])
    def test_row_walk_start_outside_the_space_refused_before_any_step(self, walk, start):
        seen = []
        with pytest.raises(ValueError, match="outside the state space"):
            walk.batch(2, [0, 5], 0, lambda t, cells: seen.append(t), start)
        with pytest.raises(ValueError, match="outside the state space"):
            simulate(walk, start, 5, observers={"t": seen.append})
        assert seen == []

    @pytest.mark.parametrize("start", [[7, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 2, 0]])
    def test_transvection_start_outside_the_space_refused(self, start):
        seen = []
        with pytest.raises(ValueError, match="outside the state space"):
            transvection_batch(4, 2, 2, [0, 5], seed=0, stat_fn=lambda t, z: seen.append(t), start=start)
        assert seen == []

    @pytest.mark.parametrize("start_v, start_z", [
        ([[1, 0], [2, 0], [0, 0]], [0, 0, 0]),  # horizontal parts of rank 1
        ([[1, 0], [0, 1]], [0, 0]),  # two coordinates for r = 3
        ([[1, 0], [0, 1], [0, 0]], [0, 0]),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0]),  # H(3, 1) has 2m = 2 horizontal digits
    ])
    def test_pa_pra_start_outside_the_space_refused(self, start_v, start_z):
        seen = []
        with pytest.raises(ValueError, match="outside the state space"):
            pa_pra_batch(3, 3, 1, 2, [0, 5], 0, lambda t, v, z: seen.append(t), start_v, start_z)
        assert seen == []

    # the engines refuse what the walks refuse; F_4 is not Z/4
    @pytest.mark.parametrize("run, message", [
        (lambda stat: one_column_batch(3, 4, 2, [0, 5], 0, stat), "modulus 4 is not prime"),
        (lambda stat: one_column_batch(1, 3, 2, [0, 5], 0, stat), "at least two rows"),
        (lambda stat: transvection_batch(1, 1, 2, [0, 5], 0, stat, start=[1]),
         "needs at least two rows"),
    ], ids=["non-prime", "one-coordinate", "one-row"])
    def test_engines_refuse_what_the_walks_refuse(self, run, message):
        seen = []
        with pytest.raises(ValueError, match=message):
            run(lambda t, cells: seen.append(t))
        assert seen == []

    @pytest.mark.parametrize("walk, cells", [
        # uint8 cells up to 256 codes per coordinate, int64 cells beyond
        (OneColumnWalk(4, 3), np.array([1, 0, 0, 0], dtype=np.uint8)),  # e_1
        (OneColumnWalk(5, 2, laziness=0.5), np.array([1, 0, 0, 0, 0], dtype=np.uint8)),
        (OneColumnWalk(3, 257), np.array([1, 0, 0], dtype=np.int64)),
        (TransvectionWalk(5, 3), np.array([1, 2, 4, 0, 0], dtype=np.uint8)),  # basis rows, zeros
        (TransvectionWalk(10, 9), np.array([1 << c for c in range(9)] + [0], dtype=np.int64)),
        # canonical_start: the symplectic basis, the central generator, identities
        (PaPraWalk(4, 3, 1), np.array([1, 3, 9, 0], dtype=np.uint8)),
        (PaPraWalk(6, 3, 2), np.array([1, 3, 9, 27, 81, 0], dtype=np.uint8)),  # 243 codes
        (PaPraWalk(4, 7, 1), np.array([1, 7, 49, 0], dtype=np.int64)),  # 343 codes
    ])
    def test_default_start_is_observed_first(self, walk, cells):
        seen = []
        walk.batch(3, [0, 4], 7, lambda t, c: seen.append((t, c.copy())))
        assert [t for t, _ in seen] == [0, 4]
        first = seen[0][1]
        assert first.dtype == cells.dtype and np.array_equal(first, np.tile(cells, (3, 1)))
        state = walk._state_of(first[0].tolist())
        assert walk.in_omega(state)
        if isinstance(walk, PaPraWalk):
            sv, sz = chains.canonical_start(walk.r, walk.p, walk.m)
            assert [list(g.v.entries) for g in state] == sv.tolist()
            assert [g.z for g in state] == sz.tolist()

    def test_unreduced_pa_pra_start_is_reduced(self):
        got = []
        pa_pra_batch(3, 3, 1, 1, [0], 0, lambda t, v, z: got.append((v.copy(), z.copy())),
                     [[4, 0], [0, -2], [3, 3]], [5, 0, -1])
        assert got[0][0].tolist() == [[[1, 0], [0, 1], [0, 0]]] and got[0][1].tolist() == [[2, 0, 2]]


# ---------------------------------------------------------------------------
# the trajectory loop against its drawn moves, replayed one state at a time

_REPLAY_CASES = {
    "transvection": ({"n": 4, "k": 2}, (1, 2, 0, 0)),
    "one-column p=2": ({"r": 4, "p": 2}, (1, 0, 0, 0)),
    "one-column p=3": ({"r": 4, "p": 3}, (1, 0, 0, 0)),
    "one-column p=5": ({"r": 4, "p": 5}, (1, 0, 0, 0)),
    "one-column p=65537": ({"r": 3, "p": 65_537}, (1, 0, 0)),
    "pa-pra": ({"r": 3, "p": 3, "m": 1}, (_hel(1, 0, 0), _hel(0, 1, 0), _hel(0, 0, 1))),
    "pa-pra p=5": ({"r": 3, "p": 5, "m": 1},
                   (_hel(1, 0, 0, p=5), _hel(0, 1, 0, p=5), _hel(0, 0, 1, p=5))),
    "pa-pra m=2": ({"r": 5, "p": 3, "m": 2},
                   tuple(HeisenbergElement(FieldVector(v, 3), z) for v, z in (
                       ((1, 0, 0, 0), 0), ((0, 1, 0, 0), 0), ((0, 0, 1, 0), 0),
                       ((0, 0, 0, 1), 0), ((0, 0, 0, 0), 1)))),
}


def _replayed(case, trials, grid, seed, laziness):
    """States at the grid times from chains._move_blocks' draws, applied
    through transvection_step, one_column_step and pa_pra_step."""
    params, start = _REPLAY_CASES[case]
    if case == "transvection":
        r, exponents, sides = params["n"], 1, False
    else:
        r, sides = params["r"], case.startswith("pa-pra")
        exponents = 1 if params["p"] == 2 else params["p"]
    states = [start] * trials
    out = {0: list(states)} if 0 in grid else {}
    blocks = chains._move_blocks(philox_generator(seed), max(grid), trials, r,
                                 exponents, sides, laziness)
    t = 0
    for i, j, a, left, hold in blocks:
        for s in range(i.shape[0]):
            for tr in range(trials):
                if hold[s, tr]:
                    continue
                mv = (int(i[s, tr]), int(j[s, tr]), int(a[s, tr]))
                if case == "transvection":
                    states[tr] = transvection_step(states[tr], mv[1], mv[0])
                elif sides:
                    states[tr] = pa_pra_step(states[tr], *mv, "L" if left[s, tr] else "R")
                else:
                    states[tr] = one_column_step(states[tr], *mv, params["p"])
            t += 1
            if t in grid:
                out[t] = list(states)
    return out


def _engine_states(case, trials, grid, seed, laziness):
    params, start = _REPLAY_CASES[case]
    got = {}
    if case == "transvection":
        transvection_batch(params["n"], params["k"], trials, grid, seed,
                           lambda t, z: got.__setitem__(t, z.copy()),
                           start=np.array(start), laziness=laziness)
    elif case.startswith("pa-pra"):
        pa_pra_batch(params["r"], params["p"], params["m"], trials, grid, seed,
                     lambda t, v, z: got.__setitem__(t, (v.copy(), z.copy())),
                     start_v=[g.v.entries for g in start], start_z=[g.z for g in start],
                     laziness=laziness)
    else:
        one_column_batch(params["r"], params["p"], trials, grid, seed,
                         lambda t, y: got.__setitem__(t, y.copy()),
                         start=np.array(start), laziness=laziness)
    return got


def _assert_replay_equal(case, trials, grid, seed, laziness):
    got = _engine_states(case, trials, grid, seed, laziness)
    want = _replayed(case, trials, grid, seed, laziness)
    assert sorted(got) == sorted(want) == sorted(grid)
    for t in grid:
        if case.startswith("pa-pra"):
            v = np.array([[g.v.entries for g in st] for st in want[t]])
            z = np.array([[g.z for g in st] for st in want[t]])
            assert np.array_equal(got[t][0], v) and np.array_equal(got[t][1], z)
        else:
            assert np.array_equal(got[t], np.array(want[t]))


class _Enumerating:
    """Hands out the codes 0, ..., count - 1 in place of a draw."""

    def __init__(self, count):
        self.count = count

    def integers(self, low, high, size, dtype):
        assert (low, high, size) == (0, self.count, (1, self.count))
        self.dtype = dtype
        return np.arange(self.count, dtype=dtype).reshape(size)


class TestDriverReplay:
    @pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
    @pytest.mark.parametrize("laziness", [0.0, 0.25])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_engine_equals_replayed_moves(self, monkeypatch, case, laziness, trials):
        # 16-cell blocks: 40 steps cross two block boundaries at 1 trial and
        # seven at 3 trials
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 16)
        _assert_replay_equal(case, trials, list(range(41)), 61, laziness)  # Python ints
        monkeypatch.setattr(chains, "_SCALAR_TRIALS", 0)  # again on numpy cells
        _assert_replay_equal(case, trials, list(range(41)), 61, laziness)
        if case in ("transvection", "one-column p=2"):  # the XOR rule: again on packed words
            monkeypatch.setattr(chains, "_WORD_TRIALS", 1)
            monkeypatch.setattr(chains, "_WORD_STEPS_PER_GRID_TIME", 0)  # words on every-step grids
            _assert_replay_equal(case, trials, list(range(41)), 61, laziness)

    @pytest.mark.parametrize("walk, trials, grid, layout", [
        (OneColumnWalk(64, 2), chains._WORD_TRIALS, [0, 16], "word"),  # 64 bits
        (OneColumnWalk(64, 2), chains._WORD_TRIALS - 1, [0, 16], "cell"),
        (OneColumnWalk(65, 2), chains._WORD_TRIALS, [0, 16], "cell"),
        (TransvectionWalk(32, 2, 0.25), chains._WORD_TRIALS, [0, 16], "word"),
        (TransvectionWalk(13, 5), chains._WORD_TRIALS, [0, 16], "cell"),  # 65 bits
        (OneColumnWalk(4, 3), chains._WORD_TRIALS, [0, 16], "cell"),
        (PaPraWalk(3, 3, 1), chains._WORD_TRIALS, [0, 16], "cell"),
        # two grid times in 15 steps: fewer than _WORD_STEPS_PER_GRID_TIME per grid time
        (OneColumnWalk(64, 2), chains._WORD_TRIALS, [0, 15], "cell"),
        (TransvectionWalk(32, 2, 0.25), chains._WORD_TRIALS, [3, 15], "cell"),
        # mixing --mode mc's densest default grid, at r = 16: 34 grid times in 355 steps
        (OneColumnWalk(16, 2), chains._WORD_TRIALS,
         sorted({0, *np.geomspace(1, int(8 * 16 * np.log(16)) + 1, 40).astype(int)}), "word"),
        # narrow runs step Python ints on every rule, with or without laziness
        (OneColumnWalk(64, 2), 1, [0, 16], "scalar"),
        (OneColumnWalk(64, 2), chains._SCALAR_TRIALS, [0, 16], "scalar"),
        (OneColumnWalk(4, 3, 0.25), chains._SCALAR_TRIALS, [0, 1, 2], "scalar"),
        (TransvectionWalk(32, 2, 0.25), chains._SCALAR_TRIALS, [0, 16], "scalar"),
        (PaPraWalk(3, 3, 1, 0.25), chains._SCALAR_TRIALS, [0, 16], "scalar"),
        (OneColumnWalk(64, 2), chains._SCALAR_TRIALS + 1, [0, 16], "cell"),
        (OneColumnWalk(4, 3, 0.25), chains._SCALAR_TRIALS + 1, [0, 16], "cell"),
        (TransvectionWalk(32, 2, 0.25), chains._SCALAR_TRIALS + 1, [0, 16], "cell"),
        (PaPraWalk(3, 3, 1, 0.25), chains._SCALAR_TRIALS + 1, [0, 16], "cell"),
    ])
    def test_word_layout_only_for_wide_xor_runs(self, monkeypatch, walk, trials, grid, layout):
        used = []
        for name in ("_word_layout", "_cell_layout", "_scalar_layout"):
            build = getattr(chains, name)
            monkeypatch.setattr(chains, name, lambda *args, f=build, n=name: used.append(n) or f(*args))
        seen = []

        def write(t, codes):
            seen.append(codes.copy())
            with pytest.raises(ValueError, match="read-only"):
                codes[0, 0] = 1

        walk.batch(trials, grid, 5, write)
        assert used == [f"_{layout}_layout"]
        assert len(seen) == len(grid) and seen[0].shape == (trials, walk._coords)

    @pytest.mark.parametrize("walk, dtype", [
        (OneColumnWalk(4, 3), np.uint8), (TransvectionWalk(4, 2, 0.25), np.uint8),
        (PaPraWalk(3, 3, 1), np.uint8), (TransvectionWalk(9, 9, 0.25), np.int64),
        (PaPraWalk(3, 7, 1), np.int64),
    ])
    def test_zero_trials_observe_empty_codes(self, walk, dtype):
        seen = []
        walk.batch(0, [0, 5, 10], 3, lambda t, codes: seen.append((t, codes.shape, codes.dtype)))
        assert seen == [(t, (0, walk._coords), dtype) for t in (0, 5, 10)]

    @pytest.mark.parametrize("walk", [OneColumnWalk(64, 2), OneColumnWalk(17, 2, 0.25),
                                      TransvectionWalk(40, 1), TransvectionWalk(21, 3)])
    def test_word_unpack_equals_cells(self, monkeypatch, walk):
        # 1-bit fields (np.unpackbits, into uint8 and int64 codes) and 3-bit fields
        grid, states = [0, 16, 40, 100], {}
        for word_trials in (chains._WORD_TRIALS, 10**9):
            monkeypatch.setattr(chains, "_WORD_TRIALS", word_trials)
            got = states.setdefault(word_trials, [])
            walk.batch(70, grid, 9, lambda t, codes: got.append(codes.copy()))
        words, cells = states.values()
        assert len(words) == len(cells) == len(grid)
        for w, c in zip(words, cells):
            assert w.dtype == c.dtype and np.array_equal(w, c)

    def test_default_block_boundary(self):
        steps = chains._BLOCK_CELLS // 3 + 50
        grid = [0, 1, steps // 2, steps - 51, steps - 50, steps]
        _assert_replay_equal("one-column p=3", 3, grid, 62, 0.25)

    def test_blocks_are_sized_by_cells(self):
        blocks = list(chains._move_blocks(philox_generator(0), 10, 5000, 4))
        assert [b[0].shape for b in blocks] == [(10, 5000)]
        blocks = list(chains._move_blocks(philox_generator(0), 100_000, 1, 4))
        assert [b[0].shape[0] for b in blocks] == [chains._BLOCK_CELLS, 100_000 - chains._BLOCK_CELLS]
        # exponents, sides and coins that are not drawn are shared read-only constants
        assert not any(array.flags.writeable for array in blocks[-1][2:])

    @pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
    def test_negative_grid_times_rejected(self, case):
        with pytest.raises(ValueError, match="nonnegative"):
            _engine_states(case, 2, [-1, 0, 5], 0, 0.0)

    # code ranges r(r-1) e s = 2, 36, 560, 4 032 and 27 289 600 (uint32)
    _DRAW_CASES = [
        (2, 1, False, 0.0, 7), (3, 3, True, 0.0, 5), (8, 5, True, 0.25, 3),
        (64, 1, False, 0.5, 9), (1025, 13, True, 0.0, 4),
    ]

    @pytest.mark.parametrize("r, exponents, sides, laziness, trials", _DRAW_CASES)
    def test_blocks_replay_one_code_per_move(self, monkeypatch, r, exponents, sides,
                                             laziness, trials):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        steps, s = 50, 2 if sides else 1
        count = r * (r - 1) * exponents * s
        rng = philox_generator(71)
        # a block is a view of the run's buffers, valid until the next one is drawn
        got = [tuple(v.copy() for v in block)
               for block in chains._move_blocks(philox_generator(71), steps, trials, r,
                                                exponents, sides, laziness)]
        per_block = max(1, 64 // trials)
        for done, block in zip(range(0, steps, per_block), got):
            shape = (min(per_block, steps - done), trials)
            code = rng.integers(0, count, size=shape,
                                dtype=np.uint16 if count <= 1 << 16 else np.uint32)
            extra, pair = np.divmod(code.astype(np.int64), r * (r - 1))
            i, j = np.divmod(pair, r - 1)
            j += j >= i
            a, side = np.divmod(extra, s)
            a = a if exponents > 1 else np.ones(shape, np.int64)
            hold = rng.random(shape) < laziness if laziness > 0 else np.zeros(shape, bool)
            dtypes = (np.int32, np.int32, np.int32, np.bool_, np.bool_)
            for want, have, dtype in zip((i, j, a, side == 1, hold), block, dtypes):
                assert have.dtype == dtype and np.array_equal(want, have)
        assert sum(b[0].shape[0] for b in got) == steps

    @pytest.mark.parametrize("r, exponents, sides, laziness, trials", _DRAW_CASES)
    def test_blocks_reuse_one_set_of_buffers(self, monkeypatch, r, exponents, sides, laziness,
                                             trials):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        per_block = max(1, 64 // trials)
        steps = 4 * per_block + 1  # four full blocks and a one-step last block
        blocks = list(chains._move_blocks(philox_generator(71), steps, trials, r,
                                          exponents, sides, laziness))
        # recipient and donor always; the exponent, side and hold only when drawn
        drawn = [0, 1] + [2] * (exponents > 1) + [3] * sides + [4] * (laziness > 0)
        first, last = blocks[0], blocks[-1]
        assert last[0].shape == (1, trials)
        for x in drawn:
            assert first[x].base.shape == (per_block, trials)
            assert all(np.shares_memory(block[x], first[x]) for block in blocks[1:])
            # the last block is a prefix view: it starts where the first does
            assert (last[x].__array_interface__["data"][0]
                    == first[x].__array_interface__["data"][0])
            assert np.array_equal(last[x], first[x][:1])

    @pytest.mark.parametrize("steps, trials", [(5, 3), (40, 1), (0, 4)])
    def test_buffers_hold_no_more_than_the_run(self, monkeypatch, steps, trials):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        buffers = []
        decode_buffers = chains._decode_buffers
        monkeypatch.setattr(chains, "_decode_buffers",
                            lambda *args: buffers.append(decode_buffers(*args)) or buffers[-1])
        blocks = list(chains._move_blocks(philox_generator(2), steps, trials, 5, 3, True, 0.5))
        assert len(buffers) == 1
        assert all(b.shape == (min(64 // trials, steps), trials) for b in buffers[0])
        assert sum(b[0].shape[0] for b in blocks) == steps

    @pytest.mark.parametrize("walk, trials", [
        (OneColumnWalk(6, 3, 0.25), chains._SCALAR_TRIALS + 1),  # cells
        (PaPraWalk(3, 3, 1, 0.25), chains._SCALAR_TRIALS + 1),
        (OneColumnWalk(6, 3, 0.25), 3),  # Python ints
    ])
    def test_layouts_reuse_their_offset_buffers(self, monkeypatch, walk, trials):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        seen = []
        cell_offsets = chains._cell_offsets

        def spying(*args):
            offsets = cell_offsets(*args)

            def spy(i, j, hold):
                tgt, src = offsets(i, j, hold)
                r = walk._coords
                assert np.array_equal(tgt, i + np.arange(0, trials * r, r))
                assert np.array_equal(src, np.where(hold, trials * r, j + np.arange(0, trials * r, r)))
                seen.append((tgt, src))
                return tgt, src
            return spy

        monkeypatch.setattr(chains, "_cell_offsets", spying)
        walk.batch(trials, [0, 50], 4, lambda t, codes: None)
        assert len(seen) == -(-50 // (64 // trials)) > 2
        (tgt0, src0), (tgt_last, src_last) = seen[0], seen[-1]
        for tgt, src in seen[1:]:
            assert np.shares_memory(tgt, tgt0) and np.shares_memory(src, src0)
        assert tgt_last.__array_interface__["data"][0] == tgt0.__array_interface__["data"][0]
        assert src_last.__array_interface__["data"][0] == src0.__array_interface__["data"][0]

    @pytest.mark.parametrize("r, exponents, sides", [
        (2, 1, False), (3, 1, False), (4, 3, False), (3, 1, True), (4, 5, True),
        (2, 16_384, True), (2, 16_385, True),  # 2^16 codes (uint16) and 2^16 + 4 (uint32)
    ])
    def test_codes_decode_to_every_move_once(self, r, exponents, sides):
        count = r * (r - 1) * exponents * (2 if sides else 1)
        rng = _Enumerating(count)
        [(i, j, a, left, hold)] = chains._move_blocks(rng, 1, count, r, exponents, sides)
        assert rng.dtype == (np.uint16 if count <= 1 << 16 else np.uint32)
        assert not hold.any()
        moves = set(zip(i[0].tolist(), j[0].tolist(), a[0].tolist(), left[0].tolist()))
        exps = range(exponents) if exponents > 1 else [1]
        assert len(moves) == count
        assert moves == {(x, y, e, side) for x in range(r) for y in range(r) if x != y
                         for e in exps for side in ([False, True] if sides else [False])}

    def test_more_than_2_32_codes_refused(self):
        with pytest.raises(ValueError, match="2\\^32"):
            next(chains._move_blocks(philox_generator(0), 1, 1, 65_537, 500_000, True))

    @pytest.mark.parametrize("r, exponents, sides, laziness, trials", _DRAW_CASES)
    def test_one_integers_call_per_block(self, monkeypatch, r, exponents, sides, laziness,
                                         trials):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)

        class Counting:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.rng.integers(*args, **kwargs)

            def random(self, *args, **kwargs):
                return self.rng.random(*args, **kwargs)

        rng = Counting(philox_generator(71))
        blocks = chains._move_blocks(rng, 50, trials, r, exponents, sides, laziness)
        for made, _ in enumerate(blocks, start=1):
            assert rng.calls == made
        assert made == -(-50 // max(1, 64 // trials))

    @pytest.mark.parametrize("r", [2, 3, 17, 64])
    def test_word_operands_are_shifted_pair_tables(self, r):
        recipient, donor = chains._pair_tables(r)
        assert recipient.dtype == donor.dtype == np.int32 and recipient.size == r * (r - 1)
        for bits in range(1, 64 // r + 1):  # every field width whose word fits 64 bits
            row = np.zeros(r, dtype=np.int64)
            *_, operands = chains._word_layout(row, 3, bits, 0.0)
            for table, want in zip(operands, (recipient, donor)):
                assert table.dtype == np.uint64
                assert np.array_equal(table, want.astype(np.uint64) * np.uint64(bits))

    @pytest.mark.parametrize("r, bits, laziness", [(3, 5, 0.0), (16, 4, 0.25), (64, 1, 0.5)])
    def test_blocks_yield_the_supplied_operands(self, monkeypatch, r, bits, laziness):
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        *_, operands = chains._word_layout(np.zeros(r, dtype=np.int64), 5, bits, laziness)
        plain = chains._move_blocks(philox_generator(3), 40, 5, r, laziness=laziness)
        shifts = chains._move_blocks(philox_generator(3), 40, 5, r, laziness=laziness,
                                     operands=operands)
        for (i, j, *rest), (into, out_of, *same) in zip(plain, shifts, strict=True):
            assert into.dtype == out_of.dtype == np.uint64
            assert np.array_equal(into, i.astype(np.uint64) * np.uint64(bits))
            assert np.array_equal(out_of, j.astype(np.uint64) * np.uint64(bits))
            assert all(np.array_equal(x, y) for x, y in zip(rest, same))


def _pairs(r):
    return [(i, j) for i in range(r) for j in range(r) if i != j]


class TestMovesOnFirstUse:
    # (recipient, donor, exponent, left) in code order: pair fastest, then side, then exponent
    _WALKS = [
        (TransvectionWalk, (4, 2), [(i, j, 1, False) for i, j in _pairs(4)]),
        (OneColumnWalk, (4, 2), [(i, j, 1, False) for i, j in _pairs(4)]),
        (OneColumnWalk, (4, 3), [(i, j, a, False) for a in range(3) for i, j in _pairs(4)]),
        (PaPraWalk, (3, 3, 1), [(i, j, a, left) for a in range(3) for left in (False, True)
                                for i, j in _pairs(3)]),
    ]

    @pytest.mark.parametrize("cls, args, moves", _WALKS)
    def test_batch_leaves_moves_unbuilt(self, cls, args, moves):
        walk = cls(*args)
        for trials in (1, chains._SCALAR_TRIALS + 1, chains._WORD_TRIALS):
            walk.batch(trials, [0, 16], 5, lambda t, codes: None)
        assert "moves" not in vars(walk)
        assert walk.moves == moves and "moves" in vars(walk)

    @pytest.mark.parametrize("cls, args, moves", _WALKS)
    def test_moves_are_the_engines_decode(self, cls, args, moves):
        walk = cls(*args)
        count = len(walk.moves)
        [(i, j, a, left, hold)] = chains._move_blocks(_Enumerating(count), 1, count, walk._coords,
                                                      walk._exponents, walk._sides)
        assert walk.moves == list(zip(i[0].tolist(), j[0].tolist(), a[0].tolist(),
                                      left[0].tolist()))

    @pytest.mark.parametrize("cls,args", EXACT_SWEEP + [(PaPraWalk, (2, 3, 1))])
    def test_counting_bound_covers_every_successor_set(self, cls, args):
        walk = cls(*args)
        space = walk.space()
        perms = walk.move_permutations(space)
        with_hold = np.vstack([perms, np.arange(space.size)])
        distinct = max(len(set(column)) for column in with_hold.T.tolist())
        assert distinct <= walk.counting_move_bound

    def test_pa_pra_exponent_zero_moves_hold(self):
        walk = PaPraWalk(2, 3, 1)
        perms = walk.move_permutations(walk.space())
        zero = [k for k, (_, _, a, _) in enumerate(walk.moves) if a == 0]
        assert len(zero) == 2 * 1 * 2 and perms.shape == (12, 432)  # r(r-1) pairs x 2 sides
        assert np.array_equal(perms[zero], np.broadcast_to(np.arange(432), (4, 432)))

    @pytest.mark.parametrize("cls, args", [(TransvectionWalk, (3, 2)), (OneColumnWalk, (3, 3)),
                                           (PaPraWalk, (2, 3, 1))])
    def test_kernels_read_the_built_moves(self, cls, args):
        walk = cls(*args, laziness=0.25)
        space = walk.space()
        # move_permutations decodes every code itself; the oracle reads the moves list
        perms = walk.move_permutations(space)
        assert np.array_equal(perms, _oracle_table(walk, space, range(space.size)))
        dense = walk.dense(space)
        for x in (0, space.size // 2, space.size - 1):
            row = cls(*args, laziness=0.25).apply_kernel_row(space.state_at(x))  # moves unbuilt
            got = np.zeros(space.size)
            for state, prob in row:
                got[space.index_of(state)] = prob
            assert np.allclose(got, dense[x], rtol=0, atol=1e-15)


def _element_product_oracle(p, m, codes_i, codes_j):
    """Element codes of g_i g_j by HeisenbergElement arithmetic."""
    return np.array([encode_element(decode_element(int(i), p, m) * decode_element(int(j), p, m))
                     for i, j in zip(codes_i, codes_j)])


@pytest.fixture
def fresh_tables():
    """An empty _pa_pra_tables memo, so a test that counts or forbids table
    builds sees the same builds whatever ran before it."""
    chains._pa_pra_tables.cache_clear()
    yield
    chains._pa_pra_tables.cache_clear()


class TestPaPraTables:
    @pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (3, 2)])
    def test_tables_follow_the_group_law(self, p, m):
        q = p ** (2 * m + 1)
        powers, products = chains._pa_pra_tables(p, m)
        assert powers.dtype == products.dtype == np.int16
        assert powers.shape == (p * q,) and products.shape == (2 * q * q,)
        rng = philox_generator(73)
        i, j = rng.integers(0, q, size=(2, min(q * q, 3000)))
        if q * q <= 3000:
            i, j = np.divmod(np.arange(q * q), q)
        right = _element_product_oracle(p, m, i, j)
        assert np.array_equal(products[i * q + j], right)
        assert np.array_equal(products[q * q + j * q + i], right)  # left side: g_i g_j
        for a in range(p):
            want = [encode_element(h_pow(decode_element(c, p, m), a)) for c in range(q)]
            assert np.array_equal(powers[a * q:(a + 1) * q], want)

    @pytest.mark.parametrize("p, m", [(17, 1), (19, 1), (5, 2), (5, 3)])
    def test_table_budget_refused_before_the_law_runs(self, monkeypatch, fresh_tables, p, m):
        def fail(*args):
            raise AssertionError("the group law ran before the budget check")

        monkeypatch.setattr(chains, "_h_mul_codes", fail)
        sv, sz = np.zeros((2 * m + 1, 2 * m), dtype=np.int64), np.zeros(2 * m + 1, dtype=np.int64)
        with pytest.raises(BudgetError, match="product tables"):
            pa_pra_batch(2 * m + 1, p, m, 2, [0, 5], 0, lambda t, v, z: None, sv, sz)
        with pytest.raises(BudgetError, match="product tables"):
            chains._pa_pra_tables(p, m)

    def test_move_tables_and_fibre_kernels_pass_the_table_budget(self, monkeypatch, fresh_tables):
        # both apply the PA-PRA rule, so they build the tables and share their budget
        def fail(*args):
            raise AssertionError("the group law ran before the budget check")

        monkeypatch.setattr(chains, "_h_mul_codes", fail)
        p = 17
        state = (HeisenbergElement(FieldVector([1, 0], p), 0), HeisenbergElement(FieldVector([0, 1], p), 0))
        code = encode_element(state[0]) + p**3 * encode_element(state[1])
        space = EnumeratedSpace(np.array([code]), encode=None, decode=None)
        with pytest.raises(BudgetError, match="product tables"):
            PaPraWalk(2, p, 1).move_permutations(space)
        with pytest.raises(BudgetError, match="product tables"):
            build_fibre_kernel("heisenberg", [encode_element(state[1])], p=p, m=1)

    def test_refusal_is_checked_again(self, monkeypatch, fresh_tables):
        # a refused (p, m) is not memoised: the second call is refused again,
        # still before the group law runs, and leaves the last build in place
        tables = chains._pa_pra_tables(3, 1)

        def fail(*args):
            raise AssertionError("the group law ran before the budget check")

        monkeypatch.setattr(chains, "_h_mul_codes", fail)
        for _ in range(2):
            with pytest.raises(BudgetError, match="product tables"):
                chains._pa_pra_tables(17, 1)
        assert chains._pa_pra_tables(3, 1) is tables

    def test_tables_are_built_once_and_read_only(self, fresh_tables):
        powers, products = chains._pa_pra_tables(5, 1)
        assert chains._pa_pra_tables(5, 1)[0] is powers
        for table in (powers, products):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_fifty_fibre_spectrum_builds_the_tables_once(self, monkeypatch, fresh_tables, tmp_path):
        law = chains._h_mul_codes
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return law(*args)

        monkeypatch.setattr(chains, "_h_mul_codes", counted)
        assert cli.main(["spectrum", "--walk", "pa-pra", "-r", "8", "-p", "3", "-m", "1", "--fibres-only",
                         "--fibre-trials", "50", "--out", str(tmp_path / "fibres.json")]) == 0
        assert calls == [3]

    @pytest.mark.parametrize("p, m", [(13, 1), (3, 3)])
    def test_largest_admitted_tables(self, p, m):
        q = p ** (2 * m + 1)
        assert 2 * q * q + p * q <= chains.DEFAULT_STATE_BUDGET
        powers, products = chains._pa_pra_tables(p, m)
        i, j = philox_generator(74).integers(0, q, size=(2, 200))
        assert np.array_equal(products[i * q + j], _element_product_oracle(p, m, i, j))

    def test_scalar_rule_equals_array_rule(self):
        p, m = 3, 1
        q = p ** (2 * m + 1)
        x, y, a, left = (g.ravel() for g in np.meshgrid(range(q), range(q), range(p), [0, 1],
                                                          indexing="ij"))
        want = chains._pa_pra_rule(p, m)(x, y, a, left)
        scalar = chains._pa_pra_scalar_rule(p, m)
        got = [scalar(*move) for move in zip(x.tolist(), y.tolist(), a.tolist(), (left == 1).tolist())]
        assert got == want.tolist()

    def test_held_steps_keep_the_state(self):
        # laziness 1 holds every step: the spare's code 0 is the identity
        v = np.array([[1, 0], [0, 1], [2, 2]])
        z = np.array([2, 1, 0])
        got = []
        pa_pra_batch(3, 3, 1, 3, [0, 10, 50], 75, lambda t, V, Z: got.append((V.copy(), Z.copy())),
                     start_v=v, start_z=z, laziness=1.0)
        assert len(got) == 3
        for V, Z in got:
            assert (V == v[None]).all() and (Z == z[None]).all()
            assert V.dtype == Z.dtype == np.int16


@pytest.mark.parametrize("q", [0.0, 0.25])
@pytest.mark.parametrize("n", range(2, 9))
def test_tuple_walk_at_k1_is_the_column_walk_over_f2(n, q):
    """TransvectionWalk(n, 1) and OneColumnWalk(n, 2) are one row walk: the
    same space and description, kernel rows, move table, operator, starts,
    symmetries and moves, and for one seed the same batch codes, dtype
    included (uint8: two codes per coordinate), at 3, 16 and 128 trials
    (the scalar, cell and word layouts)."""
    tw, oc = TransvectionWalk(n, 1, laziness=q), OneColumnWalk(n, 2, laziness=q)
    space, other = tw.space(), oc.space()
    assert np.array_equal(space.codes, other.codes)
    assert space.description == other.description == f"F_2^{n} \\ 0"
    assert all(tw.apply_kernel_row(x) == oc.apply_kernel_row(x) for x in space.states())
    op, op_oc = tw.operator(space), oc.operator(other)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op, part), getattr(op_oc, part))
    for method in ("move_permutations", "start_representatives", "symmetries"):
        assert np.array_equal(getattr(tw, method)(space), getattr(oc, method)(other))
    assert np.array_equal(tw.moves, oc.moves)
    assert np.array_equal(tw.counting_move_bound, oc.counting_move_bound)
    for trials in (3, 16, 128):
        runs = []
        for walk in (tw, oc):
            seen = []
            walk.batch(trials, range(0, 201, 10), 31, lambda t, cells: seen.append(cells.copy()))
            runs.append(np.stack(seen))
        assert runs[0].dtype == runs[1].dtype == np.uint8
        assert runs[0].shape == runs[1].shape and runs[0].tobytes() == runs[1].tobytes()


def test_horizontal_projection_matches_column_walk():
    """The horizontal part of the tuple walk follows the column-walk law.

    Coupled check: drive both processes with one move stream; the tuple
    walk's horizontal parts projected by any functional must evolve exactly
    as the mod-p column walk driven by the same (recipient, donor,
    exponent) choices, with the side ignored.
    """
    rng = philox_generator(55)
    r, p, m = 4, 3, 1
    state = (_hel(1, 0, 0), _hel(0, 1, 0), _hel(0, 0, 1), _hel(1, 1, 2))
    xi = FieldVector([1, 2], p)

    def project(g):
        return sum(c * e for c, e in zip(xi.entries, g.v.entries)) % p

    y = tuple(project(g) for g in state)
    for _ in range(300):
        i, j = (int(x) for x in rng.choice(r, size=2, replace=False))
        a = int(rng.integers(p))
        side = "R" if int(rng.integers(2)) == 0 else "L"
        state = pa_pra_step(state, i, j, a, side)
        y = tuple(
            (y[q] + a * y[j]) % p if q == i else y[q] for q in range(r)
        )
        assert tuple(project(g) for g in state) == y
