"""State spaces, walk moves, kernels, enumeration, and seeded simulation."""

import itertools
import math

import numpy as np
import pytest

from groupwalks.algebra import FieldVector, rank_bits
from groupwalks import chains
from groupwalks.chains import (
    EnumeratedSpace,
    OneColumnWalk,
    PaPraWalk,
    TransvectionWalk,
    build_fibre_kernel,
    connected_components,
    heisenberg_space,
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
        assert PaPraWalk(4, 3, 1).counting_move_bound == 1 + 2 * 3 * 12


# ---------------------------------------------------------------------------
# fibre kernels


class TestFibreKernels:
    def test_two_value_fibre_matrix(self):
        fk = build_fibre_kernel("transvection", 0, (1, 0), k=1)
        assert np.abs(fk.matrix - 0.5 * np.ones((2, 2))).max() < 1e-15
        evs = np.sort(np.linalg.eigvalsh(fk.matrix))
        assert evs == pytest.approx([0.0, 1.0])

    def test_zero_frozen_rows_give_identity(self):
        fk = build_fibre_kernel("transvection", 2, (0, 0, 0), k=2)
        assert np.abs(fk.matrices if hasattr(fk, "matrices") else fk.matrix - np.eye(4)).max() == 0

    def test_doubly_stochastic_and_symmetric(self):
        rng = philox_generator(6)
        for _ in range(20):
            frozen = tuple(int(x) for x in rng.integers(0, 8, 6))
            fk = build_fibre_kernel("transvection", 0, frozen, k=3)
            assert np.abs(fk.matrix.sum(axis=0) - 1).max() < 1e-12
            assert np.abs(fk.matrix.sum(axis=1) - 1).max() < 1e-12
            assert np.abs(fk.matrix - fk.matrix.T).max() < 1e-12

    def test_group_fibre_rows_sum_and_symmetry(self):
        frozen = (_hel(1, 0, 0), _hel(0, 1, 0), _hel(1, 1, 2))
        fk = build_fibre_kernel("heisenberg", 1, frozen)
        assert fk.matrix.shape == (27, 27)
        assert np.abs(fk.matrix.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(fk.matrix - fk.matrix.T).max() < 1e-12

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
            fk = build_fibre_kernel("heisenberg", 0, frozen)
            space = heisenberg_space(p, m)
            expect = np.zeros((space.size, space.size))
            for gj in frozen:
                for a in range(p):
                    ga = h_pow(gj, a)
                    for xi in range(space.size):
                        x = space.state_at(xi)
                        expect[xi, space.index_of(x * ga)] += 1
                        expect[xi, space.index_of(ga * x)] += 1
            expect /= 2 * len(frozen) * p
            assert np.array_equal(fk.matrix, expect), (p, m)


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

    def test_walk_without_known_automorphisms_keeps_every_start(self):
        walk = PaPraWalk(2, 3, 1)
        space = walk.space()
        assert np.array_equal(walk.start_representatives(space), np.arange(space.size))


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
        for q in (0.0, 0.25):
            lazy = cls(*args, laziness=q)
            assert np.array_equal(lazy.dense(space), _oracle_dense(lazy, oracle))

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


class TestDriverReplay:
    @pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
    @pytest.mark.parametrize("laziness", [0.0, 0.25])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_engine_equals_replayed_moves(self, monkeypatch, case, laziness, trials):
        # 16-cell blocks: 40 steps cross two block boundaries at 1 trial and
        # seven at 3 trials
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 16)
        _assert_replay_equal(case, trials, list(range(41)), 61, laziness)

    def test_default_block_boundary(self):
        steps = chains._BLOCK_CELLS // 3 + 50
        grid = [0, 1, steps // 2, steps - 51, steps - 50, steps]
        _assert_replay_equal("one-column p=3", 3, grid, 62, 0.25)

    def test_blocks_are_sized_by_cells(self):
        blocks = list(chains._move_blocks(philox_generator(0), 10, 5000, 4))
        assert [b[0].shape for b in blocks] == [(10, 5000)]
        blocks = list(chains._move_blocks(philox_generator(0), 100_000, 1, 4))
        assert [b[0].shape[0] for b in blocks] == [chains._BLOCK_CELLS, 100_000 - chains._BLOCK_CELLS]

    @pytest.mark.parametrize("case", sorted(_REPLAY_CASES))
    def test_negative_grid_times_rejected(self, case):
        with pytest.raises(ValueError, match="nonnegative"):
            _engine_states(case, 2, [-1, 0, 5], 0, 0.0)

    @pytest.mark.parametrize("r, exponents, sides, laziness, trials", [
        (2, 1, False, 0.0, 7), (3, 3, True, 0.0, 5), (8, 5, True, 0.25, 3),
        (64, 1, False, 0.5, 9), (1025, 13, True, 0.0, 4),
    ])
    def test_int32_draws_equal_default_dtype_draws(self, monkeypatch, r, exponents, sides,
                                                   laziness, trials):
        # Philox's bounded 32-bit path: pair ranges r(r-1) = 2, 6, 56, 4 032
        # and 1 049 600 (about 2^20), exponent ranges 3, 5 and 13, side range 2
        monkeypatch.setattr(chains, "_BLOCK_CELLS", 64)
        steps = 50
        rng = philox_generator(71)
        got = list(chains._move_blocks(philox_generator(71), steps, trials, r,
                                       exponents, sides, laziness))
        per_block = max(1, 64 // trials)
        for done, block in zip(range(0, steps, per_block), got):
            shape = (min(per_block, steps - done), trials)
            i, j = np.divmod(rng.integers(0, r * (r - 1), size=shape), r - 1)
            j += j >= i
            a = rng.integers(0, exponents, size=shape) if exponents > 1 else np.ones(shape, np.int64)
            left = rng.integers(0, 2, size=shape) == 1 if sides else np.zeros(shape, bool)
            hold = rng.random(shape) < laziness if laziness > 0 else np.zeros(shape, bool)
            for want, have in zip((i, j, a, left, hold), block):
                assert np.array_equal(want, have)
        assert sum(b[0].shape[0] for b in got) == steps


def _element_product_oracle(p, m, codes_i, codes_j):
    """Element codes of g_i g_j by HeisenbergElement arithmetic."""
    return np.array([encode_element(decode_element(int(i), p, m) * decode_element(int(j), p, m))
                     for i, j in zip(codes_i, codes_j)])


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
    def test_table_budget_refused_before_the_law_runs(self, monkeypatch, p, m):
        def fail(*args):
            raise AssertionError("the group law ran before the budget check")

        monkeypatch.setattr(chains, "_h_mul_codes", fail)
        sv, sz = np.zeros((2 * m + 1, 2 * m), dtype=np.int64), np.zeros(2 * m + 1, dtype=np.int64)
        with pytest.raises(BudgetError, match="product tables"):
            pa_pra_batch(2 * m + 1, p, m, 2, [0, 5], 0, lambda t, v, z: None, sv, sz)
        with pytest.raises(BudgetError, match="product tables"):
            chains._pa_pra_tables(p, m)

    def test_move_tables_and_fibre_kernels_pass_the_table_budget(self, monkeypatch):
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
            build_fibre_kernel("heisenberg", 0, state[1:])

    @pytest.mark.parametrize("p, m", [(13, 1), (3, 3)])
    def test_largest_admitted_tables(self, p, m):
        q = p ** (2 * m + 1)
        assert 2 * q * q + p * q <= chains.DEFAULT_STATE_BUDGET
        powers, products = chains._pa_pra_tables(p, m)
        i, j = philox_generator(74).integers(0, q, size=(2, 200))
        assert np.array_equal(products[i * q + j], _element_product_oracle(p, m, i, j))

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
