"""Heisenberg arithmetic, generation, representations, projections."""

import itertools

import numpy as np
import pytest

from groupwalks.algebra import FieldVector, SymplecticForm, _digits
from groupwalks import groups
from groupwalks.errors import CharacteristicError, InvariantError
from groupwalks.groups import (
    HeisenbergElement,
    Projection,
    Representation,
    decode_element,
    encode_element,
    fixed_projection,
    generates,
    h_identity,
    h_inv,
    h_mul,
    h_pow,
    heisenberg_elements,
    operator_norm,
    projection_family_bound,
    psi,
    representation_dimension_check,
    representation_residuals,
    _fixed_projections,
    _h_mul_codes,
    _pair_norms,
)

P, M = 3, 1
H_ALL = list(heisenberg_elements(P, M))


def _el(v0, v1, z, p=P):
    return HeisenbergElement(FieldVector([v0, v1], p), z)


def _commutator(g, k):
    """[g, k] = g k g^-1 k^-1, from the group law alone."""
    return h_mul(h_mul(g, k), h_mul(h_inv(g), h_inv(k)))


def _mult_table(p=P, m=M):
    """Integer multiplication table of H(p, m) by h_mul, keyed by element codes."""
    elements = list(heisenberg_elements(p, m))
    idx = {encode_element(g): i for i, g in enumerate(elements)}
    table = np.empty((len(elements), len(elements)), dtype=np.int64)
    for i, g in enumerate(elements):
        for j, k in enumerate(elements):
            table[i, j] = idx[encode_element(h_mul(g, k))]
    return table


TABLE = _mult_table()


# ---------------------------------------------------------------------------
# group law


class TestGroupLaw:
    def test_identity_element(self):
        e = h_identity(P, M)
        for g in H_ALL:
            assert h_mul(g, e) == g
            assert h_mul(e, g) == g

    def test_inverse_element(self):
        e = h_identity(P, M)
        for g in H_ALL:
            assert h_mul(g, h_inv(g)) == e
            assert h_mul(h_inv(g), g) == e

    def test_twisted_product_example(self):
        g = _el(1, 0, 0)
        k = _el(0, 1, 0)
        out = h_mul(g, k)
        # half of the pairing value 1 is 2 in F_3
        assert out == _el(1, 1, 2)

    def test_associativity_exhaustive(self):
        # oracle: the code-level multiplication table applied twice both ways
        ks = np.arange(27)
        left = TABLE[TABLE[:, :, None], ks[None, None, :]]
        right = TABLE[ks[:, None, None], TABLE[None, :, :]]
        assert (left == right).all()

    @pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (3, 2)])
    def test_code_law_matches_h_mul_table(self, p, m):
        # element index equals element code, so the table holds codes
        digits = _digits(np.arange(p ** (2 * m + 1), dtype=np.int64), p, 2 * m + 1)
        codes = _h_mul_codes(digits[:, None], digits[None], p)
        assert np.array_equal(codes, _mult_table(p, m))

    def test_exponent_p(self):
        e = h_identity(P, M)
        for g in H_ALL:
            assert h_pow(g, 0) == e
            assert h_pow(g, P) == e

    def test_power_matches_repeated_product(self):
        for g in H_ALL:
            acc = h_identity(P, M)
            for a in range(1, 2 * P):
                acc = h_mul(acc, g)
                assert h_pow(g, a) == acc

    def test_square_example(self):
        assert h_pow(_el(1, 0, 1), 2) == _el(2, 0, 2)

    def test_commutator_formula(self):
        form = SymplecticForm(2, P)
        for g in H_ALL[:9]:
            for k in H_ALL:
                c = _commutator(g, k)
                assert c.v.is_zero()
                assert c.z == form.eval(g.v, k.v)

    def test_commuting_pair_and_self_commutator(self):
        g = _el(1, 0, 1)
        k = _el(2, 0, 2)  # parallel horizontal parts commute
        assert _commutator(g, k) == h_identity(P, M)
        assert _commutator(g, g) == h_identity(P, M)

    def test_central_example(self):
        c = _commutator(_el(1, 0, 0), _el(0, 1, 0))
        assert c == _el(0, 0, 1)

    def test_characteristic_two_rejected(self):
        with pytest.raises((CharacteristicError, ValueError)):
            HeisenbergElement(FieldVector([1, 0], 2), 1)

    def test_encode_decode_roundtrip(self):
        for g in H_ALL:
            assert decode_element(encode_element(g), P, M) == g


# ---------------------------------------------------------------------------
# generation


def _closure_size(codes):
    """Size of the subgroup generated by the given element codes (table BFS)."""
    idx = {encode_element(g): i for i, g in enumerate(H_ALL)}
    e_idx = idx[encode_element(h_identity(P, M))]
    seen = {e_idx}
    frontier = [e_idx]
    gens = list(codes)
    while frontier:
        x = frontier.pop()
        for gi in gens:
            y = int(TABLE[x, gi])
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


class TestGenerates:
    def test_canonical_tuple(self):
        tup = (
            _el(1, 0, 0),
            _el(0, 1, 0),
            _el(0, 0, 1),
            h_identity(P, M),
        )
        assert generates(tup)

    def test_zero_horizontal_tuple(self):
        tup = (_el(0, 0, 1), _el(0, 0, 2))
        assert not generates(tup)

    def test_two_basis_elements_generate_everything(self):
        tup = (_el(1, 0, 0), _el(0, 1, 0))
        assert generates(tup)
        codes = [H_ALL.index(g) for g in tup]
        assert _closure_size(codes) == 27

    def test_agrees_with_closure_on_all_short_tuples(self):
        # every tuple of length <= 2 exhaustively, length 3 over a full axis
        for i in range(27):
            lone = (H_ALL[i],)
            assert generates(lone) == (_closure_size([i]) == 27)
        for i in range(27):
            for j in range(27):
                pair = (H_ALL[i], H_ALL[j])
                assert generates(pair) == (_closure_size([i, j]) == 27)

    def test_agrees_with_closure_on_sampled_triples(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        for _ in range(400):
            i, j, k = (int(x) for x in rng.integers(0, 27, 3))
            triple = (H_ALL[i], H_ALL[j], H_ALL[k])
            assert generates(triple) == (_closure_size([i, j, k]) == 27)


# ---------------------------------------------------------------------------
# representations


@pytest.fixture(scope="module", params=[1, 2])
def rep3(request):
    return Representation(P, M, request.param)


class TestRepresentation:
    def test_dimension(self, rep3):
        g = H_ALL[5]
        assert rep3.matrix(g).shape == (3, 3)

    def test_central_character_identity(self, rep3):
        lam = rep3.lam
        for z in range(P):
            mat = rep3.matrix(_el(0, 0, z))
            assert np.abs(mat - psi(lam * z, P) * np.eye(3)).max() < 1e-12

    def test_multiplicativity_exhaustive(self, rep3):
        mats = {encode_element(g): rep3.matrix(g) for g in H_ALL}
        for g in H_ALL:
            a = mats[encode_element(g)]
            for k in H_ALL:
                prod = a @ mats[encode_element(k)]
                assert np.abs(prod - mats[encode_element(h_mul(g, k))]).max() < 1e-10

    def test_unitarity(self, rep3):
        for g in H_ALL:
            u = rep3.matrix(g)
            assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12

    def test_projective_commutation_exhaustive(self, rep3):
        form = SymplecticForm(2, P)
        lam = rep3.lam
        mats = {encode_element(g): rep3.matrix(g) for g in H_ALL}
        for g in H_ALL:
            a = mats[encode_element(g)]
            for k in H_ALL:
                b = mats[encode_element(k)]
                phase = psi(lam * int(form.eval(g.v, k.v)), P)
                assert np.abs(a @ b - phase * (b @ a)).max() < 1e-10

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            Representation(P, M, 0)

    def test_dimension_budget(self):
        with pytest.raises(Exception):
            Representation(3, 9, 1, budget=16)

    def test_dimension_sum_identity(self):
        dim_sq_sum, order = representation_dimension_check(P, M)
        assert dim_sq_sum == order == 27
        dim_sq_sum5, order5 = representation_dimension_check(5, 1)
        assert dim_sq_sum5 == order5 == 125


# ---------------------------------------------------------------------------
# projections


class TestProjections:
    def test_identity_fixed_space(self):
        proj = fixed_projection(np.eye(4), 3)
        assert np.abs(proj.matrix - np.eye(4)).max() < 1e-12

    def test_diagonal_root_of_unity(self):
        zeta = np.exp(2j * np.pi / 3)
        U = np.diag([1.0 + 0j, zeta, zeta**2])
        proj = fixed_projection(U, 3)
        assert np.abs(proj.matrix - np.diag([1.0, 0.0, 0.0])).max() < 1e-12
        assert proj.rank == 1

    def test_hermitian_idempotent(self):
        rep = Representation(P, M, 1)
        for g in H_ALL[::5]:
            proj = fixed_projection(rep.matrix(g), P)
            mat = proj.matrix
            assert operator_norm(mat - mat.conj().T) < 1e-10
            assert operator_norm(mat @ mat - mat) < 1e-10
            evs = np.linalg.eigvalsh(mat)
            assert np.abs(evs - np.round(evs)).max() < 1e-10

    def test_non_torsion_rejected(self):
        with pytest.raises(ValueError):
            fixed_projection(np.diag([1.0, 0.5]), 3)

    def test_pair_norm_hits_inverse_sqrt_p(self):
        rep = Representation(P, M, 1)
        form = SymplecticForm(2, P)
        target = P**-0.5
        checked = 0
        for g in H_ALL[:9]:
            for k in H_ALL[:9]:
                if int(form.eval(g.v, k.v)) == 0:
                    continue
                pu = fixed_projection(rep.matrix(g), P).matrix
                pv = fixed_projection(rep.matrix(k), P).matrix
                assert abs(operator_norm(pu @ pv) - target) < 1e-10
                checked += 1
        assert checked > 0

    def test_pair_norm_bound_under_nontrivial_twist_p5(self):
        rep = Representation(5, 1, 2)
        form = SymplecticForm(2, 5)
        target = 5**-0.5
        els = [
            HeisenbergElement(FieldVector([a, b], 5), z)
            for a, b, z in ((1, 0, 0), (0, 1, 0), (1, 1, 3), (2, 3, 1), (4, 1, 2))
        ]
        for g in els:
            for k in els:
                if int(form.eval(g.v, k.v)) == 0:
                    continue
                pu = fixed_projection(rep.matrix(g), 5).matrix
                pv = fixed_projection(rep.matrix(k), 5).matrix
                assert operator_norm(pu @ pv) <= target + 1e-10

    def test_family_average_bound(self):
        rep = Representation(P, M, 1)
        projs = [fixed_projection(rep.matrix(g), P) for g in H_ALL[::3]]
        delta, lam_max, bound = projection_family_bound(projs, alpha=P**-0.5 + 1e-9)
        assert 0.0 < delta <= 1.0
        assert lam_max <= bound + 1e-12

    def test_family_average_bound_random_unitaries(self):
        rng = np.random.Generator(np.random.Philox(key=np.array([9, 0], dtype=np.uint64)))
        projs = []
        for _ in range(6):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, _ = np.linalg.qr(a)
            d = np.diag(np.where(rng.random(4) < 0.5, 1.0, np.exp(2j * np.pi / 3)))
            projs.append(fixed_projection(q @ d @ q.conj().T, 3))
        for alpha in (0.3, 0.6, 0.9):
            delta, lam_max, bound = projection_family_bound(projs, alpha)
            assert lam_max <= bound + 1e-12


def test_operator_norm_matches_svd_on_random_matrices():
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert operator_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def _repcheck_oracle(p, m):
    """The per-pair residual loops that representation_residuals replaced."""
    form = SymplecticForm(2 * m, p)
    elements = list(heisenberg_elements(p, m))
    blocks = []
    for lam in range(1, p):
        rep = Representation(p, m, lam)
        mats = np.stack([rep.matrix(g) for g in elements])
        d = mats.shape[1]
        idx_of = {g: i for i, g in enumerate(elements)}
        prod_idx = np.array(
            [[idx_of[h_mul(a, b)] for b in elements] for a in elements], dtype=np.int64
        )
        mult_res = 0.0
        comm_res = 0.0
        for i, g in enumerate(elements):
            lhs = mats[i] @ mats
            mult_res = max(mult_res, float(np.abs(lhs - mats[prod_idx[i]]).max()))
            rhs = mats @ mats[i]
            phases = np.array([psi(lam * int(form.eval(g.v, b.v)), p) for b in elements])
            comm_res = max(comm_res, float(np.abs(lhs - phases[:, None, None] * rhs).max()))
        eye = np.eye(d)
        unit_res = float(np.abs(np.einsum("nij,nkj->nik", mats, mats.conj()) - eye).max())
        central_res = 0.0
        for z in range(p):
            g = HeisenbergElement(FieldVector([0] * (2 * m), p), z)
            central_res = max(
                central_res, float(np.abs(rep.matrix(g) - psi(lam * z, p) * eye).max())
            )
        projections = [fixed_projection(mats[i], p) for i in range(len(elements))]
        worst_dev = 0.0
        checked = 0
        target = p**-0.5
        for i, g in enumerate(elements):
            for j, b in enumerate(elements):
                if i == j or int(form.eval(g.v, b.v)) == 0:
                    continue
                nrm = operator_norm(projections[i].matrix @ projections[j].matrix)
                worst_dev = max(worst_dev, abs(nrm - target))
                checked += 1
        blocks.append(
            {
                "lambda": lam,
                "dimension": d,
                "mult_residual": mult_res,
                "unitarity_residual": unit_res,
                "central_residual": central_res,
                "projective_commutation_residual": comm_res,
                "two_projection_pairs": checked,
                "two_projection_worst_deviation": worst_dev,
                "two_projection_target": target,
            }
        )
    return blocks


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_rep_stack_equals_per_element_matrices(p, m):
    digits = _digits(np.arange(p ** (2 * m + 1), dtype=np.int64), p, 2 * m + 1)
    for lam in range(1, p):
        rep = Representation(p, m, lam)
        want = np.stack([rep.matrix(g) for g in heisenberg_elements(p, m)])
        got = groups._rep_stack(p, m, lam, digits)
        assert got.dtype == want.dtype and np.array_equal(got, want)


_EXACT_FIELDS = ("lambda", "dimension", "two_projection_pairs", "two_projection_target")


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1)])
def test_representation_residuals_match_per_pair_oracle(p, m):
    # the blocked GEMMs and Gram-product norms round differently from the
    # per-pair loops, so float residuals agree to 1e-15 rather than exactly
    got, want = representation_residuals(p, m), _repcheck_oracle(p, m)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            if key in _EXACT_FIELDS:
                assert g[key] == w[key], key
            else:
                assert abs(g[key] - w[key]) <= 1e-15, key


def _product_tables(p, m):
    """Element digits, product codes and omega mod p, as representation_residuals builds them."""
    digits = _digits(np.arange(p ** (2 * m + 1), dtype=np.int64), p, 2 * m + 1)
    prod = _h_mul_codes(digits[:, None], digits[None], p)
    omega = groups._omega_digits(digits[:, None, :-1], digits[None, :, :-1]) % p
    return digits, prod, omega


def _dense_product_residuals(p, m, prod, omega):
    """The blocked complex GEMM sweep that _product_residuals replaced.

    Per lam, the products rho(g) rho(b) and rho(b) rho(g) for a block of
    rows g and every b are one GEMM each (blocks of at most 2^14 entries),
    compared with rho(gb) and with psi(lam omega(g, b)) rho(b) rho(g) by a
    dense difference.  The stacks come from groups._rep_stack.
    """
    n = p ** (2 * m + 1)
    digits = _digits(np.arange(n, dtype=np.int64), p, 2 * m + 1)
    phase = np.array([psi(t, p) for t in range(p)])
    mults, comms = [], []
    for lam in range(1, p):
        mats = groups._rep_stack(p, m, lam, digits)
        d = mats.shape[1]
        left = mats.reshape(n * d, d)  # row (b, r) is row r of rho(b)
        right = mats.transpose(1, 0, 2).reshape(d, n * d)  # column (b, s) is column s of rho(b)
        rows = max(1, (1 << 14) // (n * d * d))
        mult_res = comm_res = 0.0
        for lo in range(0, n, rows):
            block = mats[lo:lo + rows]
            nb = block.shape[0]
            # [i, b] = rho(g_i) rho(b) and rho(b) rho(g_i), as views of the GEMM outputs
            gb = (block.reshape(nb * d, d) @ right).reshape(nb, d, n, d).transpose(0, 2, 1, 3)
            bg = (left @ block.transpose(1, 0, 2).reshape(d, nb * d)).reshape(n, d, nb, d)
            bg = bg.transpose(2, 0, 1, 3)
            mult_res = max(mult_res, float(np.abs(gb - mats[prod[lo:lo + nb]]).max()))
            twist = phase[lam * omega[lo:lo + nb] % p][:, :, None, None]
            comm_res = max(comm_res, float(np.abs(gb - twist * bg).max()))
        mults.append(mult_res)
        comms.append(comm_res)
    return np.array(mults), np.array(comms)


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_product_residuals_match_dense_gemm_oracle(p, m):
    _, prod, omega = _product_tables(p, m)
    mult, comm = _dense_product_residuals(p, m, prod, omega)
    got = representation_residuals(p, m)
    assert np.abs([b["mult_residual"] for b in got] - mult).max() <= 1e-15
    assert np.abs([b["projective_commutation_residual"] for b in got] - comm).max() <= 1e-15
    assert max(mult.max(), comm.max()) <= 1e-14


def _corrupt(cols, phase, fault, g, p):
    """The tables with two columns of row g swapped, or one phase of it shifted by 1."""
    cols, phase = cols.copy(), phase.copy()
    if fault == "cols":
        cols[g, [0, 1]] = cols[g, [1, 0]]
    else:
        phase[g, 0] = (phase[g, 0] + 1) % p
    return cols, phase


@pytest.mark.parametrize("chunk", [None, 1])  # the default blocks of g, or one g per block
@pytest.mark.parametrize("p, m", [(5, 1), (3, 2)])
@pytest.mark.parametrize("fault", ["cols", "phase", "twist"])
def test_product_residuals_detect_injected_faults(monkeypatch, p, m, fault, chunk):
    if chunk is not None:
        monkeypatch.setattr(groups, "_AMBIENT_CHUNK", chunk)
    digits, prod, omega = _product_tables(p, m)
    g = int(np.flatnonzero(digits[:, :-1].any(axis=1))[3])  # a non-central element
    if fault == "twist":  # psi(2 lam omega) in place of psi(lam omega)
        omega = 2 * omega % p
    else:
        tables = groups._rep_tables
        monkeypatch.setattr(groups, "_rep_tables",
                            lambda p, m, digits: _corrupt(*tables(p, m, digits), fault, g, p))
    mult, comm = groups._product_residuals(p, m, *groups._rep_tables(p, m, digits), prod, omega)
    want_mult, want_comm = _dense_product_residuals(p, m, prod, omega)
    assert np.abs(mult - want_mult).max() <= 1e-15
    assert np.abs(comm - want_comm).max() <= 1e-15
    if fault == "twist":
        assert comm.min() >= 0.5 and mult.max() <= 1e-14
    else:
        assert mult.min() >= 0.5


def _moving_projections(p, m, lam):
    """Fixed-space projections of rho_lam on the non-central elements."""
    rep = Representation(p, m, lam)
    mats = np.stack([rep.matrix(g) for g in heisenberg_elements(p, m) if not g.v.is_zero()])
    return _fixed_projections(mats, p, 1e-10)


def _mixed_rank_projections(seed, d=4, count=8):
    """Projections of every rank 0..d, conjugated by random unitaries."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    projs = []
    for j in range(count):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, _ = np.linalg.qr(a)
        diag = np.zeros(d)
        diag[: j % (d + 1)] = 1.0
        projs.append(Projection(q @ np.diag(diag) @ q.conj().T))
    return projs


def _assert_pair_norms_match_per_pair_svd(stack):
    norms = _pair_norms(stack, 1e-10)
    assert norms.shape == (len(stack), len(stack))
    for j, a in enumerate(stack):
        for l, b in enumerate(stack):
            assert abs(norms[j, l] - operator_norm(a @ b)) <= 1e-14


@pytest.mark.parametrize("p, m, lam, stride", [
    (3, 1, 1, 1), (3, 1, 2, 1), (5, 1, 1, 1), (5, 1, 4, 1),
    (3, 2, 2, 8),  # rank-3 ranges: 30 of the 240 projections
])
def test_pair_norms_match_per_pair_svd(p, m, lam, stride):
    _assert_pair_norms_match_per_pair_svd(_moving_projections(p, m, lam)[::stride])


def test_pair_norms_match_per_pair_svd_on_mixed_ranks():
    _assert_pair_norms_match_per_pair_svd(np.stack([pp.matrix for pp in _mixed_rank_projections(17)]))


def test_pair_norms_refuse_a_non_projection():
    stack = np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 0.5])]).astype(complex)
    with pytest.raises(InvariantError, match="eigenvalue"):
        _pair_norms(stack, 1e-10)


def _refusal_text(u):
    with pytest.raises(ValueError) as exc:
        fixed_projection(u, 3)
    return str(exc.value)


@pytest.mark.parametrize("bad", ["non-torsion", "non-projection"])
def test_fixed_projections_refuse_like_fixed_projection(bad):
    zeta = np.exp(2j * np.pi / 3)
    if bad == "non-torsion":
        u = np.diag([1.0, 0.5]).astype(complex)
    else:  # 3-torsion but not normal: its power average is idempotent, not Hermitian
        s = np.array([[1.0, 1.0], [0.0, 1.0]])
        u = s @ np.diag([1.0, zeta]) @ np.linalg.inv(s)
    good = np.diag([1.0, zeta])
    text = _refusal_text(u)
    assert "torsion" in text if bad == "non-torsion" else "Hermitian" in text
    with pytest.raises(ValueError) as exc:
        _fixed_projections(np.stack([good, u, good]), 3, 1e-10)
    assert str(exc.value) == text


def test_family_bound_mixed_ranks_matches_per_pair_oracle():
    projs = _mixed_rank_projections(23, count=10)
    mats = [pp.matrix for pp in projs]
    assert sorted({pp.rank for pp in projs}) == [0, 1, 2, 3, 4]
    for alpha in (0.2, 0.5, 0.8, 0.95):
        delta, lam_max, bound = projection_family_bound(projs, alpha)
        good = sum(operator_norm(a @ b) <= alpha for a in mats for b in mats)
        assert delta == good / len(mats) ** 2
        assert lam_max == float(np.linalg.eigvalsh(sum(mats) / len(mats))[-1])
        assert bound == 1.0 - 0.5 * delta * (1.0 - alpha)
