"""Heisenberg groups H = F_p^{2m} x F_p over odd primes.

Group law, written additively in the horizontal part v and the central
coordinate z:

    (v, z) (w, t) = (v + w,  z + t + omega(v, w)/2),

with omega the standard alternating form and 1/2 = (p+1)/2 in F_p.  The
identity is (0, 0), inverses are (-v, -z), powers are (v, z)^a = (a v, a z)
(every non-identity element has order p), and commutators land in the
center: [(v,z), (w,t)] = (0, omega(v, w)).

A tuple of elements generates H exactly when its horizontal parts span
F_p^{2m}.

The irreducible representations are the p^{2m} one-dimensional characters
chi_xi(v, z) = psi(xi(v)) together with, for each lam in F_p^x, one
representation rho_lam of dimension p^m on which the center acts by
rho_lam(0, z) = psi(lam z) I, where psi(t) = exp(2 pi i t / p).  The
dimension count p^{2m} + (p-1) p^{2m} = p^{2m+1} = |H| is exact
(representation_dimension_check); only the rho_lam are built here.

rho_lam is realised on functions on the coset space of K = A x F_p, where
A is the span of the first vector of each symplectic pair and B the span
of the second.  With coset representatives s_b = (b, 0), b in B, the
matrix entries come out as a generalised permutation matrix:

    rho_lam(w, z)[b, b + w_B] = psi( lam (z - omega(w_A, b) - omega(w_A, w_B)/2) ),

where w = w_A + w_B is the A + B split of the horizontal part.  The basis
is ordered lexicographically in the B coordinates.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    _AMBIENT_CHUNK,
    FieldVector,
    SymplecticForm,
    _digits,
    _pack,
    check_prime,
    half_mod,
    rank,
)
from .errors import DimensionMismatch, InvariantError

__all__ = [
    "HeisenbergElement",
    "h_identity",
    "h_mul",
    "h_pow",
    "h_inv",
    "generates",
    "heisenberg_elements",
    "encode_element",
    "decode_element",
    "psi",
    "Representation",
    "representation_dimension_check",
    "operator_norm",
    "Projection",
    "fixed_projection",
    "projection_family_bound",
    "representation_residuals",
]

DEFAULT_REP_DIM_BUDGET = 512


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element (v, z) with v in F_p^{2m} and z the central coordinate."""

    v: FieldVector
    z: int

    def __post_init__(self):
        if self.v.p == 2:
            raise ValueError("Heisenberg groups here require odd characteristic")
        if self.v.dim % 2 != 0:
            raise ValueError(f"horizontal dimension must be even, got {self.v.dim}")
        object.__setattr__(self, "z", int(self.z) % self.v.p)

    @property
    def p(self) -> int:
        return self.v.p

    @property
    def h(self) -> int:
        return self.v.dim

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return h_mul(self, other)

    def __repr__(self) -> str:
        return f"H{self.p}({list(self.v.entries)}, {self.z})"


def h_identity(p: int, m: int) -> HeisenbergElement:
    return HeisenbergElement(FieldVector.zero(2 * m, p), 0)


def _same_group(g: HeisenbergElement, k: HeisenbergElement) -> None:
    if g.p != k.p or g.h != k.h:
        raise DimensionMismatch(f"elements of H({g.h},{g.p}) and H({k.h},{k.p})")


def h_mul(g: HeisenbergElement, k: HeisenbergElement) -> HeisenbergElement:
    """(v,z)(w,t) = (v+w, z + t + omega(v,w)/2)."""
    _same_group(g, k)
    p = g.p
    form = SymplecticForm(g.h, p)
    tw = int(form.eval(g.v, k.v))
    z = (g.z + k.z + half_mod(p) * tw) % p
    return HeisenbergElement(g.v + k.v, z)


def _omega_digits(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """omega(v, w) on horizontal digit arrays (last axis), not reduced mod p."""
    return (v[..., 0::2] * w[..., 1::2] - v[..., 1::2] * w[..., 0::2]).sum(axis=-1)


def _h_mul_codes(g: np.ndarray, k: np.ndarray, p: int) -> np.ndarray:
    """Element codes of the products g k, the law of h_mul on digit arrays.

    g and k hold encode_element digits (v_0, ..., v_{2m-1}, z) on their last
    axis and broadcast against each other.
    """
    v, z = g[..., :-1], g[..., -1]
    w, t = k[..., :-1], k[..., -1]
    central = (z + t + half_mod(p) * _omega_digits(v, w)) % p
    return _pack(np.concatenate([(v + w) % p, central[..., None]], axis=-1), p)


def h_pow(g: HeisenbergElement, a: int) -> HeisenbergElement:
    """(v,z)^a = (a v, a z); valid for all integers a since omega(v,v)=0."""
    a = int(a) % g.p
    return HeisenbergElement(g.v.scale(a), (a * g.z) % g.p)


def h_inv(g: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(-g.v, -g.z % g.p)


def generates(tup: Sequence[HeisenbergElement]) -> bool:
    """True when the tuple generates H, i.e. the horizontal parts span F_p^{2m}."""
    if not tup:
        return False
    h = tup[0].h
    for g in tup[1:]:
        _same_group(tup[0], g)
    return rank([g.v for g in tup]) == h


def heisenberg_elements(p: int, m: int) -> Iterator[HeisenbergElement]:
    """All p^{2m+1} elements, in the order of encode_element."""
    for code in range(p ** (2 * m + 1)):
        yield decode_element(code, p, m)


def encode_element(g: HeisenbergElement) -> int:
    """Pack (v, z) into an integer: base-p digits v_0, ..., v_{h-1}, z."""
    code = 0
    for i in reversed(range(g.h)):
        code = code * g.p + g.v[i]
    return code + g.z * g.p**g.h


def decode_element(code: int, p: int, m: int) -> HeisenbergElement:
    h = 2 * m
    digits = []
    c = int(code)
    for _ in range(h + 1):
        digits.append(c % p)
        c //= p
    if c:
        raise ValueError(f"code {code} out of range for H({h},{p})")
    return HeisenbergElement(FieldVector(digits[:h], p), digits[h])


# ---------------------------------------------------------------------------
# the additive character and the representations rho_lam
# ---------------------------------------------------------------------------


def psi(t: int, p: int) -> complex:
    """The standard additive character exp(2 pi i t / p)."""
    return cmath.exp(2j * cmath.pi * (int(t) % p) / p)


class Representation:
    """The p^m-dimensional irreducible rho_lam, with lam in F_p^x.

    Matrices are unitary generalised permutation matrices indexed by the
    B-side coset labels in lexicographic order; they are computed from the
    closed form in the module docstring and memoised per element.
    """

    def __init__(self, p: int, m: int, lam: int, budget: int = DEFAULT_REP_DIM_BUDGET):
        check_prime(p)
        if p == 2:
            raise ValueError("representations require odd p")
        lam = int(lam)
        if not 1 <= lam <= p - 1:
            raise ValueError(f"lambda must lie in F_p^x = [1, {p - 1}], got {lam}")
        dim = p**m
        if dim > budget:
            raise ValueError(f"dimension p^m = {dim} exceeds the matrix budget {budget}")
        self.p = p
        self.m = m
        self.lam = lam
        self.dimension = dim
        self._half = half_mod(p)
        # basis labels: coefficient tuples of b on the B-side basis vectors
        # e_1, e_3, ..., e_{2m-1} (0-indexed odd positions), lexicographic.
        self._labels = sorted(product(range(p), repeat=m))
        self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        self._cache: dict[int, np.ndarray] = {}

    def matrix(self, g: HeisenbergElement) -> np.ndarray:
        if g.p != self.p or g.h != 2 * self.m:
            raise DimensionMismatch("element does not belong to this group")
        code = encode_element(g)
        got = self._cache.get(code)
        if got is not None:
            return got
        p, m, lam = self.p, self.m, self.lam
        w = g.v.entries
        wa = [w[2 * q] for q in range(m)]         # A-side coordinates
        wb = tuple(w[2 * q + 1] for q in range(m))  # B-side coordinates
        cross = sum(w[2 * q] * w[2 * q + 1] for q in range(m)) % p
        base_phase = (g.z - self._half * cross) % p
        mat = np.zeros((self.dimension, self.dimension), dtype=complex)
        for row, b in enumerate(self._labels):
            col = self._label_index[tuple((bq + wq) % p for bq, wq in zip(b, wb))]
            phase = (base_phase - sum(aq * bq for aq, bq in zip(wa, b))) % p
            mat[row, col] = psi(lam * phase, p)
        mat.flags.writeable = False
        self._cache[code] = mat
        return mat


def representation_dimension_check(p: int, m: int) -> tuple[int, int]:
    """Exact integer dimension count: (sum of squared dimensions, |H|).

    p^{2m} characters contribute 1 each; p-1 representations contribute
    p^{2m} each; the two numbers returned must be equal.
    """
    total = p ** (2 * m) * 1 + (p - 1) * (p**m) ** 2
    return total, p ** (2 * m + 1)


# ---------------------------------------------------------------------------
# projections and operator norms
# ---------------------------------------------------------------------------


def operator_norm(mat: np.ndarray) -> float:
    """Largest singular value, by full SVD (exact at every size; matrices
    here are at most DEFAULT_REP_DIM_BUDGET on a side).  Of a stack of
    matrices, the largest over the stack, from one batched SVD."""
    a = np.asarray(mat)
    return float(np.linalg.svd(a, compute_uv=False)[..., 0].max()) if a.size else 0.0


@dataclass(frozen=True)
class Projection:
    """A Hermitian idempotent, validated at construction."""

    matrix: np.ndarray
    tol: float = 1e-10

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("projection must be square")
        if operator_norm(mat - mat.conj().T) > self.tol:
            raise ValueError("projection is not Hermitian within tolerance")
        if operator_norm(mat @ mat - mat) > self.tol:
            raise ValueError("projection is not idempotent within tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))


def _fixed_projections(stack: np.ndarray, order: int, tol: float) -> np.ndarray:
    """Projections (1/order) sum_a U^a for a whole (N, d, d) stack of U.

    Raises ValueError unless every U is order-torsion (U^order = I) and every
    average is Hermitian and idempotent, all within tol; each check is one
    batched SVD over the stack.
    """
    u = np.asarray(stack, dtype=complex)
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError("operator must be square")
    eye = np.eye(u.shape[1])
    powers = np.broadcast_to(eye.astype(complex), u.shape)
    acc = powers.copy()
    for _ in range(order - 1):
        powers = powers @ u
        acc += powers
    # powers now holds U^{order-1}; one more multiply gives U^order.
    if operator_norm(powers @ u - eye) > tol:
        raise ValueError(f"operator is not {order}-torsion within tolerance {tol}")
    proj = acc / order
    if operator_norm(proj - proj.conj().swapaxes(1, 2)) > tol:
        raise ValueError("projection is not Hermitian within tolerance")
    if operator_norm(proj @ proj - proj) > tol:
        raise ValueError("projection is not idempotent within tolerance")
    return proj


def fixed_projection(U: np.ndarray, order: int) -> Projection:
    """Orthogonal projection (1/p) sum_a U^a onto the fixed space of U.

    Requires U^order = I within 1e-10 (order = p for non-identity
    Heisenberg images); raises ValueError otherwise.
    """
    u = np.asarray(U, dtype=complex)
    if u.ndim != 2:
        raise ValueError("operator must be square")
    return Projection(_fixed_projections(u[None], order, 1e-10)[0])


def _pair_norms(stack: np.ndarray, tol: float) -> np.ndarray:
    """||P_j P_l|| for every ordered pair of an (n, d, d) stack of projections.

    The columns of U_j are the eigenvalue-1 eigenvectors of P_j, zero-padded
    to the largest rank k (zero columns leave singular values alone).  U_j is
    an isometry onto P_j's range, so ||P_j P_l|| = ||U_j^H U_l||, and every
    U_j^H U_l is a k x k block of one Gram product: its modulus when k = 1,
    else its top singular value from one batched SVD.  Raises InvariantError
    unless every eigenvalue lies within tol of 0 or 1.
    """
    n, d = stack.shape[:2]
    evals, vecs = np.linalg.eigh(stack)
    if n and np.minimum(np.abs(evals), np.abs(evals - 1.0)).max() > tol:
        raise InvariantError(f"a projection has an eigenvalue farther than {tol} from 0 and 1")
    k = int((evals > 0.5).sum(axis=1).max(initial=0))
    if k == 0:
        return np.zeros((n, n))
    basis = vecs[:, :, d - k:] * (evals[:, None, d - k:] > 0.5)  # eigh sorts ascending
    rows = basis.transpose(0, 2, 1).reshape(n * k, d)  # row (j, c) is column c of U_j
    gram = (rows.conj() @ rows.T).reshape(n, k, n, k)
    if k == 1:
        return np.abs(gram[:, 0, :, 0])
    return np.linalg.svd(gram.transpose(0, 2, 1, 3), compute_uv=False)[..., 0]


def projection_family_bound(
    projections: Sequence[Projection], alpha: float
) -> tuple[float, float, float]:
    """Diagnostics for an averaged projection family.

    Returns (delta, lam_max, bound) where delta is the fraction of ordered
    pairs (j, l) in [N]^2 — diagonal included — with ||P_j P_l|| <= alpha,
    lam_max is the top eigenvalue of the average (1/N) sum_j P_j, and
    bound = 1 - (delta/2)(1 - alpha).  The guarantee is lam_max <= bound.
    """
    mats = [np.asarray(pp.matrix) for pp in projections]
    n = len(mats)
    if n == 0:
        raise ValueError("empty projection family")
    norms = _pair_norms(np.stack(mats), max(pp.tol for pp in projections))
    delta = np.count_nonzero(norms <= alpha) / (n * n)
    avg = sum(mats) / n
    lam_max = float(np.linalg.eigvalsh(avg)[-1])
    return delta, lam_max, 1.0 - 0.5 * delta * (1.0 - alpha)


def _rep_tables(p: int, m: int, digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, phase), both (N, d), of elements given by their encode_element
    digits (N, 2m + 1): row b of rho_lam(g) has its one entry, psi(lam
    phase[g, b]), in column cols[g, b], by the module docstring's closed form."""
    d = p**m
    wa, wb, z = digits[:, 0:2 * m:2], digits[:, 1:2 * m:2], digits[:, -1]
    labels = _digits(np.arange(d, dtype=np.int64), p, m)[:, ::-1]  # lexicographic b
    place = p ** np.arange(m - 1, -1, -1, dtype=np.int64)
    cols = ((labels[None] + wb[:, None]) % p) @ place
    base = z - half_mod(p) * (wa * wb).sum(axis=1)
    return cols, (base[:, None] - wa @ labels.T) % p


def _rep_stack(p: int, m: int, lam: int, digits: np.ndarray) -> np.ndarray:
    """(N, d, d) stack of rho_lam on elements given by their encode_element
    digits (N, 2m + 1), filled from _rep_tables and a p-entry table of psi;
    the entries equal Representation.matrix's."""
    cols, phase = _rep_tables(p, m, digits)
    psi_table = np.array([psi(t, p) for t in range(p)])
    stack = np.zeros((digits.shape[0], p**m, p**m), dtype=complex)
    np.put_along_axis(stack, cols[:, :, None], psi_table[lam * phase % p][:, :, None], axis=2)
    return stack


def _product_residuals(p: int, m: int, cols: np.ndarray, phase: np.ndarray, prod: np.ndarray,
                       omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst entries of |rho(g) rho(b) - rho(gb)| and of |rho(g) rho(b) -
    psi(lam omega(g, b)) rho(b) rho(g)| over all pairs, for lam = 1, ..., p-1.

    Row r of the monomial rho(g) rho(b) has column cols[b, cols[g, r]] and
    phase phase[g, r] + phase[b, cols[g, r]] for every lam.  So the tables
    are composed once over all (g, b, r), and each row comparison is coded
    by base-p digits: a1, a2 and the column of u = psi(a1) psi(a2); e1, e2
    and the column of w = psi(om) (psi(e1) psi(e2)); om.  Against rho(gb),
    e1 = om = 0.  Per lam, u - w is evaluated on the distinct codes only;
    where the columns differ, a row's worst entry is max(|u|, |w|), as in
    the dense difference.  The codes are built over blocks of g holding at
    most _AMBIENT_CHUNK (g, b, r) entries, and every code seen is marked in
    one bool table of p^(2m+5) entries per comparison, so memory does not
    grow with the |H|^2 p^m triples.
    """
    n, d = cols.shape
    entry = cols * p + phase  # row (g, r): column and phase as m + 1 digits
    high, lifted, rows = (entry * p ** (m + 3)).ravel(), entry * p, np.arange(n)[:, None] * d
    seen = np.zeros((2, p ** (2 * m + 5)), dtype=bool)  # codes against rho(gb), then commutation
    step = max(1, _AMBIENT_CHUNK // (n * d))
    for lo in range(0, n, step):
        g = slice(lo, lo + step)
        code = high[rows + cols[g, None, :]]
        code += phase[g, None, :] * p ** (2 * m + 4)  # a1 and row cols[g, r] of rho(b)
        mult = lifted[prod[g]]
        mult += code
        seen[0, mult] = True
        code += lifted[g][:, cols]  # row cols[b, r] of rho(g)
        code += phase * p ** (m + 2)
        code += omega[g, :, None]
        seen[1, code] = True
    lam = np.arange(1, p)[:, None]
    psi_table = np.array([psi(t, p) for t in range(p)])
    worst = []
    for codes in seen:
        dig = _digits(np.flatnonzero(codes), p, 2 * m + 5)
        places = (2 * m + 4, m + 3, m + 2, 1, 0)
        a1, a2, e1, e2, om = (psi_table[lam * dig[:, i] % p] for i in places)
        u, w = a1 * a2, om * (e1 * e2)
        match = (dig[:, 2:m + 2] == dig[:, m + 4:2 * m + 4]).all(axis=1)
        worst.append(np.where(match, np.abs(u - w), np.maximum(np.abs(u), np.abs(w))).max(axis=1))
    return worst[0], worst[1]


def representation_residuals(p: int, m: int) -> list[dict]:
    """Residuals of the rho_lam axioms and two-projection norms, one block per lam.

    Each block holds the worst multiplication, unitarity, central-character
    and projective-commutation residuals over all elements or ordered pairs,
    and the worst deviation of ||P_g P_b|| from p^{-1/2} over the ordered
    pairs with omega(g, b) != 0, where P_g = fixed_projection(rho_lam(g), p).
    Element indices are element codes, so the product table and omega come
    from digit arithmetic.  The multiplication and commutation residuals of
    every lam come from one composition of the monomial tables
    (_product_residuals).  The projections are built and checked as one
    stack, and the pair norms come from one Gram product of their range
    bases (_pair_norms): for m = 1 every such range is a line, so no pair
    needs an SVD.
    """
    n = p ** (2 * m + 1)
    digits = _digits(np.arange(n, dtype=np.int64), p, 2 * m + 1)
    prod = _h_mul_codes(digits[:, None], digits[None], p)  # (N, N) codes of g b
    omega = _omega_digits(digits[:, None, :-1], digits[None, :, :-1]) % p
    mult_res, comm_res = _product_residuals(p, m, *_rep_tables(p, m, digits), prod, omega)
    # omega(g, b) != 0 only between non-central elements
    moving = np.flatnonzero(digits[:, :-1].any(axis=1))
    paired = omega[np.ix_(moving, moving)] != 0
    phase = np.array([psi(t, p) for t in range(p)])
    centre = np.arange(p)  # (0, z) has code z p^{2m}
    target = p**-0.5
    blocks = []
    for lam in range(1, p):
        mats = _rep_stack(p, m, lam, digits)
        d = mats.shape[1]
        proj = _fixed_projections(mats, p, tol=1e-10)
        norms = _pair_norms(proj[moving], tol=1e-10)[paired]
        worst_dev = float(np.abs(norms - target).max(initial=0.0))
        unit = np.einsum("nij,nkj->nik", mats, mats.conj()) - np.eye(d)
        central = mats[centre * p ** (2 * m)] - phase[lam * centre % p][:, None, None] * np.eye(d)
        blocks.append(
            {
                "lambda": lam,
                "dimension": d,
                "mult_residual": float(mult_res[lam - 1]),
                "unitarity_residual": float(np.abs(unit).max()),
                "central_residual": float(np.abs(central).max()),
                "projective_commutation_residual": float(comm_res[lam - 1]),
                "two_projection_pairs": int(np.count_nonzero(omega)),
                "two_projection_worst_deviation": worst_dev,
                "two_projection_target": target,
            }
        )
    return blocks
