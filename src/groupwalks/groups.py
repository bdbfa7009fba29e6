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
dimension count p^{2m} + (p-1) p^{2m} = p^{2m+1} = |H| is exact.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    FieldVector,
    LinearFunctional,
    SymplecticForm,
    _digits,
    check_prime,
    half_mod,
    rank,
)
from .errors import DimensionMismatch

__all__ = [
    "HeisenbergElement",
    "h_identity",
    "h_mul",
    "h_pow",
    "h_inv",
    "h_commutator",
    "generates",
    "heisenberg_elements",
    "encode_element",
    "decode_element",
    "psi",
    "Character",
    "character_value",
    "Representation",
    "build_representation",
    "representation_dimension_check",
    "operator_norm",
    "Projection",
    "fixed_projection",
    "projection_family_bound",
    "representation_residuals",
]

# Dense operator norms switch from full SVD to power iteration above this size.
SVD_DIM_MAX = 512
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

    def __pow__(self, a: int) -> "HeisenbergElement":
        return h_pow(self, a)

    def inverse(self) -> "HeisenbergElement":
        return h_inv(self)

    def is_identity(self) -> bool:
        return self.z == 0 and self.v.is_zero()

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
    place = p ** np.arange(v.shape[-1] + 1, dtype=np.int64)
    horizontal = (((v + w) % p) * place[:-1]).sum(axis=-1)
    return horizontal + ((z + t + half_mod(p) * _omega_digits(v, w)) % p) * place[-1]


def h_pow(g: HeisenbergElement, a: int) -> HeisenbergElement:
    """(v,z)^a = (a v, a z); valid for all integers a since omega(v,v)=0."""
    a = int(a) % g.p
    return HeisenbergElement(g.v.scale(a), (a * g.z) % g.p)


def h_inv(g: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(-g.v, -g.z % g.p)


def h_commutator(g: HeisenbergElement, k: HeisenbergElement) -> HeisenbergElement:
    """[g, k] = g k g^-1 k^-1 = (0, omega(v, w))."""
    _same_group(g, k)
    form = SymplecticForm(g.h, g.p)
    return HeisenbergElement(FieldVector.zero(g.h, g.p), int(form.eval(g.v, k.v)))


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
# characters and representations
# ---------------------------------------------------------------------------


def psi(t: int, p: int) -> complex:
    """The standard additive character exp(2 pi i t / p)."""
    return cmath.exp(2j * cmath.pi * (int(t) % p) / p)


@dataclass(frozen=True)
class Character:
    """One-dimensional representation chi_xi(v, z) = psi(xi(v)); trivial on the center."""

    xi: LinearFunctional


def character_value(chi: Character, g) -> complex:
    """chi_xi applied to a HeisenbergElement, or directly to a horizontal FieldVector.

    Accepting a bare vector covers the characteristic-two analogue
    chi_xi(u) = (-1)^{xi(u)} used by the row-addition walk.
    """
    v = g.v if isinstance(g, HeisenbergElement) else g
    val = int(chi.xi(v))
    return psi(val, chi.xi.p)


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

    def matrices_json(self, elements: Iterable[HeisenbergElement]) -> list:
        """Matrices as nested lists of [re, im] pairs, in the given element order."""
        out = []
        for g in elements:
            mat = self.matrix(g)
            out.append([[[float(x.real), float(x.imag)] for x in row] for row in mat])
        return out


def build_representation(p: int, m: int, lam: int, budget: int = DEFAULT_REP_DIM_BUDGET) -> Representation:
    """Construct rho_lam; raises ValueError for lam outside F_p^x or oversized p^m."""
    return Representation(p, m, lam, budget=budget)


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


def operator_norm(mat: np.ndarray, iters: int = 200, tol: float = 1e-13) -> float:
    """Largest singular value; full SVD up to SVD_DIM_MAX, power iteration above."""
    a = np.asarray(mat)
    n = max(a.shape)
    if n <= SVD_DIM_MAX:
        return float(np.linalg.svd(a, compute_uv=False)[0]) if min(a.shape) else 0.0
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    x /= np.linalg.norm(x)
    last = 0.0
    for _ in range(iters):
        y = a @ x
        x = a.conj().T @ y
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return 0.0
        x /= nrm
        val = float(np.sqrt(nrm))
        if abs(val - last) <= tol * max(1.0, val):
            return val
        last = val
    return last


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


def fixed_projection(U: np.ndarray, order: int, tol: float = 1e-10) -> Projection:
    """Orthogonal projection (1/p) sum_a U^a onto the fixed space of U.

    Requires U^order = I within tolerance (order = p for non-identity
    Heisenberg images); raises ValueError otherwise.
    """
    u = np.asarray(U, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("operator must be square")
    n = u.shape[0]
    acc = np.eye(n, dtype=complex)
    powers = np.eye(n, dtype=complex)
    for _ in range(order - 1):
        powers = powers @ u
        acc += powers
    # powers now holds U^{order-1}; one more multiply gives U^order.
    if operator_norm(powers @ u - np.eye(n)) > tol:
        raise ValueError(f"operator is not {order}-torsion within tolerance {tol}")
    return Projection(acc / order, tol=tol)


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
    good = 0
    for a in mats:
        for b in mats:
            if operator_norm(a @ b) <= alpha:
                good += 1
    delta = good / (n * n)
    avg = sum(mats) / n
    lam_max = float(np.linalg.eigvalsh(avg)[-1])
    return delta, lam_max, 1.0 - 0.5 * delta * (1.0 - alpha)


def representation_residuals(p: int, m: int) -> list[dict]:
    """Residuals of the rho_lam axioms and two-projection norms, one block per lam.

    Each block holds the worst multiplication, unitarity, central-character
    and projective-commutation residuals over all elements or ordered pairs,
    and the worst deviation of ||P_g P_b|| from p^{-1/2} over the ordered
    pairs with omega(g, b) != 0, where P_g = fixed_projection(rho_lam(g), p).
    Element indices are element codes, so the product table and omega come
    from digit arithmetic; matrix products and singular values are batched
    over one row of the pair table at a time, keeping memory at O(N d^2).
    """
    elements = list(heisenberg_elements(p, m))
    digits = _digits(np.arange(len(elements), dtype=np.int64), p, 2 * m + 1)
    prod = _h_mul_codes(digits[:, None], digits[None], p)  # (N, N) codes of g b
    omega = _omega_digits(digits[:, None, :-1], digits[None, :, :-1]) % p
    phase = np.array([psi(t, p) for t in range(p)])
    centre = np.arange(p)  # (0, z) has code z p^{2m}
    target = p**-0.5
    blocks = []
    for lam in range(1, p):
        rep = Representation(p, m, lam)
        mats = np.stack([rep.matrix(g) for g in elements])
        proj = np.stack([fixed_projection(u, p).matrix for u in mats])
        eye = np.eye(mats.shape[1])
        mult_res = comm_res = worst_dev = 0.0
        for i in range(len(elements)):
            lhs = mats[i] @ mats  # (N, d, d)
            mult_res = max(mult_res, float(np.abs(lhs - mats[prod[i]]).max()))
            twisted = phase[lam * omega[i] % p][:, None, None] * (mats @ mats[i])
            comm_res = max(comm_res, float(np.abs(lhs - twisted).max()))
            pairs = np.flatnonzero(omega[i])
            if pairs.size:
                norms = np.linalg.svd(proj[i] @ proj[pairs], compute_uv=False)[:, 0]
                worst_dev = max(worst_dev, float(np.abs(norms - target).max()))
        unit = np.einsum("nij,nkj->nik", mats, mats.conj()) - eye
        central = mats[centre * p ** (2 * m)] - phase[lam * centre % p][:, None, None] * eye
        blocks.append(
            {
                "lambda": lam,
                "dimension": mats.shape[1],
                "mult_residual": mult_res,
                "unitarity_residual": float(np.abs(unit).max()),
                "central_residual": float(np.abs(central).max()),
                "projective_commutation_residual": comm_res,
                "two_projection_pairs": int(np.count_nonzero(omega)),
                "two_projection_worst_deviation": worst_dev,
                "two_projection_target": target,
            }
        )
    return blocks
