"""Exact arithmetic over prime fields F_p.

Vectors store one reduced entry per coordinate for every prime p and refuse
mixed-modulus arithmetic; scalars are plain ints in [0, p).  On top of the
vectors sit linear functionals xi (with xi(v) = sum_i xi_i v_i mod p), the
standard alternating form on F_p^{2m},

    omega(v, w) = sum_q ( v_{2q} w_{2q+1} - v_{2q+1} w_{2q} ),

and Gaussian-elimination rank.  Everything here is exact integer
arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CharacteristicError, DimensionMismatch

__all__ = [
    "FieldVector",
    "LinearFunctional",
    "SymplecticForm",
    "check_prime",
    "half_mod",
    "rank",
    "rank_bits",
]

# Largest modulus the trial-division primality check will certify.
_PRIME_CHECK_MAX = 1 << 20
# Entries per block of a blocked scan: codes of an ambient enumeration
# (chains._ambient_scan) or (g, b, row) product codes (groups._product_residuals).
_AMBIENT_CHUNK = 1 << 18
_prime_cache: dict[int, bool] = {}


def check_prime(p: int) -> None:
    """Raise ValueError unless p is a certified prime modulus."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
    if p > _PRIME_CHECK_MAX:
        raise ValueError(f"modulus {p} exceeds the primality-check ceiling {_PRIME_CHECK_MAX}")
    cached = _prime_cache.get(p)
    if cached is None:
        cached = True
        d = 2
        while d * d <= p:
            if p % d == 0:
                cached = False
                break
            d += 1
        _prime_cache[p] = cached
    if not cached:
        raise ValueError(f"modulus {p} is not prime")


def half_mod(p: int) -> int:
    """The scalar 1/2 in F_p, i.e. (p+1)/2.  Undefined in characteristic two."""
    check_prime(p)
    if p == 2:
        raise CharacteristicError("1/2 does not exist over F_2")
    return (p + 1) // 2


def _digits(codes: np.ndarray, base: int, count: int) -> np.ndarray:
    """Base-`base` digits of integer codes, least significant first: (..., count)."""
    return (codes[..., None] // base ** np.arange(count, dtype=np.int64)) % base


def _pack(digits: np.ndarray, base: int) -> np.ndarray:
    """int64 codes of base-`base` digits on the last axis, least significant
    first: the inverse of _digits, by Horner's rule."""
    codes = digits[..., -1].astype(np.int64)
    for c in range(digits.shape[-1] - 2, -1, -1):
        codes *= base
        codes += digits[..., c]
    return codes


class FieldVector:
    """A vector in F_p^dim, kept as a tuple of entries reduced mod p.

    Instances are immutable and hashable.  Over F_2, `bits` and `from_bits`
    convert to and from the packed int whose bit i is coordinate i.
    """

    __slots__ = ("p", "dim", "entries")

    def __init__(self, entries: Iterable[int], p: int):
        check_prime(p)
        ent = tuple(int(e) % p for e in entries)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", len(ent))
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FieldVector is immutable")

    @classmethod
    def zero(cls, dim: int, p: int) -> "FieldVector":
        return cls((0,) * dim, p)

    @classmethod
    def from_bits(cls, bits: int, dim: int) -> "FieldVector":
        """F_2 vector from a packed bit pattern (coordinate i = bit i)."""
        if bits < 0 or bits >> dim:
            raise ValueError(f"bit pattern {bits} does not fit in {dim} coordinates")
        return cls(((bits >> i) & 1 for i in range(dim)), 2)

    @property
    def bits(self) -> int:
        if self.p != 2:
            raise CharacteristicError("bit view only exists over F_2")
        return sum(e << i for i, e in enumerate(self.entries))

    def _check_same(self, other: "FieldVector") -> None:
        if not isinstance(other, FieldVector):
            raise TypeError(f"expected FieldVector, got {type(other).__name__}")
        if self.p != other.p or self.dim != other.dim:
            raise DimensionMismatch(
                f"shape ({self.dim},{self.p}) vs ({other.dim},{other.p})"
            )

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._check_same(other)
        return FieldVector((a + b for a, b in zip(self.entries, other.entries)), self.p)

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._check_same(other)
        return FieldVector((a - b for a, b in zip(self.entries, other.entries)), self.p)

    def __neg__(self) -> "FieldVector":
        return FieldVector((-a for a in self.entries), self.p)

    def scale(self, a: int) -> "FieldVector":
        return FieldVector((int(a) * e for e in self.entries), self.p)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return self.entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and self.p == other.p
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.p, self.entries))

    def __repr__(self) -> str:
        return f"FieldVector({list(self.entries)}, p={self.p})"


def rank_bits(rows: Sequence[int], width: int | None = None) -> int:
    """Rank over F_2 of rows given as packed ints (bitsets).

    Given a width, a row with a bit at or above it (a negative row
    included) is refused with DimensionMismatch.
    """
    pivots: list[int] = []
    for row in rows:
        r = int(row)
        if width is not None and r >> width:
            raise DimensionMismatch(f"row {r} does not fit in {width} bits")
        for pv in pivots:
            low = pv & -pv
            if r & low:
                r ^= pv
        if r:
            pivots.append(r)
    return len(pivots)


def rank(vectors: Sequence[FieldVector]) -> int:
    """Rank of the span of the given vectors (0 for none), by Gaussian elimination."""
    vecs = list(vectors)
    if not vecs:
        return 0
    p0, d0 = vecs[0].p, vecs[0].dim
    for v in vecs[1:]:
        if v.p != p0 or v.dim != d0:
            raise DimensionMismatch("vectors of mixed shape")
    # textbook elimination mod p
    mat = [list(v.entries) for v in vecs]
    r = 0
    for col in range(d0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] % p0 != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], p0 - 2, p0)
        mat[r] = [(x * inv) % p0 for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p0:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p0 for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


@dataclass(frozen=True)
class LinearFunctional:
    """xi in (F_p^dim)^*, acting by xi(v) = sum_i coeffs_i v_i mod p."""

    coeffs: FieldVector

    @property
    def p(self) -> int:
        return self.coeffs.p

    @property
    def dim(self) -> int:
        return self.coeffs.dim

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def __call__(self, v: FieldVector) -> int:
        """xi(v) = sum_i xi_i v_i mod p."""
        c = self.coeffs
        if v.p != c.p or v.dim != c.dim:
            raise DimensionMismatch(
                f"functional on ({c.dim},{c.p}) applied to vector of ({v.dim},{v.p})"
            )
        total = 0
        for a, b in zip(c.entries, v.entries):
            total += a * b
        return total % c.p


@dataclass(frozen=True)
class SymplecticForm:
    """The standard alternating form on F_p^h, h = 2m.

    Basis vectors are paired (e_0, e_1), (e_2, e_3), ...; each pair
    contributes v_{2q} w_{2q+1} - v_{2q+1} w_{2q}.  On the paired basis
    this gives omega(e_0, e_1) = 1 and omega(e_1, e_0) = -1.
    """

    h: int
    p: int

    def __post_init__(self):
        check_prime(self.p)
        if self.h <= 0 or self.h % 2 != 0:
            raise ValueError(f"alternating form needs even positive dimension, got h={self.h}")

    @property
    def m(self) -> int:
        return self.h // 2

    def eval(self, v: FieldVector, w: FieldVector) -> int:
        """omega(v, w) = sum_q v_{2q} w_{2q+1} - v_{2q+1} w_{2q}  (mod p)."""
        if v.p != self.p or w.p != self.p or v.dim != self.h or w.dim != self.h:
            raise DimensionMismatch(
                f"form on ({self.h},{self.p}) applied to ({v.dim},{v.p}) and ({w.dim},{w.p})"
            )
        a = v.entries
        b = w.entries
        total = 0
        for q in range(self.m):
            total += a[2 * q] * b[2 * q + 1] - a[2 * q + 1] * b[2 * q]
        return total % self.p
