"""State spaces and Markov kernels for coordinate-replacement walks.

Three reversible walks share one interface:

* TransvectionWalk — states are n-tuples of rows in F_2^k whose rows span
  F_2^k; a move (a, b) with a != b replaces row b by row_b + row_a.  The
  kernel averages over all n(n-1) ordered pairs.
* OneColumnWalk — states are nonzero vectors in F_p^r.  For odd p a move
  (i, j, a) replaces Y_i by Y_i + a Y_j with a uniform in F_p (a = 0 is a
  hold); over F_2 the walk is the coordinate projection of the tuple walk
  and a move (i, j) always adds, so there is no exponent.
* PaPraWalk — states are r-tuples of Heisenberg group elements that
  generate H; a move (i, j, a, side) replaces g_i by g_i g_j^a (right) or
  g_j^a g_i (left), averaging over both sides, all exponents a in F_p and
  all ordered pairs.  Horizontal parts evolve exactly as the p-ary
  one-column walk on each coordinate functional.

Every move is invertible by another move of the same kernel, so all three
kernels are doubly stochastic and reversible with respect to the uniform
law on their state space.  An optional laziness weight q turns a kernel P
into q I + (1-q) P.

States are plain tuples (ints for field rows, HeisenbergElement for
Heisenberg tuples).  Exhaustive enumerations pack states into integers, one
digit per coordinate, and order the space by that code, so a given walk
always lists its states, and hence its kernels, in the same order.

Each walk's move is written once, as a rule on per-coordinate codes: new
recipient = rule(recipient, donor, exponent, left).  The rules are XOR of
packed F_2 rows (transvections, and the one-column walk at p = 2),
(x + a y) mod p (the one-column walk at odd p) and two lookups in the
_pa_pra_tables (PA-PRA).  The move table (and from it the dense kernel and
the connected components), the trajectory loop _drive and the fibre kernels
all apply that rule; apply_move and the *_step functions stay the per-state
definitions they are tested against.

_drive draws the moves of a block of steps for every trial at once (about
_BLOCK_CELLS steps x trials: ordered pairs, then exponents, sides and
laziness coins) from the counter-based Philox generator keyed by (seed,
stream).  The batch engines one_column_batch, transvection_batch and
pa_pra_batch wrap it, deterministic in (seed, stream, trials); simulate is
the engine with one trial on stream traj_id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.sparse import coo_matrix

from .algebra import FieldVector, _digits, check_prime, rank_bits
from .errors import BudgetError, DimensionMismatch, InvalidMove
from .groups import (
    HeisenbergElement,
    _h_mul_codes,
    decode_element,
    encode_element,
    generates,
    h_mul,
    h_pow,
)

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "EnumeratedSpace",
    "stiefel_space",
    "one_column_space",
    "heisenberg_tuple_space",
    "row_space",
    "heisenberg_space",
    "TransvectionWalk",
    "OneColumnWalk",
    "PaPraWalk",
    "transvection_step",
    "one_column_step",
    "pa_pra_step",
    "FibreKernel",
    "build_fibre_kernel",
    "Trajectory",
    "simulate",
    "philox_generator",
    "rank_bits_batch",
    "rank_modp_batch",
    "connected_components",
    "one_column_batch",
    "pa_pra_batch",
    "transvection_batch",
]

DEFAULT_STATE_BUDGET = 1 << 24
_AMBIENT_CHUNK = 1 << 18  # codes per block of an ambient scan


def philox_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream); streams never collide."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream & (2**64 - 1))])
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# enumerated spaces
# ---------------------------------------------------------------------------


class EnumeratedSpace:
    """A finite state space enumerated by sorted packed-integer codes."""

    def __init__(
        self,
        codes: np.ndarray,
        encode: Callable,
        decode: Callable,
        description: str = "",
    ):
        codes = np.asarray(codes, dtype=np.int64)
        if np.any(np.diff(codes) <= 0):
            raise ValueError("space codes must be strictly increasing")
        codes.flags.writeable = False
        self.codes = codes
        self.encode = encode
        self.decode = decode
        self.description = description

    @property
    def size(self) -> int:
        return int(self.codes.shape[0])

    def __len__(self) -> int:
        return self.size

    def index_of_code(self, code: int) -> int:
        pos = int(np.searchsorted(self.codes, code))
        if pos >= self.size or self.codes[pos] != code:
            raise KeyError(f"code {code} is not in the space")
        return pos

    def index_of(self, state) -> int:
        return self.index_of_code(self.encode(state))

    def state_at(self, i: int):
        return self.decode(int(self.codes[i]))

    def states(self) -> Iterator:
        for c in self.codes:
            yield self.decode(int(c))

    def __repr__(self) -> str:
        return f"EnumeratedSpace({self.description or 'custom'}, size={self.size})"


def _check_budget(count: int, budget: int, what: str, unit: str = "states") -> None:
    if count > budget:
        raise BudgetError(f"{what}: {count} {unit} exceed the budget {budget}")


def _digit_space(
    codes, base: int, count: int, description: str,
    to_digit: Callable = int, from_digit: Callable = int,
) -> EnumeratedSpace:
    """A space of tuples coded with one base-`base` digit per coordinate,
    coordinate 0 least significant: the packing _digits reads."""
    return EnumeratedSpace(
        codes,
        encode=lambda state: sum(to_digit(s) * base**i for i, s in enumerate(state)),
        decode=lambda c: tuple(from_digit(c // base**i % base) for i in range(count)),
        description=description,
    )


def _ambient_scan(what: str, ambient: int, budget: int, keep: Callable, expected: int) -> np.ndarray:
    """The codes in [0, ambient) where keep(block) holds, in increasing order.

    The ambient size is checked against the budget first; the scan then runs
    over blocks of _AMBIENT_CHUNK codes, and the number kept must equal the
    count formula `expected`.
    """
    _check_budget(ambient, budget, f"{what} ambient")
    kept = []
    for lo in range(0, ambient, _AMBIENT_CHUNK):
        block = np.arange(lo, min(lo + _AMBIENT_CHUNK, ambient), dtype=np.int64)
        kept.append(block[keep(block)])
    codes = np.concatenate(kept)
    if codes.shape[0] != expected:
        raise RuntimeError(f"{what} enumeration mismatch: got {codes.shape[0]}, formula {expected}")
    return codes


def stiefel_space(n: int, k: int, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
    """All n-tuples of rows in F_2^k whose rows span F_2^k.

    The count is prod_{q<k} (2^n - 2^q); enumeration scans the ambient
    2^{nk} tuples, so the budget applies to the ambient size.
    """
    if k < 1 or n < k:
        raise ValueError(f"need n >= k >= 1 for a spanning tuple, got n={n}, k={k}")
    expected = 1
    for q in range(k):
        expected *= (1 << n) - (1 << q)
    codes = _ambient_scan(
        f"Stief({n},{k})", 1 << (n * k), budget,
        lambda block: rank_bits_batch(_digits(block, 1 << k, n), k) == k, expected,
    )
    return _digit_space(codes, 1 << k, n, f"Stief({n},{k})")


def one_column_space(r: int, p: int, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
    """Nonzero vectors in F_p^r, coded in base p (coordinate 0 least significant)."""
    check_prime(p)
    if r < 1:
        raise ValueError("need r >= 1")
    total = p**r
    _check_budget(total, budget, f"F_{p}^{r} ambient")
    codes = np.arange(1, total, dtype=np.int64)
    return _digit_space(codes, p, r, f"F_{p}^{r} \\ 0", to_digit=lambda d: int(d) % p)


def heisenberg_tuple_space(
    r: int, p: int, m: int, budget: int = DEFAULT_STATE_BUDGET
) -> EnumeratedSpace:
    """All r-tuples over H(p, m) whose horizontal parts span F_p^{2m}.

    The ambient (p^{2m+1})^r tuples are scanned as in stiefel_space; the
    count is p^r prod_{q<2m} (p^r - p^q), which is 0 for r < 2m.
    """
    check_prime(p)
    if p == 2:
        raise ValueError("Heisenberg tuples require odd p")
    h = 2 * m
    hsize = p ** (h + 1)
    expected = p**r
    for q in range(h):
        expected *= p**r - p**q
    keep = _ambient_scan(
        f"V_{r}(H({p},{m}))", hsize**r, budget,
        lambda block: rank_modp_batch(_digits(_digits(block, hsize, r), p, h), p) == h, expected,
    )
    return _digit_space(keep, hsize, r, f"V_{r}(H({p},{m}))", encode_element,
                        lambda c: decode_element(c, p, m))


def row_space(k: int) -> EnumeratedSpace:
    """The full fibre alphabet F_2^k (all 2^k rows)."""
    codes = np.arange(1 << k, dtype=np.int64)
    return EnumeratedSpace(codes, encode=lambda u: int(u), decode=lambda c: int(c), description=f"F_2^{k}")


def heisenberg_space(p: int, m: int) -> EnumeratedSpace:
    """The full group H(p, m) as a fibre alphabet, ordered by element code."""
    codes = np.arange(p ** (2 * m + 1), dtype=np.int64)
    return EnumeratedSpace(
        codes,
        encode=encode_element,
        decode=lambda c: decode_element(c, p, m),
        description=f"H({p},{m})",
    )


# ---------------------------------------------------------------------------
# batched exact linear algebra (used by enumeration filters and invariants)
# ---------------------------------------------------------------------------


def rank_bits_batch(rows: np.ndarray, k: int) -> np.ndarray:
    """F_2 rank per instance; rows is (N, n) of packed k-bit row values."""
    work = np.array(rows, dtype=np.int64, copy=True)
    n_inst, n_rows = work.shape
    used = np.zeros_like(work, dtype=bool)
    ranks = np.zeros(n_inst, dtype=np.int64)
    idx = np.arange(n_inst)
    for bit in range(k):
        cand = (((work >> bit) & 1) == 1) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        ranks += has
        pivot_vals = np.where(has, work[idx, piv], 0)
        hit = (((work >> bit) & 1) == 1) & has[:, None]
        hit[idx[has], piv[has]] = False
        work ^= np.where(hit, pivot_vals[:, None], 0)
        used[idx[has], piv[has]] = True
    return ranks


def rank_modp_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p per instance; mats is (N, rows, dim) with entries in [0, p)."""
    work = np.array(mats, dtype=np.int64, copy=True) % p
    n_inst, n_rows, dim = work.shape
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    used = np.zeros((n_inst, n_rows), dtype=bool)
    ranks = np.zeros(n_inst, dtype=np.int64)
    idx = np.arange(n_inst)
    for col in range(dim):
        cand = (work[:, :, col] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        ranks += has
        sel = idx[has]
        prow = work[sel, piv[has], :]  # (n_sel, dim)
        prow = (prow * inv[prow[:, col]][:, None]) % p
        work[sel, piv[has], :] = prow
        coeff = work[sel, :, col]  # (n_sel, rows)
        coeff[np.arange(sel.size), piv[has]] = 0
        work[sel] = (work[sel] - coeff[:, :, None] * prow[:, None, :]) % p
        used[sel, piv[has]] = True
    return ranks


# ---------------------------------------------------------------------------
# elementary steps
# ---------------------------------------------------------------------------


def transvection_step(z: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """Replace row b by row_b + row_a (XOR of packed rows); a must differ from b."""
    n = len(z)
    if not (0 <= a < n and 0 <= b < n) or a == b:
        raise InvalidMove(f"move ({a},{b}) invalid for {n} rows")
    out = list(z)
    out[b] = out[b] ^ out[a]
    return tuple(out)


def one_column_step(y: Sequence[int], i: int, j: int, a: int, p: int) -> tuple[int, ...]:
    """Replace Y_i by Y_i + a Y_j mod p; i must differ from j."""
    r = len(y)
    if not (0 <= i < r and 0 <= j < r) or i == j:
        raise InvalidMove(f"move ({i},{j}) invalid for {r} coordinates")
    out = list(y)
    out[i] = (out[i] + int(a) * out[j]) % p
    return tuple(out)


def pa_pra_step(
    g: Sequence[HeisenbergElement], i: int, j: int, a: int, side: str
) -> tuple[HeisenbergElement, ...]:
    """Replace g_i by g_i g_j^a (side='R') or g_j^a g_i (side='L')."""
    r = len(g)
    if not (0 <= i < r and 0 <= j < r) or i == j:
        raise InvalidMove(f"move ({i},{j}) invalid for {r} coordinates")
    if side not in ("R", "L"):
        raise InvalidMove(f"side must be 'R' or 'L', got {side!r}")
    out = list(g)
    power = h_pow(g[j], a)
    out[i] = h_mul(g[i], power) if side == "R" else h_mul(power, g[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# move rules: each walk's law on per-coordinate codes
# ---------------------------------------------------------------------------


def _xor_rule(x, y, a, left):
    """Row addition over F_2 on packed rows; the exponent is 1 and there is no side."""
    return x ^ y


def _one_column_rule(p: int) -> Callable:
    """Y_i + a Y_j mod p; over F_2 a move always adds, which is XOR."""
    if p == 2:
        return _xor_rule
    return lambda x, y, a, left: (x + a * y) % p


def _pa_pra_tables(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Power and two-sided product tables on the element codes of H(p, m).

    With q = p^(2m+1) elements, powers[a*q + j] is the code of g_j^a and
    products[side*q*q + i*q + j] the code of g_i g_j (side 0, right) or
    g_j g_i (side 1, left).  Both come from the one law, _h_mul_codes:
    it fills the p^(2m) x p^(2m) tables of horizontal sums and of the
    central term omega/2 once, and those broadcast over the central digits,
    so no (q, q, 2m+1) digit array is built.  The 2q^2 + pq entries are
    checked against DEFAULT_STATE_BUDGET before any of this runs.
    """
    h = 2 * m
    P, q = p**h, p ** (h + 1)
    _check_budget(2 * q * q + p * q, DEFAULT_STATE_BUDGET, f"H({p},{m}) product tables", "entries")
    horizontal = np.zeros((P, h + 1), dtype=np.int16)
    horizontal[:, :h] = _digits(np.arange(P), p, h)
    law = _h_mul_codes(horizontal[:, None], horizontal[None, :], p)  # z = t = 0
    hsum, half_omega = (law % P).astype(np.int16), (law // P).astype(np.int16)
    z = np.arange(p, dtype=np.int16)
    # code i = hi + zi * P, so a (q, q) table is (zi, hi, zj, hj)
    central = (z[:, None, None, None] + z[None, None, :, None] + half_omega[None, :, None, :]) % p
    right = (central * np.int16(P) + hsum[None, :, None, :]).reshape(q, q)
    products = np.concatenate([right.ravel(), right.T.ravel()])
    powers = np.zeros((p, q), dtype=np.int16)  # g^0 is the identity, code 0
    for a in range(1, p):  # g^a = g^(a-1) g
        powers[a] = right[powers[a - 1], np.arange(q)]
    return powers.ravel(), products


def _pa_pra_rule(p: int, m: int) -> Callable:
    """g_i g_j^a (right) or g_j^a g_i (left) on element codes: the donor's
    power, then the product, both looked up in the _pa_pra_tables."""
    powers, products = _pa_pra_tables(p, m)
    q = np.int32(p ** (2 * m + 1))
    return lambda x, y, a, left: products.take((left * q + x) * q + powers.take(a * q + y))


# ---------------------------------------------------------------------------
# walk kernels
# ---------------------------------------------------------------------------


class _WalkBase:
    """Shared kernel plumbing: dense matrices, successor lists, simulation."""

    laziness: float
    moves: list

    def _init_laziness(self, laziness: float) -> None:
        if not 0.0 <= laziness < 1.0:
            raise ValueError(f"laziness must lie in [0, 1), got {laziness}")
        self.laziness = float(laziness)

    # subclasses provide: apply_move(state, move), in_omega(state),
    # space(budget), counting_move_bound, _coords and _base (the number of
    # digits of a state code and their base), _rule (the move rule on those
    # digits) and _coded(move), the move as (recipient, donor, exponent, left)

    def apply_kernel_row(self, state) -> list[tuple[tuple, float]]:
        """Aggregated successor list [(state', prob)]; probabilities sum to 1."""
        if not self.in_omega(state):
            raise ValueError(f"state {state!r} is outside the walk's state space")
        agg: dict = {}
        w = (1.0 - self.laziness) / len(self.moves)
        for mv in self.moves:
            succ = self.apply_move(state, mv)
            agg[succ] = agg.get(succ, 0.0) + w
        if self.laziness:
            key = tuple(state)
            agg[key] = agg.get(key, 0.0) + self.laziness
        return sorted(agg.items(), key=lambda item: self.state_key(item[0]))

    def state_key(self, state) -> tuple:
        """Total order on states used to sort successor lists."""
        return tuple(state)

    def start_representatives(self, space: EnumeratedSpace) -> np.ndarray:
        """Sorted state indices, one per class of starts with equal TV curves.

        Each class lies in one orbit of automorphisms of the kernel, which
        carry TV(P^t(x, .), pi) to itself, so worst-start exact mixing needs
        only these starts.  Without known automorphisms every state is its
        own class.
        """
        return np.arange(space.size)

    def _successor_codes(self, codes: np.ndarray) -> np.ndarray:
        """(n_moves, M) codes of apply_move's results for every move and every
        state code, in move order: the rule replaces the recipient digit."""
        tgt, src, a, left = np.array([self._coded(mv) for mv in self.moves], dtype=np.int64).T
        cols = np.ascontiguousarray(_digits(codes, self._base, self._coords).T)  # (coords, M)
        old = cols[tgt]
        delta = self._rule(old, cols[src], a[:, None], left[:, None]) - old
        delta *= self._base ** tgt[:, None]
        delta += codes
        return delta

    def move_permutations(self, space: EnumeratedSpace) -> np.ndarray:
        """(n_moves, M) successor state indices; every move is a bijection.

        Raises KeyError, as EnumeratedSpace.index_of_code does, when a
        successor code is missing from the space.
        """
        succ = self._successor_codes(space.codes)
        idx = np.searchsorted(space.codes, succ)
        missing = np.take(space.codes, idx, mode="clip") != succ
        if missing.any():
            raise KeyError(f"code {int(succ[missing][0])} is not in the space")
        return idx

    def dense(self, space: EnumeratedSpace | None = None) -> np.ndarray:
        """Dense transition matrix on the enumerated space."""
        if space is None:
            space = self.space()
        perms = self.move_permutations(space)
        M = space.size
        w = (1.0 - self.laziness) / len(self.moves)
        rows = np.arange(M)
        # bincount adds in input order, so the move-major flattening sums each
        # entry move by move, as a per-move accumulation would
        flat = (perms + rows * M).ravel()
        mat = np.bincount(flat, weights=np.full(flat.size, w), minlength=M * M).reshape(M, M)
        if self.laziness:
            mat[rows, rows] += self.laziness
        return mat

    def simulate(self, start, steps, seed=0, **kw) -> "Trajectory":
        return simulate(self, start, steps, seed=seed, **kw)


class TransvectionWalk(_WalkBase):
    """Row-addition walk on spanning n-tuples of rows in F_2^k."""

    def __init__(self, n: int, k: int, laziness: float = 0.0):
        if n < 2:
            raise ValueError("the walk needs at least two rows (no moves exist for n=1)")
        if k < 1 or n < k:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        self.n = n
        self.k = k
        self._coords, self._base, self._rule = n, 1 << k, _xor_rule
        self._init_laziness(laziness)
        self.moves = [(a, b) for a in range(n) for b in range(n) if a != b]

    @property
    def counting_move_bound(self) -> int:
        """Distinct one-step outcomes including a hold: 1 + n(n-1)."""
        return 1 + self.n * (self.n - 1)

    def apply_move(self, state, move):
        a, b = move
        return transvection_step(state, a, b)

    def _coded(self, move):
        return move[1], move[0], 1, 0

    def start_representatives(self, space: EnumeratedSpace) -> np.ndarray:
        """One state per S_n class: a row permutation sends move (a, b) to
        (s(a), s(b)), so it commutes with the kernel; the class key is the
        packed tuple of sorted rows, and the smallest index represents it."""
        shifts = np.arange(self.n, dtype=np.int64) * self.k
        rows = _digits(space.codes, 1 << self.k, self.n)
        keys = (np.sort(rows, axis=1) << shifts).sum(axis=1)
        return np.sort(np.unique(keys, return_index=True)[1])

    def in_omega(self, state) -> bool:
        if len(state) != self.n:
            return False
        mask = (1 << self.k) - 1
        if any(r < 0 or r > mask for r in state):
            return False
        return rank_bits(state, self.k) == self.k

    def space(self, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
        return stiefel_space(self.n, self.k, budget)


class OneColumnWalk(_WalkBase):
    """Single-column replacement walk on F_p^r minus the origin.

    Over F_2 a move always adds the donor coordinate (the walk is the
    functional projection of TransvectionWalk); over odd p the move draws
    an exponent a uniformly from F_p, so a = 0 holds in place.
    """

    def __init__(self, r: int, p: int, laziness: float = 0.0):
        check_prime(p)
        if r < 2:
            raise ValueError("the walk needs at least two coordinates")
        self.r = r
        self.p = p
        self._coords, self._base, self._rule = r, p, _one_column_rule(p)
        self._init_laziness(laziness)
        if p == 2:
            self.moves = [(i, j) for i in range(r) for j in range(r) if i != j]
        else:
            self.moves = [
                (i, j, a)
                for i in range(r)
                for j in range(r)
                if i != j
                for a in range(p)
            ]

    @property
    def counting_move_bound(self) -> int:
        if self.p == 2:
            return 1 + self.r * (self.r - 1)
        return 1 + self.r * (self.r - 1) * (self.p - 1)

    def apply_move(self, state, move):
        if self.p == 2:
            i, j = move
            a = 1
        else:
            i, j, a = move
        return one_column_step(state, i, j, a, self.p)

    def _coded(self, move):
        return move[0], move[1], move[2] if self.p > 2 else 1, 0

    def start_representatives(self, space: EnumeratedSpace) -> np.ndarray:
        """One state per support size.  Coordinate permutations and scalings
        of single coordinates by F_p^* commute with the kernel (scaling each
        y_i by c_i turns move (i, j, a) into (i, j, a c_i / c_j), and a runs
        over all of F_p), and they act transitively on each support size."""
        support = (_digits(space.codes, self.p, self.r) != 0).sum(axis=1)
        return np.sort(np.unique(support, return_index=True)[1])

    def in_omega(self, state) -> bool:
        return (
            len(state) == self.r
            and all(0 <= y < self.p for y in state)
            and any(y != 0 for y in state)
        )

    def space(self, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
        return one_column_space(self.r, self.p, budget)


class PaPraWalk(_WalkBase):
    """Power-averaged product replacement on generating r-tuples of H(p, m)."""

    def __init__(self, r: int, p: int, m: int, laziness: float = 0.0):
        check_prime(p)
        if p == 2:
            raise ValueError("the Heisenberg walk requires odd p")
        if r < 2:
            raise ValueError("the walk needs at least two tuple slots")
        self.r = r
        self.p = p
        self.m = m
        self._coords, self._base = r, p ** (2 * m + 1)
        self._init_laziness(laziness)
        self.moves = [
            (i, j, a, side)
            for i in range(r)
            for j in range(r)
            if i != j
            for a in range(p)
            for side in ("R", "L")
        ]

    @property
    def counting_move_bound(self) -> int:
        """1 + 2 p r (r-1), counting every (pair, exponent, side) outcome."""
        return 1 + 2 * self.p * self.r * (self.r - 1)

    def apply_move(self, state, move):
        i, j, a, side = move
        return pa_pra_step(state, i, j, a, side)

    def _coded(self, move):
        return move[0], move[1], move[2], move[3] == "L"

    @property
    def _rule(self) -> Callable:
        """Built on use: the tables behind it are refused past their budget."""
        return _pa_pra_rule(self.p, self.m)

    def in_omega(self, state) -> bool:
        return (
            len(state) == self.r
            and all(isinstance(g, HeisenbergElement) for g in state)
            and generates(state)
        )

    def space(self, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
        return heisenberg_tuple_space(self.r, self.p, self.m, budget)

    def state_key(self, state) -> tuple:
        return tuple(encode_element(g) for g in state)


# ---------------------------------------------------------------------------
# fibre kernels
# ---------------------------------------------------------------------------


@dataclass
class FibreKernel:
    """Transition law of one tuple coordinate with the others frozen."""

    kind: str
    i: int
    frozen: tuple
    matrix: np.ndarray
    space: EnumeratedSpace

    def __post_init__(self):
        self.matrix.flags.writeable = False


def build_fibre_kernel(kind: str, i: int, frozen: Sequence, k: int | None = None) -> FibreKernel:
    """Fibre kernel at coordinate i given the frozen coordinates.

    kind='transvection': frozen holds the n-1 packed rows z_j (j != i) and
    k is the row width in bits; the kernel on F_2^k is
    K(u, v) = c_{u xor v} / (n-1) with c_w the number of frozen rows equal
    to w.  kind='heisenberg': frozen holds r-1 HeisenbergElement values and
    the kernel averages left and right translation by g_j^a over all j and
    all exponents a.  Either way K(x, .) is the law of the walk's move rule
    applied to x with a uniform frozen donor, exponent and side.
    """
    if kind == "transvection":
        if k is None:
            raise ValueError("the transvection fibre needs the row width k")
        if len(frozen) == 0:
            raise ValueError("need at least one frozen row")
        for zj in frozen:
            if not 0 <= int(zj) < 1 << k:
                raise ValueError(f"frozen row {zj} outside F_2^{k}")
        frozen, space = tuple(int(z) for z in frozen), row_space(k)
        rule, donors, exponents, sides = _xor_rule, frozen, [1], [0]
    elif kind in ("heisenberg", "pa_pra"):
        if not frozen:
            raise ValueError("need at least one frozen coordinate")
        g0 = frozen[0]
        p_, m_ = g0.p, g0.h // 2
        for gj in frozen:
            if gj.p != p_ or gj.h != g0.h:
                raise DimensionMismatch(f"elements of H({g0.h},{p_}) and H({gj.h},{gj.p})")
        kind, frozen, space = "heisenberg", tuple(frozen), heisenberg_space(p_, m_)
        rule, exponents, sides = _pa_pra_rule(p_, m_), range(p_), [0, 1]
        donors = [encode_element(gj) for gj in frozen]
    else:
        raise ValueError(f"unknown fibre kind {kind!r}")
    y, a, left = (g.ravel() for g in np.meshgrid(donors, exponents, sides, indexing="ij"))
    x = space.codes[:, None]
    counts = np.bincount((x * space.size + rule(x, y, a, left)).ravel(), minlength=space.size**2)
    return FibreKernel(kind, i, frozen, counts.reshape(space.size, space.size) / y.size, space)


# ---------------------------------------------------------------------------
# trajectories: one block-drawn loop under simulate and the batch engines
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 16  # steps x trials of moves drawn at once


def _move_blocks(rng, steps, trials, r, exponents=1, sides=False, laziness=0.0):
    """The moves of `steps` steps of `trials` walks on r coordinates, in blocks.

    Yields (recipient, donor, exponent, left, hold) arrays of shape
    (block, trials), with max(1, _BLOCK_CELLS // trials) steps per block but
    the last.  Each block draws, in this order: the ordered pairs (uniform,
    recipient != donor), the exponents (uniform in [0, exponents); all 1 when
    exponents == 1), the sides (left with probability 1/2; all right unless
    `sides`) and the laziness coins (hold with probability `laziness`).
    The integers are drawn as int32: for ranges below 2^32 Philox's bounded
    32-bit path yields the same values as int64 draws, at half the memory.
    """
    per_block = max(1, _BLOCK_CELLS // max(trials, 1))
    for done in range(0, steps, per_block):
        shape = (min(per_block, steps - done), trials)
        i, j = np.divmod(rng.integers(0, r * (r - 1), size=shape, dtype=np.int32), r - 1)
        j += j >= i
        a = (rng.integers(0, exponents, size=shape, dtype=np.int32) if exponents > 1
             else np.ones(shape, np.int32))
        left = rng.integers(0, 2, size=shape, dtype=np.int32) == 1 if sides else np.zeros(shape, bool)
        hold = rng.random(shape) < laziness if laziness > 0 else np.zeros(shape, bool)
        yield i, j, a, left, hold


def _drive(cells, r, t_grid, seed, stream, laziness, rule, observe, exponents=1, sides=False):
    """Run trajectories in place on `cells` and observe them on a time grid.

    cells holds trials * r coordinates, trial-major, then one spare that
    stays zero, along its first axis.  A step sets the recipient cells tgt
    (one per trial) to rule(recipient, donor, exponent, left).  A held
    step's donor is the spare cell, whose zero (the zero row, or the
    identity element) makes the rule the identity.  observe(t) runs at every
    grid time, after step t.  The moves come from _move_blocks on Philox
    (seed, stream).
    """
    grid = sorted(set(int(t) for t in t_grid))
    if grid and grid[0] < 0:
        raise ValueError("grid times must be nonnegative")
    spare = len(cells) - 1
    offset = np.arange(0, spare, r)
    due = iter(grid)
    t, next_t = 0, next(due, None)
    if next_t == 0:
        observe(0)
        next_t = next(due, None)
    rng = philox_generator(seed, stream)
    steps = grid[-1] if grid else 0
    for i, j, a, left, hold in _move_blocks(rng, steps, offset.size, r, exponents, sides, laziness):
        tgt = i + offset
        src = np.where(hold, spare, j + offset)
        for tgt_t, src_t, a_t, left_t in zip(tgt, src, a, left):
            cells.put(tgt_t, rule(cells.take(tgt_t), cells.take(src_t), a_t, left_t))
            t += 1
            if t == next_t:
                observe(t)
                next_t = next(due, None)


def _check_start(start, inside) -> None:
    """Refuse a start that is not in the walk's state space."""
    if not inside:
        raise ValueError(f"start {start!r} is outside the state space")


def one_column_batch(
    r: int,
    p: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    stat_fn: Callable[[int, np.ndarray], None],
    start: np.ndarray | None = None,
    laziness: float = 0.0,
    stream: int = 0,
) -> None:
    """Vectorised one-column trajectories; stat_fn(t, Y) sees (trials, r) uint8 states.

    All trials share one Philox stream keyed (seed, stream), so the run is
    deterministic in (seed, stream, trials).  The default start is e_1.
    """
    y0 = np.asarray([1] + [0] * (r - 1) if start is None else start, dtype=np.int64)
    _check_start(start, y0.shape == (r,) and ((0 <= y0) & (y0 < p)).all() and y0.any())
    cells = np.zeros(trials * r + 1, dtype=np.uint8)
    y = cells[:-1].reshape(trials, r)
    y[:] = y0[None, :]
    _drive(cells, r, t_grid, seed, stream, laziness, _one_column_rule(p), lambda t: stat_fn(t, y),
           exponents=1 if p == 2 else p)


def transvection_batch(
    n: int,
    k: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    stat_fn: Callable[[int, np.ndarray], None],
    start: np.ndarray,
    laziness: float = 0.0,
    stream: int = 0,
) -> None:
    """Vectorised tuple-walk trajectories on packed int64 rows (trials, n)."""
    z0 = np.asarray(start, dtype=np.int64)
    _check_start(start, z0.shape == (n,) and ((0 <= z0) & (z0 < 1 << k)).all()
                 and rank_bits_batch(z0[None], k)[0] == k)
    cells = np.zeros(trials * n + 1, dtype=np.int64)
    z = cells[:-1].reshape(trials, n)
    z[:] = z0[None, :]
    _drive(cells, n, t_grid, seed, stream, laziness, _xor_rule, lambda t: stat_fn(t, z))


def pa_pra_batch(
    r: int,
    p: int,
    m: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    stat_fn: Callable[[int, np.ndarray, np.ndarray], None],
    start_v: np.ndarray,
    start_z: np.ndarray,
    laziness: float = 0.0,
    stream: int = 0,
) -> None:
    """Vectorised Heisenberg-tuple trajectories on int16 element codes.

    A step is the rule of _pa_pra_rule: two lookups in the tables of
    _pa_pra_tables, built (and checked against their budget) first.  The
    start is reduced mod p.  stat_fn(t, V, Z) sees int16 horizontal parts
    (trials, r, 2m) and central coordinates (trials, r), decoded at grid
    times only.
    """
    h = 2 * m
    rule = _pa_pra_rule(p, m)
    v0, z0 = np.asarray(start_v, dtype=np.int64) % p, np.asarray(start_z, dtype=np.int64) % p
    _check_start((start_v, start_z), v0.shape == (r, h) and z0.shape == (r,)
                 and rank_modp_batch(v0[None], p)[0] == h)
    place = p ** np.arange(h + 1, dtype=np.int64)
    cells = np.zeros(trials * r + 1, dtype=np.int16)  # the spare holds 0, the identity
    g = cells[:-1].reshape(trials, r)
    g[:] = (v0 @ place[:h] + z0 * place[h])[None]

    def observe(t):
        digits = _digits(g, p, h + 1).astype(np.int16)
        stat_fn(t, digits[..., :h], digits[..., h])

    _drive(cells, r, t_grid, seed, stream, laziness, rule, observe, exponents=p, sides=True)


@dataclass
class Trajectory:
    """Recorded output of one simulated trajectory."""

    seed: int
    traj_id: int
    times: list[int]
    observations: dict[str, list]
    states: list | None = None


def simulate(
    walk,
    start,
    steps: int,
    seed: int = 0,
    observers: dict[str, Callable] | None = None,
    record_every: int = 1,
    keep_states: bool = False,
    traj_id: int = 0,
) -> Trajectory:
    """Run one trajectory of `walk` from `start` for `steps` moves.

    This is the walk's batch engine with one trial on Philox stream
    (seed, traj_id), so a trajectory is keyed by (seed, traj_id).  States
    are decoded to tuples (HeisenbergElement tuples for PA-PRA) only at the
    recorded times: 0, every time divisible by record_every, and the final
    time.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    _check_start(start, walk.in_omega(start))
    observers = observers or {}
    grid = sorted({*range(0, steps + 1, record_every), steps})
    times: list[int] = []
    obs: dict[str, list] = {name: [] for name in observers}
    states: list = []

    def record(t: int, state: tuple) -> None:
        times.append(t)
        for name, fn in observers.items():
            obs[name].append(fn(state))
        if keep_states:
            states.append(state)

    def stat_rows(t, rows):
        record(t, tuple(rows[0].tolist()))

    if isinstance(walk, TransvectionWalk):
        transvection_batch(walk.n, walk.k, 1, grid, seed, stat_rows, np.array(start),
                           walk.laziness, traj_id)
    elif isinstance(walk, OneColumnWalk):
        one_column_batch(walk.r, walk.p, 1, grid, seed, stat_rows, np.array(start),
                         walk.laziness, traj_id)
    else:
        p = walk.p

        def stat(t, v, z):
            record(t, tuple(HeisenbergElement(FieldVector(vi, p), zi)
                            for vi, zi in zip(v[0].tolist(), z[0].tolist())))

        pa_pra_batch(walk.r, p, walk.m, 1, grid, seed, stat,
                     [g.v.entries for g in start], [g.z for g in start], walk.laziness, traj_id)
    return Trajectory(seed, traj_id, times, obs, states if keep_states else None)


def connected_components(perms: np.ndarray) -> np.ndarray:
    """Component label per state for the union of the move permutations.

    All kernels here contain each move's inverse, so weak connectivity via
    successor edges equals strong connectivity.  Components are numbered in
    the order of their smallest state index.
    """
    # imported here: the csgraph package pulls in scipy.sparse.linalg, whose
    # import cost every use of groupwalks would otherwise pay
    from scipy.sparse.csgraph import connected_components as csgraph_components

    M = perms.shape[1]
    rows = np.broadcast_to(np.arange(M), perms.shape).ravel()
    graph = coo_matrix((np.ones(rows.size), (rows, perms.ravel())), shape=(M, M)).tocsr()
    _, labels = csgraph_components(graph, directed=True, connection="weak")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]
