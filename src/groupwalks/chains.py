"""State spaces and Markov kernels for coordinate-replacement walks.

Two reversible walks share one interface.  Every move is a tuple
(i, j, a, left): recipient i, donor j != i, exponent a and side.

* The row walk (_RowWalk) — states are n-tuples of rows in F_p^k that span
  F_p^k; a move replaces row i by row_i + a row_j, a = 1 over F_2 and a
  uniform in F_p at odd p (a = 0 holds), averaged over all n(n-1) ordered
  pairs.  TransvectionWalk(n, k) is p = 2 and OneColumnWalk(r, p) is k = 1,
  nonzero vectors of F_p^r; odd p with k >= 2 is not built.
* PaPraWalk — states are r-tuples of Heisenberg group elements that
  generate H; a move replaces g_i by g_i g_j^a (right) or g_j^a g_i
  (left), averaging over both sides, all exponents a in F_p and all
  ordered pairs.  Horizontal parts evolve exactly as the p-ary one-column
  walk on each coordinate functional.

Every move is invertible by another move of the same kernel, so both
kernels are doubly stochastic and reversible with respect to the uniform
law on their state space.  An optional laziness weight q turns a kernel P
into q I + (1-q) P.

States are plain tuples (ints for field rows, HeisenbergElement for
Heisenberg tuples).  Exhaustive enumerations pack states into integers, one
digit per coordinate, and order the space by that code, so a given walk
always lists its states, and hence its kernels, in the same order.

A walk's moves are its move codes, and _decode is their one definition:
the engines decode the codes they draw, and _WalkBase derives moves (in
code order), move_permutations and counting_move_bound from every code.
Each walk's move is written once, as a rule on per-coordinate codes: new
recipient = rule(recipient, donor, exponent, left).  The rules are the row
walk's, XOR of packed F_2 rows at p = 2 and (x + a y) mod p at odd p and
k = 1, and two lookups in the _pa_pra_tables (PA-PRA), built once for the
last (p, m) used.  The move table, the trajectory loop _drive and the
fibre kernels all apply that rule; a fibre kernel takes the frozen
coordinates as codes, so it builds no state objects.  apply_move and the
*_step functions stay the per-state definitions they are tested against.
The move table builds the sparse operator, whose toarray() is the dense
kernel and whose weak components are the connected components.

A walk's batch method is the one entry point for trajectories: it reads
the walk's start (its default, validation and cell dtype live in the
walk's _start_cells) and runs _drive, which draws the moves of a block of
steps for every trial at once (about _BLOCK_CELLS steps x trials: one
integer code per move, decoded to its pair, exponent and side, then the
laziness coins) from the counter-based Philox generator keyed by (seed,
stream).  The pair decodes through two tables that the layout supplies:
the recipient and donor, or their bit shifts in a packed word.  The steps
run on one of three layouts: runs of 1 to _SCALAR_TRIALS trials step
Python int codes in a flat list (_scalar_layout), where numpy's fixed cost
per call would outweigh the work on so few elements; F_2 runs whose state
code fits 64 bits, with at least _WORD_TRIALS trials and
_WORD_STEPS_PER_GRID_TIME steps per grid time, step each trial's code as
one uint64 word (_word_layout); all others step the per-coordinate codes
in numpy cells (_cell_layout).  The first two write the codes at grid
times only; on every layout stat_fn sees the same read-only codes.  The
engines one_column_batch, transvection_batch and pa_pra_batch construct
the walk and call its batch; simulate is batch with one trial on stream
traj_id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .algebra import _digits, _pack, check_prime, rank_bits
from .errors import ConfigError, InvalidMove, check_budget
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
    "TransvectionWalk",
    "OneColumnWalk",
    "PaPraWalk",
    "transvection_step",
    "one_column_step",
    "pa_pra_step",
    "build_fibre_kernel",
    "Trajectory",
    "simulate",
    "canonical_start",
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
    """A finite state space enumerated by sorted, nonnegative packed-integer
    codes.

    Codes map to state indices through _index_table, built on first use: an
    int32 array with one entry per code up to the largest (-1 for codes not
    in the space), so looking codes up is one take.
    """

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
        if codes.size and codes[0] < 0:
            raise ValueError("space codes must be nonnegative")
        codes.flags.writeable = False
        self.codes = codes
        self.encode = encode
        self.decode = decode
        self.description = description

    @cached_property
    def _index_table(self) -> np.ndarray:
        """Read-only int32 state index of every code in [0, largest code],
        -1 where a code is not in the space.  Its length is checked against
        DEFAULT_STATE_BUDGET before it is allocated; every built-in space's
        codes lie below the ambient range its enumeration scanned, so at
        default budgets they fit."""
        length = int(self.codes[-1]) + 1 if self.size else 0
        check_budget(length, DEFAULT_STATE_BUDGET, "code-index table entries", "state")
        table = np.full(length, -1, dtype=np.int32)
        table[self.codes] = np.arange(self.size, dtype=np.int32)
        table.flags.writeable = False
        return table

    @property
    def size(self) -> int:
        return int(self.codes.shape[0])

    def __len__(self) -> int:
        return self.size

    def index_of_code(self, code: int) -> int:
        return int(_indices_of(self, np.array([code]))[0])

    def index_of(self, state) -> int:
        return self.index_of_code(self.encode(state))

    def state_at(self, i: int):
        return self.decode(int(self.codes[i]))

    def states(self) -> Iterator:
        for c in self.codes:
            yield self.decode(int(c))

    def __repr__(self) -> str:
        return f"EnumeratedSpace({self.description or 'custom'}, size={self.size})"


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
    check_budget(ambient, budget, f"ambient {what} tuples", "state")
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
    check_budget(total, budget, f"vectors of F_{p}^{r}", "state")
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


@lru_cache(maxsize=1)
def _pa_pra_tables(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Power and two-sided product tables on the element codes of H(p, m),
    read-only and kept for the last (p, m) built, so the array and scalar
    rules, a walk's moves and every fibre kernel of one run share one build.

    With q = p^(2m+1) elements, powers[a*q + j] is the code of g_j^a and
    products[side*q*q + i*q + j] the code of g_i g_j (side 0, right) or
    g_j g_i (side 1, left).  Both come from the one law, _h_mul_codes:
    it fills the p^(2m) x p^(2m) tables of horizontal sums and of the
    central term omega/2 once, and those broadcast over the central digits,
    so no (q, q, 2m+1) digit array is built.  The 2q^2 + pq entries are
    checked against DEFAULT_STATE_BUDGET before any of this runs; a refusal
    raises, so it is not kept and is checked again on the next call.
    """
    h = 2 * m
    P, q = p**h, p ** (h + 1)
    check_budget(2 * q * q + p * q, DEFAULT_STATE_BUDGET,
                 f"entries of the H({p},{m}) product tables", "state")
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
    powers = powers.ravel()
    powers.flags.writeable = products.flags.writeable = False
    return powers, products


def _pa_pra_rule(p: int, m: int) -> Callable:
    """g_i g_j^a (right) or g_j^a g_i (left) on element codes: the donor's
    power, then the product, both looked up in the _pa_pra_tables."""
    powers, products = _pa_pra_tables(p, m)
    q = np.int32(p ** (2 * m + 1))
    return lambda x, y, a, left: products.take((left * q + x) * q + powers.take(a * q + y))


def _pa_pra_scalar_rule(p: int, m: int) -> Callable:
    """_pa_pra_rule on Python int codes: the same two lookups, read through
    memoryviews of the tables, which copy nothing (a list of the 3.5 M
    entries at p = 11 would hold about 126 MB)."""
    powers, products = (memoryview(t) for t in _pa_pra_tables(p, m))
    q = p ** (2 * m + 1)
    return lambda x, y, a, left: products[(left * q + x) * q + powers[a * q + y]]


# ---------------------------------------------------------------------------
# walk kernels
# ---------------------------------------------------------------------------


def _swap_coordinates(digits: np.ndarray, c: int) -> np.ndarray:
    """The (M, coords) digits with coordinates c and c + 1 exchanged."""
    return digits[:, [*range(c), c + 1, c, *range(c + 2, digits.shape[1])]]


class _WalkBase:
    """Shared kernel plumbing: kernels, successor lists, trajectories.

    One move table, move_permutations, builds the sparse operator; dense()
    is the operator's toarray(), and connectivity is its nonzero pattern
    (see connected_components).  batch is the one place trajectories are
    set up.
    """

    laziness: float
    _exponents = 1  # exponents a move draws from [0, _exponents); 1 means always 1
    _sides = False  # whether a move draws a side

    def _init_laziness(self, laziness: float) -> None:
        if not 0.0 <= laziness <= 1.0:
            raise ValueError(f"laziness must lie in [0, 1], got {laziness}")
        self.laziness = float(laziness)

    # subclasses provide: apply_move(state, move) for a move of `moves`,
    # in_omega(state), space(budget), _coords and _base (the number of
    # digits of a state code and their base), _rule (the move rule on those
    # digits), _exponents and _sides when the walk draws them, and
    # _start_cells(start), the validated code row of a batch start

    @cached_property
    def moves(self) -> list:
        """The moves (recipient, donor, exponent, left) in code order: move d
        is _decode of code d, the move the engines apply when they draw d."""
        return list(zip(*(v.tolist() for v in _decode(self._coords, self._exponents, self._sides))))

    @property
    def counting_move_bound(self) -> int:
        """Distinct one-step outcomes including a hold, 1 + r(r-1)(e - [e > 1]) s
        in _decode's terms: a move with exponent 0 (drawn when e > 1) holds."""
        e, r = self._exponents, self._coords
        return 1 + r * (r - 1) * (e - (e > 1)) * (2 if self._sides else 1)

    @property
    def _scalar_rule(self) -> Callable:
        """The move rule on Python int codes, for _scalar_layout; the XOR and
        mod-p rules serve as they are."""
        return self._rule

    def apply_kernel_row(self, state) -> list[tuple[tuple, float]]:
        """Aggregated successor list [(state', prob)]; probabilities sum to 1."""
        if not self.in_omega(state):
            raise ValueError(f"state {state!r} is outside the walk's state space")
        agg: dict = {}
        w = (1.0 - self.laziness) / len(self.moves)
        for mv in self.moves if w else []:  # at q = 1 no move has weight
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
        """Sorted state indices, the smallest of each orbit of the group that
        _automorphisms generates.  Automorphisms of the kernel fix the uniform
        law and carry TV(P^t(x, .), pi) to itself, so worst-start exact mixing
        needs only these starts.  Each generator's state permutation is one
        _index_table lookup; every index then takes the least index along each
        generator, and pointer jumping shortcuts the chains, until nothing
        changes.  int32 digits cut the maps' memory traffic: codes below the
        2^24 _index_table budget keep every digit and scaled digit in range.
        """
        digits = _digits(space.codes, self._base, self._coords).astype(np.int32)
        perms = [_indices_of(space, _pack(image, self._base)) for image in self._automorphisms(digits)]
        least, pulled = None, np.arange(space.size)
        while not np.array_equal(pulled, least):
            least = pulled
            for perm in perms:
                pulled = np.minimum(pulled, pulled[perm])
            pulled = pulled[pulled]
        return np.flatnonzero(least == np.arange(space.size))

    def symmetries(self, space: EnumeratedSpace) -> np.ndarray:
        """(m, M) state indices of m commuting involutions that commute with
        the kernel, for spectral.spectrum's character blocks.

        They are the disjoint coordinate transpositions (0 1), (2 3), ...,
        which send move (i, j) to (s(i), s(j)) and so commute with the kernel
        (as in start_representatives), then the walk's value map applied to
        every coordinate (_value_involution), when it has one.  Each swaps
        digits of the state code, or maps them, and the space's _index_table
        finds the image's index.  Every one is a bijection of the space, so
        it fixes the uniform law.
        """
        digits = _digits(space.codes, self._base, self._coords)
        images = [_swap_coordinates(digits, c) for c in range(0, self._coords - 1, 2)]
        value = self._value_involution(digits)
        if value is not None:
            images.append(value)
        return _indices_of(space, _pack(np.stack(images), self._base))

    def _value_involution(self, digits: np.ndarray) -> np.ndarray | None:
        """An involution of the coordinate values that commutes with the move
        rule, applied to every coordinate's digit; None when the walk has none."""
        return None

    def _automorphisms(self, digits: np.ndarray) -> Iterator[np.ndarray]:
        """The (M, coords) digits' images, one at a time, under generators of
        start_representatives' group: the coordinate transposition (0 1) and
        the cycle (0 1 ... r-1), which send move (i, j) to (s(i), s(j)),
        then _value_involution when the walk has one.  Walks that know more
        automorphisms of the kernel add them."""
        yield _swap_coordinates(digits, 0)
        yield np.roll(digits, 1, axis=1)
        value = self._value_involution(digits)
        if value is not None:
            yield value

    def move_permutations(self, space: EnumeratedSpace) -> np.ndarray:
        """(n_moves, M) successor state indices; every move is a bijection.

        Row i holds apply_move's results for move i on every state, in move
        order: the rule replaces the recipient digit of each state code.
        Raises KeyError, as EnumeratedSpace.index_of_code does, when a
        successor code is missing from the space.
        """
        tgt, src, a, left = (v.astype(np.int64) for v in _decode(self._coords, self._exponents,
                                                                  self._sides))
        cols = np.ascontiguousarray(_digits(space.codes, self._base, self._coords).T)  # (coords, M)
        old = cols[tgt]
        succ = self._rule(old, cols[src], a[:, None], left[:, None]) - old
        succ *= self._base ** tgt[:, None]
        succ += space.codes
        return _indices_of(space, succ)

    def operator(self, space: EnumeratedSpace) -> csr_matrix:
        """Transition matrix on the enumerated space as CSR: each move adds
        (1 - q) / moves at (x, move(x)), and the laziness q is added to the
        diagonal last."""
        return _move_operator(self.move_permutations(space), self.laziness)

    def dense(self, space: EnumeratedSpace | None = None) -> np.ndarray:
        """Dense transition matrix on the enumerated space (the walk's default
        space when None): the operator's toarray()."""
        return self.operator(self.space() if space is None else space).toarray()

    def batch(
        self,
        trials: int,
        t_grid: Sequence[int],
        seed: int,
        stat_fn: Callable[[int, np.ndarray], None],
        start=None,
        stream: int = 0,
    ) -> None:
        """Run `trials` trajectories from one start; stat_fn(t, codes) sees
        the (trials, coordinates) state codes after step t of each grid time.

        The codes are uint8 coordinates (one-column), packed int64 rows
        (transvection) or int16 element codes (PA-PRA), as a read-only view;
        start=None is the walk's default start (see _start_cells).  All trials
        share one Philox stream keyed (seed, stream), so the run is
        deterministic in (seed, stream, trials).  Each block of steps draws one
        code per move, uniform over (recipient != donor, exponent, side) and
        uint16 while the walk has at most 2^16 such moves (uint32 beyond),
        decodes it with one divmod and table lookups, and then draws the
        laziness coins (see _move_blocks).  Each layout supplies the two
        pair-code tables its step reads: int32 recipient and donor for the
        scalar and cell layouts, uint64 bit shifts for the word layout.  The
        steps run on one of three layouts, chosen from the trial count, the
        rule and the grid: runs of 1 to _SCALAR_TRIALS trials step Python int
        codes in a list (_scalar_layout); F_2 runs (the XOR rule) whose state
        code fits 64 bits step each trial's code as one packed word when there
        are at least _WORD_TRIALS trials and _WORD_STEPS_PER_GRID_TIME steps
        per grid time (_word_layout); all other runs, zero trials included,
        step the codes in place (_cell_layout).  The scalar and word layouts
        write the codes at grid times only.  All three apply the same draws, so
        the output does not depend on which one runs.
        """
        grid = sorted(set(int(t) for t in t_grid))
        if grid and grid[0] < 0:
            raise ValueError("grid times must be nonnegative")
        scalar = 1 <= trials <= _SCALAR_TRIALS
        # the rule first: PA-PRA's tables are refused past their budget before the start is read
        rule = self._scalar_rule if scalar else self._rule
        row = self._start_cells(start)
        bits = self._base.bit_length() - 1  # the XOR rule's walks code base 2^bits
        sparse = not grid or len(grid) * _WORD_STEPS_PER_GRID_TIME <= grid[-1]
        if scalar:
            layout = _scalar_layout(row, trials, rule, self.laziness)
        elif rule is _xor_rule and self._coords * bits <= 64 and trials >= _WORD_TRIALS and sparse:
            layout = _word_layout(row, trials, bits, self.laziness)
        else:
            layout = _cell_layout(row, trials, rule, self.laziness)
        codes, advance, unpack, operands = layout
        view = codes.view()
        view.flags.writeable = False

        def observe(t):
            unpack()
            stat_fn(t, view)

        _drive(advance, operands, trials, self._coords, grid, seed, stream, self.laziness, observe,
               self._exponents, self._sides)

    def _as_start(self, state):
        """The batch start of a state tuple."""
        return np.array(state)

    def _state_of(self, codes: list) -> tuple:
        """The state tuple of one trial's code row."""
        return tuple(codes)


class _RowWalk(_WalkBase):
    """Row-addition walk on n-tuples of rows in F_p^k that span F_p^k, coded
    in base p^k.  The rule is XOR at p = 2 and (x + a y) mod p otherwise,
    the move only at k = 1, so odd p is built at k = 1 alone.  Subclasses
    supply their checks, apply_move, space, the dtype of the batch cells
    (_cells) and the refusal of rows past their range (_cells_refusal)."""

    def __init__(self, n: int, k: int, p: int, laziness: float):
        self.n, self.k, self.p = n, k, p
        self._coords, self._base = n, p**k
        self._rule = _xor_rule if p == 2 else lambda x, y, a, left: (x + a * y) % p
        self._exponents = 1 if p == 2 else p
        self._init_laziness(laziness)

    def _value_involution(self, digits):
        """y -> -y on every row at odd p: -(y_i + a y_j) = (-y_i) + a (-y_j),
        so it sends each move to itself.  At p = 2 and k >= 2, swap bits 0
        and 1 of every row: a permutation matrix A of GL_k(F_2), so
        A(z_b + z_a) = A z_b + A z_a and A keeps a tuple spanning.  At p = 2
        and k = 1 GL_1(F_2) is trivial, so there is none."""
        if self.p > 2:
            return -digits % self.p
        if self.k < 2:
            return None
        flip = (digits ^ (digits >> 1)) & 1
        return digits ^ (flip | flip << 1)

    def _automorphisms(self, digits):
        """Also, at odd p, y_0 -> g y_0 for the least generator g of F_p^*:
        scaling y_0 by c turns move (0, j, a) into (0, j, c a) and (i, 0, a)
        into (i, 0, a / c), and a runs over all of F_p, so with the
        coordinate permutations it scales every row by every unit.  And at
        k >= 2, add bit 0 of every row to bit 1, and cycle the k bits:
        linear maps like the bit swap, with which they generate GL_k(F_2),
        since the bit permutations conjugate the one transvection to all."""
        yield from super()._automorphisms(digits)
        p, k = self.p, self.k
        if p > 2:
            g = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
            yield np.column_stack([digits[:, 0] * g % p, digits[:, 1:]])
        if k >= 2:
            yield digits ^ (digits & 1) << 1
            yield (digits << 1 | digits >> (k - 1)) & ((1 << k) - 1)

    def _start_cells(self, start) -> np.ndarray:
        """The start's rows as _cells, refused with _cells_refusal when a row
        code may not fit them; the default is the k basis rows, then zero
        rows (e_1 at k = 1)."""
        if self._base - 1 > np.iinfo(self._cells).max:
            raise ValueError(self._cells_refusal.format(k=self.k, p=self.p))
        if start is None:
            start = [self.p**c for c in range(self.k)] + [0] * (self.n - self.k)
        row = np.asarray(start, dtype=np.int64)
        _check_start(start, row.ndim == 1 and self.in_omega(row.tolist()))
        return row.astype(self._cells)

    def in_omega(self, state) -> bool:
        """Whether state is n row codes in [0, p^k) that span F_p^k."""
        return (len(state) == self.n and all(0 <= y < self._base for y in state)
                and (rank_bits(state, self.k) == self.k if self.p == 2 else any(state)))


class TransvectionWalk(_RowWalk):
    """The row walk over F_2 on spanning n-tuples of rows in F_2^k; int64
    batch cells of packed rows."""

    _cells = np.int64
    _cells_refusal = "k = {k} exceeds 63, the row width of the engine's int64 cells"

    def __init__(self, n: int, k: int, laziness: float = 0.0):
        if n < 2:
            raise ValueError("the walk needs at least two rows (no moves exist for n=1)")
        if k < 1 or n < k:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        super().__init__(n, k, 2, laziness)

    def apply_move(self, state, move):
        recipient, donor, _, _ = move
        return transvection_step(state, donor, recipient)

    def space(self, budget: int = DEFAULT_STATE_BUDGET) -> EnumeratedSpace:
        return stiefel_space(self.n, self.k, budget)


class OneColumnWalk(_RowWalk):
    """The row walk at k = 1 on F_p^r minus the origin (n = r); over F_2 it
    is the functional projection of TransvectionWalk.  uint8 batch cells."""

    _cells = np.uint8
    _cells_refusal = "p = {p} exceeds 256, the range of the engine's uint8 cells"

    def __init__(self, r: int, p: int, laziness: float = 0.0):
        check_prime(p)
        if r < 2:
            raise ValueError("the walk needs at least two coordinates")
        self.r = r
        super().__init__(r, 1, p, laziness)

    def apply_move(self, state, move):
        i, j, a, _ = move
        return one_column_step(state, i, j, a, self.p)

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
        if m < 1:
            raise ValueError(f"H(p, m) needs m >= 1, got m={m}")
        self.r = r
        self.p = p
        self.m = m
        self._coords, self._base = r, p ** (2 * m + 1)
        self._exponents, self._sides = p, True
        self._init_laziness(laziness)

    def apply_move(self, state, move):
        i, j, a, left = move
        return pa_pra_step(state, i, j, a, "L" if left else "R")

    @property
    def _rule(self) -> Callable:
        """Built on use: the tables behind it are refused past their budget."""
        return _pa_pra_rule(self.p, self.m)

    @property
    def _scalar_rule(self) -> Callable:
        return _pa_pra_scalar_rule(self.p, self.m)

    def _value_involution(self, digits):
        """(v, z) -> (-v, z): an automorphism of H(p, m), because
        omega(-v, -w) = omega(v, w), so it maps g_i g_j^a to the product of
        the images and each move to itself, and it keeps a tuple generating."""
        h = 2 * self.m
        parts = _digits(digits, self.p, h + 1)
        parts[..., :h] = -parts[..., :h] % self.p
        return _pack(parts, self.p)

    def _start_cells(self, start) -> np.ndarray:
        """int16 element codes of start = (horizontal parts (r, 2m), central
        coordinates (r,)), reduced mod p; the default is canonical_start."""
        start_v, start_z = canonical_start(self.r, self.p, self.m) if start is None else start
        p, h = self.p, 2 * self.m
        v0, z0 = np.asarray(start_v, dtype=np.int64) % p, np.asarray(start_z, dtype=np.int64) % p
        _check_start(start, v0.shape == (self.r, h) and z0.shape == (self.r,)
                     and rank_modp_batch(v0[None], p)[0] == h)
        return _pack(np.column_stack([v0, z0]), p).astype(np.int16)

    def _as_start(self, state):
        return [g.v.entries for g in state], [g.z for g in state]

    def _state_of(self, codes: list) -> tuple:
        return tuple(decode_element(c, self.p, self.m) for c in codes)

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


def build_fibre_kernel(kind: str, frozen: Sequence[int], k: int | None = None,
                       p: int | None = None, m: int | None = None) -> np.ndarray:
    """Transition law of one tuple coordinate given the codes of the frozen
    coordinates, as a read-only (size, size) array indexed by that
    coordinate's code.

    kind='transvection': frozen holds the other coordinates' packed rows z_j
    of F_2^k and k is the row width; K(u, v) = c_{u xor v} / len(frozen) with
    c_w the number of frozen rows equal to w.  Any number of rows is allowed,
    fewer than k included.  kind='heisenberg': frozen holds element codes of
    H(p, m) (v digits, then z, as encode_element writes them) and K averages
    left and right translation by g_j^a over all frozen g_j and all
    exponents a.  Either way K(x, .) is the law of the walk's move rule
    applied to x with a uniform frozen donor, exponent and side.
    """
    if kind == "transvection":
        if k is None:
            raise ValueError("the transvection fibre needs the row width k")
        size, rule, exponents, sides = 1 << k, _xor_rule, [1], [0]
    elif kind == "heisenberg":
        if p is None or m is None:
            raise ValueError("the Heisenberg fibre needs the group H(p, m)")
        size, rule, exponents, sides = p ** (2 * m + 1), _pa_pra_rule(p, m), range(p), [0, 1]
    else:
        raise ValueError(f"unknown fibre kind {kind!r}")
    frozen = tuple(int(c) for c in frozen)
    if not frozen:
        raise ValueError("need at least one frozen coordinate")
    if not all(0 <= c < size for c in frozen):
        raise ValueError(f"frozen codes {frozen} outside the {kind} fibre's {size} letters")
    y, a, left = (g.ravel() for g in np.meshgrid(frozen, exponents, sides, indexing="ij"))
    x = np.arange(size)[:, None]
    counts = np.bincount((x * size + rule(x, y, a, left)).ravel(), minlength=size**2)
    K = counts.reshape(size, size) / y.size
    K.flags.writeable = False
    return K


# ---------------------------------------------------------------------------
# trajectories: one block-drawn loop under simulate and the batch engines
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 16  # steps x trials of moves drawn at once
# Runs of 1 to this many trials step Python ints: per step, numpy's fixed
# cost of each call on 1-8 elements outweighs a Python loop over the trials.
# Engine alone with a grid time every 10 steps, the ints were 5-14x faster
# at 1 trial; at 8, 1.9-2.9x on the mod-p and PA-PRA rules, 1.2-1.4x on an
# 8-row transvection run and 0.86-1.07x on a 32-coordinate XOR run, whose
# unpack writes 256 codes per grid time (1.7x with a grid time every 100
# steps); at 16 the XOR runs were 1.2-1.9x slower.
_SCALAR_TRIALS = 8
# F_2 runs with at least this many trials step packed words: the word step
# has the higher fixed cost, and the two steps break even at 48-64 trials
# (at 16 trials the word step is about 20% slower, at 1 000 1.3-1.4x faster)
_WORD_TRIALS = 64
# ... and have at least this many steps per grid time: each grid time
# unpacks every word.  With a grid time every 4 steps the cells measured
# 1.05-1.9x faster (16-64 coordinates, 64-3 000 trials); 16-bit codes break
# even near 6 steps, wider codes only past 32.
_WORD_STEPS_PER_GRID_TIME = 8


def _pair_tables(r):
    """The (recipient, donor) int32 tables of the r(r-1) ordered pairs, indexed
    by pair code: pair -> (pair // (r-1), pair % (r-1) + [pair % (r-1) >=
    pair // (r-1)])."""
    recipient, donor = np.divmod(np.arange(r * (r - 1), dtype=np.int32), r - 1)
    donor += donor >= recipient
    return recipient, donor


def _decode(r, exponents=1, sides=False, codes=None, operands=None):
    """(recipient, donor, exponent, left) of move codes, the one definition
    of a walk's moves: a code d in [0, r(r-1) e s), where e = `exponents`
    and s = 2 when the walk draws `sides`, else 1, is (extra, pair) =
    divmod(d, r(r-1)) with extra = a s + left, a bijection onto the
    (recipient != donor, exponent, side) triples.  codes=None decodes every
    code in order; given codes are overwritten by their pair codes.  The
    pair reads recipient and donor from `operands`, two tables indexed by
    pair code (the int32 _pair_tables(r) when None), so they have the
    tables' dtype; exponent is int32 (1 when exponents == 1), left is bool,
    and the ones not drawn are read-only broadcast constants.
    """
    pairs, s = r * (r - 1), 2 if sides else 1
    extras = exponents * s
    codes = np.arange(pairs * extras) if codes is None else codes
    recipient, donor = _pair_tables(r) if operands is None else operands
    a, left = np.broadcast_to(np.int32(1), codes.shape), np.broadcast_to(False, codes.shape)
    if extras > 1:
        # divmod by hand: numpy divides unsigned ints by a scalar about
        # 10x faster than np.divmod, which takes the general path
        extra = codes // pairs
        codes -= extra * pairs
        exponent_of, left_of = np.divmod(np.arange(extras, dtype=np.int32), s)
        if exponents > 1:
            a = exponent_of.take(extra)
        if sides:
            left = (left_of == 1).take(extra)
    # one cast for both lookups: take converts other index dtypes on
    # every call, and into uint64 tables that path is slower still
    pair = codes.astype(np.intp)
    return recipient.take(pair), donor.take(pair), a, left


def _move_blocks(rng, steps, trials, r, exponents=1, sides=False, laziness=0.0, operands=None):
    """The moves of `steps` steps of `trials` walks on r coordinates, in blocks.

    Yields (recipient, donor, exponent, left, hold) arrays of shape
    (block, trials), with max(1, _BLOCK_CELLS // trials) steps per block
    but the last.  A block draws one code per move, uniform on the
    r(r-1) e s codes of _decode, in one rng.integers call, as uint16 when
    there are at most 2^16 codes and as uint32 otherwise (ValueError past
    2^32), then its laziness coins (hold, bool, with probability
    `laziness`; a read-only constant when 0), and decodes the codes with
    `operands`.
    """
    count = r * (r - 1) * exponents * (2 if sides else 1)
    if count > 1 << 32:
        raise ValueError(f"{count} moves per step exceed the 2^32 codes of one draw")
    dtype = np.uint16 if count <= 1 << 16 else np.uint32
    per_block = max(1, _BLOCK_CELLS // max(trials, 1))
    for done in range(0, steps, per_block):
        shape = (min(per_block, steps - done), trials)
        codes = rng.integers(0, count, size=shape, dtype=dtype)
        hold = rng.random(shape) < laziness if laziness > 0 else np.broadcast_to(False, shape)
        yield (*_decode(r, exponents, sides, codes, operands), hold)


def _cell_layout(row, trials, rule, laziness):
    """Trajectories stepped on their codes: (codes, advance, unpack, operands).

    The cells hold trials * r codes, trial-major, then one spare that stays
    zero; codes is their (trials, r) view.  advance(i, j, a, left, hold)
    applies one block of _move_blocks, yielding after each step: a step sets
    the recipient cells (one per trial) to rule(recipient, donor, exponent,
    left).  A held step's donor is the spare cell, whose zero (the zero row,
    or the identity element) makes the rule the identity.  The codes are
    always current, so unpack does nothing.  The operands are the int32
    _pair_tables: the step offsets coordinates into cells.
    """
    r = row.size
    spare = trials * r
    cells = np.zeros(spare + 1, dtype=row.dtype)
    codes = cells[:-1].reshape(trials, r)
    codes[:] = row
    offset = np.arange(0, spare, r)

    def advance(i, j, a, left, hold):
        tgt, src = i + offset, j + offset
        if laziness > 0:
            np.copyto(src, spare, where=hold)
        for tgt_t, src_t, a_t, left_t in zip(tgt, src, a, left):
            cells.put(tgt_t, rule(cells.take(tgt_t), cells.take(src_t), a_t, left_t))
            yield

    return codes, advance, lambda: None, _pair_tables(r)


def _scalar_layout(row, trials, rule, laziness):
    """Trajectories stepped on Python ints: (codes, advance, unpack, operands).

    The cells are one flat list of trials * r int codes, trial-major, then
    a spare that stays zero, as in _cell_layout, and a step runs the rule
    on ints, one trial after another: cells[x] = rule(cells[x], cells[y],
    a, left).  advance converts each block of _move_blocks with
    ravel().tolist() and walks it in order, step-major.  The lists must be
    flat: tolist() on a 2-D block builds one small list per step, and that
    many container allocations set off the cyclic garbage collector, so a
    1-trial run of 10 000 steps (r = 16, p = 3) took 13-43 ms by seed, against
    a steady 7 ms on flat lists.  unpack copies the list into codes, whose
    dtype is row's.  The operands are the int32 _pair_tables, as in
    _cell_layout.
    """
    r = row.size
    spare = trials * r
    cells = np.tile(row, trials).tolist() + [0]
    codes = np.empty((trials, r), dtype=row.dtype)
    flat = codes.reshape(-1)
    offset = np.arange(0, spare, r)

    def advance(i, j, a, left, hold):
        tgt, src = i + offset, j + offset
        if laziness > 0:
            np.copyto(src, spare, where=hold)
        done = 0
        for x, y, a_k, left_k in zip(*(v.ravel().tolist() for v in (tgt, src, a, left))):
            cells[x] = rule(cells[x], cells[y], a_k, left_k)
            done += 1
            if done == trials:
                done = 0
                yield

    def unpack():
        flat[:] = cells[:spare]

    return codes, advance, unpack, _pair_tables(r)


def _word_layout(row, trials, bits, laziness):
    """F_2 trajectories stepped as one uint64 word per trial: (codes,
    advance, unpack, operands).

    The word is the walk's state code: coordinate c sits at bits
    [c * bits, (c + 1) * bits), the packing of _digit_space.  A step XORs
    the donor's field into the recipient's, w ^= ((w >> bits j) & mask) <<
    bits i, four ufuncs over the trials.  The operands are uint64 tables of
    the shifts bits i and bits j by pair code, so _move_blocks yields the
    shifts themselves and a block needs no cast or multiply.  A held step
    shifts by 64, which numpy maps to 0, so it XORs nothing.  unpack writes
    the words' fields into codes, whose dtype is row's; 1-bit fields are
    the bits of the words' little-endian bytes, which np.unpackbits reads
    without the (trials, r) uint64 temporary of shifting every field.
    """
    r = row.size
    width, mask = np.uint64(bits), np.uint64((1 << bits) - 1)
    fields = np.arange(r, dtype=np.uint64) * width
    words = np.full(trials, np.bitwise_or.reduce(row.astype(np.uint64) << fields), dtype=np.uint64)
    moved = np.empty_like(words)
    codes = np.empty((trials, r), dtype=row.dtype)
    operands = tuple(table.astype(np.uint64) * width for table in _pair_tables(r))

    def advance(into, out_of, a, left, hold):
        if laziness > 0:
            np.copyto(into, 64, where=hold)
        for into_t, out_of_t in zip(into, out_of):
            np.right_shift(words, out_of_t, out=moved)
            np.bitwise_and(moved, mask, out=moved)
            np.left_shift(moved, into_t, out=moved)
            np.bitwise_xor(words, moved, out=words)
            yield

    def unpack():
        if bits == 1:
            little = words.astype("<u8", copy=False).view(np.uint8).reshape(trials, 8)
            codes[:] = np.unpackbits(little, axis=1, count=r, bitorder="little")
        else:
            np.bitwise_and(words[:, None] >> fields, mask, out=codes, casting="unsafe")

    return codes, advance, unpack, operands


def _drive(advance, operands, trials, r, grid, seed, stream, laziness, observe, exponents=1,
           sides=False):
    """Run `trials` trajectories on r coordinates and observe them on a time grid.

    The moves come from _move_blocks on Philox (seed, stream), which reads
    each move's recipient and donor from the layout's `operands` tables,
    and advance(*block) applies each block's steps in order, yielding after
    each one (see _cell_layout and _word_layout).  observe(t) runs at every
    time of grid (sorted, distinct and nonnegative), after step t.
    """
    due = iter(grid)
    t, next_t = 0, next(due, None)
    if next_t == 0:
        observe(0)
        next_t = next(due, None)
    rng = philox_generator(seed, stream)
    steps = grid[-1] if grid else 0
    for block in _move_blocks(rng, steps, trials, r, exponents, sides, laziness, operands):
        for _ in advance(*block):
            t += 1
            if t == next_t:
                observe(t)
                next_t = next(due, None)


def _check_start(start, inside) -> None:
    """Refuse a start that is not in the walk's state space."""
    if not inside:
        raise ValueError(f"start {start!r} is outside the state space")


def canonical_start(r: int, p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal parts and central coordinates of the canonical tuple.

    The first 2m coordinates carry the symplectic basis vectors, the next
    one is the central generator, and the rest are identities.  Requires
    r >= 2m + 1 so the tuple generates.
    """
    h = 2 * m
    if r < h + 1:
        raise ConfigError(f"canonical tuple needs r >= {h + 1}, got {r}")
    start_v = np.zeros((r, h), dtype=np.int64)
    for i in range(h):
        start_v[i, i] = 1
    start_z = np.zeros(r, dtype=np.int64)
    start_z[h] = 1
    return start_v, start_z


def one_column_batch(
    r: int,
    p: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    stat_fn: Callable[[int, np.ndarray], None],
    start: np.ndarray | None = None,
    laziness: float = 0.0,
) -> None:
    """OneColumnWalk(r, p, laziness).batch: stat_fn(t, Y) sees (trials, r)
    uint8 states; the default start is e_1."""
    OneColumnWalk(r, p, laziness).batch(trials, t_grid, seed, stat_fn, start)


def transvection_batch(
    n: int,
    k: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    stat_fn: Callable[[int, np.ndarray], None],
    start: np.ndarray,
    laziness: float = 0.0,
) -> None:
    """TransvectionWalk(n, k, laziness).batch: stat_fn(t, Z) sees packed
    int64 rows (trials, n)."""
    TransvectionWalk(n, k, laziness).batch(trials, t_grid, seed, stat_fn, start)


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
) -> None:
    """PaPraWalk(r, p, m, laziness).batch from (start_v, start_z), with the
    element codes decoded at grid times only: stat_fn(t, V, Z) sees int16
    horizontal parts (trials, r, 2m) and central coordinates (trials, r)."""
    h = 2 * m

    def observe(t, codes):
        digits = _digits(codes, p, h + 1).astype(np.int16)
        stat_fn(t, digits[..., :h], digits[..., h])

    PaPraWalk(r, p, m, laziness).batch(trials, t_grid, seed, observe, (start_v, start_z))


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

    This is walk.batch with one trial on Philox stream (seed, traj_id), so
    a trajectory is keyed by (seed, traj_id).  States
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

    walk.batch(1, grid, seed, lambda t, cells: record(t, walk._state_of(cells[0].tolist())),
               walk._as_start(start), traj_id)
    return Trajectory(seed, traj_id, times, obs, states if keep_states else None)


def _indices_of(space: EnumeratedSpace, codes: np.ndarray) -> np.ndarray:
    """The int64 state index of every code in `codes`, one take from the
    space's _index_table; KeyError, as EnumeratedSpace.index_of_code raises,
    for the first code (in C order) that is negative, past the table or not
    in the space."""
    table = space._index_table
    if not codes.size:
        return np.zeros(codes.shape, dtype=np.int64)
    if codes.min() >= 0 and codes.max() < table.size:
        idx = table.take(codes)
        if idx.min() >= 0:
            return idx.astype(np.int64)
    missing = codes[~np.isin(codes, space.codes)]
    raise KeyError(f"code {int(missing[0])} is not in the space")


def _move_operator(perms: np.ndarray, laziness: float) -> csr_matrix:
    """The kernel that applies a uniform move of `perms` ((moves, M)
    successor indices) with probability 1 - laziness, as CSR.

    Row x lists its moves' successors, then x itself when laziness > 0, and
    is sorted once; each run of equal columns is one entry.  A run of c
    moves weighs s[c], where s[1] = w and s[c] = s[c - 1] + w for
    w = (1 - q) / moves: the sequential sums sum_duplicates would make, so
    toarray() is bitwise a per-move accumulation of the kernel.  The
    diagonal's own slot counts for no move, q is added to it afterwards,
    and at q = 1 the zero move entries are dropped.  Indices and indptr
    are int32, so more than 2^31 - 1 entries are refused before any is
    built.
    """
    n_moves, M = perms.shape
    lazy = int(laziness > 0)
    row_nnz = n_moves + lazy
    check_budget(M * row_nnz, 2**31 - 1, "operator entries", "int32 index")
    sums = np.zeros(row_nnz + 1)  # s[c] for c moves, and a spare slot for a lazy diagonal run
    np.cumsum(np.full(n_moves, (1.0 - laziness) / n_moves), out=sums[1:n_moves + 1])
    table = np.empty((M, row_nnz), dtype=np.int32)
    table[:, :n_moves] = perms.T
    if lazy:
        table[:, n_moves] = np.arange(M, dtype=np.int32)
    table.sort(axis=1)
    flat = table.ravel()
    first = np.empty(flat.size, dtype=bool)  # where a run of equal columns starts
    first[1:] = flat[1:] != flat[:-1]
    first[::row_nnz] = True
    starts = np.flatnonzero(first)
    indices = flat[starts]
    runs = np.count_nonzero(first.reshape(M, row_nnz), axis=1)
    indptr = np.zeros(M + 1, dtype=np.int32)
    np.cumsum(runs, out=indptr[1:])
    counts = np.empty_like(starts)  # run lengths
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = flat.size - starts[-1:]
    data = sums[counts]
    diagonal = np.flatnonzero(indices == np.repeat(np.arange(M, dtype=np.int32), runs))
    data[diagonal] = sums[counts[diagonal] - lazy] + laziness
    kept = data != 0  # at q = 1 every move weighs 0: the kernel is the identity
    if not kept.all():
        indptr = np.concatenate([[0], np.cumsum(kept)]).astype(np.int32)[indptr]
        indices, data = indices[kept], data[kept]
    mat = csr_matrix((data, indices, indptr), shape=(M, M))
    mat.has_canonical_format = True
    return mat


def _weak_components(graph) -> tuple[int, np.ndarray]:
    """(count, label per state) of the weak components of a CSR kernel's
    nonzero pattern, numbered in the order of their smallest state index."""
    # imported here: the csgraph package pulls in scipy.sparse.linalg, whose
    # import cost every use of groupwalks would otherwise pay
    from scipy.sparse.csgraph import connected_components as csgraph_components

    count, labels = csgraph_components(graph, directed=True, connection="weak")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return count, np.argsort(np.argsort(first))[inverse]


def connected_components(perms: np.ndarray) -> np.ndarray:
    """Component label per state for the union of the move permutations.

    The labels are the weak components of the walk's operator.  All kernels
    here contain each move's inverse, so weak connectivity via successor
    edges equals strong connectivity.  Components are numbered in the order
    of their smallest state index.
    """
    return _weak_components(_move_operator(perms, 0.0))[1]
