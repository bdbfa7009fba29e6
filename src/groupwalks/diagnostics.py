"""Statistics of character sums, good sets, and chain diagnostics.

This module measures what the walks of :mod:`groupwalks.chains` actually do:

* character sums ``S_xi`` and kernel-hit counts ``N_xi`` of tuple states,
  and the good sets they define;
* stationary and ambient good-set measure, exactly or by Monte Carlo with
  Wilson confidence intervals.  Membership depends only on how many rows
  take each value, so the exact measure and the fibre-gap scan run on the
  compositions of n into the value alphabet (type classes), never on the
  ambient tuples;
* burn-in occupancy curves from worst-case-style starts;
* exact total-variation distances, exact mixing times, counting lower
  bounds, and Monte Carlo TV curves for large instances;
* the birth-death analysis of the support-size process of the one-column
  walk: transition probabilities, hitting times, crossing probabilities,
  the rate functions I_p and J_p, and deterministic constant selection.

Boundary comparisons for the transvection good set use exact integers
(``4*|S_xi| <= n``), so membership never depends on floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix, diags, issparse

from . import chains
from .algebra import LinearFunctional, _digits, _pack, check_prime
from .chains import (
    DEFAULT_STATE_BUDGET,
    PaPraWalk,
    _RowWalk,
    _weak_components,
    canonical_start,
    one_column_batch,
    philox_generator,
)
from .errors import (
    BudgetError,
    ConfigError,
    DimensionMismatch,
    InvariantError,
    check_budget,
)
from .groups import HeisenbergElement

__all__ = [
    "WILSON_Z99",
    "GoodSetSpec",
    "BDParams",
    "RateConstants",
    "s_xi",
    "n_xi",
    "transvection_good_set",
    "heisenberg_good_set",
    "in_good_set",
    "good_mask_rows",
    "good_mask_horizontal",
    "good_set_measure",
    "wilson_interval",
    "canonical_start",
    "burnin_occupancy",
    "tv_exact",
    "mixing_time_exact",
    "worst_tv_curve",
    "tv_counting_lower",
    "bd_probs",
    "bd_rho",
    "bd_hitting_time",
    "bd_crossing_prob",
    "bd_hitting_mc",
    "embedded_crossing_mc",
    "support_transition_frequencies",
    "good_fibre_gap_scan",
    "hyperplane_gap_floor",
    "unbalanced_reason",
    "sample_balanced_frozen_tuples",
    "rate_I",
    "rate_J",
    "select_constants",
    "support_growth_mean_check",
    "mc_tv_curve_one_column",
]

#: two-sided 99% normal quantile used by every Wilson interval here.
WILSON_Z99 = 2.5758293035489004

DEFAULT_FUNCTIONAL_BUDGET = 1 << 20
DEFAULT_DENSE_BUDGET = 4096
DEFAULT_BLOCK_BUDGET = DEFAULT_DENSE_BUDGET**2  # entries of exact mixing's starts x states block
DEFAULT_CLASS_BUDGET = 1 << 23  # entries of a type-class table, classes * values
TV_STEP_CAP = 100_000  # steps: the exact tau search's cap and the largest TV grid time


# ---------------------------------------------------------------------------
# character statistics


def _xi_code(xi, k: int | None = None) -> int:
    """Packed-bit coefficient pattern of a mod-2 functional.

    Accepts either a LinearFunctional over F_2 or a plain int whose bit i
    is the coefficient of coordinate i.
    """
    if isinstance(xi, LinearFunctional):
        if xi.p != 2:
            raise DimensionMismatch(f"sign statistic needs a mod-2 functional, got p={xi.p}")
        if k is not None and xi.dim != k:
            raise DimensionMismatch(f"functional on {xi.dim} coordinates, rows have {k}")
        return xi.coeffs.bits
    code = int(xi)
    if code < 0:
        raise ConfigError(f"functional code must be nonnegative, got {code}")
    if k is not None and code >> k:
        raise DimensionMismatch(f"functional code {code} does not fit in {k} coordinates")
    return code


def s_xi(z: Sequence, xi, k: int | None = None) -> int:
    """Signed character sum sum_i (-1)^{xi . z_i} over the rows of z.

    Rows are packed bit patterns (ints); ``xi`` is a LinearFunctional over
    F_2 or an int code.  The result lies in [-n, n] and has the parity of n.
    """
    code = _xi_code(xi, k)
    total = 0
    for row in z:
        r = int(row)
        if r < 0 or (k is not None and r >> k):
            raise DimensionMismatch(f"row {r} does not fit in {k} coordinates")
        total += 1 - 2 * ((code & r).bit_count() & 1)
    return total


def n_xi(g: Sequence[HeisenbergElement], xi: LinearFunctional) -> int:
    """Number of coordinates whose horizontal part lies in ker xi."""
    count = 0
    for elem in g:
        if int(xi(elem.v)) == 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# good sets


@dataclass(frozen=True)
class GoodSetSpec:
    """Which states count as well balanced, for either walk.

    ``transvection``: all nonzero xi over F_2^k satisfy 4*|S_xi| <= n.
    ``heisenberg``:   all nonzero xi over F_p^{2m} satisfy N_xi <= beta0*r.
    """

    kind: str
    n: int
    k: int = 0
    p: int = 2
    m: int = 0
    beta0: float = 0.0

    def __post_init__(self):
        if self.kind not in ("transvection", "heisenberg"):
            raise ConfigError(f"unknown good-set kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError(f"tuple length must be positive, got {self.n}")
        if self.kind == "transvection":
            if self.k < 1:
                raise ConfigError(f"row width must be positive, got {self.k}")
        else:
            check_prime(self.p)
            if self.p == 2:
                raise ConfigError("the balanced-kernel good set needs odd characteristic")
            if self.m < 1:
                raise ConfigError(f"need m >= 1, got {self.m}")
            if not 0.0 < self.beta0 < 1.0:
                raise ConfigError(f"beta0 must lie in (0,1), got {self.beta0}")

    @property
    def h(self) -> int:
        return 2 * self.m

    @property
    def functional_count(self) -> int:
        if self.kind == "transvection":
            return (1 << self.k) - 1
        return self.p**self.h - 1


def transvection_good_set(n: int, k: int) -> GoodSetSpec:
    return GoodSetSpec(kind="transvection", n=n, k=k)


def heisenberg_good_set(r: int, p: int, m: int, beta0: float) -> GoodSetSpec:
    return GoodSetSpec(kind="heisenberg", n=r, p=p, m=m, beta0=beta0)


def _good_set_of(walk, beta0: float = 0.75) -> GoodSetSpec | None:
    """The walk's good set: the sign set of the row walk over F_2 (any k),
    the kernel-count set at level beta0 of PA-PRA, and None for the row
    walk at odd p, which has none."""
    if isinstance(walk, PaPraWalk):
        return heisenberg_good_set(walk.r, walk.p, walk.m, beta0)
    if not isinstance(walk, _RowWalk):
        raise ConfigError(f"unsupported walk type {type(walk).__name__}")
    return transvection_good_set(walk.n, walk.k) if walk.p == 2 else None


def _kernel_count_threshold(spec: GoodSetSpec) -> int:
    """Largest integer N_xi still allowed by N_xi <= beta0 * r."""
    return int(math.floor(spec.beta0 * spec.n + 1e-9))


def in_good_set(z: Sequence, spec: GoodSetSpec, budget: int = DEFAULT_FUNCTIONAL_BUDGET) -> bool:
    """Exact good-set membership by enumeration of all nonzero functionals."""
    check_budget(spec.functional_count, budget, "functionals", "functional")
    if len(z) != spec.n:
        raise DimensionMismatch(f"state has {len(z)} rows, spec expects {spec.n}")
    if spec.kind == "transvection":
        for code in range(1, 1 << spec.k):
            if 4 * abs(s_xi(z, code, spec.k)) > spec.n:
                return False
        return True
    limit = _kernel_count_threshold(spec)
    for coeffs in _digits(np.arange(1, spec.p**spec.h), spec.p, spec.h):
        count = 0
        for elem in z:
            if int(np.dot(coeffs, elem.v.entries)) % spec.p == 0:
                count += 1
        if count > limit:
            return False
    return True


def _checked(cells, top: int) -> np.ndarray:
    """cells as an integer array with every entry in [0, top), else a ValueError."""
    cells = np.asarray(cells)
    if cells.dtype.kind not in "iu" or (cells.size and not 0 <= cells.min() <= cells.max() < top):
        raise DimensionMismatch(f"cells must be integers in [0, {top}), got {cells.dtype} cells")
    return cells


def _functional_table(cells: np.ndarray, spec: GoodSetSpec) -> np.ndarray:
    """S_xi (transvection) or N_xi (heisenberg) of (batch, n) cells: (batch,
    functionals), one column per nonzero functional in code order.

    Cells are packed rows in [0, 2^k) or element codes in [0, p^(h+1)), whose
    row value is the code mod p^h; others are refused.  Each entry sums the rows'
    _value_table entries over the smaller of the alphabet (counts @ table) and n.
    """
    table = _value_table(spec)
    size = table.shape[0]
    values = _checked(cells, size if spec.kind == "transvection" else size * spec.p)
    if values.size and values.max() >= size:  # element codes: keep the horizontal part
        values = values % size
    batch, n = values.shape
    if size == 2:  # a two-letter alphabet's counts are (n - w, w), w the row sum
        w = values.sum(axis=1, dtype=np.int64)[:, None]
        return (n - w) * table[0] + w * table[1]
    if size <= n:
        offset = np.arange(batch, dtype=np.int64)[:, None] * size
        counts = np.bincount((offset + values).ravel(), minlength=batch * size)
        return counts.reshape(batch, size) @ table
    out = table[values[:, 0]]
    for c in range(1, n):
        out += table[values[:, c]]
    return out


def _good_mask_of_table(table: np.ndarray, spec: GoodSetSpec) -> np.ndarray:
    """Membership from an S_xi table (transvection) or N_xi table (heisenberg)."""
    if spec.kind == "transvection":
        return (4 * np.abs(table) <= spec.n).all(axis=1)
    return (table <= _kernel_count_threshold(spec)).all(axis=1)


def good_mask_rows(Z: np.ndarray, spec: GoodSetSpec) -> np.ndarray:
    """Vectorised membership for packed-row states Z of shape (batch, n)."""
    if spec.kind != "transvection":
        raise ConfigError("packed-row membership is the transvection form")
    if np.shape(Z)[1] != spec.n:
        raise DimensionMismatch(f"states have {np.shape(Z)[1]} rows, spec expects {spec.n}")
    return _good_mask_of_table(_functional_table(Z, spec), spec)


def good_mask_horizontal(V: np.ndarray, spec: GoodSetSpec) -> np.ndarray:
    """Vectorised membership from horizontal parts V, (batch, r, h) digits in [0, p), low first."""
    if spec.kind != "heisenberg":
        raise ConfigError("horizontal-part membership is the balanced-kernel form")
    if np.shape(V)[1:] != (spec.n, spec.h):
        raise DimensionMismatch(f"states have shape {np.shape(V)[1:]}, "
                                f"spec expects ({spec.n}, {spec.h})")
    V = _checked(V, spec.p)
    return _good_mask_of_table(_functional_table(_pack(V, spec.p), spec), spec)


# ---------------------------------------------------------------------------
# good-set measure


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigError(f"bad counts {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def _compositions(total: int, parts: int, budget: int) -> np.ndarray:
    """(count, parts) array of all compositions of total into parts nonnegative
    parts, in lexicographic order.

    Refuses with BudgetError before allocating when the table's entries,
    count * parts with count = C(total + parts - 1, parts - 1), exceed budget.
    """
    count = math.comb(total + parts - 1, parts - 1)
    check_budget(count * parts, budget,
                 f"table entries ({count} compositions of {total} into {parts} parts)", "class")
    C = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        # a prefix with `rest` left expands to rest + 1 rows, the next part 0..rest
        sizes = rest + 1
        part = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        C = np.column_stack([np.repeat(C, sizes, axis=0), part])
        rest = np.repeat(rest, sizes) - part
    return np.column_stack([C, rest])


@functools.lru_cache(maxsize=16)
def _value_table(spec: GoodSetSpec) -> np.ndarray:
    """S_xi or N_xi of one row of each value, (values, functionals) in code order:
    the 2^k x (2^k - 1) signs (-1)^{xi . w} or the p^h x (p^h - 1) kernel hits
    [xi(v) = 0].  The one definition of both; cached (16 specs), read-only and
    refused with BudgetError past DEFAULT_STATE_BUDGET entries."""
    w = np.arange(spec.functional_count + 1, dtype=np.int64)
    check_budget(w.size * (w.size - 1), DEFAULT_STATE_BUDGET, "value-table entries", "state")
    if spec.kind == "transvection":
        table = 1 - 2 * (np.bitwise_count(w[:, None] & w[1:]) & 1).astype(np.int64)
    else:
        digits = _digits(w, spec.p, spec.h)
        table = ((digits @ digits[1:].T) % spec.p == 0).astype(np.int64)
    table.flags.writeable = False
    return table


def _class_counts(C: np.ndarray, weights: np.ndarray, spec: GoodSetSpec) -> tuple[int, int, int, int]:
    """(ambient, ambient_bad, spanning, spanning_bad) weights of value-count rows.

    C[c, v] is how many rows take value v.  T = C @ (per-value table) holds
    every S_xi or N_xi of each row of C.  The rows span exactly when no
    nonzero functional vanishes on all of them, i.e. when no S_xi or N_xi
    reaches n, so spanning is (T < n).all(axis=1) and needs no row reduction.
    """
    T = C @ _value_table(spec)
    good = _good_mask_of_table(T, spec)
    spanning = (T < spec.n).all(axis=1)
    return (
        int(weights.sum()),
        int(weights[~good].sum()),
        int(weights[spanning].sum()),
        int(weights[spanning & ~good].sum()),
    )


def _type_counts(spec: GoodSetSpec, budget: int) -> tuple[int, int, int, int]:
    """Exact (ambient, ambient_bad, spanning, spanning_bad) summed over type classes.

    Membership depends only on how many rows take each value and spanning
    only on which values occur, so each composition c of n into the value
    alphabet stands for multinomial(n; c) tuples (times p^r central
    coordinates for the Heisenberg set).
    """
    n = spec.n
    C = _compositions(n, spec.functional_count + 1, budget)
    central = 1 if spec.kind == "transvection" else spec.p**n
    factorials = np.array([math.factorial(i) for i in range(n + 1)], dtype=object)
    weight = (math.factorial(n) * central) // factorials[C].prod(axis=1)
    return _class_counts(C, weight, spec)


def good_set_measure(
    spec: GoodSetSpec,
    method: str = "exact",
    trials: int = 100_000,
    seed: int = 0,
    budget: int = DEFAULT_CLASS_BUDGET,
) -> dict:
    """Measure of the bad set under both the ambient and stationary laws.

    ``exact`` returns exact integer counts by summing multinomial weights
    over type classes (how many rows take each value), so ``budget`` bounds
    the entries of the class table, C(n + |values| - 1, |values| - 1) classes
    times |values|, not the ambient size.  ``monte_carlo`` samples iid
    ambient states, estimating the stationary law by rejection to the
    spanning states, and reports Wilson 99% intervals.  Each row is one
    uniform draw of its value code (a packed F_2^k row, or the base-p
    digits of a horizontal part in F_p^{2m}), and each sample is reduced to
    its value counts; ``budget`` bounds trials * |values| and is checked
    before any draw.  The samples are drawn and counted in blocks of
    chains._BLOCK_CELLS codes, max(1, _BLOCK_CELLS // n) samples each, so
    memory is one block whatever the trial count.  numpy's bounded int64
    draws below 2^32 take one 32-bit word each and keep a spare half-word
    in the generator between calls, so the blocks draw the codes one draw
    of all trials would.
    """
    if method == "exact":
        total, amb_bad, span, span_bad = _type_counts(spec, budget)
        return {
            "method": "exact",
            "ambient_size": total,
            "omega_size": span,
            "mu_gc": amb_bad / total,
            "pi_gc": span_bad / span if span else float("nan"),
            "mu_bad_count": amb_bad,
            "pi_bad_count": span_bad,
        }
    if method != "monte_carlo":
        raise ConfigError(f"unknown measure method {method!r}")
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    size = spec.functional_count + 1  # row values
    check_budget(trials * size, budget, f"count entries ({trials} samples x {size} row values)",
                 "class")
    rng = philox_generator(seed)
    rows = max(1, chains._BLOCK_CELLS // spec.n)
    amb_bad = span = span_bad = 0
    for done in range(0, trials, rows):
        block = min(rows, trials - done)
        codes = rng.integers(0, size, size=(block, spec.n))
        codes += np.arange(0, block * size, size)[:, None]
        C = np.bincount(codes.ravel(), minlength=block * size).reshape(block, size)
        _, bad, spanning, spanning_bad = _class_counts(C, np.ones(block, dtype=np.int64), spec)
        amb_bad, span, span_bad = amb_bad + bad, span + spanning, span_bad + spanning_bad
    mu_lo, mu_hi = wilson_interval(amb_bad, trials)
    pi_lo, pi_hi = wilson_interval(span_bad, span) if span else (0.0, 1.0)
    return {
        "method": "monte_carlo",
        "mu_trials": trials,
        "pi_trials": span,
        "mu_gc": amb_bad / trials,
        "mu_gc_ci": (mu_lo, mu_hi),
        "pi_gc": span_bad / span if span else float("nan"),
        "pi_gc_ci": (pi_lo, pi_hi),
    }


# ---------------------------------------------------------------------------
# burn-in occupancy


def burnin_occupancy(
    walk,
    spec: GoodSetSpec,
    t_grid: Sequence[int],
    trials: int,
    seed: int,
    start=None,
) -> dict:
    """Estimated P(X_t not in G) on a time grid, with Wilson 99% intervals.

    ``spec`` must be the walk's good set (_good_set_of) at any level
    beta0; the walk's laziness is honoured, and ``start`` is in the form
    its batch takes.  Default starts are the worst-case-style states: the
    basis-rows tuple (a weight-one vector at k = 1) or the canonical tuple.
    """
    grid = sorted(set(int(t) for t in t_grid))
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    good = _good_set_of(walk)
    if good is None:
        raise ConfigError("occupancy tracking uses the sign statistic, so p = 2")
    if spec.kind != good.kind or replace(spec, beta0=good.beta0) != good:
        raise ConfigError("good-set spec does not match the walk")
    failures: dict[int, int] = {}

    def stat(t: int, cells: np.ndarray) -> None:
        failures[t] = int((~_good_mask_of_table(_functional_table(cells, spec), spec)).sum())

    walk.batch(trials, grid, seed, stat, start)
    times = np.array(grid, dtype=np.int64)
    fail_counts = np.array([failures[t] for t in grid], dtype=np.int64)
    ci = np.array([wilson_interval(int(c), trials) for c in fail_counts]).reshape(-1, 2)
    return {
        "times": times,
        "failure": fail_counts / trials,
        "failure_counts": fail_counts,
        "ci_low": ci[:, 0],
        "ci_high": ci[:, 1],
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# total variation: exact values, mixing times, lower bounds


def _weights_of(dist, size: int | None = None) -> np.ndarray:
    """A weight vector as floats; None is the uniform law on `size` states."""
    if dist is None:
        if size is None:
            raise ValueError("need a size to build the uniform law")
        return np.full(size, 1.0 / size)
    w = np.asarray(dist, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch(f"distribution must be a vector, got shape {w.shape}")
    if size is not None and w.size != size:
        raise DimensionMismatch(f"distribution has {w.size} states, expected {size}")
    return w


def tv_exact(d1, d2) -> float:
    """Total variation distance between two probability vectors."""
    a = _weights_of(d1)
    b = _weights_of(d2, a.size)
    for name, w in (("first", a), ("second", b)):
        if (w < -1e-12).any() or abs(w.sum() - 1.0) > 1e-8:
            raise ConfigError(f"{name} argument is not a probability vector")
    return 0.5 * float(np.abs(a - b).sum())


def _operator_of(kernel):
    """A square float kernel: a scipy.sparse one as CSR, anything else as an
    ndarray."""
    mat = csr_matrix(kernel, dtype=float) if issparse(kernel) else np.asarray(kernel, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"kernel must be square, got shape {mat.shape}")
    return mat


def _matrix_of(kernel) -> np.ndarray:
    """_operator_of's kernel as a dense ndarray."""
    mat = _operator_of(kernel)
    return mat.toarray() if issparse(mat) else mat


def _refuse_reducible(P, epsilon: float) -> None:
    """Raise ConfigError when some closed class keeps worst-start TV above
    epsilon: no budget lifts it.

    A weak component C of the kernel's nonzero pattern (P dense or CSR) has
    no edge leaving it, so a walk started in C stays there and
    TV(P^t(x, .), pi) >= 1 - pi(C) for every t, pi uniform.
    """
    count, labels = _weak_components(P if issparse(P) else csr_matrix(P))
    if count == 1:
        return
    M = labels.size
    floor = 1.0 - float(np.bincount(labels, weights=np.full(M, 1.0 / M)).min())
    if floor > epsilon:
        sizes = np.sort(np.bincount(labels))[::-1].tolist()
        shown = ", ".join(map(str, sizes[:10])) + (", ..." if count > 10 else "")
        raise ConfigError(
            f"kernel is reducible ({count} closed classes of sizes {shown}): "
            f"worst-start TV never drops below {floor:.6g} > epsilon {epsilon}"
        )


def _powers(K, block, mode: str) -> Iterator[np.ndarray]:
    """block, block K, block K^2, ... in mode 'distribution' (rows are
    measures), or block, K block, K^2 block, ... in mode 'function'.  K is
    dense or CSR; a CSR kernel steps measures as the columns of B = K^T B with
    K^T built once (block @ K rebuilds it every step) and yields the views B.T."""
    yield block
    if mode == "distribution" and issparse(K):
        KT, B = csr_matrix(K.T), block.T
        while True:
            B = KT @ B
            yield B.T
    while True:
        block = K @ block if mode == "function" else block @ K
        yield block


def _nth(powers, n: int) -> np.ndarray:
    """The n-th array that a _powers generator yields."""
    return next(itertools.islice(powers, n, None))


def _start_laws(M: int, starts=None) -> np.ndarray:
    """Indicator rows of the tracked starts among M states (all of them when
    starts=None).  A block of more than DEFAULT_BLOCK_BUDGET entries is
    refused before allocation; with starts=None that is M <= 4096."""
    idx = np.arange(M) if starts is None else np.asarray(starts, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0 or idx.min() < 0 or idx.max() >= M:
        raise ConfigError(f"starts must be a nonempty list of state indices below {M}")
    check_budget(idx.size * M, DEFAULT_BLOCK_BUDGET, f"entries ({idx.size} starts x {M} states)",
                 "tracked block")
    laws = np.zeros((idx.size, M))
    laws[np.arange(idx.size), idx] = 1.0
    return laws


def _worst_tv_steps(P, laws: np.ndarray) -> Iterator[float]:
    """Worst TV(law P^t, uniform) over the rows of laws at t = 0, 1, 2, ...

    The rows advance by _powers: with P in CSR a step costs nnz(P) per row,
    not M^2.
    """
    M = P.shape[0]
    for block in _powers(P, laws, "distribution"):
        yield 0.5 * float(np.abs(block - 1.0 / M).sum(axis=1).max())


def _mixing_run(P, epsilon, laws, t_max=TV_STEP_CAP):
    """(tau, [worst TV at t = 0 .. tau], the live _worst_tv_steps iterator)
    for the operator P (as _operator_of returns it) from the rows of laws.

    The epsilon and reducibility checks run before any step.  The iterator
    continues at t = tau + 1, so _tv_at can extend the curve past tau
    without repeating a step.
    """
    if not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must lie in (0,1), got {epsilon}")
    _refuse_reducible(P, epsilon)
    steps = _worst_tv_steps(P, laws)
    curve = []
    for t, worst in zip(range(t_max + 1), steps):
        curve.append(worst)
        if worst <= epsilon:
            return t, curve, steps
    raise BudgetError(f"worst-start TV still above {epsilon} after {t_max} steps")


def _tv_at(t_grid: Sequence[int], steps: Iterator[float], curve: list) -> np.ndarray:
    """Worst TV at the sorted distinct grid times.  curve holds the values
    already drawn from steps (t = 0 .. len(curve) - 1) and is extended in
    place up to the largest grid time; one above TV_STEP_CAP is refused
    before any step."""
    grid = sorted(set(int(t) for t in t_grid))
    if grid and grid[0] < 0:
        raise ConfigError("grid times must be nonnegative")
    if not grid:
        return np.array([])
    check_budget(grid[-1], TV_STEP_CAP, "steps", "TV grid")
    curve.extend(next(steps) for _ in range(len(curve), grid[-1] + 1))
    return np.array([curve[t] for t in grid])


def mixing_time_exact(
    kernel,
    epsilon: float = 0.25,
    t_max: int = TV_STEP_CAP,
    starts=None,
) -> int:
    """Smallest t with worst-start TV(P^t(x, .), uniform) <= epsilon, exactly.

    The rows of P^t for the start indices ``starts`` (every state when
    None) are iterated and the worst row TV evaluated per step.  Passing
    one start per orbit of the kernel's automorphisms (see
    ``start_representatives`` on the walks) gives the same worst case from
    fewer rows; with starts=None the result is bitwise the all-starts one.
    The kernel may be dense or scipy.sparse (see _worst_tv_steps).  A
    kernel whose weak components keep some start farther than epsilon
    from pi for ever is refused with ConfigError before any product, and
    starts whose tracked rows exceed DEFAULT_BLOCK_BUDGET entries with
    BudgetError.
    """
    P = _operator_of(kernel)
    return _mixing_run(P, epsilon, _start_laws(P.shape[0], starts), t_max)[0]


def worst_tv_curve(kernel, t_grid: Sequence[int], starts=None) -> np.ndarray:
    """Worst-start exact TV from uniform at each grid time, by iterating the kernel.

    Only the rows of P^t for ``starts`` are tracked (every state when
    None, which is bitwise the all-starts curve); values are returned in
    sorted order of the distinct grid times.  The kernel may be dense or
    scipy.sparse; starts whose tracked rows exceed DEFAULT_BLOCK_BUDGET
    entries are refused with BudgetError, and so is a grid time above
    TV_STEP_CAP.
    """
    P = _operator_of(kernel)
    return _tv_at(t_grid, _worst_tv_steps(P, _start_laws(P.shape[0], starts)), [])


def tv_counting_lower(t: int, move_count: int, omega_size: int) -> float:
    """Support-counting lower bound max(0, 1 - M^t / |Omega|) on worst-start TV."""
    if t < 0:
        raise ConfigError(f"time must be nonnegative, got {t}")
    if move_count < 1 or omega_size < 1:
        raise ConfigError("move count and space size must be positive")
    # Reachable support after t steps has at most M^t states, each of
    # stationary mass 1/|Omega|; compare exactly in integers when feasible.
    if t * math.log(move_count) > math.log(omega_size) + 1.0:
        return 0.0
    reach = move_count**t
    if reach >= omega_size:
        return 0.0
    return 1.0 - reach / omega_size


# ---------------------------------------------------------------------------
# birth-death analysis of the support process


@dataclass(frozen=True)
class BDParams:
    """Parameters of the support-size birth-death chain on {1, ..., r}."""

    r: int
    p: int

    def __post_init__(self):
        check_prime(self.p)
        if self.r < 2:
            raise ConfigError(f"need tuple length r >= 2, got {self.r}")


def bd_probs(s: int, params: BDParams) -> tuple[float, float]:
    """One-step birth and death probabilities (B_s, D_s) at support size s.

    A birth needs a zero recipient, a nonzero donor, and a nonzero
    multiplier; a death needs the unique multiplier cancelling a nonzero
    recipient against a nonzero donor.
    """
    r, p = params.r, params.p
    if not 1 <= s <= r:
        raise ConfigError(f"support size {s} outside [1, {r}]")
    pairs = r * (r - 1)
    birth = (p - 1) / p * s * (r - s) / pairs
    death = s * (s - 1) / (p * pairs)
    return birth, death


def bd_rho(s: int, params: BDParams) -> float:
    """Ratio D_s / B_s = (s-1) / ((p-1)(r-s)), defined for 1 <= s < r."""
    if not 1 <= s < params.r:
        raise ConfigError(f"ratio needs 1 <= s < r, got s={s}, r={params.r}")
    return (s - 1) / ((params.p - 1) * (params.r - s))


def _bd_ladder(target: int, params: BDParams) -> list[float]:
    """[d_0, ..., d_{target-1}] of the one-step ladder d_k = 1/B_k + rho_k d_{k-1},
    with d_0 = 0 and the empty product equal to 1."""
    ladder = [0.0]
    for k in range(1, target):
        birth, _ = bd_probs(k, params)
        ladder.append(1.0 / birth + (bd_rho(k, params) * ladder[-1] if k > 1 else 0.0))
    return ladder


def _check_levels(s: int, target: int, r: int) -> None:
    if not 1 <= s <= r or not 1 <= target <= r:
        raise ConfigError(f"levels must lie in [1, {r}], got s={s}, target={target}")


def bd_hitting_time(s: int, target: int, params: BDParams) -> float:
    """Expected number of walk steps to first reach support size >= target:
    the ladder d_s + ... + d_{target-1} of _bd_ladder, added left to right
    from 0.0 (0 when s >= target)."""
    _check_levels(s, target, params.r)
    return functools.reduce(operator.add, _bd_ladder(target, params)[s:], 0.0)


def _bd_hitting_times(target: int, params: BDParams) -> list[float]:
    """bd_hitting_time(s, target, params) for s = 1, ..., target, bitwise,
    from one ladder."""
    _check_levels(1, target, params.r)
    ladder = _bd_ladder(target, params)
    return [functools.reduce(operator.add, ladder[s:], 0.0) for s in range(1, target + 1)]


def _bd_crossing_probs(A0: int, A1: int, params: BDParams) -> list[float]:
    """bd_crossing_prob(s, A0, A1, params) for s = A0, ..., A1, bitwise, from
    one array of the partial products 1, rho_{A0+1}, rho_{A0+1} rho_{A0+2},
    ... of levels A0, ..., A1 - 1."""
    if not 1 <= A0 < A1 <= params.r:
        raise ConfigError(f"need 1 <= A0 < A1 <= {params.r}, got A0={A0}, A1={A1}")
    prods = np.empty(A1 - A0, dtype=float)
    prods[0] = 1.0
    for idx, mlev in enumerate(range(A0 + 1, A1), start=1):
        prods[idx] = prods[idx - 1] * bd_rho(mlev, params)
    denom = float(prods.sum())
    return [float(prods[s - A0 :].sum()) / denom for s in range(A0, A1 + 1)]


def bd_crossing_prob(s: int, A0: int, A1: int, params: BDParams) -> float:
    """P_s(hit A0 before A1) for the support chain, A0 <= s <= A1.

    Standard ratio of partial products of rho_m (_bd_crossing_probs);
    identical for the walk and its embedded jump chain since holding does
    not reorder hits.
    """
    probs = _bd_crossing_probs(A0, A1, params)
    if not A0 <= s <= A1:
        raise ConfigError(f"start {s} outside [{A0}, {A1}]")
    return probs[s - A0]


def _bd_jump_tables(params: BDParams) -> tuple[np.ndarray, np.ndarray]:
    """Jump-chain tables indexed by support size s in [0, r].

    Returns the up-probabilities B_s / (B_s + D_s) and the log hold factors
    log1p(-(B_s + D_s)).  B_s + D_s > 0 for every 1 <= s <= r (r >= 2), so
    only the unreachable s = 0 entry is unset (up 0, log 0).
    """
    up = np.zeros(params.r + 1)
    log_hold = np.zeros(params.r + 1)
    for s in range(1, params.r + 1):
        birth, death = bd_probs(s, params)
        up[s] = birth / (birth + death)
        log_hold[s] = math.log1p(-(birth + death))
    return up, log_hold


def bd_hitting_mc(
    s: int,
    target: int,
    params: BDParams,
    trials: int,
    seed: int,
    max_steps: int | None = None,
) -> dict:
    """Monte Carlo mean walk steps from s to support >= target.

    Simulates the embedded jump chain and adds each jump's holding time to
    a per-trial clock.  Only the live trials are kept, as (state, clock,
    ids) arrays in id order; each iteration draws one ``rng.random((2, n))``
    block over the n live trials.  Row 0 gives the hold, Geometric(B_s +
    D_s) by inversion, ``1 + floor(log1p(-u) / log1p(-(B_s + D_s)))``
    (1 - u lies in (0, 1], so the log is finite); row 1 the direction, up
    when u < B_s / (B_s + D_s), down otherwise.  A trial leaves when it
    reaches ``target`` with its clock at most ``max_steps`` (its hitting
    time is the clock), or when its clock passes ``max_steps`` (unfinished),
    the same events as stepping the walk one step at a time.  Every
    iteration adds at least 1 to each live clock, so the loop ends within
    ``max_steps + 1`` iterations.
    """
    if not 1 <= s <= params.r or not 1 <= target <= params.r:
        raise ConfigError("levels out of range")
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if s >= target:
        return {"mean": 0.0, "sem": 0.0, "trials": trials, "unfinished": 0}
    up, log_hold = _bd_jump_tables(params)
    if max_steps is None:
        max_steps = int(200 * params.r * math.log(params.r) * params.p) + 1000
    rng = philox_generator(seed)
    state = np.full(trials, s, dtype=np.int64)
    clock = np.zeros(trials, dtype=np.int64)
    ids = np.arange(trials)
    hit_time = np.zeros(trials, dtype=np.int64)
    unfinished = 0
    while ids.size:
        u = rng.random((2, ids.size))
        # the ratio is >= 0, so truncation is the floor
        clock += 1 + (np.log1p(-u[0]) / log_hold[state]).astype(np.int64)
        state += 2 * (u[1] < up[state]) - 1
        late = clock > max_steps
        reached = (state >= target) & ~late
        done = reached | late
        if done.any():
            hit_time[ids[reached]] = clock[reached]
            unfinished += int(late.sum())
            keep = ~done
            state, clock, ids = state[keep], clock[keep], ids[keep]
    times = hit_time[hit_time > 0].astype(float)
    mean = float(times.mean()) if times.size else float("nan")
    sem = float(times.std(ddof=1) / math.sqrt(times.size)) if times.size > 1 else float("nan")
    return {"mean": mean, "sem": sem, "trials": trials, "unfinished": unfinished}


def embedded_crossing_mc(
    s: int,
    A0: int,
    A1: int,
    params: BDParams,
    trials: int,
    seed: int,
    max_jumps: int = 1_000_000,
) -> dict:
    """Monte Carlo estimate of P_s(hit A0 before A1) for the jump chain.

    Holding steps are skipped: at each jump the chain moves up with
    probability B_s/(B_s + D_s), down otherwise.  Only the states of the
    unfinished trials are kept, in trial order.
    """
    if not 1 <= A0 < A1 <= params.r:
        raise ConfigError("bad levels")
    if not A0 <= s <= A1:
        raise ConfigError(f"start {s} outside [{A0}, {A1}]")
    if trials < 1:
        raise ConfigError(f"need at least one trial, got {trials}")
    if s == A0:
        return {"estimate": 1.0, "hits": trials, "trials": trials}
    if s == A1:
        return {"estimate": 0.0, "hits": 0, "trials": trials}
    up, _ = _bd_jump_tables(params)
    rng = philox_generator(seed)
    state = np.full(trials, s, dtype=np.int64)
    hits = 0
    for _ in range(max_jumps):
        if state.size == 0:
            break
        u = rng.random(state.size)
        state += 2 * (u < up[state]) - 1
        done = (state == A0) | (state == A1)
        if done.any():
            hits += int((state[done] == A0).sum())
            state = state[~done]
    if state.size:
        raise InvariantError("embedded crossing simulation did not finish")
    return {"estimate": hits / trials, "hits": hits, "trials": trials}


_TALLY_CELLS = 1 << 16  # supports that support_transition_frequencies records before it tallies them


def support_transition_frequencies(
    r: int,
    p: int,
    steps: int,
    seed: int,
    chains: int = 16,
) -> dict:
    """Empirical one-step support transitions of the one-column p-ary walk.

    Runs ``chains`` trajectories of ``one_column_batch`` (stream 0 of
    ``seed``) from a weight-one start for a combined ``steps`` walk steps,
    tallying (support size, move) pairs where the move is a death, hold, or
    birth.  Returns the (r+1, 3) count table, per-size visit counts, and the
    empirical birth/death frequencies.
    """
    check_prime(p)
    if r < 2 or steps < 1 or chains < 1:
        raise ConfigError("need r >= 2, steps >= 1, chains >= 1")
    per_chain = (steps + chains - 1) // chains
    counts = np.zeros(3 * (r + 1), dtype=np.int64)  # (support, move) flattened
    history = [np.ones(chains, dtype=np.int64)]  # the engine's weight-one start

    def tally() -> None:
        # all recorded steps at once; the last stays as the next step's predecessor
        supp = np.stack(history)
        prev, now = supp[:-1], supp[1:]
        counts[:] += np.bincount((3 * prev + (now - prev + 1)).ravel(), minlength=counts.size)
        history[:] = history[-1:]

    def record(t: int, y: np.ndarray) -> None:
        history.append(np.count_nonzero(y, axis=1))
        if len(history) * chains >= _TALLY_CELLS:
            tally()

    # over F_2 the engine always adds the donor; a coin of 1/2 makes the
    # multiplier uniform on F_2, the chain of bd_probs
    one_column_batch(r, p, chains, range(1, per_chain + 1), seed, record,
                     laziness=0.5 if p == 2 else 0.0)
    tally()
    counts = counts.reshape(r + 1, 3)
    visits = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        death_hat = np.where(visits > 0, counts[:, 0] / visits, np.nan)
        birth_hat = np.where(visits > 0, counts[:, 2] / visits, np.nan)
    return {
        "counts": counts,
        "visits": visits,
        "birth_hat": birth_hat,
        "death_hat": death_hat,
        "steps": int(per_chain) * chains,
    }


# ---------------------------------------------------------------------------
# rate functions and constant selection


def rate_I(p: int, beta: float) -> float:
    """Upper-tail rate beta log(beta p) + (1-beta) log((1-beta) p / (p-1)).

    Defined on [1/p, 1]; vanishes at the mean 1/p and rises to log p.
    """
    check_prime(p)
    if not 1.0 / p <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [1/{p}, 1], got {beta}")
    first = beta * math.log(beta * p) if beta > 0 else 0.0
    second = (1 - beta) * math.log((1 - beta) * p / (p - 1)) if beta < 1 else 0.0
    return first + second


def rate_J(p: int, a: float, b: float) -> float:
    """Integral of log((p-1)(1-u)/u) over [a, b], in closed form: the
    antiderivative is u log(p-1) - u log u - (1-u) log(1-u)."""
    check_prime(p)
    upper = (p - 1) / p
    if not 0.0 < a <= b <= upper:
        raise ConfigError(f"need 0 < a <= b <= {upper}, got a={a}, b={b}")

    def antiderivative(u: float) -> float:
        return u * math.log(p - 1) - u * math.log(u) - (1.0 - u) * math.log1p(-u)

    return antiderivative(b) - antiderivative(a)


@dataclass(frozen=True)
class RateConstants:
    """Deterministically selected constants for the kernel-count analysis."""

    p: int
    epsilon: float
    beta0: float
    beta1: float
    alpha0: float
    alpha_star: float
    alpha1: float
    eta0: float
    I_beta0: float
    J_alpha: float


def select_constants(p: int, epsilon: float) -> RateConstants:
    """Pick (beta0, beta1, alpha0, alpha1, eta0) for a given tail exponent.

    beta0 is the smallest grid multiple of 1e-3 in (1/p, 1) whose rate
    exceeds epsilon*log p by at least 1e-6; beta1 = (1 + beta0)/2 and
    alpha0 = 1 - beta0.  alpha1 is then bisected so the area J(alpha0,
    alpha1) sits halfway between epsilon*log p and its maximum J(alpha0,
    alpha_star), and eta0 = (J - epsilon*log p)/3, making the slack
    identity hold with equality.
    """
    check_prime(p)
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in (0,1), got {epsilon}")
    target = epsilon * math.log(p)
    beta0 = None
    for i in range(int(1000 / p) + 1, 1000):
        beta = i / 1000.0
        if beta <= 1.0 / p:
            continue
        if rate_I(p, beta) > target + 1e-6:
            beta0 = beta
            break
    if beta0 is None:
        raise ConfigError(f"no feasible beta0 on the grid for p={p}, epsilon={epsilon}")
    beta1 = 0.5 * (1.0 + beta0)
    alpha0 = 1.0 - beta0
    alpha_star = (p - 1) / p
    j_full = rate_J(p, alpha0, alpha_star)
    if j_full <= target:
        raise ConfigError("selected beta0 leaves no slack for alpha1")
    j_target = target + 0.5 * (j_full - target)
    lo, hi = alpha0, alpha_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if rate_J(p, alpha0, mid) < j_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    alpha1 = 0.5 * (lo + hi)
    j_alpha = rate_J(p, alpha0, alpha1)
    eta0 = (j_alpha - target) / 3.0
    if eta0 <= 0:
        raise InvariantError("constant selection produced nonpositive slack")
    return RateConstants(
        p=p,
        epsilon=epsilon,
        beta0=beta0,
        beta1=beta1,
        alpha0=alpha0,
        alpha_star=alpha_star,
        alpha1=alpha1,
        eta0=eta0,
        I_beta0=rate_I(p, beta0),
        J_alpha=j_alpha,
    )


def support_growth_mean_check(
    p: int,
    alpha: float,
    r_grid: Sequence[int] = (16, 32, 64, 128),
    trials: int = 2000,
    seed: int = 0,
) -> dict:
    """Monte Carlo growth check of mean support hitting times from s = 1.

    For each r, measures the mean walk steps to reach support >= ceil(alpha
    r), compares with the exact ladder formula, and fits the growth
    exponent of the means against r log r.
    """
    check_prime(p)
    if not 0.0 < alpha < (p - 1) / p:
        raise ConfigError(f"alpha must lie in (0, {(p - 1) / p}), got {alpha}")
    means, sems, formulas, targets, ratios = [], [], [], [], []
    for ri, r in enumerate(r_grid):
        params = BDParams(r=int(r), p=p)
        tgt = max(1, math.ceil(alpha * r))
        targets.append(tgt)
        formulas.append(bd_hitting_time(1, tgt, params))
        if tgt <= 1:
            means.append(0.0)
            sems.append(0.0)
            ratios.append(0.0)
            continue
        res = bd_hitting_mc(1, tgt, params, trials, seed + ri)
        if res["unfinished"]:
            raise InvariantError(f"{res['unfinished']} runs unfinished at r={r}")
        means.append(res["mean"])
        sems.append(res["sem"])
        ratios.append(res["mean"] / (r * math.log(r)))
    pos = [(r, mu) for r, mu in zip(r_grid, means) if mu > 0]
    if len(pos) >= 2:
        xs = np.log([r * math.log(r) for r, _ in pos])
        ys = np.log([mu for _, mu in pos])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = float("nan")
    return {
        "p": p,
        "alpha": alpha,
        "r_grid": list(r_grid),
        "targets": targets,
        "means": means,
        "sems": sems,
        "formula": formulas,
        "ratios": ratios,
        "fitted_exponent": exponent,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# fibre scans and balanced frozen-tuple sampling


def good_fibre_gap_scan(n: int, k: int) -> dict:
    """Exact spectral gap of every fibre kernel meeting the good set.

    A fibre is determined by the multiset of row values frozen in the other
    n-1 coordinates, so the scan enumerates value compositions rather than
    states, refusing with BudgetError before any work when their table
    would hold more than DEFAULT_CLASS_BUDGET entries.  A fibre meets the
    good set when adding some row value back produces a balanced full
    state.  Fibre kernels are convolution kernels on F_2^k, so their
    eigenvalues are exactly the sign sums of the frozen composition divided
    by n-1; the gap needs no dense eigensolve.
    """
    if n < 2 or k < 1:
        raise ConfigError("need n >= 2 and k >= 1")
    C = _compositions(n - 1, 1 << k, DEFAULT_CLASS_BUDGET)
    sgn = _value_table(transvection_good_set(n, k))  # [w, xi - 1] = (-1)^{xi . w}
    S = C @ sgn  # sign sums of the frozen rows
    # adding row value w back gives sign sums S + sgn[w]
    meets = np.logical_or.reduce([(4 * np.abs(S + row) <= n).all(axis=1) for row in sgn])
    gap = 1.0 - S.max(axis=1) / (n - 1)
    good_arr, bad_arr = gap[meets], gap[~meets]
    return {
        "n": n,
        "k": k,
        "fibre_count": len(C),
        "good_fibre_count": len(good_arr),
        "min_good_gap": float(good_arr.min()) if good_arr.size else float("nan"),
        "min_bad_gap": float(bad_arr.min()) if bad_arr.size else float("nan"),
        "good_gaps": good_arr,
        "bad_gaps": bad_arr,
    }


def hyperplane_gap_floor(p: int, beta: float) -> float:
    """Uniform fibre-gap floor min(1-beta, ((1-beta)^2/2)(1-p^{-1/2}))."""
    check_prime(p)
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0,1), got {beta}")
    return min(1.0 - beta, 0.5 * (1.0 - beta) ** 2 * (1.0 - p**-0.5))


def unbalanced_reason(r: int, p: int, m: int, beta: float) -> str | None:
    """Why no frozen (r-1)-tuple over H(p, m) is balanced at beta, or None
    when some can be: any min(r-1, 2m-1) vectors of F_p^{2m} lie in one
    hyperplane ker xi, so that many frozen parts must fit under beta*(r-1).
    Refuses p, m, r or beta outside the sampler's range with ConfigError."""
    check_prime(p)
    if p == 2 or m < 1 or r < 2:
        raise ConfigError("need odd p, m >= 1, r >= 2")
    if not 1.0 / p <= beta < 1.0:
        raise ConfigError(f"balance level beta={beta} must lie in [1/p, 1)")
    crowded = min(r - 1, 2 * m - 1)
    if crowded <= _kernel_count_threshold(heisenberg_good_set(r - 1, p, m, beta)):
        return None
    return (f"no tuple is balanced at beta={beta} for r={r}: any {crowded} frozen "
            f"horizontal parts lie in one hyperplane, above beta*(r-1) = {beta * (r - 1):g}")


def sample_balanced_frozen_tuples(
    r: int,
    p: int,
    m: int,
    beta: float,
    count: int,
    seed: int,
    max_draws: int = 10_000_000,
) -> dict:
    """Rejection-sample frozen (r-1)-tuples whose horizontal law is balanced.

    The empirical measure of the horizontal parts must give every
    hyperplane ker xi mass at most beta: at most beta*(r-1) frozen parts in
    any kernel (the zero vector lies in every one), tested on value counts.
    A level for which unbalanced_reason gives a reason is refused with
    ConfigError, and batches of max(1024, 4*count) tuples over
    DEFAULT_STATE_BUDGET drawn entries with BudgetError, both before any
    draw.  Returns horizontal parts (count, R, 2m), central parts
    (count, R), the acceptance rate and the draws.
    """
    unreachable = unbalanced_reason(r, p, m, beta)
    if count < 1:
        raise ConfigError(f"need at least one tuple, got count={count}")
    if unreachable:
        raise ConfigError(unreachable)
    R = r - 1
    h = 2 * m
    spec = heisenberg_good_set(R, p, m, beta)
    batch = max(1024, 4 * count)
    check_budget(batch * R * (h + 1), DEFAULT_STATE_BUDGET,
                 f"drawn entries ({batch} tuples x {R} coordinates x {h + 1} digits)", "state")
    rng = philox_generator(seed)
    kept_v, kept_z = [], []
    accepted = drawn = 0
    while accepted < count:
        if drawn >= max_draws:
            raise BudgetError(f"only {accepted}/{count} balanced tuples after {drawn} draws")
        V = rng.integers(0, p, size=(batch, R, h))
        Z = rng.integers(0, p, size=(batch, R))
        drawn += batch
        ok = good_mask_horizontal(V, spec)
        idx = np.flatnonzero(ok)
        if idx.size:
            kept_v.append(V[idx])
            kept_z.append(Z[idx])
            accepted += idx.size
    return {
        "V": np.concatenate(kept_v)[:count],
        "Z": np.concatenate(kept_z)[:count],
        "acceptance": accepted / drawn,
        "draws": drawn,
    }


# ---------------------------------------------------------------------------
# Monte Carlo TV curve for the large one-column walk


def mc_tv_curve_one_column(
    r: int,
    trials: int,
    t_grid: Sequence[int],
    seed: int,
    laziness: float = 0.0,
) -> dict:
    """Plug-in TV curve of the weight statistic for the mod-2 walk, and its exact value.

    The empirical weight histogram at each grid time is compared with the
    exact stationary weight law C(r, w)/(2^r - 1).  The exact weight TV is
    a lower bound on the state-space TV, because the weight is a projection
    of the state.  This plug-in estimate is not a lower bound: sampling
    noise biases it upward.  At stationarity its mean is about
    (1/2) sqrt(2/pi) sum_w sd_w with sd_w = sqrt(pi_w (1 - pi_w) / trials),
    of order r^(1/4) / sqrt(trials): 0.017 at r = 64 with 10^4 trials.
    ``tv_exact`` is the weight TV it estimates, from the lumped weight chain
    started at weight 1: w -> w + 1 with probability (1-q) w (r-w) / (r(r-1))
    and w -> w - 1 with (1-q) w (w-1) / (r(r-1)), q the laziness.
    Returns both curves and the linearly interpolated first crossing of 1/4
    by the plug-in curve.
    """
    if r < 2 or trials < 1:
        raise ConfigError("need r >= 2 and at least one trial")
    if r >= 1024:
        raise ConfigError(f"r = {r}: the weight law C(r, w)/(2^r - 1) overflows a float for r >= 1024")
    denom = float(2**r - 1)
    pi_w = np.array([math.comb(r, w) / denom for w in range(r + 1)])
    pi_w[0] = 0.0
    grid = sorted(set(int(t) for t in t_grid))
    tv = {}

    def stat(t: int, y: np.ndarray) -> None:
        weights = y.sum(axis=1, dtype=np.int64)
        hist = np.bincount(weights, minlength=r + 1)
        tv[t] = 0.5 * float(np.abs(hist / trials - pi_w).sum())

    one_column_batch(r, 2, trials, grid, seed, stat, laziness=laziness)
    w = np.arange(r + 1)
    birth = (1.0 - laziness) * w * (r - w) / (r * (r - 1))
    death = (1.0 - laziness) * w * (w - 1) / (r * (r - 1))
    K = diags([birth[:-1], 1.0 - birth - death, death[1:]], [1, 0, -1], format="csr")
    laws = _powers(K, np.eye(1, r + 1, 1)[0], "distribution")
    # _nth skips to each grid time in turn, so every law is drawn once
    tv_exact = [0.5 * float(np.abs(_nth(laws, now - previous - 1) - pi_w).sum())
                for previous, now in zip([-1] + grid, grid)]
    times = np.array(grid, dtype=np.int64)
    curve = np.array([tv[t] for t in grid])
    crossing = float("nan")
    for idx in range(len(grid)):
        if curve[idx] <= 0.25:
            if idx == 0:
                crossing = float(times[0])
            else:
                t0, t1 = times[idx - 1], times[idx]
                v0, v1 = curve[idx - 1], curve[idx]
                frac = (v0 - 0.25) / (v0 - v1) if v0 > v1 else 1.0
                crossing = float(t0 + frac * (t1 - t0))
            break
    return {
        "times": times,
        "tv": curve,
        "tv_exact": np.array(tv_exact),
        "crossing": crossing,
        "trials": trials,
    }
