"""Reference values and output checks for the benchmark's jobs.

Every check runs outside the timed region and raises ``OracleError`` when a
job's output disagrees with an independent computation.  Where a reference
is reimplemented here (kernels, composition counts, lumped chains, fibre
kernels) it deliberately shares no code with ``groupwalks``; where the
reference is a closed-form library function (``bd_hitting_time``,
``bd_probs``, ``bd_crossing_prob``, ``fibre_eigenvalues_tr``) the check says
so.  Monte Carlo outputs are compared at five standard deviations, so a
correct program fails a check with probability below 1e-6 per comparison.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from functools import lru_cache

import numpy as np
from scipy import linalg as sla
from scipy import stats

Z = 5.0  # Monte Carlo tolerance in standard deviations


class OracleError(AssertionError):
    """A job's output disagrees with its reference."""


def require(cond, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def close(a, b, tol: float, what: str) -> None:
    require(abs(float(a) - float(b)) <= tol, f"{what}: got {a}, expected {b} (tol {tol:g})")


def read_json_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["report"]


def binomial_ok(count: int, trials: int, p: float, what: str) -> None:
    """count ~ Binomial(trials, p) at Z sigma, with a one-event floor."""
    mean = trials * p
    sd = math.sqrt(max(trials * p * (1.0 - p), 1.0))
    require(abs(count - mean) <= Z * sd + 1.0,
            f"{what}: {count}/{trials} events, expected {p:.6g} per trial")


# ---------------------------------------------------------------------------
# state counts


def stiefel_count(n: int, k: int) -> int:
    """|Stief(n, k)| = prod_{q<k} (2^n - 2^q): spanning n-tuples of F_2^k."""
    out = 1
    for q in range(k):
        out *= (1 << n) - (1 << q)
    return out


def one_column_count(r: int, p: int) -> int:
    return p**r - 1


# ---------------------------------------------------------------------------
# independent dense kernels (pure Python move loops, dict-indexed states)


def _rank_f2(rows) -> int:
    basis = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def _rank_modp(vectors, p: int) -> int:
    mat = [list(v) for v in vectors]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def base_kernel(walk: str, a: int, b: int) -> np.ndarray:
    """Non-lazy kernel of Stief(a, b) (walk 'transvection', n=a, k=b) or of
    F_b^a minus 0 (walk 'one-column', r=a, p=b), built from the move rules."""
    if walk == "transvection":
        n, k = a, b
        states = [t for t in itertools.product(range(1 << k), repeat=n) if _rank_f2(t) == k]
        moves = [(i, j) for i in range(n) for j in range(n) if i != j]

        def step(s, mv):
            i, j = mv
            t = list(s)
            t[j] ^= t[i]
            return tuple(t)
    elif walk == "one-column":
        r, p = a, b
        states = [t for t in itertools.product(range(p), repeat=r) if any(t)]
        if p == 2:
            moves = [(i, j, 1) for i in range(r) for j in range(r) if i != j]
        else:
            moves = [(i, j, c) for i in range(r) for j in range(r) if i != j for c in range(p)]

        def step(s, mv):
            i, j, c = mv
            t = list(s)
            t[i] = (t[i] + c * t[j]) % p
            return tuple(t)
    else:
        raise ValueError(walk)
    index = {s: x for x, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    w = 1.0 / len(moves)
    for x, s in enumerate(states):
        for mv in moves:
            P[x, index[step(s, mv)]] += w
    check_kernel(P, "reference kernel")
    return P


def check_kernel(P: np.ndarray, what: str, tol: float = 1e-12) -> None:
    """Row sums 1 and symmetry (every walk here is symmetric for uniform pi)."""
    P = np.asarray(P)
    require(P.ndim == 2 and P.shape[0] == P.shape[1], f"{what}: kernel is not square")
    require(float(P.min()) >= -tol, f"{what}: negative kernel entry")
    require(float(np.abs(P.sum(axis=1) - 1.0).max()) <= 1e-9, f"{what}: row sums differ from 1")
    require(float(np.abs(P - P.T).max()) <= tol, f"{what}: kernel is not symmetric")


@lru_cache(maxsize=None)
def base_eigenvalues(walk: str, a: int, b: int) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(base_kernel(walk, a, b)))[::-1]


def lazy_eigenvalues(walk: str, a: int, b: int, q: float) -> np.ndarray:
    return q + (1.0 - q) * base_eigenvalues(walk, a, b)


def state_count(walk: str, a: int, b: int) -> int:
    return stiefel_count(a, b) if walk == "transvection" else one_column_count(a, b)


def check_spectrum(rep: dict, walk: str, a: int, b: int, q: float) -> None:
    M = state_count(walk, a, b)
    require(rep["states"] == M, f"states {rep['states']} != formula {M}")
    evs = lazy_eigenvalues(walk, a, b, q)
    require(len(evs) == M, "reference kernel size differs from the count formula")
    top = np.array(rep["eigenvalues_top"])
    bottom = np.array(rep["eigenvalues_bottom"])
    require(np.allclose(top, evs[: top.size], rtol=0, atol=1e-9), "top eigenvalues differ")
    require(np.allclose(bottom, evs[-bottom.size:], rtol=0, atol=1e-9), "bottom eigenvalues differ")
    close(rep["spectral_gap"], min(max(1.0 - evs[1], 0.0), 2.0), 1e-9, "spectral gap")


def check_mixing(rep: dict, walk: str, a: int, b: int, q: float, eps: float) -> None:
    """Worst-start TV curve against spectral bounds (Levin-Peres-Wilmer 12.3):
    lam*^t / 2 <= d(t) <= sqrt(M-1) lam*^t / 2 for a symmetric kernel."""
    M = state_count(walk, a, b)
    require(rep["states"] == M, f"states {rep['states']} != formula {M}")
    tau = int(rep["mixing_time"])
    tv = np.array(rep["tv"], dtype=float)
    require(list(rep["times"]) == list(range(tau + 1)), "time grid is not 0..mixing_time")
    require(tv.size == tau + 1, "tv curve length differs from the time grid")
    require(tv[tau] <= eps, f"tv({tau}) = {tv[tau]} above epsilon {eps}")
    require(tau == 0 or tv[tau - 1] > eps, f"tv({tau - 1}) = {tv[tau - 1]} already below epsilon")
    close(tv[0], 1.0 - 1.0 / M, 1e-12, "tv at t=0")
    evs = lazy_eigenvalues(walk, a, b, q)
    lam = float(np.abs(evs[1:]).max())
    t = np.arange(tau + 1)
    lower = 0.5 * lam**t
    upper = 0.5 * math.sqrt(M - 1) * lam**t
    require(bool(np.all(tv >= lower - 1e-9)), "tv curve below the spectral lower bound")
    require(bool(np.all(tv <= np.minimum(upper, 1.0) + 1e-9)), "tv curve above the spectral upper bound")


# ---------------------------------------------------------------------------
# good sets by compositions (multinomial weights over row-value multisets)


def _compositions(total: int, parts: int):
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for b in bars:
            out.append(b - prev - 1)
            prev = b
        out.append(total + parts - 2 - prev)
        yield out


def _multinomial(counts) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


@lru_cache(maxsize=None)
def transvection_good_counts(n: int, k: int) -> tuple[int, int, int, int]:
    """(ambient, ambient_bad, spanning, spanning_bad) for the balanced set
    4|S_xi| <= n, S_xi = sum_j (-1)^{xi . z_j}, over all n-tuples of F_2^k."""
    W = 1 << k
    signs = [[-1 if bin(xi & w).count("1") % 2 else 1 for w in range(W)] for xi in range(W)]
    amb_bad = span = span_bad = 0
    for c in _compositions(n, W):
        weight = _multinomial(c)
        bad = any(4 * abs(sum(s * x for s, x in zip(signs[xi], c))) > n for xi in range(1, W))
        spanning = _rank_f2([w for w in range(W) if c[w]]) == k
        amb_bad += weight * bad
        span += weight * spanning
        span_bad += weight * (spanning and bad)
    return W**n, amb_bad, span, span_bad


@lru_cache(maxsize=None)
def heisenberg_good_counts(r: int, p: int, beta0: float) -> tuple[int, int, int, int]:
    """Same counts for H(p, 1) tuples, bad when some line through 0 of
    F_p^2 holds more than floor(beta0 r) horizontal parts.  Cells: the zero
    vector and the p+1 punctured lines (p-1 points each); central parts
    multiply every count by p^r."""
    limit = int(math.floor(beta0 * r + 1e-9))
    amb_bad = span = span_bad = 0
    for c in _compositions(r, p + 2):
        weight = _multinomial(c) * (p - 1) ** (r - c[0])
        bad = max(c[0] + x for x in c[1:]) > limit
        spanning = sum(1 for x in c[1:] if x) >= 2
        amb_bad += weight * bad
        span += weight * spanning
        span_bad += weight * (spanning and bad)
    central = p**r
    return p ** (2 * r) * central, amb_bad * central, span * central, span_bad * central


def check_good_measure_exact(res: dict, counts: tuple[int, int, int, int]) -> None:
    total, amb_bad, span, span_bad = counts
    got = (res["ambient_size"], res["mu_bad_count"], res["omega_size"], res["pi_bad_count"])
    require(got == (total, amb_bad, span, span_bad),
            f"exact counts {got} != composition counts {counts}")


def check_good_measure_mc(res: dict, counts: tuple[int, int, int, int]) -> None:
    total, amb_bad, span, span_bad = counts
    n_mu, n_pi = res["mu_trials"], res["pi_trials"]
    binomial_ok(round(res["mu_gc"] * n_mu), n_mu, amb_bad / total, "ambient bad mass")
    binomial_ok(round(res["pi_gc"] * n_pi), n_pi, span_bad / span, "stationary bad mass")
    binomial_ok(n_pi, n_mu, span / total, "spanning fraction")


# ---------------------------------------------------------------------------
# one-column walk over F_2: the weight is a lumpable birth-death chain


def weight_laws(r: int, times) -> dict[int, np.ndarray]:
    """Exact law of the weight |Y_t| from a weight-one start; a move (i, j)
    raises the weight w.p. w(r-w)/(r(r-1)) and lowers it w.p. w(w-1)/(r(r-1))."""
    w = np.arange(r + 1, dtype=float)
    up = w * (r - w) / (r * (r - 1))
    down = w * (w - 1) / (r * (r - 1))
    law = np.zeros(r + 1)
    law[1] = 1.0
    out = {}
    want = sorted(set(int(t) for t in times))
    t = 0
    for target in want:
        while t < target:
            nxt = law * (1.0 - up - down)
            nxt[1:] += (law * up)[:-1]
            nxt[:-1] += (law * down)[1:]
            law = nxt
            t += 1
        out[target] = law.copy()
    return out


def stationary_weight_law(r: int) -> np.ndarray:
    law = np.array([math.comb(r, w) for w in range(r + 1)], dtype=float)
    law[0] = 0.0
    return law / float(2**r - 1)


def oc_bad_weights(r: int) -> np.ndarray:
    w = np.arange(r + 1)
    return 4 * np.abs(r - 2 * w) > r


def oc_stationary_failure(r: int) -> float:
    """Exact stationary mass of the unbalanced set; 0.0327658 at r = 64."""
    bad = [w for w in range(1, r + 1) if 4 * abs(r - 2 * w) > r]
    return sum(math.comb(r, w) for w in bad) / (2**r - 1)


def check_burnin_one_column(res: dict, r: int, trials: int) -> None:
    times = [int(t) for t in res["times"]]
    laws = weight_laws(r, times)
    bad = oc_bad_weights(r)
    for t, count in zip(times, res["failure_counts"]):
        binomial_ok(int(count), trials, float(laws[t][bad].sum()), f"failures at t={t}")
    binomial_ok(int(res["failure_counts"][-1]), trials, oc_stationary_failure(r),
                f"failures at t={times[-1]} against the stationary mass")


def check_burnin_stationary(res: dict, trials: int, counts) -> None:
    """Every trial fails at t=0 (the default starts are unbalanced); the last
    grid time (past mixing) matches the exact stationary bad mass."""
    _, _, span, span_bad = counts
    require(int(res["failure_counts"][0]) == trials, "failures at t=0")
    binomial_ok(int(res["failure_counts"][-1]), trials, span_bad / span,
                f"failures at t={int(res['times'][-1])} against the stationary mass")


def check_mc_tv(rep: dict, r: int, trials: int) -> None:
    """Plug-in weight TV against the exact weight TV.  |tv_hat - tv| is at
    most D = sum_w |p_hat_w - p_w| / 2, with E D <= sum_w sd_w / 2 and
    McDiarmid tail exp(-2 N x^2) (x = 0.0284 * sqrt(10^4 / N) gives 1e-7)."""
    times = [int(t) for t in rep["times"]]
    laws = weight_laws(r, times)
    pi = stationary_weight_law(r)
    slack = math.sqrt(math.log(1e7) / (2 * trials))
    for t, tv_hat in zip(times, rep["tv"]):
        law = laws[t]
        exact = 0.5 * float(np.abs(law - pi).sum())
        bias = 0.5 * float(np.sqrt(law * (1 - law) / trials).sum())
        close(tv_hat, exact, bias + slack, f"weight TV at t={t}")
    require(rep["trials"] == trials, "trial count")


# ---------------------------------------------------------------------------
# birth-death support chain


def check_birthdeath(rep: dict, r: int, p: int) -> None:
    """Hitting times and crossing probabilities by first-step analysis,
    solved as linear systems: h_s = 1 + B_s h_{s+1} + D_s h_{s-1} +
    (1 - B_s - D_s) h_s with h_target = 0."""
    pairs = r * (r - 1)
    B = {s: (p - 1) / p * s * (r - s) / pairs for s in range(1, r + 1)}
    D = {s: s * (s - 1) / (p * pairs) for s in range(1, r + 1)}
    for row in rep["table"]:
        s = row["s"]
        close(row["birth"], B[s], 1e-12, f"birth prob at s={s}")
        close(row["death"], D[s], 1e-12, f"death prob at s={s}")
    target = rep["target"]
    n = target - 1
    if n > 0:
        A = np.zeros((n, n))
        rhs = np.ones(n)
        for s in range(1, target):
            i = s - 1
            A[i, i] = B[s] + D[s]
            if s + 1 < target:
                A[i, i + 1] = -B[s]
            if s > 1:
                A[i, i - 1] = -D[s]
        h = np.linalg.solve(A, rhs)
        got = {row["s"]: row["expected_steps"] for row in rep["hitting"]}
        for s in range(1, target):
            close(got[s], h[s - 1], 1e-7 * max(1.0, h[s - 1]), f"hitting time from s={s}")
    if "crossing" in rep:
        # u_s = P_s(hit A0 before A1): (B_s + D_s) u_s = B_s u_{s+1} + D_s u_{s-1}
        levels = [row["s"] for row in rep["crossing"]]
        a0, a1 = levels[0], levels[-1]
        n = a1 - a0 + 1
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        A[0, 0] = A[-1, -1] = 1.0
        rhs[0] = 1.0
        for s in range(a0 + 1, a1):
            i = s - a0
            A[i, i] = B[s] + D[s]
            A[i, i + 1] = -B[s]
            A[i, i - 1] = -D[s]
        u = np.linalg.solve(A, rhs)
        for row in rep["crossing"]:
            close(row["prob_down_first"], u[row["s"] - a0], 1e-9, f"crossing from s={row['s']}")


def check_bd_hitting(res: dict, exact: float) -> None:
    """Library reference: ``bd_hitting_time``."""
    require(res["unfinished"] == 0, "unfinished trajectories")
    close(res["mean"], exact, Z * res["sem"] + 1e-9, "mean hitting time")


def check_crossing(res: dict, exact: float) -> None:
    """Library reference: ``bd_crossing_prob``."""
    binomial_ok(res["hits"], res["trials"], exact, "crossing frequency")


def check_support_frequencies(res: dict, r: int, p: int, steps: int) -> None:
    """Library reference: ``bd_probs`` (via the closed forms in check_birthdeath)."""
    counts = np.asarray(res["counts"])
    require(int(counts.sum()) == res["steps"] >= steps, "transition tally differs from steps")
    pairs = r * (r - 1)
    for s in range(1, r + 1):
        visits = int(counts[s].sum())
        if visits == 0:
            continue
        b = (p - 1) / p * s * (r - s) / pairs
        d = s * (s - 1) / (p * pairs)
        binomial_ok(int(counts[s, 2]), visits, b, f"births at s={s}")
        binomial_ok(int(counts[s, 0]), visits, d, f"deaths at s={s}")
    require(int(counts[0].sum()) == 0, "support size 0 visited")


# ---------------------------------------------------------------------------
# fibre kernels


def transvection_fibre_table(n: int, k: int) -> dict:
    """Fibre gaps from ``fibre_eigenvalues_tr`` over every frozen multiset."""
    from groupwalks.spectral import fibre_eigenvalues_tr

    W = 1 << k

    def balanced(rows) -> bool:
        for xi in range(1, W):
            s = sum(-1 if bin(xi & z).count("1") % 2 else 1 for z in rows)
            if 4 * abs(s) > n:
                return False
        return True

    good, bad = [], []
    for frozen in itertools.combinations_with_replacement(range(W), n - 1):
        eig = fibre_eigenvalues_tr(0, list(frozen), k)
        gap = 1.0 - max(v for xi, v in eig.items() if xi)
        meets = any(balanced(frozen + (w,)) for w in range(W))
        (good if meets else bad).append(gap)
    return {
        "fibre_count": len(good) + len(bad),
        "good_fibre_count": len(good),
        "min_good_gap": min(good) if good else float("nan"),
        "min_bad_gap": min(bad) if bad else float("nan"),
    }


def check_fibre_scan(scan: dict, n: int, k: int) -> None:
    ref = transvection_fibre_table(n, k)
    require(scan["fibre_count"] == ref["fibre_count"], "fibre count")
    require(scan["good_fibre_count"] == ref["good_fibre_count"], "good fibre count")
    for key in ("min_good_gap", "min_bad_gap"):
        a, b = scan[key], ref[key]
        if b != b:
            require(a is None or a != a, f"{key} should be undefined")
        else:
            close(a, b, 1e-12, key)


def heisenberg_fibre_gap(V: np.ndarray, Zc: np.ndarray, p: int) -> float:
    """Gap of the fibre kernel of H(p, 1) for frozen elements (V[j], Zc[j]):
    average of x -> x g^a and x -> g^a x over frozen g and a in F_p, with
    (v, z)(w, t) = (v + w, z + t + (v0 w1 - v1 w0)/2)."""
    half = (p + 1) // 2
    g = np.array(list(itertools.product(range(p), repeat=3)))  # (v0, v1, z)
    code = lambda e: (e[:, 0] * p + e[:, 1]) * p + e[:, 2]  # noqa: E731
    size = p**3
    P = np.zeros((size, size))
    x = g
    for v, zc in zip(V, Zc):
        for a in range(p):
            y = np.array([(a * v[0]) % p, (a * v[1]) % p, (a * zc) % p])
            om = x[:, 0] * y[1] - x[:, 1] * y[0]
            right = np.column_stack([(x[:, 0] + y[0]) % p, (x[:, 1] + y[1]) % p,
                                     (x[:, 2] + y[2] + half * om) % p])
            left = np.column_stack([(x[:, 0] + y[0]) % p, (x[:, 1] + y[1]) % p,
                                    (x[:, 2] + y[2] - half * om) % p])
            src = code(x)
            np.add.at(P, (src, code(right)), 1.0)
            np.add.at(P, (src, code(left)), 1.0)
    P /= 2 * len(V) * p
    check_kernel(P, "reference fibre kernel")
    evs = np.sort(np.linalg.eigvalsh(P))[::-1]
    return min(max(1.0 - float(evs[1]), 0.0), 2.0)


def check_balanced_fibres(rep: dict, sample: dict, r: int, p: int, beta: float) -> None:
    """Recompute every sampled fibre's gap with the reference kernel; the
    minimum must match and respect the uniform floor."""
    block = rep["balanced_fibres"]
    V, Zc = sample["V"], sample["Z"]
    require(block["trials"] == len(V), "fibre trial count")
    lines = [(1, 0)] + [(c, 1) for c in range(p)]  # one normal vector per line
    limit = beta * (r - 1) + 1e-9
    for tup in V:
        for a0, a1 in lines:
            require(int(((tup[:, 0] * a0 + tup[:, 1] * a1) % p == 0).sum()) <= limit,
                    "sampled frozen tuple is not balanced")
    gaps = [heisenberg_fibre_gap(V[t], Zc[t], p) for t in range(len(V))]
    close(block["min_gap"], min(gaps), 1e-9, "minimum balanced fibre gap")
    floor = min(1.0 - beta, 0.5 * (1.0 - beta) ** 2 * (1.0 - p**-0.5))
    close(block["gap_floor"], floor, 1e-12, "gap floor")
    require(block["min_gap"] >= floor - 1e-12, "balanced fibre gap below the floor")
    close(block["acceptance"], sample["acceptance"], 0.0, "acceptance")


def check_repcheck(rep: dict, p: int) -> None:
    """m = 1: |H| = p^3, p - 1 representations of dimension p, and
    (p^2 - 1)(p^2 - p) p^2 ordered pairs with nonzero symplectic form."""
    require(rep["group_order"] == p**3 and rep["dimension_square_sum"] == p**3, "dimension count")
    blocks = rep["representations"]
    require(len(blocks) == p - 1, "representation count")
    for blk in blocks:
        require(blk["dimension"] == p, "representation dimension")
        for key in ("mult_residual", "unitarity_residual", "central_residual",
                    "projective_commutation_residual", "two_projection_worst_deviation"):
            require(blk[key] <= 1e-9, f"{key} = {blk[key]} at lambda={blk['lambda']}")
        require(blk["two_projection_pairs"] == (p * p - 1) * (p * p - p) * p * p, "pair count")
        close(blk["two_projection_target"], p**-0.5, 1e-15, "two-projection target")


# ---------------------------------------------------------------------------
# spectral machinery


def _entropy(rho, u) -> float:
    m = float(rho @ u)
    pos = u > 0
    return float((rho[pos] * u[pos]) @ np.log(u[pos])) - (m * math.log(m) if m > 0 else 0.0)


def check_lsi(est, K: np.ndarray, rho: np.ndarray) -> None:
    """The reported constant is the ratio Ent(f^2)/E(f, f) of its witness."""
    f = np.asarray(est.witness, dtype=float)
    ent = _entropy(rho, f * f)
    dirich = float((rho * f) @ (f - K @ f))
    require(dirich > 0 and est.value > 0, "nonpositive LSI witness")
    close(est.value, ent / dirich, 1e-6 * est.value, "LSI witness ratio")


def check_entropy_decay(rep: dict, K: np.ndarray, rho: np.ndarray, u0: np.ndarray,
                        t_grid, A: float) -> None:
    """Evolve u0 by expm(t (K - I)) instead of uniformization."""
    delta = float(rho @ (1.0 - K.sum(axis=1)))
    h0 = _entropy(rho, u0)
    m0 = float(rho @ u0)
    violations = 0
    for t, pt in zip(t_grid, rep["points"]):
        ut = sla.expm(t * (K - np.eye(K.shape[0]))) @ u0
        lhs = _entropy(rho, np.clip(ut, 0.0, None))
        decay = math.exp(-t / A)
        rhs = decay * h0 + A * delta * m0 * (1.0 - decay)
        close(pt["lhs"], lhs, 1e-8, f"entropy at t={t}")
        close(pt["rhs"], rhs, 1e-9 * max(1.0, abs(rhs)), f"decay bound at t={t}")
        violations += lhs - rhs > 1e-10
    require(rep["violations"] == violations, "violation count")


def check_pipeline(rep: dict, n: int, k: int) -> None:
    """Recompute the TV bound 2(eta + zeta) + sqrt(R/2) + pi(G^c) from its
    terms, with pi(G^c) from composition counts and zeta from scipy."""
    omega = stiefel_count(n, k)
    _, _, span, span_bad = transvection_good_counts(n, k)
    require(rep["omega_size"] == omega == span, "state count")
    pi_gc = span_bad / span
    close(rep["pi_good_complement"], pi_gc, 1e-12, "pi(G^c)")
    A = rep["zero_extension"]["A"]
    close(rep["A"], A, 0.0, "A")
    t_conf = 2.0 * A * math.log(math.e + math.log(omega))
    close(rep["t_conf"], t_conf, 1e-9 * t_conf, "t_conf")
    zeta = float(stats.poisson.sf(rep["L"], t_conf))
    close(rep["zeta"], zeta, 1e-12 + 1e-8 * zeta, "zeta")
    R = math.exp(-t_conf / A) * math.log(omega) + A * pi_gc / (1.0 - pi_gc)
    close(rep["R"], R, 1e-9 * R, "R")
    require(0.0 <= rep["eta"] <= 1.0, "eta outside [0, 1]")
    bound = 2.0 * (rep["eta"] + zeta) + math.sqrt(R / 2.0) + pi_gc
    close(rep["tv_bound"], bound, 1e-9 * bound, "tv bound")
    require(rep["exact_tv_at_bound_time"] <= rep["tv_bound"], "bound does not dominate")


# ---------------------------------------------------------------------------
# trajectories


def check_simulate_csv(path: str, walk: str, params: dict, steps: int, trials: int,
                       every: int) -> None:
    """Per-row consistency: recorded times, statistic ranges, and good-set
    membership recomputed from the recorded statistics."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    times = sorted(set(list(range(0, steps + 1, every)) + [steps]))
    require(len(body) == trials * len(times), f"{len(body)} rows, expected {trials * len(times)}")
    col = {name: i for i, name in enumerate(header)}
    for idx, row in enumerate(body):
        tid, t = int(row[0]), int(row[1])
        require(tid == idx // len(times) and t == times[idx % len(times)], "row order")
        vals = [int(x) for x in row[2:]]
        if walk == "one-column" and params["p"] == 2:
            r = params["r"]
            w, s = vals[col["weight"] - 2], vals[col["s_xi_1"] - 2]
            require(1 <= w <= r and s == r - 2 * w, "weight statistic")
            require(vals[-1] == int(4 * abs(s) <= r), "membership")
            require(t > 0 or w == 1, "start weight")
        elif walk == "one-column":
            require(1 <= vals[0] <= params["r"], "support size")
            require(t > 0 or vals[0] == 1, "start support")
        elif walk == "transvection":
            n, k = params["n"], params["k"]
            W = 1 << k
            S = [n] + vals[: W - 1]
            counts = []
            for w in range(W):
                acc = sum(S[xi] * (-1 if bin(xi & w).count("1") % 2 else 1) for xi in range(W))
                require(acc % W == 0, "character sums are not a row multiset")
                counts.append(acc // W)
            require(min(counts) >= 0 and sum(counts) == n, "row multiset")
            require(_rank_f2([w for w in range(W) if counts[w]]) == k, "rows do not span")
            require(vals[-1] == int(all(4 * abs(s) <= n for s in S[1:])), "membership")
        else:
            r, p = params["r"], params["p"]
            nf = p * p - 1
            n_xi, support, good = vals[:nf], vals[nf], vals[nf + 1]
            require(1 <= support <= r, "support size")
            require(all(r - support <= x < r for x in n_xi), "kernel counts")
            require(good == int(max(n_xi) <= int(math.floor(0.75 * r + 1e-9))), "membership")


def check_batch_states(states: dict, walk: str, params: dict) -> None:
    """Every recorded state stays in the state space."""
    for t, st in states.items():
        if walk == "one-column":
            y = st
            require(bool((y < params["p"]).all() and (y != 0).any(axis=1).all()),
                    f"zero or out-of-range state at t={t}")
        elif walk == "transvection":
            for z in st:
                require(_rank_f2([int(v) for v in z]) == params["k"], f"rank drop at t={t}")
        else:
            v, _ = st
            for tup in v:
                require(_rank_modp([list(map(int, x)) for x in tup], params["p"]) == 2,
                        f"tuple stops generating at t={t}")
