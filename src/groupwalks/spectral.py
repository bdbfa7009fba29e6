"""Dense spectral and entropy analysis for reversible finite kernels.

Everything here works on explicit matrices: spectral gaps and Poincaré
constants through the symmetrized form, Dirichlet forms as
``<f, (I-K)g>_rho`` (which for substochastic kernels includes the killing
term), the entropy functional ``H_rho(u) = rho[u log(u / rho(u))]``,
numeric log-Sobolev constants by multi-start projected gradient ascent
(certified lower bounds), killed kernels with their killing rates,
uniformized continuous-time semigroups, and the confinement pipeline that
assembles t_conf, zeta, R, eta into a total-variation bound

    || delta_x P^s e^{t_conf (P - I)} - pi ||_TV
        <= 2(eta + zeta) + sqrt(R/2) + pi(G^c).

Poisson tails are summed by stable upward recursion in log space because
confinement times can reach the hundreds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .chains import philox_generator
from .diagnostics import DEFAULT_FUNCTIONAL_BUDGET, _matrix_of, _weights_of
from .errors import BudgetError, ConfigError, ReversibilityError

__all__ = [
    "SYMMETRY_TOL",
    "DEFAULT_LSI_SIZE_CAP",
    "DenseOperator",
    "check_reversibility",
    "spectrum",
    "spectral_gap",
    "fibre_eigenvalues_tr",
    "dirichlet_form",
    "entropy",
    "variance",
    "poincare_constant",
    "gap_lsi_bound",
    "LsiEstimate",
    "lsi_estimate",
    "lsi_constant_numeric",
    "killed_kernel",
    "semigroup_evolve",
    "poisson_tail_gt",
    "poisson_cdf_lt",
    "entropy_decay_check",
    "subprob_tv_bound",
    "tv_signed",
    "PipelineReport",
    "pipeline_report",
    "exit_probability_exact",
    "worst_exit_probability",
    "path_comparison_check",
    "ambient_lsi_A_for_good_support",
    "tensorization_sides",
]

SYMMETRY_TOL = 1e-12
DEFAULT_LSI_SIZE_CAP = 64


class DenseOperator:
    """Immutable real dense kernel with a declared flavor.

    flavor 'stochastic' enforces row sums 1 (+-1e-12) and nonnegativity,
    'substochastic' enforces nonnegativity and row sums <= 1 + 1e-12.
    """

    def __init__(self, matrix, flavor: str = "stochastic", tol: float = 1e-12):
        mat = np.array(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if flavor not in ("stochastic", "substochastic"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if mat.min() < -tol:
            raise ValueError(f"negative entry {mat.min()} in a {flavor} kernel")
        sums = mat.sum(axis=1)
        if flavor == "stochastic" and np.abs(sums - 1.0).max() > tol:
            raise ValueError(f"row sums deviate from 1 by {np.abs(sums - 1.0).max():.3e}")
        if flavor == "substochastic" and sums.max() > 1.0 + tol:
            raise ValueError(f"row sum {sums.max()} exceeds 1 in substochastic kernel")
        mat.flags.writeable = False
        self.matrix = mat
        self.flavor = flavor

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DenseOperator({self.flavor}, size={self.size})"


def check_reversibility(op, stationary=None, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Return the symmetrized form D^{1/2} K D^{-1/2} of a reversible kernel.

    Asymmetry above `tol` raises ReversibilityError; smaller asymmetry is
    averaged away, which keeps eigensolvers on the self-adjoint path
    without masking construction bugs.
    """
    K = _matrix_of(op)
    rho = _weights_of(stationary, K.shape[0])
    if rho.min() <= 0:
        raise ValueError("the stationary law must be strictly positive")
    s = np.sqrt(rho)
    S = (s[:, None] * K) / s[None, :]
    asym = float(np.abs(S - S.T).max())
    if asym > tol:
        raise ReversibilityError(
            f"kernel is not reversible for the given law (asymmetry {asym:.3e})"
        )
    return (S + S.T) / 2.0


def spectrum(op, stationary=None) -> np.ndarray:
    """All eigenvalues of the self-adjoint form, sorted descending."""
    S = check_reversibility(op, stationary)
    return np.linalg.eigvalsh(S)[::-1]


def spectral_gap(op, stationary=None) -> float:
    """1 minus the second-largest (signed) eigenvalue; lies in [0, 2]."""
    evs = spectrum(op, stationary)
    if evs.shape[0] < 2:
        raise ValueError("the spectral gap needs at least two states")
    gap = 1.0 - float(evs[1])
    return min(max(gap, 0.0), 2.0)


def fibre_eigenvalues_tr(
    i: int, frozen: Sequence[int], k: int, budget: int = DEFAULT_FUNCTIONAL_BUDGET
) -> dict[int, float]:
    """Eigenvalues of the row fibre kernel at coordinate i, indexed by functional.

    The fibre kernel K_i(u, v) = c_{u xor v}/(n-1) is diagonalized by the
    characters of F_2^k, with eigenvalue at xi equal to the average of
    (-1)^{xi . z_j} over the frozen rows.  Keys are packed functional codes
    (bit b of the code is the coefficient of coordinate b).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    count = 1 << k
    if count > budget:
        raise BudgetError(f"2^{k} functionals exceed the budget {budget}")
    if not frozen:
        raise ValueError("need at least one frozen row")
    out: dict[int, float] = {}
    denom = len(frozen)
    for xi in range(count):
        acc = 0
        for z in frozen:
            acc += -1 if (xi & int(z)).bit_count() & 1 else 1
        out[xi] = acc / denom
    return out


def dirichlet_form(op, stationary, f, g=None) -> float:
    """<f, (I-K)g>_rho; includes the killing term for substochastic kernels."""
    K = _matrix_of(op)
    rho = _weights_of(stationary, K.shape[0])
    f = np.asarray(f, dtype=float)
    g = f if g is None else np.asarray(g, dtype=float)
    return float(np.dot(rho * f, g - K @ g))


def entropy(rho, u) -> float:
    """H_rho(u) = rho[u log(u / rho(u))] with the 0 log 0 = 0 convention."""
    r = _weights_of(rho)
    u = np.asarray(u, dtype=float)
    if u.min() < -1e-12:
        raise ValueError(f"entropy needs a nonnegative function, min {u.min()}")
    u = np.clip(u, 0.0, None)
    m = float(np.dot(r, u))
    if m <= 0.0:
        return 0.0
    pos = u > 0.0
    return float(np.dot(r[pos] * u[pos], np.log(u[pos]))) - m * math.log(m)


def variance(rho, f) -> float:
    r = _weights_of(rho)
    f = np.asarray(f, dtype=float)
    mean = float(np.dot(r, f))
    return float(np.dot(r, (f - mean) ** 2))


def poincare_constant(op, stationary=None) -> float:
    """1/gap; infinite when the gap vanishes (reducible or periodic mass)."""
    gap = spectral_gap(op, stationary)
    if gap < 1e-14:
        return math.inf
    return 1.0 / gap


def gap_lsi_bound(op, stationary=None, C: float = 4.0) -> float:
    """Gap-based LSI upper envelope C * C_P * log(1/rho_*).

    The universal constant in the gap-to-LSI comparison is not pinned down
    by theory; it defaults to 4 and every downstream check parametrizes on
    it.
    """
    K = _matrix_of(op)
    rho = _weights_of(stationary, K.shape[0])
    cp = poincare_constant(op, rho)
    return C * cp * math.log(1.0 / float(rho.min()))


@dataclass
class LsiEstimate:
    """Certified lower bound on the log-Sobolev constant with its witness."""

    value: float
    witness: np.ndarray
    dirichlet: float
    entropy: float


def _lsi_ratio(rho: np.ndarray, K: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entropy, Dirichlet value, and ratio for each row of F (batched).

    The entropy uses the centered form m * rho[(1+w) log1p(w)] with
    w = f^2/m - 1, which stays accurate for near-constant f where the
    naive difference of O(1) terms cancels catastrophically.  Ratios whose
    Dirichlet energy is below 1e-10 * ||f||^2 are reported as -inf: in that
    regime both sides are dominated by rounding noise, and the true ratio
    there is within O(1e-5) of the near-constant limit 2 C_P, which the
    tangent-family candidates capture explicitly.
    """
    F2 = F * F
    m = F2 @ rho
    safe_m = np.where(m > 0, m, 1.0)
    w = F2 / safe_m[:, None] - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > -1.0, (1.0 + w) * np.log1p(np.where(w > -1.0, w, 0.0)), 0.0)
    ent = m * (terms @ rho)
    resid = F - F @ K.T
    dirich = (F * resid) @ rho
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(dirich > 1e-8 * safe_m, ent / dirich, -np.inf)
    return ent, dirich, ratio


def lsi_estimate(
    op,
    stationary=None,
    restarts: int = 64,
    steps: int = 10_000,
    seed: int = 0,
    size_cap: int = DEFAULT_LSI_SIZE_CAP,
) -> LsiEstimate:
    """Numeric log-Sobolev constant sup_f Ent_rho(f^2)/E(f,f) (lower bound).

    Batched projected gradient ascent with per-restart backtracking step
    sizes, started from Gaussian seeds, near-indicator spikes, and the
    near-constant family 1 + t*(second eigenvector), whose ratios converge
    to 2*C_P.  Every reported value is the evaluated ratio of an explicit
    witness, so the result is a lower bound on the true supremum up to an
    evaluation noise floor of about 1e-7 set by the Dirichlet-energy guard.
    """
    K = _matrix_of(op)
    M = K.shape[0]
    if M > size_cap:
        raise BudgetError(f"space size {M} exceeds the optimizer cap {size_cap}")
    rho = _weights_of(stationary, M)
    S = check_reversibility(K, rho)
    # reducibility guard: a nonconstant function with zero Dirichlet energy
    evs, vecs = np.linalg.eigh(S)
    order = np.argsort(evs)[::-1]
    evs, vecs = evs[order], vecs[:, order]
    stochastic = bool(np.abs(K.sum(axis=1) - 1.0).max() <= 1e-9)
    if stochastic and M >= 2 and evs[1] > 1.0 - 1e-13:
        return LsiEstimate(math.inf, vecs[:, 1] / np.sqrt(rho), 0.0, math.inf)

    rng = philox_generator(seed, 0)
    n_spikes = min(M, max(4, restarts // 4))
    n_gauss = max(restarts - n_spikes, 1)
    F = rng.standard_normal((n_gauss, M))
    spikes = np.full((n_spikes, M), 0.05)
    for i in range(n_spikes):
        spikes[i, i % M] = 1.0
    F = np.vstack([F, spikes])
    norms = np.sqrt((F * F) @ rho)
    F = F / norms[:, None]

    ent, dirich, ratio = _lsi_ratio(rho, K, F)
    step = np.full(F.shape[0], 0.1)
    for _ in range(steps):
        F2 = F * F
        m = F2 @ rho
        safe = np.where(F2 > 0, F2, 1.0)
        gN = 2.0 * rho[None, :] * F * (np.log(safe) - np.log(m)[:, None])
        gD = 2.0 * rho[None, :] * (F - F @ K.T)
        grad = (gN * dirich[:, None] - ent[:, None] * gD) / np.maximum(
            dirich[:, None] ** 2, 1e-300
        )
        gnorm = np.sqrt((grad * grad).sum(axis=1))
        grad = grad / np.maximum(gnorm, 1e-300)[:, None]
        cand = F + step[:, None] * grad
        cand = cand / np.sqrt(np.maximum((cand * cand) @ rho, 1e-300))[:, None]
        c_ent, c_dir, c_ratio = _lsi_ratio(rho, K, cand)
        better = c_ratio > ratio
        F = np.where(better[:, None], cand, F)
        ent = np.where(better, c_ent, ent)
        dirich = np.where(better, c_dir, dirich)
        ratio = np.where(better, c_ratio, ratio)
        step = np.where(better, step * 1.2, step * 0.5)
        step = np.clip(step, 1e-14, 10.0)
        if step.max() <= 1e-13:
            break

    best = int(np.argmax(ratio))
    best_val, best_f = float(ratio[best]), F[best]
    best_ent, best_dir = float(ent[best]), float(dirich[best])
    if stochastic and M >= 2:
        # near-constant family along the second eigenfunction
        phi = vecs[:, 1] / np.sqrt(rho)
        for t in np.logspace(-3.5, 0, 22):
            f = 1.0 + t * phi
            e, d, r = _lsi_ratio(rho, K, f[None, :])
            if float(r[0]) > best_val:
                best_val, best_f = float(r[0]), f
                best_ent, best_dir = float(e[0]), float(d[0])
    return LsiEstimate(best_val, best_f, best_dir, best_ent)


def lsi_constant_numeric(op, stationary=None, **kw) -> float:
    """Float view of lsi_estimate (the certified lower-bound value)."""
    return lsi_estimate(op, stationary, **kw).value


def killed_kernel(op, good_mask, stationary=None) -> tuple[DenseOperator, float]:
    """Restriction of the kernel to G with killing; returns (K_G, delta_G).

    delta_G = pi_G(1 - K_G 1) is the average killing rate, which satisfies
    delta_G <= pi(G^c)/pi(G) by reversibility.
    """
    P = _matrix_of(op)
    mask = np.asarray(good_mask, dtype=bool)
    if mask.shape[0] != P.shape[0]:
        raise ValueError("mask size does not match the kernel")
    if not mask.any():
        raise ValueError("the retained set G must be nonempty")
    pi = _weights_of(stationary, P.shape[0])
    KG = P[np.ix_(mask, mask)]
    pi_g = pi[mask] / pi[mask].sum()
    delta = float(np.dot(pi_g, 1.0 - KG.sum(axis=1)))
    return DenseOperator(KG, flavor="substochastic"), delta


def _log_poisson_pmf(t: float, ks: np.ndarray) -> np.ndarray:
    return -t + ks * math.log(t) - gammaln(ks + 1) if t > 0 else np.where(ks == 0, 0.0, -np.inf)


def poisson_tail_gt(t: float, L: int) -> float:
    """P(Poi(t) > L) by upward log-space summation of the upper tail."""
    if t < 0:
        raise ValueError("the Poisson rate must be nonnegative")
    if L < 0:
        return 1.0
    if t == 0:
        return 0.0
    lo = L + 1
    hi = int(max(lo + 64, t + 12.0 * math.sqrt(t) + 64))
    while True:
        ks = np.arange(lo, hi + 1, dtype=float)
        logs = _log_poisson_pmf(t, ks)
        total = logsumexp(logs)
        if logs[-1] < total - 45.0 or hi - L > 10_000_000:
            return float(min(np.exp(total), 1.0))
        hi *= 2


def poisson_cdf_lt(t: float, n: float) -> float:
    """P(Poi(t) < n) by log-space summation of k = 0 .. ceil(n)-1."""
    if t < 0:
        raise ValueError("the Poisson rate must be nonnegative")
    top = int(math.ceil(n)) - 1
    if top < 0:
        return 0.0
    if t == 0:
        return 1.0
    ks = np.arange(0, top + 1, dtype=float)
    return float(min(np.exp(logsumexp(_log_poisson_pmf(t, ks))), 1.0))


def semigroup_evolve(op, u0, t: float, mode: str = "distribution", tail: float = 1e-12):
    """e^{t(K-I)} applied to u0 by uniformization (Poisson-weighted powers).

    mode 'distribution' evolves a row vector (measure), 'function' a column
    vector.  The series is truncated once the remaining Poisson mass drops
    below `tail`; for substochastic kernels the evolved mass is
    nonincreasing in t.
    """
    if t < 0:
        raise ValueError("the time parameter must be nonnegative")
    if mode not in ("distribution", "function"):
        raise ValueError(f"unknown mode {mode!r}")
    K = _matrix_of(op)
    vec = np.array(u0, dtype=float)
    if t == 0:
        return vec
    # choose the truncation order: smallest N with P(Poi(t) > N) < tail
    N = int(t + 10.0 * math.sqrt(t) + 20)
    while poisson_tail_gt(t, N) >= tail:
        N = int(N * 1.5) + 16
    ks = np.arange(0, N + 1, dtype=float)
    with np.errstate(under="ignore"):
        weights = np.exp(_log_poisson_pmf(t, ks))
    out = weights[0] * vec
    cur = vec
    for k in range(1, N + 1):
        cur = cur @ K if mode == "distribution" else K @ cur
        if weights[k] > 0:
            out = out + weights[k] * cur
    return out


def tv_signed(d1, d2) -> float:
    """Supremum-over-events distance max(sum nu_+, sum nu_-), nu = d1 - d2.

    For two probabilities this equals half the L1 norm; for a
    subprobability against a probability it is the natural total-variation
    distance (lambda = 0 against any probability gives 1).
    """
    a = _weights_of(d1)
    b = _weights_of(d2)
    nu = a - b
    return float(max(nu[nu > 0].sum() if (nu > 0).any() else 0.0,
                     -nu[nu < 0].sum() if (nu < 0).any() else 0.0))


def subprob_tv_bound(lam, rho) -> tuple[float, float]:
    """Actual TV of a subprobability against rho, and the entropy bound.

    Returns (actual, (1 - m) + sqrt(H_rho(u)/2)) with u = d(lambda)/d(rho)
    and m the mass of lambda; requires lambda absolutely continuous w.r.t.
    rho.
    """
    l = _weights_of(lam)
    r = _weights_of(rho)
    if ((l > 1e-15) & (r <= 0)).any():
        raise ValueError("the subprobability charges a null set of the reference law")
    u = np.where(r > 0, l / np.where(r > 0, r, 1.0), 0.0)
    m = float(l.sum())
    h = entropy(r, u)
    bound = (1.0 - m) + math.sqrt(max(h, 0.0) / 2.0)
    return tv_signed(l, r), bound


def entropy_decay_check(
    killed_op,
    rho,
    u0,
    t_grid: Sequence[float],
    A: float,
    check_hypothesis: bool = True,
    seed: int = 0,
) -> dict:
    """Verify H(u_t) <= e^{-t/A} H(u_0) + A delta rho(u_0)(1 - e^{-t/A}).

    u_t evolves the density u0 by the killed semigroup.  The decay bound is
    only guaranteed when A dominates the killed kernel's log-Sobolev
    constant; the report carries a numeric lower bound on that constant and
    flags the hypothesis instead of silently passing.
    """
    K = _matrix_of(killed_op)
    r = _weights_of(rho, K.shape[0])
    u0 = np.asarray(u0, dtype=float)
    delta = float(np.dot(r, 1.0 - K.sum(axis=1)))
    h0 = entropy(r, u0)
    m0 = float(np.dot(r, u0))
    points = []
    max_slack = -math.inf
    violations = 0
    for t in t_grid:
        ut = semigroup_evolve(K, u0, float(t), mode="function")
        lhs = entropy(r, ut)
        decay = math.exp(-float(t) / A)
        rhs = decay * h0 + A * delta * m0 * (1.0 - decay)
        slack = lhs - rhs
        max_slack = max(max_slack, slack)
        if slack > 1e-10:
            violations += 1
        points.append({"t": float(t), "lhs": lhs, "rhs": rhs})
    report = {
        "delta": delta,
        "mass0": m0,
        "entropy0": h0,
        "A": float(A),
        "violations": violations,
        "max_slack": max_slack,
        "points": points,
    }
    if check_hypothesis:
        numeric = lsi_constant_numeric(K, r, restarts=32, steps=2000, seed=seed)
        report["numeric_lsi_lower"] = numeric
        report["hypothesis_ok"] = bool(numeric <= A * (1.0 + 1e-9))
    return report


@dataclass
class PipelineReport:
    """Confinement-pipeline quantities and the resulting TV bound."""

    A: float
    omega_size: int
    t_star: float
    L: int
    t_conf: float
    zeta: float
    R: float
    eta: float
    pi_good_complement: float
    tv_bound: float
    poisson_lower_tail: float
    condition_value: float
    condition_ok: bool
    t_mix_cont_upper: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def pipeline_report(
    A: float, omega_size: int, pi_gc: float, eta: float, L: int, t_star: float
) -> PipelineReport:
    """Assemble the confinement pipeline from its ingredients.

    t_conf = 2 A log(e + log|Omega|); zeta = P(Poi(t_conf) > L);
    R = e^{-t_conf/A} log|Omega| + A pi(G^c)/pi(G); the TV bound is
    2(eta + zeta) + sqrt(R/2) + pi(G^c).  Also emits P(Poi(2 t_*) < t_*)
    and checks the continuous-time condition (<= 1/4), under which
    t_mix^cont <= 2 t_* + t_conf.
    """
    if A <= 0:
        raise ConfigError("the LSI constant A must be positive")
    if omega_size < 1:
        raise ConfigError("the state space must be nonempty")
    if not 0.0 <= pi_gc < 1.0:
        raise ConfigError(f"pi(G^c) must lie in [0, 1), got {pi_gc}")
    if eta < 0 or t_star < 0 or L < 1:
        raise ConfigError("eta and t_star must be nonnegative and L >= 1")
    log_omega = math.log(omega_size)
    t_conf = 2.0 * A * math.log(math.e + log_omega)
    zeta = poisson_tail_gt(t_conf, L)
    R = math.exp(-t_conf / A) * log_omega + A * pi_gc / (1.0 - pi_gc)
    tv_bound = 2.0 * (eta + zeta) + math.sqrt(R / 2.0) + pi_gc
    lower_tail = poisson_cdf_lt(2.0 * t_star, t_star) if t_star > 0 else 0.0
    condition = tv_bound + lower_tail
    return PipelineReport(
        A=float(A),
        omega_size=int(omega_size),
        t_star=float(t_star),
        L=int(L),
        t_conf=t_conf,
        zeta=zeta,
        R=R,
        eta=float(eta),
        pi_good_complement=float(pi_gc),
        tv_bound=tv_bound,
        poisson_lower_tail=lower_tail,
        condition_value=condition,
        condition_ok=bool(condition <= 0.25),
        t_mix_cont_upper=2.0 * t_star + t_conf,
    )


def exit_probability_exact(op, good_mask, x_index: int, s: int, L: int) -> float:
    """P_x(exists u in {0..L}: X_{s+u} not in G), computed densely.

    The survival probability is <delta_x P^s restricted to G, K_G^L 1>.
    """
    P = _matrix_of(op)
    mask = np.asarray(good_mask, dtype=bool)
    alpha = np.zeros(P.shape[0])
    alpha[x_index] = 1.0
    for _ in range(s):
        alpha = alpha @ P
    surv = np.ones(int(mask.sum()))
    KG = P[np.ix_(mask, mask)]
    for _ in range(L):
        surv = KG @ surv
    return float(max(0.0, min(1.0, 1.0 - np.dot(alpha[mask], surv))))


def worst_exit_probability(op, good_mask, s: int, L: int) -> tuple[float, int]:
    """Max over starts of the exit probability, with the worst start index."""
    P = _matrix_of(op)
    mask = np.asarray(good_mask, dtype=bool)
    Ps = np.linalg.matrix_power(P, s) if s > 0 else np.eye(P.shape[0])
    surv = np.ones(int(mask.sum()))
    KG = P[np.ix_(mask, mask)]
    for _ in range(L):
        surv = KG @ surv
    stay = Ps[:, mask] @ surv
    eta = 1.0 - stay
    worst = int(np.argmax(eta))
    return float(max(0.0, min(1.0, eta[worst]))), worst


def path_comparison_check(
    op,
    good_mask,
    x_index: int,
    s: int,
    t: float,
    L: int,
    trials: int = 0,
    seed: int = 0,
) -> tuple[float, float]:
    """Compare burn-in-then-continuous evolution against the killed evolution.

    Exact mode (trials = 0) computes || alpha_s e^{t(P-I)} -
    (alpha_s restricted to G) e^{t(K_G-I)} ||_TV densely and the bound
    eta(s, L) + P(Poi(t) > L).  Monte Carlo mode estimates the coupling
    disagreement probability (an upper bound for the distance) from
    `trials` coupled trajectories.
    """
    P = _matrix_of(op)
    mask = np.asarray(good_mask, dtype=bool)
    eta = exit_probability_exact(P, mask, x_index, s, L)
    bound = eta + poisson_tail_gt(t, L)
    if trials == 0:
        alpha = np.zeros(P.shape[0])
        alpha[x_index] = 1.0
        for _ in range(s):
            alpha = alpha @ P
        tilde = semigroup_evolve(P, alpha, t, mode="distribution")
        KG = P[np.ix_(mask, mask)]
        lam_g = semigroup_evolve(
            DenseOperator(KG, flavor="substochastic"), alpha[mask], t, mode="distribution"
        )
        lam = np.zeros(P.shape[0])
        lam[mask] = lam_g
        return tv_signed(tilde, lam), bound
    rng = philox_generator(seed, 1)
    cum = np.cumsum(P, axis=1)
    killed = 0
    for _ in range(trials):
        x = x_index
        for _ in range(s):
            x = int(np.searchsorted(cum[x], rng.random()))
        if not mask[x]:
            killed += 1
            continue
        jumps = int(rng.poisson(t))
        for _ in range(jumps):
            x = int(np.searchsorted(cum[x], rng.random()))
            if not mask[x]:
                killed += 1
                break
    return killed / trials, bound


def ambient_lsi_A_for_good_support(op, good_mask, mu=None) -> dict:
    """Rigorous ambient LSI constant for functions supported on G.

    For F supported on G, the zero-extension identities give
    Ent_mu(F^2) <= q pi_G(f^2)(log|G| + log(1/q)) and
    E_P(F, F) = q E_{K_G}(f, f) >= q pi_G(f^2)(1 - lambda_max(K_G)),
    so A = (log|G| + log(1/q)) / (1 - lambda_max(K_G)) works whenever
    lambda_max < 1.
    """
    P = _matrix_of(op)
    mask = np.asarray(good_mask, dtype=bool)
    mu_w = _weights_of(mu, P.shape[0])
    q = float(mu_w[mask].sum())
    if q <= 0:
        raise ValueError("the support set has zero mass")
    KG, delta = killed_kernel(P, mask, mu_w)
    pi_g = mu_w[mask] / q
    lam_max = float(spectrum(KG, pi_g)[0])
    size = int(mask.sum())
    if lam_max >= 1.0 - 1e-13:
        A = math.inf
    else:
        A = (math.log(size) + math.log(1.0 / q)) / (1.0 - lam_max)
    return {
        "A": A,
        "lambda_max": lam_max,
        "good_mass": q,
        "good_size": size,
        "delta": delta,
    }


def tensorization_sides(F: np.ndarray) -> tuple[float, float]:
    """Both sides of the entropy tensorization inequality on a product space.

    F is an N-dimensional array over S^N with the uniform product law; the
    left side is Ent(F^2) and the right side sums the mean conditional
    entropies along each coordinate.  Tensorization asserts lhs <= rhs.
    """
    F = np.asarray(F, dtype=float)
    u = F * F
    total = u.size
    lhs_mean = u.mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        ulogu = np.where(u > 0, u * np.log(np.where(u > 0, u, 1.0)), 0.0)
    lhs = ulogu.mean() - (lhs_mean * math.log(lhs_mean) if lhs_mean > 0 else 0.0)
    rhs = 0.0
    for axis in range(F.ndim):
        mean_axis = u.mean(axis=axis)
        ent_axis = ulogu.mean(axis=axis) - np.where(
            mean_axis > 0, mean_axis * np.log(np.where(mean_axis > 0, mean_axis, 1.0)), 0.0
        )
        rhs += ent_axis.mean()
    return float(lhs), float(rhs)
