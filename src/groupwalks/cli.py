"""Command-line experiment harness.

Every analysis in the package is exposed as a subcommand producing
machine-readable output: trajectory CSVs for ``simulate`` and JSON reports
for the rest.  A run is configured by an optional JSON config file plus
flag overrides (flags win), and every artifact is stamped with the seed,
the effective parameter block, and a short hash of it, so reruns with the
same configuration are byte-identical.

Exit codes: 0 success, 1 configuration error, 2 budget refusal, 3 internal
invariant violation or any other unexpected exception (``MemoryError``,
``LinAlgError``, ...), reported as one ``internal error: <Type>: <message>``
line on stderr; an interrupt is not caught.  The environment variable
``GROUPWALKS_THREADS`` limits BLAS thread pools when ``threadpoolctl`` is
available.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np
from scipy import linalg as _sla

from . import spectral
from .algebra import FieldVector, _digits
from .chains import (
    OneColumnWalk,
    PaPraWalk,
    TransvectionWalk,
    build_fibre_kernel,
    one_column_batch,
    pa_pra_batch,
    transvection_batch,
)
from .diagnostics import (
    BDParams,
    _default_start_rows,
    _good_mask_of_table,
    _n_table,
    _s_table,
    bd_crossing_prob,
    bd_hitting_time,
    bd_probs,
    bd_rho,
    canonical_start,
    good_fibre_gap_scan,
    good_mask_rows,
    heisenberg_good_set,
    hyperplane_gap_floor,
    mc_tv_curve_one_column,
    mixing_time_exact,
    sample_balanced_frozen_tuples,
    select_constants,
    transvection_good_set,
    tv_counting_lower,
    worst_tv_curve,
)
from .errors import (
    BudgetError,
    ConfigError,
    GroupwalksError,
    InvariantError,
    ReversibilityError,
)
from .groups import (
    HeisenbergElement,
    representation_dimension_check,
    representation_residuals,
)

SCHEMA_VERSION = 1
COMMANDS = ("simulate", "spectrum", "mixing", "birthdeath", "repcheck", "pipeline")

_thread_limiter = None  # keeps a threadpoolctl controller alive for the process


def _apply_thread_env() -> None:
    global _thread_limiter
    raw = os.environ.get("GROUPWALKS_THREADS")
    if not raw:
        return
    try:
        count = int(raw)
        if count < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"GROUPWALKS_THREADS must be a positive integer, got {raw!r}")
    try:
        import threadpoolctl
    except ImportError:
        return
    _thread_limiter = threadpoolctl.threadpool_limits(limits=count)


# ---------------------------------------------------------------------------
# configuration plumbing


def _jsonify(obj):
    """Recursively convert numpy scalars and arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def config_hash(cfg: dict) -> str:
    """Short content hash of the effective configuration."""
    canon = json.dumps(_jsonify(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def effective_config(command: str, file_cfg: dict, overrides: dict) -> dict:
    """Merge the config-file section with flag overrides; flags win."""
    nested = any(k in COMMANDS and isinstance(v, dict) for k, v in file_cfg.items())
    section = file_cfg.get(command, {}) if nested else file_cfg
    if not isinstance(section, dict):
        raise ConfigError(f"config section {command!r} must be an object")
    merged = dict(section)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    return merged


def _get(cfg: dict, key: str, default=None, required: bool = False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required parameter {key!r}")
    return default


def _get_int(cfg, key, default=None, required=False, minimum=None):
    val = _get(cfg, key, default, required)
    if val is None:
        return None
    try:
        ival = int(val)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {key!r} must be an integer, got {val!r}")
    if minimum is not None and ival < minimum:
        raise ConfigError(f"parameter {key!r} must be >= {minimum}, got {ival}")
    return ival


def _get_float(cfg, key, default=None, required=False):
    val = _get(cfg, key, default, required)
    if val is None:
        return None
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {key!r} must be a number, got {val!r}")


def _get_grid(cfg, key, default=None):
    val = _get(cfg, key, default)
    if val is None:
        return None
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"parameter {key!r} must be a list of times")
    return [int(t) for t in val]


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(command: str, cfg: dict, report: dict, out_path: str | None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": _jsonify(cfg),
        "config_hash": config_hash(cfg),
        "report": _jsonify(report),
    }
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(command: str, cfg: dict, header: list[str], rows, out_path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _emit_text(buf.getvalue(), out_path)
    if out_path:
        meta = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": _jsonify(cfg),
            "config_hash": config_hash(cfg),
            "columns": header,
        }
        with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# walk construction shared by several subcommands


def _build_walk(cfg: dict):
    walk = _get(cfg, "walk", required=True)
    laziness = _get_float(cfg, "laziness", 0.0)
    if walk == "transvection":
        n = _get_int(cfg, "n", required=True, minimum=2)
        k = _get_int(cfg, "k", required=True, minimum=1)
        return TransvectionWalk(n, k, laziness=laziness)
    if walk == "one-column":
        r = _get_int(cfg, "r", required=True, minimum=2)
        p = _get_int(cfg, "p", 2)
        return OneColumnWalk(r, p, laziness=laziness)
    if walk == "pa-pra":
        r = _get_int(cfg, "r", required=True, minimum=2)
        p = _get_int(cfg, "p", required=True, minimum=3)
        m = _get_int(cfg, "m", required=True, minimum=1)
        return PaPraWalk(r, p, m, laziness=laziness)
    raise ConfigError(f"unknown walk {walk!r}; expected transvection, one-column, or pa-pra")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict, out_path: str | None) -> None:
    walk = _build_walk(cfg)
    steps = _get_int(cfg, "steps", required=True, minimum=0)
    trials = _get_int(cfg, "trials", 1, minimum=1)
    record_every = _get_int(cfg, "record_every", 1, minimum=1)
    seed = _get_int(cfg, "seed", 0)
    grid = sorted({*range(0, steps + 1, record_every), steps})
    recorded: list[np.ndarray] = []  # per grid time, (trials, ...) states

    def record(t, state, *_):
        recorded.append(state.copy())

    def stacked() -> np.ndarray:
        # trial-major, as the CSV rows are ordered
        return np.stack(recorded, axis=1).reshape(trials * len(grid), *recorded[0].shape[1:])

    if isinstance(walk, PaPraWalk):
        beta0 = _get_float(cfg, "beta0", 0.75)
        nf = walk.p ** (2 * walk.m) - 1
        if nf > 256:
            raise BudgetError(f"{nf} kernel-count columns exceed the CSV budget of 256")
        spec = heisenberg_good_set(walk.r, walk.p, walk.m, beta0)
        header = [f"n_xi_{c}" for c in range(1, nf + 1)] + ["support", "in_good"]
        start_v, start_z = canonical_start(walk.r, walk.p, walk.m)
        pa_pra_batch(walk.r, walk.p, walk.m, trials, grid, seed, record,
                     start_v, start_z, walk.laziness)
        V = stacked()
        n_tab = _n_table(V, walk.p)
        support = (V != 0).any(axis=2).sum(axis=1)
        columns = [n_tab, support, _good_mask_of_table(n_tab, spec)]
    elif isinstance(walk, OneColumnWalk) and walk.p != 2:
        header = ["support"]
        one_column_batch(walk.r, walk.p, trials, grid, seed, record, laziness=walk.laziness)
        columns = [np.count_nonzero(stacked(), axis=1)]
    else:
        # over F_2 the one-column walk is the tuple walk with k = 1
        one_column = isinstance(walk, OneColumnWalk)
        n, k = (walk.r, 1) if one_column else (walk.n, walk.k)
        if (1 << k) - 1 > 256:
            raise BudgetError(f"{(1 << k) - 1} sign columns exceed the CSV budget of 256")
        spec = transvection_good_set(n, k)
        header = [f"s_xi_{c}" for c in range(1, 1 << k)] + ["in_good"]
        if one_column:
            header = ["weight"] + header
            one_column_batch(n, 2, trials, grid, seed, record, laziness=walk.laziness)
        else:
            transvection_batch(n, k, trials, grid, seed, record,
                               _default_start_rows(n, k), walk.laziness)
        Z = stacked()
        s_tab = _s_table(Z, k)
        columns = [s_tab, _good_mask_of_table(s_tab, spec)]
        if one_column:
            columns = [Z.sum(axis=1)] + columns
    ids = np.repeat(np.arange(trials), len(grid))
    times = np.tile(grid, trials)
    table = np.column_stack([ids, times] + columns).astype(np.int64)
    _emit_csv("simulate", cfg, ["trajectory_id", "step"] + header, table.tolist(), out_path)


def cmd_spectrum(cfg: dict, out_path: str | None) -> None:
    walk = _build_walk(cfg)
    fibres_only = bool(_get(cfg, "fibres_only", False))
    if fibres_only and not isinstance(walk, PaPraWalk):
        raise ConfigError(
            "fibres_only applies to the group walk, whose ambient space is "
            "too large to enumerate; the other walks report both tables"
        )
    report: dict = {"walk": _get(cfg, "walk")}
    if not fibres_only:
        budget = _get_int(cfg, "state_budget", 1 << 16, minimum=1)
        eig_budget = _get_int(cfg, "eig_budget", 4096, minimum=1)
        space = walk.space(budget=budget)
        if space.size > eig_budget:
            raise BudgetError(
                f"{space.size} states exceed the eigensolve budget {eig_budget}; "
                f"rerun with eig_budget >= {space.size}"
            )
        P = walk.dense(space)
        evs = spectral.spectrum(P)
        report.update({
            "states": space.size,
            "spectral_gap": spectral.spectral_gap(P),
            "eigenvalues_top": [float(v) for v in evs[: min(16, evs.size)]],
            "eigenvalues_bottom": [float(v) for v in evs[-min(4, evs.size):]],
        })
    if isinstance(walk, TransvectionWalk):
        scan = good_fibre_gap_scan(walk.n, walk.k)
        hist, edges = np.histogram(scan["good_gaps"], bins=10, range=(0.0, 2.0))
        report["fibre_scan"] = {
            "fibre_count": scan["fibre_count"],
            "good_fibre_count": scan["good_fibre_count"],
            "min_good_gap": scan["min_good_gap"],
            "min_bad_gap": scan["min_bad_gap"],
            "good_gap_hist_counts": hist,
            "good_gap_hist_edges": edges,
        }
    elif isinstance(walk, PaPraWalk):
        beta = _get_float(cfg, "beta", 0.5)
        fibre_trials = _get_int(cfg, "fibre_trials", 100, minimum=1)
        seed = _get_int(cfg, "seed", 0)
        sample = sample_balanced_frozen_tuples(
            walk.r, walk.p, walk.m, beta, fibre_trials, seed
        )
        gaps = []
        for t in range(fibre_trials):
            elems = tuple(
                HeisenbergElement(
                    FieldVector(list(sample["V"][t][j]), walk.p), int(sample["Z"][t][j])
                )
                for j in range(walk.r - 1)
            )
            fk = build_fibre_kernel("heisenberg", 0, elems)
            gaps.append(spectral.spectral_gap(fk.matrix))
        report["balanced_fibres"] = {
            "beta": beta,
            "trials": fibre_trials,
            "acceptance": sample["acceptance"],
            "min_gap": float(min(gaps)),
            "gap_floor": hyperplane_gap_floor(walk.p, beta),
        }
    _emit_json("spectrum", cfg, report, out_path)


def cmd_mixing(cfg: dict, out_path: str | None) -> None:
    mode = _get(cfg, "mode", "exact")
    if mode == "exact":
        walk = _build_walk(cfg)
        epsilon = _get_float(cfg, "epsilon", 0.25)
        budget = _get_int(cfg, "state_budget", 1 << 16, minimum=1)
        dense_budget = _get_int(cfg, "dense_budget", 4096, minimum=1)
        space = walk.space(budget=budget)
        if space.size > dense_budget:
            raise BudgetError(f"{space.size} states exceed the dense mixing budget {dense_budget}")
        P = walk.dense(space)
        starts = walk.start_representatives(space)
        tau = mixing_time_exact(P, epsilon, budget=dense_budget, starts=starts)
        grid = _get_grid(cfg, "t_grid", list(range(0, tau + 1)))
        curve = worst_tv_curve(P, grid, starts=starts)
        lower = [tv_counting_lower(t, walk.counting_move_bound, space.size) for t in grid]
        report = {
            "mode": "exact",
            "states": space.size,
            "epsilon": epsilon,
            "mixing_time": tau,
            "times": grid,
            "tv": curve,
            "counting_lower": lower,
            "move_bound": walk.counting_move_bound,
        }
    elif mode == "mc":
        r = _get_int(cfg, "r", required=True, minimum=2)
        trials = _get_int(cfg, "trials", 10_000, minimum=1)
        seed = _get_int(cfg, "seed", 0)
        grid = _get_grid(cfg, "t_grid")
        if grid is None:
            t_max = _get_int(cfg, "t_max", int(8 * r * math.log(r)) + 1, minimum=1)
            points = _get_int(cfg, "points", 40, minimum=2)
            grid = sorted(set([0] + [int(x) for x in np.geomspace(1, t_max, points)]))
        laziness = _get_float(cfg, "laziness", 0.0)
        curve = mc_tv_curve_one_column(r, trials, grid, seed, laziness)
        scale = r * math.log(r)
        walk = OneColumnWalk(r, 2)
        lower = [tv_counting_lower(t, walk.counting_move_bound, 2**r - 1) for t in grid]
        report = {
            "mode": "mc",
            "r": r,
            "trials": trials,
            "times": curve["times"],
            "tv": curve["tv"],
            "tv_exact": curve["tv_exact"],
            "counting_lower": lower,
            "crossing_quarter": curve["crossing"],
            "n_log_n": scale,
            "fitted_constant": curve["crossing"] / scale
            if not math.isnan(curve["crossing"])
            else float("nan"),
        }
    else:
        raise ConfigError(f"unknown mixing mode {mode!r}; expected exact or mc")
    _emit_json("mixing", cfg, report, out_path)


def cmd_birthdeath(cfg: dict, out_path: str | None) -> None:
    r = _get_int(cfg, "r", required=True, minimum=2)
    p = _get_int(cfg, "p", required=True, minimum=2)
    params = BDParams(r=r, p=p)
    table = []
    for s in range(1, r + 1):
        birth, death = bd_probs(s, params)
        row = {"s": s, "birth": birth, "death": death, "hold": 1.0 - birth - death}
        if s < r:
            row["rho"] = bd_rho(s, params)
        table.append(row)
    target = _get_int(cfg, "target", r)
    hitting = [
        {"s": s, "expected_steps": bd_hitting_time(s, target, params)}
        for s in range(1, target + 1)
    ]
    report: dict = {"r": r, "p": p, "table": table, "target": target, "hitting": hitting}
    a0 = _get_int(cfg, "A0")
    a1 = _get_int(cfg, "A1")
    if a0 is not None and a1 is not None:
        report["crossing"] = [
            {"s": s, "prob_down_first": bd_crossing_prob(s, a0, a1, params)}
            for s in range(a0, a1 + 1)
        ]
    epsilon = _get_float(cfg, "epsilon")
    if epsilon is not None:
        rc = select_constants(p, epsilon)
        report["constants"] = {k: v for k, v in asdict(rc).items() if k != "p"}
    _emit_json("birthdeath", cfg, report, out_path)


def cmd_repcheck(cfg: dict, out_path: str | None) -> None:
    p = _get_int(cfg, "p", required=True, minimum=3)
    m = _get_int(cfg, "m", 1, minimum=1)
    pair_budget = _get_int(cfg, "pair_budget", 1 << 20, minimum=1)
    order = p ** (2 * m + 1)
    if order * order > pair_budget:
        raise BudgetError(
            f"{order * order} element pairs exceed the pair budget {pair_budget}; "
            f"rerun with pair_budget >= {order * order}"
        )
    dim_sq_sum, group_order = representation_dimension_check(p, m)
    report = {
        "p": p,
        "m": m,
        "group_order": group_order,
        "dimension_square_sum": dim_sq_sum,
        "dimension_sum_exact": dim_sq_sum == group_order,
        "representations": representation_residuals(p, m),
    }
    _emit_json("repcheck", cfg, report, out_path)


def cmd_pipeline(cfg: dict, out_path: str | None) -> None:
    walk = _build_walk(cfg)
    if not isinstance(walk, TransvectionWalk):
        raise ConfigError("the pipeline subcommand currently drives the tuple walk")
    budget = _get_int(cfg, "state_budget", 1 << 16, minimum=1)
    s_steps = _get_int(cfg, "s", 50, minimum=0)
    L = _get_int(cfg, "L", 30, minimum=1)
    t_star = _get_float(cfg, "t_star", required=True)
    space = walk.space(budget=budget)
    if space.size > 2048:
        raise BudgetError(
            f"{space.size} states exceed the pipeline eigensolve budget 2048"
        )
    P = walk.dense(space)
    spec = transvection_good_set(walk.n, walk.k)
    mask = good_mask_rows(_digits(space.codes, 1 << walk.k, walk.n), spec)
    if not mask.any():
        raise ConfigError("the good set is empty for these parameters")
    ext = spectral.ambient_lsi_A_for_good_support(P, mask)
    eta, worst_idx = spectral.worst_exit_probability(P, mask, s_steps, L)
    pi_gc = 1.0 - mask.mean()
    rep = spectral.pipeline_report(
        A=ext["A"],
        omega_size=space.size,
        pi_gc=pi_gc,
        eta=eta,
        L=L,
        t_star=t_star,
    )
    report = rep.to_json_dict()
    report["eta_worst_start"] = int(worst_idx)
    report["burnin_steps"] = s_steps
    report["zero_extension"] = ext
    if _get(cfg, "exact_check", True):
        t_total = rep.t_mix_cont_upper
        if math.isfinite(t_total):
            hk = _sla.expm(t_total * (P - np.eye(space.size)))
            pi = np.full(space.size, 1.0 / space.size)
            exact_tv = 0.5 * float(np.abs(hk - pi[None, :]).sum(axis=1).max())
            report["exact_tv_at_bound_time"] = exact_tv
            report["tv_bound_dominates"] = bool(rep.tv_bound >= exact_tv - 1e-12)
    _emit_json("pipeline", cfg, report, out_path)


# ---------------------------------------------------------------------------
# parser and entry point


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the config exit code."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupwalks", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("simulate", help="trajectory CSV with character statistics")
    common(sp)
    sp.add_argument("--walk", choices=["transvection", "one-column", "pa-pra"])
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-m", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--record-every", dest="record_every", type=int, default=None)
    sp.add_argument("--laziness", type=float, default=None)
    sp.add_argument("--beta0", type=float, default=None)

    sp = sub.add_parser("spectrum", help="gaps and fibre-gap tables (JSON)")
    common(sp)
    sp.add_argument("--walk", choices=["transvection", "one-column", "pa-pra"])
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-m", type=int, default=None)
    sp.add_argument("--laziness", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--fibre-trials", dest="fibre_trials", type=int, default=None)
    sp.add_argument("--eig-budget", dest="eig_budget", type=int, default=None)
    sp.add_argument(
        "--fibres-only", dest="fibres_only", action="store_true", default=None,
        help="skip the ambient eigensolve and report only the balanced-fibre table",
    )

    sp = sub.add_parser("mixing", help="exact mixing times or MC TV curves (JSON)")
    common(sp)
    sp.add_argument("--mode", choices=["exact", "mc"], default=None)
    sp.add_argument("--walk", choices=["transvection", "one-column", "pa-pra"])
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-m", type=int, default=None)
    sp.add_argument("--laziness", type=float, default=None)
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--t-max", dest="t_max", type=int, default=None)
    sp.add_argument("--points", type=int, default=None)

    sp = sub.add_parser("birthdeath", help="support-chain tables and constants (JSON)")
    common(sp)
    sp.add_argument("-r", type=int, default=None)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("--target", type=int, default=None)
    sp.add_argument("--A0", type=int, default=None)
    sp.add_argument("--A1", type=int, default=None)
    sp.add_argument("--epsilon", type=float, default=None)

    sp = sub.add_parser("repcheck", help="representation axiom residuals (JSON)")
    common(sp)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-m", type=int, default=None)
    sp.add_argument("--pair-budget", dest="pair_budget", type=int, default=None)

    sp = sub.add_parser("pipeline", help="good-set pipeline report (JSON)")
    common(sp)
    sp.add_argument("--walk", choices=["transvection", "one-column", "pa-pra"])
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("--laziness", type=float, default=None)
    sp.add_argument("-s", type=int, default=None)
    sp.add_argument("-L", type=int, default=None)
    sp.add_argument("--t-star", dest="t_star", type=float, default=None)

    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "mixing": cmd_mixing,
    "birthdeath": cmd_birthdeath,
    "repcheck": cmd_repcheck,
    "pipeline": cmd_pipeline,
}

_NON_CONFIG_KEYS = {"command", "config", "out"}


def main(argv=None) -> int:
    try:
        _apply_thread_env()
        parser = build_parser()
        args = parser.parse_args(argv)
        overrides = {
            key: val
            for key, val in vars(args).items()
            if key not in _NON_CONFIG_KEYS
        }
        file_cfg = load_config_file(args.config) if args.config else {}
        cfg = effective_config(args.command, file_cfg, overrides)
        _DISPATCH[args.command](cfg, args.out)
        return 0
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2
    except (InvariantError, ReversibilityError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure rather than bad input
        return _internal_error(exc)
    except (ConfigError, GroupwalksError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
