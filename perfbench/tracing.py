"""Spans around calls into groupwalks' public functions, and the per-layer
metrics derived from them.

``Tracer.install`` replaces each traced function with a wrapper in every
``groupwalks`` module that holds it (so ``chains.build_fibre_kernel`` and
``cli.build_fibre_kernel`` both record), in the classes that define traced
methods, and in ``cli._DISPATCH``.  A span is (name, start, end, parent,
job).  A layer's self time is its span durations minus the time covered by
their child spans, so the self times of all spans plus the time outside
any span add up to the traced job time.

Functions called millions of times per run (``h_mul``, ``h_pow``,
``apply_move``) are not wrapped; their cost lands in the self time of the
traced caller.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict


def _arg(bound, name):
    return bound.arguments[name]


def _count_enumerate(c, b, out, fn):
    if fn == "stiefel_space":
        ambient = 1 << (_arg(b, "n") * _arg(b, "k"))
    elif fn == "one_column_space":
        ambient = _arg(b, "p") ** _arg(b, "r")
    else:
        ambient = (_arg(b, "p") ** (2 * _arg(b, "m") + 1)) ** _arg(b, "r")
    c["chains.enumerate.states"] += out.size
    c["chains.enumerate.ambient"] += ambient


def _count_batch(c, b, out, fn):
    steps = max(int(t) for t in _arg(b, "t_grid")) if len(_arg(b, "t_grid")) else 0
    c["chains.batch.steps"] += steps
    c["chains.batch.trial_steps"] += steps * int(_arg(b, "trials"))


def _count_mixing(c, b, out, fn):
    kernel = _arg(b, "kernel")
    M = getattr(kernel, "matrix", kernel).shape[0]
    matmuls = max(int(out) - 1, 0)
    c["diagnostics.mixing_exact.matmuls"] += matmuls
    c["diagnostics.mixing_exact.flops_computed"] += 2 * M**3 * matmuls


def _count_tv_curve(c, b, out, fn):
    grid = [int(t) for t in _arg(b, "t_grid")]
    c["diagnostics.tv_curve.matmuls"] += max(grid) if grid else 0


def _count_good_measure(c, b, out, fn):
    scanned = out["ambient_size"] if out["method"] == "exact" else out["mu_trials"]
    c["diagnostics.good_measure.states_scanned"] += scanned


def _count_sample(c, b, out, fn):
    c["diagnostics.fibre_sample.draws"] += out["draws"]
    c["diagnostics.fibre_sample.useful"] += len(out["V"])


def _count_bd(c, b, out, fn):
    if fn == "bd_hitting_mc":
        c["diagnostics.bd_mc.steps"] += round(out["mean"] * (out["trials"] - out["unfinished"]))
    elif fn == "support_transition_frequencies":
        c["diagnostics.bd_mc.steps"] += out["steps"]


def _simple(key, value):
    def count(c, b, out, fn):
        c[key] += value(b, out)
    return count


# (module, attribute or "Class.method", layer, counter or None)
TARGETS = [
    ("chains", "stiefel_space", "chains.enumerate", _count_enumerate),
    ("chains", "one_column_space", "chains.enumerate", _count_enumerate),
    ("chains", "heisenberg_tuple_space", "chains.enumerate", _count_enumerate),
    ("chains", "_WalkBase.move_permutations", "chains.move_table",
     _simple("chains.move_table.entries", lambda b, out: out.size)),
    ("chains", "_WalkBase.dense", "chains.dense",
     _simple("chains.dense.bytes_computed", lambda b, out: 8 * out.shape[0] ** 2)),
    ("chains", "connected_components", "chains.components", None),
    ("chains", "build_fibre_kernel", "chains.fibre_kernel", None),
    ("chains", "one_column_batch", "chains.batch", _count_batch),
    ("chains", "transvection_batch", "chains.batch", _count_batch),
    ("chains", "pa_pra_batch", "chains.batch", _count_batch),
    ("chains", "simulate", "chains.simulate",
     _simple("chains.simulate.steps", lambda b, out: int(_arg(b, "steps")))),
    ("chains", "rank_bits_batch", "chains.rank_batch",
     _simple("chains.rank_batch.rows", lambda b, out: out.shape[0])),
    ("chains", "rank_modp_batch", "chains.rank_batch",
     _simple("chains.rank_batch.rows", lambda b, out: out.shape[0])),
    ("spectral", "spectrum", "spectral.eigensolve", _simple(
        "spectral.eigensolve.dim_cubed", lambda b, out: out.shape[0] ** 3)),
    ("spectral", "lsi_estimate", "spectral.lsi", None),
    ("spectral", "killed_kernel", "spectral.pipeline", None),
    ("spectral", "ambient_lsi_A_for_good_support", "spectral.pipeline", None),
    ("spectral", "worst_exit_probability", "spectral.pipeline", None),
    ("spectral", "semigroup_evolve", "spectral.pipeline", None),
    ("spectral", "entropy_decay_check", "spectral.pipeline", None),
    ("spectral", "pipeline_report", "spectral.pipeline", None),
    ("diagnostics", "mixing_time_exact", "diagnostics.mixing_exact", _count_mixing),
    ("diagnostics", "worst_tv_curve", "diagnostics.tv_curve", _count_tv_curve),
    ("diagnostics", "good_set_measure", "diagnostics.good_measure", _count_good_measure),
    ("diagnostics", "good_fibre_gap_scan", "diagnostics.fibre_scan", None),
    ("diagnostics", "sample_balanced_frozen_tuples", "diagnostics.fibre_sample", _count_sample),
    ("diagnostics", "burnin_occupancy", "diagnostics.burnin", None),
    ("diagnostics", "mc_tv_curve_one_column", "diagnostics.mc_tv", None),
    ("diagnostics", "bd_hitting_mc", "diagnostics.bd_mc", _count_bd),
    ("diagnostics", "embedded_crossing_mc", "diagnostics.bd_mc", _count_bd),
    ("diagnostics", "support_transition_frequencies", "diagnostics.bd_mc", _count_bd),
    ("groups", "Representation.matrix", "groups.representation", None),
    ("groups", "fixed_projection", "groups.projection", None),
    ("groups", "operator_norm", "groups.projection", None),
] + [("cli", f"cmd_{c}", f"cli.{c}", None)
     for c in ("simulate", "spectrum", "mixing", "birthdeath", "repcheck", "pipeline")]

# layer -> name of its time metric (".self_s" where the layer usually encloses
# other traced layers, ".s" otherwise; both are self time)
TIME_METRIC = {
    "chains.dense": "chains.dense.self_s",
    "diagnostics.burnin": "diagnostics.burnin.self_s",
    "diagnostics.mc_tv": "diagnostics.mc_tv.self_s",
}
LAYERS = sorted({t[2] for t in TARGETS})
for _layer in LAYERS:
    TIME_METRIC.setdefault(_layer, _layer + (".self_s" if _layer.startswith("cli.") else ".s"))


class Tracer:
    """Records spans in memory; ``job`` tags spans with the running job id,
    and nothing is recorded while it is None."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.job = None
        self._patched: list = []

    def wrap(self, layer, fn, counter, fn_name):
        sig = inspect.signature(fn) if counter else None
        spans, stack, counts, calls = self.spans, self.stack, self.counts, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.job is None:  # input generation and oracle checks
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, self.job)
            calls[layer] += 1
            if counter is not None:
                counter(counts, sig.bind(*args, **kwargs), out, fn_name)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self) -> None:
        import groupwalks  # noqa: F401
        from groupwalks import cli

        modules = [m for name, m in sys.modules.items()
                   if name == "groupwalks" or name.startswith("groupwalks.")]
        for mod_name, attr, layer, counter in TARGETS:
            home = sys.modules[f"groupwalks.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self.wrap(layer, cls.__dict__[meth], counter, meth))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(layer, original, counter, attr)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapped)
            for key, val in list(cli._DISPATCH.items()):
                if val is original:
                    self._patched.append((cli._DISPATCH, key, val))
                    cli._DISPATCH[key] = wrapped

    def _patch(self, obj, key, wrapped) -> None:
        self._patched.append((obj, key, getattr(obj, key) if not isinstance(obj, type)
                              else obj.__dict__[key]))
        setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patched):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its children's intervals,
    clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counts, calls, passes: int, traced_job_time: float) -> dict:
    """Per-pass per-layer metrics from a traced run of ``passes`` passes
    whose timed jobs took ``traced_job_time`` seconds in total."""
    self_by_layer = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        self_by_layer[s[0]] += st
    per = 1.0 / passes
    m = {TIME_METRIC[layer]: self_by_layer[layer] * per for layer in LAYERS}

    def c(key):
        return counts.get(key, 0.0) * per

    def rate(num, den):
        return num / den if den > 0 else 0.0

    states, ambient = c("chains.enumerate.states"), c("chains.enumerate.ambient")
    m["chains.enumerate.states"] = states
    m["chains.enumerate.kept_ratio"] = rate(states, ambient)
    m["chains.move_table.entries"] = c("chains.move_table.entries")
    m["chains.move_table.entries_per_s"] = rate(m["chains.move_table.entries"],
                                                m["chains.move_table.s"])
    m["chains.dense.bytes_computed"] = c("chains.dense.bytes_computed")
    m["chains.fibre_kernel.calls"] = calls.get("chains.fibre_kernel", 0) * per
    m["chains.fibre_kernel.ms_per_call"] = 1e3 * rate(m["chains.fibre_kernel.s"],
                                                      m["chains.fibre_kernel.calls"])
    m["chains.batch.trial_steps"] = c("chains.batch.trial_steps")
    m["chains.batch.trial_steps_per_s"] = rate(m["chains.batch.trial_steps"], m["chains.batch.s"])
    m["chains.batch.steps"] = c("chains.batch.steps")
    m["chains.batch.us_per_step"] = 1e6 * rate(m["chains.batch.s"], m["chains.batch.steps"])
    m["chains.simulate.steps"] = c("chains.simulate.steps")
    m["chains.simulate.us_per_step"] = 1e6 * rate(m["chains.simulate.s"], m["chains.simulate.steps"])
    m["chains.rank_batch.rows"] = c("chains.rank_batch.rows")
    m["spectral.eigensolve.calls"] = calls.get("spectral.eigensolve", 0) * per
    m["spectral.eigensolve.dim_cubed"] = c("spectral.eigensolve.dim_cubed")
    m["diagnostics.mixing_exact.matmuls"] = c("diagnostics.mixing_exact.matmuls")
    m["diagnostics.mixing_exact.flops_computed"] = c("diagnostics.mixing_exact.flops_computed")
    m["diagnostics.tv_curve.matmuls"] = c("diagnostics.tv_curve.matmuls")
    m["diagnostics.good_measure.states_scanned"] = c("diagnostics.good_measure.states_scanned")
    m["diagnostics.good_measure.states_per_s"] = rate(
        m["diagnostics.good_measure.states_scanned"], m["diagnostics.good_measure.s"])
    m["diagnostics.fibre_sample.draws"] = c("diagnostics.fibre_sample.draws")
    m["diagnostics.fibre_sample.acceptance"] = rate(c("diagnostics.fibre_sample.useful"),
                                                    m["diagnostics.fibre_sample.draws"])
    m["diagnostics.bd_mc.steps"] = c("diagnostics.bd_mc.steps")
    m["groups.representation.calls"] = calls.get("groups.representation", 0) * per
    m["groups.projection.calls"] = calls.get("groups.projection", 0) * per
    attributed = sum(self_by_layer.values()) * per
    m["bench.traced_wall_s"] = traced_job_time * per
    m["bench.unattributed_s"] = m["bench.traced_wall_s"] - attributed
    return m
