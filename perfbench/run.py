"""Benchmark for groupwalks: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One client in one process runs each workload's jobs back to back (a closed
loop: the next job starts when the previous one returns).  Each workload
runs in its own child process, with OPENBLAS_NUM_THREADS set to the number
of usable cores and its address space capped, so set-up time and peak
memory belong to that workload and a runaway allocation becomes a counted
failure.  The last line of standard output is one JSON object:

* ``--trace 0``: end-to-end metrics, measured with tracing off.  Set-up is
  sampled three times (two set-up-only children and the measuring child)
  and reported as the median.
* ``--trace 1``: per-layer metrics from a traced child, the tracing overhead
  against an untraced child, and eigensolve and exact-mixing self time
  from a traced child with one BLAS thread.

Run from the root of a checkout; the program is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from stats import percentile  # noqa: E402
from tracing import TIME_METRIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ADDRESS_SPACE_CAP = 1536 << 20  # bytes per child: a 16k-state dense kernel (2 GB) fails
DEADLINE_S = 170                # the whole run, all children included
SETUP_SAMPLES = 3


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


class ChildFailed(RuntimeError):
    pass


def child(args, mode, trace, threads, deadline, spans=None):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["setup_raw_s"] = res["t_ready"] - t_spawn
    res["setup_s"] = res["setup_raw_s"] * res["setup_factor"]
    return res


def end_to_end(args, threads, deadline):
    setups = [child(args, "setup", 0, threads, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = child(args, "measure", 0, threads, deadline)
    n = len(main["samples"])
    attempted = main["attempted"] + sum(s["attempted"] for s in setups)
    failed = main["failed"] + sum(s["failed"] for s in setups)
    failures = main["failures"] + [f for s in setups for f in s["failures"]]
    metrics = {
        "wall_s": statistics.median(main["passes"]),
        "job_p50_s": percentile(main["samples"], 50),
        "job_p90_s": percentile(main["samples"], 90),
        "setup_s": statistics.median([s["setup_s"] for s in setups + [main]]),
        "peak_rss_mib": main["peak_rss_mib"],
    }
    units = declared("end_to_end", metrics)
    tsps = main["trial_steps"] / main["traj_time"] if main["traj_time"] else None
    print(f"passes={len(main['passes'])} jobs={n} (closed loop, 1 client)")
    print("env " + json.dumps(main["env"], sort_keys=True))
    raw = {
        "wall_s": statistics.median(main["passes_raw"]),
        "job_p50_s": percentile(main["samples_raw"], 50),
        "job_p90_s": percentile(main["samples_raw"], 90),
        "setup_s": statistics.median([s["setup_raw_s"] for s in setups + [main]]),
    }
    print("times are scaled to the reference machine speed (see NOTES.md); raw in brackets")
    for name, value in metrics.items():
        note = {"job_p90_s": f"  (n={n})", "setup_s": f"  (median of {SETUP_SAMPLES})",
                "wall_s": f"  (median of {len(main['passes'])} passes)"}.get(name, "")
        if name in raw:
            note = f"  [raw {raw[name]:.6g}]" + note
        print(f"{name:<18} {value:.6g} {units[name]}{note}")
    print(f"{'trial_steps_per_s':<18} " + (f"{tsps:.6g} 1/s" if tsps else "n/a (no trajectory jobs)"))
    print(f"{'failed_ratio':<18} {failed / attempted:.6g} 1  ({failed}/{attempted})")
    return metrics, units, attempted, failed, failures


def per_layer(args, threads, deadline, out_dir):
    plain = child(args, "measure", 0, threads, deadline)
    traced = child(args, "measure", 1, threads, deadline,
                   spans=os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    single = child(args, "measure", 1, 1, deadline,
                   spans=os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}-1thread.json"))
    m = dict(traced["layers"])
    m["bench.trace_overhead_ratio"] = (statistics.mean(traced["passes"])
                                       / statistics.mean(plain["passes"]) - 1.0)
    for key in ("spectral.eigensolve.s", "diagnostics.mixing_exact.s"):
        m[key + "_1thread"] = single["layers"][key]
    m["bench.trial_steps_per_s"] = (plain["trial_steps"] / plain["traj_time"]
                                    if plain["traj_time"] else 0.0)
    runs = (plain, traced, single)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    m["bench.failed_ratio"] = failed / attempted
    failures = [f for r in runs for f in r["failures"]]
    layer_sum = sum(m[name] for name in TIME_METRIC.values()) + m["bench.unattributed_s"]
    print(f"self times + unattributed = {layer_sum:.6f} s; traced wall = "
          f"{m['bench.traced_wall_s']:.6f} s per pass")
    print("env " + json.dumps(traced["env"], sort_keys=True))
    return m, declared("per_layer", m), attempted, failed, failures


def declared(group, metrics):
    """Units of the metrics BENCHMARK.json declares in ``group``; the run
    must report exactly those."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[group]}
    if set(units) != set(metrics):
        raise RuntimeError(f"{group} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    return units


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "groupwalks", "__init__.py")):
        print(f"perfbench: no groupwalks sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    try:
        if args.trace:
            metrics, units, attempted, failed, failures = per_layer(args, threads, deadline, out_dir)
        else:
            metrics, units, attempted, failed, failures = end_to_end(args, threads, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
