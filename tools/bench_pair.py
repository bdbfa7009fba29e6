"""Run the end-to-end benchmark on two checkouts and record per-metric medians.

    python3 tools/bench_pair.py --parent DIR --change DIR --out BENCH.json \
        [--workloads W ...] [--seeds S ...] [--claim WORKLOAD:METRIC]

In each checkout this runs ``python3 perfbench/run.py --workload W --seed S
--seconds 15 --trace 0`` for every workload and seed, interleaving the two
checkouts and swapping which runs first from seed to seed, so that slow
spells of the machine hit both, and reads the last JSON line each run
prints.  The output holds, per workload and metric, the median over seeds
of each checkout and their ratio, the failed job counts, and the ``env``
line of the first run.  It also holds, as ``regressions``, one line per
end-to-end metric of BENCHMARK.json whose change median is worse than the
parent's by more than the metric's relative bound, and one per workload
where the change failed more jobs; the script prints them and exits 1 when
there is any.

The workloads default to all four and the seeds to 901-903.  ``--claim``
tests a claimed gain on one end-to-end metric of one of the workloads run,
by the rule for a gain in a small sandbox: with at least ten seeds, the
change wins at least nine tenths of the same-seed pairs (ties count for
neither side), and its median is better than the parent's by more than the
distance between the parent's quartiles (exclusive method).  The output
then also holds ``claim``: the wins, the pairs, both medians, that distance
and whether the rule ``holds``; the script prints it and also exits 1
when the rule fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

WORKLOADS = ("exact", "fibres", "mc-wide", "mc-narrow")
SEEDS = (901, 902, 903)
SECONDS = 15.0
BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run(checkout: str, workload: str, seed: int) -> tuple[dict, dict]:
    """(last JSON line, env line) of one benchmark run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def regressions(report: dict, benchmark: dict) -> list[str]:
    """The lines of the module docstring's ``regressions`` for a per-workload report."""
    found = []
    for workload, entry in report.items():
        for metric in benchmark["end_to_end"]:
            m = entry["metrics"].get(metric["name"])
            if m is None:
                continue
            worse = m["ratio"] - 1.0 if metric["better"] == "lower" else 1.0 - m["ratio"]
            if worse > metric["bound"]:
                found.append(f"{workload} {metric['name']}: {m['parent']:.4g} -> {m['change']:.4g}"
                             f" ({worse:.1%} worse, bound {metric['bound']:.0%})")
        if entry["failed"]["change"] > entry["failed"]["parent"]:
            found.append(f"{workload} failed jobs: {entry['failed']['parent']} -> "
                         f"{entry['failed']['change']}")
    return found


def claim(parent: list[float], change: list[float], better: str) -> dict:
    """The module docstring's ``claim`` entry for one metric's same-seed runs."""
    sign = 1.0 if better == "lower" else -1.0  # positive gains are improvements
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    medians = statistics.median(parent), statistics.median(change)
    pairs = len(parent)
    return {"pairs": pairs, "wins": wins, "parent_median": medians[0],
            "change_median": medians[1], "parent_quartile_distance": q3 - q1,
            "holds": pairs >= 10 and 10 * wins >= 9 * pairs
            and sign * (medians[0] - medians[1]) > q3 - q1}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
                    help="workloads to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), help="workload seeds")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="test a claimed gain on this metric and workload")
    args = ap.parse_args()
    with open(BENCHMARK, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}.get(claim_metric)
        if claim_workload not in args.workloads or better is None or len(args.seeds) < 2:
            ap.error(f"--claim {args.claim} needs one of the workloads run, one of its"
                     " end-to-end metrics and at least two seeds")
    sides = {"parent": args.parent, "change": args.change}
    env: dict = {}
    report: dict = {}
    runs: dict = {}
    for workload in args.workloads:
        values: dict = {side: {} for side in sides}
        failed = {side: 0 for side in sides}
        for i, seed in enumerate(args.seeds):
            for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                result, run_env = run(sides[side], workload, seed)
                env = env or run_env
                failed[side] += result["failed"]
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                print(f"{workload} seed={seed} {side}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        medians = {side: {k: statistics.median(v) for k, v in values[side].items()}
                   for side in sides}
        report[workload] = {
            "metrics": {
                name: {"parent": medians["parent"][name], "change": medians["change"][name],
                       "ratio": medians["change"][name] / medians["parent"][name]}
                for name in medians["parent"]
            },
            "failed": failed,
        }
        runs[workload] = values
    found = regressions(report, benchmark)
    print("regressions: " + ("; ".join(found) if found else "none"), flush=True)
    result = {"seeds": args.seeds, "seconds": SECONDS, "env": env,
              "workloads": report, "regressions": found}
    holds = True
    if args.claim:
        result["claim"] = {"workload": claim_workload, "metric": claim_metric, **claim(
            runs[claim_workload]["parent"][claim_metric],
            runs[claim_workload]["change"][claim_metric], better)}
        holds = result["claim"]["holds"]
        print("claim " + json.dumps(result["claim"], sort_keys=True), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if found or not holds else 0


if __name__ == "__main__":
    sys.exit(main())
