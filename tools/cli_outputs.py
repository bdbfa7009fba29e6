"""Run a fixed list of CLI invocations and keep what each one wrote.

    python3 tools/cli_outputs.py OUTDIR [--src DIR]

For every invocation NAME in INVOCATIONS this calls ``groupwalks.cli.main``
in process with ``--out OUTDIR/NAME.out`` appended, and writes its stderr
(and any stdout) to ``OUTDIR/NAME.err`` and its exit code to
``OUTDIR/NAME.exit``; ``simulate`` also leaves ``NAME.out.meta.json``.
Running the script on two source trees and comparing the two directories
with ``diff -r`` checks that a change leaves every output byte-identical.
``--src`` imports ``groupwalks`` from another tree, such as an older
checkout that lacks this script (default: the ``src`` next to it).

The list covers ``mixing --mode exact`` and ``spectrum`` on the exact sweep
plus Stief(3,2), Stief(4,3) and F_2^r minus 0 for r = 3..6 at six laziness
values, ``pipeline`` of the F_2 row walk under both names (``one-column``
reads r from a config file, since ``pipeline`` has no -r flag),
``birthdeath``, ``repcheck``, ``mixing --mode mc``,
``simulate`` for all three walks (the F_2 row walk as ``one-column -p 2``
and as ``transvection -k 1``, at 3, 16 and 128 trials, which step the
scalar, cell and word layouts; the one-column walk at p = 257, on int64
cells), ``spectrum --fibres-only``, the budget and reducibility refusals,
``pipeline``'s refusal of the other walks and ``mixing --mode mc``'s
refusal of any walk but the one-column walk over F_2.  Config files that
set a budget or a ``pipeline`` walk are written to a temporary directory.
On a 2-core machine the 272 runs take about 2 s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP = ([("transvection", n, k) for n, k in ((4, 1), (5, 1), (6, 1), (4, 2), (5, 2), (3, 2), (4, 3))]
         + [("one-column", r, 3) for r in range(2, 7)]
         + [("one-column", r, 5) for r in range(2, 5)]
         + [("one-column", r, 2) for r in range(3, 7)])
LAZINESS = (0.0, 0.125, 0.25, 0.375, 0.5, 1.0)
# config files by name, for the invocations that read one
CONFIGS = {
    "dense-20000": {"mixing": {"dense_budget": 20_000}},
    "eig-41": {"spectrum": {"eig_budget": 41}},
    "dense-41": {"mixing": {"dense_budget": 41}},
    "state-1023": {"mixing": {"state_budget": 1023}},
    "pipeline-r4": {"pipeline": {"r": 4, "p": 2}},
    "pipeline-r5": {"pipeline": {"r": 5, "p": 2}},
    "pipeline-p3": {"pipeline": {"r": 4, "p": 3}},
    "pipeline-pa-pra": {"pipeline": {"r": 4, "p": 3, "m": 1}},
}


def _walk(walk: str, a: int, b: int) -> list:
    return ["--walk", walk, "-n" if walk == "transvection" else "-r", a,
            "-k" if walk == "transvection" else "-p", b]


def invocations() -> list[list]:
    """The argv of every invocation; "@name" stands for the path of CONFIGS[name]."""
    runs = []
    for walk, a, b in SWEEP:
        for q in LAZINESS:
            runs.append(["mixing", "--mode", "exact", *_walk(walk, a, b), "--laziness", q])
            runs.append(["spectrum", *_walk(walk, a, b), "--laziness", q])
    runs += [["pipeline", *_walk("transvection", n, 2), "-s", 50, "-L", 30, "--t-star", t]
             for n in (4, 5) for t in (5, 25)]
    runs += [["pipeline", "--walk", "one-column", "--config", f"@pipeline-r{r}", "-s", 50, "-L", 30,
              "--t-star", t] for r in (4, 5) for t in (5, 25)]
    runs += [
        ["birthdeath", "-r", 8, "-p", 3],
        ["repcheck", "-p", 3],
        ["simulate", *_walk("transvection", 4, 2), "--steps", 200, "--trials", 3, "--seed", 7],
        ["simulate", *_walk("one-column", 6, 3), "--steps", 200, "--trials", 3, "--seed", 7],
        ["simulate", "--walk", "pa-pra", "-r", 4, "-p", 3, "-m", 1, "--steps", 200, "--seed", 7],
        ["simulate", *_walk("one-column", 3, 257), "--steps", 200, "--trials", 3, "--seed", 7],
        *(["simulate", *_walk(walk, 16, b), "--steps", 200, "--trials", trials,
           "--record-every", 10, "--laziness", q, "--seed", 7]
          for walk, b in (("one-column", 2), ("transvection", 1))
          for trials in (3, 16, 128) for q in (0.0, 0.25)),
        ["mixing", "--mode", "mc", "-r", 16],
        ["spectrum", "--walk", "pa-pra", "-r", 4, "-p", 3, "-m", 1, "--fibres-only", "--seed", 7],
        # refusals: budgets (exit 2) and reducible kernels
        ["mixing", "--mode", "exact", "--walk", "pa-pra", "-r", 3, "-p", 3, "-m", 1,
         "--config", "@dense-20000"],
        ["mixing", "--mode", "exact", "--walk", "pa-pra", "-r", 2, "-p", 3, "-m", 1,
         "--laziness", 0.5],
        ["spectrum", *_walk("transvection", 3, 2), "--config", "@eig-41"],
        ["mixing", "--mode", "exact", *_walk("transvection", 3, 2), "--config", "@dense-41"],
        ["mixing", "--mode", "exact", *_walk("transvection", 5, 2), "--config", "@state-1023"],
        ["mixing", "--mode", "exact", *_walk("transvection", 10, 1), "--config", "@state-1023"],
        ["mixing", "--mode", "exact", *_walk("one-column", 8, 3)],
        ["repcheck", "-p", 3, "-m", 1, "--pair-budget", 100],
        ["pipeline", *_walk("transvection", 6, 2), "--t-star", 25],
        ["pipeline", "--walk", "one-column", "--config", "@pipeline-p3", "--t-star", 25],
        ["pipeline", "--walk", "pa-pra", "--config", "@pipeline-pa-pra", "--t-star", 25],
        ["mixing", "--mode", "mc", "--walk", "pa-pra", "-r", 8, "-p", 3, "-m", 1, "--trials", 10],
        ["simulate", *_walk("transvection", 9, 9), "--steps", 1],
        ["simulate", "--walk", "pa-pra", "-r", 3, "-p", 17, "-m", 1, "--steps", 1],
        ["spectrum", "--walk", "pa-pra", "-r", 16, "-p", 3, "-m", 1, "--fibres-only",
         "--fibre-trials", 100_000],
        ["spectrum", "--walk", "pa-pra", "-r", 8, "-p", 11, "-m", 2, "--fibres-only"],
    ]
    return [[str(arg) for arg in argv] for argv in runs]


def name_of(argv: list[str]) -> str:
    """A file-name stem that spells out the argv."""
    return re.sub(r"[^\w.]+", "_", " ".join(argv).replace("@", "cfg ")).strip("_")


def write_outputs(outdir: str | os.PathLike, runs: list[list[str]]) -> None:
    """Run each argv of `runs` with groupwalks.cli.main and write its files into outdir."""
    from groupwalks import cli

    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, cfg in CONFIGS.items():
            paths["@" + name] = os.path.join(tmp, f"{name}.json")
            with open(paths["@" + name], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        for argv in runs:
            stem = out / name_of(argv)  # its dots are not a suffix
            streams = io.StringIO()
            with contextlib.redirect_stdout(streams), contextlib.redirect_stderr(streams):
                code = cli.main([paths.get(arg, arg) for arg in argv] + ["--out", f"{stem}.out"])
            pathlib.Path(f"{stem}.err").write_text(streams.getvalue(), encoding="utf-8")
            pathlib.Path(f"{stem}.exit").write_text(f"{code}\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir")
    parser.add_argument("--src", default=str(ROOT / "src"), help="tree to import groupwalks from")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    write_outputs(args.outdir, invocations())
    return 0


if __name__ == "__main__":
    sys.exit(main())
