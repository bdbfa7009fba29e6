"""One workload in one process: set-up, warm-up, then timed passes.

Started by ``run.py``; prints one JSON line.  In ``setup`` mode the process
stops at the point where the first timed job would start, so that set-up
time can be sampled more than once per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

from oracles import OracleError

MIN_JOBS = 100        # so that at least ten job latencies lie beyond p90
MAX_MEASURE_S = 120   # hard stop, whatever --seconds says
CAL_REF_S = 0.0025    # typical calibrate() time on the reference machine (2 vCPU, 2.0 GHz)
CAL_PERIOD_S = 0.2    # calibration interval while a job runs
CAL_MARGIN = 2        # calibrations on each side of a job that also set its speed factor


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed.

    The host this benchmark was tuned on runs the same code up to 40% slower
    for tens of seconds at a time; scaling each timing by CAL_REF_S / (the
    median calibration around it) removes most of that drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibrations in time order: one before each job and, when sampling,
    one every CAL_PERIOD_S while the job runs (from a SIGALRM handler, whose
    own time is taken out of the job's time)."""

    def __init__(self, sample: bool):
        self.sample = sample
        self.cals: list[float] = []
        self.spans: list[tuple[int, int]] = []  # per job: its calibrations [lo, hi)
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.cals.append(calibrate())
        self.spent += time.perf_counter() - t0

    def run(self, fn):
        """fn() with calibrations around it; returns fn's seconds net of them."""
        lo = len(self.cals)
        self.cals.append(calibrate())
        spent0 = self.spent
        if self.sample:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            dt = fn()
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.spans.append((lo, len(self.cals)))
        return dt - (self.spent - spent0)

    def factors(self) -> list[float]:
        """Per job, CAL_REF_S over the median of its calibrations and
        CAL_MARGIN more on each side."""
        self.cals.append(calibrate())
        return [CAL_REF_S / statistics.median(
                    self.cals[max(0, lo - CAL_MARGIN):hi + CAL_MARGIN])
                for lo, hi in self.spans]


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        import threadpoolctl  # noqa: F401
        tpc = True
    except ImportError:
        tpc = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "threadpoolctl": tpc,  # without it GROUPWALKS_THREADS has no effect
    }


def run_job(job, tracer, job_id, probe=None):
    """Time job.run() alone; check its output afterwards. Returns (seconds, error)."""
    result = {}

    def timed():
        tracer.job = job_id
        t0 = time.perf_counter()
        try:
            result["out"] = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            result["err"] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        tracer.job = None
        return dt

    dt = probe.run(timed) if probe else timed()
    out, err = result.get("out"), result.get("err")
    if err is None:
        try:
            job.check(out)
        except OracleError as exc:
            err = f"oracle: {exc}"
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    return dt, err


def main() -> int:
    start_cals = [calibrate() for _ in range(3)]
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import groupwalks

    if not os.path.abspath(groupwalks.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"groupwalks imported from {groupwalks.__file__}, not from {src}")
    import tracing as tr
    import workloads

    work_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(work_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_dir)
    try:
        tracer = tr.Tracer()
        jobs = workloads.build(args.workload, args.seed, 0, tmp)
        attempted = failed = 0
        failures: list[str] = []
        for job in workloads.warmups(jobs):
            _, err = run_job(job, tracer, None)
            attempted += 1
            if err:
                failed += 1
                failures.append(f"warm-up {job.kind} {job.label}: {err}")
        if args.trace:
            tracer.install()
        t_ready = time.monotonic()
        setup_factor = CAL_REF_S / statistics.median(start_cals + [calibrate() for _ in range(3)])
        if args.mode == "setup":
            print(json.dumps({"t_ready": t_ready, "setup_factor": setup_factor,
                              "attempted": attempted, "failed": failed, "failures": failures}))
            return 0

        pass_sizes: list[int] = []
        samples: list[float] = []
        # spans would include the sampling handler's time, so traced runs only
        # calibrate between jobs
        probe = SpeedProbe(sample=not args.trace)
        trial_steps: list[int] = []
        output_bytes = 0
        pass_index = 0
        while True:
            for i, job in enumerate(jobs):
                dt, err = run_job(job, tracer, pass_index * 10_000 + i, probe)
                samples.append(dt)
                attempted += 1
                if err:
                    failed += 1
                    failures.append(f"{job.kind} {job.label}: {err}")
                trial_steps.append(job.trial_steps)
                if job.out:
                    for path in (job.out, job.out + ".meta.json"):
                        if os.path.exists(path):
                            output_bytes += os.path.getsize(path)
                            os.remove(path)
            pass_sizes.append(len(jobs))
            pass_index += 1
            elapsed = time.monotonic() - t_ready
            next_end = elapsed * (pass_index + 1) / pass_index
            if len(samples) >= MIN_JOBS and (next_end > args.seconds or elapsed > MAX_MEASURE_S):
                break
            jobs = workloads.build(args.workload, args.seed, pass_index, tmp)
        scaled = [dt * f for dt, f in zip(samples, probe.factors())]
        bounds = [sum(pass_sizes[:k]) for k in range(len(pass_sizes) + 1)]

        result = {
            "t_ready": t_ready,
            "setup_factor": setup_factor,
            "passes_raw": [sum(samples[a:b]) for a, b in zip(bounds, bounds[1:])],
            "passes": [sum(scaled[a:b]) for a, b in zip(bounds, bounds[1:])],
            "samples_raw": samples,
            "samples": scaled,
            "attempted": attempted,
            "failed": failed,
            "failures": failures[:20],
            "trial_steps": sum(trial_steps),
            "traj_time": sum(s for s, n in zip(scaled, trial_steps) if n),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
        if args.trace:
            layers = tr.layer_metrics(tracer.spans, tracer.counts, tracer.calls,
                                      pass_index, sum(samples))
            layers["cli.output_bytes"] = output_bytes / pass_index
            result["layers"] = layers
            if args.spans:
                tracer.dump(args.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
