"""One workload process of the chronos benchmark; run.py starts it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                --mode setup|run --t0 EPOCH --workdir DIR

Set-up is everything from process start (`--t0`, taken by the parent just
before it starts this process) to the first timed job: importing chronos,
generating the inputs and one untimed warm-up job that fills lazy caches.
`--mode setup` stops there.  `--mode run` then repeats the workload's job
list, one job after the other (a closed loop with one client), and reports
the median pass.  With `--trace 1` the first half of the time runs
untraced, the second half under the tracer; the tracer module is imported
only then.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_passes(jobs, seconds: float, min_passes: int):
    """Repeat the job list while another pass still fits in `seconds`.

    Returns per-pass wall and CPU seconds, per-pass lists of per-job wall
    seconds, and the failure count.
    """
    walls, cpus, job_walls, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), _cpu_s()
        times = []
        for job in jobs:
            t0 = time.perf_counter()
            failed += workloads.run_jobs([job])
            times.append(time.perf_counter() - t0)
        walls.append(time.perf_counter() - wall0)
        cpus.append(_cpu_s() - cpu0)
        job_walls.append(times)
        elapsed = time.perf_counter() - start
        if len(walls) >= min_passes and elapsed + statistics.median(walls) > seconds:
            return walls, cpus, job_walls, failed


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
            "cpu_model": cpu_model,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CHRONOS_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import chronos
    if os.path.dirname(os.path.dirname(os.path.abspath(chronos.__file__))) != SRC:
        print(f"error: chronos imported from {chronos.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.chdir(args.workdir)
    inputs = workloads.generate(args.workload, args.seed)
    failed = workloads.run_jobs([inputs["warmup"]])
    result = {"setup_s": time.time() - args.t0, "attempted": 1, "failed": failed,
              "inputs_digest": workloads.digest(inputs)}
    if args.mode == "run":
        jobs = inputs["jobs"]
        if args.trace:
            walls, cpus, job_walls, failed = run_passes(jobs, args.seconds / 2, 1)
            import tracer
            tr = tracer.Tracer()
            tr.install()
            try:
                twalls, _, t_job_walls, t_failed = run_passes(jobs, args.seconds / 2, 1)
            finally:
                tr.uninstall()
            failed += t_failed
            result["layers"] = tr.layer_metrics(
                len(twalls), statistics.median(twalls) - statistics.median(walls))
        else:
            walls, cpus, job_walls, failed = run_passes(jobs, args.seconds, 2)
        result.update(
            attempted=result["attempted"] + len(jobs) * len(walls),
            failed=result["failed"] + failed,
            wall_s=statistics.median(walls), cpu_s=statistics.median(cpus),
            pass_wall_s=walls, job_wall_s=job_walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            tracer_imported="tracer" in sys.modules,
            environment=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
