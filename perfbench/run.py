"""Benchmark entry point for chronos.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 15 --trace 0

Run from the repository root.  For one workload run it starts fresh worker
processes one after another, each with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and CHRONOS_THREADS set to 1 and chronos imported from ./src: a few that
only set up (their median is `setup_s`), then one that sets up and runs the
timed job list.  It prints one line with the environment and the inputs
digest, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  README.md in this
directory documents the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("scatter", "oracle", "bubbles", "battery")

SETUP_PROBES = 2        # set-up only workers, besides the timed one
DEADLINE_S = 170.0      # every worker must be done by then


class BenchError(Exception):
    """A worker could not produce a result."""


def _env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               CHRONOS_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def _spawn(args, mode: str, workdir: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.time()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--t0", repr(t0), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(results, trace: bool) -> dict:
    """The result line from the set-up workers' and the timed worker's output."""
    main = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if trace:
        metrics = main["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results),
                        "unit": "s"},
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "cpu_s": {"value": main["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MiB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chronos", "__init__.py")):
        print(f"error: no chronos sources in {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORKDIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        results = [_spawn(args, mode, workdir, deadline)
                   for mode in ["setup"] * SETUP_PROBES + ["run"]]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)
    main_result = results[-1]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_digest": main_result["inputs_digest"],
        "environment": main_result["environment"],
        "setup_s_runs": [r["setup_s"] for r in results],
        "pass_wall_s": main_result["pass_wall_s"],
        "job_wall_s": main_result["job_wall_s"],
    }))
    print(json.dumps(summarize(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
