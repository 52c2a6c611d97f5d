"""Seeded inputs, jobs and accuracy gates of the four benchmark workloads.

`generate(workload, seed)` turns a seed into plain JSON data: the job list
of one pass and one warm-up job.  The program only ever sees what these
jobs hand it (config files, family parameters, selftest seeds).  Draws that
could change a job's cost come in antithetic pairs (u and 1 - u), so the
cost of a pass barely depends on the seed; parameter boxes are kept where
the oracle's step count does not jump between seeds.  README.md in this
directory says why each workload exists.

`run_jobs` runs a job list and counts failures: a job fails on an
exception, a non-zero CLI exit code or a missed accuracy gate.  Chronos
functions are looked up on their modules at call time, so the tracer's
rebinding reaches them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys

import numpy as np

import reference

WORKLOADS = ("scatter", "oracle", "bubbles", "battery")

# scatter: 2 lambda T of the top rate is 800 bubbles on average.  A Poisson
# mixture of unitaries is unitary only as lambda grows; from lambda = 30 on
# the defect stays below the gate over the drawn (e, coupling) box.
SCATTER_LADDER = (30, 80, 200)
SCATTER_WARMUP_LADDER = (30, 40)
HALF_WINDOW = 2
UNITARITY_TOL = 1e-9

# oracle: gates on the product-integral oracle and on series closure.
ORACLE_TOL = 1e-10
CLOSURE_TOL = 1e-7
SMOOTH_DIMS = (4, 6, 8)
DYSON_ORDERS = tuple(range(5))

# bubbles: sampling (count_draws) and U_n (trials) both take a large share.
MC_TRIALS = 1000
MC_COUNT_DRAWS = 10000
MC_LAMBDA = (10.0, 40.0)

SELFTEST_FILES = 10


def _uniform(lo: float, hi: float, u: float) -> float:
    return round(lo + (hi - lo) * u, 6)


def _config(*pairs) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def _scatter_job(name: str, e: float, coupling: float, ladder, seed: int) -> dict:
    text = _config(("experiment", "smatrix-sweep"), ("h0.diag", f"{e!r}, {-e!r}"),
                   ("coupling", repr(coupling)), ("half_window", HALF_WINDOW),
                   ("sweep.lambdas", ", ".join(str(lam) for lam in ladder)),
                   ("tail_tol", "1e-10"), ("seed", seed),
                   ("output", f"{name}.csv"))
    return {"kind": "cli", "gate": "smatrix", "name": name, "config": text,
            "rows": len(ladder)}


def _mc_job(name: str, family: str, params, lam: float, trials: int,
            draws: int, seed: int) -> dict:
    text = _config(("experiment", "monte-carlo"), ("family.name", family),
                   ("family.params", ", ".join(repr(p) for p in params)),
                   ("lambda", repr(lam)), ("trials", trials),
                   ("count_draws", draws), ("seed", seed),
                   ("output", f"{name}.csv"))
    return {"kind": "cli", "gate": "exit0", "name": name, "config": text}


def _count_check_passes(lam: float, draws: int, seed: int) -> bool:
    """The CLI's own 3-sigma count-mean check, computed the way it does.

    An unbiased sampler trips a 3-sigma check on 0.27% of seeds; such a
    seed is a false alarm, not a failure of the code under test, so the
    generator draws the next seed instead (see README.md, known quirks).
    """
    from chronos import path_sum
    cfg = path_sum.PathSumConfig(lam=lam, t=1.0, seed=seed)
    counts = [len(path_sum.sample_bubbles(cfg, path_sum.trial_rng(seed, k)))
              for k in range(draws)]
    return abs(float(np.mean(counts)) - lam) <= 3 * np.sqrt(lam / draws)


def _mc_seed(rnd: random.Random, lam: float, draws: int) -> int:
    while True:
        seed = rnd.randrange(2 ** 31)
        if _count_check_passes(lam, draws, seed):
            return seed


def _scatter(rnd: random.Random) -> dict:
    e, c = _uniform(0.8, 1.2, rnd.random()), _uniform(0.25, 0.4, rnd.random())
    return {"jobs": [_scatter_job("scatter", e, c, SCATTER_LADDER, rnd.randrange(2 ** 31))],
            "warmup": _scatter_job("scatter_warmup", e, c, SCATTER_WARMUP_LADDER, 0)}


def _oracle(rnd: random.Random) -> dict:
    u = [rnd.random() for _ in range(3)]
    jobs = []
    for k, w in enumerate((u, [1 - x for x in u])):
        jobs.append({"kind": "rotating", "name": f"rotating_{k}",
                     "delta": _uniform(1.1, 1.5, w[0]),
                     "omega_r": _uniform(0.65, 0.85, w[1]),
                     "omega": _uniform(1.9, 2.3, w[2]), "t": 1.0})
    for dim in SMOOTH_DIMS:
        jobs.append({"kind": "smooth", "name": f"smooth_d{dim}",
                     "seed": rnd.randrange(2 ** 31), "dim": dim, "gamma": 0.2})
    warmup = dict(jobs[2], name="smooth_warmup")
    return {"jobs": jobs, "warmup": warmup}


def _bubbles(rnd: random.Random) -> dict:
    u = rnd.random()
    lams = (_uniform(*MC_LAMBDA, u), _uniform(*MC_LAMBDA, 1 - u))
    params = [_uniform(0.8, 1.2, rnd.random()) for _ in range(3)]
    damped = params + [_uniform(0.3, 0.7, rnd.random())]
    jobs = [
        _mc_job("bubbles_driven", "two_level_driven", params, lams[0],
                MC_TRIALS, MC_COUNT_DRAWS, _mc_seed(rnd, lams[0], MC_COUNT_DRAWS)),
        _mc_job("bubbles_damped", "damped_two_level", damped, lams[1],
                MC_TRIALS, MC_COUNT_DRAWS, _mc_seed(rnd, lams[1], MC_COUNT_DRAWS)),
    ]
    draws = MC_COUNT_DRAWS // 10
    warmup = _mc_job("bubbles_warmup", "two_level_driven", params, lams[0],
                     MC_TRIALS // 10, draws, _mc_seed(rnd, lams[0], draws))
    return {"jobs": jobs, "warmup": warmup}


def _battery(rnd: random.Random) -> dict:
    seed = rnd.randrange(2 ** 31)
    return {"jobs": [{"kind": "selftest", "name": "battery", "seed": seed,
                      "passes": 2}],
            "warmup": {"kind": "selftest", "name": "battery_warmup",
                       "seed": seed, "passes": 1}}


_GENERATORS = {"scatter": _scatter, "oracle": _oracle, "bubbles": _bubbles,
               "battery": _battery}


def generate(workload: str, seed: int) -> dict:
    """The job list and warm-up job of a workload, fixed by the seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"chronos-bench/{workload}/{seed}"))


def serialize(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def digest(inputs: dict) -> str:
    return hashlib.sha256(serialize(inputs)).hexdigest()[:16]


def _fail(job: dict, why: str) -> bool:
    print(f"job {job['name']} failed: {why}", file=sys.stderr)
    return False


def _read_csv_rows(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _run_cli(job: dict) -> bool:
    from chronos import cli
    path = f"{job['name']}.cfg"
    with open(path, "w") as fh:
        fh.write(job["config"])
    code = cli.run(path)
    if code != 0:
        return _fail(job, f"chronos run exited {code}")
    if job["gate"] == "smatrix":
        rows = _read_csv_rows(f"{job['name']}.csv")
        if len(rows) != job["rows"]:
            return _fail(job, f"{len(rows)} rows, expected {job['rows']}")
        worst = max(float(r["unitarity_defect"]) for r in rows)
        if not worst <= UNITARITY_TOL:
            return _fail(job, f"unitarity defect {worst:.3e} > {UNITARITY_TOL:g}")
    return True


def _run_rotating(job: dict) -> bool:
    from chronos import propagators
    f = reference.rotating_field_family(job["delta"], job["omega_r"],
                                        job["omega"], job["t"])
    U = propagators.product_integral(f, 0.0, job["t"], ORACLE_TOL).U
    exact = reference.rotating_field_propagator(job["delta"], job["omega_r"],
                                                job["omega"], job["t"])
    err = float(np.linalg.norm(U - exact, 2))
    if not err <= ORACLE_TOL:
        return _fail(job, f"oracle is {err:.3e} from the closed form")
    return True


def _run_smooth(job: dict) -> bool:
    from chronos import families, propagators
    f = families.builtin_family("random_smooth",
                                (job["seed"], job["dim"], job["gamma"]))
    oracle = propagators.product_integral(f, f.a, f.b, ORACLE_TOL).U
    for n in DYSON_ORDERS:
        exp = propagators.dyson_expansion(f, f.a, f.b, n)
        closure = float(np.linalg.norm(exp.partial_sum(1.0) + exp.remainder
                                       - oracle, 2))
        if not closure <= CLOSURE_TOL:
            return _fail(job, f"order-{n} closure {closure:.3e} > {CLOSURE_TOL:g}")
    return True


def _run_selftest(job: dict) -> bool:
    from chronos import cli
    outdirs = [f"{job['name']}_{k}" for k in range(job["passes"])]
    try:
        outputs = []
        for outdir in outdirs:
            shutil.rmtree(outdir, ignore_errors=True)
            code = cli.selftest(outdir, job["seed"])
            if code != 0:
                return _fail(job, f"chronos selftest exited {code}")
            files = {}
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), "rb") as fh:
                    files[name] = fh.read()
            if len(files) != SELFTEST_FILES:
                return _fail(job, f"{len(files)} output files, expected {SELFTEST_FILES}")
            outputs.append(files)
        if any(out != outputs[0] for out in outputs[1:]):
            return _fail(job, "selftest outputs differ between passes")
        return True
    finally:
        for outdir in outdirs:
            shutil.rmtree(outdir, ignore_errors=True)


_RUNNERS = {"cli": _run_cli, "rotating": _run_rotating, "smooth": _run_smooth,
            "selftest": _run_selftest}


def run_jobs(jobs) -> int:
    """Run jobs in order in the current directory; return the failure count."""
    failed = 0
    for job in jobs:
        try:
            ok = _RUNNERS[job["kind"]](job)
        except Exception as exc:  # a failing job is counted, never raised
            ok = _fail(job, f"{type(exc).__name__}: {exc}")
        failed += not ok
    return failed
