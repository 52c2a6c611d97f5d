"""Seeded input generation: same seed, same bytes; each result records it."""

import json
import os
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.generate(workload, 7)
    second = workloads.generate(workload, 7)
    assert workloads.serialize(first) == workloads.serialize(second)
    configs = [job["config"] for job in first["jobs"] + [first["warmup"]]
               if "config" in job]
    assert configs == [job["config"] for job in second["jobs"] + [second["warmup"]]
                       if "config" in job]
    assert workloads.digest(first) == workloads.digest(second)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert (workloads.digest(workloads.generate(workload, 7))
            != workloads.digest(workloads.generate(workload, 8)))


def test_antithetic_draws_keep_the_pass_cost_fixed():
    for seed in range(5):
        jobs = workloads.generate("bubbles", seed)["jobs"]
        lams = [float(j["config"].split("lambda = ")[1].split("\n")[0]) for j in jobs]
        assert sum(lams) == pytest.approx(sum(workloads.MC_LAMBDA), abs=1e-5)
        oracle = workloads.generate("oracle", seed)["jobs"]
        assert [j["dim"] for j in oracle if j["kind"] == "smooth"] == list(workloads.SMOOTH_DIMS)


def test_worker_result_records_the_inputs_digest(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", CHRONOS_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "battery",
         "--seed", "5", "--seconds", "1", "--mode", "setup", "--t0", "0",
         "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["inputs_digest"] == workloads.digest(workloads.generate("battery", 5))
    assert result["failed"] == 0
