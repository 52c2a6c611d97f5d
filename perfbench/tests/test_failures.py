"""A failing job is counted in the result, never raised."""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads
from conftest import BENCH, ROOT

GOOD = {"kind": "cli", "gate": "exit0", "name": "good",
        "config": "experiment = asymptotic\nq.diag = -1, -2\norder = 1\n"
                  "output = good.csv\n"}
BAD = {"kind": "cli", "gate": "exit0", "name": "bad",
       "config": "experiment = monte-carlo\nfamily.name = two_level_driven\n"
                 "lambda = -1\ntrials = 100\ncount_draws = 100\noutput = bad.csv\n"}


def test_bad_config_counts_as_a_failed_job(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert workloads.run_jobs([GOOD, BAD, GOOD]) == 1
    assert "job bad failed: chronos run exited 2" in capsys.readouterr().err


def test_exception_counts_as_a_failed_job(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    broken = {"kind": "smooth", "name": "broken", "seed": 0, "dim": 0, "gamma": 0.2}
    assert workloads.run_jobs([broken, GOOD]) == 1


def test_failures_reach_the_result_line():
    setups = [{"setup_s": 2.0, "attempted": 1, "failed": 0} for _ in range(2)]
    main = {"setup_s": 3.0, "attempted": 7, "failed": 2, "wall_s": 1.5,
            "cpu_s": 1.4, "peak_rss_mb": 100.0}
    line = run.summarize(setups + [main], trace=False)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 9, 2)
    assert line["metrics"]["ok_frac"]["value"] == 7 / 9
    assert line["metrics"]["setup_s"]["value"] == 2.0


def test_refuses_to_run_without_chronos_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert "correct" not in line


def test_benchmark_json_names_what_the_benchmark_reports():
    import tracer
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)
    main = {"setup_s": 1.0, "attempted": 1, "failed": 0, "wall_s": 1.0,
            "cpu_s": 1.0, "peak_rss_mb": 1.0}
    metrics = run.summarize([main], trace=False)["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, value["unit"]) for name, value in metrics.items()]
