"""Self time on nested spans, restoration of every rebound name, and no
tracer in untraced runs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import chronos
import tracer
from chronos import families, linalg, path_sum, smatrix
from conftest import BENCH, ROOT


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 9.0],
        ["d", 2, 6.0, 7.0],
        ["b", -1, 20.0, 22.0],
    ]
    assert tracer.self_times(spans) == pytest.approx(
        {"a": 3.0, "b": 5.0, "c": 3.0, "d": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [["p", -1, 0.0, 10.0], ["x", 0, 1.0, 5.0], ["y", 0, 3.0, 6.0],
             ["z", 0, 8.0, 12.0]]
    assert tracer.self_times(spans)["p"] == pytest.approx(10.0 - 5.0 - 2.0)


def _bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if module is not None and (name == "chronos" or name.startswith("chronos."))
            for key, value in vars(module).items() if callable(value)}


def _small_run():
    f = families.builtin_family("two_level_driven", (1.0, 0.5, 1.0))
    res = path_sum.U_lambda(f, path_sum.PathSumConfig(lam=5.0, t=1.0))
    cfg = smatrix.SMatrixConfig(H0=np.diag([1.0, -1.0]), V=0.3 * families.SIGMA_X,
                                T=1.0, lam=5.0)
    smatrix.S_lambda(cfg)
    return res


def test_every_rebound_name_is_restored():
    import chronos.cli  # noqa: F401  (the tracer rebinds names there too)
    before = _bindings()
    methods = (chronos.film.ExchangeOperator.dense, chronos.film.SlotOperator.apply)
    original = linalg.expm_stack
    tr = tracer.Tracer()
    tr.install()
    try:
        assert chronos.path_sum.expm_stack is not original
        assert chronos.linalg.expm_stack is not original
        assert tracer.traced_names()
        _small_run()
    finally:
        tr.uninstall()
    assert tracer.traced_names() == []
    assert _bindings() == before
    assert chronos.path_sum.expm_stack is chronos.linalg.expm_stack
    assert chronos.smatrix.expm_stack is chronos.linalg.expm_stack
    assert chronos.expm_stack is linalg.expm_stack
    assert (chronos.film.ExchangeOperator.dense, chronos.film.SlotOperator.apply) == methods


def test_traced_run_counts_layers_and_windows():
    tr = tracer.Tracer()
    tr.install()
    try:
        res = _small_run()
    finally:
        tr.uninstall()
    metrics = tr.layer_metrics(passes=1, overhead_s=0.0)
    assert [name for name, _, _ in tracer.PER_LAYER] == list(metrics)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["path_sum.poisson_window.n_max"] >= res.extras["n_max"]
    u_lambda_terms = res.step_count
    assert value["path_sum.poisson_window.terms"] > u_lambda_terms
    # Each of the two windows sums its n = 0 term through matrix_exp.
    assert value["path_sum.U_n.calls"] == value["path_sum.poisson_window.terms"] - 2
    assert 0 < value["path_sum.poisson_window.used_frac"] <= 1
    assert value["smatrix.S_lambda.calls"] == 1
    assert value["smatrix.interaction_batch.nodes"] > 0
    assert value["families.evaluate_batch.nodes"] > 0
    assert value["linalg.expm_stack.matrices"] >= value["path_sum.U_n.cells"]
    assert value["linalg.expm_stack.self_s"] > 0


def test_product_integral_matrices_cover_every_halving_level():
    tr = tracer.Tracer()
    tr.install()
    try:
        res = chronos.propagators.product_integral(
            families.builtin_family("two_level_driven"), 0.0, 1.0, 1e-6)
    finally:
        tr.uninstall()
    value = {n: m["value"] for n, m in tr.layer_metrics(1, 0.0).items()}
    assert value["propagators.product_integral.steps"] == res.step_count
    assert value["propagators.product_integral.matrices"] == sum(
        16 << k for k in range(int(np.log2(res.step_count // 16)) + 1))
    assert 0.5 <= value["propagators.product_integral.useful_frac"] < 1


def test_untraced_run_imports_no_tracer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", CHRONOS_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "battery",
         "--seed", "3", "--seconds", "0.1", "--trace", "0", "--mode", "run",
         "--t0", "0", "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["tracer_imported"] is False
    assert "layers" not in result
    assert result["failed"] == 0
