"""Acceptance suite: one criterion per test, one printed pass/fail line each."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from chronos.families import (SIGMA_X, SIGMA_Z, builtin_family,
                              family_from_matrix, integrate_family)
from chronos.film import FilmSpace, commutation_check, embed, exchange
from chronos.film import slot_operator_norm, verify_eq38
from chronos.linalg import (matrix_exp, operator_norm, random_dissipative,
                            resolvent)
from chronos.path_sum import (PathSumConfig, U_lambda, U_n,
                              conditional_single_bubble_check, make_partition,
                              monte_carlo_U, sample_bubbles, trial_rng)
from chronos.propagators import (asymptotic_probe, dyson_expansion,
                                 dyson_terms, product_integral, remainder_310,
                                 taylor_partial_sum)
from chronos.quadrature import loglog_slope
from chronos.smatrix import (SMatrixConfig, S_lambda, dyson_S_expansion,
                             energy_shift_identity, fixed_dt_S, oracle_S)

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_lambda_sweep.json")


@pytest.fixture
def report(capsys, request):
    """Print the criterion verdict through pytest's capture."""
    outcome = {"ok": False, "detail": ""}
    yield outcome
    label = request.function.__doc__.strip()
    with capsys.disabled():
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"[{status}] {label}: {outcome['detail']}")


def test_criterion_1_contraction_suite(report):
    """criterion 1, contraction semigroups and resolvent bounds"""
    rng = np.random.default_rng(101)
    worst_norm = 0.0
    worst_resolvent = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 9))
        H = random_dissipative(rng, d)
        fam = family_from_matrix(H)
        Q = integrate_family(fam, 0.0, 1.0)
        norms = [
            operator_norm(product_integral(fam, 0.0, 1.0, 1e-9).U),
            operator_norm(matrix_exp(1.0 * Q)),
            operator_norm(U_n(fam, make_partition(0.0, 1.0, 7)).U),
        ]
        if trial % 5 == 0:
            cfg = PathSumConfig(lam=4.0, t=1.0, tail_tol=1e-8)
            norms.append(operator_norm(U_lambda(fam, cfg).U))
            H0 = np.diag(rng.standard_normal(d))
            V = 1j * 0.5 * (H - H.conj().T)
            smc = SMatrixConfig(H0=H0, V=V, T=0.5, lam=4.0)
            norms.append(operator_norm(S_lambda(smc, 1e-8).U))
        worst_norm = max(worst_norm, max(norms))
        for z in (0.5, 2.0):
            excess = operator_norm(resolvent(H, z)) - 1.0 / z
            worst_resolvent = max(worst_resolvent, excess)
    report["ok"] = worst_norm <= 1.0 + 1e-9 and worst_resolvent <= 1e-10
    report["detail"] = (f"max propagator norm {worst_norm:.12f}, "
                        f"max resolvent excess {worst_resolvent:.2e}")
    assert worst_norm <= 1.0 + 1e-9
    assert worst_resolvent <= 1e-10


def test_criterion_2_second_exponential_exactness(report):
    """criterion 2, exact Taylor remainder closes exp(wQ)"""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        Q = random_dissipative(rng, d)
        n = int(rng.integers(0, 5))
        w = float(rng.uniform(0.1, 2.0))
        closure = taylor_partial_sum(Q, n, w) + remainder_310(Q, n, w)
        worst = max(worst, float(np.linalg.norm(closure - matrix_exp(w * Q), 2)))
    report["ok"] = worst <= 1e-8
    report["detail"] = f"worst closure residual {worst:.2e} (tol 1e-8)"
    assert worst <= 1e-8


def test_criterion_3_asymptotic_order_and_limit(report):
    """criterion 3, truncation residual is asymptotic of order n+1"""
    rng = np.random.default_rng(303)
    details = []
    ok = True
    for n in (1, 2, 3):
        Q = random_dissipative(rng, 3)
        w_list = [0.08 * 0.5 ** k for k in range(5)]
        order, limit, _ = asymptotic_probe(Q, n, w_list)
        ref = np.linalg.matrix_power(Q, n + 1) / math.factorial(n + 1)
        rel = np.linalg.norm(limit - ref, 2) / np.linalg.norm(ref, 2)
        ok = ok and abs(order - (n + 1)) <= 0.1 and rel <= 0.05
        details.append(f"n={n}: order {order:.3f}, limit gap {rel:.1%}")
    report["ok"] = ok
    report["detail"] = "; ".join(details)
    assert ok


def test_criterion_4_series_vs_oracle(report):
    """criterion 4, time-ordered series collapse and tail bound"""
    grid = 1024
    h = 1.0 / grid
    fam_c = builtin_family("scalar_commuting")
    Q = integrate_family(fam_c, 0.0, 1.0)
    exp_c = dyson_terms(fam_c, 0.0, 1.0, 5)
    worst_collapse = max(
        np.linalg.norm(T - np.linalg.matrix_power(Q, k) / math.factorial(k), 2)
        for k, T in enumerate(exp_c.terms))
    collapse_ok = worst_collapse <= 10 * h ** 3

    tail_ok = True
    worst_margin = 0.0
    for name in ("two_level_driven", "random_smooth"):
        fam = builtin_family(name)
        oracle = product_integral(fam, 0.0, 1.0, 1e-10).U
        exp = dyson_terms(fam, 0.0, 1.0, 5)
        ts = np.linspace(0.0, 1.0, 101)
        M = max(np.linalg.norm(H, 2) for H in fam.evaluate_batch(ts))
        partial = np.zeros_like(oracle)
        for n in range(6):
            partial = partial + exp.terms[n]
            tail = np.linalg.norm(oracle - partial, 2)
            bound = (M ** (n + 1)) / math.factorial(n + 1) * math.exp(M)
            tail_ok = tail_ok and tail <= bound
            worst_margin = max(worst_margin, tail / bound)
    report["ok"] = collapse_ok and tail_ok
    report["detail"] = (f"collapse residual {worst_collapse:.2e} "
                        f"(tol {10 * h ** 3:.2e}), worst tail/bound "
                        f"{worst_margin:.3f}")
    assert collapse_ok
    assert tail_ok


def test_criterion_5_film_identities(report):
    """criterion 5, film exchange axioms and norm identities"""
    rng = np.random.default_rng(505)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    worst_exchange = 0.0
    worst_commutation = 0.0
    for N in range(2, 7):
        film = FilmSpace(2, tuple(np.linspace(0.1, 0.9, N)))
        for j, k in itertools.permutations(range(1, N + 1), 2):
            P = exchange(j, k, film).dense()
            r = np.linalg.norm(
                P @ embed(H, j, film).dense() @ np.linalg.inv(P)
                - embed(H, k, film).dense(), 2)
            r = max(r, np.linalg.norm(
                P @ exchange(k, j, film).dense() - np.eye(film.full_dim), 2))
            worst_exchange = max(worst_exchange, float(r))
            worst_commutation = max(
                worst_commutation, commutation_check(A, B, j, k, film))
    iso_gap = 0.0
    for N in (1, 4, 8):
        film = FilmSpace(2, tuple(np.linspace(0.1, 0.9, N)) if N > 1 else (0.5,))
        iso_gap = max(iso_gap, abs(
            slot_operator_norm(embed(H, 1, film)) - operator_norm(H)))
    worst_38 = 0.0
    fam = builtin_family("two_level_driven")
    for N in (1, 3, 5, 8):
        film = FilmSpace(2, tuple(np.linspace(0.05, 0.95, N)) if N > 1 else (0.5,))
        worst_38 = max(worst_38, verify_eq38(fam, film, 25.0, 0))
    ok = (worst_exchange <= 1e-13 and worst_commutation <= 1e-12
          and iso_gap <= 1e-9 and worst_38 <= 1e-10)
    report["ok"] = ok
    report["detail"] = (f"exchange {worst_exchange:.1e}, commutation "
                        f"{worst_commutation:.1e}, isometry {iso_gap:.1e}, "
                        f"norm identity {worst_38:.1e}")
    assert worst_exchange <= 1e-13
    assert worst_commutation <= 1e-12
    assert iso_gap <= 1e-9
    assert worst_38 <= 1e-10


def test_criterion_6_sum_over_paths_convergence(report):
    """criterion 6, Poisson sum over paths converges to the propagator"""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    fam = builtin_family(golden["family"], interval=tuple(golden["interval"]))
    oracle = product_integral(fam, golden["interval"][0],
                              golden["interval"][1], 1e-11).U
    errs = []
    for lam in (10.0, 100.0, 1000.0):
        cfg = PathSumConfig(lam=lam, t=golden["interval"][1],
                            tail_tol=golden["tail_tol"])
        errs.append(float(np.linalg.norm(U_lambda(fam, cfg).U - oracle, 2)))
    decreasing = errs[2] < errs[1] < errs[0]
    below_golden = errs[2] <= golden["terminal_threshold"]

    worst_commuting = 0.0
    fam_c = builtin_family("scalar_commuting")
    target = matrix_exp(integrate_family(fam_c, 0.0, 1.0))
    for lam in (10.0, 100.0, 1000.0):
        res = U_lambda(fam_c, PathSumConfig(lam=lam, t=1.0))
        worst_commuting = max(worst_commuting, float(
            np.linalg.norm(res.U - target, 2)))
    ok = decreasing and below_golden and worst_commuting <= 1e-12
    report["ok"] = ok
    report["detail"] = (f"errs {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}, "
                        f"golden threshold {golden['terminal_threshold']:.2e}, "
                        f"commuting residual {worst_commuting:.1e}")
    assert decreasing
    assert below_golden
    assert worst_commuting <= 1e-12


def test_criterion_7_monte_carlo_consistency(report):
    """criterion 7, Monte Carlo bubble statistics and reproducibility"""
    cfg = PathSumConfig(lam=20.0, t=1.0, trials=1000, seed=7)
    draws = 10 ** 5
    counts = np.fromiter(
        (len(sample_bubbles(cfg, trial_rng(cfg.seed, k))) for k in range(draws)),
        dtype=float, count=draws)
    sigma = math.sqrt(cfg.lam * cfg.t / draws)
    count_ok = abs(counts.mean() - cfg.lam * cfg.t) <= 3 * sigma

    fam = builtin_family("two_level_driven")
    single = PathSumConfig(lam=1.0, t=1.0, trials=2000, seed=7)
    cond_mean, quad, stderr, n_used = conditional_single_bubble_check(fam, single)
    cond_ok = bool(np.all(np.abs(cond_mean - quad) <= 3 * stderr + 1e-12))

    r1 = monte_carlo_U(fam, PathSumConfig(lam=10.0, t=1.0, trials=300, seed=3))
    r2 = monte_carlo_U(fam, PathSumConfig(lam=10.0, t=1.0, trials=300, seed=3))
    seed_ok = (np.array_equal(r1.U, r2.U)
               and np.array_equal(r1.extras["stderr"], r2.extras["stderr"]))
    ok = count_ok and cond_ok and seed_ok
    report["ok"] = ok
    report["detail"] = (f"count mean {counts.mean():.4f} vs {cfg.lam * cfg.t} "
                        f"(3 sigma {3 * sigma:.4f}), conditional n=1 over "
                        f"{n_used} trials {'ok' if cond_ok else 'FAILED'}, "
                        f"fixed seed byte-identical {seed_ok}")
    assert count_ok
    assert cond_ok
    assert seed_ok


def test_criterion_8_smatrix_suite(report):
    """criterion 8, scattering identities and fixed-step order"""
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0)
    eye = np.eye(2)
    S_ref = oracle_S(cfg).U
    defects = [float(np.linalg.norm(S.conj().T @ S - eye, 2)) for S in (
        S_ref,
        S_lambda(SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0,
                               lam=1000.0)).U,
        fixed_dt_S(SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0,
                                 lam=16.0)))]
    unitarity_ok = max(defects) <= 1e-9

    shift_worst = max(
        energy_shift_identity(SMatrixConfig(
            H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0, lam=1.5), n)
        for n in range(21))
    shift_ok = shift_worst <= 1e-12

    closure_worst = 0.0
    for n in range(5):
        exp = dyson_S_expansion(cfg, n)
        closure_worst = max(closure_worst, float(np.linalg.norm(
            exp.partial_sum() + exp.remainder - S_ref, 2)))
    closure_ok = closure_worst <= 1e-7

    lams = [2.0, 4.0, 8.0, 16.0, 32.0]
    errs = [float(np.linalg.norm(fixed_dt_S(SMatrixConfig(
        H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0, lam=lam)) - S_ref, 2))
        for lam in lams]
    order = -loglog_slope(lams, errs)
    order_ok = order >= 1.9 and all(b < a for a, b in zip(errs, errs[1:]))
    ok = unitarity_ok and shift_ok and closure_ok and order_ok
    report["ok"] = ok
    report["detail"] = (f"unitarity defect {max(defects):.1e}, bubble-rate "
                        f"shift {shift_worst:.1e}, series closure "
                        f"{closure_worst:.1e}, fixed-step order {order:.3f}")
    assert unitarity_ok
    assert shift_ok
    assert closure_ok
    assert order_ok


def test_criterion_9_determinism(report, tmp_path):
    """criterion 9, selftest output is byte-identical across runs"""
    from chronos.cli import selftest
    d1, d2 = tmp_path / "one", tmp_path / "two"
    code1 = selftest(str(d1), seed=2026)
    code2 = selftest(str(d2), seed=2026)
    names = sorted(os.listdir(d1))
    identical = (names == sorted(os.listdir(d2)) and all(
        (d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names))
    ok = code1 == 0 and code2 == 0 and identical
    report["ok"] = ok
    report["detail"] = (f"selftest exits ({code1}, {code2}), "
                        f"{len(names)} files byte-identical: {identical}")
    assert code1 == 0 and code2 == 0
    assert identical
