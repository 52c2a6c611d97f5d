import functools
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import chronos
from chronos import path_sum
from chronos.errors import (ChronosError, ConfigError, ConsistencyError,
                            DomainError, ResourceError)
from chronos.families import (SIGMA_X, SIGMA_Z, GeneratorFamily, SeparableForm,
                              builtin_family, family_from_evaluator,
                              family_from_matrix, integrate_family)
from chronos.linalg import _pade_choice, expm_stack, matrix_exp, operator_norm
from chronos.film import midpoint_edges
from chronos.path_sum import (PathSumConfig, U_lambda, U_n, bubble_counts,
                              conditional_single_bubble_check, make_partition,
                              monte_carlo_U, poisson_mixture, poisson_truncation,
                              poisson_weight, sample_bubbles, stieltjes_form,
                              trial_rng)
from chronos.propagators import PropagatorResult, ordered_product, product_integral
from chronos.quadrature import _GAUSS5_NODES, _GAUSS5_WEIGHTS, loglog_slope
from helpers import cell_generators


def test_config_validation():
    with pytest.raises(ConfigError):
        PathSumConfig(lam=-1.0, t=1.0)
    with pytest.raises(ConfigError):
        PathSumConfig(lam=1.0, t=0.0)
    with pytest.raises(ConfigError):
        PathSumConfig(lam=1.0, t=1.0, tail_tol=0.0)
    with pytest.raises(ConfigError):
        PathSumConfig(lam=1.0, t=1.0, seed=-1)
    # An infinite rate or horizon is a malformed config, not a resource cap.
    for bad in ({"lam": math.inf, "t": 1.0}, {"lam": 1.0, "t": math.inf},
                {"lam": math.nan, "t": 1.0}, {"lam": 1.0, "t": math.nan}):
        with pytest.raises(ConfigError, match="finite"):
            PathSumConfig(**bad)
    for bad in ({"trials": 150.5}, {"trials": 200.0}, {"trials": "200"},
                {"seed": 1.5}, {"seed": 2.0}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            PathSumConfig(lam=1.0, t=1.0, **bad)
    cfg = PathSumConfig(lam=1.0, t=1.0, trials=np.int64(150), seed=np.uint32(3))
    assert (cfg.trials, cfg.seed) == (150, 3)


def test_single_cell_partition():
    assert np.array_equal(make_partition(0.0, 1.0, 1), [0.0, 1.0])


def test_two_cell_partition():
    # Centers 0.5 and 1.0: one interior edge at their midpoint.
    assert np.array_equal(make_partition(0.0, 1.0, 2), [0.0, 0.75, 1.0])


def test_partition_starts_at_its_first_argument():
    # Centers 1.5 and 2.0 on [1, 2]: the centers move with the start.
    assert np.array_equal(make_partition(1.0, 1.0, 2), [1.0, 1.75, 2.0])
    assert np.array_equal(make_partition(-2.0, 4.0, 4),
                          midpoint_edges(-2.0, 2.0, [-1.0, 0.0, 1.0, 2.0]))


def test_partition_widths_telescope():
    edges = make_partition(0.0, 3.0, 10 ** 4)
    assert edges.shape == (10 ** 4 + 1,)
    assert np.sum(np.diff(edges)) == pytest.approx(3.0, abs=1e-12)


def test_partition_validation():
    with pytest.raises(DomainError):
        make_partition(0.0, 1.0, 0)
    with pytest.raises(DomainError):
        make_partition(0.0, -1.0, 4)
    for n in (2.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="integer"):
            make_partition(0.0, 1.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, t in ((0.0, math.inf), (0.0, math.nan), (math.nan, 1.0),
                     (-math.inf, 1.0)):
            with pytest.raises(DomainError):
                make_partition(a, t, 3)
    assert np.array_equal(make_partition(0.0, 1.0, np.int64(2)), [0.0, 0.75, 1.0])


def test_cell_generator_constant_family():
    fam = family_from_matrix(-1j * SIGMA_Z)
    edges = make_partition(0.0, 1.0, 4)
    A = cell_generators(fam, edges)
    for j, width in enumerate(np.diff(edges)):
        assert np.allclose(A[j], width * (-1j * SIGMA_Z), atol=1e-12)


def test_cell_generator_linear_family():
    fam = family_from_evaluator(lambda t: t * SIGMA_X)
    A = cell_generators(fam, np.array([0.25, 0.75]))
    assert np.allclose(A[0], 0.25 * SIGMA_X, atol=1e-12)


def test_cell_generators_sum_to_full_integral():
    fam = builtin_family("two_level_driven")
    total = cell_generators(fam, make_partition(0.0, 1.0, 7)).sum(axis=0)
    assert np.linalg.norm(total - integrate_family(fam, 0.0, 1.0), 2) <= 2e-10


def test_cell_generators_reject_cells_outside_the_family():
    fam = builtin_family("two_level_driven")  # lives on [0, 1]
    with pytest.raises(DomainError):
        U_n(fam, make_partition(0.0, 3.0, 4))
    with pytest.raises(DomainError):
        cell_generators(fam, np.array([-0.5, 0.5, 1.0]))
    with pytest.raises(DomainError):
        U_n(fam, np.array([0.0, np.nan]))
    # Interior edges outside the family, out of order or NaN; a batch with
    # one such row.  No numpy warning may come first.
    for edges in ([0.0, 5.0, 1.0], [0.0, 0.8, 0.2, 1.0], [0.0, np.nan, 1.0],
                  [[0.0, 0.5, 1.0], [0.0, 0.6, 0.4]]):
        with warnings.catch_warnings(), pytest.raises(DomainError):
            warnings.simplefilter("error")
            U_n(fam, np.array(edges))


def test_cell_generators_take_a_list_and_zero_width_cells():
    fam = builtin_family("two_level_driven")
    edges = [0.0, 0.5, 0.5, 1.0]
    A = cell_generators(fam, edges)
    assert np.array_equal(A, cell_generators(fam, np.array(edges)))
    assert not A[1].any()
    assert U_n(fam, edges).step_count == 3


def test_U_n_constant_family_collapses():
    H = -1j * SIGMA_Z - 0.1 * np.eye(2)
    fam = family_from_matrix(H)
    for n in (1, 3, 16):
        U = U_n(fam, make_partition(0.0, 1.0, n)).U
        assert np.linalg.norm(U - matrix_exp(H), 2) <= 1e-12


def test_U_n_step_counts_differ_by_commutators():
    fam = builtin_family("two_level_driven")
    U1 = U_n(fam, make_partition(0.0, 1.0, 1)).U
    U2 = U_n(fam, make_partition(0.0, 1.0, 2)).U
    gap = np.linalg.norm(U1 - U2, 2)
    assert 1e-6 < gap < 0.1


def test_U_n_second_order_convergence():
    fam = builtin_family("two_level_driven")
    oracle = product_integral(fam, 0.0, 1.0, 1e-11).U
    ns = [4, 8, 16, 32, 64, 128, 256]
    errs = [np.linalg.norm(U_n(fam, make_partition(0.0, 1.0, n)).U - oracle, 2)
            for n in ns]
    assert -loglog_slope(ns, errs) >= 1.9


def reference_cells(f, edges):
    """Cell integrals of edges (..., n + 1) by one plain formula: composite
    Gauss-5 per cell on max(1, ceil(80 / 5n)) panels, of H, or for a family
    with a separable form of its coefficients, then summed with its
    matrices (the first rows of its table) term by term."""
    edges = np.asarray(edges)
    widths = np.diff(edges)[..., None]
    panels = max(1, -(-80 // (5 * (edges.shape[-1] - 1))))
    sub = np.linspace(0.0, 1.0, panels + 1)
    lo = edges[..., :-1, None] + widths * sub[:-1]
    width = widths * (1.0 / panels)
    mid = lo + 0.5 * width
    nodes = (mid[..., None] + 0.5 * width[..., None] * _GAUSS5_NODES).reshape(-1)
    w = 0.5 * width[..., None] * _GAUSS5_WEIGHTS
    form = f.separable
    if form is None:
        H = f.evaluate_batch(nodes).reshape(lo.shape + (5, f.dim, f.dim))
        return np.einsum("...cpq,...cpqij->...cij", w, H)
    C = form.coeffs(nodes).reshape(lo.shape + (5, -1))
    I = functools.reduce(np.add, [w[..., 0, q, None] * C[..., p, q, :]
                                  for p in range(panels) for q in range(5)], 0.0)
    return functools.reduce(np.add, [I[..., k, None, None] * B
                                     for k, B in enumerate(form.table[:form.terms])])


def signed_zero_family(d):
    """A d x d family on [0, 1] whose entries hold +0.0 and -0.0 and terms
    of mixed sign and size."""
    B = np.random.default_rng(d).standard_normal((3, d, d, 2)) @ [1.0, 1j]

    def batch(ts):
        ts = np.atleast_1d(ts)
        H = (B[0] + np.sin(7.0 * ts)[:, None, None] * B[1]
             + 1e3 * np.cos(3.0 * ts)[:, None, None] * B[2])
        H.real[:, 0] = np.where(ts < 0.5, 0.0, -0.0)[:, None]
        H.imag[:, -1, 0] = np.copysign(0.0, np.sin(40.0 * ts))
        return H

    return GeneratorFamily(a=0.0, b=1.0, dim=d, evaluate_batch=batch)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_gauss5_cells_are_bitwise_the_einsum_contraction(d):
    fam = signed_zero_family(d)
    rng = np.random.default_rng(10 + d)
    for panels in (1, 2, 3, 16):
        # Three slices and a part, and some zero-width cells.
        c = 3 * max(1, path_sum._SLICE_ENTRIES // (5 * panels * d * d)) + 7
        left = np.sort(rng.random(c)) * 0.9
        widths = rng.random(c) * 0.1 * (rng.random(c) > 0.1)
        got = path_sum._gauss5_cells(fam, left, widths, panels,
                                     np.empty((c, d, d), dtype=complex))
        w = widths[:, None] * (1.0 / panels)
        mid = left[:, None] + widths[:, None] * np.linspace(0.0, 1.0, panels + 1)[:-1] \
            + 0.5 * w
        nodes = mid[..., None] + 0.5 * w[..., None] * _GAUSS5_NODES
        H = fam.evaluate_batch(nodes.reshape(-1)).reshape(nodes.shape + (d, d))
        expected = np.einsum("cpq,cpqij->cij", 0.5 * w[..., None] * _GAUSS5_WEIGHTS, H)
        # Sums of -0.0 terms only: einsum starts from +0.0 and keeps it.
        assert np.signbit(H.real[H.real == 0]).any() and (expected.real == 0).any()
        assert got.tobytes() == expected.tobytes()


def reference_U(f, edges):
    """U_n of one partition (n + 1,): one expm_stack over its cells, then
    their ordered product."""
    return ordered_product(expm_stack(reference_cells(f, edges)))


def reference_term(f, t, n):
    """The n-bubble term on [f.a, f.a + t], n = 0 the exposure exp(Q)."""
    if n == 0:
        return matrix_exp(integrate_family(f, f.a, f.a + t))
    return reference_U(f, make_partition(f.a, t, n))


KERNEL_FAMILIES = [("two_level_driven", ()), ("damped_two_level", ()),
                   ("random_smooth", (3, 3, 0.2)), ("random_smooth", (5, 5, 0.2))]


@pytest.mark.parametrize("name,params", KERNEL_FAMILIES)
def test_U_batch_terms_are_bitwise_each_term_alone(name, params):
    fam = builtin_family(name, params)
    ns = list(range(1, 41))
    edges = [make_partition(fam.a, 1.0, n) for n in ns]
    batch = path_sum._U_batch(fam, edges)
    # One batch mixes seven panel counts and more than one Pade class.
    assert len({path_sum._panels(n) for n in ns}) == 7
    classes = {_pade_choice(float(np.max(np.sum(np.abs(reference_cells(fam, e)),
                                                 axis=-2)))) for e in edges}
    assert len(classes) >= 2
    for n, e, U in zip(ns, edges, batch):
        assert cell_generators(fam, e).tobytes() == \
            reference_cells(fam, e).tobytes()
        assert U.tobytes() == reference_U(fam, e).tobytes()
        assert U.tobytes() == path_sum._U_for_count(fam, 1.0, n).tobytes()


@pytest.mark.parametrize("budget", [2 ** 15, 2 ** 11, 2 ** 8])
def test_U_batch_mixes_partitions_and_batches_in_any_chunking(monkeypatch, budget):
    # 2^15: one chunk; 2^11: several; 2^8: every partition on its own.
    fam = builtin_family("damped_two_level")
    cfg = PathSumConfig(lam=3.0, t=1.0, seed=2026)
    arrivals = [one_gap_at_a_time(cfg, trial_rng(cfg.seed, k)) for k in range(200)]
    batches = [np.array([midpoint_edges(0.0, 1.0, r) for r in arrivals if len(r) == n])
               for n in (2, 3, 5)]
    assert all(len(b) >= 5 for b in batches)
    parts = [make_partition(0.0, 1.0, 7), batches[0], make_partition(0.0, 1.0, 30),
             batches[1], batches[2], make_partition(0.0, 1.0, 1)]
    monkeypatch.setattr(path_sum, "_BATCH_ENTRIES", budget)
    got = path_sum._U_batch(fam, parts)
    assert len(got) == len(parts)
    for e, U in zip(parts, got):
        assert U.shape == e.shape[:-1] + (2, 2)
        expected = np.array([reference_U(fam, row) for row in np.atleast_2d(e)])
        assert U.tobytes() == expected.reshape(U.shape).tobytes()


def test_U_batch_sweeps_once_per_panel_count():
    fam = builtin_family("two_level_driven")
    sweeps = []

    def counted(ts):
        sweeps.append(len(ts))
        return fam.evaluate_batch(ts)

    # n = 1 .. 12 take 16, 8, 6, 4, 3 and 2 panels a cell; one chunk holds all.
    counting = replace(fam, evaluate_batch=counted)
    ns = list(range(1, 13))
    ascending = path_sum._U_batch(counting, [make_partition(0.0, 1.0, n) for n in ns])
    assert len(sweeps) == 6
    # The kernel keeps its caller's order and sweeps each run of consecutive
    # partitions with one panel count: reversed, the same six runs; odd then
    # even n, the panel counts 16, 6, 4, 3, (2, 2), 8, 4, 3, (2, 2, 2).
    for order, runs in ((ns[::-1], 6), (ns[::2] + ns[1::2], 9)):
        assert runs == len(list(itertools.groupby(map(path_sum._panels, order))))
        sweeps.clear()
        got = path_sum._U_batch(counting, [make_partition(0.0, 1.0, n) for n in order])
        assert len(sweeps) == runs
        for n, U in zip(order, got):
            assert U.tobytes() == ascending[n - 1].tobytes()


def test_U_batch_rejects_a_bad_partition_anywhere():
    fam = builtin_family("two_level_driven")  # lives on [0, 1]
    good = [make_partition(0.0, 1.0, n) for n in (3, 20)]
    bad_edges = ([0.0, 0.8, 0.2, 1.0], [0.0, np.nan, 1.0], [np.nan, 0.5, 1.0],
                 [0.0, 0.5, 1.5], [-0.5, 0.5, 1.0], [[0.0, 0.5, 1.0], [0.0, 0.6, 0.4]],
                 [0.5], [])
    for bad in bad_edges:
        for pos in range(3):
            parts = good[:pos] + [np.array(bad)] + good[pos:]
            with warnings.catch_warnings(), pytest.raises(DomainError):
                warnings.simplefilter("error")
                path_sum._U_batch(fam, parts)


def test_U_lambda_sums_an_exact_window_in_a_few_expm_calls(monkeypatch):
    calls = []
    expm = path_sum.expm_stack

    def counted(A, *pade):
        # The kernel hands each Pade class it has taken to expm_stack.
        calls.append(len(A))
        return expm(A, *pade)

    monkeypatch.setattr(path_sum, "expm_stack", counted)
    res = U_lambda(builtin_family("two_level_driven"), PathSumConfig(lam=40.0, t=1.0))
    # About 82 exact terms, where one call per term was the rule.
    assert res.extras["fit_residual"] is None
    assert res.extras["exact_terms"] == res.step_count >= 80
    assert len(calls) <= 16


@pytest.mark.parametrize("lam", [5.0, 40.0, 160.0])
def test_path_sums_are_bitwise_the_reference_terms(lam):
    # At 5 and 40 the windows are summed exactly, at 160 through the fit.
    fam = builtin_family("damped_two_level", interval=(0.0, 8.0))
    cfg = PathSumConfig(lam=lam, t=1.0)
    jump = lambda k: (reference_U(fam, make_partition(0.0, k / lam, k)) if k
                      else np.eye(2, dtype=complex))
    for res, term in ((U_lambda(fam, cfg), lambda n: reference_term(fam, 1.0, n)),
                      (stieltjes_form(fam, cfg), jump)):
        ref = poisson_mixture(lambda ns: np.array([term(n) for n in ns]), lam, 1e-10)
        assert res.extras["raw"].tobytes() == ref.extras["raw"].tobytes()
        assert res.U.tobytes() == ref.U.tobytes()
        assert res.extras["exact_terms"] == ref.extras["exact_terms"]
        assert (res.extras["fit_residual"] is None) == (lam < 100)


def test_poisson_weight_zero_below_threshold():
    assert poisson_weight(1.0, 0.0, 1.0) == 0.0
    assert poisson_weight(1.0, -0.5, 1.0) == 0.0


def test_poisson_weight_three_term_example():
    # lam = t = 1, s = 2: e^{-1}(1 + 1 + 1/2).
    assert poisson_weight(1.0, 2.0, 1.0) == pytest.approx(
        np.exp(-1.0) * 2.5, rel=1e-12)


def test_poisson_weight_saturates():
    assert poisson_weight(1.0, 1e3, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_poisson_weight_at_nan_and_infinite_s():
    with pytest.raises(DomainError):
        poisson_weight(1.0, math.nan, 5.0)
    # The step function's limit; lambda s overflowing is the same limit.
    assert poisson_weight(1.0, math.inf, 5.0) == 1.0
    assert poisson_weight(1.0, 1e308, 5.0) == 1.0
    assert poisson_weight(1.0, -math.inf, 5.0) == 0.0


def test_poisson_weight_right_continuous_jumps():
    # Jumps exactly at s = k / lambda, right-continuous from above.
    lam, t = 4.0, 1.0
    below = poisson_weight(t, 0.5 - 1e-12, lam)
    at = poisson_weight(t, 0.5, lam)
    just_after = poisson_weight(t, 0.5 + 1e-12, lam)
    assert at > below
    assert at == just_after


def test_poisson_weight_monotone_in_s():
    vals = [poisson_weight(1.0, s, 3.0) for s in np.linspace(0.0, 5.0, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_poisson_weight_no_overflow_large_rate():
    w = poisson_weight(1.0, 1.0, 1000.0)
    assert np.isfinite(w)
    assert w == pytest.approx(scipy.stats.poisson.cdf(1000, 1000.0), rel=1e-12)


def test_poisson_truncation_direct_summation_value():
    # Smallest N with Poisson(5) tail below 1e-12, checked by exact
    # rational arithmetic: tail(26) = 5.6e-12, tail(27) = 9.9e-13.
    assert poisson_truncation(5.0, 1e-12) == 27


def test_poisson_truncation_is_minimal():
    # At tail_tol 1e-17 and 1e-30, 1 - tail_tol rounds to 1 and ppf is inf.
    for lam_t, tail_tol in ((0.5, 1e-10), (3.0, 1e-10), (40.0, 1e-10),
                            (5.0, 1e-17), (5.0, 1e-30)):
        n = poisson_truncation(lam_t, tail_tol)
        assert scipy.stats.poisson.sf(n, lam_t) < tail_tol
        assert n == 0 or scipy.stats.poisson.sf(n - 1, lam_t) >= tail_tol


def test_poisson_truncation_enforces_the_term_cap():
    assert poisson_truncation(9e5, 1e-10) <= path_sum.MAX_POISSON_TERMS
    # ppf lands near 1e9 for the first; the second has its mean below the
    # cap and its window above it.
    for lam_t in (1e9, 0.999e6):
        with pytest.raises(ResourceError):
            poisson_truncation(lam_t, 1e-10)


# Means from 1e-3 to 1e5: the Poisson kernels must give scipy.stats' bits.
KERNEL_MEANS = np.concatenate([10.0 ** np.linspace(-3.0, 5.0, 33),
                               [0.5, 1.0, 20.8, 60.0, 12346.0]])


def test_poisson_pmf_is_bitwise_scipy_stats():
    for mean in KERNEL_MEANS:
        k = np.arange(int(mean + 12 * math.sqrt(mean)) + 30)
        assert np.array_equal(path_sum._poisson_pmf(k, mean),
                              scipy.stats.poisson.pmf(k, mean))


def test_poisson_weight_is_bitwise_scipy_stats():
    for mean in KERNEL_MEANS:
        for lam in (0.5, 3.0, 17.0):
            t = mean / lam
            for s in np.array([0.3, 0.77, 1.0, 1.9]) * t:
                assert poisson_weight(t, s, lam) == float(
                    scipy.stats.poisson.cdf(math.floor(lam * s), lam * t))


def test_poisson_mixture_error_estimate_is_bitwise_scipy_stats():
    for mean in KERNEL_MEANS:
        for tail_tol in (1e-12, 1e-6):
            res = poisson_mixture(lambda ns: np.ones((len(ns), 1)), mean, tail_tol)
            assert res.error_estimate == float(
                scipy.stats.poisson.sf(res.extras["n_max"], mean))


def stats_truncation(lam_t, tail_tol):
    """The window end by scipy.stats' ppf and sf; None past the term cap."""
    n = scipy.stats.poisson.ppf(1.0 - tail_tol, lam_t)
    n = int(min(lam_t if n == math.inf else n, path_sum.MAX_POISSON_TERMS + 1))
    while n > 0 and scipy.stats.poisson.sf(n - 1, lam_t) < tail_tol:
        n -= 1
    while (n <= path_sum.MAX_POISSON_TERMS
           and scipy.stats.poisson.sf(n, lam_t) >= tail_tol):
        n += 1
    return n if n <= path_sum.MAX_POISSON_TERMS else None


def test_poisson_truncation_matches_the_scipy_stats_walk():
    # At 1e-17, 1 - tail_tol rounds to 1 and the quantile is infinite.
    for mean in KERNEL_MEANS:
        for tail_tol in (1e-17, 1e-12, 1e-10, 1e-6, 1e-3, 0.1, 0.5, 0.9):
            assert poisson_truncation(mean, tail_tol) == stats_truncation(
                mean, tail_tol)
    for mean, tail_tol in ((0.999e6, 1e-10), (1e9, 1e-17), (1e9, 0.5)):
        assert stats_truncation(mean, tail_tol) is None
        with pytest.raises(ResourceError):
            poisson_truncation(mean, tail_tol)


def test_import_chronos_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = ("import sys, chronos\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "chronos.poisson_weight(1.0, 1.0, 1.0)\n"
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "True", "False"]


def test_bubble_sampling_enforces_the_term_cap():
    cfg = PathSumConfig(lam=1e9, t=1.0)
    with pytest.raises(ResourceError):
        sample_bubbles(cfg, trial_rng(0, 0))
    with pytest.raises(ResourceError):
        next(path_sum._arrival_blocks(cfg, 1, 1))
    with pytest.raises(ResourceError):
        bubble_counts(cfg, 1)


def test_U_lambda_commuting_exact_for_every_rate():
    H = -1j * SIGMA_Z - 0.2 * np.eye(2)
    fam = family_from_matrix(H)
    target = matrix_exp(H)
    for lam in (1.0, 10.0, 100.0):
        res = U_lambda(fam, PathSumConfig(lam=lam, t=1.0))
        assert np.linalg.norm(res.U - target, 2) <= 1e-12


def test_U_lambda_error_decreases_with_rate():
    fam = builtin_family("two_level_driven")
    oracle = product_integral(fam, 0.0, 1.0, 1e-11).U
    errs = [np.linalg.norm(
        U_lambda(fam, PathSumConfig(lam=lam, t=1.0)).U - oracle, 2)
        for lam in (10.0, 100.0, 1000.0)]
    assert errs[2] < errs[1] < errs[0]


def test_U_lambda_bookkeeping():
    fam = builtin_family("two_level_driven")
    res = U_lambda(fam, PathSumConfig(lam=20.0, t=1.0, tail_tol=1e-10))
    assert res.extras["captured_mass"] == pytest.approx(1.0, abs=1e-9)
    assert res.extras["n_max"] == poisson_truncation(20.0, 1e-10)
    assert np.allclose(res.extras["raw"] / res.extras["captured_mass"], res.U)


def test_U_lambda_rejects_horizon_outside_family():
    with pytest.raises(DomainError):
        U_lambda(builtin_family("two_level_driven", interval=(1.0, 2.0)),
                 PathSumConfig(lam=100.0, t=1.5))
    with pytest.raises(DomainError):
        U_lambda(builtin_family("two_level_driven"),
                 PathSumConfig(lam=100.0, t=2.0))


def test_U_lambda_contraction():
    fam = builtin_family("damped_two_level")
    res = U_lambda(fam, PathSumConfig(lam=15.0, t=1.0))
    assert operator_norm(res.U) <= 1.0 + 1e-9


def exact_window_sum(term, mean, tail_tol=1e-10):
    """The Poisson-window loop, term by term: (raw sum, captured mass)."""
    n_max = poisson_truncation(mean, tail_tol)
    raw, captured = 0.0, 0.0
    for n, w in enumerate(scipy.stats.poisson.pmf(np.arange(n_max + 1), mean)):
        if w < tail_tol / (n_max + 1):
            continue
        raw = raw + w * term(n)
        captured += w
    return raw, captured


@pytest.mark.parametrize("lam", [100.0, 1000.0])
def test_U_lambda_fit_matches_exact_window(lam):
    fam = builtin_family("two_level_driven")
    res = U_lambda(fam, PathSumConfig(lam=lam, t=1.0))
    raw, captured = exact_window_sum(
        lambda n: path_sum._U_for_count(fam, 1.0, n), lam)
    assert res.extras["fit_residual"] <= 1e-13
    assert res.extras["exact_terms"] < res.step_count / 10
    assert np.max(np.abs(res.extras["raw"] - raw)) <= 1e-13
    assert res.extras["captured_mass"] == captured


def test_U_lambda_small_window_sums_exactly():
    fam = builtin_family("two_level_driven")
    res = U_lambda(fam, PathSumConfig(lam=5.0, t=1.0))
    raw, captured = exact_window_sum(
        lambda n: path_sum._U_for_count(fam, 1.0, n), 5.0)
    assert res.extras["fit_residual"] is None
    assert res.extras["exact_terms"] == res.step_count
    assert np.array_equal(res.extras["raw"], raw)
    assert res.extras["captured_mass"] == captured


def test_poisson_mixture_jump_in_n_falls_back_exactly():
    calls = []

    def term(n):
        calls.append(n)
        return (1.0 if n < 100 else 1.5) * np.eye(2, dtype=complex)

    res = path_sum.poisson_mixture(lambda ns: np.array([term(n) for n in ns]),
                                   100.0, 1e-10)
    assert res.extras["fit_residual"] is None
    # Every term of the window is computed, each exactly once.
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == res.extras["exact_terms"] == res.step_count
    raw, captured = exact_window_sum(term, 100.0)
    assert np.array_equal(res.extras["raw"], raw)
    assert res.extras["captured_mass"] == captured


def test_poisson_mixture_rejects_bad_windows():
    # Poisson(1) mass 0.37 at n = 0 is below the cutoff tail_tol = 0.9.
    with pytest.raises(ConfigError):
        U_lambda(builtin_family("two_level_driven"),
                 PathSumConfig(lam=1.0, t=1.0, tail_tol=0.9))
    terms = lambda ns: np.array([np.eye(2, dtype=complex) for n in ns])
    for mean, tail_tol in ((10.0, 0.0), (10.0, 1.0), (0.0, 1e-10), (-1.0, 1e-10)):
        with pytest.raises(ConfigError):
            poisson_truncation(mean, tail_tol)
        with pytest.raises(ConfigError):
            path_sum.poisson_mixture(terms, mean, tail_tol)


def test_stieltjes_constant_family_matches_series():
    H = -1j * SIGMA_Z - 0.2 * np.eye(2)
    fam = family_from_matrix(H, interval=(0.0, 4.0))
    cfg = PathSumConfig(lam=8.0, t=1.0)
    res = stieltjes_form(fam, cfg)
    # Each jump carries exp((k/lam) H); compare to the direct series.
    lam_t = cfg.lam * cfg.t
    n_max = res.extras["n_max"]
    weights = scipy.stats.poisson.pmf(np.arange(n_max + 1), lam_t)
    cutoff = cfg.tail_tol / (n_max + 1)
    ref = np.zeros((2, 2), dtype=complex)
    mass = 0.0
    for k, w in enumerate(weights):
        if w < cutoff:
            continue
        ref += w * matrix_exp((k / cfg.lam) * H)
        mass += w
    assert np.linalg.norm(res.U - ref / mass, 2) <= 1e-10


def test_stieltjes_distance_to_oracle_decreases():
    fam = builtin_family("two_level_driven", interval=(0.0, 4.0))
    oracle = product_integral(fam, 0.0, 1.0, 1e-10).U
    dists = []
    for lam in (20.0, 80.0, 320.0):
        res = stieltjes_form(fam, PathSumConfig(lam=lam, t=1.0),
                             oracle_U=oracle)
        dists.append(res.extras["distance_to_oracle"])
    assert dists[2] < dists[1] < dists[0]


def test_stieltjes_rejects_jumps_past_the_family():
    # The jumps k / lambda reach n_max / lambda = 4.995 > 1.
    fam = builtin_family("two_level_driven")
    with pytest.raises(DomainError):
        stieltjes_form(fam, PathSumConfig(lam=5.0, t=1.0))


def test_stieltjes_bookkeeping_matches_U_lambda():
    fam = builtin_family("two_level_driven", interval=(0.0, 4.0))
    cfg = PathSumConfig(lam=12.0, t=1.0)
    res = stieltjes_form(fam, cfg)
    lam_form = U_lambda(fam, cfg)
    assert res.extras["captured_mass"] == pytest.approx(
        lam_form.extras["captured_mass"], abs=1e-15)
    assert res.extras["n_max"] == lam_form.extras["n_max"]


def test_trial_rng_streams_are_independent_and_stable():
    a1 = trial_rng(7, 0).standard_normal(4)
    a2 = trial_rng(7, 0).standard_normal(4)
    b = trial_rng(7, 1).standard_normal(4)
    assert np.array_equal(a1, a2)
    assert not np.allclose(a1, b)


def one_gap_at_a_time(cfg, rng):
    """The defining sampler: draw one exponential gap, add it, stop past t."""
    arrivals, s = [], 0.0
    while True:
        s += rng.exponential(1.0 / cfg.lam)
        if s > cfg.t:
            return np.array(arrivals)
        arrivals.append(s)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 31 - 1, 2 ** 32 - 1,
                                  2 ** 32, 2 ** 70 + 3, 2 ** 130 + 5])
def test_trial_keys_match_seed_sequence(seed):
    keys = path_sum._trial_keys(seed, 1001)
    assert keys.shape == (1001, 2) and keys.dtype == np.uint64
    for k in (0, 1, 2, 77, 500, 1000):
        expected = np.random.SeedSequence(
            entropy=seed, spawn_key=(k,)).generate_state(2, np.uint64)
        assert np.array_equal(keys[k], expected)


def block_arrivals(cfg, trials, per_block):
    """The rows of _arrival_blocks, cut at t; checks every row passes t."""
    got = []
    for first, rows in path_sum._arrival_blocks(cfg, trials, per_block):
        assert first == len(got) and len(rows) <= per_block
        assert np.all(rows[:, -1] > cfg.t)
        got += [s[:np.searchsorted(s, cfg.t, side="right")] for s in rows]
    return got


def assert_arrivals_match_reference(cfg, trials, per_block):
    got = block_arrivals(cfg, trials, per_block)
    assert len(got) == trials
    for k, arrivals in enumerate(got):
        expected = one_gap_at_a_time(cfg, trial_rng(cfg.seed, k))
        assert arrivals.shape == expected.shape
        assert arrivals.dtype == expected.dtype
        assert np.array_equal(arrivals, expected)
        assert np.array_equal(sample_bubbles(cfg, trial_rng(cfg.seed, k)),
                              expected)
    return got


@pytest.mark.parametrize("lam", [0.05, 1.0, 10.0, 20.0, 40.0, 600.0])
def test_trial_arrivals_match_per_trial_streams(lam):
    got = assert_arrivals_match_reference(
        PathSumConfig(lam=lam, t=1.0, seed=2 ** 32 + 5), 500, 64)
    if lam <= 1.0:
        assert any(len(a) == 0 for a in got)


@pytest.mark.parametrize("chunk", [1, 3])
def test_trial_arrivals_refill_matches(monkeypatch, chunk):
    # Almost every block redraws, some several times; 500 is no multiple of 7.
    monkeypatch.setattr(path_sum, "_gap_chunk", lambda lam_t: chunk)
    assert_arrivals_match_reference(PathSumConfig(lam=20.0, t=1.0, seed=9), 500, 7)


def test_trial_arrivals_rejects_wrong_derived_key(monkeypatch):
    derive = path_sum._trial_keys

    def off_by_one_bit(seed, trials):
        keys = derive(seed, trials)
        keys[-1, 1] ^= np.uint64(1)
        return keys

    monkeypatch.setattr(path_sum, "_trial_keys", off_by_one_bit)
    with pytest.raises(ConsistencyError):
        block_arrivals(PathSumConfig(lam=5.0, t=1.0, seed=3), 200, 64)


def assert_monte_carlo_matches_reference(fam, cfg):
    """monte_carlo_U equals the per-trial samples of the one-partition formula
    bit for bit; returns the Pade classes expm_stack chose for the trials on
    their own."""
    res = monte_carlo_U(fam, cfg)
    samples, counts, classes = [], [], set()
    for k in range(cfg.trials):
        arrivals = one_gap_at_a_time(cfg, trial_rng(cfg.seed, k))
        counts.append(len(arrivals))
        if len(arrivals) == 0:
            samples.append(matrix_exp(integrate_family(fam, 0.0, cfg.t)))
            continue
        A = reference_cells(fam, midpoint_edges(0.0, cfg.t, arrivals))
        classes.add(_pade_choice(float(np.max(np.sum(np.abs(A), axis=-2)))))
        samples.append(ordered_product(expm_stack(A)))
    samples = np.array(samples)
    se = np.sqrt((np.var(samples.real, axis=0) + np.var(samples.imag, axis=0))
                 / (cfg.trials - 1))
    assert np.array_equal(res.extras["counts"], counts)
    assert np.array_equal(res.U, samples.mean(axis=0))
    assert np.array_equal(res.extras["stderr"], se)
    return counts, classes


def test_monte_carlo_matches_per_trial_reference():
    families = [builtin_family("two_level_driven"),
                builtin_family("damped_two_level"),
                builtin_family("random_smooth", (3, 4, 0.2))]
    for fam in families:
        for lam in (0.5, 3.0, 20.0, 80.0):
            cfg = PathSumConfig(lam=lam, t=1.0, trials=120, seed=2026)
            counts, classes = assert_monte_carlo_matches_reference(fam, cfg)
            if lam == 0.5:
                assert 0 in counts
            if lam == 3.0 and fam.dim == 2:
                # One bubble count's stack mixes Pade classes.
                assert len(classes) >= 2


def test_monte_carlo_blocks_of_uneven_size(monkeypatch):
    sizes = []
    blocks = path_sum._arrival_blocks

    def recorded(cfg, trials, per_block):
        for first, rows in blocks(cfg, trials, per_block):
            sizes.append(len(rows))
            yield first, rows

    monkeypatch.setattr(path_sum, "_arrival_blocks", recorded)
    monkeypatch.setattr(path_sum, "_BLOCK_ENTRIES", 2 ** 14)
    cfg = PathSumConfig(lam=20.0, t=1.0, trials=103, seed=5)
    assert_monte_carlo_matches_reference(builtin_family("damped_two_level"), cfg)
    # 2^14 entries over 5 * 54 nodes of 2 x 2 entries: 15 trials per block.
    assert path_sum._gap_chunk(20.0) == 54
    assert sizes == [15] * 6 + [13]


def per_row_entries(fam, edges):
    """Generator entries _U_batch counts for one row of an edge batch."""
    n = np.shape(edges)[-1] - 1
    return n * 5 * path_sum._panels(n) * fam.dim ** 2


def assert_samples_are_each_trials_U_n(fam, cfg):
    """Every Monte Carlo sample has the bits of its own trial's U_n, or of the
    n = 0 term for a trial with no bubble; returns the bubble counts."""
    samples, counts = path_sum._trial_samples(fam, cfg)
    assert samples.shape == (cfg.trials, fam.dim, fam.dim)
    for k in range(cfg.trials):
        arrivals = one_gap_at_a_time(cfg, trial_rng(cfg.seed, k))
        assert counts[k] == len(arrivals)
        expected = (U_n(fam, midpoint_edges(fam.a, fam.a + cfg.t, fam.a + arrivals)).U
                    if len(arrivals) else path_sum._U_for_count(fam, cfg.t, 0))
        assert samples[k].tobytes() == expected.tobytes()
    res = monte_carlo_U(fam, cfg)
    assert res.U.tobytes() == samples.mean(axis=0).tobytes()
    return counts


MC_FAMILIES = [builtin_family("damped_two_level", interval=(0.5, 2.0)),
               builtin_family("random_smooth", (3, 3, 0.2), interval=(-1.0, 1.0))]


@pytest.mark.parametrize("fam", MC_FAMILIES, ids=lambda f: f"d{f.dim}")
def test_monte_carlo_samples_are_each_trials_U_n(fam):
    for lam, trials in ((0.5, 150), (20.0, 150)):
        counts = assert_samples_are_each_trials_U_n(
            fam, PathSumConfig(lam=lam, t=1.0, trials=trials, seed=31))
        if lam < 1:
            assert {0, 1} <= set(counts.tolist())
        else:
            assert counts.min() >= 8 and len(set(counts.tolist())) >= 10


@pytest.mark.parametrize("fam", MC_FAMILIES, ids=lambda f: f"d{f.dim}")
def test_monte_carlo_blocks_split_batches_between_chunks(monkeypatch, fam):
    budget = 2 ** 11
    blocks, batches, chunks = [], [], []
    arrival_blocks, U_batch, U_chunk = (path_sum._arrival_blocks, path_sum._U_batch,
                                        path_sum._U_chunk)

    def recorded_blocks(cfg, trials, per_block):
        for first, rows in arrival_blocks(cfg, trials, per_block):
            blocks.append(len(rows))
            yield first, rows

    def recorded_batch(f, partitions):
        batches.append([np.shape(e) for e in partitions])
        return U_batch(f, partitions)

    def recorded_chunk(f, chunk):
        chunks.append([(len(r), per_row_entries(f, r)) for r in chunk])
        return U_chunk(f, chunk)

    monkeypatch.setattr(path_sum, "_BLOCK_ENTRIES", 2 ** 15)
    monkeypatch.setattr(path_sum, "_BATCH_ENTRIES", budget)
    cfg = PathSumConfig(lam=6.0, t=1.0, trials=230, seed=8)
    assert_samples_are_each_trials_U_n(fam, cfg)
    monkeypatch.setattr(path_sum, "_arrival_blocks", recorded_blocks)
    monkeypatch.setattr(path_sum, "_U_batch", recorded_batch)
    monkeypatch.setattr(path_sum, "_U_chunk", recorded_chunk)
    path_sum._trial_samples(fam, cfg)
    # Several trial blocks, each one _U_batch call over its bubble counts.
    assert len(blocks) >= 3 and len(batches) == len(blocks)
    # Some (B, n + 1) batch is larger than a chunk, and no chunk overflows
    # unless it holds a single row.
    assert any(shape[0] * per_row_entries(fam, np.empty(shape)) > budget
               for shapes in batches for shape in shapes)
    for chunk in chunks:
        assert sum(b * e for b, e in chunk) <= budget or chunk == [(1, chunk[0][1])]


def test_U_n_transient_memory_is_a_few_cell_stacks():
    # 20,000 cells: the cell stack alone is 1.3 MB at d = 2 and 2.9 MB at
    # d = 3.  The sweeps and exponentials run in slices, so the call holds
    # the cells, their exponentials and a product level at a time.
    for fam in (builtin_family("damped_two_level"),
                builtin_family("random_smooth", (3, 3, 0.2))):
        edges = make_partition(0.0, 1.0, 20000)
        cells = 20000 * fam.dim ** 2 * 16
        U_n(fam, edges)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            U_n(fam, edges)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cells


def counted_form(fam, calls):
    """fam with its separable form, recording the size of every coefficient
    array its coeffs returns."""
    form = fam.separable

    def coeffs(ts):
        C = form.coeffs(ts)
        calls.append(C.size)
        return C

    return replace(fam, evaluate_batch=None,
                   separable=SeparableForm(coeffs, form.terms, *form.layers))


def test_U_n_at_d16_sweeps_many_cells_a_coefficient_call():
    # A d = 16 cell has more Gauss-node entries (5 * 256) than a slice holds
    # a fifth of, but its three coefficients take 15 entries a cell.
    calls = []
    fam = counted_form(builtin_family("random_smooth", (2, 16, 0.2)), calls)
    U = U_n(fam, make_partition(0.0, 1.0, 200)).U
    step = path_sum._SLICE_ENTRIES // max(5 * 3, 16 * 16)
    assert len(calls) == -(-200 // step) == 13
    assert max(calls) <= path_sum._SLICE_ENTRIES
    plain = replace(fam, evaluate_batch=lambda ts: fam.evaluate_batch(ts))
    assert np.max(np.abs(U - U_n(plain, make_partition(0.0, 1.0, 200)).U)) <= 1e-13


SWEEP_FAMILIES = [builtin_family("two_level_driven"), signed_zero_family(3),
                  builtin_family("random_smooth", (1, 2, 0.2)),
                  builtin_family("random_smooth", (1, 8, 0.2))]


@pytest.mark.parametrize("fam", SWEEP_FAMILIES,
                         ids=lambda f: f"{f.name}-d{f.dim}")
def test_sweeps_hold_no_work_array_above_a_slice(fam):
    # Each generator call returns at most a slice, and a sweep over 40,000
    # cells holds no more than a few slices at a time: no work array grows
    # with the cells (a (cells,) float array alone is 320 kB).
    sizes = []
    if fam.separable is not None:
        fam = counted_form(fam, sizes)
    else:
        fam = replace(fam, evaluate_batch=lambda ts, g=fam.evaluate_batch:
                      sizes.append(len(ts) * fam.dim ** 2) or g(ts))
    slice_bytes = 16 * path_sum._SLICE_ENTRIES
    rng = np.random.default_rng(3)
    for c, panels in ((40000, 1), (4000, 16)):
        left = np.sort(rng.random(c)) * 0.5
        widths = rng.random(c) * 0.5
        out = np.empty((c, fam.dim, fam.dim), dtype=complex)
        path_sum._gauss5_cells(fam, left, widths, panels, out)
        sizes.clear()
        tracemalloc.start()
        try:
            path_sum._gauss5_cells(fam, left, widths, panels, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(sizes) <= path_sum._SLICE_ENTRIES
        assert peak <= 6 * slice_bytes


def test_batched_U_n_matches_row_by_row():
    fam = builtin_family("two_level_driven")
    cfg = PathSumConfig(lam=3.0, t=1.0, seed=2026)
    rows = [one_gap_at_a_time(cfg, trial_rng(cfg.seed, k)) for k in range(300)]
    edges = np.array([midpoint_edges(0.0, cfg.t, r) for r in rows if len(r) == 3])
    batch = U_n(fam, edges)
    classes = {_pade_choice(float(np.max(np.sum(np.abs(A), axis=-2))))
               for A in cell_generators(fam, edges)}
    assert len(classes) >= 2
    assert batch.U.shape == (len(edges), 2, 2)
    assert batch.step_count == 3 * len(edges)
    assert np.array_equal(batch.U, [U_n(fam, e).U for e in edges])


def assert_counts_match_per_trial_draws(cfg, trials):
    expected = [len(sample_bubbles(cfg, trial_rng(cfg.seed, k)))
                for k in range(trials)]
    counts = bubble_counts(cfg, trials)
    assert counts.dtype == np.array(expected).dtype
    assert np.array_equal(counts, expected)


@pytest.mark.parametrize("lam", [0.05, 1.0, 20.0, 40.0, 600.0])
def test_bubble_counts_match_per_trial_draws(lam):
    assert_counts_match_per_trial_draws(
        PathSumConfig(lam=lam, t=1.0, seed=2 ** 32 + 5), 500)


@pytest.mark.parametrize("chunk, block", [(1, 2 ** 14), (3, 2 ** 14), (None, 7),
                                          (3, 7), (None, 200)])
def test_bubble_counts_refill_and_block_edges(monkeypatch, chunk, block):
    # A chunk of 1 or 3 gaps ends before t in almost every row; a budget of
    # 7 or 200 gaps leaves 1 to 3 rows per block, and 500 is no multiple of 3.
    if chunk is not None:
        monkeypatch.setattr(path_sum, "_gap_chunk", lambda lam_t: chunk)
    monkeypatch.setattr(path_sum, "_COUNT_BLOCK", block)
    assert_counts_match_per_trial_draws(PathSumConfig(lam=20.0, t=1.0, seed=9), 500)


@pytest.mark.parametrize("start", [0, 1, 37, 499, 500, 600])
def test_bubble_counts_from_a_trial_draw_only_later_trials(monkeypatch, start):
    cfg = PathSumConfig(lam=20.0, t=1.0, seed=4)
    whole = bubble_counts(cfg, 500)
    keyed = []
    blocks = path_sum._arrival_blocks

    def recorded(*args):
        for first, rows in blocks(*args):
            keyed.extend(range(first, first + len(rows)))
            yield first, rows

    monkeypatch.setattr(path_sum, "_arrival_blocks", recorded)
    tail = path_sum._bubble_counts_from(cfg, start, 500)
    assert tail.dtype == whole.dtype
    assert np.array_equal(tail, whole[start:])
    assert keyed == list(range(start, 500))


def test_bubble_counts_of_no_trials():
    cfg = PathSumConfig(lam=5.0, t=1.0)
    assert bubble_counts(cfg, 0).shape == (0,)
    with pytest.raises(DomainError):
        bubble_counts(cfg, -1)
    for trials in (2.5, 3.0, "3"):
        with pytest.raises(DomainError, match="integer"):
            bubble_counts(cfg, trials)
    assert bubble_counts(cfg, np.int64(3)).shape == (3,)


def test_sample_bubbles_bounds_and_order():
    cfg = PathSumConfig(lam=10.0, t=2.0)
    for trial in range(20):
        arrivals = sample_bubbles(cfg, trial_rng(0, trial))
        assert np.all(arrivals > 0)
        assert np.all(arrivals <= 2.0)
        assert np.all(np.diff(arrivals) > 0)


def test_sample_bubbles_gap_and_count_statistics():
    cfg = PathSumConfig(lam=5.0, t=2.0)
    draws = 10 ** 5
    counts = np.empty(draws)
    gaps = []
    for trial in range(draws):
        arrivals = sample_bubbles(cfg, trial_rng(3, trial))
        counts[trial] = len(arrivals)
        if len(arrivals) > 1:
            gaps.append(arrivals[0])
    mean_count = counts.mean()
    sigma_count = np.sqrt(cfg.lam * cfg.t / draws)
    assert abs(mean_count - cfg.lam * cfg.t) <= 3 * sigma_count
    # First-arrival times are exponential(lam) conditioned to land in [0,t].
    gaps = np.array(gaps)
    sigma_gap = gaps.std() / np.sqrt(len(gaps))
    trunc_mean = scipy.stats.truncexpon.mean(
        b=cfg.lam * cfg.t, scale=1.0 / cfg.lam)
    assert abs(gaps.mean() - trunc_mean) <= 4 * sigma_gap


def test_sorted_arrivals_match_uniform_order_statistics():
    # Conditional on the count, arrivals over t are i.i.d. uniform order
    # statistics; pool the normalized times and Kolmogorov-Smirnov test.
    cfg = PathSumConfig(lam=5.0, t=1.0)
    pooled = []
    trial = 0
    while len(pooled) < 10 ** 4:
        arrivals = sample_bubbles(cfg, trial_rng(11, trial))
        if len(arrivals) == 5:
            pooled.extend(arrivals / cfg.t)
        trial += 1
    stat = scipy.stats.kstest(np.array(pooled), "uniform").statistic
    threshold = 1.949 / np.sqrt(len(pooled))
    assert stat < threshold


def test_monte_carlo_constant_family_zero_variance():
    H = -1j * SIGMA_Z - 0.1 * np.eye(2)
    fam = family_from_matrix(H)
    res = monte_carlo_U(fam, PathSumConfig(lam=5.0, t=1.0, trials=100))
    assert np.linalg.norm(res.U - matrix_exp(H), 2) <= 1e-12
    assert res.error_estimate <= 1e-13


def test_monte_carlo_requires_enough_trials():
    fam = builtin_family("two_level_driven")
    with pytest.raises(ConfigError):
        monte_carlo_U(fam, PathSumConfig(lam=5.0, t=1.0, trials=10))


def test_monte_carlo_rejects_horizon_outside_family():
    with pytest.raises(DomainError):
        monte_carlo_U(builtin_family("two_level_driven"),
                      PathSumConfig(lam=5.0, t=3.0, trials=100))
    with pytest.raises(DomainError):
        monte_carlo_U(builtin_family("two_level_driven", interval=(1.0, 2.0)),
                      PathSumConfig(lam=5.0, t=1.5, trials=100))


def shifted_in_time(f, a):
    """f moved to start at a: H_a(s) = H(s - (a - f.a)) on [a, a + b - f.a]."""
    lag = a - f.a
    return replace(f, a=a, b=f.b + lag,
                   evaluate_batch=lambda ts: f.evaluate_batch(np.asarray(ts) - lag))


@pytest.mark.parametrize("name, params", [("two_level_driven", ()),
                                          ("random_smooth", (3, 4))])
def test_path_sum_on_a_family_shifted_in_time(name, params):
    """The path sum runs on [f.a, f.a + t]: moving the family to [1, 2] and
    its bubbles with it leaves U_lambda and monte_carlo_U in place."""
    f = builtin_family(name, params)
    late = shifted_in_time(f, 1.0)
    for lam in (3.0, 40.0):
        cfg = PathSumConfig(lam=lam, t=1.0, trials=100, seed=4)
        for run in (U_lambda, monte_carlo_U):
            assert np.max(np.abs(run(late, cfg).U - run(f, cfg).U)) <= 1e-13
    cfg = PathSumConfig(lam=3.0, t=1.0, trials=100, seed=4)
    for got, want in zip(conditional_single_bubble_check(late, cfg),
                         conditional_single_bubble_check(f, cfg)):
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-13
    part = PathSumConfig(lam=20.0, t=0.5, trials=100, seed=4)
    for run in (U_lambda, monte_carlo_U):
        assert np.max(np.abs(run(late, part).U - run(f, part).U)) <= 1e-13
        with pytest.raises(DomainError):
            run(late, PathSumConfig(lam=20.0, t=1.25, trials=100))


def test_conditional_single_bubble_rejects_horizon_outside_family():
    with pytest.raises(DomainError):
        conditional_single_bubble_check(builtin_family("two_level_driven"),
                                        PathSumConfig(lam=5.0, t=3.0, trials=100))


def test_monte_carlo_reproducible_with_fixed_seed():
    fam = builtin_family("two_level_driven")
    cfg = PathSumConfig(lam=10.0, t=1.0, trials=150, seed=42)
    r1 = monte_carlo_U(fam, cfg)
    r2 = monte_carlo_U(fam, cfg)
    assert np.array_equal(r1.U, r2.U)
    assert np.array_equal(r1.extras["counts"], r2.extras["counts"])


def test_monte_carlo_close_to_oracle():
    fam = builtin_family("two_level_driven")
    cfg = PathSumConfig(lam=100.0, t=1.0, trials=2000, seed=0)
    res = monte_carlo_U(fam, cfg)
    oracle = product_integral(fam, 0.0, 1.0, 1e-10).U
    # Bias bound from the deterministic sweep, plus sampling noise; random
    # bubble placement carries a larger O(1/lam) constant than equispaced
    # centers, hence the factor 5 on the sweep value.
    bias = np.linalg.norm(
        U_lambda(fam, PathSumConfig(lam=100.0, t=1.0)).U - oracle, 2)
    dist = np.linalg.norm(res.U - oracle, 2)
    assert dist <= 5 * bias + 6 * res.error_estimate


def test_conditional_single_bubble_matches_quadrature():
    fam = builtin_family("two_level_driven")
    cfg = PathSumConfig(lam=1.0, t=1.0, trials=2000, seed=1)
    cond_mean, quad, stderr, n_used = conditional_single_bubble_check(fam, cfg)
    assert n_used > 200
    assert np.all(np.abs(cond_mean - quad) <= 4 * stderr + 1e-12)


def test_partition_from_centers_handles_arbitrary_times():
    edges = midpoint_edges(0.0, 2.0, [0.3, 1.1, 1.9])
    assert edges[0] == 0.0
    assert edges[-1] == 2.0
    assert np.allclose(edges[1:-1], [0.7, 1.5])


def test_conditional_single_bubble_needs_a_trial_with_one_bubble():
    # At lambda t = 50 a trial has one bubble with probability 50 e^-50.
    with pytest.raises(ConfigError, match="exactly one bubble"):
        conditional_single_bubble_check(builtin_family("two_level_driven"),
                                        PathSumConfig(lam=50.0, t=1.0, trials=100))


def _identity_terms(ns):
    return np.array([np.eye(2)] * len(ns))


# Inputs outside each path-sum callable's domain: edges that are ragged,
# non-numeric, complex, out of order, outside the family or too few; scalars
# that are not real, not finite or out of range; integers that are not
# integers >= 0; horizons past the family; windows and trial counts past
# their caps; Poisson terms that are ragged, too few, non-numeric or not
# finite; oracles of the wrong shape.
_ON_01 = builtin_family("two_level_driven")
_ON_0_10 = builtin_family("two_level_driven", interval=(0.0, 10.0))
_NOT_REAL = ["a", None, [1.0], 1j]
_HOSTILE_PATH_SUM_CALLS = {
    "U_n": [(_ON_01, e) for e in (
        [[0, 0.5], [1]], ["a", "b"], [0, "x", 1], [None, 1], [0j, 1],
        np.array([[[0.0, 1.0]], [[0.0, 2.0]]]), [0.0, np.nan], [np.nan, 1.0],
        [1.0, 0.0], [0.0, 5.0], [-np.inf, 0.0], [0.0, np.inf], [], [0.5],
        np.zeros((2, 0)), 0.5)],
    "make_partition": [(a, 1.0, 2) for a in _NOT_REAL + [np.nan, np.inf]]
    + [(0.0, t, 2) for t in _NOT_REAL + [np.nan, np.inf, 0.0, -1.0]]
    + [(0.0, 1.0, n) for n in ("2", 2.5, np.nan, 0, -1)],
    "poisson_weight": [(x, 1.0, 1.0) for x in _NOT_REAL + [np.nan, 0.0, -1.0]]
    + [(1.0, x, 1.0) for x in _NOT_REAL + [np.nan]]
    + [(1.0, 1.0, x) for x in _NOT_REAL + [np.nan, 0.0, -np.inf]],
    "poisson_truncation": [(x, 1e-10) for x in _NOT_REAL + [np.nan, 0.0, -1.0, 2e6]]
    + [(1.0, x) for x in _NOT_REAL + [np.nan, 0.0, 1.0]],
    "poisson_mixture": [
        (lambda ns: [np.eye(2 + n % 2) for n in ns], 5.0, 1e-10),
        (lambda ns: _identity_terms(ns)[1:], 5.0, 1e-10),
        (lambda ns: [["a", "b"]] * len(ns), 5.0, 1e-10),
        (lambda ns: [None] * len(ns), 5.0, 1e-10),
        (lambda ns: np.full((len(ns), 2, 2), np.nan), 5.0, 1e-10),
        (lambda ns: 1.0, 5.0, 1e-10),
        (_identity_terms, "a", 1e-10), (_identity_terms, np.nan, 1e-10),
        (_identity_terms, 5.0, None), (_identity_terms, 5.0, 1.5)],
    "PathSumConfig": [(x, 1.0) for x in _NOT_REAL + [np.nan, np.inf, 0.0]]
    + [(1.0, x) for x in _NOT_REAL + [np.nan, -1.0]]
    + [(1.0, 1.0, x) for x in _NOT_REAL + [0.0, 1.0]]
    + [(1.0, 1.0, 1e-10, x) for x in ("100", 100.5, None)]
    + [(1.0, 1.0, 1e-10, 100, x) for x in (-1, 1.5, np.nan, "0")],
    "trial_rng": [(-1, 1), (1, -1), (1.5, 1), (np.nan, 1), (1, np.inf),
                  ("1", 1), (None, 0)],
    "sample_bubbles": [(PathSumConfig(lam=2e6, t=1.0), np.random.default_rng(0))],
    "U_lambda": [(_ON_01, PathSumConfig(lam=5.0, t=2.0)),
                 (_ON_0_10, PathSumConfig(lam=2e6, t=1.0))],
    "stieltjes_form": [(_ON_01, PathSumConfig(lam=5.0, t=1.0)),
                       (_ON_0_10, PathSumConfig(lam=2e6, t=1.0))]
    + [(_ON_0_10, PathSumConfig(lam=5.0, t=1.0), oracle) for oracle in (
        [[1, 2], [3]], np.eye(3), "a", np.full((2, 2), np.nan), np.eye(2)[None])],
    "monte_carlo_U": [(_ON_01, PathSumConfig(lam=5.0, t=1.0, trials=10)),
                      (_ON_01, PathSumConfig(lam=5.0, t=3.0, trials=100)),
                      (_ON_0_10, PathSumConfig(lam=2e6, t=1.0, trials=100))],
    "conditional_single_bubble_check": [
        (_ON_01, PathSumConfig(lam=50.0, t=1.0, trials=100)),
        (_ON_01, PathSumConfig(lam=1.0, t=3.0, trials=100)),
        (_ON_01, PathSumConfig(lam=1.0, t=1.0, trials=10))],
}


def _numbers(out):
    """The numbers a path-sum call returned, for the finiteness check."""
    if isinstance(out, PropagatorResult):
        return out.U
    if isinstance(out, tuple):
        return out[0]
    if isinstance(out, (PathSumConfig, np.random.Generator)):
        return 0.0
    return out


@pytest.mark.parametrize("name", sorted(_HOSTILE_PATH_SUM_CALLS))
def test_path_sum_gives_a_finite_result_or_a_chronos_error(name):
    leaks = []
    for args in _HOSTILE_PATH_SUM_CALLS[name]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = getattr(path_sum, name)(*args)
        except ChronosError:
            continue
        except Exception as exc:
            leaks.append(f"{args!r}: {type(exc).__name__}: {exc}")
            continue
        if not np.all(np.isfinite(_numbers(out))):
            leaks.append(f"{args!r}: non-finite result")
    assert not leaks, "\n".join(leaks)


def test_hostile_table_covers_every_exported_path_sum_callable():
    exported = {name for name, obj in vars(chronos).items()
                if callable(obj) and getattr(obj, "__module__", None) == "chronos.path_sum"}
    assert exported == set(_HOSTILE_PATH_SUM_CALLS)

