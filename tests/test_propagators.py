import dataclasses
import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chronos import propagators
from chronos.errors import ConvergenceError, DimensionError, DomainError, RangeError
from chronos.families import (SIGMA_X, SIGMA_Y, SIGMA_Z, GeneratorFamily,
                              builtin_family, family_from_csv,
                              family_from_evaluator, family_from_matrix,
                              integrate_family, yosida_family)
from chronos.linalg import matrix_exp, operator_norm, random_dissipative
from chronos.propagators import (CANCELLATION_FLOOR, asymptotic_probe,
                                 dyson_expansion,
                                 dyson_terms, exp_propagator, ordered_product,
                                 product_integral,
                                 propagator_derivative_check,
                                 propagator_on_grid, remainder_310,
                                 remainder_42, taylor_partial_sum,
                                 yosida_propagator_convergence)
from chronos.smatrix import SMatrixConfig, _eigen_frame
from helpers import running_products


def test_ordered_product_ordering():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    B = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(ordered_product(np.stack([A, B])), B @ A)


def test_ordered_product_matches_loop_on_unitaries():
    rng = np.random.default_rng(31)
    Z = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
    mats = np.linalg.qr(Z)[0]
    ref = np.eye(2, dtype=complex)
    for M in mats:
        ref = M @ ref
    assert np.linalg.norm(ordered_product(mats) - ref, 2) <= 1e-12


def test_ordered_product_empty_and_single():
    assert np.allclose(ordered_product(np.zeros((0, 3, 3))), np.eye(3))
    M = np.arange(4.0).reshape(1, 2, 2)
    assert np.allclose(ordered_product(M), M[0])


def test_product_integral_constant_family():
    H = -1j * SIGMA_Z - 0.2 * np.eye(2)
    fam = family_from_matrix(H, interval=(0.0, 2.0))
    res = product_integral(fam, 0.0, 2.0, 1e-10)
    assert np.linalg.norm(res.U - matrix_exp(2.0 * H), 2) <= 1e-9


def test_product_integral_commuting_family():
    fam = builtin_family("scalar_commuting")
    Q = integrate_family(fam, 0.0, 1.0)
    res = product_integral(fam, 0.0, 1.0, 1e-10)
    assert np.linalg.norm(res.U - matrix_exp(Q), 2) <= 1e-9


def test_product_integral_unitary_for_skew_generators():
    fam = builtin_family("two_level_driven")
    U = product_integral(fam, 0.0, 1.0, 1e-10).U
    assert np.linalg.norm(U.conj().T @ U - np.eye(2), 2) <= 1e-9


def test_product_integral_degenerate_interval():
    fam = builtin_family("two_level_driven")
    assert np.allclose(product_integral(fam, 0.5, 0.5).U, np.eye(2))
    with pytest.raises(DomainError):
        product_integral(fam, 0.9, 0.1)


@pytest.mark.parametrize("s, t", [(0.0, 2.0), (1.0, 2.5), (0.5, 0.9),
                                  (math.nan, 1.5), (1.0, math.nan)])
def test_product_integral_rejects_times_outside_family(s, t):
    fam = builtin_family("two_level_driven", interval=(1.0, 2.0))
    with pytest.raises(DomainError):
        product_integral(fam, s, t)


BUILTIN_FAMILIES = ("constant", "scalar_commuting", "two_level_driven",
                    "damped_two_level", "random_smooth")
unit = st.floats(0.0, 1.0)
overhang = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUILTIN_FAMILIES), a=st.floats(-2.0, 1.0),
       length=st.floats(0.1, 2.0), left=overhang, right=overhang)
def test_super_intervals_hit_the_domain_guards(name, a, length, left, right):
    assume(left or right)
    fam = builtin_family(name, interval=(a, a + length))
    s, t = fam.a - left, fam.b + right
    for call in (lambda: integrate_family(fam, s, t),
                 lambda: product_integral(fam, s, t, 1e-8),
                 lambda: dyson_expansion(fam, s, t, 2)):
        with pytest.raises(DomainError):
            call()


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUILTIN_FAMILIES), a=st.floats(-2.0, 1.0),
       length=st.floats(0.1, 2.0), u=unit, v=unit)
def test_sub_intervals_give_finite_values(name, a, length, u, v):
    fam = builtin_family(name, interval=(a, a + length))
    s, t = (fam.a + length * x for x in sorted((u, v)))
    expn = dyson_expansion(fam, s, t, 2)
    for value in (integrate_family(fam, s, t),
                  product_integral(fam, s, t, 1e-8).U,
                  expn.remainder, *expn.terms):
        assert np.all(np.isfinite(value))


def test_product_integral_composition():
    fam = builtin_family("two_level_driven")
    whole = product_integral(fam, 0.0, 1.0, 1e-11).U
    first = product_integral(fam, 0.0, 0.4, 1e-11).U
    second = product_integral(fam, 0.4, 1.0, 1e-11).U
    assert np.linalg.norm(whole - second @ first, 2) <= 1e-9


def test_product_integral_unreachable_tolerance():
    fam = builtin_family("two_level_driven")
    with pytest.raises(ConvergenceError):
        product_integral(fam, 0.0, 1.0, 1e-16)


def test_propagator_on_grid_matches_oracle():
    fam = builtin_family("two_level_driven")
    path = propagator_on_grid(fam, 0.0, 1.0, 128)
    oracle = product_integral(fam, 0.0, 1.0, 1e-11).U
    assert np.linalg.norm(path[-1] - oracle, 2) <= 1e-8


@pytest.mark.parametrize("a,t,grid", [
    (5.0, 9.0, 8),          # outside [0, 1]
    (-0.5, 0.5, 8),         # starts before the family
    (0.8, 0.2, 8),          # t < a
    (0.0, 1.0, 0),          # no cell
    (math.nan, 1.0, 8),     # NaN endpoints
    (0.0, math.nan, 8),
    (0.0, 1.0, 8.0),        # not an integer
])
def test_propagator_on_grid_rejects_grids_outside_its_domain(a, t, grid):
    fam = builtin_family("random_smooth")
    with pytest.raises(DomainError):
        propagator_on_grid(fam, a, t, grid)


def _evaluated(fam):
    """fam without its separable form: its Magnus steps take the commutator
    of two evaluated stacks."""
    return dataclasses.replace(fam, evaluate_batch=lambda ts: fam.evaluate_batch(ts))


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
@pytest.mark.parametrize("w", [1.0, 0.7])
@pytest.mark.parametrize("steps", [1, 16, 1024])
def test_coefficient_magnus_steps_match_the_commutator_formula(dim, w, steps):
    fam = builtin_family("random_smooth", (dim, dim, 0.3), interval=(-1.0, 2.0))
    plain = _evaluated(fam)
    assert fam.separable is not None and plain.separable is None
    h = 3.0 / steps
    left = -1.0 + h * np.arange(steps)
    want = propagators._magnus_steps(plain, left, h, w)
    got = propagators._magnus_steps(fam, left, h, w)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("grid", [1, 2, 3, 8, 64, 65, 1000, 1024, 1025])
def test_propagator_on_grid_matches_the_running_product(dim, grid):
    fam = builtin_family("random_smooth", (1, dim, 0.2))
    path = propagator_on_grid(fam, 0.0, 1.0, grid, 0.8)
    ts = np.linspace(0.0, 1.0, grid + 1)
    want = running_products(propagators._magnus_steps(fam, ts[:-1], ts[1], 0.8))
    assert path.shape == want.shape
    assert np.array_equal(path[0], np.eye(dim))
    assert np.max(np.abs(path - want)) <= 1e-13


def test_magnus_after_a_collected_family_of_another_dimension():
    # Each family holds its own commutator table, so a family built where a
    # collected one lived (possibly at its id) never reads the old table.
    small = builtin_family("random_smooth", (0, 4, 0.2))
    assert product_integral(small, 0.0, 1.0).U.shape == (4, 4)
    del small
    gc.collect()
    big = builtin_family("random_smooth", (0, 6, 0.2))
    U = product_integral(big, 0.0, 1.0).U
    assert U.shape == (6, 6)
    assert np.linalg.norm(U - product_integral(_evaluated(big), 0.0, 1.0).U, 2) <= 1e-12


def test_replaced_evaluator_is_what_the_propagators_follow():
    fam = builtin_family("random_smooth", (2, 3, 0.2))

    def doubled(ts):
        return 2.0 * fam.evaluate_batch(ts)

    twice = dataclasses.replace(fam, evaluate_batch=doubled)
    assert np.linalg.norm(propagator_on_grid(twice, 0.0, 1.0, 64)[-1]
                          - propagator_on_grid(fam, 0.0, 1.0, 64, 2.0)[-1], 2) <= 1e-13
    assert np.linalg.norm(product_integral(twice, 0.0, 1.0).U
                          - propagator_on_grid(fam, 0.0, 1.0, 1024, 2.0)[-1], 2) <= 1e-9
    assert np.linalg.norm(dyson_expansion(twice, 0.0, 1.0, 2, 1.0).terms[1]
                          - 2.0 * dyson_expansion(fam, 0.0, 1.0, 2, 1.0).terms[1],
                          2) <= 1e-13


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_product_integral_tolerance_outside_its_domain(tol):
    fam = builtin_family("two_level_driven")
    with pytest.raises(DomainError, match="tol"):
        product_integral(fam, 0.0, 1.0, tol)


def rotating_field(delta, rabi, omega):
    """Rotating-field two-level family and its closed-form propagator.

    H(t) = -i[(delta/2) sz + (rabi/2)(cos(omega t) sx + sin(omega t) sy)];
    U(t) = exp(-i omega t sz / 2) exp(-i t [((delta - omega)/2) sz + (rabi/2) sx]).
    """
    def H(t):
        return -1j * (0.5 * delta * SIGMA_Z + 0.5 * rabi * (
            math.cos(omega * t) * SIGMA_X + math.sin(omega * t) * SIGMA_Y))

    def U(t):
        # exp(-i t a.sigma) = cos(t|a|) I - i sin(t|a|) a.sigma/|a|
        a = np.array([0.5 * rabi, 0.0, 0.5 * (delta - omega)])
        r = np.linalg.norm(a)
        a_sigma = a[0] * SIGMA_X + a[2] * SIGMA_Z
        static = math.cos(t * r) * np.eye(2) - 1j * math.sin(t * r) * a_sigma / r
        frame = np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])
        return frame @ static

    return H, U


@pytest.mark.parametrize("tol", [1e-10, 1e-11])
def test_product_integral_matches_rotating_field_closed_form(tol):
    H, U = rotating_field(1.3, 0.7, 2.1)
    fam = family_from_evaluator(H, interval=(0.0, 1.0))
    res = product_integral(fam, 0.0, 1.0, tol)
    assert np.linalg.norm(res.U - U(1.0), 2) <= tol


def test_product_integral_step_count():
    fam = builtin_family("two_level_driven")
    assert product_integral(fam, 0.0, 1.0, 1e-10).step_count <= 1024


def test_exp_propagator_identity_at_zero_w():
    Q = np.diag([-1.0, -2.0]).astype(complex)
    assert np.allclose(exp_propagator(Q, 0.0).U, np.eye(2))


def test_exp_propagator_diagonal():
    Q = np.diag([-1.0, -2.0]).astype(complex)
    assert np.allclose(exp_propagator(Q, 1.0).U,
                       np.diag([math.exp(-1.0), math.exp(-2.0)]), atol=1e-14)


def test_exp_propagator_contraction():
    rng = np.random.default_rng(2)
    Q = random_dissipative(rng, 5)
    res = exp_propagator(Q, 3.0)
    assert operator_norm(res.U) <= 1.0 + 1e-9
    assert res.contraction_margin <= 1e-9


def test_dyson_terms_zeroth_is_identity():
    fam = builtin_family("two_level_driven")
    exp = dyson_terms(fam, 0.0, 1.0, 0)
    assert np.allclose(exp.terms[0], np.eye(2))


def test_dyson_terms_constant_family():
    H = -1j * SIGMA_Z
    fam = family_from_matrix(H)
    exp = dyson_terms(fam, 0.0, 1.0, 2)
    assert np.linalg.norm(exp.terms[1] - H, 2) <= 1e-10
    assert np.linalg.norm(exp.terms[2] - 0.5 * H @ H, 2) <= 1e-10


def test_dyson_terms_commuting_collapse():
    fam = builtin_family("scalar_commuting")
    Q = integrate_family(fam, 0.0, 1.0)
    exp = dyson_terms(fam, 0.0, 1.0, 4)
    for k, T in enumerate(exp.terms):
        ref = np.linalg.matrix_power(Q, k) / math.factorial(k)
        assert np.linalg.norm(T - ref, 2) <= 1e-9


def test_dyson_tail_within_classical_bound():
    fam = builtin_family("two_level_driven")
    oracle = product_integral(fam, 0.0, 1.0, 1e-11).U
    exp = dyson_terms(fam, 0.0, 1.0, 4)
    ts = np.linspace(0.0, 1.0, 101)
    M = max(np.linalg.norm(H, 2) for H in fam.evaluate_batch(ts))
    tail = np.linalg.norm(oracle - exp.partial_sum(), 2)
    bound = (M ** 5) / math.factorial(5) * math.exp(M)
    assert tail <= bound


def test_dyson_terms_validation():
    fam = builtin_family("two_level_driven")
    with pytest.raises(DomainError):
        dyson_terms(fam, 0.0, 1.0, -1)
    for n in (1.5, 2.0, "2"):
        with pytest.raises(DomainError):
            dyson_terms(fam, 0.0, 1.0, n)
    # numpy integers are integers
    terms = dyson_terms(fam, 0.0, 1.0, np.int64(2)).terms
    assert [T.tobytes() for T in terms] == [
        T.tobytes() for T in dyson_terms(fam, 0.0, 1.0, 2).terms]
    assert np.array_equal(propagator_on_grid(fam, 0.0, 1.0, np.int64(8)),
                          propagator_on_grid(fam, 0.0, 1.0, 8))


@pytest.mark.parametrize("w", [-1.0, math.nan, math.inf])
def test_series_weight_below_0_or_nan_is_a_domain_error(w):
    fam = builtin_family("two_level_driven")
    for call in (lambda: remainder_42(fam, 0.0, 1.0, 2, w),
                 lambda: dyson_expansion(fam, 0.0, 1.0, 2, w)):
        with pytest.raises(DomainError):
            call()


def test_remainder_310_zero_operator():
    R = remainder_310(np.zeros((2, 2)), 0, 1.0)
    assert np.allclose(R, 0.0)


def test_remainder_310_scalar_case():
    # q = -1, n = 1, w = 1: R = e^{-1} - (1 - 1) = 0.36787944117...
    R = remainder_310(np.diag([-1.0]), 1, 1.0)
    assert R[0, 0].real == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_remainder_310_closes_exponential():
    rng = np.random.default_rng(13)
    Q = random_dissipative(rng, 4)
    for n in (0, 1, 3):
        lhs = taylor_partial_sum(Q, n, 0.7) + remainder_310(Q, n, 0.7)
        assert np.linalg.norm(lhs - matrix_exp(0.7 * Q), 2) <= 1e-9


def test_remainder_310_zero_width():
    Q = np.diag([-1.0, -2.0]).astype(complex)
    assert np.allclose(remainder_310(Q, 2, 0.0), 0.0)
    for w in (-1.0, math.nan):
        with pytest.raises(DomainError):
            remainder_310(Q, 2, w)


def test_remainder_42_zero_width():
    fam = builtin_family("two_level_driven")
    assert np.allclose(remainder_42(fam, 0.0, 1.0, 2, 0.0), 0.0)


def test_remainder_42_constant_family_order_zero():
    H = -1j * SIGMA_Z - 0.1 * np.eye(2)
    fam = family_from_matrix(H)
    exp = dyson_terms(fam, 0.0, 1.0, 0)
    R = remainder_42(fam, 0.0, 1.0, 0, 1.0)
    assert np.linalg.norm(exp.partial_sum() + R - matrix_exp(H), 2) <= 1e-8


def test_remainder_42_commuting_family():
    fam = builtin_family("scalar_commuting")
    Q = integrate_family(fam, 0.0, 1.0)
    exp = dyson_terms(fam, 0.0, 1.0, 2)
    R = remainder_42(fam, 0.0, 1.0, 2, 1.0)
    assert np.linalg.norm(exp.partial_sum() + R - matrix_exp(Q), 2) <= 1e-8


def test_remainder_42_noncommuting_closes_on_oracle():
    fam = builtin_family("two_level_driven")
    oracle = product_integral(fam, 0.0, 1.0, 1e-11).U
    for n in (0, 2, 4):
        exp = dyson_expansion(fam, 0.0, 1.0, n)
        closure = exp.partial_sum() + exp.remainder
        assert np.linalg.norm(closure - oracle, 2) <= 1e-8


def test_dyson_expansion_closes_on_oracle_order_one():
    # Partial sum + exact remainder is the oracle, also on a d = 4
    # non-commuting family (the closure tolerance of the order-0/2/4 test).
    for fam in (builtin_family("two_level_driven"),
                builtin_family("random_smooth", (3, 4, 0.5))):
        oracle = product_integral(fam, fam.a, fam.b, 1e-11).U
        exp = dyson_expansion(fam, fam.a, fam.b, 1)
        closure = exp.partial_sum() + exp.remainder
        assert np.linalg.norm(closure - oracle, 2) <= 1e-8


def _closure(exp, U) -> float:
    return float(np.linalg.norm(exp.partial_sum() + exp.remainder - U, 2))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_dyson_closure_on_random_smooth_is_at_rounding(dim):
    # The terms and remainder close on the series' own U_w by construction;
    # the oracle at tol 1e-12 checks that U_w.
    fam = builtin_family("random_smooth", (12345, dim, 0.2))
    oracle = product_integral(fam, fam.a, fam.b, 1e-12).U
    for n in range(5):
        assert _closure(dyson_expansion(fam, fam.a, fam.b, n), oracle) <= 1e-12


def _tabulated(path, ts, Hs):
    """The 2 x 2 family with values Hs at the times ts, linear between."""
    cols = ["t"] + [f"{p}_h{e}" for e in range(4) for p in ("re", "im")]
    lines = [",".join(cols)]
    for t, H in zip(ts, Hs):
        lines.append(",".join(repr(float(v)) for v in [t] + [
            x for entry in H.ravel() for x in (entry.real, entry.imag)]))
    path.write_text("\n".join(lines) + "\n")
    return family_from_csv(path)


def _table_family(path, ts):
    return _tabulated(path, ts, [
        -1j * (np.cos(2 * np.pi * t) * SIGMA_Z + np.sin(5 * t) * SIGMA_X) - 0.1 * np.eye(2)
        for t in ts])


def _row_by_row_oracle(fam, ts):
    # H is linear between rows, so the oracle runs row by row.
    U = np.eye(2)
    for s, t in zip(ts, ts[1:]):
        U = product_integral(fam, s, t, 1e-12).U @ U
    return U


def test_dyson_closure_on_a_tabulated_family_uses_its_breaks(tmp_path):
    ts = np.linspace(0.0, 1.0, 21)
    fam = _table_family(tmp_path / "table.csv", ts)
    assert fam.breaks == tuple(ts[1:-1])
    oracle = _row_by_row_oracle(fam, ts)
    for n in range(5):
        assert _closure(dyson_expansion(fam, 0.0, 1.0, n), oracle) <= 1e-11


@pytest.mark.parametrize("rows", [66, 101, 401])
def test_dyson_closure_on_a_table_with_more_rows_than_the_panel_cap(tmp_path, rows):
    # Past 65 rows the pieces between breaks outnumber the 64-panel cap, and
    # each piece is one panel, on which H is linear.
    ts = np.linspace(0.0, 1.0, rows)
    fam = _tabulated(tmp_path / "table.csv", ts,
                     builtin_family("two_level_driven", (1, 1, 3)).evaluate_batch(ts))
    assert len(propagators._series_panels(fam, 0.0, 1.0, 1.0)[0]) == rows - 1
    oracle = _row_by_row_oracle(fam, ts)
    for n in range(5):
        assert _closure(dyson_expansion(fam, 0.0, 1.0, n), oracle) <= 1e-12


def test_series_collocation_in_slices_keeps_the_bits(monkeypatch):
    fam = builtin_family("random_smooth", (3, 4, 0.2), interval=(0.0, 4.0))
    whole = dyson_expansion(fam, 0.0, 4.0, 2)
    monkeypatch.setattr(propagators, "_SOLVE_ENTRIES", 1)
    sliced = dyson_expansion(fam, 0.0, 4.0, 2)
    assert sliced.remainder.tobytes() == whole.remainder.tobytes()


@pytest.mark.parametrize("dim", [4, 6, 8])
@pytest.mark.parametrize("seed", [12345, 777])
def test_series_at_w_up_to_1_solves_1_panel_of_16_d_unknowns(monkeypatch, seed, dim):
    # ||H||_F L is 2.2-2.9 on these families but ||H||_2 L is below 2: one
    # panel, solving for its 16 nodes past node 0, whose value I is known.
    fam = builtin_family("random_smooth", (seed, dim, 0.2))
    solve, shapes = np.linalg.solve, []

    def spy(M, rhs):
        shapes.append((M.shape, rhs.shape))
        return solve(M, rhs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    for w in (0.5, 1.0):
        dyson_expansion(fam, fam.a, fam.b, 2, w)
    size = 16 * dim
    assert shapes == [((1, size, size), (1, size, dim))] * 2


@pytest.mark.parametrize("dim", [4, 5, 6, 7, 8])
def test_random_smooth_takes_1_panel_at_w_up_to_1(dim):
    # max ||H||_2 L over seeds 0-299 is below 1.97 at d = 4-8, and the
    # bound is within d^(1/64) of it.
    for seed in range(50):
        fam = builtin_family("random_smooth", (seed, dim, 0.2))
        for w in (0.5, 1.0):
            assert len(propagators._series_panels(fam, fam.a, fam.b, w)[0]) == 1


def _norm_bound_cases():
    rng = np.random.default_rng(29)
    for d in range(1, 17):
        Z = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
        yield f"gaussian_d{d}", Z
        # Non-normal: a triangle with a large off-diagonal part.
        yield f"triangular_d{d}", np.triu(Z) + 30.0 * np.triu(Z, 1)
        u = rng.standard_normal((8, d, 1)) + 1j * rng.standard_normal((8, d, 1))
        v = rng.standard_normal((8, 1, d)) + 1j * rng.standard_normal((8, 1, d))
        yield f"rank1_d{d}", u @ v
        yield f"jordan_d{d}", np.eye(d, k=1) + 0.5 * np.eye(d)
        for scale in (1e150, 1e-150):
            yield f"gaussian_d{d}_{scale:g}", scale * Z
    yield "zero", np.zeros((3, 4, 4), dtype=complex)


def test_norm_bound_is_above_the_largest_singular_value():
    eps = 64 * np.finfo(float).eps
    for name, H in _norm_bound_cases():
        d = H.shape[-1]
        beta = propagators._norm_bound(H)
        sigma = np.linalg.svd(H, compute_uv=False)[..., 0]
        assert np.all(np.isfinite(beta)), name
        assert np.all(beta >= sigma * (1 - eps)), name
        assert np.all(beta <= d ** (1 / 64) * sigma * (1 + eps)), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_panel_is_never_resolved(bad):
    H = np.broadcast_to(np.eye(3, dtype=complex), (2, 17, 3, 3)).copy()
    H[1, 5, 0, 2] = bad
    with np.errstate(invalid="ignore"):
        reach = propagators._reach(H, np.array([1e-300, 1e-300]), 1.0)
    assert reach[0] == pytest.approx(np.sqrt(3) * 1e-300)
    assert not reach[1] <= 1e300


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("w", [0.0, 1.0])
def test_series_of_a_non_finite_generator_is_a_range_error(bad, w):
    def batch(ts):
        H = np.broadcast_to(-1j * SIGMA_X, (len(ts), 2, 2)).copy()
        H[np.asarray(ts) > 0.5] = bad
        return H

    fam = GeneratorFamily(a=0.0, b=1.0, dim=2, evaluate_batch=batch, name="spoilt")
    for call in (lambda: dyson_expansion(fam, 0.0, 1.0, 2, w),
                 lambda: remainder_42(fam, 0.0, 1.0, 2, w),
                 lambda: dyson_terms(fam, 0.0, 1.0, 2)):
        with pytest.raises(RangeError, match="family 'spoilt' is non-finite"):
            call()


def _hopping_frame():
    # The d = 5, T = 8 hopping model of the S-matrix closure tests.
    J = np.eye(5, k=1)
    cfg = SMatrixConfig(H0=np.diag([2.0, 1.0, 0.0, -1.0, -2.0]),
                        V=0.3 * (J + J.T), T=8.0)
    return _eigen_frame(cfg)[0]


_SPLIT_FAMILIES = [lambda d=d: builtin_family("random_smooth", (12345, d, 0.2))
                   for d in (2, 4, 8)] + [_hopping_frame]


def _uniform_panels(panels):
    def series_panels(f, a, t, w):
        edges = np.linspace(a, t, panels + 1)
        return 0.5 * np.diff(edges), propagators._panel_values(f, edges[:-1], edges[1:])
    return series_panels


_ACCURACY_FAMILIES = {
    **{f"d{d}_{seed}": (lambda d=d, seed=seed: builtin_family("random_smooth", (seed, d, 0.2)))
       for d in range(2, 9) for seed in (12345, 777)},
    "eigen_d2_T2": lambda: _eigen_frame(SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0))[0],
    "eigen_d5_T8": _hopping_frame,
}


@pytest.mark.parametrize("name", list(_ACCURACY_FAMILIES))
def test_series_on_its_own_panels_matches_a_fine_uniform_reference(monkeypatch, name):
    # Against the same series on 64 uniform panels (256 for the eigen
    # frames, on [-T, T]), terms and remainders agree to rounding.  The
    # reference rounds too: on the eigen frames it moves by about 1e-14
    # from 256 to 512 panels.
    fam = _ACCURACY_FAMILIES[name]()
    fine = _uniform_panels(256 if name.startswith("eigen") else 64)
    for w in (0.5, 1.0, 4.0):
        for n in range(5):
            got = dyson_expansion(fam, fam.a, fam.b, n, w)
            with monkeypatch.context() as m:
                m.setattr(propagators, "_series_panels", fine)
                ref = dyson_expansion(fam, fam.a, fam.b, n, w)
            for x, y in zip([*got.terms, got.remainder], [*ref.terms, ref.remainder]):
                assert np.linalg.norm(x - y) <= 1e-14 * np.linalg.norm(y)


@pytest.mark.parametrize("make", _SPLIT_FAMILIES, ids=["d2", "d4", "d8", "eigen_d5_T8"])
def test_dyson_terms_obey_chens_identity(make):
    # T_k[a, b] = sum_j T_j[m, b] T_{k-j}[a, m]: each side on its own panels.
    fam = make()
    a, b = fam.a, fam.b
    m = a + 0.37 * (b - a)
    whole = dyson_terms(fam, a, b, 5).terms
    left = dyson_terms(fam, a, m, 5).terms
    right = dyson_terms(fam, m, b, 5).terms
    for k in range(6):
        split = sum(right[j] @ left[k - j] for j in range(k + 1))
        assert np.linalg.norm(whole[k] - split, 2) <= 1e-14 * np.linalg.norm(whole[k], 2)


@pytest.mark.parametrize("make", _SPLIT_FAMILIES, ids=["d2", "d4", "d8", "eigen_d5_T8"])
@pytest.mark.parametrize("w", [0.5, 1.0, 4.0, 8.0])
def test_series_propagator_composes_across_a_split(make, w):
    # I + R at order 0 is U_w[t, s]; U_w[b, a] = U_w[b, m] U_w[m, a].
    fam = make()
    a, b = fam.a, fam.b
    m = a + 0.37 * (b - a)

    def U(s, t):
        return np.eye(fam.dim) + dyson_expansion(fam, s, t, 0, w).remainder

    whole = U(a, b)
    assert np.linalg.norm(whole - U(m, b) @ U(a, m), 2) <= 1e-12 * np.linalg.norm(whole, 2)


def test_series_unresolved_at_the_grid_cap_is_a_range_error():
    # Past w ||H||_2 L = 4 on a panel at the panel cap the truncation
    # exceeds rounding.
    big = family_from_matrix(1e6 * np.eye(2))
    driven = builtin_family("two_level_driven")
    for call in (lambda: dyson_expansion(big, 0.0, 1.0, 2, 1.0),
                 lambda: remainder_42(big, 0.0, 1.0, 2, 1.0),
                 lambda: dyson_expansion(driven, 0.0, 1.0, 2, 1e8)):
        with pytest.raises(RangeError):
            call()
    # Terms alone never raise: w = 0 asks nothing of U_w.
    for exp in (dyson_terms(big, 0.0, 1.0, 2),
                dyson_expansion(big, 0.0, 1.0, 2, 0.0),
                dyson_terms(driven, 0.0, 1.0, 2)):
        assert all(np.all(np.isfinite(T)) for T in exp.terms)


@pytest.mark.parametrize("fam", [builtin_family("two_level_driven"),
                                 family_from_matrix(np.zeros((2, 2)))],
                         ids=["driven", "zero"])
def test_series_weight_whose_power_overflows_is_a_range_error(fam):
    for call in (lambda: remainder_42(fam, 0.0, 1.0, 2, 1e300),
                 lambda: dyson_expansion(fam, 0.0, 1.0, 2, 1e300)):
        with pytest.raises(RangeError):
            call()


def test_dyson_series_on_a_kink_that_no_break_marks():
    # The cumulative Simpson rule on 1,025 uniform points closed to 6.24e-8
    # on this kinked family; its panels must do no worse.
    simpson = 6.3e-8
    fam = family_from_evaluator(None, batch=lambda ts: -1j * (
        np.abs(np.atleast_1d(ts) - 1 / 3)[:, None, None] * SIGMA_X + SIGMA_Z))
    assert fam.breaks == ()
    oracle = (product_integral(fam, 1 / 3, 1.0, 1e-12).U
              @ product_integral(fam, 0.0, 1 / 3, 1e-12).U)
    for n in range(5):
        exp = dyson_expansion(fam, 0.0, 1.0, n, 1.0)
        assert all(np.all(np.isfinite(x)) for x in (*exp.terms, exp.remainder))
        assert _closure(exp, oracle) <= simpson


@pytest.mark.parametrize("a,t", [(-5.0, 9.0), (0.0, 1.5), (-0.5, 0.5), (0.8, 0.2),
                                 (math.nan, 1.0), (0.0, math.nan)])
def test_series_outside_family_interval_is_a_domain_error(a, t):
    fam = builtin_family("two_level_driven")
    for call in (lambda: dyson_terms(fam, a, t, 2),
                 lambda: remainder_42(fam, a, t, 2, 1.0),
                 lambda: dyson_expansion(fam, a, t, 2)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_dyson_expansion_is_terms_and_remainder_bit_for_bit(dim):
    # One H evaluation and shared work arrays change no bit of either half.
    fam = builtin_family("random_smooth", (dim, dim, 0.2))
    for n in (0, 1, 4):
        terms = dyson_terms(fam, fam.a, fam.b, n).terms
        for w in (0.7, 1.0):
            exp = dyson_expansion(fam, fam.a, fam.b, n, w)
            assert [T.tobytes() for T in exp.terms] == [T.tobytes() for T in terms]
            R = remainder_42(fam, fam.a, fam.b, n, w)
            assert exp.remainder.tobytes() == R.tobytes()


@pytest.mark.parametrize("warm,stacks", [(False, 10), (True, 4)],
                         ids=["cold", "warm"])
def test_dyson_expansion_peak_memory_is_bounded_in_grid_stacks(warm, stacks):
    # Work arrays are allocated once per call, not once per K iteration.  A
    # family used before (warm) has built the layers its separable form
    # caches; a fresh one (cold) builds them in the call.  The bound counts
    # stacks of 1,025 d x d matrices; this family takes 1 panel, 17 nodes.
    dim, nodes = 8, 1025
    fam = builtin_family("random_smooth", (0, dim, 0.2))
    dyson_expansion(fam, fam.a, fam.b, 4)
    if not warm:
        fam = builtin_family("random_smooth", (0, dim, 0.2))
    tracemalloc.start()
    try:
        dyson_expansion(fam, fam.a, fam.b, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stacks * nodes * dim * dim * 16


def _signed_family():
    # H(t) sees the sign of a zero t, so t = -0.0 and t = 0.0 differ in bits.
    base = builtin_family("random_smooth", (5, 2, 0.2))

    def batch(ts):
        return np.copysign(1.0, ts)[:, None, None] * base.evaluate_batch(ts)

    return GeneratorFamily(a=-1.0, b=1.0, dim=2, evaluate_batch=batch)


# (call, a, t, n, w)
_SERIES_CALLS = (
    ("expansion", 0.0, 1.0, 4, 1.0), ("expansion", 0.0, 1.0, 0, 1.0),
    ("remainder", 0.0, 1.0, 2, 1.0), ("terms", 0.0, 1.0, 3, 0.0),
    ("expansion", 0.0, 1.0, 2, 0.7), ("expansion", 0.0, 1.0, 2, 1.0),
    ("remainder", 0.0, 1.0, 1, 0.7), ("expansion", 0.0, 1.0, 2, 0.0),
    ("expansion", -0.0, 1.0, 1, 1.0), ("remainder", -0.0, 1.0, 1, 1.0),
    ("expansion", -1.0, 0.0, 1, 1.0), ("expansion", -1.0, -0.0, 1, 1.0),
    ("terms", -1.0, -0.0, 1, 0.0), ("terms", -1.0, 0.0, 1, 0.0),
)


def _series_bytes(fam, call):
    kind, a, t, n, w = call
    if kind == "remainder":
        return [remainder_42(fam, a, t, n, w).tobytes()]
    if kind == "terms":
        return [T.tobytes() for T in dyson_terms(fam, a, t, n).terms]
    exp = dyson_expansion(fam, a, t, n, w)
    return [T.tobytes() for T in exp.terms] + [exp.remainder.tobytes()]


_ON_FRESH_FAMILIES = [_series_bytes(_signed_family(), call) for call in _SERIES_CALLS]


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(_SERIES_CALLS))))
def test_series_calls_in_any_sequence_match_calls_on_fresh_families(order):
    # The series keeps nothing between calls: one family object, called in
    # any order, gives each call the bits it has on a family of its own.
    fam = _signed_family()
    for k in order:
        assert _series_bytes(fam, _SERIES_CALLS[k]) == _ON_FRESH_FAMILIES[k]


def test_series_follows_a_matrix_family_after_the_caller_writes():
    # The family owns a copy of H, so writing into the caller's array after
    # a first call changes neither the family nor the terms it gives.
    H = -1j * np.array([[0, 1], [-1, 0]], complex)
    fam = family_from_matrix(H)
    dyson_expansion(fam, 0.0, 1.0, 2)
    H[0, 0] = 5.0
    assert fam(0.5)[0, 0] == 0.0
    fresh = family_from_matrix(fam(0.5))
    assert [T.tobytes() for T in dyson_expansion(fam, 0.0, 1.0, 2).terms] == \
        [T.tobytes() for T in dyson_expansion(fresh, 0.0, 1.0, 2).terms]


def test_writing_into_series_results_changes_no_later_call():
    fam = builtin_family("random_smooth", (1, 3, 0.2))
    exp = dyson_expansion(fam, 0.0, 1.0, 2, 0.7)
    expected = [T.tobytes() for T in exp.terms] + [exp.remainder.tobytes()]
    for x in (*exp.terms, exp.remainder,
              remainder_42(fam, 0.0, 1.0, 2, 0.7),
              *dyson_terms(fam, 0.0, 1.0, 2).terms):
        x[...] = np.nan
    again = dyson_expansion(fam, 0.0, 1.0, 2, 0.7)
    assert [T.tobytes() for T in again.terms] + [again.remainder.tobytes()] == expected


def _ladder_bytes(fam, w):
    out = []
    for n in range(5):
        exp = dyson_expansion(fam, fam.a, fam.b, n, w)
        out += [T.tobytes() for T in exp.terms] + [exp.remainder.tobytes()]
    return out


def test_concurrent_ladders_on_one_family_match_a_serial_run():
    # More threads than cores start each round together; half take w = 1 and
    # half w = 0.7, so calls at both weights, on one family and its lazily
    # built separable form, run under one another.
    weights, threads, rounds = (1.0, 0.7), 4, 8
    serial = {w: _ladder_bytes(builtin_family("random_smooth", (2, 4, 0.2)), w)
              for w in weights}
    fam = builtin_family("random_smooth", (2, 4, 0.2))
    start = threading.Barrier(threads)
    matches = []

    def run(k):
        for r in range(rounds):
            w = weights[(k + r) % 2]
            start.wait(timeout=60)
            matches.append(_ladder_bytes(fam, w) == serial[w])

    pool = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in pool)
    assert matches == [True] * (threads * rounds)


def test_asymptotic_probe_scalar_limit():
    # w^{-2}(e^{wq} - 1 - wq) tends to q^2/2 entrywise.
    Q = np.diag([-1.0, -2.0]).astype(complex)
    w_list = [1e-2, 5e-3, 2.5e-3, 1.25e-3, 1e-3]
    order, limit, _ = asymptotic_probe(Q, 1, w_list)
    assert order == pytest.approx(2.0, abs=0.1)
    assert np.allclose(limit, np.diag([0.5, 2.0]), rtol=2e-3)


def test_asymptotic_probe_zero_operator():
    order, limit, _ = asymptotic_probe(
        np.zeros((2, 2)), 1, [0.1, 0.05, 0.025, 0.0125])
    assert order == float("inf")
    assert np.allclose(limit, 0.0)


def test_asymptotic_probe_random_dissipative_order():
    rng = np.random.default_rng(19)
    Q = random_dissipative(rng, 3)
    w_list = [0.04, 0.02, 0.01, 0.005, 0.0025]
    order, limit, _ = asymptotic_probe(Q, 2, w_list)
    assert 2.9 <= order <= 3.1
    ref = np.linalg.matrix_power(Q, 3) / math.factorial(3)
    assert np.linalg.norm(limit - ref, 2) <= 0.05 * np.linalg.norm(ref, 2)


def test_asymptotic_probe_fits_only_norms_above_the_cancellation_floor():
    # At order 6 the two smallest w lose their residual to cancellation; the
    # probe still returns their norms but fits the other three.
    Q = np.diag([-1.0, -2.0]).astype(complex)
    w_list = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    order, _, norms = asymptotic_probe(Q, 6, w_list)
    assert len(norms) == 5
    assert [r >= CANCELLATION_FLOOR for r in norms] == [True] * 3 + [False] * 2
    assert order == pytest.approx(6.987, abs=1e-3)


_Q = np.diag([-1.0, -2.0]).astype(complex)
_WS = [0.1, 0.05, 0.025, 0.0125]


def test_taylor_partial_sum_order_that_is_not_an_integer():
    with pytest.raises(DomainError, match="order"):
        taylor_partial_sum(_Q, 1.5, 0.1)


def test_taylor_partial_sum_negative_order():
    with pytest.raises(DomainError, match="order"):
        taylor_partial_sum(_Q, -1, 0.1)


def test_taylor_partial_sum_takes_a_nested_list():
    Q = [[0, 1], [-1, 0]]
    assert np.array_equal(taylor_partial_sum(Q, 2, 0.5),
                          taylor_partial_sum(np.array(Q, dtype=complex), 2, 0.5))
    with pytest.raises(DimensionError):
        taylor_partial_sum([[0, 1]], 2, 0.5)


@pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
def test_taylor_side_at_a_non_finite_weight_is_a_domain_error(w):
    with pytest.raises(DomainError, match="finite"):
        taylor_partial_sum(_Q, 2, w)
    with pytest.raises(DomainError, match="finite"):
        remainder_310(_Q, 2, w)


def test_remainder_310_order_that_is_not_an_integer():
    with pytest.raises(DomainError, match="order"):
        remainder_310(_Q, 1.5, 0.1)


def test_asymptotic_probe_order_that_is_not_an_integer():
    with pytest.raises(DomainError, match="order"):
        asymptotic_probe(_Q, 1.5, _WS)


def test_asymptotic_probe_negative_order():
    with pytest.raises(DomainError, match="order"):
        asymptotic_probe(_Q, -1, _WS)


def test_yosida_propagator_convergence_needs_a_z():
    with pytest.raises(DomainError):
        yosida_propagator_convergence(builtin_family("two_level_driven"), 0.0, 1.0, [])


def test_asymptotic_probe_validates_w_list():
    Q = np.diag([-1.0]).astype(complex)
    with pytest.raises(DomainError):
        asymptotic_probe(Q, 1, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(DomainError):
        asymptotic_probe(Q, 1, [0.1, 0.05])


def test_derivative_check_constant_family():
    H = -1j * SIGMA_Z
    fam = family_from_matrix(H, interval=(0.0, 2.0))
    slope = propagator_derivative_check(fam, 0.0, 1.0, [0.1, 0.05, 0.025])
    # Central difference of exp(tH) has a second-order defect.
    assert slope == pytest.approx(2.0, abs=0.1) or slope == float("inf")


def test_derivative_check_driven_family():
    fam = builtin_family("two_level_driven", interval=(0.0, 2.0))
    slope = propagator_derivative_check(fam, 0.0, 0.5, [0.1, 0.05, 0.025])
    assert slope >= 1.9


def test_derivative_check_interval_guard():
    fam = builtin_family("two_level_driven")
    with pytest.raises(DomainError):
        propagator_derivative_check(fam, 0.0, 1.0, [0.1])


def test_derivative_orderings_agree_for_commuting_families():
    # H(t)U and UH(t) coincide when the family commutes with its integral.
    fam = builtin_family("scalar_commuting", interval=(0.0, 2.0))
    t = 1.0
    U = product_integral(fam, 0.0, t, 1e-11).U
    H = fam(t)
    assert np.linalg.norm(H @ U - U @ H, 2) <= 1e-10


def test_yosida_propagator_convergence_rate():
    fam = builtin_family("damped_two_level")
    slope, _, _ = yosida_propagator_convergence(fam, 0.0, 1.0, [10.0, 100.0, 1000.0])
    assert slope <= -0.9


def test_yosida_propagator_exact_for_zero_family():
    fam = family_from_matrix(np.zeros((2, 2)))
    slope, _, _ = yosida_propagator_convergence(fam, 0.0, 1.0, [10.0, 100.0])
    assert slope == float("-inf")


def test_yosida_probe_returns_both_gaps_at_every_z():
    fam = builtin_family("damped_two_level")
    z_list = [10.0, 100.0, 1000.0]
    _, q_gaps, exp_gaps = yosida_propagator_convergence(fam, 0.0, 1.0, z_list)
    Q = integrate_family(fam, 0.0, 1.0)
    for z, q_gap, exp_gap in zip(z_list, q_gaps, exp_gaps):
        Qz = integrate_family(yosida_family(fam, z), 0.0, 1.0)
        assert q_gap == np.linalg.norm(Qz - Q, 2)
        assert exp_gap == np.linalg.norm(matrix_exp(Qz) - matrix_exp(Q), 2)
        assert exp_gap <= q_gap + 1e-10


def test_yosida_gap_scales_with_squared_norm():
    # Bounded constant H at large z: ||Q_z - Q|| ~ ||H^2||(t-a)/z.
    H = np.diag([-1.0, -2.0]).astype(complex)
    fam = family_from_matrix(H)
    z = 1e4
    Qz = integrate_family(yosida_family(fam, z), 0.0, 1.0)
    Q = integrate_family(fam, 0.0, 1.0)
    gap = np.linalg.norm(Qz - Q, 2)
    expected = np.linalg.norm(H @ H, 2) / z
    assert gap == pytest.approx(expected, rel=1e-3)
