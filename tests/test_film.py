import itertools

import numpy as np
import pytest

from chronos.errors import DimensionError, DomainError, ResourceError
from chronos.families import (SIGMA_X, SIGMA_Z, builtin_family,
                              family_from_matrix, integrate_family)
from chronos.film import (ExchangeOperator, FilmSpace, SlotOperator,
                          commutation_check, embed, exchange, film_Q,
                          midpoint_edges, residual_norm, slot_operator_norm,
                          verify_eq35, verify_eq38)
from chronos.linalg import matrix_exp, operator_norm


def film(n_slots, d=2, a=0.0, b=1.0):
    pad = 0.05 * (b - a)
    return FilmSpace(d, tuple(np.linspace(a + pad, b - pad, n_slots)))


def test_midpoint_edges_single_center():
    edges = midpoint_edges(0.0, 1.0, np.array([1.0]))
    assert np.allclose(edges, [0.0, 1.0])


def test_midpoint_edges_two_centers():
    edges = midpoint_edges(0.0, 1.0, np.array([0.5, 1.0]))
    assert np.allclose(edges, [0.0, 0.75, 1.0])


def test_midpoint_edges_requires_sorted_centers():
    with pytest.raises(DomainError):
        midpoint_edges(0.0, 1.0, np.array([0.5, 0.2]))


def test_film_space_dimensions():
    f = film(4)
    assert f.full_dim == 16
    assert f.n_slots == 4


def test_film_space_resource_cap():
    with pytest.raises(ResourceError):
        FilmSpace(2, tuple(np.linspace(0.0, 1.0, 21)))


def test_flat_index_slot_one_most_significant():
    f = film(3)
    assert f.flat_index([1, 0, 0]) == 4
    assert f.flat_index([0, 0, 1]) == 1


def test_generating_vector_is_unit_product_state():
    f = film(3)
    v = f.generating_vector(1)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert v[f.flat_index([1, 1, 1])] == 1.0


def test_embed_identity_acts_as_identity():
    f = film(3)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(f.full_dim) + 1j * rng.standard_normal(f.full_dim)
    assert np.allclose(embed(np.eye(2), 2, f).apply(v), v)


def test_embed_flips_only_its_slot():
    # sigma_x in slot 1 on e1 (x) e1 gives e2 (x) e1.
    f = film(2)
    v = np.zeros(4, dtype=complex)
    v[f.flat_index([0, 0])] = 1.0
    out = embed(SIGMA_X, 1, f).apply(v)
    expected = np.zeros(4, dtype=complex)
    expected[f.flat_index([1, 0])] = 1.0
    assert np.allclose(out, expected)


def kron_slot(f, H, slot):
    """Reference dense embedding I x .. x H x .. x I by Kronecker products."""
    left = np.eye(f.base_dim ** (slot - 1))
    right = np.eye(f.base_dim ** (f.n_slots - slot))
    return np.kron(np.kron(left, H), right)


def test_embed_dense_matches_apply():
    f = film(3)
    rng = np.random.default_rng(1)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for slot in (1, 2, 3):
        op = embed(H, slot, f)
        D = kron_slot(f, H, slot)
        assert np.array_equal(op.dense(), D)
        for _ in range(5):
            v = rng.standard_normal(f.full_dim) + 1j * rng.standard_normal(f.full_dim)
            assert np.allclose(op.apply(v), D @ v, atol=1e-13)


def test_apply_on_a_batch_is_apply_on_each_column():
    f = film(4)
    rng = np.random.default_rng(7)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    V = rng.standard_normal((f.full_dim, 3)) + 1j * rng.standard_normal((f.full_dim, 3))
    Q = film_Q(builtin_family("two_level_driven"), f)
    for op in (embed(H, 2, f), exchange(1, 4, f), Q):
        out = op.apply(V)
        assert out.shape == V.shape
        for c in range(3):
            assert np.array_equal(out[:, c], op.apply(V[:, c]))


@pytest.mark.parametrize("shape", [(15,), (17,), (8, 2), (16, 2, 2), ()])
def test_apply_rejects_a_wrong_leading_axis(shape):
    f = film(4)
    v = np.ones(shape, dtype=complex)
    for op in (embed(SIGMA_X, 2, f), exchange(1, 3, f),
               film_Q(builtin_family("two_level_driven"), f)):
        with pytest.raises(DimensionError, match="16"):
            op.apply(v)


def test_embedding_is_isometric_on_norms():
    for N in (1, 3, 6, 10):
        f = film(N)
        assert slot_operator_norm(embed(SIGMA_Z, min(2, N), f)) == pytest.approx(
            1.0, abs=1e-9)


def test_slot_norm_matches_base_norm():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = film(5)
    assert slot_operator_norm(embed(H, 3, f)) == pytest.approx(
        operator_norm(H), rel=1e-8)


def test_exchange_same_slot_is_identity():
    f = film(3)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(f.full_dim)
    assert np.allclose(exchange(2, 2, f).apply(v), v)


def test_exchange_transports_slot_contents():
    f = film(3)
    P = exchange(1, 3, f).dense()
    lhs = P @ embed(SIGMA_X, 1, f).dense() @ np.linalg.inv(P)
    assert np.linalg.norm(lhs - embed(SIGMA_X, 3, f).dense(), 2) <= 1e-14


def test_exchange_is_involution():
    f = film(4)
    P = exchange(2, 4, f).dense()
    assert np.linalg.norm(P @ P - np.eye(f.full_dim), 2) == 0.0


def test_exchange_axioms_exhaustive_small():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for N in (2, 3, 4):
        f = film(N)
        I = np.eye(f.full_dim)
        for j, k in itertools.permutations(range(1, N + 1), 2):
            P = exchange(j, k, f).dense()
            # Transport, symmetry and unitarity of the swap.
            assert np.linalg.norm(
                P @ embed(H, j, f).dense() @ np.linalg.inv(P)
                - embed(H, k, f).dense(), 2) <= 1e-13
            assert np.linalg.norm(P - exchange(k, j, f).dense(), 2) == 0.0
            assert np.linalg.norm(P.conj().T @ P - I, 2) == 0.0


def test_disjoint_slot_operators_commute():
    for N in (2, 4, 6):
        f = film(N)
        rng = np.random.default_rng(N)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for j, k in itertools.permutations(range(1, N + 1), 2):
            assert commutation_check(A, B, j, k, f) <= 1e-12


def test_commutation_check_nonzero_base_commutator():
    f = film(2)
    assert np.linalg.norm(SIGMA_X @ SIGMA_Z - SIGMA_Z @ SIGMA_X, 2) == 2.0
    assert commutation_check(SIGMA_X, SIGMA_Z, 1, 2, f) <= 1e-13


def test_commutation_check_rejects_equal_slots():
    with pytest.raises(DomainError):
        commutation_check(SIGMA_X, SIGMA_Z, 1, 1, film(2))


def test_commutation_check_matrix_free_large_film():
    # d^N = 2^13 exceeds the dense cap, exercising the vector path.
    f = film(13)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert commutation_check(A, B, 3, 11, f) <= 1e-12


def test_residual_norm_is_zero_only_for_an_exact_identity():
    f = film(3)
    rng = np.random.default_rng(8)
    H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    P, E1 = exchange(1, 3, f), embed(H, 1, f)

    def transport_to(slot):
        E = embed(H, slot, f)
        return lambda v: P.apply(E1.apply(P.apply(v))) - E.apply(v)

    assert residual_norm(f, transport_to(3)) == 0.0
    # The wrong target slot: the dense 2-norm of the Kronecker difference.
    D = kron_slot(f, H, 3) - kron_slot(f, H, 2)
    r = residual_norm(f, transport_to(2))
    assert r > 0.0
    assert r == pytest.approx(np.linalg.norm(D, 2), rel=1e-12)


def test_residual_norm_reaches_the_last_identity_column():
    # 512 columns in blocks of 12: the last block is partial, and the only
    # nonzero image column is the last one.
    f = film(9)
    last = np.zeros((f.full_dim, 1))
    last[-1] = 2.0
    assert residual_norm(f, lambda v: last * v) == 2.0


def test_residual_norm_caps_the_film_dimension():
    f = film(13)
    with pytest.raises(ResourceError, match="13 slots"):
        residual_norm(f, lambda v: v)


def test_film_Q_single_slot():
    fam = family_from_matrix(-1j * SIGMA_Z)
    f = FilmSpace(2, (0.5,))
    Q = film_Q(fam, f)
    assert np.allclose(Q.dense(), 1.0 * (-1j * SIGMA_Z), atol=1e-12)


def test_film_Q_constant_two_slots_dense_form():
    H = -1j * SIGMA_Z
    fam = family_from_matrix(H)
    f = FilmSpace(2, (0.25, 0.75))
    Q = film_Q(fam, f)
    expected = 0.5 * (np.kron(H, np.eye(2)) + np.kron(np.eye(2), H))
    assert np.allclose(Q.dense(), expected, atol=1e-12)


def test_film_Q_exponential_unitary_for_skew_generator():
    fam = family_from_matrix(-1j * SIGMA_X)
    f = film(3)
    U = matrix_exp(film_Q(fam, f).dense())
    assert np.linalg.norm(U.conj().T @ U - np.eye(f.full_dim), 2) <= 1e-12


def test_film_Q_base_sum_matches_riemann_sum():
    fam = builtin_family("two_level_driven")
    f = film(6)
    Q = film_Q(fam, f)
    ref = integrate_family(fam, 0.0, 1.0)
    # Midpoint-cell Riemann sum of a smooth family is close but not exact.
    assert np.linalg.norm(Q.base_sum() - ref, 2) <= 0.05


def test_film_Q_rejects_outside_slots():
    fam = builtin_family("two_level_driven")
    with pytest.raises(DomainError):
        film_Q(fam, FilmSpace(2, (0.5, 1.5)))


def test_norm_identity_on_generating_vectors():
    fam = family_from_matrix(-1j * SIGMA_X)
    for N in (1, 2, 3, 5, 8):
        f = film(N)
        assert verify_eq38(fam, f, 10.0, 0) <= 1e-10


def test_norm_identity_driven_family():
    fam = builtin_family("two_level_driven")
    for i in (0, 1):
        assert verify_eq38(fam, film(4), 50.0, i) <= 1e-10


def test_single_slot_identity_is_cauchy_schwarz_split():
    # N = 1: ||Q E||^2 = |<q e, e>|^2 + dt^2 (||H_z e||^2 - |<H_z e,e>|^2).
    fam = family_from_matrix(-1j * SIGMA_X)
    f = FilmSpace(2, (0.5,))
    assert verify_eq38(fam, f, 10.0, 0) <= 1e-14


def test_partition_difference_identical_partitions():
    fam = family_from_matrix(-1j * SIGMA_Z)
    centers = np.array([0.25, 0.75])
    assert verify_eq35(fam, 10.0, 0, centers, centers) <= 1e-14


def test_partition_difference_refinement():
    fam = family_from_matrix(-1j * SIGMA_Z - 0.3 * np.eye(2))
    coarse = np.array([0.25, 0.75])
    fine = np.array([0.125, 0.375, 0.625, 0.875])
    assert verify_eq35(fam, 10.0, 0, coarse, fine) <= 1e-12


def test_partition_difference_scalar_reading():
    # H(t) = t sigma_z: the film element reduces to the Riemann-sum
    # difference of the scalar t <sigma_z e, e> under the Yosida map.
    from chronos.families import family_from_evaluator
    fam = family_from_evaluator(lambda t: t * SIGMA_Z)
    coarse = np.array([0.5, 1.0])
    fine = np.array([0.25, 0.5, 0.75, 1.0])
    assert verify_eq35(fam, 1e5, 0, coarse, fine) <= 1e-12


def test_film_space_needs_a_base_a_slot_and_increasing_times():
    for d, times in ((0, (0.5,)), (2, ())):
        with pytest.raises(DimensionError, match="base_dim >= 1"):
            FilmSpace(d, times)
    for times in ((0.5, 0.2), (0.5, 0.5)):
        with pytest.raises(DomainError, match="strictly increasing"):
            FilmSpace(2, times)


def test_generating_vector_needs_a_basis_index_in_range():
    for i in (-1, 2):
        with pytest.raises(DomainError, match=r"outside 0\.\.1"):
            film(3).generating_vector(i)


def test_slot_and_exchange_operators_check_their_matrix_and_slots():
    f = film(3)
    with pytest.raises(DimensionError, match="base_dim is 2"):
        SlotOperator(f, np.eye(3), 1)
    for slot in (0, 4):
        with pytest.raises(DomainError, match=r"outside 1\.\.3"):
            SlotOperator(f, np.eye(2), slot)
        with pytest.raises(DomainError, match=r"outside 1\.\.3"):
            exchange(1, slot, f)


def test_slot_operator_norm_of_a_zero_operator_is_zero():
    assert slot_operator_norm(embed(np.zeros((2, 2)), 2, film(3))) == 0.0
