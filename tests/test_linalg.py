import numpy as np
import pytest
import scipy.linalg

from chronos.errors import DimensionError, DomainError
from chronos.linalg import (_PADE_THETA, DissipativityReport, _matmul, _solve,
                            dissipativity, expm_stack, hermitian_part,
                            matrix_exp, operator_norm, random_dissipative,
                            resolvent, yosida)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

# Largest 1-norms that select each Pade degree, and one that needs squaring.
PADE_NORMS = [0.9 * _PADE_THETA[m] for m in (3, 5, 7, 9, 13)] + [
    4.0 * _PADE_THETA[13]]


def scaled_to_norm(A, norm1):
    """A rescaled so the largest column 1-norm in the stack is norm1."""
    return A * (norm1 / np.max(np.sum(np.abs(A), axis=-2)))


def test_operator_norm_identity():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0)


def test_operator_norm_zero():
    assert operator_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_diagonal():
    # Singular values of a diagonal matrix are the absolute entries.
    assert operator_norm(np.diag([-1.0, -2.0])) == pytest.approx(2.0, rel=1e-10)


def test_operator_norm_matches_svd_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = rng.integers(1, 9)
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert operator_norm(A) == pytest.approx(
            np.linalg.norm(A, 2), rel=1e-8, abs=1e-12)


def test_operator_norm_degenerate_singular_values():
    # Repeated top singular value.
    U = np.eye(4, dtype=complex)
    A = 3.0 * U
    assert operator_norm(A) == pytest.approx(3.0, rel=1e-10)


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionError):
        operator_norm(np.ones((2, 3)))


def test_as_matrix_rejects_nan():
    with pytest.raises(DimensionError):
        operator_norm(np.array([[np.nan, 0], [0, 1]]))


def test_dissipativity_negative_identity():
    rep = dissipativity(-np.eye(3))
    assert rep.margin == pytest.approx(-1.0)
    assert rep.is_dissipative


def test_dissipativity_skew_hermitian():
    rep = dissipativity(1j * SIGMA_Z)
    assert rep.margin == pytest.approx(0.0, abs=1e-14)
    assert rep.is_dissipative


def test_dissipativity_indefinite_diagonal():
    rep = dissipativity(np.diag([1.0, -1.0]))
    assert rep.margin == pytest.approx(1.0)
    assert not rep.is_dissipative


def test_dissipativity_report_is_frozen():
    rep = dissipativity(-np.eye(2))
    assert isinstance(rep, DissipativityReport)
    with pytest.raises(AttributeError):
        rep.margin = 0.0


def test_hermitian_part():
    A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    S = hermitian_part(A)
    assert np.allclose(S, S.conj().T)
    assert np.allclose(S, [[1, 1], [1, 1]])


def test_resolvent_zero_operator():
    assert np.allclose(resolvent(np.zeros((2, 2)), 1.0), np.eye(2))


def test_resolvent_scalar_formula():
    assert np.allclose(resolvent(np.diag([-1.0]), 1.0), np.diag([0.5]))
    assert np.allclose(resolvent(-np.eye(3), 2.0), np.eye(3) / 3.0)


def test_resolvent_bound_for_dissipative_operators():
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = random_dissipative(rng, int(rng.integers(1, 7)))
        for z in (0.5, 1.0, 10.0):
            assert operator_norm(resolvent(H, z)) <= 1.0 / z + 1e-10


def test_resolvent_requires_positive_z():
    with pytest.raises(DomainError):
        resolvent(-np.eye(2), 0.0)
    with pytest.raises(DomainError):
        resolvent(-np.eye(2), -1.0)


def test_yosida_zero_operator():
    for z in (1.0, 10.0, 1e4):
        assert np.allclose(yosida(np.zeros((2, 2)), z), 0.0)


def test_yosida_scalar_formula():
    # z lam / (z - lam) with lam = -1 at z = 1 gives -1/2.
    assert np.allclose(yosida(-np.eye(2), 1.0), -0.5 * np.eye(2))
    assert np.allclose(yosida(np.diag([-1.0, -2.0]), 2.0),
                       np.diag([-2.0 / 3.0, -1.0]))


def test_yosida_converges_to_generator():
    rng = np.random.default_rng(11)
    H = random_dissipative(rng, 4)
    gaps = [operator_norm(yosida(H, z) - H) for z in (1e2, 1e3, 1e4)]
    assert gaps[2] < gaps[1] < gaps[0]
    # First-order convergence: gap ~ ||H^2|| / z.
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.05)


def test_matrix_exp_zero():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))


def test_matrix_exp_scalar():
    assert matrix_exp(np.diag([-1.0]))[0, 0] == pytest.approx(
        0.36787944117144233, rel=1e-14)


def test_matrix_exp_skew_hermitian_is_unitary():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    K = 0.5 * (X - X.conj().T)
    U = matrix_exp(K)
    assert np.linalg.norm(U.conj().T @ U - np.eye(4), 2) <= 1e-12


def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(17)
    for scale in (0.01, 1.0, 30.0):
        A = scale * (rng.standard_normal((5, 5))
                     + 1j * rng.standard_normal((5, 5)))
        ref = scipy.linalg.expm(A)
        assert np.linalg.norm(matrix_exp(A) - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2)
    for norm1 in PADE_NORMS:
        A = scaled_to_norm(rng.standard_normal((2, 2))
                           + 1j * rng.standard_normal((2, 2)), norm1)
        ref = scipy.linalg.expm(A)
        assert np.linalg.norm(matrix_exp(A) - ref, 2) <= 1e-10 * np.linalg.norm(ref, 2)


def test_expm_stack_matches_per_matrix():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    E = expm_stack(A)
    for k in range(6):
        assert np.allclose(E[k], scipy.linalg.expm(A[k]), atol=1e-12)
    for norm1 in PADE_NORMS:
        A = scaled_to_norm(rng.standard_normal((40, 2, 2))
                           + 1j * rng.standard_normal((40, 2, 2)), norm1)
        E = expm_stack(A)
        for k in range(40):
            ref = scipy.linalg.expm(A[k])
            assert np.linalg.norm(E[k] - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [1, 5, 1000])
def test_stack_kernels_match_numpy(d, n):
    rng = np.random.default_rng(100 * d + n)

    def stack():
        return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))

    A, B = stack(), stack()
    size = np.linalg.norm(A, axis=(1, 2)) * np.linalg.norm(B, axis=(1, 2))
    assert np.all(np.linalg.norm(_matmul(A, B) - A @ B, axis=(1, 2))
                  <= 1e-14 * size)
    # Well-conditioned systems (cond <= 4), as a Pade denominator is.
    M = np.eye(d) + (0.25 / np.sqrt(d)) * stack()
    ref = np.linalg.solve(M, B)
    assert np.all(np.linalg.norm(_solve(M, B) - ref, axis=(1, 2))
                  <= 1e-14 * np.linalg.norm(ref, axis=(1, 2)))


def test_expm_stack_semigroup_property():
    rng = np.random.default_rng(29)
    H = random_dissipative(rng, 4)
    U1 = matrix_exp(0.3 * H) @ matrix_exp(0.7 * H)
    assert np.allclose(U1, matrix_exp(H), atol=1e-12)


def test_random_dissipative_margin():
    rng = np.random.default_rng(41)
    for margin in (0.0, 0.5):
        H = random_dissipative(rng, 5, margin=margin)
        assert dissipativity(H).margin <= -margin + 1e-12


def test_contraction_semigroup_norm_bound():
    rng = np.random.default_rng(43)
    for _ in range(10):
        H = random_dissipative(rng, 4)
        for tau in (0.1, 1.0, 10.0):
            assert operator_norm(matrix_exp(tau * H)) <= 1.0 + 1e-12
