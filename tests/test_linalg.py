import inspect
import itertools

import numpy as np
import pytest
import scipy.linalg

import chronos
from chronos import linalg
from chronos.errors import ChronosError, DimensionError, DomainError, RangeError
from chronos.linalg import (_PADE_COEFFS, _PADE_THETA, _SLICE_ENTRIES,
                            DissipativityReport, _accumulate, _matmul,
                            _norms1, _pade_choice, _pade_classes, _plane_solve,
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


# Inputs outside every linalg callable's domain: ragged, empty, wrongly
# shaped or non-finite matrices, non-finite or non-positive z, and bad sizes.
_HOSTILE_MATRICES = {
    "ragged": [[1, 2], [3]], "0x0": np.zeros((0, 0)), "3-D": np.ones((2, 2, 2)),
    "2x3": np.ones((2, 3)), "scalar": 1.0, "nan": [[np.nan, 0], [0, 1]],
    "nan 3x3": np.full((3, 3), np.nan), "+inf": [[np.inf, 0], [0, 1]],
    "-inf 3x3": np.diag([1.0, -np.inf, 0.0])}
_HOSTILE_Z = [np.nan, np.inf, -np.inf, 0.0, -1.0]
_HOSTILE_CALLS = {
    **{name: [(M,) for M in _HOSTILE_MATRICES.values()]
       for name in ("operator_norm", "hermitian_part", "dissipativity",
                    "matrix_exp", "expm_stack")},
    **{name: [(M, 1.0) for M in _HOSTILE_MATRICES.values()]
       + [(-np.eye(2), z) for z in _HOSTILE_Z]
       for name in ("resolvent", "yosida")},
    "random_dissipative": [(np.random.default_rng(0), *args) for args in (
        (0,), (-1,), (2.5,), (np.nan,), (np.inf,), (2, np.nan), (2, 0.0, np.inf))],
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_CALLS))
def test_linalg_gives_a_finite_result_or_a_chronos_error(name):
    leaks = []
    for args in _HOSTILE_CALLS[name]:
        try:
            with np.errstate(all="ignore"):
                out = getattr(linalg, name)(*args)
        except ChronosError:
            continue
        except Exception as exc:
            leaks.append(f"{args!r}: {type(exc).__name__}: {exc}")
            continue
        values = out.margin if isinstance(out, DissipativityReport) else out
        if not np.all(np.isfinite(values)):
            leaks.append(f"{args!r}: non-finite result")
    assert not leaks, "\n".join(leaks)


def test_hostile_table_covers_every_exported_linalg_function():
    exported = {name for name, obj in vars(chronos).items()
                if inspect.isfunction(obj) and obj.__module__ == "chronos.linalg"}
    assert exported == set(_HOSTILE_CALLS)


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
    assert np.all(np.linalg.norm(reference_solve(M, B) - ref, axis=(1, 2))
                  <= 1e-14 * np.linalg.norm(ref, axis=(1, 2)))
    if d == 2:
        planes = _plane_solve(M.transpose(1, 2, 0), B.transpose(1, 2, 0))
        assert planes.transpose(2, 0, 1).tobytes() == reference_solve(M, B).tobytes()


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


def reference_solve(M, R):
    """M^{-1} R over (N, d, d) stacks: at d = 2 by the adjugate
    [[d, -b], [-c, a]] over the determinant, the arithmetic of
    linalg._plane_solve; LAPACK otherwise."""
    if M.shape[-1] != 2:
        return np.linalg.solve(M, R)
    adj = M[..., ::-1, ::-1].swapaxes(-1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    C = _matmul(adj, R)
    C /= det[..., None, None]
    return C


def reference_expm(A, pade=None):
    """exp(A) by one (N, d, d) scaling-and-squaring body over the whole
    stack, as expm_stack computed it before it ran in slices and, at d = 2,
    on batch-last planes: the bitwise reference of expm_stack."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=complex), A.shape)
    if pade is None:
        pade = _pade_choice(float(np.max(np.sum(np.abs(A), axis=-2))) if A.size else 0.0)
    degree, s = pade
    if degree == 0:
        return eye.copy()
    if s:
        A = A * (0.5 ** s)
    b = _PADE_COEFFS[degree]
    A2 = _matmul(A, A)
    tmp = np.empty(A.shape, dtype=complex)
    if degree == 13:
        A4 = _matmul(A2, A2)
        A6 = _matmul(A2, A4)
        inner = _accumulate(np.multiply(A6, b[13]), ((b[11], A4), (b[9], A2)), tmp)
        U = _accumulate(_matmul(A6, inner),
                        ((b[7], A6), (b[5], A4), (b[3], A2), (b[1], eye)), tmp)
        _accumulate(np.multiply(A6, b[12], out=inner), ((b[10], A4), (b[8], A2)), tmp)
        V = _accumulate(_matmul(A6, inner),
                        ((b[6], A6), (b[4], A4), (b[2], A2), (b[0], eye)), tmp)
    else:
        powers = [eye, A2]
        for _ in range((degree - 1) // 2 - 1):
            powers.append(_matmul(powers[-1], A2))
        U = _accumulate(np.multiply(eye, b[1]),
                        ((b[2 * k + 1], P) for k, P in enumerate(powers[1:], 1)), tmp)
        V = _accumulate(np.multiply(eye, b[0]),
                        ((b[2 * k], P) for k, P in enumerate(powers[1:], 1)), tmp)
    AU = _matmul(A, U, out=tmp)
    E = reference_solve(np.subtract(V, AU, out=U), np.add(V, AU, out=V))
    spare = U
    for _ in range(s):
        E, spare = _matmul(E, E, out=spare), E
    if not (np.all(np.isfinite(E.real)) and np.all(np.isfinite(E.imag))):
        raise RangeError("matrix exponential overflowed")
    return E


def signed_zero_stack(rng, n, d, norm1):
    """(n, d, d) complex stack of largest 1-norm norm1 whose real and
    imaginary parts hold +0.0 and -0.0 entries."""
    A = scaled_to_norm(rng.standard_normal((n, d, d))
                       + 1j * rng.standard_normal((n, d, d)), norm1)
    for part in (A.real, A.imag):
        part[rng.random(part.shape) < 0.15] = 0.0
        part[rng.random(part.shape) < 0.15] = -0.0
        part.flat[0], part.flat[-1] = -0.0, 0.0
    return A


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_expm_stack_is_bitwise_the_stack_body(d):
    rng = np.random.default_rng(7 * d)
    per_slice = _SLICE_ENTRIES // d ** 2
    # One matrix, a part of a slice, and three slices and a bit.
    for n in (1, per_slice // 3 + 1, 3 * per_slice + 5):
        for norm1 in PADE_NORMS:
            A = signed_zero_stack(rng, n, d, norm1)
            assert np.signbit(A.real[A.real == 0]).any()
            assert np.signbit(A.imag[A.imag == 0]).any()
            assert expm_stack(A).tobytes() == reference_expm(A).tobytes()
    # Every degree, with and without squarings, as the kernel hands it in.
    A = signed_zero_stack(rng, 2 * per_slice + 3, d, 0.9 * _PADE_THETA[3])
    for degree in (3, 5, 7, 9, 13):
        for s in (0, 2):
            assert (expm_stack(A, (degree, s)).tobytes()
                    == reference_expm(A, (degree, s)).tobytes())


def test_expm_stack_keeps_shapes_and_the_zero_stack():
    rng = np.random.default_rng(3)
    for shape in ((3, 4, 2, 2), (2, 700, 2, 2), (5, 3, 3)):
        A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        E = expm_stack(A)
        assert E.shape == shape and E.flags.c_contiguous
        assert E.tobytes() == reference_expm(A).tobytes()
    for d in (2, 3):
        Z = np.zeros((2 * _SLICE_ENTRIES // d ** 2 + 1, d, d), dtype=complex)
        Z.imag[0, 0, 0] = -0.0
        assert expm_stack(Z).tobytes() == reference_expm(Z).tobytes()
        assert np.array_equal(expm_stack(Z), np.broadcast_to(np.eye(d), Z.shape))
    assert expm_stack(np.zeros((0, 2, 2))).shape == (0, 2, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_expm_stack_overflow_in_any_slice_raises(d):
    per_slice = _SLICE_ENTRIES // d ** 2
    n = 3 * per_slice
    # 800 I overflows in the squarings; 1e308 entries are finite, but their
    # column sums, the 1-norm, are not.
    for k, big in itertools.product((0, per_slice + 7, n - 1),
                                    (800.0 * np.eye(d), np.full((d, d), 1e308))):
        A = np.full((n, d, d), 0.01 + 0.0j)
        A[k] = big
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RangeError):
                reference_expm(A)
            with pytest.raises(RangeError):
                expm_stack(A)


def test_expm_stack_runs_in_slices(monkeypatch):
    seen = []
    body = linalg._pade_exp

    def recorded(A, *args):
        seen.append(A.shape)
        return body(A, *args)

    monkeypatch.setattr(linalg, "_pade_exp", recorded)
    expm_stack(np.full((2 * _SLICE_ENTRIES // 4 + 3, 2, 2), 0.1j))
    expm_stack(np.full((_SLICE_ENTRIES // 9 + 1, 3, 3), 0.1j))
    # d = 2 runs on (2, 2, N) planes, other sizes on (N, d, d) stacks.
    per_slice = _SLICE_ENTRIES // 4
    assert seen == [(2, 2, per_slice), (2, 2, per_slice), (2, 2, 3),
                    (_SLICE_ENTRIES // 9, 3, 3), (1, 3, 3)]


def test_pade_classes_match_the_scalar_rule():
    thetas = np.array(list(_PADE_THETA.values()))
    norms = np.concatenate([
        [0.0, -0.0, 5e-324, 1e-300, 1.0, 7.5, 1e3, 1e300, np.nan],
        thetas, np.nextafter(thetas, 0.0), np.nextafter(thetas, np.inf),
        thetas[-1] * 2.0 ** np.arange(1, 8), np.geomspace(1e-6, 1e6, 301)])
    kinds, label = _pade_classes(norms)
    assert len(set(kinds)) == len(kinds) and label.shape == norms.shape
    assert [kinds[k] for k in label.tolist()] == [_pade_choice(x) for x in norms.tolist()]
    with pytest.raises(RangeError):
        _pade_classes(np.array([1.0, np.inf]))


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_norms1_is_bitwise_the_column_sum_formula(d):
    rng = np.random.default_rng(d)
    A = signed_zero_stack(rng, 300, d, 1.0) * 10.0 ** rng.integers(-8, 8, (300, d, d))
    assert (_norms1(A).tobytes()
            == np.abs(A).sum(axis=-2).max(axis=-1).tobytes())
