"""Dense complex matrix primitives.

Norms, the matrix exponential, resolvents, dissipativity certification and
Yosida approximants.  Everything here is a pure function of immutable numpy
arrays; all other modules build on these.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, RangeError, SingularityError

MAX_DENSE_DIM = 4096  # largest dimension materialized as a dense matrix

# Diagonal Pade coefficients and backward-error thresholds (Higham 2005).
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def _complex_array(M, name: str) -> np.ndarray:
    """M as a complex array; a ragged or non-numeric M is a DimensionError."""
    try:
        return np.asarray(M, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} is not a numeric array: {exc}") from None


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a square complex matrix, d >= 1, with finite entries."""
    A = _complex_array(M, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not len(A):
        raise DimensionError(
            f"{name} must be square with d >= 1, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise DimensionError(f"{name} contains non-finite entries")
    return A


def _owned_matrix(M, name: str) -> np.ndarray:
    """as_matrix as a read-only copy, which no caller's array aliases."""
    A = as_matrix(M, name).copy()
    A.flags.writeable = False
    return A


def hermitian_part(H) -> np.ndarray:
    A = as_matrix(H, "H")
    return 0.5 * (A + A.conj().T)


def operator_norm(M) -> float:
    """Spectral norm (largest singular value) of a square matrix."""
    return float(np.linalg.norm(as_matrix(M), 2))


@dataclass(frozen=True)
class DissipativityReport:
    """Largest eigenvalue of the Hermitian part, and the resulting verdict."""

    margin: float
    is_dissipative: bool


def dissipativity(H) -> DissipativityReport:
    """Certify Re<Hx,x> <= 1e-10 for all unit x via the Hermitian part."""
    margin = float(np.linalg.eigvalsh(hermitian_part(H))[-1])
    return DissipativityReport(margin=margin, is_dissipative=margin <= 1e-10)


def resolvent(H, z: float) -> np.ndarray:
    """(zI - H)^{-1} for real finite z > 0."""
    A = as_matrix(H, "H")
    if not 0 < z < np.inf:
        raise DomainError(f"resolvent requires a finite z > 0, got z={z}")
    d = A.shape[0]
    M = z * np.eye(d) - A
    I = np.eye(d)
    try:
        R = np.linalg.solve(M, I)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"zI - H is singular at z={z}") from exc
    # One step of iterative refinement keeps the residual near machine level.
    R = R + np.linalg.solve(M, I - M @ R)
    residual = np.linalg.norm(M @ R - I, 2)
    if not residual <= 1e-10 * max(1.0, np.linalg.norm(R, 2)):
        raise SingularityError(
            f"zI - H is numerically singular at z={z} (residual {residual:.3e})")
    return R


def yosida(H, z: float) -> np.ndarray:
    """Bounded approximant z H (zI - H)^{-1} = z^2 R(z,H) - z I."""
    A = as_matrix(H, "H")
    return z * (A @ resolvent(A, z))


def _matmul(A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    """A @ B over stacks of square matrices, into `out` when given.

    numpy hands a stack to one BLAS call per matrix; at d = 2 two broadcast
    outer products are faster from about 16 matrices up.  `out` must not
    overlap A or B.
    """
    if A.shape[-1] != 2:
        return np.matmul(A, B, out=out)
    C = np.multiply(A[..., :, 0:1], B[..., 0:1, :], out=out)
    C += A[..., :, 1:2] * B[..., 1:2, :]
    return C


def _plane_matmul(A: np.ndarray, B: np.ndarray, out=None) -> np.ndarray:
    """_matmul of 2 x 2 stacks held batch-last, as (2, 2, N) planes: the same
    products and sums, each over one long inner loop."""
    C = np.multiply(A[:, 0:1], B[0:1], out=out)
    C += A[:, 1:2] * B[1:2]
    return C


_PLANE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]


def _plane_solve(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """M^{-1} R over 2 x 2 stacks held as (2, 2, N) planes: the adjugate
    [[d, -b], [-c, a]] over the determinant, taken straight from the
    entries.  Only for well-conditioned M, such as a Pade denominator."""
    adj = M[::-1, ::-1].swapaxes(0, 1) * _PLANE_SIGN
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    C = _plane_matmul(adj, R)
    C /= det
    return C


def _accumulate(acc: np.ndarray, terms, tmp: np.ndarray) -> np.ndarray:
    """acc + c_1 X_1 + c_2 X_2 + ..., added left to right into acc; tmp is
    scratch of acc's shape."""
    for c, X in terms:
        acc += np.multiply(X, c, out=tmp)
    return acc


def matrix_exp(M) -> np.ndarray:
    """Matrix exponential of a single square matrix."""
    A = as_matrix(M)
    return expm_stack(A[np.newaxis])[0]


def _pade_choice(norm1: float) -> tuple:
    """(Pade degree, squarings) for a stack of largest 1-norm norm1; degree
    0 for the zero stack, whose exponential is the identity.  Finite entries
    can still sum to an infinite norm, which raises RangeError."""
    if norm1 == 0.0:
        return 0, 0
    degree = next((m for m in (3, 5, 7, 9) if norm1 <= _PADE_THETA[m]), 13)
    if not norm1 > _PADE_THETA[13]:
        return degree, 0
    if norm1 == np.inf:
        raise RangeError("matrix exponential overflowed: the 1-norm is infinite")
    return degree, int(np.ceil(np.log2(norm1 / _PADE_THETA[13])))


def _norms1(A: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of A (N, d, d), its largest column sum of
    |entries|: np.abs(A).sum(axis=-2).max(axis=-1) with the same sums, one
    row and one column at a time, over loops of length N."""
    a = np.abs(A)
    cols = a[:, 0]
    for i in range(1, A.shape[-1]):
        cols = cols + a[:, i]
    norms = cols[:, 0]
    for j in range(1, A.shape[-1]):
        norms = np.maximum(norms, cols[:, j])
    return norms


_THETAS = np.array(list(_PADE_THETA.values()))
_DEGREES = np.array(list(_PADE_THETA) + [13])


def _pade_classes(norms: np.ndarray):
    """([(degree, squarings), ...], label): the distinct _pade_choice of the
    norms, and the index of each norm's choice in that list.  The degree is
    the first whose threshold the norm does not exceed; only norms above the
    last threshold (or NaN) take the scalar rule for their squarings."""
    above = np.searchsorted(_THETAS, norms)
    degree, squarings = _DEGREES[above], np.zeros(len(norms), dtype=int)
    degree[norms == 0.0] = 0
    for i in np.flatnonzero(above == len(_THETAS)).tolist():
        degree[i], squarings[i] = _pade_choice(float(norms[i]))
    # Every degree is below 16, so one integer keys each choice.
    keys, label = np.unique(16 * squarings + degree, return_inverse=True)
    return [(k % 16, k // 16) for k in keys.tolist()], label


# Entries (matrices times d^2) of one slice of a stack: expm_stack and the
# path-sum sweeps work a slice at a time, so their work stacks stay at
# 64 KiB, below glibc's default 128 KiB mmap threshold, whatever the stack.
# Slices of 2^13 entries, 128 KiB each, are mapped afresh: 1,000-trial Monte
# Carlo jobs took about five times the minor faults of 2^12 (CHANGES.md).
_SLICE_ENTRIES = 2 ** 12


def expm_stack(A: np.ndarray, _pade=None) -> np.ndarray:
    """exp(A) over a stack of square matrices, shape (..., d, d).

    Scaling-and-squaring with a diagonal Pade approximant; _pade_choice
    takes the degree and the squaring count from the largest 1-norm in the
    stack.  A caller in this package that has classed the stack already
    hands that (degree, squarings) in as _pade.  The stack is exponentiated
    in slices of at most _SLICE_ENTRIES entries, each matrix on its own bits;
    at d = 2 a slice runs as (2, 2, N) planes.
    """
    A = _complex_array(A, "expm_stack input")
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or not A.shape[-1]:
        raise DimensionError(
            f"expm_stack needs (..., d, d) with d >= 1, got {A.shape}")
    d = A.shape[-1]
    flat = A.reshape(-1, d, d)
    step = max(1, _SLICE_ENTRIES // (d * d))
    bounds = range(0, len(flat), step)
    eye = np.eye(d, dtype=complex)
    if _pade is None:
        norms = [np.max(_norms1(flat[i:i + step])) for i in bounds]
        _pade = _pade_choice(float(np.max(norms, initial=0.0)))
    degree, s = _pade
    if degree == 0:
        return np.broadcast_to(eye, A.shape).copy()
    E = np.empty(flat.shape, dtype=complex)
    scale = 0.5 ** s
    for i in bounds:
        piece = flat[i:i + step]
        if d == 2:
            # Batch-last planes: every ufunc loop runs over the whole slice.
            planes = np.empty((2, 2, len(piece)), dtype=complex)
            planes[...] = piece.transpose(1, 2, 0)
            if s:
                planes *= scale
            E[i:i + step] = _pade_exp(planes, eye[:, :, None], degree, s,
                                      _plane_matmul, _plane_solve).transpose(2, 0, 1)
        else:
            E[i:i + step] = _pade_exp(piece * scale if s else piece, eye,
                                      degree, s, _matmul, np.linalg.solve)
    return E.reshape(A.shape)


def _pade_exp(A: np.ndarray, eye: np.ndarray, degree: int, s: int,
              mul: Callable, solve: Callable) -> np.ndarray:
    """exp of the scaled stack A by the degree-`degree` Pade approximant and
    s squarings, in any layout: mul and solve are its matrix product and
    solve, and eye broadcasts to the identity stack against A."""
    # Each sum adds its terms left to right into a buffer it owns, as the
    # plain expression would.  The low-degree sums start from b_1 I and b_0 I
    # rather than from an int 0: 0 + x turns -0.0 into +0.0, but b I holds
    # no -0.0, so every bit of the result is unchanged.
    eye = np.broadcast_to(eye, A.shape)
    b = _PADE_COEFFS[degree]
    A2 = mul(A, A)
    tmp = np.empty(A.shape, dtype=complex)
    if degree == 13:
        A4 = mul(A2, A2)
        A6 = mul(A2, A4)
        inner = _accumulate(np.multiply(A6, b[13]), ((b[11], A4), (b[9], A2)), tmp)
        U = _accumulate(mul(A6, inner),
                        ((b[7], A6), (b[5], A4), (b[3], A2), (b[1], eye)), tmp)
        _accumulate(np.multiply(A6, b[12], out=inner), ((b[10], A4), (b[8], A2)), tmp)
        V = _accumulate(mul(A6, inner),
                        ((b[6], A6), (b[4], A4), (b[2], A2), (b[0], eye)), tmp)
    else:
        powers = [eye, A2]
        for _ in range((degree - 1) // 2 - 1):
            powers.append(mul(powers[-1], A2))
        U = _accumulate(np.multiply(eye, b[1]),
                        ((b[2 * k + 1], P) for k, P in enumerate(powers[1:], 1)), tmp)
        V = _accumulate(np.multiply(eye, b[0]),
                        ((b[2 * k], P) for k, P in enumerate(powers[1:], 1)), tmp)
    AU = mul(A, U, out=tmp)
    E = solve(np.subtract(V, AU, out=U), np.add(V, AU, out=V))
    spare = U
    for _ in range(s):
        E, spare = mul(E, E, out=spare), E
    if not (np.all(np.isfinite(E.real)) and np.all(np.isfinite(E.imag))):
        raise RangeError("matrix exponential overflowed")
    return E


def random_dissipative(rng: np.random.Generator, dim: int,
                       margin: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Random matrix whose Hermitian part is <= -margin (dissipative).

    Built as a skew-Hermitian part plus a negative-semidefinite Hermitian
    part, each with entries of order `scale`.
    """
    if not isinstance(dim, numbers.Integral) or dim < 1:
        raise DimensionError(f"need an integer dim >= 1, got {dim!r}")
    if not (np.isfinite(margin) and np.isfinite(scale)):
        raise DomainError(f"need a finite margin and scale, got {margin}, {scale}")
    X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 0.5 * (X - X.conj().T)
    Y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    neg = -(Y @ Y.conj().T) / dim
    return scale * (skew + neg) - margin * np.eye(dim)
