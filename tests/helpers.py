"""Helpers shared by the test modules."""

import platform

import numpy as np

from chronos.families import SeparableForm
from chronos.path_sum import _cell_stack


def cell_generators(f, edges) -> np.ndarray:
    """The path-sum cell generators of edges (..., n + 1), as (..., n, d, d):
    leading axes are a batch of partitions."""
    edges = np.atleast_1d(edges)
    A = _cell_stack(f, [edges.reshape(-1, edges.shape[-1])])
    return A.reshape(edges.shape[:-1] + (edges.shape[-1] - 1, f.dim, f.dim))


def dense_form(coeffs, matrices) -> SeparableForm:
    """The separable form of coeffs and the matrices (K, d, d), one dense layer each."""
    B = np.asarray(matrices, dtype=complex)
    return SeparableForm(coeffs, len(B), np.arange(len(B))[:, None].repeat(B[0].size, 1),
                         B.reshape(len(B), -1))


def random_smooth_formula(seed: int, dim: int, gamma: float):
    """The evaluator of builtin_family("random_smooth", (seed, dim, gamma))
    as one closed formula, -i (A0 + sin t A1 + cos t A2) - gamma I, on the
    family's own Hermitian draws A0, A1, A2."""
    rng = np.random.default_rng(seed)

    def herm():
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = 0.5 * (X + X.conj().T)
        return X / max(np.linalg.norm(X, 2), 1e-12)

    A0, A1, A2 = herm(), herm(), herm()

    def batch(ts):
        ts = np.atleast_1d(ts)
        A = (A0[None] + np.sin(ts)[:, None, None] * A1[None]
             + np.cos(ts)[:, None, None] * A2[None])
        return -1j * A - gamma * np.eye(dim)[None]

    return batch


def running_products(E) -> np.ndarray:
    """P[j] = E[j-1] @ ... @ E[0] for j = 0..len(E), one product at a time."""
    d = E.shape[-1]
    out = np.empty((len(E) + 1, d, d), dtype=complex)
    out[0] = np.eye(d)
    for j in range(len(E)):
        np.matmul(E[j], out[j], out=out[j + 1])
    return out


def numerical_stack() -> dict:
    """The numpy version, BLAS and machine that bit-exact digests depend on."""
    # numpy < 1.26 has no CONFIG; its BLAS then reads as unknown.
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}
