"""Toy-model scattering in the interaction picture.

Interaction-picture generator families, the Poisson-weighted experimental
scattering operator, the bubble-rate energy-shift identity, fixed
minimal-time-step regularization and the exact-order expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError
from .families import GeneratorFamily, SeparableForm
from .linalg import _owned_matrix
# Not called here, but the perfbench tracer rebinds expm_stack in this module.
from .linalg import expm_stack  # noqa: F401
from .path_sum import U_n, _U_for_count, _U_for_counts, poisson_mixture
from .propagators import (DysonExpansion, PropagatorResult, _as_int,
                          dyson_expansion, product_integral)


@dataclass(frozen=True)
class SMatrixConfig:
    """Free Hamiltonian, interaction, window and switching envelope."""

    H0: np.ndarray
    V: np.ndarray
    T: float
    hbar: float = 1.0
    lam: float = 1.0
    envelope: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        # Read-only copies: a config keeps its values when the caller's
        # arrays change.
        H0 = _owned_matrix(self.H0, "H0")
        V = _owned_matrix(self.V, "V")
        if H0.shape != V.shape:
            raise ConfigError(f"H0 {H0.shape} and V {V.shape} differ in shape")
        if np.linalg.norm(H0 - H0.conj().T, 2) > 1e-12:
            raise ConfigError("H0 must be Hermitian to 1e-12")
        for name in ("T", "hbar", "lam"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        object.__setattr__(self, "H0", H0)
        object.__setattr__(self, "V", V)

    def envelope_values(self, ts: np.ndarray) -> np.ndarray:
        if self.envelope is None:
            # Smooth integrable switching; width T/2 damps the window edges.
            return np.exp(-((ts / (0.5 * self.T)) ** 2))
        return np.asarray(self.envelope(ts), dtype=float)

    @property
    def dim(self) -> int:
        return self.H0.shape[0]


def _eigen_frame(cfg: SMatrixConfig) -> tuple[GeneratorFamily, Callable]:
    """Interaction generator in the H0 eigenbasis, and M -> W M W^H.

    With H0 = W diag(E) W^H the generator is elementwise,
    G_eig(t)_ab = (-i/hbar) envelope(t) e^{i(E_a - E_b)t/hbar} (W^H V W)_ab,
    and W G_eig(t) W^H = G(t).  Since exp(W X W^H) = W exp(X) W^H, any
    product of cell exponentials built from G_eig rotates back once.

    The family is a separable form with one coefficient envelope(t)
    e^{i omega t} per distinct gap omega = (E_a - E_b)/hbar of the nonzero
    entries of W^H V W, zero included, on the entries of that gap alone, so
    the supports are disjoint: one layer of (-i/hbar) W^H V W.  A gap's
    phase is p_a conj(p_b) for its entry (a, b) of least b, from the d - 1
    phases p_a = e^{i(E_a - E_0)t/hbar} and p_0 = 1, so a node costs at
    most d - 1 cosines and sines, and a gap E_a - E_0 no product.
    """
    evals, W = np.linalg.eigh(cfg.H0)
    Vr = (-1j / cfg.hbar) * (W.conj().T @ cfg.V @ W)
    d = cfg.dim
    # Gap (a, b) at flat index b d + a, so that the first entry of a gap
    # has the least b.  A zero entry takes any gap's coefficient.
    gap = (evals[None, :] - evals[:, None]).ravel() / cfg.hbar
    live = Vr.T.ravel() != 0
    live[0] |= not live.any()
    gaps, first = np.unique(gap[live], return_index=True)
    b, a = np.divmod(np.flatnonzero(live)[first], d)
    which = np.minimum(np.searchsorted(gaps, gap), len(gaps) - 1)
    rates = (evals[1:] - evals[0]) / cfg.hbar

    def coeffs(ts):
        ts = np.atleast_1d(ts)
        phase = np.empty((d, len(ts)), dtype=complex)
        phase[0] = 1.0
        arg = np.multiply.outer(rates, ts)
        np.cos(arg, out=phase.real[1:])
        np.sin(arg, out=phase.imag[1:])
        conj = phase.conj()
        phase *= cfg.envelope_values(ts)
        return np.multiply(phase[a], conj[b]).T

    fam = GeneratorFamily(
        a=-cfg.T, b=cfg.T, dim=d,
        dissipative=bool(np.linalg.norm(cfg.V - cfg.V.conj().T, 2) <= 1e-12),
        name="interaction_eigen", separable=SeparableForm.from_layers(
            coeffs, len(gaps), which.reshape(d, d).T.reshape(1, -1),
            Vr.reshape(1, -1)))
    return fam, lambda M: W @ M @ W.conj().T


def interaction_generator(cfg: SMatrixConfig) -> GeneratorFamily:
    """G(t) = (-i/hbar) envelope(t) e^{i H0 t/hbar} V e^{-i H0 t/hbar} on [-T, T]."""
    fam, rotate = _eigen_frame(cfg)
    return replace(fam, name="interaction",
                   evaluate_batch=lambda ts: rotate(fam.evaluate_batch(ts)))


def oracle_S(cfg: SMatrixConfig, tol: float = 1e-10) -> PropagatorResult:
    """Ground-truth scattering operator from the product-integral oracle,
    run in the H0 eigenbasis and rotated back once."""
    fam, rotate = _eigen_frame(cfg)
    res = product_integral(fam, -cfg.T, cfg.T, tol)
    return replace(res, U=rotate(res.U))


def S_n_experimental(cfg: SMatrixConfig, n: int) -> np.ndarray:
    """n-bubble scattering operator; n = 0 is the identity (blank film)."""
    if _as_int(n, "n") < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if n == 0:
        return np.eye(cfg.dim, dtype=complex)
    fam, rotate = _eigen_frame(cfg)
    return rotate(_U_for_count(fam, 2.0 * cfg.T, n))


def S_lambda(cfg: SMatrixConfig, tail_tol: float = 1e-10) -> PropagatorResult:
    """Poisson(2 lambda T)-weighted sum of the path-sum terms on [-T, T]:
    S_n_experimental for n >= 1, and for n = 0 the one-cell exposure
    exp(Q[T, -T]), not S_n_experimental(0) = I.  Each term is formed in the
    H0 eigenbasis and rotated back once.  step_count is n_max."""
    fam, rotate = _eigen_frame(cfg)
    res = poisson_mixture(
        lambda ns: np.array([rotate(U) for U in _U_for_counts(
            fam, ns, [2.0 * cfg.T] * len(ns))]),
        2.0 * cfg.lam * cfg.T, tail_tol)
    return replace(res, step_count=res.extras["n_max"])


def energy_shift_identity(cfg: SMatrixConfig, n: int) -> float:
    """Residual of the bubble-rate shift rewrite of the n-th Poisson term.

    Adding -i lambda hbar I to the Hamiltonian, -lambda I to the generator,
    multiplies each cell exponential by e^{-lambda dt}, so the n-th term of
    S_lambda taken on the shifted family carries the full Poisson factor
    e^{-2 lambda T}; both forms of the term must agree to machine precision.
    """
    if _as_int(n, "n") < 0:
        raise DomainError(f"need n >= 0, got {n}")
    fam, _ = _eigen_frame(cfg)  # the residual's 2-norm is basis-independent
    form = fam.separable

    def coeffs(ts):
        # Batch-last, as the eigen frame's own coefficients.
        return np.concatenate([form.coeffs(ts).T, np.ones((1, len(ts)))]).T

    # Its form plus -lambda I with a unit coefficient, as one more layer:
    # both terms then take the same coefficient sweep.
    index, value = form.layers
    shifted = replace(fam, evaluate_batch=None, separable=SeparableForm.from_layers(
        coeffs, form.terms + 1,
        np.vstack([index, np.full(index.shape[1], form.terms)]),
        np.vstack([value, -cfg.lam * np.eye(cfg.dim).reshape(1, -1)])))
    plain = _U_for_count(fam, 2.0 * cfg.T, n)
    damped = _U_for_count(shifted, 2.0 * cfg.T, n)
    return float(np.linalg.norm(np.exp(-2.0 * cfg.lam * cfg.T) * plain - damped, 2))


def fixed_dt_S(cfg: SMatrixConfig) -> np.ndarray:
    """Scattering operator with a fixed minimal time step 1/lambda.

    The window [-T, T] must hold an integer number of width-1/lambda
    cells; each cell's integrated generator is exponentiated and the
    exponentials are time-ordered.
    """
    m_float = 2.0 * cfg.T * cfg.lam
    m = int(round(m_float))
    if m < 1 or abs(m_float - m) > 1e-9:
        raise ConfigError(
            f"2*T*lambda = {m_float} must be a positive integer for fixed-step cells")
    fam, rotate = _eigen_frame(cfg)
    return rotate(U_n(fam, np.linspace(-cfg.T, cfg.T, m + 1)).U)


def dyson_S_expansion(cfg: SMatrixConfig, n: int) -> DysonExpansion:
    """Order-n expansion of S with the exact remainder.

    The interaction generator already carries (-i/hbar)^k into the k-th
    term; partial sum plus remainder reproduces the oracle S.  The series
    runs in the H0 eigenbasis, and each term and the remainder are rotated
    back once.
    """
    fam, rotate = _eigen_frame(cfg)
    exp = dyson_expansion(fam, -cfg.T, cfg.T, n, 1.0)
    return DysonExpansion(terms=[rotate(T) for T in exp.terms],
                          remainder=rotate(exp.remainder))
