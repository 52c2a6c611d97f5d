"""Evolution operators and series machinery.

Product-integral oracle, exp{wQ} propagators, time-ordered iterated
integrals, exact Taylor and series remainders and asymptotic-order probes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .errors import (ConsistencyError, ConvergenceError, DimensionError,
                     DomainError, RangeError)
from .families import (GeneratorFamily, _check_interval, integrate_family,
                       yosida_family)
from .linalg import _matmul, as_matrix, expm_stack, matrix_exp, operator_norm
from .quadrature import loglog_slope, panel_nodes

XI_PANELS = 32  # Gauss-5 panels of the xi-integral in remainder_310
# Norms below this are lost to cancellation: the asymptotic probe fits only
# the residuals at or above it, and Yosida gaps all below it count as exact.
CANCELLATION_FLOOR = 1e-13

# A Dyson-series panel holds _DEGREE + 1 Chebyshev-Lobatto nodes, from
# -1 to 1.  _TO_CHEBYSHEV maps values at the nodes to the Chebyshev
# coefficients of their interpolant, and _INTEGRATE to the integral of that
# interpolant from -1, at the nodes (row 0 is the empty integral).
_DEGREE = 16
_LOBATTO = -np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
_TO_CHEBYSHEV = np.linalg.inv(chebvander(_LOBATTO, _DEGREE))
_INTEGRATE = (chebvander(_LOBATTO, _DEGREE + 1)
              @ chebint(np.eye(_DEGREE + 1), lbnd=-1) @ _TO_CHEBYSHEV)
_INTEGRATE[0] = 0.0
_LOBATTO.flags.writeable = _TO_CHEBYSHEV.flags.writeable = _INTEGRATE.flags.writeable = False
_TAIL_TOL = 1e-14  # trailing Chebyshev coefficients, relative to max|H|
_SOLVE_ENTRIES = 2 ** 18  # matrix entries of one batched collocation solve
_MAX_PANELS = 64  # series panels, unless the pieces between breaks are more


@dataclass(frozen=True)
class PropagatorResult:
    """An evolution operator plus diagnostics."""

    U: np.ndarray
    step_count: int = 0
    error_estimate: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def contraction_margin(self) -> float:
        """||U|| - 1: at most 0 for a contraction."""
        return operator_norm(self.U) - 1.0


@dataclass(frozen=True)
class DysonExpansion:
    """Time-ordered iterated integrals T_0..T_n, optionally with a remainder."""

    terms: List[np.ndarray]
    remainder: Optional[np.ndarray] = None

    def partial_sum(self, w: float = 1.0) -> np.ndarray:
        return sum((w ** k) * T for k, T in enumerate(self.terms))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[m-1] @ ... @ mats[0] by log-depth pairwise multiplication.

    The product runs along axis -3; leading axes are a batch of products.
    Anything but a numeric array (..., m, d, d) is a DimensionError.
    """
    try:
        P = np.asarray(mats)
    except ValueError as exc:
        raise DimensionError(f"matrices are not an array: {exc}") from None
    if P.ndim < 3 or P.shape[-1] != P.shape[-2] or P.dtype.kind not in "biufc":
        raise DimensionError(f"need a numeric stack (..., m, d, d), got "
                             f"{P.dtype} {P.shape}")
    if P.shape[-3] == 0:
        return np.zeros(P.shape[:-3] + P.shape[-2:], complex) + np.eye(P.shape[-1])
    while P.shape[-3] > 1:
        k = P.shape[-3] // 2
        Q = _matmul(P[..., 1:2 * k:2, :, :], P[..., 0:2 * k:2, :, :])
        if P.shape[-3] % 2:
            Q = np.concatenate([Q, P[..., -1:, :, :]], axis=-3)
        P = Q
    return P[..., 0, :, :]


def product_integral(f: GeneratorFamily, s: float, t: float,
                     tol: float = 1e-10) -> PropagatorResult:
    """Ground-truth time-ordered propagator U[t, s].

    Limit of ordered products of fourth-order Magnus steps under step
    doubling, stopped when successive levels differ by <= tol.
    """
    _check_interval(f, s, t)
    if not (tol > 0 and math.isfinite(tol)):
        raise DomainError(f"need a finite tol > 0, got {tol}")
    if s == t:
        return PropagatorResult(U=np.eye(f.dim, dtype=complex))

    def level(steps):
        h = (t - s) / steps
        return ordered_product(_magnus_steps(f, s + h * np.arange(steps), h))

    steps = 16
    U_prev = level(steps)
    prev_diff = np.inf
    while True:
        steps *= 2
        U = level(steps)
        diff = np.linalg.norm(U - U_prev, 2)
        U_prev = U
        if diff <= tol:
            return PropagatorResult(U=U, step_count=steps, error_estimate=diff)
        # Roundoff accumulates like steps * eps; once halving stops helping
        # the requested tolerance is unreachable at this precision.
        if diff >= prev_diff or steps >= 1 << 22:
            raise ConvergenceError(
                f"product integral stalled at diff={diff:.3e} "
                f"({steps} steps); tol={tol:g} is below the roundoff floor")
        prev_diff = diff


def _magnus_steps(f: GeneratorFamily, left: np.ndarray, h: float,
                  w: float = 1.0) -> np.ndarray:
    """Fourth-order Magnus exponentials of w H over [left_j, left_j + h].

    Two-node Gauss commutator exponent; see Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470 (2009).  On a separable family H = sum_k c_k B_k the
    commutator is sum_{k<l} (c_k(t2) c_l(t1) - c_l(t2) c_k(t1)) [B_k, B_l],
    so the exponent is one coefficient product with the family's table.
    That costs K(K + 1)/2 d^2 multiply-adds a step, and two evaluated
    stacks and their commutator about 2 (L + d) d^2 (L the form's layers),
    so a form takes the table only where it is no dearer: random_smooth
    (K = L = 3) and the d = 2 eigen frame do, the eigen frame of a generic
    spectrum above d = 2 (K = d^2 - d + 1 gaps, one layer) does not.
    """
    c = np.sqrt(3.0) / 6.0
    t1, t2 = left + h * (0.5 - c), left + h * (0.5 + c)
    form = f.separable
    if form is not None and (form.terms * (form.terms + 1)
                             <= 4 * (len(form.layers[0]) + f.dim)):
        C1, C2 = form.coeffs(t1), form.coeffs(t2)
        k, l = form.pairs
        C = np.concatenate([(0.5 * h * w) * (C1 + C2),
                            (w * w * h * h * np.sqrt(3.0) / 12.0)
                            * (C2[:, k] * C1[:, l] - C2[:, l] * C1[:, k])], axis=1)
        d = f.dim
        return expm_stack((C @ form.table.reshape(-1, d * d)).reshape(-1, d, d))
    A1 = w * f.evaluate_batch(t1)
    A2 = w * f.evaluate_batch(t2)
    # omega = h/2 (A1 + A2) + h^2 sqrt(3)/12 [A2, A1], built in A1's buffer;
    # A2 and C are released before expm_stack allocates its own stacks.
    C = _matmul(A2, A1)
    C -= _matmul(A1, A2)
    C *= h * h * np.sqrt(3.0) / 12.0
    omega = np.add(A1, A2, out=A1)
    del A2
    omega *= 0.5 * h
    omega += C
    del C
    return expm_stack(omega)


def _prefix_products(E: np.ndarray) -> np.ndarray:
    """P[j] = E[j-1] @ ... @ E[0] for j = 0..m (P[0] = I), as a blocked
    product: blocks of s = ceil(sqrt(m)) factors build their local prefixes
    side by side, one batched product per position in a block; then, block
    by block, the local prefixes, stacked as one (s d, d) matrix, are
    multiplied by the finished prefix that ends the block before.  That is
    about 2 sqrt(m) calls where a running product takes m."""
    m, d = len(E), E.shape[-1]
    s = math.isqrt(m - 1) + 1
    nb = -(-m // s)
    out = np.empty((nb * s + 1, d, d), dtype=complex)
    out[0] = np.eye(d)
    out[m + 1:] = 0.0  # the padding of the last block, read by its product
    P = out[1:].reshape(nb, s, d, d)
    P[:, 0] = E[0::s]
    for i in range(1, s):
        Ei = E[i::s]
        np.matmul(Ei, P[:len(Ei), i - 1], out=P[:len(Ei), i])
    blocks = out[1:].reshape(nb, s * d, d)
    for j in range(1, nb):
        np.matmul(blocks[j], P[j - 1, -1], out=blocks[j])
    return out[:m + 1]


def propagator_on_grid(f: GeneratorFamily, a: float, t: float, grid: int,
                       w: float = 1.0) -> np.ndarray:
    """U_w[ts_j, a] on ts = linspace(a, t, grid + 1), one fourth-order Magnus
    step per cell, so the grid itself controls the accuracy."""
    grid = _as_int(grid, "grid")
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    _check_interval(f, a, t)
    ts = np.linspace(a, t, grid + 1)
    return _prefix_products(_magnus_steps(f, ts[:-1], ts[1] - ts[0], w))


def exp_propagator(Q, w: float) -> PropagatorResult:
    """Second-exponential-formula propagator exp(w Q)."""
    Q = as_matrix(Q, "Q")
    return PropagatorResult(U=matrix_exp(w * Q))


def _as_int(x, name: str) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {x!r}") from None


def _check_order(n) -> int:
    n = _as_int(n, "order")
    if n < 0:
        raise DomainError(f"order must be >= 0, got {n}")
    return n


def dyson_terms(f: GeneratorFamily, a: float, t: float, n: int) -> DysonExpansion:
    """Iterated time-ordered integrals T_0..T_n = K^k[I](t) by spectral
    integration on the series panels: the terms of dyson_expansion at w = 0."""
    return DysonExpansion(terms=dyson_expansion(f, a, t, n, 0.0).terms)


def taylor_partial_sum(Q, n: int, w: float) -> np.ndarray:
    """sum_{k=0}^n (wQ)^k / k!, for a finite w."""
    Q = as_matrix(Q, "Q")
    _check_order(n)
    if not math.isfinite(w):
        raise DomainError(f"w must be finite, got {w}")
    d = Q.shape[0]
    term = np.eye(d, dtype=complex)
    total = term.copy()
    for k in range(1, n + 1):
        term = (w / k) * (Q @ term)
        total += term
    return total


def remainder_310(Q, n: int, w: float) -> np.ndarray:
    """Exact Taylor remainder of exp(wQ) after order n.

    R = (1/n!) int_0^w (w - xi)^n Q^{n+1} exp(xi Q) dxi, so that
    sum_{k<=n} (wQ)^k/k! + R = exp(wQ) for any square Q.
    """
    Q = as_matrix(Q, "Q")
    if not 0 <= w < math.inf:
        raise DomainError(f"w must be finite and >= 0, got {w}")
    _check_order(n)
    if w == 0:
        return np.zeros_like(Q)
    xi, wts = panel_nodes(0.0, w, XI_PANELS)
    E = expm_stack(xi[:, None, None] * Q)
    Qp = np.linalg.matrix_power(Q, n + 1)
    weight = wts * (w - xi) ** n / math.factorial(n)
    return np.tensordot(weight, Qp[None] @ E, axes=(0, 0))


def remainder_42(f: GeneratorFamily, a: float, t: float, n: int,
                 w: float) -> np.ndarray:
    """Exact remainder R of the time-ordered series after order n, as in
    dyson_expansion: sum_{k<=n} w^k T_k + R reproduces the propagator U_w of
    w H(t) (exp(wQ) for commuting families), from the iterated integral
    equation R = w^{n+1} K^{n+1}[U_w](t) with (K g)(s) = int_a^s H(u) g(u) du.
    """
    return dyson_expansion(f, a, t, n, w).remainder


def _panel_values(f: GeneratorFamily, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """H at the Chebyshev-Lobatto nodes of the panels [lo_p, hi_p], as
    (P, _DEGREE + 1, d, d); each panel's end nodes are its edges exactly.
    A non-finite value is a RangeError that names the family and the node."""
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _LOBATTO
    nodes[:, 0], nodes[:, -1] = lo, hi
    H = f.evaluate_batch(nodes.ravel())
    if not np.all(np.isfinite(H)):
        bad = nodes.ravel()[~np.isfinite(H).all(axis=(-2, -1))][0]
        raise RangeError(f"the generator of family {f.name!r} is non-finite "
                         f"at t = {bad!r}")
    return H.reshape(len(lo), -1, f.dim, f.dim)


def _norm_bound(H: np.ndarray) -> np.ndarray:
    """beta >= ||H||_2 for each matrix of a stack (..., d, d), at most
    d^(1/64) ||H||_2: with s = max |H_ij| and X = H / s, ||X||_2^2 is the
    spectral radius of the positive semidefinite G = X^H X, and that of
    G^16 is at most ||G^16||_1 (any induced norm bounds it; Higham, Accuracy
    and Stability of Numerical Algorithms, sec. 6), itself at most sqrt(d)
    ||G^16||_2; so beta = s ||G^16||_1^(1/32), from four squarings.  X has
    an entry of modulus 1, so ||G^16||_1 lies in [1, d^32.5] and neither
    under- nor overflows.  s = 0 gives beta = 0; a non-finite H gives inf
    or NaN, which no test passes."""
    s = np.max(np.abs(H), axis=(-2, -1))
    X = H / np.where((s > 0) & (s < math.inf), s, 1.0)[..., None, None]
    G = np.matmul(X.conj().swapaxes(-2, -1), X)
    for _ in range(4):
        G = np.matmul(G, G)
    r = np.max(np.sum(np.abs(G), axis=-2), axis=-1) ** (1 / 32)
    return np.where(s < math.inf, s * r, s)


def _reach(H: np.ndarray, width: np.ndarray, w: float) -> np.ndarray:
    """L times a bound on ||H||_2 at the nodes of each panel of H (P, m, d,
    d): ||H||_F, where max(w, 1) ||H||_F L <= 2 already holds, else the
    tighter _norm_bound, which only those panels pay for."""
    fro = np.linalg.norm(H.reshape(*H.shape[:2], -1), axis=-1)
    reach = width * np.max(fro, axis=1)
    loose = ~(max(w, 1.0) * reach <= 2.0)
    if loose.any():
        reach[loose] = width[loose] * np.max(_norm_bound(H[loose]), axis=1)
    return reach


def _series_panels(f: GeneratorFamily, a: float, t: float, w: float):
    """Half-widths (P,) and H at the nodes, (P, _DEGREE + 1, d, d), of the
    Dyson-series panels of [a, t] for the weight w.  From the pieces between
    the family's breaks, each round halves a panel where the last two
    Chebyshev coefficients of H exceed _TAIL_TOL max|H|, and cuts it into
    as many parts (a power of two) as ||H||_2 L max(w, 1) <= 2 asks, with
    ||H||_2 bounded from above at its nodes (_reach: ||H||_F first, and
    _norm_bound, within d^(1/64) of ||H||_2, where ||H||_F fails); H, and
    its bound, are evaluated on new panels only.  U_w grows like
    e^{w ||H||_2 L x / 2} on a panel, and the degree-16 interpolant of that
    truncates at about (w ||H||_2 L / 4)^17 / 17!, 2e-20 at w ||H||_2 L = 2;
    the floor of 1 on w keeps the panels, and so the terms, the same at
    every w <= 1.  At most _MAX_PANELS panels, or the pieces if more: a
    round past the cap only halves, and one still past it is not taken.  At
    the cap, a panel whose bound gives w ||H||_2 L > 4 (truncation above
    rounding) is a RangeError when w > 0; one that only fails the tail rule
    is used as it is."""
    edges = np.array([a, *(s for s in f.breaks if a < s < t), t], dtype=float)
    cap = max(_MAX_PANELS, len(edges) - 1)
    H = _panel_values(f, edges[:-1], edges[1:])
    reach = _reach(H, np.diff(edges), w)
    while True:
        flat = H.reshape(H.shape[0], H.shape[1], -1)
        tail = np.max(np.abs(_TO_CHEBYSHEV[-2:] @ flat), axis=(1, 2))
        need = (0.5 * max(w, 1.0)) * reach
        resolved = (tail <= _TAIL_TOL * np.max(np.abs(H))) & (need <= 1.0)
        halvings = np.where(resolved, 0, 1)
        far = (need > 2.0) & (need < math.inf)
        halvings[far] = np.ceil(np.log2(need[far]))
        parts = 2 ** np.minimum(halvings, cap.bit_length())
        parts = parts if parts.sum() <= cap else np.minimum(parts, 2)
        if parts.sum() == len(parts) or parts.sum() > cap:
            worst = w * np.max(reach)
            if worst > 4.0:
                raise RangeError(
                    f"the Dyson series is unresolved at w = {w}: at its cap "
                    f"of {cap} panels one has w ||H||_2 L up to {worst:.3g} > 4")
            return 0.5 * np.diff(edges), H
        edges = np.append(np.concatenate([
            np.linspace(lo, hi, k + 1)[:-1]
            for lo, hi, k in zip(edges, edges[1:], parts)]), edges[-1])
        cut = np.repeat(parts > 1, parts)
        new = _panel_values(f, edges[:-1][cut], edges[1:][cut])
        H = np.repeat(H, parts, axis=0)
        H[cut] = new
        reach = np.repeat(reach, parts)
        reach[cut] = _reach(new, np.diff(edges)[cut], w)


def _K(half: np.ndarray, H: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(K g)(s) = int_a^s H g at the nodes, from g at the nodes (or one
    matrix): (L/2) S (H g) on a panel plus the end values of those before."""
    Y = _INTEGRATE @ np.matmul(H, G).reshape(H.shape[0], H.shape[1], -1)
    Y *= half[:, None, None]
    Y[1:] += np.cumsum(Y[:-1, -1], axis=0)[:, None]
    return Y.reshape(H.shape)


def _series_propagator(half: np.ndarray, H: np.ndarray, w: float) -> np.ndarray:
    """U_w at the nodes, solving U = I + w K[U]: on each panel the propagator
    Z from its left edge is I at node 0 (row 0 of S is zero), and at nodes
    1..16 solves the collocation system (I - c S[1:, 1:] (x) H_{1..16}) Z =
    1 (x) I + c S[1:, 0] (x) H_0, c = w L/2, of 16 d unknowns (batched in
    _SOLVE_ENTRIES); U at the left edges is the running product of the Z at
    the right edges."""
    P, m, d = H.shape[:3]
    size = (m - 1) * d
    c = w * half
    Z = np.empty_like(H)
    Z[:, 0] = np.eye(d)
    rhs = (c[:, None, None, None] * _INTEGRATE[1:, 0, None, None]) * H[:, :1]
    rhs += np.eye(d)
    rhs = rhs.reshape(P, size, d)
    # Row (i, a) is -c S[i, j] H_j[a, b] over columns (j, b), innermost, i, j >= 1.
    rows = H[:, 1:].transpose(0, 2, 1, 3).reshape(P, 1, d, size)
    coeffs = np.repeat(-c[:, None, None] * _INTEGRATE[1:, 1:], d, axis=2)[:, :, None]
    step = max(1, _SOLVE_ENTRIES // (size * size))
    for i in range(0, P, step):
        M = (coeffs[i:i + step] * rows[i:i + step]).reshape(-1, size, size)
        M.reshape(len(M), -1)[:, ::size + 1] += 1.0
        Z[i:i + step, 1:] = np.linalg.solve(M, rhs[i:i + step]).reshape(-1, m - 1, d, d)
    return np.matmul(Z, _prefix_products(Z[:, -1])[:-1, None])


def dyson_expansion(f: GeneratorFamily, a: float, t: float, n: int,
                    w: float = 1.0) -> DysonExpansion:
    """Terms T_0..T_n = K^k[I](t) and the exact remainder R =
    w^{n+1} K^{n+1}[U_w](t) of the time-ordered series of w H on [a, t],
    with (K g)(s) = int_a^s H(u) g(u) du taken on the Chebyshev-Lobatto
    nodes of the series panels by the spectral integration matrix S
    (Greengard, SIAM J. Numer. Anal. 28 (1991); Trefethen, Approximation
    Theory and Approximation Practice, ch. 19).  U_w at the nodes solves
    U = I + w K[U] directly, so sum_k w^k T_k + R = U_w(t) holds by
    construction, to rounding; the closure is therefore checked against the
    independent product_integral oracle.  The panels are sized for
    max(w, 1) and have an edge at every break (see _series_panels), so the
    terms have the same bits at every w <= 1 and refine with w above it.
    w must be finite and >= 0 (DomainError); a w^{n+1} that overflows, an H
    that is not finite at a node, or a w > 0 whose U_w the capped panels
    cannot resolve, is a RangeError."""
    if not 0 <= w < math.inf:
        raise DomainError(f"w must be finite and >= 0, got {w}")
    n = _check_order(n)
    _check_interval(f, a, t)
    try:
        scale = float(w) ** (n + 1)
    except OverflowError:
        raise RangeError(f"w^(n + 1) overflows at w = {w}, n = {n}") from None
    half, H = _series_panels(f, a, t, w)
    G = np.eye(f.dim, dtype=complex)
    terms = [G]
    for _ in range(n):
        G = _K(half, H, G)
        terms.append(G[-1, -1].copy())
    if not w:
        return DysonExpansion(terms=terms, remainder=np.zeros_like(terms[0]))
    G = _series_propagator(half, H, w)
    for _ in range(n + 1):
        G = _K(half, H, G)
    return DysonExpansion(terms=terms, remainder=scale * G[-1, -1])


def asymptotic_probe(Q, n: int, w_list: Sequence[float]):
    """Poincare-asymptotics probe for the truncated exponential series.

    Returns (observed_order, limit_matrix, norms): the log-log slope of
    ||exp(wQ) - sum_{k<=n}(wQ)^k/k!|| versus w (expected n+1), the scaled
    residual w^{-(n+1)} * (exp(wQ) - partial) at the smallest usable w
    (expected Q^{n+1}/(n+1)!), and the residual norm at every w.  Points
    whose norm falls below CANCELLATION_FLOOR are left out of the fit.
    """
    Q = as_matrix(Q, "Q")
    _check_order(n)
    w_list = list(w_list)
    if len(w_list) < 4 or any(np.diff(w_list) >= 0) or min(w_list) <= 0:
        raise DomainError("need at least 4 strictly decreasing values > 0")
    residuals, norms = [], []
    for w in w_list:
        Rm = matrix_exp(w * Q) - taylor_partial_sum(Q, n, w)
        residuals.append(Rm)
        norms.append(float(np.linalg.norm(Rm, 2)))
    if not all(map(math.isfinite, norms)):
        raise RangeError("the truncation residual overflowed")
    keep = [k for k, r in enumerate(norms) if r >= CANCELLATION_FLOOR]
    if not keep:
        return float("inf"), np.zeros_like(Q), norms
    order = loglog_slope([w_list[k] for k in keep], [norms[k] for k in keep])
    return order, residuals[keep[-1]] / w_list[keep[-1]] ** (n + 1), norms


def propagator_derivative_check(f: GeneratorFamily, a: float, t: float,
                                h_list: Sequence[float],
                                oracle_tol: float = 1e-10) -> float:
    """Observed order of the central difference of U[.,a] against H(t)U[t,a]."""
    h_list = list(h_list)
    hmax = max(h_list)
    if not (f.a < t - hmax and t + hmax < f.b):
        raise DomainError(f"t={t} +/- {hmax} leaves ({f.a}, {f.b})")
    U_t = product_integral(f, a, t, oracle_tol).U
    target = f(t) @ U_t
    residuals = []
    for h in h_list:
        Up = product_integral(f, a, t + h, oracle_tol).U
        Um = product_integral(f, a, t - h, oracle_tol).U
        residuals.append(np.linalg.norm((Up - Um) / (2 * h) - target, 2))
    if max(residuals) <= 1e-12:
        return float("inf")
    return loglog_slope(h_list, residuals)


def yosida_propagator_convergence(f: GeneratorFamily, a: float, t: float,
                                  z_list: Sequence[float]):
    """Convergence order of exp(Q_z[t,a]) -> exp(Q[t,a]) as z grows.

    Returns (slope, q_gaps, exp_gaps): ||Q_z - Q|| and ||exp(Q_z) - exp(Q)||
    at every z, and the log-log slope of the latter (-inf when all lie below
    CANCELLATION_FLOOR).  For dissipative families each z is also checked
    against the bound ||exp(Q_z) - exp(Q)|| <= ||Q_z - Q|| + 1e-10.
    """
    z_list = list(z_list)
    if not z_list or any(np.diff(z_list) <= 0):
        raise DomainError("need one or more strictly increasing values")
    Q = integrate_family(f, a, t)
    expQ = matrix_exp(Q)
    q_gaps, exp_gaps = [], []
    for z in z_list:
        Qz = integrate_family(yosida_family(f, z), a, t)
        q_gaps.append(float(np.linalg.norm(Qz - Q, 2)))
        exp_gaps.append(float(np.linalg.norm(matrix_exp(Qz) - expQ, 2)))
        if f.dissipative and exp_gaps[-1] > q_gaps[-1] + 1e-10:
            raise ConsistencyError(
                f"contraction bound violated at z={z}: {exp_gaps[-1]:.3e}")
    exact = max(exp_gaps) < CANCELLATION_FLOOR
    return (-math.inf if exact else loglog_slope(z_list, exp_gaps)), q_gaps, exp_gaps
