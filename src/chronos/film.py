"""Finite N-slot tensor-product realization of the time-indexed film.

Slot embeddings of base operators, exchange (slot swap) operators, the
slot-summed integral operator and the finite norm identities on generating
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError, ResourceError
from .families import GeneratorFamily, yosida_stack
from .linalg import MAX_DENSE_DIM, as_matrix

MAX_FULL_DIM = 1 << 20


def midpoint_edges(a: float, b: float, centers: np.ndarray) -> np.ndarray:
    """Cell edges for ordered centers: interior edges at midpoints.

    The first edge is a, the last is pinned to b so the cells always
    partition [a, b].  Leading axes of centers are a batch of such rows.
    """
    centers = np.asarray(centers, dtype=float)
    if np.any(np.diff(centers) <= 0):
        raise DomainError("centers must be strictly increasing")
    edges = np.empty(centers.shape[:-1] + (centers.shape[-1] + 1,))
    edges[..., 0] = a
    edges[..., -1] = b
    edges[..., 1:-1] = 0.5 * (centers[..., :-1] + centers[..., 1:])
    return edges


@dataclass(frozen=True)
class FilmSpace:
    """N ordered time slots over base dimension d; full dimension d^N."""

    base_dim: int
    slot_times: tuple

    def __post_init__(self):
        if self.base_dim < 1 or len(self.slot_times) < 1:
            raise DimensionError("need base_dim >= 1 and at least one slot")
        if np.any(np.diff(self.slot_times) <= 0):
            raise DomainError("slot_times must be strictly increasing")
        if self.full_dim > MAX_FULL_DIM:
            raise ResourceError(
                f"d^N = {self.base_dim}^{self.n_slots} exceeds {MAX_FULL_DIM} "
                f"(base_dim {self.base_dim}, {self.n_slots} slots)")

    @property
    def n_slots(self) -> int:
        return len(self.slot_times)

    @property
    def full_dim(self) -> int:
        return self.base_dim ** self.n_slots

    def flat_index(self, slots: Sequence[int]) -> int:
        """Mixed-radix flat index; slot 1 is the most significant digit."""
        idx = 0
        for j in slots:
            idx = idx * self.base_dim + j
        return idx

    def generating_vector(self, i: int) -> np.ndarray:
        """E^i: the product vector carrying basis element e^i in every slot."""
        if not 0 <= i < self.base_dim:
            raise DomainError(f"basis index {i} outside 0..{self.base_dim - 1}")
        v = np.zeros(self.full_dim, dtype=complex)
        v[self.flat_index([i] * self.n_slots)] = 1.0
        return v


def _as_batch(film: FilmSpace, v) -> np.ndarray:
    """v as a complex (d^N,) vector or (d^N, k) column batch of the film."""
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[0] != film.full_dim:
        raise DimensionError(f"got shape {v.shape}, need {film.full_dim} rows and <= 2 axes")
    return v


def _identity_columns(film: FilmSpace, start: int = 0, stop: int = MAX_DENSE_DIM):
    """Columns start..stop of the d^N identity; d^N is capped at 4096."""
    n = film.full_dim
    if n > MAX_DENSE_DIM:
        raise ResourceError(f"dense film operators capped at d^N <= {MAX_DENSE_DIM}, "
                            f"got base_dim {film.base_dim} and {film.n_slots} slots")
    return np.eye(n, min(stop, n) - start, -start, dtype=complex)


class SlotOperator:
    """A base operator acting in one slot: I x .. x H x .. x I.

    Application is matrix-free: reshape and contract the slot axis of a
    vector or of each column of a batch.  dense() is that application on
    the identity columns, for d^N <= 4096.
    """

    def __init__(self, film: FilmSpace, H, slot: int):
        self.film = film
        self.H = as_matrix(H, "H")
        if self.H.shape[0] != film.base_dim:
            raise DimensionError(
                f"H is {self.H.shape[0]}x{self.H.shape[0]}, base_dim is {film.base_dim}")
        if not 1 <= slot <= film.n_slots:
            raise DomainError(f"slot {slot} outside 1..{film.n_slots}")
        self.slot = slot

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = _as_batch(self.film, v)
        d, N, j = self.film.base_dim, self.film.n_slots, self.slot
        w = v.reshape(d ** (j - 1), d, -1)
        return np.einsum("ab,xby->xay", self.H, w).reshape(v.shape)

    def adjoint(self) -> "SlotOperator":
        return SlotOperator(self.film, self.H.conj().T, self.slot)

    def dense(self) -> np.ndarray:
        return self.apply(_identity_columns(self.film))


def embed(H, slot: int, film: FilmSpace) -> SlotOperator:
    """Bold embedding of a base operator at one time slot."""
    return SlotOperator(film, H, slot)


class ExchangeOperator:
    """Slot-swap operator; conjugation by it transports slot contents."""

    def __init__(self, film: FilmSpace, j: int, k: int):
        for s in (j, k):
            if not 1 <= s <= film.n_slots:
                raise DomainError(f"slot {s} outside 1..{film.n_slots}")
        self.film = film
        self.j = j
        self.k = k
        rows = np.arange(film.full_dim).reshape((film.base_dim,) * film.n_slots)
        self._rows = np.swapaxes(rows, j - 1, k - 1).reshape(-1)

    def apply(self, v: np.ndarray) -> np.ndarray:
        return _as_batch(self.film, v)[self._rows]

    def dense(self) -> np.ndarray:
        return self.apply(_identity_columns(self.film))


def exchange(j: int, k: int, film: FilmSpace) -> ExchangeOperator:
    return ExchangeOperator(film, j, k)


def slot_operator_norm(op: SlotOperator) -> float:
    """Matrix-free spectral norm of a slot operator via power iteration,
    stopped once lambda = ||op v||^2 moves by <= 1e-11 lambda on three
    successive steps."""
    n = op.film.full_dim
    adj = op.adjoint()
    v = (1.0 + 0.25 * np.arange(n) / max(n - 1, 1)).astype(complex)
    v /= np.linalg.norm(v)
    prev = 0.0
    stagnant = 0
    for _ in range(10000):
        w = adj.apply(op.apply(v))
        lam = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        if lam > 0 and abs(lam - prev) <= 0.1 * 1e-10 * lam:
            stagnant += 1
            if stagnant >= 3:
                return float(np.sqrt(lam))
        else:
            stagnant = 0
        prev = lam
    return float(np.sqrt(max(prev, 0.0)))


def residual_norm(film: FilmSpace, op) -> float:
    """2-norm of a film operator that should vanish, given as op on (d^N, k)
    batches: 0.0 when op maps every identity column to exactly zero, else the
    dense 2-norm; d^N <= 4096.  Blocks hold <= 6144 entries (96 KiB): larger
    ones, above glibc's mmap threshold, ran 1.5x slower from page faults."""
    block = max(1, 6144 // film.full_dim)
    for start in range(0, film.full_dim, block):
        if np.any(op(_identity_columns(film, start, start + block))):
            return float(np.linalg.norm(op(_identity_columns(film)), 2))
    return 0.0


def commutation_check(A, B, j: int, k: int, film: FilmSpace) -> float:
    """Residual of [embed(A, j), embed(B, k)]; zero for distinct slots.

    residual_norm when d^N <= 4096, otherwise the worst mismatch over 20
    random unit vectors from seed 0.
    """
    if j == k:
        raise DomainError("commutation is only claimed for distinct slots")
    opA = embed(A, j, film)
    opB = embed(B, k, film)

    def commutator(v):
        return opA.apply(opB.apply(v)) - opB.apply(opA.apply(v))

    if film.full_dim <= MAX_DENSE_DIM:
        return residual_norm(film, commutator)
    rng, n = np.random.default_rng(0), film.full_dim
    draws = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(20))
    return max(float(np.linalg.norm(commutator(v / np.linalg.norm(v)))) for v in draws)


class FilmIntegralOperator:
    """Q_{z,N} = sum_l dt_l * embed(H_z(tau_l), l); summands commute."""

    def __init__(self, film: FilmSpace, slot_matrices: Sequence[np.ndarray],
                 widths: np.ndarray):
        self.film = film
        self.slot_matrices = [as_matrix(M) for M in slot_matrices]
        self.widths = np.asarray(widths, dtype=float)
        self._ops = [SlotOperator(film, M, l + 1)
                     for l, M in enumerate(self.slot_matrices)]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return sum(dt * op.apply(v) for dt, op in zip(self.widths, self._ops))

    def dense(self) -> np.ndarray:
        return self.apply(_identity_columns(self.film))

    def base_sum(self) -> np.ndarray:
        """The same Riemann sum as a single base-space matrix."""
        return sum(dt * M for dt, M in zip(self.widths, self.slot_matrices))


def film_Q(f: GeneratorFamily, film: FilmSpace,
           z: Optional[float] = None) -> FilmIntegralOperator:
    """Slot-embedded Riemann sum of the (optionally Yosida-smoothed) family.

    Slot times are the partition centers; widths come from midpoint cells
    of [a, b].
    """
    centers = np.asarray(film.slot_times, dtype=float)
    if centers[0] < f.a - 1e-12 or centers[-1] > f.b + 1e-12:
        raise DomainError("slot_times must lie inside the family interval")
    edges = midpoint_edges(f.a, f.b, centers)
    widths = np.diff(edges)
    H = f.evaluate_batch(centers)
    if z is not None:
        H = yosida_stack(H, z)
    return FilmIntegralOperator(film, list(H), widths)


def verify_eq38(f: GeneratorFamily, film: FilmSpace, z: float, i: int) -> float:
    """Norm identity for Q_{z,N} on a generating vector.

    |  ||Q E^i||^2  -  ( |<q e^i, e^i>|^2
        + sum_l dt_l^2 (||H_z(tau_l) e^i||^2 - |<H_z(tau_l) e^i, e^i>|^2) ) |
    with q the base-space Riemann sum; exact at finite N.
    """
    Q = film_Q(f, film, z)
    E = film.generating_vector(i)
    lhs = float(np.linalg.norm(Q.apply(E)) ** 2)
    e = np.zeros(film.base_dim, dtype=complex)
    e[i] = 1.0
    q = Q.base_sum()
    mean_sq = abs(np.vdot(e, q @ e)) ** 2
    corr = 0.0
    for dt, M in zip(Q.widths, Q.slot_matrices):
        v = M @ e
        corr += dt * dt * (np.linalg.norm(v) ** 2 - abs(np.vdot(e, v)) ** 2)
    return abs(lhs - (mean_sq + corr))


def verify_eq35(f: GeneratorFamily, z: float, i: int,
                coarse_centers, fine_centers) -> float:
    """Partition-difference matrix elements agree on generating vectors.

    Both Riemann sums are embedded on the film whose slots are the union
    of the two center sets; the film matrix element of their difference
    must equal the base-space one exactly.
    """
    coarse = np.asarray(coarse_centers, dtype=float)
    fine = np.asarray(fine_centers, dtype=float)
    union = np.unique(np.concatenate([coarse, fine]))
    film = FilmSpace(base_dim=f.dim, slot_times=tuple(union))
    slot_of = {t: l + 1 for l, t in enumerate(union)}
    E = film.generating_vector(i)
    e = np.zeros(f.dim, dtype=complex)
    e[i] = 1.0

    film_element = 0.0 + 0.0j
    base_element = 0.0 + 0.0j
    for centers, sign in ((coarse, 1.0), (fine, -1.0)):
        edges = midpoint_edges(f.a, f.b, centers)
        widths = np.diff(edges)
        H = yosida_stack(f.evaluate_batch(centers), z)
        for t, dt, M in zip(centers, widths, H):
            op = SlotOperator(film, M, slot_of[t])
            film_element += sign * dt * np.vdot(E, op.apply(E))
            base_element += sign * dt * np.vdot(e, M @ e)
    return abs(film_element - base_element)

