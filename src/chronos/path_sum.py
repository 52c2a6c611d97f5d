"""Poisson sum over paths.

Midpoint partitions from bubble centers, per-cell concentrated generators,
the Poisson-weighted experimental evolution operator, its Stieltjes form,
and Monte Carlo bubble sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy import stats

from .errors import ConfigError, ConsistencyError, DomainError, ResourceError
from .families import GeneratorFamily, _check_interval, integrate_family
from .film import midpoint_edges
from .linalg import expm_stack, matrix_exp
from .propagators import PropagatorResult, ordered_product
from .quadrature import QuadratureSpec, _GAUSS5_NODES, _GAUSS5_WEIGHTS

MAX_POISSON_TERMS = 10 ** 6


@dataclass(frozen=True)
class PathSumConfig:
    """Bubble rate, horizon, truncation and Monte Carlo controls."""

    lam: float
    t: float
    tail_tol: float = 1e-10
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.lam > 0:
            raise ConfigError(f"lambda must be > 0, got {self.lam}")
        if not self.t > 0:
            raise ConfigError(f"horizon must be > 0, got {self.t}")
        if not 0 < self.tail_tol < 1:
            raise ConfigError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PartitionScheme:
    """Bubble centers with their midpoint cells partitioning [0, t]."""

    centers: np.ndarray
    edges: np.ndarray

    @property
    def n(self) -> int:
        return len(self.centers)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)


def make_partition(t: float, n: int) -> PartitionScheme:
    """Equally spaced centers j t / n with midpoint cell edges."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not t > 0:
        raise DomainError(f"need t > 0, got {t}")
    centers = t * np.arange(1, n + 1) / n
    return PartitionScheme(centers=centers, edges=midpoint_edges(0.0, t, centers))


def partition_from_centers(t: float, centers: Sequence[float]) -> PartitionScheme:
    centers = np.asarray(centers, dtype=float)
    return PartitionScheme(centers=centers, edges=midpoint_edges(0.0, t, centers))


def cell_generator(f: GeneratorFamily, p: PartitionScheme, j: int,
                   spec: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """A_j = integral of H over cell j, concentrated at its bubble time."""
    if not 1 <= j <= p.n:
        raise DomainError(f"cell index {j} outside 1..{p.n}")
    return integrate_family(f, p.edges[j - 1], p.edges[j], spec)


def _cell_generators(f: GeneratorFamily, edges: np.ndarray,
                     min_nodes: int = 80) -> np.ndarray:
    """All per-cell integrals at once, composite Gauss-5 per cell."""
    n = len(edges) - 1
    panels = max(1, -(-min_nodes // (5 * n)))
    sub = np.linspace(0.0, 1.0, panels + 1)
    lo = edges[:-1, None] + np.diff(edges)[:, None] * sub[None, :-1]
    width = np.diff(edges)[:, None] * (1.0 / panels)
    mid = lo + 0.5 * width
    nodes = (mid[..., None] + 0.5 * width[..., None] * _GAUSS5_NODES).reshape(-1)
    H = f.evaluate_batch(nodes).reshape(n, panels, 5, f.dim, f.dim)
    w = 0.5 * width[..., None] * _GAUSS5_WEIGHTS
    return np.einsum("cpq,cpqij->cij", w, H)


def U_n(f: GeneratorFamily, p: PartitionScheme) -> PropagatorResult:
    """Ordered product of per-cell exponentials exp(A_n) ... exp(A_1)."""
    A = _cell_generators(f, p.edges)
    U = ordered_product(expm_stack(A))
    return PropagatorResult(U=U, w=1.0, step_count=p.n)


def _U_for_count(f: GeneratorFamily, t: float, n: int) -> np.ndarray:
    # n = 0 carries no time resolution: the whole window is one cell, so
    # U_0 = exp(Q[t,0]) = U_1 and commuting families collapse exactly.
    if n == 0:
        return matrix_exp(integrate_family(f, 0.0, t))
    return U_n(f, make_partition(t, n)).U


def poisson_weight(t: float, s: float, lam: float) -> float:
    """P[t; s, lambda]: Poisson(lambda t) mass on counts <= floor(lambda s).

    Zero for s <= 0; a right-continuous nondecreasing step function of s
    with jumps exactly at s = k / lambda.
    """
    if not lam > 0:
        raise DomainError(f"lambda must be > 0, got {lam}")
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    if s <= 0:
        return 0.0
    return float(stats.poisson.cdf(math.floor(lam * s), lam * t))


def poisson_truncation(lam_t: float, tail_tol: float) -> int:
    """Smallest N with Poisson(lam_t) tail mass beyond N below tail_tol."""
    n = int(stats.poisson.ppf(1.0 - tail_tol, lam_t))
    while stats.poisson.sf(n, lam_t) >= tail_tol:
        n += 1
        if n > MAX_POISSON_TERMS:
            raise ResourceError(f"Poisson truncation exceeds {MAX_POISSON_TERMS}")
    while n > 0 and stats.poisson.sf(n - 1, lam_t) < tail_tol:
        n -= 1
    return n


def U_lambda(f: GeneratorFamily, cfg: PathSumConfig) -> PropagatorResult:
    """Poisson-weighted sum of the discretized-path propagators.

    The returned U is the mass-normalized sum (divided by the captured
    probability); the raw truncated sum and bookkeeping are in extras.
    Terms whose weight cannot move the sum beyond tail_tol are skipped.
    """
    _check_interval(f, 0.0, cfg.t)
    lam_t = cfg.lam * cfg.t
    n_max = poisson_truncation(lam_t, cfg.tail_tol)
    counts = np.arange(n_max + 1)
    weights = stats.poisson.pmf(counts, lam_t)
    cutoff = cfg.tail_tol / (n_max + 1)
    raw = np.zeros((f.dim, f.dim), dtype=complex)
    captured = 0.0
    used = 0
    for n, w in zip(counts, weights):
        if w < cutoff:
            continue
        raw += w * _U_for_count(f, cfg.t, int(n))
        captured += w
        used += 1
    normalized = raw / captured
    return PropagatorResult(
        U=normalized, w=1.0, step_count=used,
        error_estimate=float(stats.poisson.sf(n_max, lam_t)),
        extras={"raw": raw, "captured_mass": captured, "n_max": int(n_max)})


def stieltjes_form(f: GeneratorFamily, cfg: PathSumConfig,
                   oracle_U: Optional[np.ndarray] = None) -> PropagatorResult:
    """Stieltjes sum over the jump set s = k / lambda.

    Each jump carries mass e^{-lam t}(lam t)^k / k! and the propagator
    U_k[k / lambda, 0]; diagnostics report the distance to the
    Poisson-weighted form (and to an oracle, when given).  The jumps reach
    past t, to n_max / lambda, and the family must cover them.
    """
    lam_t = cfg.lam * cfg.t
    n_max = poisson_truncation(lam_t, cfg.tail_tol)
    _check_interval(f, 0.0, n_max / cfg.lam)
    counts = np.arange(n_max + 1)
    weights = stats.poisson.pmf(counts, lam_t)
    cutoff = cfg.tail_tol / (n_max + 1)
    raw = np.zeros((f.dim, f.dim), dtype=complex)
    captured = 0.0
    for k, w in zip(counts, weights):
        if w < cutoff:
            continue
        if k == 0:
            Uk = np.eye(f.dim, dtype=complex)
        else:
            Uk = U_n(f, make_partition(k / cfg.lam, int(k))).U
        raw += w * Uk
        captured += w
    normalized = raw / captured
    lam_form = U_lambda(f, cfg)
    extras = {"raw": raw, "captured_mass": captured, "n_max": int(n_max),
              "distance_to_U_lambda": float(np.linalg.norm(
                  normalized - lam_form.U, 2))}
    if oracle_U is not None:
        extras["distance_to_oracle"] = float(np.linalg.norm(
            normalized - oracle_U, 2))
    return PropagatorResult(U=normalized, w=1.0, step_count=int(n_max),
                            extras=extras)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based splittable per-trial stream (Philox keyed by trial)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(trial,))))


# SeedSequence's hash constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _trial_keys(seed: int, trials: int) -> np.ndarray:
    """Philox keys of trial_rng(seed, k) for k < trials, shape (trials, 2).

    SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(2, uint64)
    for all k at once: the same hash mixing over the entropy words [seed
    words zero-padded to 4, k], one uint32 lane per trial.
    """
    seed, words = int(seed), []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (4 - len(words))
    entropy = [np.full(trials, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint32))
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = _INIT_B, []
    for word in pool:
        word = word ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        word = word * np.uint32(hash_b)
        state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    shift = np.uint64(32)
    return np.stack([state[0] | state[1] << shift,
                     state[2] | state[3] << shift], axis=1)


def _gap_chunk(lam_t: float) -> int:
    """Gaps drawn per chunk: six standard deviations above the mean count,
    so a chunk that ends before t, and with it a refill, is rare."""
    return int(lam_t + 6.0 * math.sqrt(lam_t)) + 8


def sample_bubbles(cfg: PathSumConfig, rng: np.random.Generator) -> np.ndarray:
    """Arrival times on [0, t]: cumulative i.i.d. exponential(lambda) gaps.

    Gaps are drawn in chunks and summed left to right, so the arrivals equal
    drawing and adding one gap at a time; rng advances by whole chunks.
    """
    mean_gap = 1.0 / cfg.lam
    m = _gap_chunk(cfg.lam * cfg.t)
    chunks = [np.cumsum(rng.exponential(mean_gap, size=m))]
    while chunks[-1][-1] <= cfg.t:
        more = rng.exponential(mean_gap, size=m)
        chunks.append(np.cumsum(np.concatenate((chunks[-1][-1:], more)))[1:])
    s = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return s[:np.searchsorted(s, cfg.t, side="right")]


def trial_arrivals(cfg: PathSumConfig, trials: int) -> Iterator[np.ndarray]:
    """sample_bubbles(cfg, trial_rng(cfg.seed, k)) for k = 0 .. trials - 1.

    The same arrays, bit for bit, from one re-keyed Philox: all trial keys
    are derived at once, and the first and last are checked against
    SeedSequence itself so a change in numpy's seeding cannot go unnoticed.
    """
    if trials < 0:
        raise DomainError(f"need trials >= 0, got {trials}")
    keys = _trial_keys(cfg.seed, trials)
    for k in ({0, trials - 1} if trials else ()):
        expected = np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(k,)).generate_state(2, np.uint64)
        if not np.array_equal(keys[k], expected):
            raise ConsistencyError(
                f"derived Philox key of trial {k} differs from SeedSequence")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for key in keys:
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": zeros, "key": key},
                        "buffer": zeros, "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        yield sample_bubbles(cfg, rng)


def _check_trials(cfg: PathSumConfig):
    if cfg.trials < 100:
        raise ConfigError(f"need trials >= 100, got {cfg.trials}")


def monte_carlo_U(f: GeneratorFamily, cfg: PathSumConfig) -> PropagatorResult:
    """Sample mean of U over random bubble partitions.

    Entrywise standard errors of the mean are reported in extras; trials
    use independent counter-based streams so results are reproducible and
    order-independent.
    """
    _check_trials(cfg)
    d = f.dim
    samples = np.empty((cfg.trials, d, d), dtype=complex)
    counts = np.empty(cfg.trials, dtype=int)
    for trial, arrivals in enumerate(trial_arrivals(cfg, cfg.trials)):
        counts[trial] = len(arrivals)
        if len(arrivals) == 0:
            samples[trial] = _U_for_count(f, cfg.t, 0)
        else:
            samples[trial] = U_n(f, partition_from_centers(cfg.t, arrivals)).U
    mean = samples.mean(axis=0)
    se = np.sqrt(
        (np.var(samples.real, axis=0) + np.var(samples.imag, axis=0))
        / max(cfg.trials - 1, 1))
    return PropagatorResult(
        U=mean, w=1.0, step_count=cfg.trials,
        error_estimate=float(np.max(se)),
        extras={"stderr": se, "counts": counts, "seed": cfg.seed})


def conditional_single_bubble_check(f: GeneratorFamily, cfg: PathSumConfig):
    """Compare the count==1 conditional sample mean to its 1-D quadrature.

    With midpoint cells a single bubble always yields the one-cell
    propagator, so the quadrature average over the bubble position equals
    exp(Q[t,0]); returns (mc_mean, quadrature_mean, stderr, n_used).
    """
    _check_trials(cfg)
    sel = np.array([U_n(f, partition_from_centers(cfg.t, arrivals)).U
                    for arrivals in trial_arrivals(cfg, cfg.trials)
                    if len(arrivals) == 1])
    if len(sel) == 0:
        raise ConfigError("no trials with exactly one bubble; raise trials")
    cond_mean = sel.mean(axis=0)
    stderr = np.sqrt(
        (np.var(sel.real, axis=0) + np.var(sel.imag, axis=0))
        / max(len(sel) - 1, 1))
    nodes, wts = np.polynomial.legendre.leggauss(16)
    taus = 0.5 * cfg.t * (nodes + 1.0)
    quad = np.zeros((f.dim, f.dim), dtype=complex)
    for tau, w in zip(taus, wts):
        quad += (0.5 * w) * U_n(f, partition_from_centers(cfg.t, [tau])).U
    return cond_mean, quad, stderr, len(sel)
