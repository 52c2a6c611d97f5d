"""Poisson sum over paths.

Midpoint partitions from bubble centers, per-cell concentrated generators,
the Poisson-weighted experimental evolution operator, its Stieltjes form,
and Monte Carlo bubble sampling.

The Poisson weights come from scipy.special, imported inside the functions
that compute them: loading it more than doubles the import time of the
package, and runs that sum no Poisson window never need it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .errors import (ConfigError, ConsistencyError, DimensionError, DomainError,
                     RangeError, ResourceError)
from .families import GeneratorFamily, _check_interval, _reals, integrate_family
from .film import midpoint_edges
from .linalg import (_SLICE_ENTRIES, _norms1, _pade_classes, as_matrix,
                     expm_stack, matrix_exp)
from .propagators import PropagatorResult, _as_int, ordered_product
from .quadrature import _GAUSS5_NODES, _GAUSS5_WEIGHTS

MAX_POISSON_TERMS = 10 ** 6
CELL_NODES = 80  # fewest Gauss nodes over all cells of one U_n product


@dataclass(frozen=True)
class PathSumConfig:
    """Bubble rate, horizon, truncation and Monte Carlo controls."""

    lam: float
    t: float
    tail_tol: float = 1e-10
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not _reals(self.lam, self.t, self.tail_tol):
            raise ConfigError(f"lambda, horizon and tail_tol must be real numbers, "
                              f"got {self.lam!r}, {self.t!r}, {self.tail_tol!r}")
        if not 0 < self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and > 0, got {self.lam}")
        if not 0 < self.t < math.inf:
            raise ConfigError(f"horizon must be finite and > 0, got {self.t}")
        if not 0 < self.tail_tol < 1:
            raise ConfigError(f"tail_tol must be in (0, 1), got {self.tail_tol}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not hasattr(type(value), "__index__"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def make_partition(a: float, t: float, n: int) -> np.ndarray:
    """Midpoint cell edges (n + 1,) on [a, a + t] of the equally spaced
    centers a + j t / n, j = 1 .. n."""
    n = _as_int(n, "n")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not (_reals(a, t) and math.isfinite(a) and 0 < t < math.inf):
        raise DomainError(f"need a finite start and t > 0, got a={a}, t={t}")
    return midpoint_edges(a, a + t, a + t * np.arange(1, n + 1) / n)


def _panels(n: int) -> int:
    """Gauss-5 panels per cell of an n-cell partition: CELL_NODES at least."""
    return max(1, -(-CELL_NODES // (5 * n)))


def _gauss5_cells(f: GeneratorFamily, left: np.ndarray, widths: np.ndarray,
                  panels: int, out: np.ndarray) -> np.ndarray:
    """Integrals of H over the cells [left, left + widths], both (C,), into
    out (C, d, d): composite Gauss-5 with `panels` panels per cell, swept in
    slices of cells, one generator call a slice.

    A family without a separable form sums H at the slice's nodes, in
    slices of at most _SLICE_ENTRIES node entries (one cell when a cell has
    more).  A family with a form sums its K coefficients at the nodes,
    batch-last (K, cells), and assembles the cells from these integrals
    (SeparableForm.assemble); its slices keep both the coefficients and the
    cells within _SLICE_ENTRIES entries wherever one cell fits.

    Each integral sums its weighted nodes one at a time, panel by panel,
    from +0.0: np.einsum("cpq,cpqij->cij", weights, H) adds them in that
    order, and the same sums over whole slices of cells keep its bits.
    Every work array belongs to one slice.
    """
    form, d = f.separable, f.dim
    sub = np.linspace(0.0, 1.0, panels + 1)[:-1, None]
    nodes = 5 * panels
    if form is None:
        step = _SLICE_ENTRIES // (nodes * d * d)
    else:
        step = _SLICE_ENTRIES // max(nodes * form.terms, d * d)
    step = max(1, step)
    for i in range(0, len(out), step):
        x, width = left[i:i + step], widths[i:i + step]
        half = 0.5 * (width * (1.0 / panels))
        # Nodes ordered panel, node, cell: node k of every cell is row k of
        # the generator values.
        mid = (x + width * sub) + half
        ts = (mid[:, None] + half * _GAUSS5_NODES[:, None]).reshape(-1)
        w = half * _GAUSS5_WEIGHTS[:, None]
        cells = out[i:i + step]
        if form is None:
            H = f.evaluate_batch(ts).reshape((nodes,) + cells.shape)
            _node_sums(H, w[:, :, None, None], cells)
        else:
            C = form.coeffs(ts).T.reshape(-1, nodes, len(cells))
            I = np.empty((len(C), len(cells)), dtype=complex)
            form.assemble(_node_sums(C.transpose(1, 0, 2), w[:, None], I), cells)
    return out


def _node_sums(values: np.ndarray, w: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """acc = sum_k values[k] w[k % 5] over the nodes k in order, from +0.0,
    for w (5, ...).  (np.add.reduce would pick its order from the layout.)"""
    terms = np.multiply(values.reshape((-1, 5) + values.shape[1:]), w, order="C")
    acc[...] = 0.0
    for term in terms.reshape(values.shape):
        acc += term
    return acc


def _cell_stack(f: GeneratorFamily, rows: list) -> np.ndarray:
    """A_j = integral of H over cell j, concentrated at its bubble time, for
    every cell of the edge rows (B_i, n_i + 1), in order, as (C, d, d).

    Every edge must lie in the family, in non-decreasing order and not NaN;
    a zero-width cell is legal.  Each run of consecutive rows with one panel
    count takes one _gauss5_cells sweep.
    """
    left = np.concatenate([r[:, :-1] for r in rows], axis=None)
    right = np.concatenate([r[:, 1:] for r in rows], axis=None)
    widths = right - left
    if not np.all(widths >= 0):
        raise DomainError("cell edges must be non-decreasing and not NaN")
    _check_interval(f, np.min(left), np.max(right))
    A = np.empty((left.size, f.dim, f.dim), dtype=complex)
    start = 0
    for p, group in itertools.groupby(rows, key=lambda r: _panels(r.shape[1] - 1)):
        stop = start + sum(r.size - len(r) for r in group)
        _gauss5_cells(f, left[start:stop], widths[start:stop], p, A[start:stop])
        start = stop
    return A


def _edges(edges) -> np.ndarray:
    """Edges (..., n + 1) as a float array, n >= 1; ragged, non-numeric or
    complex edges are a DimensionError."""
    try:
        edges = np.atleast_1d(np.asarray(edges))
    except ValueError:
        raise DimensionError("edges are ragged: every partition of a batch "
                             "needs the same number of edges") from None
    if edges.dtype.kind not in "biuf":
        raise DimensionError(f"edges must be real numbers, got dtype {edges.dtype}")
    edges = edges.astype(float, copy=False)
    if edges.shape[-1] < 2:
        raise DomainError(f"a partition needs at least two edges, got {edges.shape}")
    return edges


# Generator entries (Gauss nodes times d^2) of one chunk of _U_batch.  The
# sweeps and exponentials of a chunk run in slices of _SLICE_ENTRIES, so
# this bounds only the chunk's cell stacks (a fifth of it or less) and sets
# how many calls a batch takes: 1,000-trial Monte Carlo jobs ran fastest at
# 2^16 (2^17 was no faster), and 2^14 no faster than one call per bubble
# count (CHANGES.md).
_BATCH_ENTRIES = 2 ** 16


def _U_batch(f: GeneratorFamily, partitions: list) -> list:
    """U_n of each edge array in partitions: edges (..., n + 1) give U of
    shape (..., d, d).  Each matrix has the bits of
    ordered_product(expm_stack(A)) over the cells A of its own row alone.

    Rows are taken in order, in chunks of at most _BATCH_ENTRIES generator
    entries; a batch that does not fit is split between chunks, and a row
    larger than a chunk goes through on its own.  A chunk makes one Gauss-5
    sweep per run of consecutive batches with one panel count, one
    expm_stack per Pade class (each row in the class expm_stack would
    choose from the row's own largest 1-norm) and one ordered_product per
    batch piece, written into its slice of the partition's output.
    """
    parts = [_edges(e) for e in partitions]
    outs = [np.empty(e.shape[:-1] + (f.dim, f.dim), dtype=complex) for e in parts]
    chunks, entries = [[]], 0
    for edges, out in zip(parts, outs):
        n = edges.shape[-1] - 1
        rows, dest = edges.reshape(-1, n + 1), out.reshape(-1, f.dim, f.dim)
        per_row = n * 5 * _panels(n) * f.dim ** 2
        start = 0
        while start < len(rows):
            take = (_BATCH_ENTRIES - entries) // per_row
            if chunks[-1] and take < 1:
                chunks.append([])
                entries = 0
                continue
            stop = min(len(rows), start + max(take, 1))
            chunks[-1].append((rows[start:stop], dest[start:stop]))
            entries += (stop - start) * per_row
            start = stop
    for chunk in filter(None, chunks):
        for (_, dest), U in zip(chunk, _U_chunk(f, [rows for rows, _ in chunk])):
            dest[...] = U
    return outs


def _U_chunk(f: GeneratorFamily, chunk: list) -> list:
    """U (B_i, d, d) of each edge batch (B_i, n_i + 1) of one chunk."""
    cells = [r.shape[1] - 1 for r in chunk]
    A = _cell_stack(f, chunk)
    row_cells = np.repeat(cells, [len(r) for r in chunk])
    kinds, label = _pade_classes(np.maximum.reduceat(
        _norms1(A), np.cumsum(row_cells) - row_cells))
    if len(kinds) == 1:
        A = expm_stack(A, kinds[0])
    else:
        label = np.repeat(label, row_cells)
        E = np.empty(A.shape, dtype=complex)
        for k, pade in enumerate(kinds):
            same = np.flatnonzero(label == k)
            E[same] = expm_stack(A[same], pade)
        A = E
    U, start = [], 0
    for r, n in zip(chunk, cells):
        stop = start + len(r) * n
        U.append(ordered_product(A[start:stop].reshape(len(r), n, f.dim, f.dim)))
        start = stop
    return U


def U_n(f: GeneratorFamily, edges: np.ndarray) -> PropagatorResult:
    """Ordered product of per-cell exponentials exp(A_n) ... exp(A_1) over the
    cells between edges (n + 1,).  A batch of edges (B, n + 1) gives U of
    shape (B, d, d), each row the same bits as alone.  step_count is the
    number of cells exponentiated."""
    edges = _edges(edges)
    U, = _U_batch(f, [edges])
    return PropagatorResult(U=U, step_count=edges.size - edges.size // edges.shape[-1])


def _U_for_counts(f: GeneratorFamily, ns, spans) -> np.ndarray:
    """The n-bubble terms for the counts ns on the windows [f.a, f.a + span],
    stacked (len(ns), d, d): U_n over the n cells of make_partition, every
    n >= 1 in one _U_batch call.  n = 0 carries no time resolution: the
    window is one cell, exp(Q) = U_1, so commuting families collapse
    exactly; over an empty window it is I."""
    Us = iter(_U_batch(f, [make_partition(f.a, span, n)
                           for n, span in zip(ns, spans) if n]))
    return np.array([next(Us) if n else
                     matrix_exp(integrate_family(f, f.a, f.a + span))
                     for n, span in zip(ns, spans)])


def _U_for_count(f: GeneratorFamily, t: float, n: int) -> np.ndarray:
    """The n-bubble term on [f.a, f.a + t] (see _U_for_counts)."""
    return _U_for_counts(f, [n], [t])[0]


def poisson_weight(t: float, s: float, lam: float) -> float:
    """P[t; s, lambda]: Poisson(lambda t) mass on counts <= floor(lambda s).

    Zero for s <= 0; a right-continuous nondecreasing step function of s
    with jumps exactly at s = k / lambda, and 1 where lambda s is infinite.
    """
    if not _reals(t, s, lam):
        raise DomainError(f"t, s and lambda must be real numbers, got {t!r}, {s!r}, {lam!r}")
    if not lam > 0:
        raise DomainError(f"lambda must be > 0, got {lam}")
    if not t > 0:
        raise DomainError(f"t must be > 0, got {t}")
    if math.isnan(s):
        raise DomainError("s must not be NaN")
    if s <= 0:
        return 0.0
    if lam * s == math.inf:
        return 1.0
    from scipy import special
    return float(special.pdtr(math.floor(lam * s), lam * t))


def poisson_truncation(lam_t: float, tail_tol: float) -> int:
    """Smallest N with Poisson(lam_t) tail mass beyond N below tail_tol."""
    if not (_reals(lam_t, tail_tol) and lam_t > 0 and 0 < tail_tol < 1):
        raise ConfigError(f"need mean > 0, 0 < tail_tol < 1; got {lam_t}, {tail_tol}")
    from scipy import special
    # The quantile inverts the cdf at 1 - tail_tol; once that rounds to 1 it
    # is infinite and the answer lies above the mean.  Starting at most one
    # past the cap keeps both walks short, and they settle n exactly.
    q = 1.0 - tail_tol
    start = special.pdtrik(q, lam_t) if q < 1.0 else math.inf
    start = math.ceil(start) if math.isfinite(start) else lam_t
    n = int(min(start, MAX_POISSON_TERMS + 1))
    while n > 0 and special.pdtrc(n - 1, lam_t) < tail_tol:
        n -= 1
    while n <= MAX_POISSON_TERMS and special.pdtrc(n, lam_t) >= tail_tol:
        n += 1
    if n > MAX_POISSON_TERMS:
        raise ResourceError(f"the Poisson window at lambda*t = {lam_t:g} needs "
                            f"more than {MAX_POISSON_TERMS} terms")
    return n


# Chebyshev node counts of the fit in x = 1/n, the held-out residual it must
# meet, and the held-out points cos(j pi / 8): midway in angle between
# neighbouring first-kind Chebyshev nodes at every node count in _FIT_NODES.
_FIT_NODES = (8, 16, 32)
_FIT_TOL = 1e-13
_HELD_OUT = np.cos(np.array([1, 4, 7]) * np.pi / 8)


def _fitted_sum(terms: Callable, ns: np.ndarray, ws: np.ndarray):
    """(sum of ws * term(ns), worst held-out residual) from a Chebyshev fit
    in 1/n, ns >= 1; None if no node count passes or the fit would need as
    many exact terms as ns holds."""
    x_lo, x_hi = 1.0 / ns[-1], 1.0 / ns[0]
    to_u = lambda n: (2.0 / n - x_lo - x_hi) / (x_hi - x_lo)
    to_n = lambda u: np.rint(2.0 / (x_lo + x_hi + u * (x_hi - x_lo))).astype(int)
    needed = set()
    for k in _FIT_NODES:
        nodes = np.unique(to_n(np.cos((np.arange(k) + 0.5) * np.pi / k)))
        held = np.setdiff1d(to_n(_HELD_OUT), nodes)
        needed |= set(nodes.tolist() + held.tolist())
        if len(held) < 2 or len(needed) >= len(ns):
            return None
        F = terms(nodes.tolist() + held.tolist())
        F, F_held = F[:len(nodes)], F[len(nodes):]
        coef = np.linalg.solve(chebvander(to_u(nodes), len(nodes) - 1),
                               F.reshape(len(nodes), -1))
        worst = float(np.max(np.abs(chebvander(to_u(held), len(nodes) - 1) @ coef
                                    - F_held.reshape(len(held), -1))))
        if worst <= _FIT_TOL:
            total = ws @ chebvander(to_u(ns), len(nodes) - 1) @ coef
            return total.reshape(F.shape[1:]), worst
    return None


def _poisson_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    """Poisson(mean) masses at the counts k, by the formula scipy.stats uses."""
    from scipy import special
    return np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)


def poisson_mixture(terms: Callable[[list], np.ndarray], mean: float,
                    tail_tol: float) -> PropagatorResult:
    """Poisson(mean)-weighted sum of the terms T_n over n = 0 .. n_max.

    terms(ns) returns T_n for a list of counts, stacked along axis 0.
    n_max = poisson_truncation(mean, tail_tol); terms weighing less than
    tail_tol / (n_max + 1) are skipped.  The n = 0 term is exact; the rest
    come from a Chebyshev interpolant in x = 1/n through 8, 16 or 32 exact
    terms (nodes rounded to integer n), accepted once held-out exact terms
    match it to 1e-13, else the window is summed exactly, left to right.
    Each exact term is computed once, and terms is asked for a node set with
    its held-out set, or for the rest of the window, in one call.  U is the
    mass-normalized sum, step_count the window's term count, error_estimate
    the tail beyond n_max; extras hold raw, captured_mass, n_max,
    exact_terms and fit_residual (None when summed exactly).
    """
    from scipy import special
    n_max = poisson_truncation(mean, tail_tol)
    weights = _poisson_pmf(np.arange(n_max + 1), mean)
    ns = np.flatnonzero(weights >= tail_tol / (n_max + 1))
    if len(ns) == 0:
        raise ConfigError(f"tail_tol {tail_tol} leaves no Poisson term")
    ws, done = weights[ns], {}

    def exact(ms):
        new = [m for m in ms if m not in done]
        if new:
            done.update(zip(new, _checked_terms(terms(new), len(new), done)))
        return np.array([done[m] for m in ms])

    fit = ns >= 1
    fitted = _fitted_sum(exact, ns[fit], ws[fit]) if fit.any() else None
    if fitted is None:
        raw = sum(w * T for w, T in zip(ws, exact(ns.tolist())))
    else:
        raw = fitted[0] if fit.all() else ws[0] * exact([0])[0] + fitted[0]
    captured = float(np.cumsum(ws)[-1])  # the running sum, left to right
    return PropagatorResult(
        U=raw / captured, step_count=len(ns),
        error_estimate=float(special.pdtrc(n_max, mean)),
        extras={"raw": raw, "captured_mass": captured, "n_max": int(n_max),
                "exact_terms": len(done),
                "fit_residual": None if fitted is None else fitted[1]})


def _checked_terms(T, count: int, done: dict) -> np.ndarray:
    """T as a stack of count finite numeric terms, each shaped as the terms
    in done; anything else is a DimensionError, a non-finite term a RangeError."""
    try:
        T = np.asarray(T)
    except ValueError:
        T = None
    shape = np.shape(next(iter(done.values()))) if done else None
    if (T is None or T.dtype.kind not in "biufc" or T.ndim < 1 or len(T) != count
            or shape not in (None, T.shape[1:])):
        raise DimensionError(f"terms must return {count} numeric terms of one shape")
    if not np.all(np.isfinite(T)):
        raise RangeError("a Poisson term is not finite")
    return T


def U_lambda(f: GeneratorFamily, cfg: PathSumConfig) -> PropagatorResult:
    """Poisson(lambda t)-weighted sum of the path propagators on [f.a, f.a + t],
    summed by poisson_mixture (see there for U, step_count and extras)."""
    _check_interval(f, f.a, f.a + cfg.t)
    return poisson_mixture(lambda ns: _U_for_counts(f, ns, [cfg.t] * len(ns)),
                           cfg.lam * cfg.t, cfg.tail_tol)


def stieltjes_form(f: GeneratorFamily, cfg: PathSumConfig,
                   oracle_U: Optional[np.ndarray] = None) -> PropagatorResult:
    """Stieltjes sum over the jump set s = k / lambda.

    Each jump carries mass e^{-lam t}(lam t)^k / k! and the propagator
    U_k[f.a + k / lambda, f.a]; extras report the distance to an oracle,
    when given.  The jumps reach past t, to n_max / lambda, and the family
    must cover them.  step_count is n_max.
    """
    if oracle_U is not None and as_matrix(oracle_U, "oracle_U").shape != (f.dim, f.dim):
        raise DimensionError(f"oracle_U must be {f.dim} x {f.dim}, "
                             f"got {np.shape(oracle_U)}")
    lam_t = cfg.lam * cfg.t
    _check_interval(f, f.a, f.a + poisson_truncation(lam_t, cfg.tail_tol) / cfg.lam)
    res = poisson_mixture(
        lambda ks: _U_for_counts(f, ks, [k / cfg.lam for k in ks]), lam_t, cfg.tail_tol)
    if oracle_U is not None:
        res.extras["distance_to_oracle"] = float(np.linalg.norm(
            res.U - oracle_U, 2))
    return replace(res, step_count=res.extras["n_max"])


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based splittable per-trial stream (Philox keyed by trial);
    seed and trial are integers >= 0, or a DomainError."""
    seed, trial = _as_int(seed, "seed"), _as_int(trial, "trial")
    if seed < 0 or trial < 0:
        raise DomainError(f"need seed and trial >= 0, got {seed} and {trial}")
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
    if lam_t > MAX_POISSON_TERMS:
        raise ResourceError(f"lambda*t = {lam_t:g} expects more than "
                            f"{MAX_POISSON_TERMS} arrivals per trial")
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


# Gaps drawn per block of bubble_counts trials: bounds its memory, whatever the trials.
_COUNT_BLOCK = 2 ** 14


def _arrival_blocks(cfg: PathSumConfig, trials: int, per_block: int,
                   start: int = 0):
    """(first trial, rows) per block of up to per_block trials start <= k <
    trials: row k - first holds the cumulative gaps of trial_rng(cfg.seed,
    k), bit for bit, and every row reaches past t.  A block with a row that
    ends at or before t is drawn again at twice the width: gaps and their
    sums run in order, so its arrivals up to t equal those of
    sample_bubbles.

    One Philox is re-keyed per trial through its state setter, fed Python
    ints, which it reads faster than numpy scalars; each block's keys are
    converted on their own, which keeps a large run's memory flat.  All keys
    are derived at once; the first and last are checked against SeedSequence
    itself so a change in numpy's seeding cannot go unnoticed.
    """
    if _as_int(trials, "trials") < 0:
        raise DomainError(f"need trials >= 0, got {trials}")
    keys = _trial_keys(cfg.seed, trials)
    for k in ({start, trials - 1} if trials > start else ()):
        expected = np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(k,)).generate_state(2, np.uint64)
        if not np.array_equal(keys[k], expected):
            raise ConsistencyError(
                f"derived Philox key of trial {k} differs from SeedSequence")
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # The setter copies the values, so one dict serves every trial.
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    m = _gap_chunk(cfg.lam * cfg.t)
    for first in range(start, trials, per_block):
        block, width = keys[first:first + per_block].tolist(), m
        while True:
            gaps = np.empty((len(block), width))
            for row, key in zip(gaps, block):
                state["state"]["key"] = key
                bitgen.state = state
                rng.standard_exponential(out=row)
            rows = np.cumsum(gaps * (1.0 / cfg.lam), axis=1)
            if rows[:, -1].min() > cfg.t:
                break
            width *= 2
        yield first, rows


def bubble_counts(cfg: PathSumConfig, trials: int) -> np.ndarray:
    """len(sample_bubbles(cfg, trial_rng(cfg.seed, k))) for k < trials,
    counted a block of about _COUNT_BLOCK gaps at a time."""
    return _bubble_counts_from(cfg, 0, trials)


def _bubble_counts_from(cfg: PathSumConfig, start: int,
                        trials: int) -> np.ndarray:
    """bubble_counts(cfg, trials)[start:], drawing trials start.. alone."""
    per_block = max(1, _COUNT_BLOCK // _gap_chunk(cfg.lam * cfg.t))
    return np.concatenate([np.zeros(0, dtype=int)] + [
        (rows <= cfg.t).sum(axis=1)
        for _, rows in _arrival_blocks(cfg, trials, per_block, start)])


def _check_trials(cfg: PathSumConfig):
    if cfg.trials < 100:
        raise ConfigError(f"need trials >= 100, got {cfg.trials}")


# Generator entries (about nodes times d^2) evaluated for one block of Monte
# Carlo trials: bounds every work stack, whatever the trial count.
_BLOCK_ENTRIES = 2 ** 20


def _trial_samples(f: GeneratorFamily, cfg: PathSumConfig):
    """(U of every trial (trials, d, d), its bubble count): arrivals on
    [0, t] are bubbles at f.a + arrival.  Trials run in blocks of
    _arrival_blocks rows, and each block's partitions, one (B_n, n + 1)
    batch per bubble count n >= 1, take one _U_batch call."""
    entries = max(5 * _gap_chunk(cfg.lam * cfg.t), CELL_NODES) * f.dim ** 2
    samples = np.empty((cfg.trials, f.dim, f.dim), dtype=complex)
    counts = np.empty(cfg.trials, dtype=int)
    for first, rows in _arrival_blocks(cfg, cfg.trials,
                                       max(1, _BLOCK_ENTRIES // entries)):
        n_of = counts[first:first + len(rows)] = (rows <= cfg.t).sum(axis=1)
        out = samples[first:first + len(rows)]
        groups = [(n, n_of == n) for n in np.unique(n_of).tolist()]
        if groups[0][0] == 0:
            out[groups.pop(0)[1]] = _U_for_count(f, cfg.t, 0)
        Us = _U_batch(f, [midpoint_edges(f.a, f.a + cfg.t, f.a + rows[group, :n])
                          for n, group in groups])
        for (_, group), U in zip(groups, Us):
            out[group] = U
    return samples, counts


def monte_carlo_U(f: GeneratorFamily, cfg: PathSumConfig) -> PropagatorResult:
    """Sample mean of U over random bubble partitions.

    Entrywise standard errors of the mean are reported in extras; trials
    use independent counter-based streams so results are reproducible and
    order-independent.  Arrivals on [0, t] are bubbles at f.a + arrival.
    """
    _check_trials(cfg)
    _check_interval(f, f.a, f.a + cfg.t)
    samples, counts = _trial_samples(f, cfg)
    se = np.sqrt((np.var(samples.real, axis=0) + np.var(samples.imag, axis=0))
                 / (cfg.trials - 1))
    return PropagatorResult(
        U=samples.mean(axis=0), step_count=cfg.trials,
        error_estimate=float(np.max(se)),
        extras={"stderr": se, "counts": counts, "seed": cfg.seed})


def conditional_single_bubble_check(f: GeneratorFamily, cfg: PathSumConfig):
    """Compare the count==1 conditional mean to the n = 0 term exp(Q).

    With midpoint cells a single bubble at any position yields the one cell
    [f.a, f.a + t], so every one-bubble trial gives the same propagator:
    the conditional mean is that matrix exactly and its stderr is zero.  It
    is the n = 1 term, compared with the n = 0 term exp(Q) from the
    adaptive integrator; returns (mc_mean, reference, stderr, n_used).
    """
    _check_trials(cfg)
    _check_interval(f, f.a, f.a + cfg.t)
    n_used = int(np.count_nonzero(bubble_counts(cfg, cfg.trials) == 1))
    if n_used == 0:
        raise ConfigError("no trials with exactly one bubble; raise trials")
    one_cell = _U_for_count(f, cfg.t, 1)
    reference = _U_for_count(f, cfg.t, 0)
    return one_cell, reference, np.zeros(one_cell.shape), n_used
