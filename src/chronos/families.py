"""Time-dependent generator families H(t) on [a, b] and their integrals."""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConfigError, ConsistencyError, DimensionError, DomainError,
                     ResourceError, SingularityError)
from .linalg import _SLICE_ENTRIES, MAX_DENSE_DIM, _owned_matrix, dissipativity
from .quadrature import adaptive_quadrature, loglog_slope

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_CLASSIFY_GRID = 10


class SeparableForm:
    """H(t) = sum_k coeffs(t)[:, k] basis[k]: K scalar coefficient functions
    times K fixed matrices.

    `coeffs` maps times (m,) to coefficients (m, K); a transposed view of a
    batch-last (K, m) array is what the path-sum sweep reads fastest.
    `basis` is a read-only (K, d, d) array.  `layers` holds the same sum
    entry by entry: index and value, both (L, d^2), with H(t)_e =
    sum_j coeffs(t)[index[j, e]] value[j, e] for each flat entry e.  A form
    is built from either; the other is derived when first read, so a form
    of disjoint supports (SeparableForm.from_layers) never holds K dense
    matrices unless a caller asks for them.

    `table` stacks the basis and the pairwise commutators [B_k, B_l], k < l,
    in the order of the index arrays `pairs = (k, l)`, as read-only
    (K + K(K - 1)/2, d, d) rows, built once per form when first read: a
    linear combination of them with coefficients (m, K + K(K - 1)/2) is one
    matrix product (`combine`).
    """

    def __init__(self, coeffs: Callable[[np.ndarray], np.ndarray], basis):
        B = np.array(basis, dtype=complex)
        if B.ndim != 3 or B.shape[1] != B.shape[2] or not len(B):
            raise DimensionError(f"basis must be (K, d, d) with K >= 1, got {B.shape}")
        B.flags.writeable = False
        self.coeffs, self.basis = coeffs, B
        self.terms, self.dim = B.shape[:2]

    @classmethod
    def from_layers(cls, coeffs: Callable[[np.ndarray], np.ndarray], terms: int,
                    index, value) -> "SeparableForm":
        """The form of `terms` coefficients with the given layers (see the
        class), held as read-only copies."""
        index, value = np.array(index, dtype=np.intp), np.array(value, dtype=complex)
        dim = math.isqrt(index.shape[1]) if index.ndim == 2 else 0
        if (not dim or dim * dim != index.shape[1] or value.shape != index.shape
                or not len(index) or not 0 <= index.min() <= index.max() < terms):
            raise DimensionError(f"layers {index.shape} and {value.shape} are not "
                                 f"(L, d^2) with indices below {terms}")
        form = cls.__new__(cls)
        index.flags.writeable = value.flags.writeable = False
        form.coeffs, form.terms, form.dim = coeffs, terms, dim
        form.layers = index, value
        return form

    @cached_property
    def basis(self) -> np.ndarray:
        index, value = self.layers
        B = np.zeros((self.terms, index.shape[1]), dtype=complex)
        entries = np.arange(index.shape[1])
        for k, v in zip(index, value):
            B[k, entries] += v
        B = B.reshape(-1, self.dim, self.dim)
        B.flags.writeable = False
        return B

    @cached_property
    def layers(self):
        """(index, value) from the basis: index[:, e] lists the matrices
        nonzero at entry e in increasing order, padded with zero values, so
        L is the largest number of matrices nonzero at one entry: 1 for
        disjoint supports, K for a dense basis."""
        flat = self.basis.reshape(self.terms, -1)
        nonzero = flat != 0
        index = np.argsort(~nonzero, axis=0, kind="stable")
        index = index[:max(1, int(nonzero.sum(axis=0).max()))]
        return index, np.take_along_axis(flat, index, axis=0)

    @cached_property
    def pairs(self):
        return np.triu_indices(self.terms, 1)

    @cached_property
    def table(self) -> np.ndarray:
        B, (k, l) = self.basis, self.pairs
        table = np.concatenate([B, B[k] @ B[l] - B[l] @ B[k]])
        table.flags.writeable = False
        return table

    def combine(self, C: np.ndarray) -> np.ndarray:
        """sum_r C[:, r] table[r] for C (m, R), R <= len(table), as (m, d, d)."""
        d, R = self.dim, C.shape[1]
        return (np.ascontiguousarray(C) @ self.table[:R].reshape(R, d * d)
                ).reshape(len(C), d, d)

    def evaluate(self, ts: np.ndarray) -> np.ndarray:
        """H at the times ts (m,), as (m, d, d), assembled by layers, a slice
        of at most _SLICE_ENTRIES coefficients or entries at a time."""
        ts = np.atleast_1d(ts)
        out = np.empty((len(ts), self.dim, self.dim), dtype=complex)
        step = max(1, _SLICE_ENTRIES // max(self.terms, self.dim ** 2))
        for i in range(0, len(ts), step):
            self.assemble(self.coeffs(ts[i:i + step]).T, out[i:i + step])
        return out

    def assemble(self, I: np.ndarray, out: np.ndarray) -> np.ndarray:
        """sum_k I[k, :] basis[k] for batch-last coefficients I (K, c), into
        out (c, d, d): one gather and multiply per layer, summed layer by
        layer, entry by entry, so each matrix has the bits it has alone."""
        index, value = self.layers
        G = I[index[0]] * value[0][:, None]
        for k, v in zip(index[1:], value[1:]):
            G += I[k] * v[:, None]
        out[...] = G.T.reshape(out.shape)
        return out


@dataclass(frozen=True)
class GeneratorFamily:
    """A map t -> H(t) on [a, b] with commutativity and dissipativity labels.

    The commutativity label is what the constructor declares; the default,
    "general", is never wrong.

    `evaluate_batch` takes a time array (m,) and returns a stack (m, d, d).
    `breaks` are interior times, strictly increasing inside (a, b), where H
    may have a kink (a table's rows); the Dyson series puts panel edges there.

    A family may carry a `separable` form instead; `evaluate_batch` is then
    its `evaluate`.  A family given both an `evaluate_batch` and a form that
    it does not evaluate through (`dataclasses.replace(f, evaluate_batch=g)`)
    drops the form, so no caller reads a form that `evaluate_batch` does not
    follow.
    """

    a: float
    b: float
    dim: int
    evaluate_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    commutativity_class: str = "general"
    dissipative: bool = False
    name: str = "custom"
    separable: Optional[SeparableForm] = None
    breaks: Tuple[float, ...] = ()

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ConfigError(f"need finite a < b, got [{self.a}, {self.b}]")
        try:
            breaks = tuple(map(float, self.breaks))
        except (TypeError, ValueError):
            breaks = (math.nan,)
        if not all(s < t for s, t in zip((self.a, *breaks), (*breaks, self.b))):
            raise ConfigError(f"breaks {self.breaks!r} are not numbers strictly "
                              f"increasing inside ({self.a}, {self.b})")
        object.__setattr__(self, "breaks", breaks)
        if not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise DimensionError(f"need an integer dim >= 1, got {self.dim!r}")
        if self.commutativity_class not in ("constant", "commuting", "general"):
            raise ConfigError(
                f"unknown commutativity class {self.commutativity_class!r}")
        form = self.separable
        if form is not None:
            if form.dim != self.dim:
                raise DimensionError(f"form of dim {form.dim} does not match "
                                     f"dim {self.dim}")
            if self.evaluate_batch is None:
                object.__setattr__(self, "evaluate_batch", form.evaluate)
            elif self.evaluate_batch != form.evaluate:
                object.__setattr__(self, "separable", None)
        if self.evaluate_batch is None:
            raise ConfigError("a family needs evaluate_batch or a separable form")

    def __call__(self, t: float) -> np.ndarray:
        return self.evaluate_batch(np.array([float(t)]))[0]

    @property
    def interval(self):
        return (self.a, self.b)


def _batch_from_scalar(evaluate: Callable[[float], np.ndarray]):
    def batch(ts: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(evaluate(float(t)), dtype=complex)
                         for t in np.atleast_1d(ts)])
    return batch


def _sampled_dissipative(batch, a: float, b: float) -> bool:
    ts = np.linspace(a, b, _CLASSIFY_GRID)
    return all(dissipativity(H).is_dissipative for H in batch(ts))


def family_from_evaluator(evaluate, interval=(0.0, 1.0), name: str = "custom",
                          batch=None) -> GeneratorFamily:
    """Wrap a scalar evaluator (or a batch one), labelled dissipative from
    10 samples; its commutativity label is the default, "general"."""
    a, b = float(interval[0]), float(interval[1])
    if batch is None:
        batch = _batch_from_scalar(evaluate)
    dim = batch(np.array([a])).shape[-1]
    return GeneratorFamily(
        a=a, b=b, dim=dim, evaluate_batch=batch,
        dissipative=_sampled_dissipative(batch, a, b), name=name)


def family_from_matrix(H, interval=(0.0, 1.0), name: str = "constant") -> GeneratorFamily:
    """Constant family t -> H, on a read-only copy of H."""
    A = _owned_matrix(H, "H")

    def batch(ts):
        return np.broadcast_to(A, (len(np.atleast_1d(ts)),) + A.shape).copy()

    a, b = float(interval[0]), float(interval[1])
    return GeneratorFamily(
        a=a, b=b, dim=A.shape[0], evaluate_batch=batch,
        commutativity_class="constant",
        dissipative=dissipativity(A).is_dissipative, name=name)


def builtin_family(name: str, params: Sequence[float] = (),
                   interval=(0.0, 1.0)) -> GeneratorFamily:
    """Named test fixtures.

    constant:         -i * p0 * sigma_z                        (default p0=1)
    scalar_commuting: (p0 + p1 t) * (-i sigma_z)               (default 0, 1)
    two_level_driven: -i (p0 sigma_z + p1 sin(p2 t) sigma_x)   (default 1,1,1)
    damped_two_level: two_level_driven - p3 * I                (default gamma 0.5)
    random_smooth:    -i A(t) - p2 I, A(t) a trig polynomial with Hermitian
                      random coefficients; p0 seed, p1 dim     (default 0, 3, 0.2)
    """
    p = list(params)
    a, b = float(interval[0]), float(interval[1])
    if name == "constant":
        delta = p[0] if p else 1.0
        return family_from_matrix(-1j * delta * SIGMA_Z, (a, b), name=name)
    if name == "scalar_commuting":
        c0 = p[0] if len(p) > 0 else 0.0
        c1 = p[1] if len(p) > 1 else 1.0
        H0 = -1j * SIGMA_Z

        def batch(ts):
            ts = np.atleast_1d(ts)
            return (c0 + c1 * ts)[:, None, None] * H0

        return GeneratorFamily(a=a, b=b, dim=2, evaluate_batch=batch,
                               commutativity_class="commuting",
                               dissipative=True, name=name)
    if name == "two_level_driven" or name == "damped_two_level":
        delta = p[0] if len(p) > 0 else 1.0
        amp = p[1] if len(p) > 1 else 1.0
        freq = p[2] if len(p) > 2 else 1.0
        gamma = (p[3] if len(p) > 3 else 0.5) if name == "damped_two_level" else 0.0

        def batch(ts):
            # -1j (delta sigma_z + drive sigma_x) - gamma I entry by entry; delta
            # * 0.0 gives a zero drive the sign its sum with delta sigma_z had.
            ts = np.atleast_1d(ts)
            out = np.zeros((len(ts), 2, 2), dtype=complex)
            out.real[:, 0, 0] = out.real[:, 1, 1] = 0.0 - gamma
            out.imag[:, 0, 0], out.imag[:, 1, 1] = -delta, delta
            out.imag[:, 0, 1] = out.imag[:, 1, 0] = -(
                delta * 0.0 + amp * np.sin(freq * ts))
            return out

        return GeneratorFamily(a=a, b=b, dim=2, evaluate_batch=batch,
                               commutativity_class="general",
                               dissipative=True, name=name)
    if name == "random_smooth":
        return _random_smooth(p, a, b)
    raise ConfigError(f"unknown builtin family {name!r}")


def _integer_param(x, what: str) -> int:
    """x as an int, for a parameter that config files hand over as a float."""
    if not isinstance(x, numbers.Integral) and not float(x).is_integer():
        raise ConfigError(f"random_smooth {what} must be an integer, got {x}")
    return int(x)


def _random_smooth(p: list, a: float, b: float) -> GeneratorFamily:
    """-i (A0 + sin t A1 + cos t A2) - gamma I in separable form: coefficients
    (1, sin t, cos t) of the basis (-i A0 - gamma I, -i A1, -i A2)."""
    seed = _integer_param(p[0], "seed p0") if len(p) > 0 else 0
    dim = _integer_param(p[1], "dim p1") if len(p) > 1 else 3
    gamma = p[2] if len(p) > 2 else 0.2
    if seed < 0 or dim < 1:
        raise ConfigError("random_smooth needs seed p0 >= 0 and dim p1 >= 1, "
                          f"got {seed} and {dim}")
    if dim > MAX_DENSE_DIM:
        raise ResourceError(f"random_smooth dim p1 = {dim} exceeds the dense "
                            f"cap of {MAX_DENSE_DIM}")
    if not math.isfinite(gamma):
        raise ConfigError(f"random_smooth gamma p2 must be finite, got {gamma}")
    rng = np.random.default_rng(seed)

    def herm():
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = 0.5 * (X + X.conj().T)
        return X / max(np.linalg.norm(X, 2), 1e-12)

    basis = [-1j * herm() for _ in range(3)]
    basis[0] -= gamma * np.eye(dim)

    def coeffs(ts):
        return np.stack([np.ones_like(ts), np.sin(ts), np.cos(ts)]).T

    # -i A(t) is skew-Hermitian, so H(t) + H(t)^* = -2 gamma I.
    return GeneratorFamily(a=a, b=b, dim=dim, commutativity_class="general",
                           dissipative=gamma >= 0, name="random_smooth",
                           separable=SeparableForm(coeffs, basis))


def family_from_csv(path, name: str = "tabulated") -> GeneratorFamily:
    """Tabulated family with linear interpolation.

    Columns: t, re(h_11), im(h_11), ... in row-major entry order; header
    row required, every cell a finite number.  The interior rows' times are
    the family's breaks.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader
                    if r and not r[0].startswith("#")]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path}: not a CSV table: {exc}") from None
    if len(rows) < 3:
        raise ConfigError(f"{path}: need a header and at least two data rows")
    width = len(rows[1][1])
    values = []
    for lineno, r in rows[1:]:
        if len(r) != width:
            raise ConfigError(
                f"{path}, line {lineno}: {len(r)} columns, expected {width}")
        try:
            values.append([float(x) for x in r])
        except ValueError:
            raise ConfigError(
                f"{path}, line {lineno}: non-numeric cell in {r}") from None
        if not all(map(math.isfinite, values[-1])):
            raise ConfigError(f"{path}, line {lineno}: non-finite cell in {r}")
    data = np.array(values)
    ncols = data.shape[1] - 1
    dim = int(round(np.sqrt(ncols / 2)))
    if 2 * dim * dim != ncols:
        raise ConfigError(f"{path}: {ncols} value columns is not 2*d^2")
    ts = data[:, 0]
    if not np.all(np.diff(ts) > 0):
        raise ConfigError(f"{path}: time column must be strictly increasing")
    flat = data[:, 1::2] + 1j * data[:, 2::2]

    def batch(query):
        query = np.atleast_1d(query)
        out = np.empty((len(query), dim * dim), dtype=complex)
        for k in range(dim * dim):
            out[:, k] = (np.interp(query, ts, flat[:, k].real)
                         + 1j * np.interp(query, ts, flat[:, k].imag))
        return out.reshape(len(query), dim, dim)

    return replace(family_from_evaluator(None, (ts[0], ts[-1]), name=name,
                                         batch=batch), breaks=ts[1:-1])


def yosida_stack(H: np.ndarray, z: float) -> np.ndarray:
    """Yosida approximants z H (zI-H)^{-1} over a stack (m, d, d)."""
    if not 0 < z < math.inf:
        raise DomainError(f"yosida requires a finite z > 0, got z={z}")
    d = H.shape[-1]
    try:
        R = np.linalg.solve(z * np.eye(d)[None] - H, np.broadcast_to(
            np.eye(d, dtype=complex), H.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"zI - H(t) is singular at z={z}") from exc
    return z * (H @ R)


def yosida_family(f: GeneratorFamily, z: float) -> GeneratorFamily:
    """The family t -> H_z(t); same labels (rational functions of H(t))."""
    def batch(ts):
        return yosida_stack(f.evaluate_batch(np.atleast_1d(ts)), z)

    return GeneratorFamily(a=f.a, b=f.b, dim=f.dim, evaluate_batch=batch,
                           commutativity_class=f.commutativity_class,
                           dissipative=f.dissipative,
                           name=f"{f.name}_yosida{z:g}", breaks=f.breaks)


def _check_interval(f: GeneratorFamily, s: float, t: float):
    if not s <= t:
        raise DomainError(f"need s <= t, got s={s}, t={t}")
    if not (f.a - 1e-12 <= s and t <= f.b + 1e-12):
        raise DomainError(
            f"[{s}, {t}] not contained in the family interval [{f.a}, {f.b}]")


def integrate_family_with_estimate(f: GeneratorFamily, s: float, t: float):
    """Q[t, s] = int_s^t H(u) du with a panel-doubling error estimate."""
    _check_interval(f, s, t)
    Q, est, panels = adaptive_quadrature(f.evaluate_batch, s, t)
    if f.dissipative:
        margin = dissipativity(Q).margin
        if margin > max(1e-9, 100 * est) * max(1.0, t - s):
            raise ConsistencyError(
                f"integral of a dissipative family has margin {margin:.3e}")
    return Q, est, panels


def integrate_family(f: GeneratorFamily, s: float, t: float) -> np.ndarray:
    return integrate_family_with_estimate(f, s, t)[0]


def variance_integral(f: GeneratorFamily, z: float, e: np.ndarray,
                      t: float) -> float:
    """int_a^t ( ||H_z(s)e||^2 - |<H_z(s)e, e>|^2 ) ds for a unit vector e.

    The integrand is a variance, nonnegative by Cauchy-Schwarz; the
    modulus-squared form keeps it real for non-Hermitian H_z.
    """
    e = np.asarray(e, dtype=complex)
    if e.shape != (f.dim,):
        raise DimensionError(f"e must have shape ({f.dim},), got {e.shape}")
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise DomainError("e must be a unit vector")

    def integrand(ts):
        Hz = yosida_stack(f.evaluate_batch(np.atleast_1d(ts)), z)
        v = Hz @ e
        return (np.sum(np.abs(v) ** 2, axis=-1)
                - np.abs(np.einsum("mi,i->m", v, e.conj())) ** 2)

    value, _, _ = adaptive_quadrature(integrand, f.a, t)
    return float(value)


def derivative_probe(f: GeneratorFamily, t: float,
                     h_list: Sequence[float]) -> float:
    """Observed order of (Q[t+h,a] - Q[t,a])/h -> H(t).

    Returns the log-log slope of the residual versus h; +inf when the
    residual vanishes at every h (constant families).
    """
    h_list = list(h_list)
    if not all(h > 0 for h in h_list):
        raise DomainError("h_list entries must be positive")
    if not (f.a < t < f.b) or t + max(h_list) > f.b:
        raise DomainError(f"t={t} with max h={max(h_list)} leaves [{f.a}, {f.b}]")
    Qt = integrate_family(f, f.a, t)
    Ht = f(t)
    residuals = []
    for h in h_list:
        Qth = integrate_family(f, f.a, t + h)
        residuals.append(np.linalg.norm((Qth - Qt) / h - Ht, 2))
    if max(residuals) <= 1e-12:
        return float("inf")
    return loglog_slope(h_list, residuals)
