"""Composite quadrature for matrix-valued integrands.

Realizes the weak Riemann integral of a continuous operator family as
entrywise composite quadrature with Richardson-style refinement control.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import DimensionError, DomainError, QuadratureError, RangeError

_GAUSS5_NODES, _GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)

# The one quadrature policy: composite Gauss-5 from 64 panels, doubled
# until successive levels agree to 1e-12.
PANELS = 64
REFINEMENT_TOL = 1e-12
MAX_PANELS = 1 << 17


def panel_nodes(a: float, b: float, panels: int):
    """Nodes and weights of composite Gauss-5 on [a, b] (flat arrays)."""
    edges = np.linspace(a, b, panels + 1)
    h = (b - a) / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + 0.5 * h * _GAUSS5_NODES[None, :]).ravel()
    return nodes, np.tile(0.5 * h * _GAUSS5_WEIGHTS, panels)


def fixed_quadrature(f, a: float, b: float, panels: int) -> np.ndarray:
    """Single composite pass; `f` maps a time array (m,) to values (m, ...).

    a and b must be finite and panels an integer >= 1 (DomainError); an
    integral that is not finite (a NaN or infinite integrand) is a
    RangeError."""
    if not (isinstance(panels, numbers.Integral) and panels >= 1):
        raise DomainError(f"need an integer number of panels >= 1, got {panels!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"need finite bounds, got [{a}, {b}]")
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return np.zeros_like(probe[0])
    nodes, weights = panel_nodes(a, b, panels)
    values = np.asarray(f(nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.tensordot(weights, values, axes=(0, 0))
    if not np.all(np.isfinite(out)):
        raise RangeError(f"the integral over [{a}, {b}] is not finite")
    return out


def adaptive_quadrature(f, a: float, b: float):
    """Panel-doubling refinement; returns (integral, error_estimate, panels).

    The estimate is the norm of the difference between the last two
    refinement levels.  Bounds and integrand are checked as in
    fixed_quadrature, before any refinement.
    """
    panels = PANELS
    current = fixed_quadrature(f, a, b, panels)
    if b == a:
        return current, 0.0, panels
    while True:
        panels *= 2
        if panels > MAX_PANELS:
            raise QuadratureError(
                f"no convergence to {REFINEMENT_TOL:g} within "
                f"{MAX_PANELS} panels on [{a}, {b}]")
        refined = fixed_quadrature(f, a, b, panels)
        estimate = float(np.max(np.abs(refined - current)))
        current = refined
        if estimate <= REFINEMENT_TOL:
            return current, estimate, panels


def cumulative_simpson_uniform(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, third-order per panel.

    `values` has shape (m+1, ...) with samples at x_0 .. x_m spaced by h.
    Each panel is integrated with the quadratic through its three nearest
    sample points, matching composite Simpson on even prefixes.  Returns a
    new array of the same shape whose entry 0 is zero.  Values that are not
    a numeric array of at least one finite sample are a DimensionError, and
    an h that is not finite a DomainError.
    """
    try:
        f = np.asarray(values)
        finite = f.ndim >= 1 and len(f) >= 1 and bool(np.all(np.isfinite(f)))
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"values are not a numeric array: {exc}") from None
    if not finite:
        raise DimensionError("values must be an array of one or more finite "
                             f"samples, got shape {f.shape}")
    if not math.isfinite(h):
        raise DomainError(f"need a finite step h, got {h}")
    m = f.shape[0] - 1
    out = np.zeros(f.shape, np.result_type(f, 1.0))
    if m == 0:
        return out
    if m == 1:
        out[1] = 0.5 * h * (f[0] + f[1])
        return out
    inc = np.empty_like(out[1:])
    inc[:-1] = (h / 12.0) * (5.0 * f[0:-2] + 8.0 * f[1:-1] - f[2:])
    inc[-1] = (h / 12.0) * (-f[-3] + 8.0 * f[-2] + 5.0 * f[-1])
    out[1:] = np.cumsum(inc, axis=0)
    return out


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y versus log x, ignoring entries <= 1e-300
    (and NaN), or inf with fewer than two points left.  x and y must be
    numeric 1-D arrays of one length (DimensionError), and the points kept
    finite (DomainError)."""
    try:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"x and y are not numeric arrays: {exc}") from None
    if x.ndim != 1 or x.shape != y.shape:
        raise DimensionError(f"need 1-D x and y of one length, got {x.shape} "
                             f"and {y.shape}")
    keep = (x > 0) & (y > 1e-300)
    if keep.sum() < 2:
        return float("inf")
    if np.isinf(x[keep]).any() or np.isinf(y[keep]).any():
        raise DomainError("log-log fit of an infinite point")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
