"""Composite quadrature for matrix-valued integrands.

Realizes the weak Riemann integral of a continuous operator family as
entrywise composite quadrature with Richardson-style refinement control.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

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
    """Single composite pass; `f` maps a time array (m,) to values (m, ...)."""
    if b == a:
        probe = np.asarray(f(np.array([a])))
        return np.zeros_like(probe[0])
    nodes, weights = panel_nodes(a, b, panels)
    values = np.asarray(f(nodes))
    return np.tensordot(weights, values, axes=(0, 0))


def adaptive_quadrature(f, a: float, b: float):
    """Panel-doubling refinement; returns (integral, error_estimate, panels).

    The estimate is the norm of the difference between the last two
    refinement levels.
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
    new array of the same shape whose entry 0 is zero.
    """
    f = np.asarray(values)
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
    """Least-squares slope of log y versus log x, ignoring entries <= 1e-300."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 1e-300)
    if keep.sum() < 2:
        return float("inf")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
