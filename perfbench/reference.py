"""Closed-form ground truth for the `oracle` workload.

The rotating-field two-level system has a time-ordered propagator in
closed form, so the accuracy gate on `product_integral` rests on this file
and numpy alone, never on the code under test:

    H(t) = -i [ (D/2) sz + (W/2) (cos(w t) sx + sin(w t) sy) ]
    U(t) = exp(-i w t sz / 2) . exp(-i t [ ((D - w)/2) sz + (W/2) sx ])

Both factors are exponentials of -i t (a . sigma) with a real vector a,
evaluated with cos |a|t I - i sin |a|t (a . sigma)/|a|.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rotating_field_generator(delta: float, omega_r: float, omega: float,
                             ts) -> np.ndarray:
    """H(t) over a time array, shape (m, 2, 2)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    c = np.cos(omega * ts)[:, None, None]
    s = np.sin(omega * ts)[:, None, None]
    return -1j * (0.5 * delta * SZ[None]
                  + 0.5 * omega_r * (c * SX[None] + s * SY[None]))


def _spin_exp(ax: float, az: float, t: float) -> np.ndarray:
    """exp(-i t (ax sx + az sz)) for real ax, az."""
    norm = np.hypot(ax, az)
    if norm == 0.0:
        return np.eye(2, dtype=complex)
    return (np.cos(norm * t) * np.eye(2)
            - 1j * np.sin(norm * t) * (ax * SX + az * SZ) / norm)


def rotating_field_propagator(delta: float, omega_r: float, omega: float,
                              t: float) -> np.ndarray:
    """U(t) = U[t, 0] of the rotating-field generator, in closed form."""
    frame = _spin_exp(0.0, 0.5 * omega, t)
    return frame @ _spin_exp(0.5 * omega_r, 0.5 * (delta - omega), t)


def rotating_field_family(delta: float, omega_r: float, omega: float,
                          t: float):
    """The same generator as a chronos family on [0, t]."""
    from chronos.families import GeneratorFamily

    def batch(ts):
        return rotating_field_generator(delta, omega_r, omega, ts)

    return GeneratorFamily(a=0.0, b=float(t), dim=2, evaluate_batch=batch,
                           commutativity_class="general", dissipative=True,
                           name="rotating_field")
