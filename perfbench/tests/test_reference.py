"""The rotating-field closed form is checked without chronos."""

import numpy as np
import pytest

import reference

PARAMS = [(1.3, 0.7, 2.1), (1.1, 0.85, 1.9), (0.0, 1.0, 0.0), (2.0, 0.3, -1.5)]


@pytest.mark.parametrize("delta,omega_r,omega", PARAMS)
def test_closed_form_solves_the_equation_of_motion(delta, omega_r, omega):
    h = 1e-4
    for t in (0.1, 0.5, 0.9, 1.7):
        dU = (reference.rotating_field_propagator(delta, omega_r, omega, t + h)
              - reference.rotating_field_propagator(delta, omega_r, omega, t - h)) / (2 * h)
        H = reference.rotating_field_generator(delta, omega_r, omega, t)[0]
        U = reference.rotating_field_propagator(delta, omega_r, omega, t)
        assert np.linalg.norm(dU - H @ U, 2) <= 1e-7


@pytest.mark.parametrize("delta,omega_r,omega", PARAMS)
def test_closed_form_starts_at_identity_and_stays_unitary(delta, omega_r, omega):
    assert np.allclose(reference.rotating_field_propagator(delta, omega_r, omega, 0.0),
                       np.eye(2), atol=1e-15)
    U = reference.rotating_field_propagator(delta, omega_r, omega, 1.3)
    assert np.linalg.norm(U.conj().T @ U - np.eye(2), 2) <= 1e-14


def test_central_difference_residual_shrinks_like_h_squared():
    args = (1.3, 0.7, 2.1)
    t = 0.6
    H = reference.rotating_field_generator(*args, t)[0]
    U = reference.rotating_field_propagator(*args, t)

    def residual(h):
        dU = (reference.rotating_field_propagator(*args, t + h)
              - reference.rotating_field_propagator(*args, t - h)) / (2 * h)
        return np.linalg.norm(dU - H @ U, 2)

    ratio = residual(1e-2) / residual(5e-3)
    assert 3.5 < ratio < 4.5


def test_family_matches_the_generator():
    f = reference.rotating_field_family(1.3, 0.7, 2.1, 1.0)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(f.evaluate_batch(ts),
                          reference.rotating_field_generator(1.3, 0.7, 2.1, ts))
    assert (f.a, f.b, f.dim) == (0.0, 1.0, 2)
