import numpy as np
import pytest

from chronos.errors import QuadratureError
from chronos.quadrature import (adaptive_quadrature, cumulative_simpson_uniform,
                                fixed_quadrature, loglog_slope, panel_nodes)


def test_panel_nodes_weights_sum_to_length():
    _, w = panel_nodes(0.0, 2.0, 7)
    assert np.sum(w) == pytest.approx(2.0, rel=1e-14)


def test_gauss5_polynomial_exactness():
    # Gauss with 5 points per panel is exact through degree 9.
    val = fixed_quadrature(lambda t: t ** 9, 0.0, 1.0, 1)
    assert val == pytest.approx(0.1, rel=1e-13)


def test_fixed_quadrature_matrix_valued():
    def f(ts):
        out = np.zeros((len(ts), 2, 2))
        out[:, 0, 0] = ts
        out[:, 1, 1] = ts ** 2
        return out

    val = fixed_quadrature(f, 0.0, 1.0, 4)
    assert np.allclose(val, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_fixed_quadrature_degenerate_interval():
    val = fixed_quadrature(lambda t: np.ones((len(t), 2, 2)), 1.0, 1.0, 4)
    assert np.allclose(val, 0.0)


def test_adaptive_quadrature_smooth_integrand():
    val, est, panels = adaptive_quadrature(np.sin, 0.0, np.pi)
    assert val == pytest.approx(2.0, rel=1e-12)
    assert est <= 1e-12
    assert panels >= 128


def test_adaptive_quadrature_raises_on_rough_integrand():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda t: rng.standard_normal(len(t)), 0.0, 1.0)


def test_cumulative_simpson_matches_antiderivative():
    ts = np.linspace(0.0, 2.0, 257)
    vals = cumulative_simpson_uniform(ts ** 2, ts[1] - ts[0])
    assert np.allclose(vals, ts ** 3 / 3.0, atol=1e-9)


def test_cumulative_simpson_quadratic_exact():
    # The per-panel rule integrates quadratics without truncation error.
    ts = np.linspace(0.0, 1.0, 5)
    vals = cumulative_simpson_uniform(3.0 * ts ** 2, ts[1] - ts[0])
    assert np.allclose(vals, ts ** 3, atol=1e-14)


def test_cumulative_simpson_two_point_grid():
    vals = cumulative_simpson_uniform(np.array([0.0, 1.0]), 1.0)
    assert vals[1] == pytest.approx(0.5)


def test_cumulative_simpson_stack_shape():
    vals = np.ones((9, 3, 3))
    out = cumulative_simpson_uniform(vals, 0.125)
    assert out.shape == (9, 3, 3)
    assert np.allclose(out[-1], 1.0)


def _simpson_reference(f, h):
    """The allocating formula the in-place kernel must reproduce bit for bit."""
    m = f.shape[0] - 1
    out = np.zeros_like(f)
    if m == 0:
        return out
    if m == 1:
        out[1] = 0.5 * h * (f[0] + f[1])
        return out
    inc = np.empty_like(f[1:])
    inc[:-1] = (h / 12.0) * (5.0 * f[0:-2] + 8.0 * f[1:-1] - f[2:])
    inc[-1] = (h / 12.0) * (-f[-3] + 8.0 * f[-2] + 5.0 * f[-1])
    out[1:] = np.cumsum(inc, axis=0)
    return out


@pytest.mark.parametrize("m", [0, 1, 2, 3, 10])
def test_cumulative_simpson_matches_reference_bit_for_bit(m):
    rng = np.random.default_rng(m)
    stack = rng.standard_normal((m + 1, 3, 3)) + 1j * rng.standard_normal((m + 1, 3, 3))
    stack[0, 0, 0] = -0.0
    for f, h in ((stack, 0.01), (stack.real.copy(), 0.3), (stack[:, 1, 2].real.copy(), 0.7),
                 (np.full((m + 1, 2), -0.0), 0.5)):
        got = cumulative_simpson_uniform(f, h)
        ref = _simpson_reference(f, h)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_loglog_slope_power_law():
    x = np.array([1.0, 0.5, 0.25, 0.125])
    assert loglog_slope(x, x ** 3) == pytest.approx(3.0, abs=1e-12)


def test_loglog_slope_degenerate_input():
    assert loglog_slope([1.0], [1.0]) == float("inf")
    assert loglog_slope([1.0, 0.5], [0.0, 0.0]) == float("inf")
