import math

import numpy as np
import pytest

from scipy import stats

from chronos.errors import ConfigError, DomainError
from chronos.families import (SIGMA_X, SIGMA_Z, GeneratorFamily,
                              integrate_family)
from chronos.film import midpoint_edges
from chronos.linalg import expm_stack, matrix_exp
from chronos.path_sum import U_n, poisson_mixture, poisson_truncation
from chronos import path_sum
from chronos.propagators import ordered_product, product_integral
from chronos.quadrature import loglog_slope
from chronos.smatrix import (SMatrixConfig, S_lambda, S_n_experimental,
                             _eigen_frame, dyson_S_expansion,
                             energy_shift_identity, fixed_dt_S,
                             interaction_generator, oracle_S)
from helpers import cell_generators


def toy(coupling=0.3, T=2.0, lam=1.0):
    return SMatrixConfig(H0=SIGMA_Z, V=coupling * SIGMA_X, T=T, lam=lam)


def random_three_level(lam=3.0, T=1.0):
    """Random Hermitian H0 (eigenvectors not a permutation) and V, [H0, V] != 0."""
    rng = np.random.default_rng(2004)
    X, Y = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    return SMatrixConfig(H0=X + X.conj().T, V=0.3 * (Y + Y.conj().T), T=T,
                         lam=lam)


def window_partition(cfg, n):
    """Midpoint cell edges of the equally spaced centers -T + 2 T j / n."""
    centers = -cfg.T + 2.0 * cfg.T * np.arange(1, n + 1) / n
    return midpoint_edges(-cfg.T, cfg.T, centers)


def reference_generator(cfg):
    """Interaction generator rotated out of the H0 eigenbasis at every node."""
    evals, W = np.linalg.eigh(cfg.H0)
    Vr = W.conj().T @ cfg.V @ W

    def batch(ts):
        ts = np.atleast_1d(ts)
        phase = np.exp(1j * np.outer(ts / cfg.hbar, evals))
        inner = phase[:, :, None] * Vr[None] * phase.conj()[:, None, :]
        HI = np.einsum("ab,mbc,dc->mad", W, inner, W.conj())
        return (-1j / cfg.hbar) * cfg.envelope_values(ts)[:, None, None] * HI

    return GeneratorFamily(a=-cfg.T, b=cfg.T, dim=cfg.dim, evaluate_batch=batch)


def test_interaction_generator_matches_reference():
    cfg = random_three_level()
    _, W = np.linalg.eigh(cfg.H0)
    assert np.min(np.abs(W)) > 1e-3
    assert np.linalg.norm(cfg.H0 @ cfg.V - cfg.V @ cfg.H0, 2) > 0.1
    ts = np.linspace(-cfg.T, cfg.T, 101)
    got = interaction_generator(cfg).evaluate_batch(ts)
    assert np.max(np.abs(got - reference_generator(cfg).evaluate_batch(ts))) <= 1e-14


def random_config(d, seed, **kw):
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    return SMatrixConfig(H0=X + X.conj().T, V=0.3 * (Y + Y.conj().T), **kw)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eigen_frame_form_is_the_product_formula(d):
    """One coefficient per distinct gap on disjoint supports, equal to
    left * Vr * conj(phase) to a few ulps per radian of phase."""
    cfg = random_config(d, d, T=1.5, hbar=0.7)
    evals, W = np.linalg.eigh(cfg.H0)
    Vr = (-1j / cfg.hbar) * (W.conj().T @ cfg.V @ W)
    ts = np.linspace(-cfg.T, cfg.T, 257)
    phase = np.exp(1j * np.outer(ts / cfg.hbar, evals))
    left = cfg.envelope_values(ts)[:, None] * phase
    expected = left[:, :, None] * Vr * phase.conj()[:, None, :]
    form = _eigen_frame(cfg)[0].separable
    assert len(form.basis) == len(np.unique(evals[:, None] - evals)) == d * d - d + 1
    assert np.count_nonzero(form.basis, axis=0).max() == 1
    assert np.array_equal(form.basis.sum(axis=0), Vr)
    assert len(form.layers[0]) == 1
    got = _eigen_frame(cfg)[0].evaluate_batch(ts)
    assert got.shape == expected.shape
    radians = np.max(np.abs(evals)) * cfg.T / cfg.hbar
    assert np.all(np.abs(got - expected)
                  <= 4 * np.finfo(float).eps * (1 + radians) * np.abs(expected))


def test_eigen_frame_takes_one_term_per_gap_of_its_nonzero_entries():
    # Equally spaced levels: d = 5 has the nine gaps -4 .. 4, and hopping
    # couples only the gaps -1 and 1; V = 0 keeps one term.
    J = np.eye(5, k=1)
    X = np.random.default_rng(5).standard_normal((5, 5))
    H0 = np.diag([2.0, 1.0, 0.0, -1.0, -2.0])
    ts = np.linspace(-1.0, 1.0, 33)
    for V, terms in ((X + X.T, 9), (0.3 * (J + J.T), 2), (0 * J, 1)):
        cfg = SMatrixConfig(H0=H0, V=V, T=1.0)
        assert _eigen_frame(cfg)[0].separable.terms == terms
        want = reference_generator(cfg).evaluate_batch(ts)
        got = interaction_generator(cfg).evaluate_batch(ts)
        assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 8])
def test_eigen_frame_values_do_not_depend_on_the_batch(d):
    fam, _ = _eigen_frame(random_config(d, 40 + d, T=1.0))
    ts = np.linspace(-1.0, 1.0, 600)
    H = fam.evaluate_batch(ts)
    for j, t in enumerate(ts):
        assert fam(t).tobytes() == H[j].tobytes()


def test_eigen_frame_products_match_reference():
    cfg = random_three_level()
    ref = reference_generator(cfg)
    for n in (1, 2, 7, 30):
        expected = U_n(ref, window_partition(cfg, n)).U
        assert np.max(np.abs(S_n_experimental(cfg, n) - expected)) <= 1e-12
    fixed = SMatrixConfig(H0=cfg.H0, V=cfg.V, T=cfg.T, lam=8.0)
    A = cell_generators(ref, np.linspace(-cfg.T, cfg.T, 17))
    expected = ordered_product(expm_stack(A))
    assert np.max(np.abs(fixed_dt_S(fixed) - expected)) <= 1e-12
    expected = product_integral(ref, -cfg.T, cfg.T).U
    assert np.max(np.abs(oracle_S(cfg).U - expected)) <= 1e-10


def test_S_terms_are_bitwise_the_window_formula():
    """The path-sum partition shifts the centers by -T before taking
    midpoints, so S_n_experimental keeps the bits of the window formula."""
    for cfg in (toy(T=1.5), random_three_level()):
        fam, rotate = _eigen_frame(cfg)
        for n in (1, 2, 7, 30):
            expected = rotate(U_n(fam, window_partition(cfg, n)).U)
            assert S_n_experimental(cfg, n).tobytes() == expected.tobytes()


def test_S_lambda_matches_reference_window_sum():
    cfg = random_three_level()
    ref = reference_generator(cfg)
    mean = 2.0 * cfg.lam * cfg.T
    n_max = poisson_truncation(mean, 1e-10)
    raw = np.zeros((3, 3), dtype=complex)
    for n, w in enumerate(stats.poisson.pmf(np.arange(n_max + 1), mean)):
        if w < 1e-10 / (n_max + 1):
            continue
        raw += w * (matrix_exp(integrate_family(ref, -cfg.T, cfg.T)) if n == 0
                    else U_n(ref, window_partition(cfg, n)).U)
    res = S_lambda(cfg)
    assert np.max(np.abs(res.extras["raw"] - raw)) <= 1e-12
    assert np.max(np.abs(res.U - raw / res.extras["captured_mass"])) <= 1e-12


@pytest.mark.parametrize("lam", [2.0, 10.0, 100.0])
def test_S_lambda_is_bitwise_the_one_partition_formula(lam):
    # 2 lambda T = 4 and 20 sum the window exactly, 200 through the fit.
    cfg = random_three_level(lam=lam)
    fam, rotate = _eigen_frame(cfg)

    def term(n):
        if n == 0:
            return rotate(matrix_exp(integrate_family(fam, -cfg.T, cfg.T)))
        cells = cell_generators(fam, window_partition(cfg, n))
        return rotate(ordered_product(expm_stack(cells)))

    ref = poisson_mixture(lambda ns: np.array([term(n) for n in ns]),
                          2.0 * cfg.lam * cfg.T, 1e-10)
    res = S_lambda(cfg)
    assert res.extras["raw"].tobytes() == ref.extras["raw"].tobytes()
    assert res.U.tobytes() == ref.U.tobytes()
    assert (res.extras["fit_residual"] is None) == (lam < 50)


def exact_window_sum(cfg, tail_tol=1e-10):
    """The Poisson-window loop of S_lambda, term by term: (raw, mass)."""
    mean = 2.0 * cfg.lam * cfg.T
    n_max = poisson_truncation(mean, tail_tol)
    Q = integrate_family(interaction_generator(cfg), -cfg.T, cfg.T)
    raw, captured = np.zeros((cfg.dim, cfg.dim), dtype=complex), 0.0
    for n, w in enumerate(stats.poisson.pmf(np.arange(n_max + 1), mean)):
        if w < tail_tol / (n_max + 1):
            continue
        raw += w * (S_n_experimental(cfg, n) if n else matrix_exp(Q))
        captured += w
    return raw, captured


@pytest.mark.parametrize("lam", [30.0, 200.0, 1000.0])
def test_S_lambda_fit_matches_exact_window(lam):
    res = S_lambda(toy(lam=lam))
    raw, captured = exact_window_sum(toy(lam=lam))
    assert res.extras["fit_residual"] <= 1e-13
    assert np.max(np.abs(res.extras["raw"] - raw)) <= 1e-13
    assert res.extras["captured_mass"] == captured
    assert res.step_count == res.extras["n_max"]


def test_S_lambda_small_window_sums_exactly():
    res = S_lambda(toy(lam=5.0))
    raw, captured = exact_window_sum(toy(lam=5.0))
    assert res.extras["fit_residual"] is None
    assert np.max(np.abs(res.extras["raw"] - raw)) <= 1e-15
    assert res.extras["captured_mass"] == captured


def test_S_lambda_criterion_8_exact_term_count():
    # The criterion-8 configuration: a window of 860 terms, n = 3550..4409.
    res = S_lambda(toy(lam=1000.0))
    assert res.extras["exact_terms"] <= 40
    assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(2), 2) <= 1e-9


def test_config_validation():
    with pytest.raises(ConfigError):
        SMatrixConfig(H0=np.array([[0, 1], [0, 0]]), V=SIGMA_X, T=1.0)
    with pytest.raises(ConfigError):
        SMatrixConfig(H0=SIGMA_Z, V=SIGMA_X, T=0.0)
    with pytest.raises(ConfigError):
        SMatrixConfig(H0=SIGMA_Z, V=SIGMA_X, T=1.0, hbar=0.0)
    with pytest.raises(ConfigError):
        SMatrixConfig(H0=SIGMA_Z, V=np.eye(3), T=1.0)
    for field, value in (("T", math.inf), ("T", math.nan), ("lam", math.nan),
                         ("lam", math.inf), ("lam", -1.0), ("hbar", math.inf)):
        with pytest.raises(ConfigError, match=field):
            SMatrixConfig(**{"H0": SIGMA_Z, "V": SIGMA_X, "T": 1.0, field: value})


def test_term_counts_must_be_integers():
    cfg = toy(lam=3.0)
    for n in (2.5, 1.5, "2"):
        for term in (S_n_experimental, energy_shift_identity):
            with pytest.raises(DomainError, match="integer"):
                term(cfg, n)


def test_zero_interaction_generator_vanishes():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=np.zeros((2, 2)), T=1.0)
    fam = interaction_generator(cfg)
    ts = np.linspace(-1.0, 1.0, 7)
    assert np.allclose(fam.evaluate_batch(ts), 0.0)


def test_commuting_interaction_keeps_class():
    # [H0, V] = 0: conjugation leaves V fixed, H_I(t) = envelope(t) V.
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.4 * SIGMA_Z, T=1.0)
    fam = interaction_generator(cfg)
    t = 0.37
    env = cfg.envelope_values(np.array([t]))[0]
    assert np.allclose(fam(t), -1j * env * 0.4 * SIGMA_Z, atol=1e-13)


def test_interaction_picture_conjugation():
    # H0 = sigma_z, V = sigma_x, t = pi/2: conjugation flips the sign.
    cfg = SMatrixConfig(H0=SIGMA_Z, V=SIGMA_X, T=2.0,
                        envelope=lambda ts: np.ones_like(ts))
    fam = interaction_generator(cfg)
    t = math.pi / 2
    expected = -1j * (-SIGMA_X)
    assert np.linalg.norm(fam(t) - expected, 2) <= 1e-12


def test_interaction_generator_respects_hbar():
    cfg1 = toy()
    cfg2 = SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=2.0, hbar=2.0)
    f1 = interaction_generator(cfg1)
    f2 = interaction_generator(cfg2)
    # At t = 0 the phases cancel and only the 1/hbar prefactor remains.
    assert np.allclose(f2(0.0), 0.5 * f1(0.0), atol=1e-13)


def test_oracle_S_unitary():
    S = oracle_S(toy()).U
    assert np.linalg.norm(S.conj().T @ S - np.eye(2), 2) <= 1e-9


def test_S_zero_bubbles_is_identity():
    assert np.allclose(S_n_experimental(toy(), 0), np.eye(2))
    with pytest.raises(DomainError):
        S_n_experimental(toy(), -1)


def test_S_n_commuting_collapse():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.4 * SIGMA_Z, T=1.0)
    fam = interaction_generator(cfg)
    target = matrix_exp(integrate_family(fam, -1.0, 1.0))
    for n in (1, 3, 17):
        assert np.linalg.norm(S_n_experimental(cfg, n) - target, 2) <= 1e-11


def test_S_n_converges_to_oracle():
    cfg = toy()
    S_ref = oracle_S(cfg, 1e-10).U
    err = np.linalg.norm(S_n_experimental(cfg, 64) - S_ref, 2)
    assert err <= 1e-10 + 4.0 / 64 ** 2


def test_S_lambda_zero_interaction():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=np.zeros((2, 2)), T=1.0, lam=3.0)
    assert np.linalg.norm(S_lambda(cfg).U - np.eye(2), 2) <= 1e-12


def test_S_lambda_commuting_exact():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.4 * SIGMA_Z, T=1.0, lam=7.0)
    fam = interaction_generator(cfg)
    target = matrix_exp(integrate_family(fam, -1.0, 1.0))
    assert np.linalg.norm(S_lambda(cfg).U - target, 2) <= 1e-11


def test_S_lambda_error_decreases():
    S_ref = oracle_S(toy()).U
    errs = []
    for lam in (10.0, 100.0, 1000.0):
        S = S_lambda(toy(lam=lam)).U
        errs.append(np.linalg.norm(S - S_ref, 2))
    assert errs[2] < errs[1] < errs[0]


def test_S_lambda_unitarity_improves():
    defects = []
    for lam in (10.0, 1000.0):
        S = S_lambda(toy(lam=lam)).U
        defects.append(np.linalg.norm(S.conj().T @ S - np.eye(2), 2))
    assert defects[1] <= 1e-9
    assert defects[1] < defects[0]


def test_energy_shift_identity_zero_term():
    assert energy_shift_identity(toy(lam=2.0), 0) <= 1e-15


def test_energy_shift_identity_reference_case():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.3 * SIGMA_X, T=1.0, lam=5.0)
    assert energy_shift_identity(cfg, 3) <= 1e-12


def test_energy_shift_identity_many_orders():
    cfg = toy(lam=1.5)
    for n in (1, 4, 12, 20):
        assert energy_shift_identity(cfg, n) <= 1e-12


def test_energy_shift_terms_share_the_coefficient_sweep(monkeypatch):
    # The node sweep sums (nodes, cells, d, d) generator values, the
    # coefficient sweep (nodes, K, cells) coefficients.
    sums, node_sums = [], path_sum._node_sums

    def recorded(values, w, acc):
        sums.append(values.ndim)
        return node_sums(values, w, acc)

    monkeypatch.setattr(path_sum, "_node_sums", recorded)
    for cfg in (toy(lam=1.5), random_three_level()):
        for n in (1, 4, 12):
            assert energy_shift_identity(cfg, n) <= 1e-12
    assert sums and set(sums) == {3}


def test_energy_shift_scalar_sanity():
    # Integrating the constant rate (-i/hbar)(-i lam hbar) over [-T, T]
    # contributes exactly -2 lam T in the exponent.
    lam, T = 3.0, 2.0
    assert (-1j) * (-1j * lam) * (2 * T) == pytest.approx(-2 * lam * T)


def test_fixed_dt_single_cell():
    T = 2.0
    cfg = toy(T=T, lam=1.0 / (2.0 * T))
    fam = interaction_generator(cfg)
    target = matrix_exp(integrate_family(fam, -T, T))
    assert np.linalg.norm(fixed_dt_S(cfg) - target, 2) <= 1e-6


def test_fixed_dt_zero_interaction():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=np.zeros((2, 2)), T=1.0, lam=2.0)
    assert np.linalg.norm(fixed_dt_S(cfg) - np.eye(2), 2) <= 1e-12


def test_fixed_dt_requires_integer_cell_count():
    with pytest.raises(ConfigError):
        fixed_dt_S(toy(T=1.0, lam=0.3))


def test_fixed_dt_second_order_in_rate():
    S_ref = oracle_S(toy()).U
    lams = [2.0, 4.0, 8.0, 16.0, 32.0]
    errs = [np.linalg.norm(fixed_dt_S(toy(lam=lam)) - S_ref, 2)
            for lam in lams]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert -loglog_slope(lams, errs) >= 1.9


def test_fixed_dt_unitary():
    S = fixed_dt_S(toy(lam=4.0))
    assert np.linalg.norm(S.conj().T @ S - np.eye(2), 2) <= 1e-9


def test_dyson_S_zero_order_remainder_is_S_minus_identity():
    cfg = toy()
    S_ref = oracle_S(cfg).U
    exp = dyson_S_expansion(cfg, 0)
    assert np.allclose(exp.terms[0], np.eye(2))
    assert np.linalg.norm(exp.remainder - (S_ref - np.eye(2)), 2) <= 1e-7


def test_dyson_S_commuting_terms_are_powers():
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.4 * SIGMA_Z, T=1.0)
    fam = interaction_generator(cfg)
    Q = integrate_family(fam, -1.0, 1.0)
    exp = dyson_S_expansion(cfg, 4)
    for k, term in enumerate(exp.terms):
        ref = np.linalg.matrix_power(Q, k) / math.factorial(k)
        assert np.linalg.norm(term - ref, 2) <= 1e-9


def test_dyson_S_closure_vs_oracle():
    cfg = toy()
    S_ref = oracle_S(cfg).U
    for n in (1, 2, 4):
        exp = dyson_S_expansion(cfg, n)
        closure = exp.partial_sum() + exp.remainder
        assert np.linalg.norm(closure - S_ref, 2) <= 1e-7


@pytest.mark.parametrize("d,T", [(2, 2.0), (5, 8.0)])
def test_dyson_S_closure_is_at_rounding(d, T):
    # d = 2 is the toy; d = 5 is hopping between equally spaced levels.
    J = np.eye(d, k=1)
    H0 = SIGMA_Z if d == 2 else np.diag([2.0, 1.0, 0.0, -1.0, -2.0])
    cfg = SMatrixConfig(H0=H0, V=0.3 * (J + J.T), T=T)
    S_ref = oracle_S(cfg, 1e-12).U
    for n in range(5):
        exp = dyson_S_expansion(cfg, n)
        assert np.linalg.norm(exp.partial_sum() + exp.remainder - S_ref, 2) <= 1e-12


def test_dyson_S_tail_bound():
    cfg = toy()
    S_ref = oracle_S(cfg).U
    exp = dyson_S_expansion(cfg, 4)
    fam = interaction_generator(cfg)
    ts = np.linspace(-2.0, 2.0, 101)
    M = max(np.linalg.norm(H, 2) for H in fam.evaluate_batch(ts))
    tail = np.linalg.norm(S_ref - exp.partial_sum(), 2)
    assert tail <= (M * 4.0) ** 5 / math.factorial(5) * math.exp(M * 4.0)


def test_config_owns_its_matrices():
    # Changing the caller's V after a first expansion changes neither the
    # config nor its Dyson ladder.
    V = 0.3 * SIGMA_X
    cfg = SMatrixConfig(H0=SIGMA_Z, V=V, T=1.5)
    dyson_S_expansion(cfg, 2)
    V[0, 1] = 5.0
    for M in (cfg.H0, cfg.V):
        with pytest.raises(ValueError):
            M[0, 0] = 5.0
    fresh = SMatrixConfig(H0=cfg.H0.copy(), V=cfg.V.copy(), T=cfg.T)
    assert [T.tobytes() for T in dyson_S_expansion(cfg, 2).terms] == \
        [T.tobytes() for T in dyson_S_expansion(fresh, 2).terms]


def test_first_order_term_insensitive_to_regularization():
    # For commuting V the n = 1 series term is the plain integral of the
    # generator in both the ideal and rate-regularized constructions.
    cfg = SMatrixConfig(H0=SIGMA_Z, V=0.4 * SIGMA_Z, T=1.0, lam=9.0)
    fam = interaction_generator(cfg)
    ideal_T1 = dyson_S_expansion(cfg, 1).terms[1]
    Q = integrate_family(fam, -1.0, 1.0)
    assert np.linalg.norm(ideal_T1 - Q, 2) <= 1e-10
    # The lam-regularized propagator likewise matches exp(Q) at first order.
    assert np.linalg.norm(S_lambda(cfg).U - matrix_exp(Q), 2) <= 1e-10
