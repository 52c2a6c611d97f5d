import dataclasses
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

import chronos
from chronos import families
from chronos.errors import (ChronosError, ConfigError, ConsistencyError,
                            DimensionError, DomainError, ResourceError,
                            SingularityError)
from chronos.families import (SIGMA_X, SIGMA_Z, GeneratorFamily,
                              SeparableForm, builtin_family, derivative_probe,
                              family_from_csv, family_from_evaluator,
                              family_from_matrix, integrate_family,
                              integrate_family_with_estimate,
                              variance_integral, yosida_family, yosida_stack)
from chronos.linalg import dissipativity, yosida
from helpers import dense_form, random_smooth_formula


def test_constant_builtin_classification():
    fam = builtin_family("constant")
    assert fam.commutativity_class == "constant"
    assert fam.dissipative
    assert np.allclose(fam(0.3), -1j * SIGMA_Z)


def test_scalar_commuting_classification():
    fam = builtin_family("scalar_commuting")
    assert fam.commutativity_class == "commuting"
    H1, H2 = fam(0.3), fam(0.9)
    assert np.linalg.norm(H1 @ H2 - H2 @ H1, 2) <= 1e-14


def test_two_level_driven_is_noncommuting():
    fam = builtin_family("two_level_driven", [1.0, 1.0, 1.0], interval=(0.0, 2.0))
    assert fam.commutativity_class == "general"
    H1, H2 = fam(0.3), fam(1.1)
    assert np.linalg.norm(H1 @ H2 - H2 @ H1, 2) > 1e-6


def test_damped_two_level_margin():
    fam = builtin_family("damped_two_level", [1.0, 1.0, 1.0, 0.5])
    assert fam.dissipative
    from chronos.linalg import dissipativity
    assert dissipativity(fam(0.4)).margin == pytest.approx(-0.5, abs=1e-12)


def test_random_smooth_reproducible():
    f1 = builtin_family("random_smooth", [7, 4, 0.3])
    f2 = builtin_family("random_smooth", [7, 4, 0.3])
    assert np.allclose(f1(0.6), f2(0.6))
    assert f1.dim == 4


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError):
        builtin_family("nonexistent")


def test_family_interval_validation():
    with pytest.raises(ConfigError):
        GeneratorFamily(a=1.0, b=0.0, dim=2,
                        evaluate_batch=lambda ts: np.zeros((len(ts), 2, 2)))


def test_zero_dimensional_family_rejected():
    with pytest.raises(DimensionError):
        GeneratorFamily(a=0.0, b=1.0, dim=0,
                        evaluate_batch=lambda ts: np.zeros((len(ts), 0, 0)))


@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0),
                                      (-math.inf, math.inf), (0.0, math.nan)])
def test_family_on_an_infinite_interval_is_a_config_error(interval):
    with pytest.raises(ConfigError, match="finite"):
        builtin_family("two_level_driven", interval=interval)
    with pytest.raises(ConfigError, match="finite"):
        GeneratorFamily(a=interval[0], b=interval[1], dim=2,
                        evaluate_batch=lambda ts: np.zeros((len(ts), 2, 2)))


@pytest.mark.parametrize("dim", [2.5, 2.0, "2", None])
def test_family_dim_that_is_not_an_integer_is_a_dimension_error(dim):
    with pytest.raises(DimensionError, match="integer"):
        GeneratorFamily(a=0.0, b=1.0, dim=dim,
                        evaluate_batch=lambda ts: np.zeros((len(ts), 2, 2)))


def test_family_dim_may_be_a_numpy_integer():
    fam = GeneratorFamily(a=0.0, b=1.0, dim=np.int64(2),
                          evaluate_batch=lambda ts: np.zeros((len(ts), 2, 2)))
    assert fam.dim == 2


@pytest.mark.parametrize("params", [[0, 0], [0, -2], [-1, 2]])
def test_random_smooth_rejects_bad_seed_and_dim(params):
    with pytest.raises(ConfigError, match="seed p0 >= 0 and dim p1 >= 1"):
        builtin_family("random_smooth", params)


@pytest.mark.parametrize("params", [(0, 2.5, 0.2), (1.7, 3, 0.2), (0.5,),
                                    (float("nan"), 3), (0, float("inf"))])
def test_random_smooth_rejects_seed_and_dim_that_are_not_integers(params):
    with pytest.raises(ConfigError, match="must be an integer"):
        builtin_family("random_smooth", params)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
def test_random_smooth_rejects_a_gamma_that_is_not_finite(gamma):
    with pytest.raises(ConfigError, match="gamma p2 must be finite"):
        builtin_family("random_smooth", (0, 3, gamma))


def test_random_smooth_takes_integer_valued_floats():
    # Config files hand every number over as a float.
    ints = builtin_family("random_smooth", (5, 4, 0.2))
    floats = builtin_family("random_smooth", (5.0, 4.0, 0.2))
    assert floats.dim == 4
    assert floats(0.3).tobytes() == ints(0.3).tobytes()


@pytest.mark.parametrize("gamma", [0.0, 0.2, -0.2])
def test_random_smooth_is_labelled_dissipative_exactly_when_gamma_is_not_negative(
        gamma):
    fam = builtin_family("random_smooth", (2, 3, gamma))
    assert fam.dissipative == (gamma >= 0)
    assert fam.dissipative == all(dissipativity(fam(t)).is_dissipative
                                  for t in np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("seed,dim,gamma", [(0, 1, 0.2), (3, 2, 0.0), (7, 5, 0.3),
                                            (1, 8, 1.5), (2, 17, 0.2)])
def test_random_smooth_evaluates_the_closed_formula(seed, dim, gamma):
    fam = builtin_family("random_smooth", (seed, dim, gamma))
    ts = np.linspace(-7.0, 7.0, 301)
    want = random_smooth_formula(seed, dim, gamma)(ts)
    got = fam.evaluate_batch(ts)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_separable_form_holds_read_only_copies_and_its_commutators():
    B = np.array([np.diag([1.0, -1.0]), SIGMA_X, -1j * SIGMA_Z], dtype=complex)
    form = dense_form(lambda ts: np.stack([ts, ts ** 2, np.ones_like(ts)], 1), B)
    index, value = form.layers
    B[0, 0, 0] = 9.0
    assert value[0, 0] == 1.0 and form.table[0, 0, 0] == 1.0
    assert not (index.flags.writeable or value.flags.writeable
                or form.table.flags.writeable)
    B[0, 0, 0] = 1.0
    assert np.array_equal(form.table[:3], B)
    k, l = np.triu_indices(3, 1)
    for r, (i, j) in enumerate(zip(k, l)):
        assert np.max(np.abs(form.table[3 + r] - (B[i] @ B[j] - B[j] @ B[i]))) <= 1e-15
    fam = GeneratorFamily(a=0.0, b=1.0, dim=2, separable=form)
    assert fam.evaluate_batch == form.evaluate
    assert np.allclose(fam(0.5), 0.5 * B[0] + 0.25 * B[1] + B[2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_random_smooth_values_do_not_depend_on_the_batch(dim):
    fam = builtin_family("random_smooth", (1, dim, 0.2))
    ts = np.linspace(0.0, 1.0, 600)
    H = fam.evaluate_batch(ts)
    for j, t in enumerate(ts):
        assert fam(t).tobytes() == H[j].tobytes()


def test_form_layers_and_assembly():
    # Entry (0, 1) lies in two matrices, (1, 1) in none: two layers, the
    # second padded with zero values.
    index = [[0, 0, 2, 0], [1, 1, 0, 1]]
    value = [[2.0, 3.0, -1.0, 0.0], [0.0, 1j, 0.0, 0.0]]
    form = SeparableForm(lambda ts: np.stack([ts, ts ** 2, np.ones_like(ts)]).T,
                         3, index, value)
    B = np.zeros((3, 2, 2), dtype=complex)
    B[0, 0, 0], B[1, 0, 1], B[2, 1, 0] = 2.0, 1j, -1.0
    B[0, 0, 1] = 3.0
    assert form.dim == 2 and form.table[:3].tobytes() == B.tobytes()
    ts = np.linspace(0.0, 1.0, 7)
    want = np.einsum("mk,kij->mij", form.coeffs(ts), B)
    got = form.assemble(form.coeffs(ts).T, np.empty((7, 2, 2), dtype=complex))
    assert np.max(np.abs(got - want)) <= 1e-15
    # Two layers of three matrices: evaluate assembles.
    assert form.evaluate(ts).tobytes() == got.tobytes()
    dense = builtin_family("random_smooth", (1, 3, 0.2)).separable
    assert dense.layers[0].tolist() == [[0] * 9, [1] * 9, [2] * 9]
    index, value = np.array(index), np.array(value)
    for bad in ((3, index[:, :3], value[:, :3]), (3, index, value[:1]),
                (2, index, value), (3, index - 1, value), (3, index[0], value[0]),
                (2.5, index, value)):
        with pytest.raises(DimensionError):
            SeparableForm(form.coeffs, *bad)


def test_family_rejects_a_form_of_another_dimension_and_no_evaluator():
    form = dense_form(lambda ts: np.ones((len(ts), 1)), [np.eye(2)])
    with pytest.raises(DimensionError):
        GeneratorFamily(a=0.0, b=1.0, dim=3, separable=form)
    with pytest.raises(ConfigError):
        GeneratorFamily(a=0.0, b=1.0, dim=2)


def test_replaced_evaluator_drops_the_separable_form():
    fam = builtin_family("random_smooth", (4, 3, 0.2))
    renamed = dataclasses.replace(fam, name="renamed")
    assert renamed.separable is fam.separable
    assert renamed(0.3).tobytes() == fam(0.3).tobytes()

    def doubled(ts):
        return 2.0 * fam.evaluate_batch(ts)

    twice = dataclasses.replace(fam, evaluate_batch=doubled)
    assert twice.separable is None and twice.evaluate_batch is doubled
    assert np.array_equal(twice(0.3), 2.0 * fam(0.3))


@pytest.mark.parametrize("dim", [4097, 100000])
def test_random_smooth_dimension_cap_raises_before_allocating(dim):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="dense cap of 4096"):
            builtin_family("random_smooth", (0, dim))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_family_from_matrix_constant_integral():
    H = -1j * SIGMA_Z
    fam = family_from_matrix(H)
    assert np.allclose(integrate_family(fam, 0.0, 1.0), H, atol=1e-12)


def test_integrate_linear_family():
    fam = family_from_evaluator(lambda t: t * SIGMA_X)
    assert np.allclose(integrate_family(fam, 0.0, 1.0), 0.5 * SIGMA_X, atol=1e-12)


def test_integral_is_additive():
    fam = builtin_family("two_level_driven")
    whole = integrate_family(fam, 0.0, 1.0)
    split = integrate_family(fam, 0.0, 0.4) + integrate_family(fam, 0.4, 1.0)
    assert np.linalg.norm(whole - split, 2) <= 1e-11


def test_integrate_outside_interval_rejected():
    fam = builtin_family("constant")
    with pytest.raises(DomainError):
        integrate_family(fam, 0.0, 2.0)
    with pytest.raises(DomainError):
        integrate_family(fam, 0.5, 0.2)
    for s, t in ((np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(DomainError):
            integrate_family(fam, s, t)


def test_integrate_reports_estimate():
    fam = builtin_family("two_level_driven")
    _, est, panels = integrate_family_with_estimate(fam, 0.0, 1.0)
    assert est <= 1e-12
    assert panels >= 2


def test_yosida_stack_matches_single():
    fam = builtin_family("damped_two_level")
    ts = np.array([0.1, 0.5, 0.9])
    stack = yosida_stack(fam.evaluate_batch(ts), 10.0)
    for k, t in enumerate(ts):
        assert np.allclose(stack[k], yosida(fam(t), 10.0), atol=1e-12)


def test_yosida_stack_of_a_singular_step_names_z():
    H = np.broadcast_to(10.0 * np.eye(2, dtype=complex), (3, 2, 2))
    with pytest.raises(SingularityError, match="z=10"):
        yosida_stack(H, 10.0)


def test_evaluator_family_of_a_nan_batch_is_a_chronos_error():
    def batch(ts):
        H = np.broadcast_to(-1j * SIGMA_Z, (len(ts), 2, 2)).copy()
        H[ts > 0.5] = np.nan
        return H

    with pytest.raises(DimensionError, match="non-finite"):
        family_from_evaluator(None, batch=batch)


@pytest.mark.parametrize("value", [[[1, 2], [3]], [["a", "b"], ["c", "d"]]])
def test_scalar_evaluator_of_a_ragged_or_non_numeric_value_is_a_dimension_error(value):
    with pytest.raises(DimensionError, match="evaluator value"):
        family_from_evaluator(lambda t: value)


def test_evaluator_families_keep_the_general_label():
    for fam in (family_from_evaluator(lambda t: -1j * SIGMA_Z),
                family_from_evaluator(lambda t: -1j * t * SIGMA_Z)):
        assert fam.commutativity_class == "general"


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, 0.0])
def test_yosida_stack_needs_a_finite_positive_z(z):
    with pytest.raises(DomainError, match="finite z > 0"):
        yosida_stack(np.zeros((1, 2, 2), dtype=complex), z)


def test_yosida_family_keeps_labels():
    fam = builtin_family("scalar_commuting")
    yf = yosida_family(fam, 100.0)
    assert yf.commutativity_class == "commuting"
    assert yf.dissipative
    assert yf.interval == fam.interval


def test_variance_integral_aligned_state_vanishes():
    # H = -i sigma_z on e1: H e is parallel to e, so the variance is 0.
    fam = family_from_matrix(-1j * SIGMA_Z)
    e = np.array([1.0, 0.0])
    assert variance_integral(fam, 1e6, e, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_variance_integral_orthogonal_state():
    # H = -i sigma_x on e1: <He,e> = 0 and ||He|| = 1, so the value tends to t.
    fam = family_from_matrix(-1j * SIGMA_X)
    e = np.array([1.0, 0.0])
    val = variance_integral(fam, 1e6, e, 1.0)
    assert val == pytest.approx(1.0, rel=1e-5)


def test_variance_integral_validates_state():
    fam = family_from_matrix(-1j * SIGMA_X)
    with pytest.raises(DimensionError):
        variance_integral(fam, 10.0, np.ones(3), 1.0)
    with pytest.raises(DomainError):
        variance_integral(fam, 10.0, np.array([2.0, 0.0]), 1.0)


def test_derivative_probe_constant_family_saturates():
    fam = builtin_family("constant", interval=(0.0, 2.0))
    assert derivative_probe(fam, 1.0, [0.1, 0.01]) == float("inf")


def test_derivative_probe_linear_family_first_order():
    fam = family_from_evaluator(lambda t: t * SIGMA_X, interval=(0.0, 2.0))
    slope = derivative_probe(fam, 0.5, [0.1, 0.05, 0.025, 0.0125])
    assert slope == pytest.approx(1.0, abs=0.05)


def test_derivative_probe_driven_family():
    fam = builtin_family("two_level_driven", interval=(0.0, 2.0))
    slope = derivative_probe(fam, 1.0, [0.1, 0.05, 0.025, 0.0125])
    assert slope >= 0.9


def test_family_csv_round_trip(tmp_path):
    fam = builtin_family("two_level_driven")
    ts = np.linspace(0.0, 1.0, 4001)
    H = fam.evaluate_batch(ts)
    path = tmp_path / "family.csv"
    with open(path, "w") as fh:
        cols = ["t"] + [f"{p}_h{i}{j}" for i in range(2) for j in range(2)
                        for p in ("re", "im")]
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(ts):
            vals = [t] + [x for entry in H[k].reshape(-1)
                          for x in (entry.real, entry.imag)]
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")
    loaded = family_from_csv(path)
    assert loaded.dim == 2
    assert loaded.interval == (0.0, 1.0)
    for t in (0.123, 0.5, 0.987):
        assert np.linalg.norm(loaded(t) - fam(t), 2) <= 1e-6


def test_family_csv_breaks_at_its_interior_rows(tmp_path):
    path = tmp_path / "family.csv"
    header = "t," + ",".join(f"c{k}" for k in range(8))
    path.write_text(header + "\n" + "".join(
        f"{t},{t},0,0,0,0,0,-{t},0\n" for t in (0.0, 0.25, 0.7, 1.0)))
    fam = family_from_csv(path)
    assert fam.breaks == (0.25, 0.7)
    assert yosida_family(fam, 100.0).breaks == fam.breaks
    assert builtin_family("two_level_driven").breaks == ()


@pytest.mark.parametrize("breaks", [(0.5, 0.2), (0.3, 0.3), (0.0,), (1.0,), (1.5,),
                                    (-0.5,), (float("nan"),), ("x",), 0.5, None])
def test_malformed_breaks_are_a_config_error(breaks):
    fam = builtin_family("two_level_driven")
    with pytest.raises(ConfigError, match="breaks"):
        dataclasses.replace(fam, breaks=breaks)


def test_family_csv_rejects_bad_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,a,b,c\n0,1,2,3\n1,1,2,3\n")
    with pytest.raises(ConfigError):
        family_from_csv(path)


@pytest.mark.parametrize("row, why", [("1,0,0,0,x,0,0,0,0", "non-numeric"),
                                      ("1,0,0,0,0,0,0,0", "8 columns"),
                                      ("1,0,0,0,nan,0,0,0,0", "non-finite"),
                                      ("1,0,0,0,inf,0,0,0,0", "non-finite"),
                                      ("inf,0,0,0,0,0,0,0,0", "non-finite")])
def test_family_csv_bad_row_names_the_line(tmp_path, row, why):
    path = tmp_path / "bad.csv"
    header = "t," + ",".join(f"c{k}" for k in range(8))
    path.write_text(f"{header}\n# note\n0,0,0,0,0,0,0,0,0\n{row}\n")
    with pytest.raises(ConfigError, match=f"line 4: {why}"):
        family_from_csv(path)


def test_family_csv_rejects_unsorted_times(tmp_path):
    path = tmp_path / "bad.csv"
    header = "t," + ",".join(f"c{k}" for k in range(8))
    row = ",".join(["0"] * 9)
    path.write_text(header + "\n1,0,0,0,0,0,0,0,0\n" + row + "\n")
    with pytest.raises(ConfigError):
        family_from_csv(path)


@pytest.mark.parametrize("content", [b"t,re,im\n0,1,0\n\xff\xfe\n",
                                     b"t," + b"x" * 200000 + b"\n"])
def test_family_csv_rejects_a_file_that_is_no_csv_table(tmp_path, content):
    # Undecodable bytes, and a field beyond the csv module's size limit.
    path = tmp_path / "bin.csv"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="not a CSV table"):
        family_from_csv(path)


def test_family_rejects_an_unknown_commutativity_class():
    with pytest.raises(ConfigError, match="unknown commutativity class"):
        GeneratorFamily(a=0.0, b=1.0, dim=2, commutativity_class="nilpotent",
                        evaluate_batch=lambda ts: np.zeros((len(ts), 2, 2)))


def test_family_csv_needs_two_data_rows(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,re,im\n0,1,0\n")
    with pytest.raises(ConfigError, match="at least two data rows"):
        family_from_csv(path)


def test_integral_of_a_family_mislabelled_dissipative_is_a_consistency_error():
    # H = +I is declared dissipative; its integral has margin 1.
    fam = GeneratorFamily(a=0.0, b=1.0, dim=2, dissipative=True,
                          evaluate_batch=lambda ts: np.ones(len(ts))[:, None, None]
                          * np.eye(2))
    with pytest.raises(ConsistencyError, match="margin"):
        integrate_family_with_estimate(fam, 0.0, 1.0)


def test_derivative_probe_needs_positive_steps_inside_the_family():
    fam = builtin_family("two_level_driven")
    for h_list in ([0.1, 0.0], [-0.01], [], ["a"], [np.nan]):
        with pytest.raises(DomainError, match="positive"):
            derivative_probe(fam, 0.5, h_list)
    for t, h_list in ((0.0, [0.1]), (1.5, [0.1]), (0.95, [0.1]), ("a", [0.1])):
        with pytest.raises(DomainError, match="leaves"):
            derivative_probe(fam, t, h_list)


def _zeros(ts):
    return np.zeros((len(ts), 2, 2), dtype=complex)


def _csv_family(text):
    """family_from_csv of a file holding text; None reads a missing file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "family.csv")
        if text is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return family_from_csv(path)


# Inputs outside each families callable's domain: parameters that are not
# finite real numbers, intervals that are not two finite increasing numbers,
# matrices and evaluator values that are ragged, non-numeric or not finite,
# CSV tables that are missing or malformed, fields of the wrong kind, states
# that are not unit vectors and z or bounds that are not real, finite and in
# range.
_ON_01 = builtin_family("two_level_driven")
_NOT_REAL = ["a", None, [1.0], 1j]
_HOSTILE_INTERVALS = [(0.0,), ("a", 1.0), (None, None), 1.0, (0.0, 1.0, 2.0),
                      (1.0, 0.0), (0.0, np.nan), (-np.inf, 0.0)]
_HOSTILE_FAMILY_CALLS = {
    "builtin_family": [(name, params) for name in (
        "constant", "scalar_commuting", "two_level_driven", "damped_two_level",
        "random_smooth") for params in (
            ("a",), (None,), "ab", 5, ([1.0],), (np.nan,), (np.inf,),
            (1.0, -np.inf), (1.0, 1.0, np.nan), (0, 3, np.inf))]
    + [("constant", (), interval) for interval in _HOSTILE_INTERVALS]
    + [("nonexistent",), (None,)],
    "family_from_evaluator": [(lambda t: -1j * SIGMA_Z, interval)
                              for interval in _HOSTILE_INTERVALS]
    + [(lambda t, v=v: v,) for v in ([[1, 2], [3]], "ab", None,
                                     np.full((2, 2), np.nan))],
    "family_from_matrix": [(H,) for H in ([[1, 2], [3]], np.full((2, 2), np.nan),
                                          np.zeros((0, 0)), "a", np.ones((2, 3)))]
    + [(np.eye(2), interval) for interval in _HOSTILE_INTERVALS],
    "family_from_csv": [(text,) for text in (
        None, "", "t,re,im\n", "t,re,im\n0,1,0\n", "t,re,im\n0,1,0\n1,x,0\n",
        "t,re,im\n0,1,0\n1,nan,0\n", "t,re,im\n1,1,0\n0,1,0\n",
        "t,re,im\n0,1,0\n1,1\n", "t,a,b,c\n0,1,0,0\n1,1,0,0\n")],
    "GeneratorFamily": [
        ("a", 1.0, 2, _zeros), (0.0, None, 2, _zeros), (1.0, 1.0, 2, _zeros),
        (0.0, 1.0, "2", _zeros), (0.0, 1.0, 0, _zeros), (0.0, 1.0, 2, 5),
        (0.0, 1.0, 2, None), (0.0, 1.0, 2, _zeros, "nilpotent"),
        (0.0, 1.0, 2, _zeros, "general", False, "x", "not a form"),
        (0.0, 1.0, 2, _zeros, "general", False, "x", None, ("a",)),
        (0.0, 1.0, 2, _zeros, "general", False, "x", None, (2.0,))],
    "integrate_family": [(_ON_01, s, t) for s, t in (
        ("a", 1.0), (0.0, None), (np.nan, 1.0), (0.0, 2.0), (1.0, 0.0),
        (-1.0, 0.5), (0.0, np.inf), (1j, 1.0))],
    "variance_integral": [(_ON_01, 10.0, e, 0.5) for e in (
        "ab", [[1, 0], [1]], None, [np.nan, 0], [1, 0, 0], [2, 0], [0, 0])]
    + [(_ON_01, z, [1, 0], 0.5) for z in _NOT_REAL + [np.nan, np.inf, 0.0, -1.0]]
    + [(_ON_01, 10.0, [1, 0], t) for t in _NOT_REAL + [np.nan, 2.0, -1.0]],
    "yosida_family": [(_ON_01, z) for z in _NOT_REAL + [np.nan, np.inf, 0.0, -1.0]],
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_FAMILY_CALLS))
def test_families_give_a_finite_result_or_a_chronos_error(name):
    call = _csv_family if name == "family_from_csv" else getattr(families, name)
    leaks = []
    for args in _HOSTILE_FAMILY_CALLS[name]:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = call(*args)
                if isinstance(out, GeneratorFamily):
                    out = out.evaluate_batch(np.array([out.a, out.b]))
        except ChronosError:
            continue
        except Exception as exc:
            leaks.append(f"{args!r}: {type(exc).__name__}: {exc}")
            continue
        if not np.all(np.isfinite(out)):
            leaks.append(f"{args!r}: non-finite result")
    assert not leaks, "\n".join(leaks)


def test_hostile_table_covers_every_exported_families_callable():
    exported = {name for name, obj in vars(chronos).items()
                if callable(obj) and getattr(obj, "__module__", None) == "chronos.families"}
    assert exported == set(_HOSTILE_FAMILY_CALLS)

