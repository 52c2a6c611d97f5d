"""The bits of every kernel that reads a separable form, pinned by sha256:
random_smooth (three dense layers) and the S-matrix eigen frame (one layer
of disjoint gaps), through evaluation, the Magnus oracle, the Dyson series
and the path sum."""

import hashlib
import json
import os

import numpy as np
import pytest

from chronos import (PathSumConfig, SMatrixConfig, S_lambda, U_lambda,
                     builtin_family, dyson_S_expansion, dyson_expansion,
                     energy_shift_identity, oracle_S, product_integral,
                     propagator_on_grid)
from helpers import numerical_stack

PINNED = os.path.join(os.path.dirname(__file__), "data", "form_sha256.json")


def eigen_frame_config(d):
    rng = np.random.default_rng(d)
    X, Y = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
    return SMatrixConfig(H0=X + X.conj().T, V=0.3 * (Y + Y.conj().T), T=1.0,
                         lam=3.0)


def form_outputs():
    """(name, array) for each pinned output."""
    ts = np.linspace(0.0, 1.0, 601)
    for d in range(2, 9):
        for seed in (0, 1):
            f = builtin_family("random_smooth", (seed, d, 0.2))
            key = f"random_smooth {seed} {d}"
            yield f"{key} evaluate_batch", f.evaluate_batch(ts)
            yield f"{key} product_integral", product_integral(f, 0.0, 1.0, 1e-10).U
            yield f"{key} propagator_on_grid", propagator_on_grid(f, 0.0, 1.0, 7)
            for n in range(5):
                ex = dyson_expansion(f, 0.0, 1.0, n)
                yield f"{key} dyson {n}", np.array([*ex.terms, ex.remainder])
            yield f"{key} U_lambda", U_lambda(f, PathSumConfig(lam=15.0, t=1.0)).U
    for d in (2, 3):
        cfg = eigen_frame_config(d)
        yield f"eigen {d} oracle_S", oracle_S(cfg).U
        yield f"eigen {d} S_lambda", S_lambda(cfg).U
        yield f"eigen {d} energy_shift_identity", np.array(
            [energy_shift_identity(cfg, n) for n in range(4)])
        ex = dyson_S_expansion(cfg, 3)
        yield f"eigen {d} dyson_S", np.array([*ex.terms, ex.remainder])


def form_digests() -> dict:
    return {name: hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
            for name, out in form_outputs()}


def test_form_kernels_match_the_pinned_digests():
    with open(PINNED) as fh:
        pinned = json.load(fh)
    stack = numerical_stack()
    made_on = {k: pinned[k] for k in stack}
    if stack != made_on:
        pytest.skip(f"digests were made on {made_on}, this is {stack}")
    got = form_digests()
    assert sorted(got) == sorted(pinned["sha256"])
    assert [name for name in got if got[name] != pinned["sha256"][name]] == []
