"""Outside-in layer trace of chronos, installed only for traced runs.

`Tracer.install()` rebinds the public functions of every chronos layer in
each module namespace that holds them (modules import names directly, so
`chronos.smatrix.expm_stack` is rebound as well as
`chronos.linalg.expm_stack`), wraps two methods on their classes, and wraps
`evaluate_batch` on the families returned by the family constructors.
`uninstall()` puts every original back.  Spans stay in memory as
[name, parent, start, end]; nothing is written until the run ends.

The span stack is shared by all threads.  That is exact while one thread
at a time runs chronos code, which holds with CHRONOS_THREADS=1: the
lambda-sweep pool then has one worker and its caller blocks on it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# (metric, unit, better): the per-layer metrics of a traced run, per pass.
PER_LAYER = (
    ("linalg.expm_stack.calls", "count", "lower"),
    ("linalg.expm_stack.matrices", "count", "lower"),
    ("linalg.expm_stack.bytes_in_computed", "B", "lower"),
    ("linalg.expm_stack.self_s", "s", "lower"),
    ("linalg.operator_norm.calls", "count", "lower"),
    ("linalg.operator_norm.self_s", "s", "lower"),
    ("linalg.matrix_exp.calls", "count", "lower"),
    ("quadrature.adaptive_quadrature.calls", "count", "lower"),
    ("quadrature.adaptive_quadrature.panels", "count", "lower"),
    ("quadrature.adaptive_quadrature.self_s", "s", "lower"),
    ("quadrature.cumulative_simpson_uniform.self_s", "s", "lower"),
    ("families.evaluate_batch.calls", "count", "lower"),
    ("families.evaluate_batch.nodes", "count", "lower"),
    ("families.evaluate_batch.self_s", "s", "lower"),
    ("families.integrate_family.calls", "count", "lower"),
    ("families.integrate_family.self_s", "s", "lower"),
    ("propagators.product_integral.calls", "count", "lower"),
    ("propagators.product_integral.steps", "count", "lower"),
    ("propagators.product_integral.matrices", "count", "lower"),
    ("propagators.product_integral.useful_frac", "ratio", "higher"),
    ("propagators.product_integral.self_s", "s", "lower"),
    ("propagators.ordered_product.calls", "count", "lower"),
    ("propagators.ordered_product.matrices", "count", "lower"),
    ("propagators.ordered_product.self_s", "s", "lower"),
    ("propagators.remainder_42.calls", "count", "lower"),
    ("propagators.remainder_42.self_s", "s", "lower"),
    ("propagators.dyson_terms.self_s", "s", "lower"),
    ("propagators.propagator_on_grid.self_s", "s", "lower"),
    ("path_sum.U_n.calls", "count", "lower"),
    ("path_sum.U_n.cells", "count", "lower"),
    ("path_sum.U_n.self_s", "s", "lower"),
    ("path_sum.poisson_window.terms", "count", "lower"),
    ("path_sum.poisson_window.n_max", "count", "lower"),
    ("path_sum.poisson_window.used_frac", "ratio", "lower"),
    ("path_sum.monte_carlo_U.self_s", "s", "lower"),
    ("path_sum.sample_bubbles.calls", "count", "lower"),
    ("path_sum.sample_bubbles.self_s", "s", "lower"),
    ("path_sum.trial_rng.calls", "count", "lower"),
    ("path_sum.trial_rng.self_s", "s", "lower"),
    ("smatrix.interaction_batch.calls", "count", "lower"),
    ("smatrix.interaction_batch.nodes", "count", "lower"),
    ("smatrix.interaction_batch.self_s", "s", "lower"),
    ("smatrix.S_lambda.calls", "count", "lower"),
    ("smatrix.S_lambda.self_s", "s", "lower"),
    ("smatrix.oracle_S.calls", "count", "lower"),
    ("film.exchange_dense.calls", "count", "lower"),
    ("film.exchange_dense.self_s", "s", "lower"),
    ("film.slot_apply.calls", "count", "lower"),
    ("film.slot_apply.self_s", "s", "lower"),
    ("film.slot_operator_norm.self_s", "s", "lower"),
    ("film.verify_eq38.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.report_write.bytes", "B", "lower"),
    ("cli.report_write.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_WINDOWS = ("smatrix.S_lambda", "path_sum.U_lambda")
_MARK = "__perfbench_traced__"


def self_times(spans) -> dict:
    """Total self time per span name: duration minus the union of children.

    `spans` holds [name, parent_index, start, end] rows; a parent index of
    -1 marks a root.
    """
    children = defaultdict(list)
    for row in spans:
        if row[1] >= 0:
            children[row[1]].append((row[2], row[3]))
    totals = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


# Counters read from a call's arguments and result, keyed by span name.

def _expm_counts(tr, args, kwargs, result):
    shape = result.shape
    matrices = int(result.size // (shape[-1] * shape[-1]))
    tr.add("linalg.expm_stack.matrices", matrices)
    tr.add("linalg.expm_stack.bytes_in_computed", result.size * 16)
    if tr.inside("propagators.product_integral"):
        tr.add("propagators.product_integral.matrices", matrices)


def _window_term(tr, args, kwargs, result):
    if tr.parent_name() in _WINDOWS:
        tr.add("path_sum.poisson_window.terms", 1)


def _U_n_counts(tr, args, kwargs, result):
    tr.add("path_sum.U_n.cells", int(result.step_count))
    _window_term(tr, args, kwargs, result)


def _window_counts(tr, args, kwargs, result):
    n_max = int(result.extras["n_max"])
    tr.add("path_sum.poisson_window.size", n_max + 1)
    tr.peak("path_sum.poisson_window.n_max", n_max)


_FUNCTIONS = (
    ("chronos.linalg", "expm_stack", "linalg.expm_stack", _expm_counts),
    ("chronos.linalg", "operator_norm", "linalg.operator_norm", None),
    ("chronos.linalg", "matrix_exp", "linalg.matrix_exp", _window_term),
    ("chronos.quadrature", "adaptive_quadrature", "quadrature.adaptive_quadrature",
     lambda tr, a, k, r: tr.add("quadrature.adaptive_quadrature.panels", r[2])),
    ("chronos.quadrature", "cumulative_simpson_uniform",
     "quadrature.cumulative_simpson_uniform", None),
    ("chronos.families", "integrate_family", "families.integrate_family", None),
    ("chronos.propagators", "product_integral", "propagators.product_integral",
     lambda tr, a, k, r: tr.add("propagators.product_integral.steps", r.step_count)),
    ("chronos.propagators", "ordered_product", "propagators.ordered_product",
     lambda tr, a, k, r: tr.add("propagators.ordered_product.matrices",
                                len(a[0]))),
    ("chronos.propagators", "remainder_42", "propagators.remainder_42", None),
    ("chronos.propagators", "dyson_terms", "propagators.dyson_terms", None),
    ("chronos.propagators", "propagator_on_grid", "propagators.propagator_on_grid",
     None),
    ("chronos.path_sum", "U_n", "path_sum.U_n", _U_n_counts),
    ("chronos.path_sum", "U_lambda", "path_sum.U_lambda", _window_counts),
    ("chronos.path_sum", "monte_carlo_U", "path_sum.monte_carlo_U", None),
    ("chronos.path_sum", "sample_bubbles", "path_sum.sample_bubbles", None),
    ("chronos.path_sum", "trial_rng", "path_sum.trial_rng", None),
    ("chronos.smatrix", "S_lambda", "smatrix.S_lambda", _window_counts),
    ("chronos.smatrix", "oracle_S", "smatrix.oracle_S", None),
    ("chronos.film", "slot_operator_norm", "film.slot_operator_norm", None),
    ("chronos.film", "verify_eq38", "film.verify_eq38", None),
    ("chronos.cli", "run", "cli.run", None),
)

_METHODS = (
    ("chronos.film", "ExchangeOperator", "dense", "film.exchange_dense", None),
    ("chronos.film", "SlotOperator", "apply", "film.slot_apply", None),
    ("chronos.cli", "Report", "write", "cli.report_write",
     lambda tr, a, k, r: tr.add("cli.report_write.bytes", os.path.getsize(a[1]))),
)

# Constructors whose families get a traced evaluate_batch.
_FACTORIES = (
    ("chronos.families", "builtin_family", "families.evaluate_batch"),
    ("chronos.smatrix", "interaction_generator", "smatrix.interaction_batch"),
    ("reference", "rotating_field_family", "families.evaluate_batch"),
)


def _nodes(name):
    def count(tr, args, kwargs, result):
        tr.add(f"{name}.nodes", len(result))
    return count


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self._saved = []

    def add(self, name: str, k) -> None:
        self.counts[name] += k

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _factory(self, name: str, make):
        counter = _nodes(name)

        @functools.wraps(make)
        def traced_factory(*args, **kwargs):
            fam = make(*args, **kwargs)
            return dataclasses.replace(
                fam, evaluate_batch=self.wrap(name, fam.evaluate_batch, counter))

        setattr(traced_factory, _MARK, True)
        return traced_factory

    def _rebind(self, module_name: str, attr: str, replacement_for) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        replacement = replacement_for(original)
        for module in _namespaces():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, replacement)

    def install(self) -> None:
        """Rebind every traced name; call `uninstall` to restore them."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, counter in _FUNCTIONS:
            self._rebind(module_name, attr,
                         lambda fn, n=name, c=counter: self.wrap(n, fn, c))
        for module_name, attr, name in _FACTORIES:
            self._rebind(module_name, attr,
                         lambda fn, n=name: self._factory(n, fn))
        for module_name, cls_name, attr, name, counter in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def layer_metrics(self, passes: int, overhead_s: float) -> dict:
        """Every PER_LAYER metric, per traced pass; 0 for layers not reached."""
        values = dict(self.counts)
        for name, total in self_times(self.spans).items():
            values[name + ".self_s"] = total
        matrices = values.get("propagators.product_integral.matrices", 0)
        values["propagators.product_integral.useful_frac"] = (
            values.get("propagators.product_integral.steps", 0) / matrices
            if matrices else 0.0)
        size = values.get("path_sum.poisson_window.size", 0)
        values["path_sum.poisson_window.used_frac"] = (
            values.get("path_sum.poisson_window.terms", 0) / size if size else 0.0)
        not_summed = {"path_sum.poisson_window.n_max",
                      "propagators.product_integral.useful_frac",
                      "path_sum.poisson_window.used_frac"}
        out = {}
        for name, unit, _ in PER_LAYER:
            value = values.get(name, 0)
            if name not in not_summed:
                value = value / passes
            out[name] = {"value": value, "unit": unit}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out


def _namespaces():
    """Every loaded chronos module plus the benchmark modules that call it."""
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "chronos" or name.startswith("chronos.")
                 or name in ("workloads", "reference"))]


def traced_names():
    """(owner, name) of every wrapper still bound; empty after uninstall."""
    found = []
    for module in _namespaces():
        for key, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append((module.__name__, key))
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append((f"{module.__name__}.{key}", attr))
    return found
