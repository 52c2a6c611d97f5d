"""The library keeps every name the perfbench tracer binds.

The tracer rebinds chronos functions, methods and family constructors by
name; one that is renamed or deleted breaks `perfbench/run.py --trace 1`,
and perfbench's own tests are not part of this suite.
"""

import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
_BOUND = ([(m, attr) for m, attr, *_ in _T._FUNCTIONS + _T._FACTORIES]
          + [(m, f"{cls}.{attr}") for m, cls, attr, *_ in _T._METHODS])


@pytest.mark.parametrize("module_name,path",
                         [b for b in _BOUND if b[0].split(".")[0] == "chronos"])
def test_every_chronos_name_the_tracer_binds_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_smatrix_keeps_expm_stack_bound():
    # perfbench/tests/test_tracer.py checks that the tracer restores this
    # binding, although smatrix itself no longer calls expm_stack.
    import chronos.linalg
    import chronos.smatrix
    assert chronos.smatrix.expm_stack is chronos.linalg.expm_stack
