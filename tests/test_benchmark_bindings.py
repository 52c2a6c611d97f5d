"""The library keeps every name the perfbench tracer binds, and accepts
every call the perfbench workloads make.

The tracer rebinds chronos functions, methods and family constructors by
name; one that is renamed or deleted breaks `perfbench/run.py --trace 1`.
The workloads call chronos functions with fixed arguments; a parameter that
is removed or renamed fails the benchmark.  perfbench's own tests are not
part of this suite, so both are checked here, on perfbench's source.
"""

import ast
import importlib
import importlib.util
import inspect
import os

import pytest

_PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "perfbench")
_TRACER = os.path.join(_PERFBENCH, "tracer.py")


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


# The chronos modules the workloads import by name; reference.py imports
# GeneratorFamily on its own.
_MODULES = ("path_sum", "propagators", "families", "cli")


def _dotted(node):
    """The names of a call's target, outermost first, or None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        inner = _dotted(node.value)
        return inner and inner + [node.attr]
    return None


def _chronos_calls():
    """(where, module, name, positional argument nodes, keyword names) of
    each call to a chronos name in the workload and reference sources."""
    calls = []
    for source in ("workloads.py", "reference.py"):
        with open(os.path.join(_PERFBENCH, source)) as fh:
            tree = ast.parse(fh.read(), source)
        for node in ast.walk(tree):
            names = _dotted(node.func) if isinstance(node, ast.Call) else None
            if names and len(names) == 2 and names[0] in _MODULES:
                module = f"chronos.{names[0]}"
            elif names == ["GeneratorFamily"]:
                module = "chronos.families"
            else:
                continue
            calls.append((f"{source}:{node.lineno} {'.'.join(names)}", module,
                          names[-1], node.args, [k.arg for k in node.keywords]))
    return calls


_CALLS = _chronos_calls()


def test_the_workloads_call_chronos():
    called = {name for _, _, name, _, _ in _CALLS}
    assert {"dyson_expansion", "product_integral", "GeneratorFamily"} <= called


@pytest.mark.parametrize("where,module_name,name,args,keywords", _CALLS,
                         ids=[call[0] for call in _CALLS])
def test_every_workload_call_binds_to_the_signature(where, module_name, name,
                                                    args, keywords):
    assert not any(isinstance(a, ast.Starred) for a in args) and None not in keywords
    target = getattr(importlib.import_module(module_name), name)
    inspect.signature(target).bind(*args, **dict.fromkeys(keywords))
