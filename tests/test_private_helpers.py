"""Every private module-level function and class of the library has a caller
in the library: a helper that only tests reach is dead code.  And no module
rebinds its own globals or imports threading, so no call leaves state behind
for the next."""

import ast
import os

import chronos

_SRC = os.path.dirname(os.path.abspath(chronos.__file__))


def _modules():
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name)) as fh:
                yield name, ast.parse(fh.read())


def _names(node):
    """Every name node refers to: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_private_definitions_are_used_in_the_library():
    private, used = set(), set()
    for module, tree in _modules():
        for node in tree.body:
            defines = (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and node.name.startswith("_")
                       and not node.name.startswith("__"))
            if defines:
                private.add((module, node.name))
            # A definition's references to its own name (recursion) do not count.
            used.update(n for n in _names(node) if not (defines and n == node.name))
    unused = sorted(f"{module}: {name}" for module, name in private
                    if name not in used)
    assert unused == []


def test_no_module_rebinds_globals_or_imports_threading():
    found = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{module}:{node.lineno}: global {', '.join(node.names)}")
            elif isinstance(node, ast.Import):
                found += [f"{module}:{node.lineno}: import {a.name}" for a in node.names
                          if a.name.split(".")[0] == "threading"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "threading":
                found.append(f"{module}:{node.lineno}: from {node.module} import ...")
    assert found == []
