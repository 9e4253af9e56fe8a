"""Every concrete error class can still be raised: a refactor that leaves
one unreachable fails here, and the class should then go."""

import ast
from pathlib import Path

from affine_spectra import errors

SRC = Path(errors.__file__).resolve().parent


def _leaf_errors() -> set[str]:
    """Names of the classes of errors.py that no other class there
    subclasses."""
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    return {c.__name__ for c in classes
            if not any(d is not c and issubclass(d, c) for d in classes)}


def _raised_or_called(tree) -> set[str]:
    """Names that are called, or raised bare, anywhere in the tree, as
    `Name` or `module.Name`."""
    nodes = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    nodes += [node.exc for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in nodes if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_leaf_error_is_raised():
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            used |= _raised_or_called(ast.parse(path.read_text(encoding="utf-8")))
    leaves = _leaf_errors()
    assert {"OutOfRange", "NonConvergence"} <= leaves
    assert not {"AffineSpectraError", "BranchError"} & leaves
    assert sorted(leaves - used) == []


def test_the_scan_sees_a_missing_raise():
    tree = ast.parse("from . import errors\n"
                     "def f(x):\n"
                     "    if x:\n"
                     "        raise errors.OutOfRange('x')\n"
                     "    e = errors.Endpoint('y')\n"
                     "    raise e\n"
                     "try:\n"
                     "    f(1)\n"
                     "except errors.ZeroOscillation:\n"
                     "    pass\n")
    assert {"OutOfRange", "Endpoint"} <= _raised_or_called(tree)
    assert "ZeroOscillation" not in _raised_or_called(tree)
