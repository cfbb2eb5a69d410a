"""Every tolerance and solver limit of the package lives in one module."""

import ast
import pathlib

import pmplab

SRC = pathlib.Path(pmplab.__file__).parent


def test_small_float_literals_live_only_in_the_tolerances_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_tolerances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-2):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
