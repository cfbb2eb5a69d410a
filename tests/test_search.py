"""The deterministic searches have one home, ``_search.py``."""

import ast
import pathlib

import pytest

import pmplab
from pmplab._search import _feasible
from pmplab.errors import NoEquilibriumError

SRC = pathlib.Path(pmplab.__file__).parent
SHARED_PRIVATE = {"_tolerances", "_search"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_modules_import_private_names_only_from_the_shared_private_modules():
    found = [f"{name}:{node.lineno}: {alias.name} from .{node.module}"
             for name, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             and node.module not in SHARED_PRIVATE
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_optimizers_drop_a_solver_error_only_through_the_feasible_wrapper():
    # a handler that keeps the error's message stays; one that discards it
    # is what _feasible does
    found = [f"{name}:{node.lineno}" for name, tree in _modules()
             if name in ("monopoly.py", "duopoly.py") for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.name is None]
    assert found == []


def test_feasible_solves_each_point_once_and_maps_solver_errors_to_none():
    calls = []

    def solve(x):
        calls.append(x)
        if x < 0:
            raise NoEquilibriumError("no market")
        return 2 * x

    f = _feasible(solve)
    assert [f(1), f(-1), f(1), f(-1), f(2)] == [2, None, 2, None, 4]
    assert calls == [1, -1, 2]


def test_feasible_lets_other_errors_through():
    f = _feasible(lambda x: 1 / x)
    with pytest.raises(ZeroDivisionError):
        f(0)
