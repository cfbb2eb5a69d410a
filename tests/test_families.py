"""Every congestion family lives in one module: no other names a kind or
reads a model's parameter."""

import ast
import pathlib

import pmplab
from pmplab import congestion as cg

SRC = pathlib.Path(pmplab.__file__).parent
KINDS = {"utilization", "latency", "general_latency", "loss", "outage", "utilization_default"}


def test_the_descriptor_table_lists_every_kind():
    assert set(cg.DESCRIPTOR_PARAMETERS) == KINDS


def _outside_congestion():
    """(file name, AST node) for every node of every module but congestion.py."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "congestion.py":
            for node in ast.walk(ast.parse(path.read_text())):
                yield path.name, node


def test_kind_names_live_only_in_the_congestion_module():
    found = [f"{name}:{node.lineno}: {node.value!r}" for name, node in _outside_congestion()
             if isinstance(node, ast.Constant) and node.value in KINDS]
    assert found == []


def test_only_the_congestion_module_reads_a_model_parameter():
    found = [f"{name}:{node.lineno}" for name, node in _outside_congestion()
             if isinstance(node, ast.Attribute) and node.attr == "param"]
    assert found == []
