"""Every congestion family lives in one module: no other names a kind."""

import ast
import pathlib

import pmplab
from pmplab import congestion as cg

SRC = pathlib.Path(pmplab.__file__).parent
KINDS = {"utilization", "latency", "general_latency", "loss", "outage", "utilization_default"}


def test_the_descriptor_table_lists_every_kind():
    assert set(cg.DESCRIPTOR_PARAMETERS) == KINDS


def test_kind_names_live_only_in_the_congestion_module():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "congestion.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in KINDS:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
