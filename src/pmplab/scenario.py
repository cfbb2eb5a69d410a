"""Flat key = value scenario files.

One assignment per line, ``#`` starts a comment, keys are fixed and
unknown keys are rejected with the offending line number.  Example::

    # two-class utilization market
    model        = utilization
    V            = 2.0
    capacities   = 0.3, 0.7
    distribution = uniform(theta_bar=1.0)
    a_grid       = 0:1:21
    p_grid       = 64

Duopoly studies replace ``capacities`` with the providers' capacities::

    duopoly_cap_i  = 1.0
    duopoly_cap_ii = 1.0
    pI_grid        = 17
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Optional

from . import congestion as cg
from ._tolerances import PROBE_DELTA, SCALING_GAP_TOL
from .errors import ScenarioError
from .population import TypeDistribution, tabulated_from_file, uniform

__all__ = ["ScenarioFile", "parse_scenario", "parse_scenario_text"]

_KNOWN_KEYS = (
    "model",
    "V",
    "capacities",
    "split",
    "distribution",
    "a_grid",
    "p_grid",
    "pI_grid",
    "delta",
    "tol",
    "duopoly_cap_i",
    "duopoly_cap_ii",
)

_CALL_RE = re.compile(r"^([a-z_]+)\s*(?:\(\s*(.*?)\s*\))?$")


@dataclass
class ScenarioFile:
    """Validated scenario inputs with experiment defaults filled in."""

    model: cg.CongestionModel
    v: float
    dist: TypeDistribution
    capacities: Optional[tuple] = None
    split: Optional[tuple] = None
    a_grid: tuple = tuple(k / 20 for k in range(21))
    p_grid: Optional[int] = None   # unset: 64 intervals for partition, 20 for probe
    pi_grid: int = 17
    delta: float = PROBE_DELTA
    tol: float = SCALING_GAP_TOL
    duopoly_cap_i: Optional[float] = None
    duopoly_cap_ii: Optional[float] = None


def _parse_call(text, line):
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ScenarioError(f"cannot parse descriptor {text!r}", line)
    name, argstr = m.group(1), m.group(2)
    kwargs = {}
    if argstr:
        for part in argstr.split(","):
            if "=" not in part:
                raise ScenarioError(f"expected name=value in {text!r}", line)
            key, val = (s.strip() for s in part.split("=", 1))
            if key in kwargs:
                raise ScenarioError(f"duplicate parameter {key!r} in {text!r}", line)
            kwargs[key] = val
    return name, kwargs


def _reject_unread(kw, what, line):
    """Descriptor parameters left after parsing are unknown to ``what``."""
    if kw:
        raise ScenarioError(f"{what} has no parameter {', '.join(map(repr, kw))}", line)


def _num(value, line, kind=float):
    try:
        number = kind(value)
    except ValueError:
        raise ScenarioError(f"expected a number, got {value!r}", line) from None
    if not math.isfinite(number):
        raise ScenarioError(f"expected a finite number, got {value!r}", line)
    return number


def _parse_model(text, line):
    name, kw = _parse_call(text, line)
    if name not in cg.DESCRIPTOR_PARAMETERS:
        raise ScenarioError(f"unknown model {name!r}", line)
    value = None
    if cg.DESCRIPTOR_PARAMETERS[name] is not None:
        param, typ = cg.DESCRIPTOR_PARAMETERS[name]
        if param not in kw:
            raise ScenarioError(f"model {name!r} needs parameter {param!r}", line)
        value = _num(kw.pop(param), line, typ)
    try:
        model = cg.CongestionModel(name, value)
    except cg.DomainError as exc:
        raise ScenarioError(str(exc), line) from None
    _reject_unread(kw, f"model {name!r}", line)
    return model


def _parse_distribution(text, line, base_dir):
    name, kw = _parse_call(text, line)
    try:
        if name == "uniform":
            dist = uniform(_num(kw.pop("theta_bar", "1.0"), line))
        elif name == "tabulated":
            path = kw.pop("file")
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            dist = tabulated_from_file(path)
        else:
            raise ScenarioError(f"unknown distribution {name!r}", line)
    except KeyError as missing:
        raise ScenarioError(f"distribution {name!r} needs parameter {missing}", line) from None
    except OSError as exc:
        raise ScenarioError(f"cannot read distribution file: {exc}", line) from None
    except cg.DomainError as exc:
        raise ScenarioError(str(exc), line) from None
    _reject_unread(kw, f"distribution {name!r}", line)
    return dist


def _parse_grid(text, line):
    """Either lo:hi:count or an explicit comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ScenarioError(f"grid spec must be lo:hi:count, got {text!r}", line)
        lo, hi = _num(parts[0], line), _num(parts[1], line)
        count = _num(parts[2], line, int)
        if count < 1 or hi < lo:
            raise ScenarioError(f"bad grid spec {text!r}", line)
        if count == 1:
            return (lo,)
        return tuple(lo + (hi - lo) * k / (count - 1) for k in range(count))
    return tuple(_num(part.strip(), line) for part in text.split(","))


def parse_scenario_text(text: str, base_dir: str = ".") -> ScenarioFile:
    raw = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {rawline.strip()!r}", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ScenarioError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)

    for required in ("model", "V"):
        if required not in raw:
            raise ScenarioError(f"missing required key {required!r}")

    model = _parse_model(*raw["model"])
    v_val, v_line = raw["V"]
    v = _num(v_val, v_line)
    if v <= 0:
        raise ScenarioError(f"V must be positive, got {v}", v_line)

    if "distribution" in raw:
        dist = _parse_distribution(raw["distribution"][0], raw["distribution"][1], base_dir)
    else:
        dist = uniform()

    out = ScenarioFile(model=model, v=v, dist=dist)
    if "capacities" in raw:
        caps = _parse_grid(*raw["capacities"])
        if any(c <= 0 for c in caps):
            raise ScenarioError("capacities must be positive", raw["capacities"][1])
        out.capacities = caps
    if "split" in raw:
        split = _parse_grid(*raw["split"])
        if any(c < 0 for c in split):
            raise ScenarioError("split parts must be nonnegative", raw["split"][1])
        if not any(c > 0 for c in split):
            raise ScenarioError("split must have a positive part", raw["split"][1])
        out.split = split
    if "a_grid" in raw:
        grid = _parse_grid(*raw["a_grid"])
        if not grid or any(a < 0 or a > 1 for a in grid):
            raise ScenarioError("a_grid values must lie in [0, 1]", raw["a_grid"][1])
        out.a_grid = grid
    if "p_grid" in raw:
        out.p_grid = _num(raw["p_grid"][0], raw["p_grid"][1], int)
        if out.p_grid < 2:
            raise ScenarioError("p_grid must be at least 2", raw["p_grid"][1])
    if "pI_grid" in raw:
        out.pi_grid = _num(raw["pI_grid"][0], raw["pI_grid"][1], int)
        if out.pi_grid < 2:
            raise ScenarioError("pI_grid must be at least 2", raw["pI_grid"][1])
    if "delta" in raw:
        out.delta = _num(raw["delta"][0], raw["delta"][1])
        if out.delta < 0:
            raise ScenarioError("delta must be nonnegative", raw["delta"][1])
    if "tol" in raw:
        out.tol = _num(raw["tol"][0], raw["tol"][1])
        if out.tol <= 0:
            raise ScenarioError("tol must be positive", raw["tol"][1])
    for cap_key in ("duopoly_cap_i", "duopoly_cap_ii"):
        if cap_key in raw:
            val = _num(raw[cap_key][0], raw[cap_key][1])
            if val < 0:
                raise ScenarioError(f"{cap_key} must be nonnegative", raw[cap_key][1])
            setattr(out, cap_key, val)
    if out.duopoly_cap_i == 0 and out.duopoly_cap_ii == 0:
        raise ScenarioError("duopoly_cap_i and duopoly_cap_ii must not both be zero",
                            max(raw["duopoly_cap_i"][1], raw["duopoly_cap_ii"][1]))
    return out


def parse_scenario(path) -> ScenarioFile:
    with open(path) as fh:
        text = fh.read()
    return parse_scenario_text(text, base_dir=os.path.dirname(os.path.abspath(path)))
