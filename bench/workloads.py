"""Workload inputs and passes for the pmplab benchmark.

Each workload is made in three steps:

* ``make_inputs(workload, seed, workdir)`` draws every market, grid and
  scenario file from the seed alone, using only the standard library, and
  returns a JSON-able description (CLI scenario files are written into
  ``workdir``);
* ``build(workload, inputs)`` turns that description into pmplab objects
  (scenarios, distributions, parsed scenario files);
* ``items(workload, built, ...)`` lists the calls one pass makes.  A pass
  runs every item once, in order.

An item returns an ``Outcome``: a canonical record of its result (floats at
nine significant digits, so records compare across runs and commits), how
many work items it attempted and how many of them failed.  A work item is
one grid price, one curve point, one free-price search, one Nash search or
one CLI command.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("monopoly_sweep", "duopoly_split", "cli_tables")

FAMILIES = (
    "utilization",
    "latency",
    "general_latency",
    "loss",
    "outage",
    "utilization_default",
)


@dataclass
class Outcome:
    record: object
    attempted: int
    failed: int
    child_cpu_s: float = 0.0      # CPU of child processes the item waited for
    child_rss_kb: int = 0         # largest child resident set, KiB
    csv_bytes: int = 0
    checks: list = field(default_factory=list)   # messages of failed result checks


@dataclass
class Item:
    name: str
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# canonical records
# ---------------------------------------------------------------------------

def canon(x):
    """JSON-able copy of a result, floats as nine significant digits."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return "nan" if math.isnan(x) else format(x, ".9g")
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)


def _error_record(exc):
    return f"error: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# input generation (standard library only)
#
# Each workload's breadth comes from a fixed design: every congestion
# family, uniform and tabulated types, both objectives, 2- and 3-way splits.
# The seed moves every market parameter within JITTER of a fixed centre and
# draws the shape of every tabulated CDF.  Solve cost is very uneven across
# wider parameter ranges (a ratio sweep on a fine table costs several times
# more when its optimum sits where Newton gives way to bisection), so wide
# draws would make the time of a run depend on the seed more than on the code.
# ---------------------------------------------------------------------------

JITTER = 0.005
PARTITION_GRID = 128   # intervals of the CLI partition price grid

# family -> parameter centres
FAMILY_PARAMS = {
    "utilization": {},
    "latency": {},
    "general_latency": {"delta2": 0.6},
    "loss": {"kappa": 2},
    "outage": {"eps": 0.6},
    "utilization_default": {"eps": 0.05},
}


def _rng(workload, seed):
    return random.Random(f"pmplab-bench:{workload}:{seed}")


def _near(rng, centre):
    return centre * rng.uniform(1.0 - JITTER, 1.0 + JITTER)


def _table(rng, n, theta_bar, spread):
    """Piecewise-linear CDF with n breakpoints and a random positive density.

    Each segment's density is drawn within ``spread`` of the mean, relatively.
    """
    weights = [rng.uniform(1.0 - spread, 1.0 + spread) for _ in range(n - 1)]
    total = sum(weights)
    points, acc = [[0.0, 0.0]], 0.0
    for k in range(1, n - 1):
        acc += weights[k - 1]
        points.append([theta_bar * k / (n - 1), acc / total])
    points.append([theta_bar, 1.0])
    return points


def _family_params(rng, family):
    return {k: (c if isinstance(c, int) else _near(rng, c))
            for k, c in FAMILY_PARAMS[family].items()}


def _caps(rng, shares):
    total = _near(rng, 1.0)
    return [_near(rng, share) * total for share in shares]


def _monopoly_inputs(rng):
    markets = {}
    for family in FAMILIES:
        for dist in ("uniform", "table"):
            markets[f"{family}/{dist}"] = {
                "family": family,
                "params": _family_params(rng, family),
                "v": _near(rng, 2.0),
                "caps": _caps(rng, (0.4, 0.6)),
                # a fine table of its own per market; densities within 10 %,
                # because with 40 % one seed's table could double the cost of
                # a sweep, and run time would follow the seed
                "table": (_table(rng, 257, _near(rng, 0.98), 0.1)
                          if dist == "table" else None),
            }

    # a short pass, so a run has enough passes for a steady median
    ratios = [0.3, 0.6, 0.9]
    items = []
    for i, family in enumerate(FAMILIES):
        items.append({"kind": "sweep", "market": f"{family}/uniform",
                      "objective": ("profit", "welfare")[i % 2],
                      "ratios": ratios, "grid": 32})
    # profit sweeps on fine tables are the most uneven in cost, so the
    # tabulated sweeps maximize welfare
    for family in ("utilization", "latency", "loss"):
        items.append({"kind": "sweep", "market": f"{family}/table",
                      "objective": "welfare", "ratios": ratios[::2], "grid": 32})
    for market, objective in (("utilization/uniform", "profit"),
                              ("loss/uniform", "welfare"),
                              ("utilization_default/table", "profit")):
        items.append({"kind": "free", "market": market, "objective": objective})
    for market in ("utilization/uniform", "latency/uniform", "loss/table"):
        v = markets[market]["v"]
        items.append({"kind": "probe", "market": market,
                      "prices": [v * (0.35 + 0.06 * k) for k in range(6)]})
    return {"markets": markets, "items": items}


def _duopoly_inputs(rng):
    # criterion 10's duopolies: V = 2, both providers with capacity 1
    v = _near(rng, 2.0)
    markets = {}
    for family in ("utilization", "utilization_default"):
        markets[family] = {"family": family, "params": _family_params(rng, family), "v": v,
                           "cap_i": _near(rng, 1.0), "cap_ii": _near(rng, 1.0)}
    markets["utilization_default"]["params"] = {"eps": _near(rng, 0.1)}
    cap = _near(rng, 1.0)   # alternating best responses converge on symmetric markets
    markets["nash"] = {"family": "utilization", "params": {}, "v": v,
                       "cap_i": cap, "cap_ii": cap}
    items = [
        {"kind": "curve", "market": "utilization", "p_i": [0.4 * v, 0.6 * v], "grid": 64},
        {"kind": "curve", "market": "utilization_default", "p_i": [0.8 * v], "grid": 64},
        {"kind": "nash", "market": "nash"},
    ]
    return {"markets": markets, "items": items}


def _model_text(family, params):
    if not params:
        return family
    inner = ", ".join(f"{k}={params[k]!r}" for k in sorted(params))
    return f"{family}({inner})"


def _scenario_text(model, v, caps, dist=None, p_grid=None):
    lines = [f"model = {model}", f"V = {v!r}",
             "capacities = " + ", ".join(repr(c) for c in caps)]
    if dist:
        lines.append(f"distribution = {dist}")
    if p_grid:
        lines.append(f"p_grid = {p_grid}")
    return "\n".join(lines) + "\n"


def _cli_inputs(rng, workdir):
    files = {}
    commands = []
    for family in FAMILIES:
        name = f"classify_{family}.txt"
        files[name] = _scenario_text(_model_text(family, _family_params(rng, family)),
                                     _near(rng, 2.0), _caps(rng, (0.4, 0.6)))
        commands.append(["classify", name])
    files["tab5.txt"] = "".join(f"{x!r} {f!r}\n" for x, f in _table(rng, 5, 1.0, 0.4))
    for family in ("latency", "general_latency"):
        model = _model_text(family, _family_params(rng, family))
        for dist, tag in (("uniform(theta_bar=1.0)", "uniform"),
                          ("tabulated(file=tab5.txt)", "tab5")):
            v = _near(rng, 2.0)
            # the 3-way shape is the one whose identical-price solves hit the
            # known one-ulp "bad integration bounds" failure at some prices
            for ways, shares in (("2way", (0.4, 0.6)), ("3way", (0.2, 0.3, 0.5))):
                name = f"partition_{family}_{tag}_{ways}.txt"
                files[name] = _scenario_text(model, v, _caps(rng, shares), dist,
                                             p_grid=PARTITION_GRID)
                commands.append(["partition", name])
    files["probe_utilization.txt"] = _scenario_text(
        "utilization", _near(rng, 2.0), _caps(rng, (0.4, 0.6)))
    commands.append(["probe", "probe_utilization.txt"])

    os.makedirs(workdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    return {"dir": workdir, "files": sorted(files), "commands": commands}


def make_inputs(workload, seed, workdir):
    rng = _rng(workload, seed)
    if workload == "monopoly_sweep":
        return _monopoly_inputs(rng)
    if workload == "duopoly_split":
        return _duopoly_inputs(rng)
    if workload == "cli_tables":
        return _cli_inputs(rng, os.path.join(workdir, "scenarios"))
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# building pmplab objects
# ---------------------------------------------------------------------------

def _model(family, params):
    from pmplab import congestion as cg

    return getattr(cg, family)(**params)


def build(workload, inputs):
    """Import pmplab and turn the inputs into its objects."""
    if workload == "cli_tables":
        from pmplab.scenario import parse_scenario

        return {name: parse_scenario(os.path.join(inputs["dir"], name))
                for name in inputs["files"] if name != "tab5.txt"}
    if workload == "monopoly_sweep":
        from pmplab.equilibrium import MarketScenario
        from pmplab.population import tabulated, uniform

        return {name: MarketScenario(m["v"], tuple(m["caps"]),
                                     _model(m["family"], m["params"]),
                                     tabulated(m["table"]) if m["table"] else uniform())
                for name, m in inputs["markets"].items()}
    if workload == "duopoly_split":
        from pmplab.duopoly import DuopolyScenario

        return {name: DuopolyScenario(m["v"], m["cap_i"], m["cap_ii"],
                                      _model(m["family"], m["params"]))
                for name, m in inputs["markets"].items()}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def _monopoly_item(spec, scenarios):
    from pmplab import monopoly as mono
    from pmplab.errors import PmplabError

    sc = scenarios[spec["market"]]
    kind = spec["kind"]
    name = f"{kind}/{spec['market']}"

    if kind == "sweep":
        n = len(spec["ratios"]) * (spec["grid"] + 1)

        def run():
            try:
                curve = mono.ratio_sweep(sc, tuple(spec["ratios"]), spec["objective"],
                                         grid=spec["grid"])
            except PmplabError as exc:
                return Outcome(_error_record(exc), n, n)
            return Outcome(canon(curve), n, sum(pt.skipped for pt in curve.points))
        return Item(f"{name}/{spec['objective']}", run)

    if kind == "free":
        def run():
            try:
                res = mono.maximize_free_prices(sc, spec["objective"])
            except PmplabError as exc:
                return Outcome(_error_record(exc), 1, 1)
            return Outcome(canon(res), 1, 0)
        return Item(f"{name}/{spec['objective']}", run)

    if kind == "probe":
        def run():
            rows, failed = [], 0
            for p in spec["prices"]:
                try:
                    rows.append(canon(mono.local_improvement_probe(sc, p)))
                except PmplabError as exc:
                    rows.append(_error_record(exc))
                    failed += 1
            return Outcome(rows, len(spec["prices"]), failed)
        return Item(name, run)
    raise ValueError(f"unknown monopoly item {kind!r}")


def _duopoly_item(spec, scenarios):
    from pmplab import duopoly as duop
    from pmplab.errors import PmplabError

    duo = scenarios[spec["market"]]
    kind = spec["kind"]

    if kind == "curve":
        name = f"curve/{spec['market']}"

        def run():
            points = duop.duopoly_curve(duo, spec["p_i"], grid=spec["grid"])
            checks = [f"{name}: pi_ii_two {pt.pi_ii_two!r} < pi_ii_one {pt.pi_ii_one!r} "
                      f"- 1e-9 at pI={pt.p_i!r}"
                      for pt in points
                      if pt.error is None and not pt.pi_ii_two >= pt.pi_ii_one - 1e-9]
            return Outcome(canon(points), len(points),
                           sum(1 for pt in points if pt.error is not None), checks=checks)
        return Item(name, run)

    if kind == "nash":
        def run():
            try:
                res = duop.find_nash(duo, mode="one")
            except PmplabError as exc:
                return Outcome(_error_record(exc), 1, 1)
            return Outcome(canon(res), 1, 0)
        return Item(f"nash/{spec['market']}", run)
    raise ValueError(f"unknown duopoly item {kind!r}")


def child_env(src_dir):
    """Environment for a child Python that imports pmplab from ``src_dir``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    return env


def _cli_child(argv, out_dir, src_dir):
    """Run ``python -m pmplab.cli argv`` as a child; returns (rc, stderr, cpu, rss)."""
    env = child_env(src_dir)
    out_path = os.path.join(out_dir, "stdout.txt")
    err_path = os.path.join(out_dir, "stderr.txt")
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "pmplab.cli", *argv],
                                stdout=fo, stderr=fe, env=env)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read()
    return proc.returncode, stderr, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _cli_in_process(argv):
    from pmplab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, err.getvalue(), 0.0, 0


# prices per command: partition's p_grid + 1, and the 19 interior prices of
# probe's default 20-interval grid
_CLI_GRID = {"partition": PARTITION_GRID + 1, "probe": 19}


def _cli_item(command, inputs, run_dir, src_dir, in_process):
    sub, scenario = command
    name = f"{sub}/{scenario[:-4]}"

    def run():
        out_dir = os.path.join(run_dir, name.replace("/", "_"))
        os.makedirs(out_dir, exist_ok=True)
        argv = [sub, "--scenario", os.path.join(inputs["dir"], scenario), "--out", out_dir]
        if in_process:
            rc, stderr, cpu, rss = _cli_in_process(argv)
        else:
            rc, stderr, cpu, rss = _cli_child(argv, out_dir, src_dir)
        csv_path = os.path.join(out_dir, f"{sub}.csv")
        csv_text = None
        if os.path.exists(csv_path):
            with open(csv_path, newline="") as fh:
                csv_text = fh.read()
        # per-price failures are the "p=...: message" lines on stderr
        price_failures = [line for line in stderr.splitlines() if line.startswith("p=")]
        attempted, failed = 1, int(rc != 0)
        if sub in ("partition", "probe"):
            attempted += _CLI_GRID[sub]
            failed += len(price_failures)
        record = {"rc": rc, "csv": csv_text, "stderr": stderr.splitlines()}
        return Outcome(record, attempted, failed, cpu, rss,
                       len(csv_text.encode()) if csv_text is not None else 0)
    return Item(name, run)


def items(workload, built, inputs, run_dir=None, src_dir=None, in_process=False):
    if workload == "monopoly_sweep":
        return [_monopoly_item(spec, built) for spec in inputs["items"]]
    if workload == "duopoly_split":
        return [_duopoly_item(spec, built) for spec in inputs["items"]]
    if workload == "cli_tables":
        return [_cli_item(cmd, inputs, run_dir, src_dir, in_process)
                for cmd in inputs["commands"]]
    raise ValueError(f"unknown workload {workload!r}")
