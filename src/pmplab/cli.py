"""Command-line front end emitting deterministic CSV experiment tables.

Subcommands::

    pmplab classify  --scenario market.txt --out results/
    pmplab sweep     --scenario market.txt --objective profit --out results/
    pmplab partition --scenario market.txt --out results/
    pmplab probe     --scenario market.txt --out results/
    pmplab duopoly   --scenario duo.txt    --out results/

Every command reads one scenario file, writes one CSV named after the
command into the output directory, and prints a short summary.  All
numeric output carries 9 significant digits and rows appear in grid
order, so repeated runs are byte-identical.

Exit codes: 0 success, 2 input error (an unwritable ``--out`` included),
3 computation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import congestion as cg
from . import duopoly as duop
from ._tolerances import SPLIT_DOMINANCE_SLACK
from .duopoly import DuopolyScenario
from .equilibrium import MarketScenario
from .errors import PmplabError, ScenarioError
from .monopoly import (
    identical_price_cases, local_improvement_probe, partition_comparison, ratio_sweep,
)
from .scenario import ScenarioFile, parse_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3


def _fmt(x) -> str:
    """Nine significant digits, decimal point guaranteed."""
    if x != x:
        return "nan"
    s = f"{float(x):.9g}"
    if s.startswith("-") and float(s) == 0.0:
        s = s[1:]
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _need(sf: ScenarioFile, attr, what, command):
    value = getattr(sf, attr)
    if value is None:
        raise ScenarioError(f"{command} needs {what!r} in the scenario file")
    return value


def _too_many_failed(failed, total) -> bool:
    """Whether a grid command fails (exit code 3): when more than a tenth of
    its grid points failed."""
    return failed > 0.1 * total


def _rows_over_prices(prices, row):
    """``row(p)`` for each price; a price whose computation fails is named on
    stderr and skipped.  None when too many prices failed."""
    rows, failures = [], 0
    for p in prices:
        try:
            rows.append(row(p))
        except PmplabError as exc:
            failures += 1
            print(f"p={p:.9g}: {exc}", file=sys.stderr)
    return None if _too_many_failed(failures, len(prices)) else rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(sf: ScenarioFile, args) -> int:
    caps = sf.capacities or (0.3, 0.7)
    scaling = cg.classify_scaling(sf.model, tol=sf.tol)
    unrestricted = cg.global_monotone(sf.model, caps)
    restricted = cg.global_monotone(sf.model, caps, cg.c2_profile_filter(sf.model, caps))
    # the restricted verdict only stands in for the unrestricted one when
    # usage profiles realized at identical-pricing equilibria actually
    # exhibit that slope ordering (not mere ties)
    split_sc = MarketScenario(sf.v, caps, sf.model, sf.dist)
    eq_cases = identical_price_cases(split_sc, [sf.v * k / 8 for k in range(1, 8)])
    strict_cases = {case for _p, case in eq_cases} - {"Both"}
    restricted_case = restricted.verdict.replace("Consistent", "")
    restricted_applies = (
        restricted.verdict != "Violated" and strict_cases == {restricted_case}
    )
    if unrestricted.verdict != "Violated":
        mono_text = f"{unrestricted.verdict}"
        mono_csv = unrestricted.verdict
        witnesses = unrestricted.witnesses
    elif restricted_applies:
        mono_text = f"{restricted.verdict} (c.2-restricted sampler)"
        mono_csv = restricted.verdict + "/c2-restricted"
        witnesses = restricted.witnesses
    else:
        witnesses = unrestricted.witnesses
        wit_str = "; ".join(f"{tuple(round(q, 6) for q in prof)} -> {case}"
                            for prof, case in witnesses)
        mono_text = f"Violated (witnesses {wit_str})"
        mono_csv = "Violated"

    print(f"{sf.model.describe()}: {scaling.verdict}; monotone: {mono_text}")
    def _profile_key(prof):
        return "|".join(_fmt(q) for q in prof)

    rows = [
        ("scaling", scaling.verdict, _fmt(scaling.max_gap), _fmt(scaling.min_gap)),
        ("monotone", mono_csv,
         ";".join(f"{_profile_key(prof)}->{case}" for prof, case in witnesses),
         ""),
    ]
    path = os.path.join(args.out, "classify.csv")
    _write_csv(path, "check,verdict,detail1,detail2", rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_sweep(sf: ScenarioFile, args) -> int:
    caps = _need(sf, "capacities", "capacities", "sweep")
    if len(caps) != 2:
        raise ScenarioError("sweep needs exactly two capacities")
    scenario = MarketScenario(sf.v, caps, sf.model, sf.dist)
    grid = args.grid or 512
    curve = ratio_sweep(scenario, sf.a_grid, args.objective, grid=grid)
    skipped = sum(pt.skipped for pt in curve.points)
    total = len(curve.points) * (grid + 1)
    if _too_many_failed(skipped, total):
        print(f"solver failures at {skipped}/{total} grid points", file=sys.stderr)
        return EXIT_COMPUTE
    rows = [
        (pt.ratio, pt.best_value, pt.argmax_p1, curve.baseline_single)
        for pt in curve.points
    ]
    path = os.path.join(args.out, "sweep.csv")
    _write_csv(path, "a,best_value,argmax_p1,baseline_single", rows)
    best = curve.best()
    print(f"{args.objective} sweep over {len(rows)} ratios: "
          f"best {best.best_value:.9g} at a={best.ratio:.9g}, "
          f"single-class baseline {curve.baseline_single:.9g}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_partition(sf: ScenarioFile, args) -> int:
    split = sf.split or sf.capacities
    if split is None:
        raise ScenarioError("partition needs 'split' or 'capacities'")
    total = sum(split)
    scenario = MarketScenario(sf.v, (total,), sf.model, sf.dist)
    n = args.grid or sf.p_grid or 64
    prices = [sf.v * k / n for k in range(n + 1)]

    def row(p):
        res = partition_comparison(scenario, p, split)
        return (res.price, res.single_welfare, res.single_profit,
                res.split_welfare, res.split_profit)

    rows = _rows_over_prices(prices, row)
    if rows is None:
        return EXIT_COMPUTE
    path = os.path.join(args.out, "partition.csv")
    _write_csv(path, "p,S_single,pi_single,S_split,pi_split", rows)
    print(f"partition comparison on {len(rows)} prices, split {split}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_probe(sf: ScenarioFile, args) -> int:
    caps = _need(sf, "capacities", "capacities", "probe")
    if len(caps) != 2:
        raise ScenarioError("probe needs exactly two capacities")
    scenario = MarketScenario(sf.v, caps, sf.model, sf.dist)
    n = args.grid or sf.p_grid or 20
    prices = [sf.v * k / n for k in range(1, n)]

    def row(p):
        res = local_improvement_probe(scenario, p, sf.delta)
        return (p, res.direction * res.delta, res.d_welfare, res.d_profit, res.case)

    rows = _rows_over_prices(prices, row)
    if rows is None:
        return EXIT_COMPUTE
    path = os.path.join(args.out, "probe.csv")
    _write_csv(path, "p,delta,dS,dpi,case", rows)
    improving = sum(1 for r in rows if r[2] > 0 and r[3] > 0)
    print(f"probe at {len(rows)} prices: {improving} strict improvements")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_duopoly(sf: ScenarioFile, args) -> int:
    cap_i = _need(sf, "duopoly_cap_i", "duopoly_cap_i", "duopoly")
    cap_ii = _need(sf, "duopoly_cap_ii", "duopoly_cap_ii", "duopoly")
    duo = DuopolyScenario(sf.v, cap_i, cap_ii, sf.model, sf.dist)
    n = args.grid or sf.pi_grid
    grid = [sf.v * k / n for k in range(n + 1)]
    points = duop.duopoly_curve(duo, grid)
    failures = sum(1 for pt in points if pt.error is not None)
    for pt in points:
        if pt.error:
            print(f"pI={pt.p_i:.9g}: {pt.error}", file=sys.stderr)
    if _too_many_failed(failures, len(points)):
        return EXIT_COMPUTE
    rows = [
        (pt.p_i, pt.pi_i, pt.pi_ii_one, pt.pi_ii_two)
        for pt in points if pt.error is None
    ]
    path = os.path.join(args.out, "duopoly.csv")
    _write_csv(path, "pI,piI,piII_1class,piII_2class", rows)
    dominated = sum(1 for r in rows if r[3] >= r[2] - SPLIT_DOMINANCE_SLACK)
    print(f"duopoly curve on {len(rows)} prices: split dominates at {dominated}")
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pmplab",
        description="Multi-class congestion pricing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "scale-down and monotone-preference classification"),
        ("sweep", "best objective per price ratio vs the merged class"),
        ("partition", "identical-price split vs merged class over a price grid"),
        ("probe", "differentiated-pricing improvement probe over a price grid"),
        ("duopoly", "provider II best-response profit curves"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", default=".", help="output directory for CSV files")
        # each command takes only the flags it reads
        if name == "sweep":
            p.add_argument("--objective", choices=("welfare", "profit"), default="profit")
        if name == "classify":
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        else:
            p.add_argument("--grid", type=int, default=None, help="grid resolution override")
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "partition": _cmd_partition,
    "probe": _cmd_probe,
    "duopoly": _cmd_duopoly,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sf = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "tol", None) is not None:
        if not 0 < args.tol < math.inf:
            print(f"--tol must be positive and finite, got {args.tol}", file=sys.stderr)
            return EXIT_INPUT
        sf.tol = args.tol
    if getattr(args, "grid", None) is not None and args.grid < 2:
        print(f"--grid must be at least 2, got {args.grid}", file=sys.stderr)
        return EXIT_INPUT
    try:
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](sf, args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PmplabError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        # a command's only file access is writing its CSV, so this is the
        # output directory or the CSV; the message names the path
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
