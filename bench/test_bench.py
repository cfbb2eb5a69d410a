"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``.

They check that the traced run wraps every module binding of each public
function and that each workload's traced pass reaches every layer it is
meant to exercise, so a missed ``from ... import`` binding fails loudly.
"""

import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Workloads whose traced pass sees solved equilibria failing validate().all_ok
# at the commit this benchmark was written against: utilization_default
# duopolies with a near-empty class return indifference residuals from just
# above validate()'s 1e-9 up to 8e-8, and level inversions of up to 2e-9,
# inside tracing.ACCEPTED_RESIDUAL.  The traced run counts and reports them.
KNOWN_INVALID = {"duopoly_split"}


def _originals():
    import pmplab

    mods = {name: sys.modules[f"pmplab.{name}"]
            for name in ("congestion", "equilibrium", "monopoly", "duopoly", "scenario", "cli")}
    assert pmplab is sys.modules["pmplab"]
    return {f"{mod}.{fn}": getattr(mods[mod], fn) for mod, fn in tracing.SPANNED}


def test_every_binding_is_wrapped_and_restored():
    import pmplab.cli  # noqa: F401  (loads every module that binds a wrapped name)

    originals = _originals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped() == []
        # names imported by name elsewhere are rebound there too
        from pmplab import cli, duopoly, monopoly

        for owner, attr, source in (
            (monopoly, "cutoffs_from_prices", "equilibrium.cutoffs_from_prices"),
            (monopoly, "prices_from_cutoffs", "equilibrium.prices_from_cutoffs"),
            (monopoly, "classify_scaling", "congestion.classify_scaling"),
            (duopoly, "cutoffs_from_prices", "equilibrium.cutoffs_from_prices"),
            (cli, "ratio_sweep", "monopoly.ratio_sweep"),
            (cli, "partition_comparison", "monopoly.partition_comparison"),
            (cli, "local_improvement_probe", "monopoly.local_improvement_probe"),
            (cli, "parse_scenario", "scenario.parse_scenario"),
        ):
            bound = getattr(owner, attr)
            assert getattr(bound, "__wrapped__", None) is originals[source], \
                f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    assert _originals() == originals
    from pmplab.population import TypeDistribution

    assert not hasattr(TypeDistribution.cdf, "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reaches_each_layer(workload, tmp_path):
    inputs = workloads.make_inputs(workload, run.REFERENCE_SEED, str(tmp_path))
    built = workloads.build(workload, inputs)
    items = workloads.items(workload, built, inputs, str(tmp_path / "out"), None, True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run._run_pass(items, tracer, "test")
    finally:
        tracer.uninstall()
    counts = tracer.layer_counts()
    missing = [layer for layer in tracing.EXERCISED[workload] if counts[layer] == 0]
    assert missing == []
    if workload in KNOWN_INVALID:
        # strict: once the solver stops returning these, drop the workload
        # from KNOWN_INVALID so this test guards validate().all_ok there too
        assert tracer.invalid
    else:
        assert tracer.invalid == []
    assert tracer.broken == []
    assert result.attempted > 0 and result.checks == []
    metrics = tracer.metrics(1, {name: 0 for name in tracing.LAYER_UNITS
                                 if name.startswith(("bench.", "trace.", "cli.csv"))})
    assert list(metrics) == list(tracing.LAYER_UNITS)
    assert metrics["equilibrium.cutoffs_from_prices.calls"]["value"] > 0


def test_inputs_depend_on_the_seed_only(tmp_path):
    for workload in ("monopoly_sweep", "duopoly_split"):
        a = workloads.make_inputs(workload, 3, str(tmp_path))
        assert a == workloads.make_inputs(workload, 3, str(tmp_path))
        assert a != workloads.make_inputs(workload, 4, str(tmp_path))


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
