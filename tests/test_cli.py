import os
import subprocess
import sys

import pytest

import pmplab
from pmplab.cli import _fmt, main
from pmplab.errors import ScenarioError
from pmplab.scenario import parse_scenario_text


UTL_TWO = """
# two-class utilization market
model        = utilization
V            = 2.0
capacities   = 0.3, 0.7
a_grid       = 0.5, 0.9, 1.0
p_grid       = 16
"""

LAT_SPLIT = """
model      = latency
V          = 2.0
capacities = 0.5, 0.5
p_grid     = 4
"""

DUO = """
model          = utilization
V              = 2.0
duopoly_cap_i  = 1.0
duopoly_cap_ii = 1.0
pI_grid        = 4
"""


def write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_parse_minimal():
    sf = parse_scenario_text("model = latency\nV = 2.0\n")
    assert sf.model.kind == "latency"
    assert sf.dist.kind == "uniform"


def test_parse_model_descriptors():
    for text, kind in (
        ("general_latency(delta2=0.5)", "general_latency"),
        ("loss(kappa=3)", "loss"),
        ("outage(eps=0.5)", "outage"),
        ("utilization_default(eps=0.1)", "utilization_default"),
    ):
        sf = parse_scenario_text(f"model = {text}\nV = 1.0\n")
        assert sf.model.kind == kind


def test_parse_rejects_unknown_key_with_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("model = latency\nV = 2.0\nbogus = 1\n")
    assert err.value.line == 3


def test_parse_rejects_duplicate_and_malformed():
    with pytest.raises(ScenarioError):
        parse_scenario_text("model = latency\nmodel = latency\nV = 1\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("model latency\n")
    assert err.value.line == 1
    with pytest.raises(ScenarioError):
        parse_scenario_text("model = loss\nV = 2.0\n")  # missing kappa


@pytest.mark.parametrize("descriptor, unknown", [
    ("model = utilization(eps=0.05)", "eps"),
    ("model = outage(eps=0.5, kappa=2)", "kappa"),
    ("distribution = uniform(theta_bar=1.0, width=3)", "width"),
    ("distribution = tabulated(file=cdf.txt, kind=linear)", "kind"),
])
def test_parse_rejects_unknown_descriptor_parameter_with_line(tmp_path, descriptor,
                                                             unknown):
    (tmp_path / "cdf.txt").write_text("0 0\n0.5 0.8\n1 1\n")
    model = "" if descriptor.startswith("model") else "model = latency\n"
    text = f"V = 2.0\n# the descriptor sits on line 3\n{descriptor}\n{model}"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, base_dir=str(tmp_path))
    assert err.value.line == 3
    assert repr(unknown) in str(err.value)


def test_unknown_descriptor_parameter_is_an_input_error(tmp_path, capsys):
    scen = write(tmp_path, "model = utilization(eps=0.05)\nV = 2.0\n")
    assert main(["classify", "--scenario", scen, "--out", str(tmp_path)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("descriptor, row, named", [
    ("model = outage(eps=0.9, eps=0.5)", "0.5 0.8", "duplicate parameter 'eps'"),
    ("distribution = tabulated(file=cdf.txt)", "0.5 abc", "cdf.txt' row 2"),
    ("distribution = tabulated(file=cdf.txt)", "0.5 nan", "strictly increasing"),
])
def test_bad_descriptor_is_an_input_error_naming_its_line(tmp_path, capsys, descriptor, row,
                                                         named):
    (tmp_path / "cdf.txt").write_text(f"0 0\n{row}\n1 1\n")
    model = "" if descriptor.startswith("model") else "model = latency\n"
    scen = write(tmp_path, f"V = 2.0\n# the descriptor sits on line 3\n{descriptor}\n{model}")
    assert main(["classify", "--scenario", scen, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err
    assert named in err


def test_parse_grid_specs():
    sf = parse_scenario_text("model = latency\nV = 2\na_grid = 0:1:5\n")
    assert sf.a_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ScenarioError):
        parse_scenario_text("model = latency\nV = 2\na_grid = 0:2:5\n")


def test_parse_tabulated_distribution(tmp_path):
    table = tmp_path / "cdf.txt"
    table.write_text("0 0\n0.5 0.8\n1 1\n")
    sf = parse_scenario_text(
        f"model = utilization\nV = 2\ndistribution = tabulated(file={table})\n"
    )
    assert sf.dist.kind == "tabulated"


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def test_fmt_nine_significant_digits():
    assert _fmt(1.0) == "1.0"
    assert _fmt(0.75) == "0.75"
    assert _fmt(1.0 / 3.0) == "0.333333333"
    assert _fmt(-0.0) == "0.0"
    assert _fmt(1234567.891) == "1234567.89"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_classify_command(tmp_path, capsys):
    scen = write(tmp_path, "model = latency\nV = 2.0\ncapacities = 0.3, 0.7\n")
    code = main(["classify", "--scenario", scen, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "MultiplexingPreferred" in out
    assert "Violated" in out
    assert (tmp_path / "classify.csv").exists()


def test_classify_utilization_restricted(tmp_path, capsys):
    scen = write(tmp_path, "model = utilization\nV = 2.0\ncapacities = 0.3, 0.7\n")
    assert main(["classify", "--scenario", scen, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Indifferent" in out
    assert "ConsistentM2 (c.2-restricted sampler)" in out


def test_sweep_command_csv(tmp_path):
    scen = write(tmp_path, UTL_TWO)
    code = main(["sweep", "--scenario", scen, "--out", str(tmp_path),
                 "--objective", "profit", "--grid", "128"])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "a,best_value,argmax_p1,baseline_single"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    # identical pricing equals the merged single class
    assert abs(float(last[1]) - float(last[3])) <= 1e-6


def test_partition_command_closed_form_row(tmp_path):
    scen = write(tmp_path, LAT_SPLIT)
    code = main(["partition", "--scenario", scen, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "partition.csv").read_text().splitlines()
    assert lines[0] == "p,S_single,pi_single,S_split,pi_split"
    row = {line.split(",")[0]: line for line in lines[1:]}
    assert row["1.0"] == "1.0,0.75,0.5,0.5,0.333333333"


def test_probe_command(tmp_path):
    scen = write(tmp_path, UTL_TWO)
    code = main(["probe", "--scenario", scen, "--out", str(tmp_path), "--grid", "10"])
    assert code == 0
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert lines[0] == "p,delta,dS,dpi,case"
    for line in lines[1:]:
        cols = line.split(",")
        assert float(cols[2]) > 0.0 and float(cols[3]) > 0.0
        assert cols[4] in ("M1", "M2")


def test_probe_reads_the_scenario_price_grid(tmp_path):
    scen = write(tmp_path, UTL_TWO.replace("p_grid       = 16", "p_grid = 4"))
    assert main(["probe", "--scenario", scen, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.0", "1.5"]


def test_probe_without_a_price_grid_uses_twenty_intervals(tmp_path):
    scen = write(tmp_path, "model = utilization\nV = 2.0\ncapacities = 0.3, 0.7\n")
    assert main(["probe", "--scenario", scen, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "probe.csv").read_text().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [k / 10 for k in range(1, 20)]


@pytest.mark.parametrize("command,text,line,message", [
    ("partition", "model = latency\nV = 2.0\nsplit = 0, 0\n", 3,
     "split must have a positive part"),
    ("duopoly", "model = utilization\nV = 2.0\nduopoly_cap_ii = 0\nduopoly_cap_i = 0\n", 4,
     "duopoly_cap_i and duopoly_cap_ii must not both be zero"),
])
def test_a_scenario_with_no_capacity_is_an_input_error(tmp_path, capsys, command, text,
                                                      line, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.line == line
    scen = write(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--scenario", scen, "--out", str(out)]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


def test_duopoly_command(tmp_path):
    scen = write(tmp_path, DUO)
    code = main(["duopoly", "--scenario", scen, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "duopoly.csv").read_text().splitlines()
    assert lines[0] == "pI,piI,piII_1class,piII_2class"
    assert len(lines) == 6
    for line in lines[1:]:
        cols = [float(c) for c in line.split(",")]
        assert cols[3] >= cols[2] - 1e-9


def test_exit_code_on_parse_error(tmp_path, capsys):
    scen = write(tmp_path, "model = latency\nV = 2.0\nwhat = 1\n")
    assert main(["classify", "--scenario", scen, "--out", str(tmp_path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_code_on_missing_file(tmp_path):
    assert main(["classify", "--scenario", str(tmp_path / "nope.txt")]) == 2


def test_exit_code_on_empty_a_grid(tmp_path, capsys):
    scen = write(tmp_path, "model = utilization\nV = 2\ncapacities = 0.3, 0.7\na_grid = 1.5\n")
    assert main(["sweep", "--scenario", scen, "--out", str(tmp_path)]) == 2


def test_sweep_requires_two_capacities(tmp_path):
    scen = write(tmp_path, "model = utilization\nV = 2\ncapacities = 1.0\n")
    assert main(["sweep", "--scenario", scen, "--out", str(tmp_path)]) == 2


def test_byte_identical_reruns(tmp_path):
    scen = write(tmp_path, LAT_SPLIT)
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        code = main(["partition", "--scenario", scen, "--out", str(outdir)])
        assert code == 0
        outs.append((outdir / "partition.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["classify", "--grid", "5"],
    ["partition", "--objective", "welfare"],
    ["duopoly", "--tol", "1e-6"],
])
def test_flags_a_command_does_not_read_are_input_errors(tmp_path, argv):
    scen = write(tmp_path, UTL_TWO)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--scenario", scen, "--out", str(tmp_path)] + argv[1:])
    assert exc.value.code == 2


def test_partition_with_a_tiny_outage_class_exits_cleanly(tmp_path):
    # the 3e-5 class's pooled usage overflows a float once the tie level
    # passes ~1.02; the command must fail as a computation, not crash
    scen = write(tmp_path, "model = outage(eps=0.5)\nV = 1.0\nsplit = 0.00003, 0.27, 0.48\n")
    code = main(["partition", "--scenario", scen, "--out", str(tmp_path)])
    assert code in (0, 3)
    assert (tmp_path / "partition.csv").exists() == (code == 0)


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
@pytest.mark.parametrize("command", ["sweep", "partition", "probe", "duopoly"])
def test_grid_below_two_is_an_input_error(tmp_path, capsys, command, grid):
    scen = write(tmp_path, UTL_TWO + "duopoly_cap_i = 1.0\nduopoly_cap_ii = 1.0\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", scen, "--out", str(out), "--grid", grid]) == 2
    assert "--grid" in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("assignment", [
    "tol = nan", "delta = nan", "V = nan", "capacities = 0.4, inf", "split = -inf, 0.3",
    "model = general_latency(delta2=nan)", "distribution = uniform(theta_bar=inf)",
])
def test_non_finite_numbers_are_rejected_with_their_line(tmp_path, capsys, assignment):
    key = assignment.split("=", 1)[0].strip()
    lines = [f"{k} = {v}" for k, v in (("model", "utilization"), ("V", "2.0"),
                                        ("capacities", "0.3, 0.7")) if k != key]
    text = "\n".join(lines) + f"\n{assignment}\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert err.value.line == len(lines) + 1
    assert "finite" in str(err.value)
    scen = write(tmp_path, text)
    assert main(["classify", "--scenario", scen, "--out", str(tmp_path / "out")]) == 2
    assert f"line {len(lines) + 1}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "classify.csv").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_tol_flag_must_be_positive_and_finite(tmp_path, capsys, tol):
    scen = write(tmp_path, UTL_TWO)
    out = tmp_path / "out"
    assert main(["classify", "--scenario", scen, "--out", str(out), f"--tol={tol}"]) == 2
    assert "--tol" in capsys.readouterr().err
    assert not (out / "classify.csv").exists()


def test_unwritable_output_is_an_input_error_naming_the_path(tmp_path, capsys):
    scen = write(tmp_path, UTL_TWO)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["classify", "--scenario", scen, "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    # a directory where the CSV should go makes the write itself fail
    out = tmp_path / "out"
    (out / "classify.csv").mkdir(parents=True)
    assert main(["classify", "--scenario", scen, "--out", str(out)]) == 2
    assert str(out / "classify.csv") in capsys.readouterr().err


_STDLIB_ONLY = """
import sys
sys.modules["scipy"] = sys.modules["numpy"] = None  # importing either now fails
import pmplab.cli
from pmplab import congestion as cg, equilibrium as eqm
brent, calls = eqm._brent, []
eqm._brent = lambda *args: calls.append(1) or brent(*args)
market = eqm.MarketScenario(2.0, (1.0, 0.6, 0.5), cg.latency())
eqm.cutoffs_from_prices(market, (1.4, 0.8, 0.8))  # a tie group: nested bisection
print(len(calls), [name for name, module in sys.modules.items()
                   if name.split(".")[0] in ("scipy", "numpy") and module is not None])
"""


def test_start_up_needs_neither_scipy_nor_numpy():
    """The CLI imports, and a 3-class latency market solves through
    Brent's method, with scipy and numpy unimportable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(pmplab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", _STDLIB_ONLY], env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    brent_calls, loaded = run.stdout.split(" ", 1)
    assert int(brent_calls) > 0
    assert loaded.strip() == "[]"
