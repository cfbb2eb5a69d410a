"""In-memory tracing of pmplab's public functions, from outside the package.

``Tracer.install()`` rebinds every public function listed in ``SPANNED`` in
every loaded ``pmplab`` module that binds it by name (``monopoly``,
``duopoly`` and ``cli`` import several of them with ``from ... import``), so
no caller keeps the bare function.  A wrapped call records one span::

    (span id, name, start, end, parent span id, run id, ok, note)

Times are ``time.perf_counter()`` seconds; the parent is the innermost
wrapped call still open (-1 at the top); the run id names the benchmark
item that made the call; ``ok`` is False when the call raised; ``note``
carries a small per-call fact read from the arguments or the result (tie
or distinct prices, best-response mode, Nash rounds, ...).

The hot leaf methods in ``COUNTED`` are counted, not timed, to keep the
overhead small.  Spans stay in memory until ``write()``; ``uninstall()``
puts every original back.  Untraced runs never create a ``Tracer``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped with a span
SPANNED = (
    ("congestion", "classify_scaling"),
    ("congestion", "global_monotone"),
    ("equilibrium", "cutoffs_from_prices"),
    ("equilibrium", "prices_from_cutoffs"),
    ("equilibrium", "validate"),
    ("monopoly", "ratio_sweep"),
    ("monopoly", "maximize_free_prices"),
    ("monopoly", "local_improvement_probe"),
    ("monopoly", "partition_comparison"),
    ("duopoly", "market_equilibrium"),
    ("duopoly", "best_response_I"),
    ("duopoly", "best_response_II"),
    ("duopoly", "duopoly_curve"),
    ("duopoly", "find_nash"),
    ("scenario", "parse_scenario"),
    ("cli", "main"),
)

# (module, class, method) triples that are only counted
COUNTED = (
    ("congestion", "CongestionModel", "evaluate"),
    ("congestion", "CongestionModel", "usage_at_level"),
    ("population", "TypeDistribution", "cdf"),
    ("population", "TypeDistribution", "quantile"),
    ("population", "TypeDistribution", "density"),
)

# per-layer metrics in report order: name -> unit
LAYER_UNITS = {
    "congestion.usage_at_level.calls": "count",
    "congestion.evaluate.calls": "count",
    "congestion.classify_scaling.ms": "ms",
    "congestion.global_monotone.ms": "ms",
    "population.cdf.calls": "count",
    "population.quantile.calls": "count",
    "population.density.calls": "count",
    "population.cdf.per_solve": "count/solve",
    "equilibrium.cutoffs_from_prices.calls": "count",
    "equilibrium.cutoffs_from_prices.self_s": "s",
    "equilibrium.cutoffs_from_prices.p50_us": "us",
    "equilibrium.cutoffs_from_prices.p90_us": "us",
    "equilibrium.cutoffs_from_prices.fail_frac": "frac",
    "equilibrium.cutoffs_from_prices.tie_share": "frac",
    "equilibrium.cutoffs_from_prices.tie_p50_us": "us",
    "equilibrium.cutoffs_from_prices.distinct_p50_us": "us",
    "equilibrium.cutoffs_from_prices.invalid": "count",
    "equilibrium.prices_from_cutoffs.calls": "count",
    "equilibrium.prices_from_cutoffs.p50_us": "us",
    "equilibrium.validate.self_s": "s",
    "monopoly.ratio_sweep.self_s": "s",
    "monopoly.ratio_sweep.solves_per_ratio": "count",
    "monopoly.ratio_sweep.skipped_frac": "frac",
    "monopoly.maximize_free_prices.s": "s",
    "monopoly.maximize_free_prices.forward_calls": "count",
    "monopoly.local_improvement_probe.p50_ms": "ms",
    "monopoly.partition_comparison.p50_ms": "ms",
    "duopoly.market_equilibrium.calls": "count",
    "duopoly.market_equilibrium.p50_us": "us",
    "duopoly.market_equilibrium.fail_frac": "frac",
    "duopoly.best_response_II.two_s": "s",
    "duopoly.best_response_II.two_solves": "count",
    "duopoly.best_response_II.one_ms": "ms",
    "duopoly.best_response_I.ms": "ms",
    "duopoly.duopoly_curve.point_s": "s",
    "duopoly.find_nash.s": "s",
    "duopoly.find_nash.rounds": "count",
    "scenario.parse_scenario.ms": "ms",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "bench.passes": "count",
    "bench.items": "count",
    "bench.failed_frac": "frac",
    "bench.raw_wall_s": "s",
    "bench.speed_scale": "ratio",
}

# A solved equilibrium must keep validate()'s cutoff ordering, and meet its
# indifference equations and level ordering to within ACCEPTED_RESIDUAL: the
# bound cutoffs_from_prices itself enforces on the indifference residuals
# before it returns.  One inside that bound but outside validate()'s own
# 1e-9, so not all_ok, is a known solver defect (near-empty classes in
# utilization_default duopolies): counted and reported, not a failed check.
ACCEPTED_RESIDUAL = 1e-7

# layers each workload must show as nonzero in its traced run: a zero here
# means a binding was missed (or the workload stopped reaching the layer)
EXERCISED = {
    "monopoly_sweep": (
        "congestion.evaluate", "population.cdf", "population.quantile",
        "equilibrium.cutoffs_from_prices", "equilibrium.prices_from_cutoffs",
        "equilibrium.validate", "monopoly.ratio_sweep", "monopoly.maximize_free_prices",
        "monopoly.local_improvement_probe",
    ),
    "duopoly_split": (
        "congestion.evaluate", "population.cdf", "population.quantile",
        "equilibrium.cutoffs_from_prices", "equilibrium.validate",
        "duopoly.market_equilibrium", "duopoly.best_response_I",
        "duopoly.best_response_II", "duopoly.duopoly_curve", "duopoly.find_nash",
    ),
    "cli_tables": (
        "congestion.evaluate", "congestion.usage_at_level", "congestion.classify_scaling",
        "congestion.global_monotone", "population.cdf", "population.quantile",
        "equilibrium.cutoffs_from_prices", "equilibrium.prices_from_cutoffs",
        "equilibrium.validate", "monopoly.partition_comparison",
        "monopoly.local_improvement_probe", "scenario.parse_scenario", "cli.main",
    ),
}


def _pmplab_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pmplab" or name.startswith("pmplab."))]


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments
    return bind


def _note_factories():
    """Per-function note makers: (args, kwargs, result) -> small value."""
    from pmplab import duopoly, monopoly

    sweep_args = _bound(monopoly.ratio_sweep)
    br2_args = _bound(duopoly.best_response_II)

    def cutoffs_note(args, kwargs, _result):
        prices = list(args[1] if len(args) > 1 else kwargs["prices"])
        return "tie" if any(a == b for a, b in zip(prices, prices[1:])) else "distinct"

    def sweep_note(args, kwargs, result):
        grid = sweep_args(args, kwargs)["grid"]
        return (len(result.points), grid, sum(pt.skipped for pt in result.points))

    return {
        "equilibrium.cutoffs_from_prices": cutoffs_note,
        "monopoly.ratio_sweep": sweep_note,
        "duopoly.best_response_II": lambda a, k, _r: br2_args(a, k)["mode"],
        "duopoly.duopoly_curve": lambda _a, _k, r: len(r),
        "duopoly.find_nash": lambda _a, _k, r: r.rounds,
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        # (run id, prices, worst residual) of solved equilibria not validate().all_ok,
        # and the subset also outside ACCEPTED_RESIDUAL or the orderings
        self.invalid = []
        self.broken = []
        self.run = ""
        self._stack = []
        self._patches = []

    # -- installing -----------------------------------------------------------

    def install(self):
        import importlib

        for mod in ("congestion", "population", "equilibrium", "monopoly", "duopoly",
                    "scenario", "cli"):
            importlib.import_module(f"pmplab.{mod}")
        from pmplab import equilibrium

        notes = _note_factories()
        self._validate = equilibrium.validate
        for mod, fn_name in SPANNED:
            original = getattr(sys.modules[f"pmplab.{mod}"], fn_name)
            name = f"{mod}.{fn_name}"
            self._rebind(original, self._span(name, original, notes.get(name)))
        for mod, cls_name, meth in COUNTED:
            cls = getattr(sys.modules[f"pmplab.{mod}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._counter(f"{mod}.{meth}", original))

    def _rebind(self, original, wrapper):
        for mod in _pmplab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def unwrapped(self):
        """Names of wrapped functions some pmplab module still binds bare."""
        originals = {id(orig) for _owner, _attr, orig in self._patches}
        return [f"{mod.__name__}.{attr}" for mod in _pmplab_modules()
                for attr, value in vars(mod).items() if id(value) in originals]

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, note_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # a solve's note reads only its prices, so failed solves get one too
        is_solve = name == "equilibrium.cutoffs_from_prices"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok, result = False, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                note = note_of(args, kwargs, result) if note_of and (ok or is_solve) else None
                spans[sid] = (sid, name, t0, t1, parent, self.run, ok, note)
                if is_solve and ok:
                    self._check_solve(args, kwargs, result)
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _check_solve(self, args, kwargs, eq):
        scenario = args[0] if args else kwargs["scenario"]
        report = self._validate(scenario, eq)
        if not report.all_ok:
            worst = max(abs(r) for r in report.c3_residuals)
            miss = (self.run, tuple(eq.prices), worst)
            self.invalid.append(miss)
            if not (report.c1_ok and report.c2_violation <= ACCEPTED_RESIDUAL
                    and worst <= ACCEPTED_RESIDUAL):
                self.broken.append(miss)

    # -- output ---------------------------------------------------------------

    def write(self, path):
        """Spans as gzip'd CSV: id,name,start_s,end_s,parent,run,ok,note."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent,run,ok,note\n")
            for sid, name, t0, t1, parent, run, ok, note in self.spans:
                note_text = "" if note is None else str(note).replace(",", ";")
                fh.write(f"{sid},{name},{t0!r},{t1!r},{parent},{run},{int(ok)},{note_text}\n")

    def layer_counts(self):
        """Calls per layer name (spans and counted methods together)."""
        counts = Counter(self.counts)
        for span in self.spans:
            counts[span[1]] += 1
        return counts

    def metrics(self, passes, run_values):
        """Per-layer metrics, per traced pass where they are totals.

        ``run_values`` holds the metrics the runner measures itself
        (``trace.*``, ``cli.csv_bytes`` and ``bench.*``).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        by_name = defaultdict(list)
        for s in spans:
            by_name[s[1]].append(s)
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]

        def durs(name, pred=None):
            return [s[3] - s[2] for s in by_name[name] if pred is None or pred(s)]

        def med(values, scale=1.0):
            return statistics.median(values) * scale if values else 0.0

        def pct(values, q, scale=1.0):
            if len(values) < 2:
                return med(values, scale)
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * scale

        def self_s(name):
            return sum(s[3] - s[2] - child[s[0]] for s in by_name[name]) / passes

        def calls(name):
            return len(by_name[name])

        def fail_frac(name):
            n = calls(name)
            return sum(1 for s in by_name[name] if not s[6]) / n if n else 0.0

        def under(child_name, anc_name, anc_pred=None):
            """Calls of child_name made inside a span of anc_name."""
            total = 0
            for s in by_name[child_name]:
                p = s[4]
                while p >= 0:
                    anc = spans[p]
                    if anc[1] == anc_name and (anc_pred is None or anc_pred(anc)):
                        total += 1
                        break
                    p = anc[4]
            return total

        solve = "equilibrium.cutoffs_from_prices"
        n_solves = calls(solve)
        sweeps = [s for s in by_name["monopoly.ratio_sweep"] if s[6]]
        ratios = sum(s[7][0] for s in sweeps)
        sweep_points = sum(s[7][0] * (s[7][1] + 1) for s in sweeps)
        two = [s for s in by_name["duopoly.best_response_II"] if s[7] == "two"]
        curves = [s for s in by_name["duopoly.duopoly_curve"] if s[6]]
        nash = [s for s in by_name["duopoly.find_nash"] if s[6]]
        free_calls = calls("monopoly.maximize_free_prices")

        values = {
            "congestion.usage_at_level.calls": self.counts["congestion.usage_at_level"] / passes,
            "congestion.evaluate.calls": self.counts["congestion.evaluate"] / passes,
            "congestion.classify_scaling.ms": med(durs("congestion.classify_scaling"), 1e3),
            "congestion.global_monotone.ms": med(durs("congestion.global_monotone"), 1e3),
            "population.cdf.calls": self.counts["population.cdf"] / passes,
            "population.quantile.calls": self.counts["population.quantile"] / passes,
            "population.density.calls": self.counts["population.density"] / passes,
            "population.cdf.per_solve":
                self.counts["population.cdf"] / n_solves if n_solves else 0.0,
            f"{solve}.calls": n_solves / passes,
            f"{solve}.self_s": self_s(solve),
            f"{solve}.p50_us": med(durs(solve), 1e6),
            f"{solve}.p90_us": pct(durs(solve), 90, 1e6),
            f"{solve}.fail_frac": fail_frac(solve),
            f"{solve}.tie_share":
                sum(1 for s in by_name[solve] if s[7] == "tie") / n_solves if n_solves else 0.0,
            f"{solve}.tie_p50_us": med(durs(solve, lambda s: s[7] == "tie"), 1e6),
            f"{solve}.distinct_p50_us": med(durs(solve, lambda s: s[7] == "distinct"), 1e6),
            f"{solve}.invalid": len(self.invalid) / passes,
            "equilibrium.prices_from_cutoffs.calls":
                calls("equilibrium.prices_from_cutoffs") / passes,
            "equilibrium.prices_from_cutoffs.p50_us":
                med(durs("equilibrium.prices_from_cutoffs"), 1e6),
            "equilibrium.validate.self_s": self_s("equilibrium.validate"),
            "monopoly.ratio_sweep.self_s": self_s("monopoly.ratio_sweep"),
            "monopoly.ratio_sweep.solves_per_ratio":
                under(solve, "monopoly.ratio_sweep") / ratios if ratios else 0.0,
            "monopoly.ratio_sweep.skipped_frac":
                sum(s[7][2] for s in sweeps) / sweep_points if sweep_points else 0.0,
            "monopoly.maximize_free_prices.s": med(durs("monopoly.maximize_free_prices")),
            "monopoly.maximize_free_prices.forward_calls":
                under("equilibrium.prices_from_cutoffs", "monopoly.maximize_free_prices")
                / free_calls if free_calls else 0.0,
            "monopoly.local_improvement_probe.p50_ms":
                med(durs("monopoly.local_improvement_probe"), 1e3),
            "monopoly.partition_comparison.p50_ms":
                med(durs("monopoly.partition_comparison"), 1e3),
            "duopoly.market_equilibrium.calls": calls("duopoly.market_equilibrium") / passes,
            "duopoly.market_equilibrium.p50_us": med(durs("duopoly.market_equilibrium"), 1e6),
            "duopoly.market_equilibrium.fail_frac": fail_frac("duopoly.market_equilibrium"),
            "duopoly.best_response_II.two_s": med([s[3] - s[2] for s in two]),
            "duopoly.best_response_II.two_solves":
                under(solve, "duopoly.best_response_II", lambda s: s[7] == "two") / len(two)
                if two else 0.0,
            "duopoly.best_response_II.one_ms":
                med(durs("duopoly.best_response_II", lambda s: s[7] == "one"), 1e3),
            "duopoly.best_response_I.ms": med(durs("duopoly.best_response_I"), 1e3),
            "duopoly.duopoly_curve.point_s":
                sum(s[3] - s[2] for s in curves) / sum(s[7] for s in curves) if curves else 0.0,
            "duopoly.find_nash.s": med([s[3] - s[2] for s in nash]),
            "duopoly.find_nash.rounds": med([s[7] for s in nash]),
            "scenario.parse_scenario.ms": med(durs("scenario.parse_scenario"), 1e3),
            "cli.main.self_s": self_s("cli.main"),
            **run_values,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_UNITS.items()}
