"""pmplab benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload monopoly_sweep --seed 0 --seconds 20 --trace 0

The run draws its inputs from ``--seed``, measures set-up time in fresh
processes, then repeats one pass of the workload (every item once) until
``--seconds`` have passed, with at least two passes.  With ``--trace 0`` it
reports the end-to-end metrics with no wrappers installed.  With
``--trace 1`` it runs half the time untraced and half traced (see
``tracing.py``), reports the per-layer metrics and writes the spans under
``.bench_out/``.  ``--record`` stores the first pass's results as the
reference for the seed.

Every run checks its results: all passes agree exactly (so CLI CSVs are
byte-identical across reruns), duopoly splits never lose to one class, and
the reference seed matches ``bench/reference/``.  A traced run also checks
every solved equilibrium with ``validate()`` (to ``tracing.ACCEPTED_RESIDUAL``;
misses of ``validate()``'s own tolerance are counted) and that every layer
the workload exercises was reached.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from bisect import bisect_right
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
REFERENCE_SEED = 0
SETUP_REPS = 5
MIN_PASSES = 2
# one process, no threads: numpy's BLAS pool would otherwise add spinning
# threads to every process that imports pmplab, and their CPU time to cpu_s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

import workloads  # noqa: E402  (bench/ is on sys.path as the script's directory)

# On a shared machine CPU speed can drift by a third within minutes (on a
# shared 2-core VM the same pass of the same seed took 4.2 s and then 6.6 s
# in one process).  Timings are therefore rescaled to a reference speed: a
# fixed pure-Python loop, shaped like the solver's inner loop (calls, float
# arithmetic, a list built and bisected per call), is timed around the
# set-up probes, before the passes and between items once CAL_EVERY_S have
# passed since the last timing, and every time the run reports is
# multiplied by CAL_REF_S / (median loop time).  Timing it through the
# passes, not only between them, makes the median follow the speed the
# passes saw: with one timing per pass, a 17 s duopoly pass was rescaled by
# whatever the machine did in the moment after it.  The loop runs no pmplab
# code, so a change to pmplab cannot move the scale.
CAL_REF_S = 0.12
CAL_EVERY_S = 1.0
_CAL_POINTS = tuple((k / 256, (k / 256) ** 2) for k in range(257))


def _cal_cdf(x):
    xs = [p[0] for p in _CAL_POINTS]
    i = min(bisect_right(xs, x) - 1, len(xs) - 2)
    (x0, f0), (x1, f1) = _CAL_POINTS[i], _CAL_POINTS[i + 1]
    return f0 + (f1 - f0) * (x - x0) / (x1 - x0)


def _calibrate():
    """Seconds the reference loop takes now (about CAL_REF_S at reference speed)."""
    t0 = time.perf_counter()
    for i in range(400):
        lo, hi, target = 0.0, 1.0, ((i * 37) % 101) / 101
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if _cal_cdf(mid) < target:
                lo = mid
            else:
                hi = mid
    return time.perf_counter() - t0


def _setup_seconds(workload, inputs_path, cals):
    """Median time, over fresh processes, to import pmplab and build the inputs."""
    env = workloads.child_env(SRC)
    cals.append(_calibrate())
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, inputs_path],
            capture_output=True, text=True, env=env, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    cals.append(_calibrate())
    return median(times)


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.child_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.csv_bytes = 0
        self.records = {}
        self.checks = []


def _run_pass(items, tracer=None, label="", cals=None):
    """Run every item once; calibration timings taken between items go to
    ``cals`` and are left out of the pass's wall and CPU time."""
    res = PassResult()
    t0, c0 = time.perf_counter(), time.process_time()
    child_cpu = cal_wall = cal_cpu = 0.0
    last_cal = t0
    for item in items:
        if tracer is not None:
            tracer.run = f"{label}/{item.name}"
        out = item.run()
        res.records[item.name] = out.record
        res.attempted += out.attempted
        res.failed += out.failed
        res.csv_bytes += out.csv_bytes
        res.child_rss_kb = max(res.child_rss_kb, out.child_rss_kb)
        child_cpu += out.child_cpu_s
        res.checks.extend(out.checks)
        if cals is not None and time.perf_counter() - last_cal >= CAL_EVERY_S:
            w0, p0 = time.perf_counter(), time.process_time()
            cals.append(_calibrate())
            last_cal = time.perf_counter()
            cal_wall += last_cal - w0
            cal_cpu += time.process_time() - p0
    res.wall = time.perf_counter() - t0 - cal_wall
    res.cpu = time.process_time() - c0 + child_cpu - cal_cpu
    return res


def _run_passes(make_items, seconds, min_passes, cals, tracer=None, tag="pass"):
    passes = []
    start = time.perf_counter()
    cals.append(_calibrate())
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        k = len(passes)
        passes.append(_run_pass(make_items(k), tracer, f"{tag}{k}", cals))
    return passes


def _diff(a, b, path=""):
    """First difference between two canonical records, as text (None if equal)."""
    if type(a) is not type(b):
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}/{key}: present on one side only"
            d = _diff(a[key], b[key], f"{path}/{key}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"


def _reference_path(workload, seed):
    return os.path.join(REFERENCE_DIR, f"{workload}-seed{seed}.json")


def _check_results(workload, seed, passes):
    problems = []
    first = passes[0].records
    for k, res in enumerate(passes):
        problems.extend(res.checks)
        d = _diff(first, res.records)
        if d:
            problems.append(f"pass {k} differs from pass 0 at {d}")
    ref_path = _reference_path(workload, seed)
    if seed == REFERENCE_SEED:
        if not os.path.exists(ref_path):
            problems.append(f"missing reference {os.path.relpath(ref_path, ROOT)}")
        else:
            with open(ref_path) as fh:
                d = _diff(json.load(fh), first)
            if d:
                problems.append(f"result differs from reference at {d}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's results as the seed's reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pmplab", "__init__.py")):
        print(f"pmplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update({var: "1" for var in THREAD_ENV})   # children inherit it

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = workloads.make_inputs(args.workload, args.seed, run_dir)
    inputs_path = os.path.join(run_dir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh)

    cli = args.workload == "cli_tables"
    # untraced CLI passes start one child process per command, as a user does;
    # traced passes call pmplab.cli.main in-process so the wrappers see it
    in_process = not cli or args.trace == 1
    built = workloads.build(args.workload, inputs) if in_process else None

    def make_items(k, tag="pass"):
        pass_dir = os.path.join(run_dir, f"{tag}{k}")
        return workloads.items(args.workload, built, inputs, pass_dir, SRC, in_process)

    cals = []
    if args.trace == 0:
        setup_s = _setup_seconds(args.workload, inputs_path, cals)
        passes = _run_passes(make_items, args.seconds, MIN_PASSES, cals)
        measured = passes
    else:
        import tracing

        half = args.seconds / 2.0
        plain = _run_passes(make_items, half, 1, cals, tag="plain")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            missed = tracer.unwrapped()
            traced = _run_passes(lambda k: make_items(k, "traced"), half, 1, cals,
                                 tracer, "traced")
        finally:
            tracer.uninstall()
        passes = plain + traced
        measured = traced

    scale = CAL_REF_S / median(cals)
    problems = _check_results(args.workload, args.seed, passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if args.trace == 0:
        if cli:
            rss_kb = max(p.child_rss_kb for p in passes)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": median([p.wall for p in passes]) * scale,
            "cpu_s": median([p.cpu for p in passes]) * scale,
            "setup_s": setup_s * scale,
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        if missed:
            problems.append("pmplab modules still bind unwrapped functions: "
                            + ", ".join(missed))
        counts = tracer.layer_counts()
        for layer in tracing.EXERCISED[args.workload]:
            if counts[layer] == 0:
                problems.append(f"traced run never reached {layer}")
        if tracer.broken:
            run, prices, _ = tracer.broken[0]
            worst = max(r for _, _, r in tracer.broken)
            problems.append(f"{len(tracer.broken)} solved equilibria break their orderings or "
                            f"miss {tracing.ACCEPTED_RESIDUAL:g} (worst indifference residual "
                            f"{worst:.3g}), first in {run} at prices {prices}")
        if tracer.invalid:
            run, prices, _ = tracer.invalid[0]
            worst = max(r for _, _, r in tracer.invalid)
            print(f"known defect, counted: {len(tracer.invalid)} solved equilibria are not "
                  f"validate().all_ok (worst indifference residual {worst:.3g}), first in "
                  f"{run} at prices {prices}", file=sys.stderr)
        traced_items = sum(p.attempted for p in traced)
        metrics = tracer.metrics(len(traced), {
            "cli.csv_bytes": median([p.csv_bytes for p in traced]),
            "trace.overhead_s":
                (median([p.wall for p in traced]) - median([p.wall for p in plain])) * scale,
            "bench.passes": len(traced),
            "bench.items": traced_items,
            "bench.failed_frac": sum(p.failed for p in traced) / traced_items,
            "bench.raw_wall_s": median([p.wall for p in plain]),
            "bench.speed_scale": scale,
        })
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.csv.gz"))

    if args.record:
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(_reference_path(args.workload, args.seed), "w") as fh:
            json.dump(passes[0].records, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} items, {failed} failed; "
          f"speed scale {scale:.3f}; raw pass walls "
          + " ".join(f"{p.wall:.3f}" for p in measured), file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
