"""warpsplit benchmark: time to tolerance on three workloads, per-layer spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run measures one workload.  ``--seconds`` is BENCHMARK.json's
run_seconds; the seed fixes the workload's inputs.

Workloads (see workloads.py for how each is generated from the seed):

* ``inclusion-d200``  generated d = 200 box + dense affine problems through
  ``cli.parse_problem`` and ``cli.run_problem`` (parser and matvec heavy).
* ``regression-d6``   the acceptance regression recipe (d = 2..6) through the
  library API, seven solvers per problem (per-call overhead, fejer, policies,
  the contraction inner loop).
* ``coupled-kt``      generated coupled problems through the CLI path
  (per-iteration ``coupled_kernel`` builds, block split/join, affine
  resolvents).

With ``--trace 0`` a run times whole passes over the workload's problems
until ``--seconds`` have passed (a pass is never cut short) and reports
the end-to-end metrics: medians over passes, set-up timed at least five
times, peak memory from a separate tracemalloc pass over the median problem.
Times are reported at reference speed: a fixed raw-numpy loop (floor.py)
is timed before each pass, after each problem (each solve on
regression-d6) and every 0.1 s in between, and the times between two such
reference timings are scaled by the loop's nominal time over its measured
time, so that the drift of a shared core's speed does not read as a change
in the library.  The times as measured and the
speed factors are printed and written next to them to
bench/out/<workload>-seed<N>-end_to_end.json.

With ``--trace 1`` it runs a prefix of the problems in rounds until
``--seconds`` have passed, each problem once with every public function of
the six library modules wrapped in spans and once without, and reports
per-layer metrics over all rounds (wall clock, not rescaled).  Spans and per-layer tables are written under
bench/out/.

Every solve is checked against the problem's embedded analytic solution.
The last line of standard output is one JSON object: correct, attempted,
failed (the solves of this workload in this run) and metrics.

Load comes from this single process; BLAS is pinned to one thread.
"""

from __future__ import annotations

import os

# BLAS must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Set-up is timed at least this many times, and for at least this long.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 1.0

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("solve_s", "s"), ("iterations", "count"),
    ("us_per_iter", "us"), ("peak_mem_mb", "MB"),
]


def import_library():
    """Import warpsplit from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "warpsplit", "__init__.py")):
        sys.exit(f"error: no warpsplit sources under {SRC}")
    sys.path.insert(0, SRC)
    import warpsplit
    if os.path.dirname(os.path.dirname(os.path.abspath(warpsplit.__file__))) != SRC:
        sys.exit(f"error: warpsplit was imported from {warpsplit.__file__}, not {SRC}")
    return warpsplit


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the pinned setting."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _q(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """Highest of p99/p90/p50 with at least ten samples beyond it, as (label, value)."""
    vals = sorted(values)
    for p in (99, 90, 50):
        if len(vals) * (100 - p) / 100 >= 10:
            return f"p{p}", vals[min(len(vals) - 1, int(len(vals) * p / 100))]
    return "max", vals[-1]


def gate(passes, out=print, list_failed=True):
    """Verdict over passes of the same problems; wrong answers and irreproducible runs fail it."""
    first = passes[0]
    ok = True
    for s in first.solves:
        if s.failed and list_failed:
            out(f"  failed: {s.label}: {s.status}, {s.iterations} iterations, gap {s.gap:.3g}")
        if s.silently_wrong:
            out(f"  WRONG ANSWER: {s.label} reported convergence {s.gap:.3g} from the solution")
            ok = False
    if any(p.fingerprint != first.fingerprint for p in passes[1:]):
        out("  NOT REPRODUCIBLE: passes over the same inputs returned different results")
        ok = False
    return ok


def median_problem(p):
    """Index of the problem whose solves took the median total number of iterations."""
    per = {}
    for s in p.solves:
        per[s.problem] = per.get(s.problem, 0) + s.iterations
    ranked = sorted(per, key=lambda k: (per[k], k))
    return ranked[(len(ranked) - 1) // 2]


def peak_memory(wl, problem):
    """tracemalloc peak, in MB, of set-up, solves and artifacts of one problem, from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        wl.run_pass([problem])
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _spread(values):
    lo, hi = _q(values)
    return {"median": statistics.median(values), "q1": lo, "q3": hi, "n": len(values)}


def end_to_end(wl, seconds, stem):
    import floor
    wl.run_pass([0])  # warm-up: first calls into numpy and the library
    passes = []
    setups, raw_setups = [], []
    with floor.Speed() as speed:
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(wl.run_pass(speed=speed))
        setups += [p.setup_s for p in passes]
        while len(setups) < MIN_SETUPS or (sum(setups) < MIN_SETUP_SECONDS and len(setups) < 200):
            interval = wl.setup_only()
            speed.probe()
            scaled, raw = speed.measure(*interval)
            setups.append(scaled)
            raw_setups.append(raw)
    first = passes[0]
    typical = median_problem(first)
    peak_mb = peak_memory(wl, typical)

    solve_times = [s.seconds for p in passes for s in p.solves]
    values = {
        "wall_s": [p.wall_s for p in passes],
        "setup_s": setups,
        "solve_s": [p.solve_s for p in passes],
        "iterations": [first.iterations],
        "us_per_iter": [p.solve_s / p.iterations * 1e6 for p in passes],
    }
    metrics = {}
    for name, unit in END_TO_END[:-1]:
        v = values[name]
        metrics[name] = statistics.median(v)
        lo, hi = _q(v)
        what = "exact, one pass" if name == "iterations" else f"median of {len(v)}"
        print(f"  {name:<12} {metrics[name]:>14.6g} {unit:<5} {what}, q1 {lo:.6g}, q3 {hi:.6g}")
    metrics["peak_mem_mb"] = peak_mb
    print(f"  {'peak_mem_mb':<12} {peak_mb:>14.6g} {'MB':<5} tracemalloc peak of the median problem "
          f"by iterations (#{typical}), separate pass")
    failed = sum(s.failed for s in first.solves)
    attempted = len(first.solves)
    print(f"  {'failed_frac':<12} {failed / attempted:>14.6g} {'ratio':<5} {failed}/{attempted} solves per pass")
    measured = {
        "passes": len(passes),
        "wall_s": _spread([p.raw_wall_s for p in passes]),
        "solve_s": _spread([p.raw_solve_s for p in passes]),
        "setup_s": _spread([p.raw_setup_s for p in passes] + raw_setups),
        "speed_factor": _spread(speed.factors),
    }
    print(f"  times above are at reference speed; as measured: wall_s median "
          f"{measured['wall_s']['median']:.6g} s, solve_s median {measured['solve_s']['median']:.6g} s "
          f"over {len(passes)} passes; speed factor median {measured['speed_factor']['median']:.3f} "
          f"(q1 {measured['speed_factor']['q1']:.3f}, q3 {measured['speed_factor']['q3']:.3f}) over "
          f"{len(speed.factors)} reference timings")
    label, tail = _tail(solve_times)
    print(f"  per-solve wall clock: median {statistics.median(solve_times) * 1e3:.3f} ms, {label} "
          f"{tail * 1e3:.3f} ms over {len(solve_times)} solves in {len(passes)} passes")
    with open(stem + "-end_to_end.json", "w", encoding="utf-8") as fh:
        json.dump({"reference_speed": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
                   "failed_frac": failed / attempted, "as_measured": measured}, fh, indent=1)
    ok = gate(passes)
    return ok, attempted, failed, {k: (metrics[k], unit) for k, unit in END_TO_END}


def interleaved(wl, n, tracer, on_solve):
    """Untraced and traced passes over the first n problems, run problem by problem.

    Each problem runs once without and once with the spans installed, the
    order alternating between problems, so that a drift of the core's speed
    falls on both passes alike and trace.overhead_x measures the wrappers.
    """
    import spans
    from workloads import Pass
    untraced, traced = Pass(), Pass()
    for k in range(n):
        for with_spans in (False, True) if k % 2 == 0 else (True, False):
            if with_spans:
                with spans.installed(tracer):
                    traced.extend(wl.run_pass([k], keep=True, on_solve=on_solve))
            else:
                untraced.extend(wl.run_pass([k], keep=True))
    return untraced, traced


def floor_overhead(wl, untraced):
    """Library weak solves over the raw-numpy loop on the same problems, or None without a floor."""
    import floor
    replays = wl.floor_solves(untraced.solves)
    if not replays:
        print("  raw-numpy floor: none for this workload")
        return True, None
    worst = 0.0
    lib_s = floor_s = 0.0
    for s in replays:
        inputs, library_call = wl.floor_case(s)
        worst = max(worst, floor.check(inputs, s.result))
        loop_t, library_t = floor.timed_pair(inputs, library_call)
        floor_s += loop_t
        lib_s += library_t
    if worst > floor.FLOOR_TOL:
        print(f"  FLOOR MISMATCH: raw-numpy iterates differ from the library trace by {worst:.3g}")
        return False, None
    iters = sum(s.iterations for s in replays)
    overhead_x = lib_s / floor_s
    print(f"  raw-numpy floor: {floor_s / iters * 1e6:.2f} us/iter vs library weak "
          f"{lib_s / iters * 1e6:.2f} us/iter = {overhead_x:.2f}x (algorithms.weak.overhead_x) "
          f"over {len(replays)} solves (iterates agree to {worst:.1e})")
    return True, {"algorithms.weak.floor_us_per_iter": floor_s / iters * 1e6,
                  "algorithms.weak.overhead_x": overhead_x}


def per_layer(wl, seconds, stem):
    import layers
    import spans
    from workloads import TRACE_PREFIX
    n = TRACE_PREFIX[wl.name]
    wl.run_pass([0])  # warm-up
    tracer = spans.Tracer()
    counts = layers.CountCheck(tracer)
    t0 = time.perf_counter()
    untraced, traced = interleaved(wl, n, tracer, counts)
    floor_ok, floor_metrics = floor_overhead(wl, untraced)
    rounds = 1
    while time.perf_counter() - t0 < seconds:
        more_untraced, more_traced = interleaved(wl, n, tracer, counts)
        untraced.extend(more_untraced)
        traced.extend(more_traced)
        rounds += 1
    ok = floor_ok and gate([untraced], list_failed=False)
    if traced.fingerprint != untraced.fingerprint:
        print("  TRACED RESULTS DIFFER from the untraced pass")
        ok = False
    if tracer.stack or tracer.outer_calls(spans.SOLVER_FAMILY) != len(traced.solves):
        print("  SPAN TREE BROKEN: open spans left, or not one outermost solver span per solve")
        ok = False

    per = layers.metrics(tracer, untraced, traced)
    print(f"  traced pass: {len(traced.solves)} solves, {rounds} rounds over the first {n} problems, "
          f"{traced.iterations} iterations, {len(tracer.raw)} spans kept of {tracer.next_id}")
    for line in counts.lines():
        print(f"  self-check: {line}" + ("" if counts.all_match else "  (differs from today's counts)"))
    for line in layers.rows(tracer, traced, wl.bytes_per_file):
        print("    " + line)
    for name, (value, unit) in per.items():
        print(f"  {name:<50} {value:>12.6g} {unit}")
    tracer.write(stem + "-spans.csv")
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        out = {k: {"value": v, "unit": u} for k, (v, u) in per.items()}
        for k, v in (floor_metrics or {}).items():
            out[k] = {"value": v, "unit": "ratio" if k.endswith("_x") else "us"}
        json.dump(out, fh, indent=1)
    return ok, len(traced.solves), sum(s.failed for s in traced.solves), per


def main(argv=None):
    import_library()
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        print(f"[{wl.name}] seed {args.seed}: {wl.describe()}")
        print(f"[{wl.name}] inputs sha256 {wl.inputs_sha256}")
        if args.trace == 0:
            print(f"[{wl.name}] end to end (tracing off)")
            correct, attempted, failed, got = end_to_end(wl, args.seconds, stem)
        else:
            print(f"[{wl.name}] per layer (traced pass)")
            correct, attempted, failed, got = per_layer(wl, args.seconds, stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in got.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
