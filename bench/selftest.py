"""Self-tests of the benchmark: smoke runs through the gate, tracing changes nothing.

    python3 bench/selftest.py

Runs in well under a minute on small prefixes of each workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run

run.import_library()

import numpy as np  # noqa: E402

import floor  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from warpsplit import algorithms, kernels  # noqa: E402

SMOKE_SIZES = {"inclusion-d200": 1, "regression-d6": 2, "coupled-kt": 2}


def _workload(name, workdir, seed=3):
    return workloads.make(name, seed, workdir, size=SMOKE_SIZES[name])


def test_smoke_runs_pass_the_gate(workdir):
    for name in workloads.WORKLOADS:
        wl = _workload(name, workdir)
        p = wl.run_pass()
        assert p.solves and p.iterations > 0 and p.wall_s >= p.solve_s > 0, name
        assert not any(s.silently_wrong for s in p.solves), name
        assert run.gate([p, wl.run_pass()], lambda line: None), f"{name}: rerun differs"
        for s in p.solves:
            # solve_strong's known failures (cap, false infeasibility) are counted,
            # never hidden; every other solver must reach the embedded solution.
            if s.solver != "strong":
                assert not s.failed, s


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER


def test_regression_recipe_matches_the_acceptance_suite():
    tests = os.path.join(run.ROOT, "tests")
    if not os.path.isfile(os.path.join(tests, "test_acceptance.py")):
        return
    sys.path.insert(0, tests)
    from test_acceptance import seeded_affine_box_problem
    for seed in range(100, 110):
        A, B, x0, z = seeded_affine_box_problem(seed, max_dim=6)
        a = workloads.regression_arrays(seed)
        assert np.array_equal(a["x0"], x0) and np.array_equal(a["z"], z)
        probe = np.linspace(-1.0, 1.0, z.shape[0])
        assert np.array_equal(a["M"] @ probe + a["b"], B(probe))


def test_regression_list_is_stratified_on_dimension():
    wl = workloads.make("regression-d6", 11, None, size=10)
    dims = [a["z"].shape[0] for a in wl.arrays]
    assert dims == [6, 5, 4, 3, 2, 6, 5, 4, 3, 2]
    again = workloads.make("regression-d6", 11, None, size=10)
    assert again.inputs_sha256 == wl.inputs_sha256


def test_traced_pass_is_bit_identical_and_counts_check(workdir):
    for name in workloads.WORKLOADS:
        wl = _workload(name, workdir)
        tracer = spans.Tracer()
        counts = layers.CountCheck(tracer)
        untraced, traced = run.interleaved(wl, wl.size, tracer, counts)
        assert traced.fingerprint == untraced.fingerprint, name
        assert not tracer.stack, name
        assert tracer.outer_calls(spans.SOLVER_FAMILY) == len(traced.solves), name
        assert counts.all_match, (name, counts.lines())
        per = layers.metrics(tracer, untraced, traced)
        assert [k for k in per] == [k for k, _ in layers.PER_LAYER]
        assert per["kernels.eval.calls_per_iter"][0] > 0, name
    assert algorithms.solve_weak.__name__ == "solve_weak", "wrappers left installed"
    assert kernels.Kernel.eval.__name__ == "eval", "wrappers left installed"


def test_speed_probes_leave_results_unchanged(workdir):
    wl = _workload("regression-d6", workdir)
    plain = wl.run_pass()
    with floor.Speed() as speed:
        probed = wl.run_pass(speed=speed)
    assert probed.fingerprint == plain.fingerprint
    # The interval timer also probes inside solver calls.
    assert len(speed.probes) > len(probed.solves) + 1, len(speed.probes)
    assert 0 < probed.raw_solve_s <= probed.raw_wall_s and probed.solve_s > 0


def test_floor_replays_the_library_iterates(workdir):
    for name in ("inclusion-d200", "regression-d6"):
        wl = _workload(name, workdir)
        p = wl.run_pass(keep=True)
        replays = wl.floor_solves(p.solves)
        assert replays, name
        for s in replays:
            assert floor.check(wl.floor_case(s)[0], s.result) <= floor.FLOOR_TOL, s.label


def main():
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    failures = 0
    try:
        for name, fn in sorted(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                fn(workdir) if fn.__code__.co_argcount else fn()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
