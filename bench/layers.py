"""Per-layer metrics of one traced pass, and the span-count self-checks.

``PER_LAYER`` lists the metrics BENCHMARK.json names; every workload reports
all of them, so each is defined on every workload.  A time of a function
that only some workloads call is given as its share of the pass's solve (or
set-up, or wall) time, and a count as calls per iteration: both are a
measured 0 where the function is not called.  Per-call times are given only
for functions every workload calls, and ratios whose denominator some
workload lacks (the raw-numpy floor's overhead, which coupled-kt has no
floor for) are printed and written out, not reported.  ``rows`` prints the
per-call times of every traced name for the workloads that call it.
"""

from __future__ import annotations

SOLVERS = ("algorithms.weak", "algorithms.strong", "algorithms.fbf",
           "algorithms.tseng", "algorithms.coupled")

PER_LAYER = [
    ("space.check_finite.calls_per_iter", "count"),
    ("space.check_finite.us_per_call", "us"),
    ("space.check_dim.calls_per_iter", "count"),
    ("space.block_split_join.calls_per_iter", "count"),
    ("space.linear_map.calls_per_iter", "count"),
    ("operators.resolvent.calls_per_iter", "count"),
    ("operators.resolvent.us_per_call", "us"),
    ("operators.resolvent.affine.solve_share", "ratio"),
    ("operators.single_valued.calls_per_iter", "count"),
    ("operators.single_valued.us_per_call", "us"),
    ("operators.single_valued.affine_map.solve_share", "ratio"),
    ("operators.single_valued.kt_forward.solve_share", "ratio"),
    ("kernels.eval.calls_per_iter", "count"),
    ("kernels.eval.us_per_call", "us"),
    ("kernels.backward_solve.us_per_call", "us"),
    ("kernels.solve_base_inclusion.resolvents_per_call", "count"),
    ("kernels.coupled_kernel.builds_per_iter", "count"),
    ("kernels.coupled_kernel.solve_share", "ratio"),
    ("kernels.fbf_kernel.builds_per_iter", "count"),
    ("fejer.haugazeau_Q.calls_per_iter", "count"),
    ("fejer.haugazeau_Q.infeasible_calls", "count"),
    ("fejer.haugazeau_Q.solve_share", "ratio"),
    ("algorithms.weak.self_us_per_iter", "us"),
    ("algorithms.engine.self_us_per_iter", "us"),
    ("algorithms.apply_policy.us_per_call", "us"),
    ("algorithms.idle_cut_frac", "ratio"),
    ("cli.parse_text.setup_share", "ratio"),
    ("cli.problem_file.setup_share", "ratio"),
    ("cli.write.wall_share", "ratio"),
    ("trace.overhead_x", "ratio"),
]


def _div(a, b):
    return a / b if b else 0.0


def _per_call_us(tracer, prefix):
    calls, seconds = tracer.family_totals(prefix)
    return _div(seconds * 1e6, calls)


def _inclusive(tracer, name):
    return sum(r[1] for _, r in tracer.named(name))


def _self(tracer, name):
    return sum(r[2] for _, r in tracer.named(name))


def _solver_iterations(p, kind):
    """Iterations run by ``solve_<kind>``; a coupled solve runs solve_weak underneath."""
    return sum(s.iterations for s in p.solves
               if s.solver == kind or (kind == "weak" and s.solver == "coupled"))


class CountCheck:
    """Compares span counts per solve with counts known from the results.

    Today every weak/strong iteration evaluates the kernel twice, and a
    coupled CLI problem builds ``coupled_kernel`` once at parse and once per
    iteration.  A change to the library may change these on purpose, so a
    mismatch is reported, not treated as a wrong answer.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.last = self._now()
        self.eval = [0, 0]       # solves matching, solves checked
        self.builds = [0, 0]

    def _now(self):
        return self.tracer.calls("kernels.eval"), self.tracer.calls("kernels.coupled_kernel")

    def __call__(self, solve):
        now = self._now()
        d_eval, d_builds = now[0] - self.last[0], now[1] - self.last[1]
        self.last = now
        if solve.solver in ("weak", "strong", "coupled"):
            self.eval[0] += d_eval == 2 * solve.iterations
            self.eval[1] += 1
        if solve.solver == "coupled":
            self.builds[0] += d_builds == solve.iterations + 1
            self.builds[1] += 1

    def lines(self):
        checks = [
            (self.eval, "kernels.eval = 2 x iterations", "weak/strong/coupled solves"),
            (self.builds, "kernels.coupled_kernel = iterations + 1", "coupled problems"),
        ]
        return [f"{what} on {ok}/{n} {of}" for (ok, n), what, of in checks if n]

    @property
    def all_match(self):
        return self.eval[0] == self.eval[1] and self.builds[0] == self.builds[1]


def metrics(tracer, untraced, traced):
    """The PER_LAYER values for one traced pass."""
    iters = traced.iterations
    solve_s = traced.solve_s
    weak_iters = _solver_iterations(traced, "weak")
    returned_iters = sum(s.iterations for s in traced.solves if not s.raised)
    t = tracer
    v = {
        "space.check_finite.calls_per_iter": _div(t.calls("space.check_finite"), iters),
        "space.check_finite.us_per_call": _per_call_us(t, "space.check_finite"),
        "space.check_dim.calls_per_iter": _div(t.calls("space.check_dim"), iters),
        "space.block_split_join.calls_per_iter": _div(t.calls("space.block_split_join"), iters),
        "space.linear_map.calls_per_iter": _div(t.calls("space.linear_map"), iters),
        "operators.resolvent.calls_per_iter": _div(t.family_totals("operators.resolvent")[0], iters),
        "operators.resolvent.us_per_call": _per_call_us(t, "operators.resolvent"),
        "operators.resolvent.affine.solve_share": _div(_inclusive(t, "operators.resolvent.affine"), solve_s),
        "operators.single_valued.calls_per_iter": _div(t.family_totals("operators.single_valued")[0], iters),
        "operators.single_valued.us_per_call": _per_call_us(t, "operators.single_valued"),
        "operators.single_valued.affine_map.solve_share":
            _div(_inclusive(t, "operators.single_valued.affine_map"), solve_s),
        "operators.single_valued.kt_forward.solve_share":
            _div(_inclusive(t, "operators.single_valued.kt_forward"), solve_s),
        "kernels.eval.calls_per_iter": _div(t.calls("kernels.eval"), iters),
        "kernels.eval.us_per_call": _per_call_us(t, "kernels.eval"),
        "kernels.backward_solve.us_per_call": _per_call_us(t, "kernels.backward_solve"),
        "kernels.solve_base_inclusion.resolvents_per_call": _div(
            t.edge(["kernels.solve_base_inclusion"], "operators.resolvent")[0],
            t.calls("kernels.solve_base_inclusion")),
        "kernels.coupled_kernel.builds_per_iter": _div(t.edge(SOLVERS, "kernels.coupled_kernel")[0], iters),
        "kernels.coupled_kernel.solve_share": _div(t.edge(SOLVERS, "kernels.coupled_kernel")[1], solve_s),
        "kernels.fbf_kernel.builds_per_iter": _div(t.edge(SOLVERS, "kernels.fbf_kernel")[0], iters),
        "fejer.haugazeau_Q.calls_per_iter": _div(t.calls("fejer.haugazeau_Q"), iters),
        "fejer.haugazeau_Q.infeasible_calls": sum(r[3] for _, r in t.named("fejer.haugazeau_Q")),
        "fejer.haugazeau_Q.solve_share": _div(_inclusive(t, "fejer.haugazeau_Q"), solve_s),
        "algorithms.weak.self_us_per_iter": _div(_self(t, "algorithms.weak") * 1e6, weak_iters),
        "algorithms.engine.self_us_per_iter": _div(sum(_self(t, s) for s in SOLVERS) * 1e6, iters),
        "algorithms.apply_policy.us_per_call": _per_call_us(t, "algorithms.apply_policy"),
        "algorithms.idle_cut_frac": _div(sum(s.idle for s in traced.solves), returned_iters),
        "cli.parse_text.setup_share": _div(_inclusive(t, "cli.parse_text"), traced.setup_s),
        "cli.problem_file.setup_share": _div(_inclusive(t, "cli.problem_file"), traced.setup_s),
        "cli.write.wall_share": _div(
            _inclusive(t, "cli.write_trace") + _inclusive(t, "cli.write_summary"), traced.wall_s),
        "trace.overhead_x": _div(traced.solve_s, untraced.solve_s),
    }
    return {name: (v[name], unit) for name, unit in PER_LAYER}


def rows(tracer, traced, bytes_per_file):
    """Human-readable rows: every traced name that was called, per call and per iteration."""
    iters = traced.iterations
    out = [f"{'span':<44} {'calls':>9} {'/iter':>8} {'us/call':>10} {'self us/call':>13}"]
    for name in sorted(tracer.index):
        calls, total, self_t = tracer.stats[tracer.index[name]][:3]
        if not calls:
            continue
        out.append(f"{name:<44} {calls:>9} {calls / iters:>8.3f} {total / calls * 1e6:>10.2f} "
                   f"{self_t / calls * 1e6:>13.2f}")
    for solver in SOLVERS:
        it = _solver_iterations(traced, solver.split(".")[1])
        if it and tracer.calls(solver):
            out.append(f"{solver + '.self_us_per_iter':<44} {_self(tracer, solver) * 1e6 / it:>10.2f} us"
                       f"  ({it} iterations)")
    parse_calls = tracer.calls("cli.parse_text")
    if parse_calls:
        parse_s = _inclusive(tracer, "cli.parse_text")
        out.append(f"{'cli.parse_text.mb_per_s':<44} {bytes_per_file * parse_calls / parse_s / 1e6:>10.2f} MB/s")
        for name in ("cli.parse_text", "cli.problem_file", "cli.write_trace", "cli.write_summary"):
            n = tracer.calls(name)
            if n:
                out.append(f"{name + '.ms_per_call':<44} {_inclusive(tracer, name) * 1e3 / n:>10.2f} ms")
    return out
