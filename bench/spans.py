"""Spans timed from outside the library.

``installed(tracer)`` rebinds public functions and methods of the six
``warpsplit`` modules, at the binding each caller resolves, to wrappers that
record one span per call: name, start, end and the id of the enclosing span.
Aggregates (calls, inclusive and self time, raised calls, caller/callee
edges) are kept online, so memory stays bounded on long passes; the first
``RAW_CAP`` spans are also kept verbatim and written out at the end.  Self
time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import csv
from time import perf_counter

from warpsplit import algorithms, cli, fejer, kernels, operators, space

SOLVER_FAMILY = "algorithms.solver"
# Spans kept verbatim and written out; later spans only update the aggregates.
RAW_CAP = 100_000

# (owner, attribute, span name).  A function imported into several modules
# is wrapped at each of them, since callers resolve it in their own module.
FUNCTIONS = [
    *[(m, "check_finite", "space.check_finite") for m in (space, operators, kernels)],
    *[(m, "check_dim", "space.check_dim") for m in (space, operators, kernels, algorithms, fejer)],
    (space.BlockLayout, "split", "space.block_split_join"),
    (space.BlockLayout, "join", "space.block_split_join"),
    (space.LinearMap, "__call__", "space.linear_map"),
    (space.LinearMap, "adjoint_apply", "space.linear_map"),
    (kernels.Kernel, "eval", "kernels.eval"),
    (kernels.Kernel, "backward_solve", "kernels.backward_solve"),
    *[(m, "solve_base_inclusion", "kernels.solve_base_inclusion") for m in (kernels, algorithms)],
    *[(m, "coupled_kernel", "kernels.coupled_kernel") for m in (kernels, algorithms)],
    (kernels, "fbf_kernel", "kernels.fbf_kernel"),
    *[(m, "haugazeau_Q", "fejer.haugazeau_Q") for m in (fejer, algorithms)],
    (algorithms, "apply_policy", "algorithms.apply_policy"),
    (algorithms, "kt_residuals", "algorithms.kt_residuals"),
    (algorithms, "solve_weak", "algorithms.weak"),
    (algorithms, "solve_strong", "algorithms.strong"),
    (algorithms, "solve_fbf_memory", "algorithms.fbf"),
    (algorithms, "solve_tseng", "algorithms.tseng"),
    (algorithms, "solve_coupled", "algorithms.coupled"),
    (cli, "parse_problem", "cli.parse_problem"),
    (cli, "parse_text", "cli.parse_text"),
    (cli.ProblemFile, "__init__", "cli.problem_file"),
    (cli, "run_problem", "cli.run_problem"),
    (cli, "write_trace", "cli.write_trace"),
    (cli, "write_summary", "cli.write_summary"),
]

# Methods whose span name carries the operator's catalog name.
PER_OPERATOR = [
    (operators.SetValuedOperator, "resolvent", "operators.resolvent"),
    (operators.SingleValuedOperator, "__call__", "operators.single_valued"),
]


def family(name):
    """Spans of one family share aggregates; nested calls count once."""
    if name.startswith("algorithms.") and name.split(".")[1] in (
            "weak", "strong", "fbf", "tseng", "coupled"):
        return SOLVER_FAMILY
    return ".".join(name.split(".")[:2])


class Tracer:
    def __init__(self):
        self.names = []
        self.index = {}
        self.fam = []
        self.stats = []          # per name: calls, total, self, raised, outer calls, outer total
        self.edges = {}          # (parent name index, name index) -> [calls, seconds]
        self.stack = []          # open spans: [id, name index, child time]
        self.depth = {}          # family -> open spans of that family
        self.raw = []
        self.next_id = 0

    def _idx(self, name):
        i = self.index.get(name)
        if i is None:
            i = self.index[name] = len(self.names)
            self.names.append(name)
            self.fam.append(family(name))
            self.stats.append([0, 0.0, 0.0, 0, 0, 0.0])
        return i

    def span(self, i, fn, args, kwargs):
        fam = self.fam[i]
        sid = self.next_id
        self.next_id += 1
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [sid, i, 0.0]
        stack.append(frame)
        depth = self.depth.get(fam, 0)
        self.depth[fam] = depth + 1
        raised = False
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            raised = True
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            self.depth[fam] = depth
            dur = t1 - t0
            st = self.stats[i]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            st[3] += raised
            if depth == 0:
                st[4] += 1
                st[5] += dur
            if parent is not None:
                parent[2] += dur
                edge = self.edges.get((parent[1], i))
                if edge is None:
                    self.edges[(parent[1], i)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if len(self.raw) < RAW_CAP:
                self.raw.append((sid, -1 if parent is None else parent[0], i, t0, t1))

    def wrap(self, name, fn):
        i = self._idx(name)

        def traced(*args, **kwargs):
            return self.span(i, fn, args, kwargs)

        return traced

    def wrap_per_operator(self, prefix, fn):
        cache = {}

        def traced(op, *args, **kwargs):
            i = cache.get(op.name)
            if i is None:
                i = cache[op.name] = self._idx(f"{prefix}.{op.name}")
            return self.span(i, fn, (op, *args), kwargs)

        return traced

    # -- reading the aggregates ---------------------------------------------

    def calls(self, name):
        i = self.index.get(name)
        return 0 if i is None else self.stats[i][0]

    def named(self, prefix):
        """Stats rows of every span name equal to or under ``prefix``."""
        return [(n, self.stats[i]) for n, i in self.index.items()
                if n == prefix or n.startswith(prefix + ".")]

    def family_totals(self, prefix):
        """(calls, inclusive seconds) of the outermost spans of the names under prefix."""
        rows = self.named(prefix)
        return sum(r[4] for _, r in rows), sum(r[5] for _, r in rows)

    def outer_calls(self, fam):
        """Calls of spans of family ``fam`` not nested in another span of it."""
        return sum(st[4] for st, f in zip(self.stats, self.fam) if f == fam)

    def edge(self, parents, child_prefix):
        """[calls, inclusive seconds] of child spans under prefix made directly by ``parents``."""
        pis = {self.index.get(p) for p in parents}
        out = [0, 0.0]
        for (p, i), (c, t) in self.edges.items():
            name = self.names[i]
            if p in pis and (name == child_prefix or name.startswith(child_prefix + ".")):
                out[0] += c
                out[1] += t
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_us", "end_us"])
            t_ref = min((r[3] for r in self.raw), default=0.0)
            for sid, parent, i, t0, t1 in self.raw:
                out.writerow([sid, parent, self.names[i],
                              f"{(t0 - t_ref) * 1e6:.3f}", f"{(t1 - t_ref) * 1e6:.3f}"])


@contextlib.contextmanager
def installed(tracer):
    """Rebind every traced name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in FUNCTIONS:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig))
        for owner, attr, prefix in PER_OPERATOR:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap_per_operator(prefix, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
