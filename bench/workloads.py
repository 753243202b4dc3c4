"""The benchmark's workloads: inputs from a seed, one timed pass, the gate.

Each workload turns the workload seed into a fixed, ordered list of
problems before any timing starts.  ``run_pass`` times set-up, solver calls
and artifact writing over the list (or some of its problems) and returns one
``Solve`` per solver call, already checked against the problem's embedded
analytic solution.  Checks run outside the timed regions.

Solver entry points are looked up on their modules at call time
(``alg.solve_weak``, ``cli.run_problem``) so that the traced pass, which
rebinds those names, sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from warpsplit import algorithms as alg
from warpsplit import cli, kernels, operators
from warpsplit.errors import WarpsplitError

# A solve fails if it raises, stops without converging, exits non-zero or
# ends farther than this from the embedded analytic solution.
GAP_TOL = 1e-6

# Problems per workload list.  Sizes are set so that one pass's totals
# (iterations, solve time) vary across workload seeds by less than the
# bounds in BENCHMARK.json, and a regression-d6 run stays under a minute.
# regression-d6 varies most: of its solve_strong runs at d >= 3, a varying
# number stop early on a false InfeasibleCutsError instead of at the cap.
SIZES = {"inclusion-d200": 8, "regression-d6": 30, "coupled-kt": 96}

# The traced pass and the raw-numpy floor run on the first N problems.
TRACE_PREFIX = {"inclusion-d200": 3, "regression-d6": 5, "coupled-kt": 16}


_STOP_AT = re.compile(r"(?:iteration |n = )(\d+)")


def _iterations_of(exc):
    """Iterations run before a solver raised, read from its message (0 if absent)."""
    found = _STOP_AT.search(str(exc))
    return int(found.group(1)) + 1 if found else 0


def _sha(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


@dataclass
class Solve:
    """One solver call and its verdict."""

    label: str
    problem: int         # index in the workload's problem list
    variant: str         # how the problem was solved, e.g. weak-inertial
    solver: str          # weak | strong | fbf | tseng | coupled
    seconds: float       # time inside the solver call
    iterations: int
    status: str          # converged, max_iter, or the error / exit code
    gap: float           # distance of the final point to the embedded solution
    fingerprint: str     # hash of everything the solve returned or wrote
    idle: int = 0        # iterations whose cut moved nothing (rho = 0)
    raised: bool = False  # the solver raised, so no trace came back
    result: object = None   # kept only for the plain weak solves the floor replays

    @property
    def failed(self):
        return self.status != "converged" or not self.gap <= GAP_TOL

    @property
    def silently_wrong(self):
        """Reported success but a wrong answer: a correctness failure."""
        return self.status == "converged" and not self.gap <= GAP_TOL


@dataclass
class Pass:
    """Totals over one pass; times at reference speed when a ``Speed`` was given."""

    setup_s: float = 0.0
    solve_s: float = 0.0
    wall_s: float = 0.0
    raw_setup_s: float = 0.0     # the same three times, as measured
    raw_solve_s: float = 0.0
    raw_wall_s: float = 0.0
    solves: list = field(default_factory=list)

    def add(self, setup, solve, wall, speed):
        """Add one problem's (or solve's) (start, end) intervals of ``time.perf_counter()``.

        ``wall`` None means setup + solve.  With a ``Speed``, a reference
        timing is taken first and the intervals are scaled to reference speed.
        """
        if speed is not None:
            speed.probe()

        def measure(interval):
            a, b = interval
            return (b - a, b - a) if speed is None else speed.measure(a, b)

        (setup_s, raw_setup), (solve_s, raw_solve) = measure(setup), measure(solve)
        wall_s, raw_wall = (setup_s + solve_s, raw_setup + raw_solve) if wall is None else measure(wall)
        self.setup_s += setup_s
        self.solve_s += solve_s
        self.wall_s += wall_s
        self.raw_setup_s += raw_setup
        self.raw_solve_s += raw_solve
        self.raw_wall_s += raw_wall

    def extend(self, other):
        """Add another pass's totals and solves to this one."""
        self.setup_s += other.setup_s
        self.solve_s += other.solve_s
        self.wall_s += other.wall_s
        self.raw_setup_s += other.raw_setup_s
        self.raw_solve_s += other.raw_solve_s
        self.raw_wall_s += other.raw_wall_s
        self.solves += other.solves

    @property
    def iterations(self):
        return sum(s.iterations for s in self.solves)

    @property
    def fingerprint(self):
        return _sha(*(s.fingerprint for s in self.solves))


def _idle_cuts(res):
    return sum(rec.rho == 0.0 for rec in res.trace)


def _library_fingerprint(res):
    residuals = np.array([rec.residual for rec in res.trace])
    return _sha(np.asarray(res.x).tobytes(), residuals.tobytes(), res.status, res.iterations)


# ---------------------------------------------------------------------------
# CLI workloads: generated problem files through parse_problem / run_problem
# ---------------------------------------------------------------------------

class CliWorkload:
    """Problems from ``warpsplit generate``, run in-process through the CLI path."""

    def __init__(self, name, kind, dim, seed, workdir, size=None):
        self.name = name
        self.kind = kind
        self.size = SIZES[name] if size is None else size
        rng = np.random.default_rng(seed)
        self.problem_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, self.size)]
        self.workdir = workdir
        self.paths = []
        texts = []
        for k, ps in enumerate(self.problem_seeds):
            text = cli.generate_problem(kind, dim, ps)
            path = os.path.join(workdir, f"{name}-{k}.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            texts.append(text)
            self.paths.append(path)
        self.bytes_per_file = sum(len(t) for t in texts) / self.size
        self.inputs_sha256 = _sha(*texts)

    def describe(self):
        pf = cli.parse_problem(self.paths[0])
        if self.kind == "coupled":
            shape = f"stacked layout {pf.problem.layout.dims}"
        else:
            shape = f"d = {pf.dim}"
        return (f"{self.size} problems from generate --kind {self.kind}, {shape}, "
                f"{self.bytes_per_file / 1e3:.0f} KB per file")

    def setup_only(self):
        """(start, end) of building every problem once."""
        t0 = time.perf_counter()
        for path in self.paths:
            cli.parse_problem(path)
        return t0, time.perf_counter()

    def run_pass(self, problems=None, keep=False, on_solve=None, speed=None):
        p = Pass()
        for k in range(self.size) if problems is None else problems:
            path = self.paths[k]
            trace_path, summary_path = path + ".trace.csv", path + ".summary.json"
            box = {}
            sink = io.StringIO()
            t0 = time.perf_counter()
            pf = cli.parse_problem(path)
            t1 = time.perf_counter()
            _time_run(pf, box)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.run_problem(pf, {}, trace_path, summary_path)
                except WarpsplitError as exc:
                    box.setdefault("error", exc)
                    code = cli.EXIT_USAGE
            t2 = time.perf_counter()
            del pf.run  # the timing wrapper refers back to pf
            p.add((t0, t1), box["interval"], (t0, t2), speed)
            p.solves.append(self._check(k, pf, box, code, trace_path, summary_path, keep))
            if on_solve is not None:
                on_solve(p.solves[-1])
        return p

    def _check(self, k, pf, box, code, trace_path, summary_path, keep):
        res = box.get("result")
        label = f"{self.name} #{k} (generate seed {self.problem_seeds[k]})"
        algo = "coupled" if self.kind == "coupled" else pf.variant
        if res is None:
            exc = box.get("error")
            return Solve(label, k, algo, algo, box["seconds"], _iterations_of(exc),
                         f"exit {code} {type(exc).__name__}", float("nan"),
                         _sha(code, type(exc).__name__, exc), raised=True)
        artifacts = []
        for p in (trace_path, summary_path):
            with open(p, "rb") as fh:
                artifacts.append(fh.read())
        if self.kind == "coupled":
            gap = float(np.linalg.norm(res.x.flatten() - pf.zeros[0].flatten()))
        else:
            gap = float(np.linalg.norm(np.asarray(res.x) - pf.zeros[0]))
        status = "converged" if code == cli.EXIT_OK and res.converged else f"exit {code} {res.status}"
        return Solve(label, k, algo, algo, box["seconds"], res.iterations, status, gap,
                     _sha(code, *artifacts), idle=_idle_cuts(res),
                     result=res if keep and algo == "weak" else None)

    def floor_solves(self, solves):
        """The solves the raw-numpy floor reproduces (weak fbf on inclusion problems)."""
        if self.kind == "coupled":
            return []
        return [s for s in solves if s.solver == "weak" and s.result is not None]

    def floor_case(self, solve):
        """Inputs of the raw-numpy loop for a weak solve, and a call that reruns the solve."""
        pf = cli.parse_problem(self.paths[solve.problem])
        root, solver = pf.root, pf.root.child("solver")
        a, b = root.child("A"), root.child("B")
        inputs = (np.array(b.get("matrix"), dtype=float), np.array(b.get("offset"), dtype=float),
                  np.array(a.get("lo"), dtype=float), np.array(a.get("hi"), dtype=float),
                  pf.x0, solve.result.trace[0].gamma, float(solver.get("lambda", 1.0)),
                  float(solver.get("tol_residual")), float(solver.get("tol_step")),
                  int(solver.get("max_iter")))
        return inputs, lambda: pf.run({})


def _time_run(pf, box):
    """Time the solver call that ``run_problem`` makes through ``pf.run``."""
    run = pf.run

    def timed(overrides=None):
        t0 = time.perf_counter()
        try:
            box["result"] = run(overrides)
            return box["result"]
        except WarpsplitError as exc:
            box["error"] = exc
            raise
        finally:
            box["interval"] = (t0, time.perf_counter())
            box["seconds"] = box["interval"][1] - t0

    pf.run = timed


# ---------------------------------------------------------------------------
# Library workload: the acceptance regression recipe, solved seven ways
# ---------------------------------------------------------------------------

REG_TOL = 1e-9
REG_MAX_ITER = 10_000
REG_DIMS = (6, 5, 4, 3, 2)


def regression_arrays(problem_seed):
    """The acceptance suite's ``seeded_affine_box_problem`` recipe with max_dim = 6.

    The draws follow tests/test_acceptance.py exactly, so problem seeds
    100-109 give the acceptance regression problems.  Also returns the
    general kernel base W = I + 0.5 R, R skew with unit norm, drawn from
    its own stream so the recipe's draws stay untouched.
    """
    rng = np.random.default_rng(problem_seed)
    d = int(rng.integers(2, 7))
    lo = -rng.uniform(0.5, 1.5, d)
    hi = rng.uniform(0.5, 1.5, d)
    z = lo + (hi - lo) * rng.uniform(0.3, 0.7, d)
    G = rng.normal(size=(d, d))
    S = rng.normal(size=(d, d))
    M = G @ G.T / d + 0.3 * np.eye(d) + 0.5 * (S - S.T)
    x0 = z + rng.uniform(0.5, 1.0, d)
    R = np.random.default_rng([problem_seed, 1]).normal(size=(d, d))
    R = R - R.T
    R /= np.linalg.norm(R, 2)
    return dict(lo=lo, hi=hi, z=z, M=M, b=-M @ z, x0=x0, W=np.eye(d) + 0.5 * R)


class RegressionWorkload:
    """Library-API solves at d = 2..6; the only workload running fejer and policies.

    Problem seeds are drawn from the workload seed and stratified on the
    recipe's dimension: the list holds the same number of problems for each
    d in 2..6, in the round-robin order 6, 5, 4, 3, 2, 6, ...  Whether
    ``solve_strong`` hits its cap depends mostly on d, so stratifying keeps
    one pass's totals steady across seeds without dropping any outcome.
    """

    SOLVERS = ("weak", "weak-inertial", "weak-memory", "fbf-memory", "tseng",
               "strong", "weak-general-base")

    def __init__(self, seed, size=None):
        self.name = "regression-d6"
        self.size = SIZES[self.name] if size is None else size
        per = -(-self.size // len(REG_DIMS))
        rng = np.random.default_rng(seed)
        strata = {d: [] for d in REG_DIMS}
        while any(len(v) < per for v in strata.values()):
            ps = int(rng.integers(0, 2**31 - 1))
            d = int(np.random.default_rng(ps).integers(2, 7))
            if len(strata[d]) < per:
                strata[d].append(ps)
        order = [strata[d][j] for j in range(per) for d in REG_DIMS]
        self.problem_seeds = order[:self.size]
        self.arrays = [regression_arrays(ps) for ps in self.problem_seeds]
        self.inputs_sha256 = _sha(*(a[key].tobytes() for a in self.arrays for key in sorted(a)))
        self.bytes_per_file = 0

    def describe(self):
        dims = [a["z"].shape[0] for a in self.arrays]
        return (f"{self.size} problems of the acceptance regression recipe, "
                f"d in {sorted(set(dims))}, {len(self.SOLVERS)} solves each, "
                f"tol {REG_TOL:g}, cap {REG_MAX_ITER}")

    @staticmethod
    def _build(a):
        d = a["z"].shape[0]
        B = operators.affine_map(a["M"], a["b"])
        A = operators.box_normal_cone(a["lo"], a["hi"])
        eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
        gamma = 0.9 * (1.0 - eps) / B.lipschitz
        cfg = alg.SolverConfig(epsilon=eps, step_size=gamma, max_iter=REG_MAX_ITER,
                               tol_residual=REG_TOL, tol_step=REG_TOL)
        m = kernels.MDecomposition(A, B)
        k = kernels.fbf_kernel(operators.identity_map(d), B, gamma, eps)
        k_general = kernels.fbf_kernel(operators.affine_map(a["W"]), B, gamma, eps)
        return dict(A=A, B=B, gamma=gamma, cfg=cfg, m=m, k=k, k_general=k_general,
                    inertial=alg.PerturbationPolicy.inertial(0.3),
                    memory=alg.PerturbationPolicy.memory([-0.3, 1.3]))

    @staticmethod
    def _calls(p, x0):
        cfg = p["cfg"]
        return (
            ("weak", lambda: alg.solve_weak(p["m"], p["k"], None, cfg, x0)),
            ("weak", lambda: alg.solve_weak(p["m"], p["k"], p["inertial"], cfg, x0)),
            ("weak", lambda: alg.solve_weak(p["m"], p["k"], p["memory"], cfg, x0)),
            ("fbf", lambda: alg.solve_fbf_memory(p["A"], p["B"], None, p["gamma"], None, cfg, x0)),
            ("tseng", lambda: alg.solve_tseng(p["A"], p["B"], p["gamma"], cfg, x0)),
            ("strong", lambda: alg.solve_strong(p["m"], p["k"], None, cfg, x0)),
            ("weak", lambda: alg.solve_weak(p["m"], p["k_general"], None, cfg, x0)),
        )

    def setup_only(self):
        """(start, end) of building every problem once."""
        t0 = time.perf_counter()
        for a in self.arrays:
            self._build(a)
        return t0, time.perf_counter()

    def run_pass(self, problems=None, keep=False, on_solve=None, speed=None):
        p = Pass()
        for k in range(self.size) if problems is None else problems:
            a = self.arrays[k]
            t0 = time.perf_counter()
            built = self._build(a)
            t1 = time.perf_counter()
            setup = (t0, t1)
            for name, (solver, call) in zip(self.SOLVERS, self._calls(built, a["x0"])):
                t0 = time.perf_counter()
                try:
                    out = call()
                except WarpsplitError as exc:
                    out = exc
                t1 = time.perf_counter()
                seconds = t1 - t0
                # Nothing but set-up and solver calls runs for a library problem,
                # so its wall time is their sum.
                p.add(setup, (t0, t1), None, speed)
                setup = (t1, t1)
                label = f"{self.name} #{k} (recipe seed {self.problem_seeds[k]}) {name}"
                if isinstance(out, WarpsplitError):
                    s = Solve(label, k, name, solver, seconds, _iterations_of(out),
                              type(out).__name__, float("nan"), _sha(type(out).__name__, out),
                              raised=True)
                else:
                    s = Solve(label, k, name, solver, seconds, out.iterations, out.status,
                              float(np.linalg.norm(out.x - a["z"])), _library_fingerprint(out),
                              idle=_idle_cuts(out), result=out if keep and name == "weak" else None)
                p.solves.append(s)
                if on_solve is not None:
                    on_solve(s)
        return p

    def floor_case(self, solve):
        """Inputs of the raw-numpy loop for a plain weak solve, and a call that reruns it."""
        a = self.arrays[solve.problem]
        p = self._build(a)
        inputs = (a["M"], a["b"], a["lo"], a["hi"], a["x0"], p["gamma"], 1.0,
                  REG_TOL, REG_TOL, REG_MAX_ITER)
        return inputs, lambda: alg.solve_weak(p["m"], p["k"], None, p["cfg"], a["x0"])

    def floor_solves(self, solves):
        """The solves the raw-numpy floor reproduces: weak, no policy, identity base."""
        return [s for s in solves if s.variant == "weak" and s.result is not None]


def make(name, seed, workdir, size=None):
    if name == "inclusion-d200":
        return CliWorkload(name, "inclusion", 200, seed, workdir, size)
    if name == "coupled-kt":
        # The generator ignores --dim for coupled problems (always 2/2/2).
        return CliWorkload(name, "coupled", 2, seed, workdir, size)
    if name == "regression-d6":
        return RegressionWorkload(seed, size)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("inclusion-d200", "regression-d6", "coupled-kt")
