"""Batch front end: problem files in, iteration traces and summaries out.

Problem file grammar (line oriented; ``#`` starts a comment):

    file       := line*
    line       := 'begin' NAME | 'end' | KEY '=' VALUE | blank
    VALUE      := integer | float | word | vector | matrix
    vector     := '[' [number (',' number)* [',']] ']'
    matrix     := '[' [vector (',' vector)* [',']] ']'

A list may end with a trailing comma and ``[]`` is the empty list.  An
integer literal (``3``, ``-2``, ``1_000``) stays an ``int``; any other
number is a ``float``.  A ragged or mis-nested matrix, such as
``[[1, 0], [0]]`` or ``[1, [0]]``, is a ``ProblemFormatError`` (exit 1).

Blocks nest; repeated block names are allowed (``primal``, ``dual``,
``coupling``, ``solution``).  See the README for the full key reference.

Exit codes: 0 tolerance met, 1 usage/parse/validation error, 2 max-iter
reached without tolerance, 3 infeasible half-space cuts, 4 numerical
failure (inner solve, stall, corruption, non-finite state).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import algorithms as alg
from . import kernels as kern
from . import operators as ops
from .errors import (
    BackwardSolveError,
    ConfigurationError,
    InfeasibleCutsError,
    NonFiniteEntryError,
    ProblemFormatError,
    SolverCorruptionError,
    StallError,
    UnknownOperatorError,
    WarpsplitError,
)
from .space import LinearMap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_ITER = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# Problem file parsing
# ---------------------------------------------------------------------------

class Section:
    """One block of a problem file: ordered entries plus ordered child blocks."""

    def __init__(self, name="root"):
        self.name = name
        self.entries = {}
        self.children = []

    def child(self, name):
        found = [s for n, s in self.children if n == name]
        return found[0] if found else None

    def all_children(self, name):
        return [s for n, s in self.children if n == name]

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def require(self, key):
        if key not in self.entries:
            raise ProblemFormatError(f"block {self.name!r} is missing required key {key!r}")
        return self.entries[key]

    def canonical(self):
        return (
            self.name,
            tuple((k, _canon_value(v)) for k, v in self.entries.items()),
            tuple(c.canonical() for _, c in self.children),
        )


def _canon_value(v):
    if isinstance(v, list):
        return tuple(_canon_value(x) for x in v)
    return v


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-+")


def _parse_value(text, lineno, col0):
    s = text.strip()
    offset = col0 + (len(text) - len(text.lstrip()))
    if not s:
        raise ProblemFormatError("empty value", lineno, offset)
    if s.startswith("["):
        value, end = _parse_bracket(s, 0, lineno, offset)
        if s[end:].strip():
            raise ProblemFormatError(
                f"trailing text after value: {s[end:].strip()!r}", lineno, offset + end)
        return value
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if all(c in _WORD_CHARS for c in s):
        return s
    raise ProblemFormatError(f"cannot parse value {s!r}", lineno, offset)


_BRACKET = re.compile(r"[\[\]]")
_TOKEN_END = re.compile(r"[,\]]")
_LIST_SEPARATOR = re.compile(r"(?:[ \t]*,)?")


def _parse_bracket(s, i, lineno, col0):
    """Parse a [...] list starting at index i; returns (value, index past ']').

    Works one run of numbers at a time: the text up to the next bracket is
    split on commas and converted in one pass.
    """
    items = []
    i += 1
    while True:
        m = _BRACKET.search(s, i)
        end = m.start() if m else len(s)
        pieces = s[i:end].split(",")
        if not pieces[-1].strip(" \t"):
            del pieces[-1]  # blank: the bracket or the end of the line is next
        elif m and m.group() == "[":
            # Only ',' and ']' end a number, so this token runs on and fails.
            stop = _TOKEN_END.search(s, end)
            pieces[-1] += s[end:stop.start() if stop else len(s)]
        items += _numbers(pieces, i, lineno, col0)
        if not m:
            raise ProblemFormatError("unterminated '['", lineno, col0 + len(s))
        if m.group() == "]":
            return items, end + 1
        sub, i = _parse_bracket(s, end, lineno, col0)
        items.append(sub)
        i = _LIST_SEPARATOR.match(s, i).end()  # one comma may follow a nested list


def _numbers(pieces, start, lineno, col0):
    """Convert comma-separated pieces that begin at index ``start`` of the line.

    Pieces are walked one by one only to name a bad token or to keep integer
    literals as ``int`` (their floats are integral, or inf past float range).
    """
    try:
        vals = list(map(float, pieces))
        if not any(map(float.is_integer, vals)) and all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    out = []
    for piece in pieces:
        tok = piece.strip()
        try:
            out.append(int(tok))
        except ValueError:
            try:
                out.append(float(tok))
            except ValueError:
                col = start + len(piece) - len(piece.lstrip(" \t"))
                raise ProblemFormatError(
                    f"expected a number, got {tok!r}", lineno, col0 + col) from None
        start += len(piece) + 1
    return out


def parse_text(text) -> Section:
    """Parse problem-file text into the root section (syntax only)."""
    root = Section("root")
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        s = line.strip()
        if not s:
            continue
        indent = len(line) - len(line.lstrip())
        if s == "end":
            if len(stack) == 1:
                raise ProblemFormatError("'end' without matching 'begin'", lineno, indent + 1)
            stack.pop()
            continue
        if s.startswith("begin"):
            parts = s.split()
            if len(parts) != 2 or not parts[1].replace("_", "").isalnum():
                raise ProblemFormatError(
                    "expected 'begin <name>'", lineno, indent + 1)
            child = Section(parts[1])
            stack[-1].children.append((parts[1], child))
            stack.append(child)
            continue
        if "=" not in s:
            raise ProblemFormatError(
                f"expected 'key = value', 'begin <name>' or 'end', got {s!r}",
                lineno, indent + 1)
        key, _, val = line.partition("=")
        k = key.strip()
        if not k or not all(c in _WORD_CHARS for c in k):
            raise ProblemFormatError(f"bad key {key.strip()!r}", lineno, indent + 1)
        if k in stack[-1].entries:
            raise ProblemFormatError(f"duplicate key {k!r} in block {stack[-1].name!r}", lineno, indent + 1)
        stack[-1].entries[k] = _parse_value(val, lineno, len(key) + 2)
    if len(stack) != 1:
        raise ProblemFormatError(f"unclosed block {stack[-1].name!r} at end of file")
    return root


def _fmt_value(v):
    if isinstance(v, list):
        return "[" + ", ".join(_fmt_value(x) for x in v) + "]"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_section(section: Section, depth=0) -> str:
    pad = "  " * depth
    out = []
    for k, v in section.entries.items():
        out.append(f"{pad}{k} = {_fmt_value(v)}")
    for name, child in section.children:
        out.append(f"{pad}begin {name}")
        out.append(serialize_section(child, depth + 1))
        out.append(f"{pad}end")
    return "\n".join(x for x in out if x != "")


class ProblemFile:
    """A fully validated in-memory problem (operators and policy built, regimes checked)."""

    def __init__(self, root: Section, path="<memory>"):
        self.root = root
        self.path = path
        self.kind = root.get("kind")
        if self.kind not in ("inclusion", "coupled"):
            raise ProblemFormatError(
                f"kind must be 'inclusion' or 'coupled', got {self.kind!r}")
        if self.kind == "inclusion":
            self._assemble_inclusion()
        else:
            self._assemble_coupled()
        self.policy = self._policy()
        self._check_variant(self.variant)

    # -- shared helpers ------------------------------------------------------

    def _solver_section(self):
        return self.root.child("solver") or Section("solver")

    def _config(self, solver, overrides):
        def pick(key, default, kind=float):
            ov = overrides.get(key)
            return ov if ov is not None else _number(solver, key, default, kind)

        lam = pick("relax", _number(solver, "lambda", 1.0))
        lam_block = solver.child("lambda")
        if lam_block is not None and overrides.get("relax") is None:
            lam = _schedule_from_block(lam_block)
        gamma = pick("gamma", None)
        gamma_block = solver.child("gamma")
        if gamma_block is not None and overrides.get("gamma") is None:
            gamma = _schedule_from_block(gamma_block)
        cfg = alg.SolverConfig(
            epsilon=_number(solver, "epsilon", 0.05),
            relaxation=lam,
            step_size=gamma,
            max_iter=pick("max_iter", 1000, int),
            tol_residual=pick("tol_residual", 1e-8),
            tol_step=pick("tol_step", 1e-8),
        )
        return cfg

    def _check_relaxation(self, cfg):
        # strong and tseng runs use no lambda of the file.
        if self.variant not in ("strong", "tseng"):
            for lam in _ends(cfg.relaxation):
                alg.check_relaxation(lam, cfg.epsilon)

    def _policy(self):
        sec = self.root.child("policy")
        if sec is None:
            return alg.PerturbationPolicy.none()
        kind = sec.get("kind", "none")
        if kind == "none":
            return alg.PerturbationPolicy.none()
        if kind == "inertial":
            return alg.PerturbationPolicy.inertial(_number(sec, "alpha"))
        if kind == "memory":
            return alg.PerturbationPolicy.memory(_floats(sec, "weights", 1))
        if kind == "additive":
            scale = _number(sec, "scale")
            rate = _number(sec, "rate")
            if not 0 <= rate < 1:
                raise ConfigurationError(
                    f"additive policy rate must lie in [0, 1[ so that |e_n| -> 0, got {rate}")
            dim = self.dim
            e = np.ones(dim) / np.sqrt(dim)

            def errors(n):
                return scale * (rate ** n) * e

            return alg.PerturbationPolicy.additive(errors)
        raise ConfigurationError(f"unknown policy kind {kind!r}")

    def _check_variant(self, variant):
        # Checked for the file's variant at parse and again for --algo:
        # tseng needs B and runs no policy, which it would silently drop.
        if variant != "tseng":
            return
        if self.B is None:
            raise ConfigurationError("variant tseng needs a forward operator B")
        if self.policy != alg.PerturbationPolicy.none():
            raise ConfigurationError("variant tseng runs no perturbation policy; "
                                     "remove the policy block or set kind = none")

    # -- inclusion problems ---------------------------------------------------

    def _assemble_inclusion(self):
        root = self.root
        x0 = root.get("x0")
        dim = _dim(root, None)
        if x0 is None and dim is None:
            raise ProblemFormatError("inclusion problem needs 'x0' or 'dim'")
        self.x0 = np.zeros(dim) if x0 is None else _floats(root, "x0", 1)
        if not self.x0.size:
            raise ProblemFormatError("'x0' must not be empty")
        self.dim = dim if dim is not None else len(self.x0)
        if self.x0.shape != (self.dim,):
            raise ProblemFormatError(
                f"x0 has length {self.x0.shape[0]}, dim says {self.dim}")
        self.A, self.B = _operators(root, "A", "B", self.dim, "inclusion problem")
        k_sec = root.child("kernel")
        self.kernel_name = k_sec.get("name", "identity") if k_sec is not None else "identity"
        if self.kernel_name not in ("identity", "fbf"):
            raise ConfigurationError(
                f"unknown kernel {self.kernel_name!r}; known: identity, fbf")
        self.kernel_epsilon = _number(k_sec, "epsilon", 0.0) if k_sec is not None else 0.0
        solver = self._solver_section()
        self.variant = solver.get("variant", "weak")
        if self.variant not in ("weak", "strong", "fbf", "tseng"):
            raise ConfigurationError(
                f"unknown solver variant {self.variant!r}; known: weak, strong, fbf, tseng")
        self.zeros = []
        for sol in root.all_children("solution"):
            self.zeros.append(_floats(sol, "x", 1))
        # Validate constants and regimes now, before any iteration runs.
        self._validate_inclusion(self._config(solver, {}))

    def _inclusion_gamma(self, cfg):
        if cfg.step_size is not None:
            return cfg.step_size
        if self.variant in ("fbf", "tseng"):
            return kern.fbf_step(1.0, self._beta(), cfg.epsilon)
        if self.B is not None and self.kernel_name == "fbf":
            # The run checks the floor with the solver's epsilon and the
            # upper end with the kernel's: step from the larger of the two.
            return kern.fbf_step(1.0, self._beta(), max(cfg.epsilon, self.kernel_epsilon))
        return 1.0

    def _beta(self):
        return self.B.lipschitz if self.B is not None else 0.0

    def _kernel_epsilon(self, cfg):
        """The epsilon of a weak or strong run's kernels."""
        if self.kernel_name == "identity" and self.B is not None:
            raise ConfigurationError(
                "an identity kernel cannot absorb the forward part B; "
                "use 'kernel fbf' so that K = Id - gamma B stays backward-solvable")
        return self.kernel_epsilon if self.kernel_epsilon > 0 else cfg.epsilon

    def _kernel_schedule(self, cfg):
        eps = self._kernel_epsilon(cfg)
        if self.kernel_name == "identity":
            return kern.identity_kernel(self.dim)
        W = ops.identity_map(self.dim)
        return alg.staged(lambda gamma: kern.fbf_kernel(W, self.B, gamma, eps),
                          self._inclusion_gamma(cfg))

    def _validate_inclusion(self, cfg):
        # The run's own regime checks, on the values it will run.
        fbf = self.variant in ("fbf", "tseng")
        eps = cfg.epsilon if fbf else self._kernel_epsilon(cfg)
        # fbf/tseng check the whole FBF regime; a weak or strong fbf_kernel
        # only needs epsilon < alpha.
        kern.fbf_step(1.0, self._beta() if fbf else 0.0, eps)
        for gamma in _ends(self._inclusion_gamma(cfg)):
            kern.check_step(gamma, 1.0, self._beta(), eps, floor=cfg.epsilon)
        self._check_relaxation(cfg)

    def _run_inclusion(self, overrides):
        solver = self._solver_section()
        cfg = self._config(solver, overrides)
        variant = overrides.get("algo") or self.variant
        gamma = self._inclusion_gamma(cfg)
        if variant in ("weak", "strong"):
            # Without a file gamma, the engine reads each gamma_n from K_n's fold.
            m = kern.MDecomposition(self.A, self.B if self.kernel_name == "fbf" else None)
            fn = alg.solve_weak if variant == "weak" else alg.solve_strong
            return fn(m, self._kernel_schedule(cfg), self.policy, cfg, self.x0)
        if variant == "tseng":
            self._check_variant(variant)
            return alg.solve_tseng(self.A, self.B, gamma, cfg, self.x0)
        if variant == "fbf":
            return alg.solve_fbf_memory(self.A, self.B, None, gamma, self.policy, cfg, self.x0)
        raise ConfigurationError(f"unknown algorithm {variant!r}")

    # -- coupled problems ------------------------------------------------------

    def _assemble_coupled(self):
        root = self.root
        primal, dual = [], []
        for sec in root.all_children("primal"):
            A, C = _operators(sec, "A", "C", _dim(sec), "primal block")
            primal.append(alg.PrimalBlock(
                A=A, C=C,
                s_star=_vec_or_none(sec, "s_star"),
                alpha=_number(sec, "alpha", 1.0),
                chi=_number(sec, "chi", 1.0),
                epsilon=_number(sec, "epsilon", None),
                mu=_number(sec, "mu", None)))
        for sec in root.all_children("dual"):
            B, D = _operators(sec, "B", "D", _dim(sec), "dual block")
            dual.append(alg.DualBlock(
                B=B, D=D,
                r=_vec_or_none(sec, "r"),
                beta=_number(sec, "beta", 1.0),
                kappa=_number(sec, "kappa", 1.0),
                delta=_number(sec, "delta", None),
                nu=_number(sec, "nu", None)))
        if not primal or not dual:
            raise ProblemFormatError("coupled problem needs 'primal' and 'dual' blocks")
        couplings = {}
        for sec in root.all_children("coupling"):
            i = _number(sec, "primal", kind=int) - 1
            j = _number(sec, "dual", kind=int) - 1
            couplings[(j, i)] = LinearMap(_floats(sec, "matrix", 2))
        self.problem = alg.CoupledProblem(primal, dual, couplings)
        self.gamma_stage = _stage_constants(primal, root.all_children("primal"), "gamma")
        self.tau_stage = _stage_constants(dual, root.all_children("dual"), "tau")
        self.dim = self.problem.layout.total
        start = root.child("start")
        if start is None:
            self.start = alg.KuhnTuckerPoint.zero(self.problem)
        else:
            sx = _stacked(start, "x", self.problem.primal_layout)
            sv = _stacked(start, "v_star", self.problem.dual_layout)
            if start.get("y") is not None:
                sy = _stacked(start, "y", self.problem.dual_layout)
                self.start = alg.KuhnTuckerPoint.from_flat(
                    np.concatenate(sx + sy + sv), self.problem)
            else:
                self.start = alg.KuhnTuckerPoint.lift(self.problem, sx, sv)
        self.zeros = []
        for sol in root.all_children("solution"):
            zx = _stacked(sol, "x", self.problem.primal_layout)
            zv = _stacked(sol, "v_star", self.problem.dual_layout)
            self.zeros.append(alg.KuhnTuckerPoint.lift(self.problem, zx, zv))
        solver = self._solver_section()
        self.variant = solver.get("variant", "coupled")
        if self.variant != "coupled":
            raise ConfigurationError("a coupled problem runs with variant 'coupled'")
        cfg = self._config(solver, {})
        alg.check_coupled_step(cfg.step_size)
        self._check_relaxation(cfg)

    def _run_coupled(self, overrides):
        algo = overrides.get("algo")
        if algo not in (None, "coupled"):
            raise ConfigurationError(f"coupled problems only run --algo coupled, got {algo!r}")
        cfg = self._config(self._solver_section(), overrides)
        return alg.solve_coupled(
            self.problem, cfg, start=self.start, policy=self.policy,
            gamma_schedules=self.gamma_stage, tau_schedules=self.tau_stage)

    # -- public API -----------------------------------------------------------

    def run(self, overrides=None) -> alg.SolveResult:
        overrides = overrides or {}
        if self.kind == "inclusion":
            return self._run_inclusion(overrides)
        return self._run_coupled(overrides)

    def serialize(self) -> str:
        return serialize_section(self.root) + "\n"

    def __eq__(self, other):
        return isinstance(other, ProblemFile) and self.root.canonical() == other.root.canonical()


def _operator(section: Section, make, dim):
    """The catalog operator a block names; a configuration error names the block."""
    try:
        return make(section.require("name"), _op_params(section), dim)
    except ConfigurationError as exc:
        raise ConfigurationError(f"block {section.name!r}: {exc}") from None


def _operators(section: Section, set_key, forward_key, dim, what):
    """The required set-valued and the optional single-valued child operators."""
    set_sec, forward_sec = section.child(set_key), section.child(forward_key)
    if set_sec is None:
        raise ProblemFormatError(f"{what} needs a 'begin {set_key}' block")
    set_part = _operator(set_sec, ops.make_set_valued, dim)
    if forward_sec is None:
        return set_part, None
    return set_part, _operator(forward_sec, ops.make_single_valued, dim)


def _op_params(section: Section):
    out = {}
    for k, v in section.entries.items():
        if k == "name":
            continue
        if isinstance(v, list):
            out[k] = _floats(section, k, 2 if v and isinstance(v[0], list) else 1)
        else:
            out[k] = v
    return out


def _floats(section: Section, key, ndim):
    """The value of ``key`` as a float vector (ndim 1) or matrix (ndim 2)."""
    value = section.require(key)
    try:
        arr = np.array(value, dtype=float)
        reason = f"it has {arr.ndim} dimensions"
    except (ValueError, TypeError, OverflowError) as exc:
        arr, reason = None, exc
    if arr is None or arr.ndim != ndim:
        shape = "vector" if ndim == 1 else "matrix"
        raise ProblemFormatError(
            f"{key!r} in block {section.name!r} is not a {shape} of numbers: {reason}")
    return arr


def _vec_or_none(section, key):
    return None if section.get(key) is None else _floats(section, key, 1)


_REQUIRED = object()


def _number(section: Section, key, default=_REQUIRED, kind=float):
    """The value of ``key`` as a float (or int), ``default`` when absent.

    A value that is not a number raises a ConfigurationError naming the key
    and the block.
    """
    value = section.require(key) if default is _REQUIRED else section.get(key)
    if value is None:
        return default
    return ops.number(value, key, f"block {section.name!r}", kind)


def _dim(section: Section, default=_REQUIRED):
    dim = _number(section, "dim", default, int)
    if dim is not None and dim < 1:
        raise ProblemFormatError(f"'dim' in block {section.name!r} must be positive, got {dim}")
    return dim


def _stage_constants(blocks, sections, key):
    # A stage constant the file leaves out takes its block's default; each
    # is checked against its block's stage regime.
    return [kern.check_step(_number(sec, key, blk.default_step), *blk.stage[:3],
                            label=f"{sec.name} block {k}: {key}")
            for k, (blk, sec) in enumerate(zip(blocks, sections))]


def _ends(schedule):
    """The first value and the limit of a constant or a schedule block's rule."""
    return alg.stage_at(schedule, 0), alg.stage_at(schedule, math.inf)


def _stacked(section, key, layout):
    v = _floats(section, key, 1)
    if v.shape != (layout.total,):
        raise ProblemFormatError(
            f"expected a stacked vector of length {layout.total}, got {v.shape[0]}")
    return layout.split(v)


def _schedule_from_block(block: Section):
    rule = block.get("rule", "constant")
    if rule == "constant":
        return _number(block, "value")
    if rule == "geometric":
        start = _number(block, "start")
        factor = _number(block, "factor")
        floor = _number(block, "floor")
        if not 0 < factor <= 1:
            raise ConfigurationError(f"geometric factor must lie in ]0, 1], got {factor}")
        return lambda n: max(floor, start * factor ** n)
    raise ConfigurationError(f"unknown schedule rule {rule!r}; known: constant, geometric")


def parse_problem(path) -> ProblemFile:
    """Parse and fully validate a problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return ProblemFile(parse_text(text), path=str(path))


# ---------------------------------------------------------------------------
# Trace and summary output
# ---------------------------------------------------------------------------

def write_trace(result: alg.SolveResult, path, zeros=()):
    """CSV trace: n, residual, step_norm, theta, sigma, rho, then one Fejer gap per zero.

    ``gap_k`` is |x_n - z_k| for the recorded iterate x_n and the k-th known
    zero (a vector or a ``KuhnTuckerPoint``).
    """
    zeros = [z.flatten() if isinstance(z, alg.KuhnTuckerPoint) else np.asarray(z, dtype=float)
             for z in zeros]
    header = ["n", "residual", "step_norm", "theta", "sigma", "rho"]
    header += [f"gap_{k + 1}" for k in range(len(zeros))]
    lines = [",".join(header)]
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g" + ",%.17g" * len(zeros)
    for rec in result.trace:
        lines.append(row % (rec.n, rec.residual, rec.step_norm, rec.theta, rec.sigma, rec.rho,
                            *(alg._length(rec.x - z) for z in zeros)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _final_point_list(result: alg.SolveResult):
    x = result.x
    if isinstance(x, alg.KuhnTuckerPoint):
        xs, ys, vs = x.blocks()
        return {
            "x": [b.tolist() for b in xs],
            "y": [b.tolist() for b in ys],
            "v_star": [b.tolist() for b in vs],
        }
    return list(np.asarray(x, dtype=float))


def write_summary(result: alg.SolveResult, exit_code, algo, path):
    record = {
        "algo": algo,
        "status": result.status,
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "exit_code": exit_code,
        "final_point": _final_point_list(result),
        "final_residual": result.trace[-1].residual if result.trace else None,
        "final_step_norm": result.trace[-1].step_norm if result.trace else None,
    }
    if result.kt_residuals is not None:
        record["kt_residuals"] = list(result.kt_residuals)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def run_problem(pf: ProblemFile, overrides, trace_path, summary_path):
    """Execute one problem and emit artifacts; returns the exit code."""
    algo = overrides.get("algo") or getattr(pf, "variant", "weak")
    try:
        result = pf.run(overrides)
    except InfeasibleCutsError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (BackwardSolveError, StallError, SolverCorruptionError,
            NonFiniteEntryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    exit_code = EXIT_OK if result.converged else EXIT_MAX_ITER
    if trace_path:
        write_trace(result, trace_path, pf.zeros)
    if summary_path:
        write_summary(result, exit_code, algo, summary_path)
    print(f"{algo}: {result.status} after {result.iterations} iterations "
          f"({result.stop_reason})")
    return exit_code


# ---------------------------------------------------------------------------
# Random test-problem generation
# ---------------------------------------------------------------------------

def generate_problem(kind, dim, seed) -> str:
    """Emit a random problem file with an analytically known solution."""
    if dim < 1:
        raise ConfigurationError(f"--dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    if kind == "inclusion":
        lo = -np.round(rng.uniform(0.8, 2.0, dim), 6)
        hi = np.round(rng.uniform(0.8, 2.0, dim), 6)
        z = np.round(lo + (hi - lo) * rng.uniform(0.25, 0.75, dim), 6)
        G = rng.normal(size=(dim, dim))
        S = rng.normal(size=(dim, dim))
        M = G @ G.T / dim + 0.2 * np.eye(dim) + 0.5 * (S - S.T)
        M = np.round(M, 6)
        b = -M @ z
        beta = float(np.linalg.norm(M, 2))
        eps = kern.epsilon_bound(0.45, beta)  # 0.45/(beta + 1): inside the alpha = 1 regime
        x0 = np.round(z + rng.uniform(1.0, 2.0, dim), 6)
        root = Section("root")
        root.entries["kind"] = "inclusion"
        root.entries["x0"] = x0.tolist()
        a_sec = Section("A")
        a_sec.entries["name"] = "box"
        a_sec.entries["lo"] = lo.tolist()
        a_sec.entries["hi"] = hi.tolist()
        root.children.append(("A", a_sec))
        b_sec = Section("B")
        b_sec.entries["name"] = "affine_map"
        b_sec.entries["matrix"] = M.tolist()
        b_sec.entries["offset"] = b.tolist()
        root.children.append(("B", b_sec))
        k_sec = Section("kernel")
        k_sec.entries["name"] = "fbf"
        k_sec.entries["epsilon"] = float(eps)
        root.children.append(("kernel", k_sec))
        s_sec = Section("solver")
        s_sec.entries["variant"] = "weak"
        s_sec.entries["epsilon"] = float(eps)
        s_sec.entries["lambda"] = 1.0
        s_sec.entries["max_iter"] = 10000
        s_sec.entries["tol_residual"] = 1e-08
        s_sec.entries["tol_step"] = 1e-08
        root.children.append(("solver", s_sec))
        sol = Section("solution")
        sol.entries["x"] = z.tolist()
        root.children.append(("solution", sol))
        return serialize_section(root) + "\n"
    if kind == "coupled":
        # Two primal blocks and one dual block, each of dimension dim.
        P = []
        for _ in range(2):
            g = rng.normal(size=(dim, dim))
            P.append(np.round(g @ g.T / dim + 0.5 * np.eye(dim), 6))
        gB = rng.normal(size=(dim, dim))
        R = np.round(gB @ gB.T / dim + 0.5 * np.eye(dim), 6)
        Ls = [np.round(rng.normal(size=(dim, dim)), 6) for _ in range(2)]
        ss = [np.round(rng.normal(size=dim), 6) for _ in range(2)]
        r = np.round(rng.normal(size=dim), 6)
        root = Section("root")
        root.entries["kind"] = "coupled"
        for P_i, s_i in zip(P, ss):
            sec = Section("primal")
            sec.entries["dim"] = dim
            sec.entries["s_star"] = s_i.tolist()
            a_sec = Section("A")
            a_sec.entries["name"] = "affine"
            a_sec.entries["matrix"] = P_i.tolist()
            sec.children.append(("A", a_sec))
            root.children.append(("primal", sec))
        sec = Section("dual")
        sec.entries["dim"] = dim
        sec.entries["r"] = r.tolist()
        b_sec = Section("B")
        b_sec.entries["name"] = "affine"
        b_sec.entries["matrix"] = R.tolist()
        sec.children.append(("B", b_sec))
        root.children.append(("dual", sec))
        for i, L in enumerate(Ls):
            c_sec = Section("coupling")
            c_sec.entries["primal"] = i + 1
            c_sec.entries["dual"] = 1
            c_sec.entries["matrix"] = L.tolist()
            root.children.append(("coupling", c_sec))
        s_sec = Section("solver")
        s_sec.entries["variant"] = "coupled"
        s_sec.entries["lambda"] = 1.0
        s_sec.entries["max_iter"] = 20000
        s_sec.entries["tol_residual"] = 1e-08
        s_sec.entries["tol_step"] = 1e-08
        root.children.append(("solver", s_sec))
        # Analytic solution through the dense stacked linear system in (x1, x2, y, v*).
        Z, I = np.zeros((dim, dim)), np.eye(dim)
        A = np.block([[P[0], Z, Z, Ls[0].T], [Z, P[1], Z, Ls[1].T],
                      [Z, Z, R, -I], [-Ls[0], -Ls[1], I, Z]])
        sol_vec = np.linalg.solve(A, np.concatenate(ss + [np.zeros(dim), -r]))
        sol = Section("solution")
        sol.entries["x"] = sol_vec[:2 * dim].tolist()
        sol.entries["v_star"] = sol_vec[3 * dim:].tolist()
        root.children.append(("solution", sol))
        return serialize_section(root) + "\n"
    raise ConfigurationError(f"unknown problem kind {kind!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # Bad usage must map to the usage exit code, not argparse's default 2,
    # which is reserved for max-iter termination.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser():
    p = _Parser(
        prog="warpsplit",
        description="Monotone inclusion solvers built on warped resolvents.")
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="parse a problem file, solve it, write artifacts")
    run.add_argument("--problem", required=True, help="problem file path")
    run.add_argument("--algo", choices=["weak", "strong", "fbf", "tseng", "coupled"],
                     help="override the solver variant")
    run.add_argument("--max-iter", type=int, dest="max_iter")
    run.add_argument("--tol-residual", type=float, dest="tol_residual")
    run.add_argument("--tol-step", type=float, dest="tol_step")
    run.add_argument("--relax", type=float, help="override the relaxation lambda")
    run.add_argument("--trace", help="CSV trace output path (default: <problem>.trace.csv)")
    run.add_argument("--summary", help="JSON summary output path (default: <problem>.summary.json)")
    gen = sub.add_parser("generate", help="emit a random test problem with known solution")
    gen.add_argument("--kind", choices=["inclusion", "coupled"], default="inclusion")
    gen.add_argument("--dim", type=int, default=4,
                     help="dimension of x, or of each coupled block")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (default: stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        try:
            text = generate_problem(args.kind, args.dim, args.seed)
        except WarpsplitError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    try:
        pf = parse_problem(args.problem)
    except (WarpsplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {
        "algo": args.algo,
        "max_iter": args.max_iter,
        "tol_residual": args.tol_residual,
        "tol_step": args.tol_step,
        "relax": args.relax,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    trace_path = args.trace or f"{args.problem}.trace.csv"
    summary_path = args.summary or f"{args.problem}.summary.json"
    try:
        return run_problem(pf, overrides, trace_path, summary_path)
    except (UnknownOperatorError, ConfigurationError, ProblemFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
