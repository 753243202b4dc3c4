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
A list that JSON reads is decoded by ``json``, any other by the grammar's own
loop, one item at a time; both give the same values, and errors always come
from the loop.

Blocks nest; repeated block names are allowed (``primal``, ``dual``,
``coupling``, ``solution``), but a key and a block of one name in the same
block are not (``lambda = 1.5`` beside ``begin lambda``).  See the README for
the full key reference.

Exit codes: 0 tolerance met, 1 usage/parse/validation error, 2 max-iter
reached without tolerance, 3 infeasible half-space cuts, 4 numerical
failure (inner solve, stall, corruption, non-finite state).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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

    def __init__(self, name="root", entries=(), children=()):
        self.name = name
        self.entries = dict(entries)
        self.children = list(children)

    def child(self, name):
        return next((c for c in self.children if c.name == name), None)

    def all_children(self, name):
        return [c for c in self.children if c.name == name]

    def get(self, key, default=None):
        return self.entries.get(key, default)

    def require(self, key):
        if key not in self.entries:
            raise ProblemFormatError(f"block {self.name!r} is missing required key {key!r}")
        return self.entries[key]


_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-+")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
# The only float() literals that begin with a letter, and characters that
# int() never reads.
_FLOAT_WORDS = frozenset(("inf", "infinity", "nan"))
_FLOAT_MARKS = frozenset(".eE")


def _indent(text):
    return len(text) - len(text.lstrip())


def _parse_value(text, lineno, col0):
    # A list is read in place from its '[' (its columns: col0 + its indices in text),
    # without trailing blanks, so an unterminated list ends at its last character.
    b = text.find("[") if "[" in text else -1
    if b >= 0 and not text[:b].strip():
        if text[-1] != "]":
            text = text.rstrip()
        value, end = _parse_bracket(text, b, lineno, col0)
        if text[end:].strip():
            raise ProblemFormatError(
                f"trailing text after value: {text[end:].strip()!r}", lineno, col0 + end)
        return value
    s = text.strip()
    if not s:
        raise ProblemFormatError("empty value", lineno, col0 + _indent(text))
    # A value that begins with an ASCII letter is a word unless float() reads
    # it (int() reads none), so a word skips both failed conversions.
    if s[0] not in _LETTERS or s.lower() in _FLOAT_WORDS:
        if _FLOAT_MARKS.isdisjoint(s):
            try:
                return int(s)
            except ValueError:
                pass
        try:
            return float(s)
        except ValueError:
            pass
    if _WORD_CHARS.issuperset(s):
        return s
    raise ProblemFormatError(f"cannot parse value {s!r}", lineno, col0 + _indent(text))


# JSON reads a list that holds none of these characters exactly as the
# grammar does.  With them it would accept what the grammar rejects: a
# string, an object, false ('f'), true or null ('u'), or a line break as a blank.
_NOT_JSON = '"{fu\n\r'
_JSON = json.JSONDecoder()


def _parse_bracket(s, i, lineno, col0):
    """Parse a [...] list starting at index i; returns (value, index past ']').

    A list that JSON reads is decoded by ``json``; any other list, and every
    error, goes through ``_parse_list``.
    """
    if not any(c in s for c in _NOT_JSON):
        try:
            return _JSON.raw_decode(s, i)
        except ValueError:
            pass
    return _parse_list(s, i, lineno, col0)


def _parse_list(s, i, lineno, col0):
    """The grammar's list loop, one item at a time: blanks, then ']', a
    nested '[', or one number token up to ',' or ']'; one ',' may follow."""
    items = []
    i += 1
    while True:
        while i < len(s) and s[i] in " \t":
            i += 1
        if i == len(s):
            raise ProblemFormatError("unterminated '['", lineno, col0 + i)
        if s[i] == "]":
            return items, i + 1
        if s[i] == "[":
            item, j = _parse_list(s, i, lineno, col0)
        else:
            j = i
            while j < len(s) and s[j] not in ",]":
                j += 1
            tok = s[i:j].strip()
            try:
                item = int(tok)
            except ValueError:
                try:
                    item = float(tok)
                except ValueError:
                    raise ProblemFormatError(
                        f"expected a number, got {tok!r}", lineno, col0 + i) from None
        items.append(item)
        i = j
        while i < len(s) and s[i] in " \t":
            i += 1
        if i < len(s) and s[i] == ",":
            i += 1


def _key_and_block(name, section):
    return f"{name!r} in block {section.name!r} is both a key and a block"


def parse_text(text) -> Section:
    """Parse problem-file text into the root section (syntax only)."""
    root = Section("root")
    stack = [root]
    comments = "#" in text
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0] if comments else raw
        # One split per line; without '=', key is the whole line.  key and
        # line share their indent.
        key, eq, val = line.partition("=")
        k = key.strip()
        if not (eq or k):
            continue
        if not eq and k == "end":
            if len(stack) == 1:
                raise ProblemFormatError("'end' without matching 'begin'", lineno, _indent(key) + 1)
            stack.pop()
            continue
        if k.startswith("begin"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].replace("_", "").isalnum():
                raise ProblemFormatError(
                    "expected 'begin <name>'", lineno, _indent(key) + 1)
            if parts[1] in stack[-1].entries:
                raise ProblemFormatError(_key_and_block(parts[1], stack[-1]),
                                         lineno, _indent(key) + 1)
            child = Section(parts[1])
            stack[-1].children.append(child)
            stack.append(child)
            continue
        if not eq:
            raise ProblemFormatError(
                f"expected 'key = value', 'begin <name>' or 'end', got {k!r}",
                lineno, _indent(key) + 1)
        entries = stack[-1].entries
        if not k or not _WORD_CHARS.issuperset(k):
            raise ProblemFormatError(f"bad key {k!r}", lineno, _indent(key) + 1)
        if k in entries:
            raise ProblemFormatError(
                f"duplicate key {k!r} in block {stack[-1].name!r}", lineno, _indent(key) + 1)
        # A block's keys mostly precede its children: scan only after one.
        if stack[-1].children and stack[-1].child(k) is not None:
            raise ProblemFormatError(_key_and_block(k, stack[-1]), lineno, _indent(key) + 1)
        entries[k] = _parse_value(val, lineno, len(key) + 2)
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
    for child in section.children:
        out.append(f"{pad}begin {child.name}")
        out.append(serialize_section(child, depth + 1))
        out.append(f"{pad}end")
    return "\n".join(x for x in out if x != "")


class ProblemFile:
    """A fully validated in-memory problem: operators and policy built, the ``solver`` block
    read once into ``config`` (no graph points kept) and ``variant``, every regime checked."""

    def __init__(self, root: Section):
        self.root = root
        self.kind = root.get("kind")
        if self.kind not in ("inclusion", "coupled"):
            raise ProblemFormatError(
                f"kind must be 'inclusion' or 'coupled', got {self.kind!r}")
        if self.kind == "inclusion":
            self._assemble_inclusion()
        else:
            self._assemble_coupled()
        self.policy = self._policy()
        solver = root.child("solver") or Section("solver")
        self.variant = solver.get("variant", "weak" if self.kind == "inclusion" else "coupled")
        self.config = alg.SolverConfig(
            epsilon=_number(solver, "epsilon", 0.05),
            relaxation=_schedule(solver, "lambda", 1.0),
            step_size=_schedule(solver, "gamma", None),
            max_iter=_number(solver, "max_iter", 1000, int),
            tol_residual=_number(solver, "tol_residual", 1e-8),
            tol_step=_number(solver, "tol_step", 1e-8),
            keep_graph_points=False)
        # The file's run's checks, now: the run itself is dropped.
        self._solver(self.config, self.variant, False)

    # -- shared helpers ------------------------------------------------------

    def _policy(self):
        sec = self.root.child("policy") or Section("policy")
        kind = sec.get("kind", "none")
        if kind == "none":
            return alg.PerturbationPolicy()
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

    def _solver(self, cfg, variant, relaxed):
        """The run of ``variant`` with ``cfg`` as a zero-argument call.

        Every check the run needs raises here, before iteration 0: at parse
        for the file's config and variant, and in ``run`` for the command
        line's (``relaxed``: ``--relax`` was given).  The call, not the
        check, builds the run's kernels.
        """
        if self.kind == "coupled":
            if variant != "coupled":
                raise ConfigurationError(
                    f"a coupled problem runs with variant 'coupled', got {variant!r}")
            alg.check_coupled_step(cfg.step_size)
            run = lambda: alg.solve_coupled(
                self.problem, cfg, start=self.start, policy=self.policy,
                gamma_schedules=self.gamma_stage, tau_schedules=self.tau_stage)
        else:
            beta = self.B.lipschitz if self.B is not None else 0.0
            if variant in ("weak", "strong"):
                if self.kernel_name == "identity" and self.B is not None:
                    raise ConfigurationError(
                        "an identity kernel cannot absorb the forward part B; "
                        "use 'kernel fbf' so that K = Id - gamma B stays backward-solvable")
                eps = cfg.epsilon if self.kernel_epsilon is None else self.kernel_epsilon
                # A weak or strong fbf_kernel only needs epsilon < alpha.
                kern.fbf_step(1.0, 0.0, eps)
                step = cfg.step_size
                if step is None and self.B is not None:
                    # The run checks the floor with the solver's epsilon and the
                    # upper end with the kernel's: step from the larger of the two.
                    step = kern.fbf_step(1.0, beta, max(cfg.epsilon, eps))
                solve = alg.solve_weak if variant == "weak" else alg.solve_strong

                def run():
                    run_cfg = cfg
                    if self.B is None:  # fbf_kernel(Id, None, ...) would compute the same bits
                        kernels = kern.identity_kernel(self.dim)
                    else:
                        W = ops.identity_map(self.dim)
                        kernels = alg.staged(
                            lambda gamma: kern.fbf_kernel(W, self.B, gamma, eps), step)
                        # gamma_n travels in K_n's fold
                        run_cfg = dataclasses.replace(cfg, step_size=None)
                    return solve(kern.MDecomposition(self.A, self.B), kernels, self.policy,
                                 run_cfg, self.x0)
            elif variant in ("fbf", "tseng"):
                # tseng needs B and runs no policy, which it would silently drop.
                if variant == "tseng" and self.B is None:
                    raise ConfigurationError("variant tseng needs a forward operator B")
                if variant == "tseng" and self.policy != alg.PerturbationPolicy():
                    raise ConfigurationError("variant tseng runs no perturbation policy; "
                                             "remove the policy block or set kind = none")
                # fbf and tseng check the whole FBF regime; fbf_step's default
                # step (a step of None) passes check_step by construction.
                eps, step = cfg.epsilon, cfg.step_size
                kern.fbf_step(1.0, beta, eps)
                if variant == "tseng":
                    run = lambda: alg.solve_tseng(self.A, self.B, cfg.step_size, cfg, self.x0)
                else:
                    run = lambda: alg.solve_fbf_memory(
                        self.A, self.B, None, cfg.step_size, self.policy, cfg, self.x0)
            else:
                raise ConfigurationError(
                    f"unknown solver variant {variant!r}; known: weak, strong, fbf, tseng")
            # A step of None is 1 (weak or strong without B) or fbf_step's
            # default (fbf, tseng): either passes check_step.
            for n, gamma in _ends(step) if step is not None else ():
                kern.check_step(gamma, 1.0, beta, eps, floor=cfg.epsilon, label=f"gamma_{n}")
        # strong and tseng runs read no lambda: the file's is ignored, --relax refused.
        if variant not in ("strong", "tseng"):
            for n, lam in _ends(cfg.relaxation):
                alg.check_relaxation(lam, cfg.epsilon, n)
        elif relaxed:
            raise ConfigurationError(f"variant {variant} reads no relaxation lambda; "
                                     "--relax applies to weak, fbf and coupled runs")
        return run

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
        k_sec = root.child("kernel") or Section("kernel")
        self.kernel_name = k_sec.get("name", "identity")
        if self.kernel_name not in ("identity", "fbf"):
            raise ConfigurationError(
                f"unknown kernel {self.kernel_name!r}; known: identity, fbf")
        self.kernel_epsilon = _number(k_sec, "epsilon", None)
        self.zeros = [_floats(sol, "x", 1) for sol in root.all_children("solution")]
        for z in self.zeros:
            if z.shape != (self.dim,):
                raise ProblemFormatError(f"solution x has length {z.shape[0]}, dim says {self.dim}")

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
        # A file gives no stage operators F or W: a run takes identities.
        alg.check_identity_stages(primal, "primal")
        alg.check_identity_stages(dual, "dual")
        self.dim = self.problem.layout.total
        start = root.child("start")
        if start is None:
            self.start = alg.KuhnTuckerPoint.zero(self.problem)
        else:
            sx = _stacked(start, "x", self.problem.primal_layout)
            sv = _stacked(start, "v_star", self.problem.dual_layout)
            if start.get("y") is not None:
                sy = _stacked(start, "y", self.problem.dual_layout)
                self.start = alg.KuhnTuckerPoint(np.concatenate([sx, sy, sv]), self.problem)
            else:
                self.start = alg.KuhnTuckerPoint.from_pair(self.problem, sx, sv)
        self.zeros = []
        for sol in root.all_children("solution"):
            zx = _stacked(sol, "x", self.problem.primal_layout)
            zv = _stacked(sol, "v_star", self.problem.dual_layout)
            self.zeros.append(alg.KuhnTuckerPoint.from_pair(self.problem, zx, zv))

    # -- public API -----------------------------------------------------------

    def run(self, overrides=None) -> alg.SolveResult:
        """Run with command-line ``overrides``: ``algo`` picks the variant, ``relax``
        replaces ``relaxation``, any other a config field of its name; None is not given."""
        fields = {"relaxation" if k == "relax" else k: v
                  for k, v in (overrides or {}).items() if v is not None}
        variant = fields.pop("algo", None) or self.variant
        return self._solver(dataclasses.replace(self.config, **fields), variant,
                            "relaxation" in fields)()


def _operator(section: Section, make, dim):
    """The catalog operator a block names; a configuration or lookup error names the block."""
    name, params = section.require("name"), _op_params(section)
    try:
        return make(name, params, dim)
    except (ConfigurationError, UnknownOperatorError) as exc:
        raise type(exc)(f"block {section.name!r}: {exc}") from None


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
    """A catalog block's parameters, all finite: lists as float arrays, numbers as floats,
    a word refused."""
    out = {}
    for k, v in section.entries.items():
        if k == "name":
            continue
        if isinstance(v, list):
            out[k] = _floats(section, k, 2 if v and isinstance(v[0], list) else 1)
        elif isinstance(v, str):
            raise ProblemFormatError(
                f"{k!r} in block {section.name!r} must be a number or a list of numbers, got {v!r}")
        else:
            out[k] = _number(section, k)
    return out


def _floats(section: Section, key, ndim):
    """The value of ``key`` as a float vector (ndim 1) or matrix (ndim 2) of finite numbers."""
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
    finite = np.isfinite(arr)
    if not finite.all():
        raise ProblemFormatError(f"{key!r} in block {section.name!r} must hold finite "
                                 f"numbers, got {float(arr[~finite][0])!r}")
    return arr


def _vec_or_none(section, key):
    return None if section.get(key) is None else _floats(section, key, 1)


_REQUIRED = object()


def _number(section: Section, key, default=_REQUIRED, kind=float):
    """The value of ``key`` as a float (or int), ``default`` when absent.

    A value that is not a number, or a NaN or infinite float, raises a
    ConfigurationError naming the key and the block.
    """
    value = section.require(key) if default is _REQUIRED else section.get(key)
    if value is None:
        return default
    return ops.number(value, key, f"block {section.name!r}", kind)


# The longest float vector numpy can size; a longer one is a ValueError, not a MemoryError.
_MAX_DIM = sys.maxsize // 8


def _dim(section: Section, default=_REQUIRED):
    dim = _number(section, "dim", default, int)
    if dim is not None and not 1 <= dim <= _MAX_DIM:
        raise ProblemFormatError(
            f"'dim' in block {section.name!r} must lie in [1, {_MAX_DIM}], got {dim}")
    return dim


def _stage_constants(blocks, sections, key):
    # A stage constant the file leaves out takes its block's default; each
    # is checked against its block's stage regime.
    return [kern.check_step(_number(sec, key, blk.default_step), *blk.stage[:3],
                            label=f"{sec.name} block {k}: {key}")
            for k, (blk, sec) in enumerate(zip(blocks, sections))]


def _ends(schedule):
    """``(n, value)`` at the first stage (n = 0) and the limit (n = inf) of a
    constant or a schedule block's rule."""
    return [(n, alg.stage_at(schedule, n)) for n in (0, math.inf)]


def _stacked(section, key, layout):
    v = _floats(section, key, 1)
    if v.shape != (layout.total,):
        raise ProblemFormatError(
            f"expected a stacked vector of length {layout.total}, got {v.shape[0]}")
    return v


def _schedule(section: Section, key, default):
    """The constant ``key``, or the rule of the block of that name (parse_text refuses both)."""
    block = section.child(key)
    return _number(section, key, default) if block is None else _schedule_from_block(block)


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


def _read_text(path):
    """The file's text; its bytes die here, and (in parse_problem) the text in parse_text."""
    # Bytes decoded whole: parse_text splits lines on '\r\n' and '\r' itself.
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode; count lines as parse_text does.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ProblemFormatError(f"not UTF-8: {exc.reason}", line) from None


def parse_problem(path) -> ProblemFile:
    """Parse and fully validate a problem file."""
    return ProblemFile(parse_text(_read_text(path)))


# ---------------------------------------------------------------------------
# Trace and summary output
# ---------------------------------------------------------------------------

def write_trace(result: alg.SolveResult, path, zeros=()):
    """CSV trace: n, residual, step_norm, theta, sigma, rho, then one Fejer gap per zero.

    ``gap_k`` is |x_n - z_k| for the recorded iterate x_n and the k-th known
    zero (a vector or a ``KuhnTuckerPoint``), read from the columns of the ``Trace``.
    """
    zeros = [z.flatten() if isinstance(z, alg.KuhnTuckerPoint) else np.asarray(z, dtype=float)
             for z in zeros]
    header = ["n", "residual", "step_norm", "theta", "sigma", "rho"]
    header += [f"gap_{k + 1}" for k in range(len(zeros))]
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g" + ",%.17g" * len(zeros) + "\n"
    t = result.trace
    columns = (t.n, t.residual, t.step_norm, t.theta, t.sigma, t.rho)
    # A gap past the float range is written as inf, as computed: its overflow raises no warning.
    with open(path, "w", encoding="utf-8", newline="\n") as fh, np.errstate(over="ignore"):
        fh.write(",".join(header) + "\n")
        # Formatted and written 256 rows at a time, each gap column of a block formed
        # before its rows: neither the CSV nor a whole gap column is ever in memory.
        for a in range(0, len(t), 256):
            gaps = [[alg._length(x - z) for x in t.x[a:a + 256]] for z in zeros]
            fh.write("".join([row % r for r in zip(*[c[a:a + 256] for c in columns], *gaps)]))


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
    algo = overrides.get("algo") or pf.variant
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
        root = Section(entries={"kind": "inclusion", "x0": x0.tolist()}, children=[
            Section("A", {"name": "box", "lo": lo.tolist(), "hi": hi.tolist()}),
            Section("B", {"name": "affine_map", "matrix": M.tolist(), "offset": b.tolist()}),
            Section("kernel", {"name": "fbf", "epsilon": float(eps)}),
            Section("solver", {"variant": "weak", "epsilon": float(eps), "lambda": 1.0,
                               "max_iter": 10000, "tol_residual": 1e-08, "tol_step": 1e-08}),
            Section("solution", {"x": z.tolist()}),
        ])
    elif kind == "coupled":
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
        # Analytic solution through the dense stacked linear system in (x1, x2, y, v*).
        Z, I = np.zeros((dim, dim)), np.eye(dim)
        A = np.block([[P[0], Z, Z, Ls[0].T], [Z, P[1], Z, Ls[1].T],
                      [Z, Z, R, -I], [-Ls[0], -Ls[1], I, Z]])
        sol_vec = np.linalg.solve(A, np.concatenate(ss + [np.zeros(dim), -r]))
        root = Section(entries={"kind": "coupled"}, children=[
            *(Section("primal", {"dim": dim, "s_star": s_i.tolist()},
                      [Section("A", {"name": "affine", "matrix": P_i.tolist()})])
              for P_i, s_i in zip(P, ss)),
            Section("dual", {"dim": dim, "r": r.tolist()},
                    [Section("B", {"name": "affine", "matrix": R.tolist()})]),
            *(Section("coupling", {"primal": i + 1, "dual": 1, "matrix": L.tolist()})
              for i, L in enumerate(Ls)),
            Section("solver", {"variant": "coupled", "lambda": 1.0, "max_iter": 20000,
                               "tol_residual": 1e-08, "tol_step": 1e-08}),
            Section("solution", {"x": sol_vec[:2 * dim].tolist(),
                                 "v_star": sol_vec[3 * dim:].tolist()}),
        ])
    else:
        raise ConfigurationError(f"unknown problem kind {kind!r}")
    return serialize_section(root) + "\n"


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
    except (WarpsplitError, OSError, MemoryError) as exc:  # MemoryError: a dim too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {k: getattr(args, k)
                 for k in ("algo", "max_iter", "tol_residual", "tol_step", "relax")}
    trace_path = args.trace or f"{args.problem}.trace.csv"
    summary_path = args.summary or f"{args.problem}.summary.json"
    try:
        return run_problem(pf, overrides, trace_path, summary_path)
    except (UnknownOperatorError, ConfigurationError, ProblemFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
