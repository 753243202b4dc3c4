"""Solver families built from kernels and half-space geometry.

Every solver runs one iteration engine: evaluate a warped resolvent at the
policy point, certify a graph point (y, y*), then update through its cut
{z : <z - y, y*> <= 0}, either by a relaxed projection or by projecting
the anchor onto the kept cuts (Haugazeau).  The solvers only configure
that engine.

* ``solve_weak``      -- relaxed single-cut projections (weak convergence).
* ``solve_strong``    -- Haugazeau multi-cut projections (strong
                         convergence to the projection of the starting
                         point).
* ``solve_fbf_memory``-- perturbed forward-backward-forward with memory:
                         forward-backward kernels plus a policy.
* ``solve_tseng``     -- Tseng's forward-backward-forward method: the
                         forward-backward kernel with W = Id and the
                         relaxation ``tseng_relaxation``.
* ``solve_coupled``   -- primal-dual solver for coupled inclusion systems,
                         delegated to ``solve_weak`` over the stacked
                         Kuhn-Tucker space.
"""

from __future__ import annotations

import inspect
import math
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InfeasibleCutsError,
    NonFiniteEntryError,
    SolverCorruptionError,
    StallError,
)
# haugazeau_Q is unused here; bench/spans.py rebinds it at this module.
from .fejer import CutRing, cut_coefficient, haugazeau_Q, relaxed_cut  # noqa: F401
# solve_base_inclusion is unused here; bench/spans.py rebinds it at this module.
from .kernels import (  # noqa: F401
    Kernel,
    MDecomposition,
    _check_pairing,
    _scan_pair,
    check_step,
    coupled_kernel,
    epsilon_bound,
    fbf_kernel,
    fbf_step,
    solve_base_inclusion,
    step_floor,
)
from .operators import (
    BlockDiagonalOperator,
    SetValuedOperator,
    SingleValuedOperator,
    constant_operator,
    identity_map,
    saddle_skew_map,
    zero_map,
)
from .space import BlockLayout, LinearMap, check_dim, check_finite, vector


# ---------------------------------------------------------------------------
# Configuration, schedules, policies
# ---------------------------------------------------------------------------

STALL_LIMIT = 50  # consecutive idle cuts with a non-small residual before StallError


def _is_schedule(value):
    # An operator is callable, but as a stage input it is a constant.
    return callable(value) and not isinstance(value, SingleValuedOperator)


def stage_at(value, n):
    """The stage-n value of an n-indexed input: ``value(n)`` for a schedule, else ``value``."""
    return value(n) if _is_schedule(value) else value


def staged(build, *inputs):
    """``build(*inputs)`` once when no input is a schedule, else n -> build at stage n.

    Constants are bound once; the schedules build again only when the values
    they return differ from the last build's (a list by the items it held then).
    """
    schedules = {k: v for k, v in enumerate(inputs) if _is_schedule(v)}
    if not schedules:
        return build(*inputs)
    values = dict(enumerate(inputs))  # by position; a schedule's entry is its last value
    last = [None, None]  # a snapshot of the schedules' values at the last build, and that build

    def at(n):
        read = [s(n) for s in schedules.values()]
        try:  # an array, or an == that raises TypeError or ValueError, is a change
            same = read == last[0] and not any(isinstance(v, np.ndarray) for v in read)
        except (TypeError, ValueError):
            same = False
        if not same:
            values.update(zip(schedules, read))
            last[:] = [list(v) if isinstance(v, list) else v for v in read], build(*values.values())
        return last[1]
    return at


@dataclass
class SolverConfig:
    """Run parameters shared by all solvers.

    ``relaxation`` is the lambda schedule: a constant, a callable
    ``n -> float``, or a callable ``(n, ctx) -> float`` receiving the
    iteration context (used by the Tseng-implied relaxation).
    ``step_size`` is the gamma schedule, a constant or a callable
    ``n -> float``, paired with K_n into each stage (K_n, gamma_n).  None
    selects the solver's default: K_n's fold step (1 without a fold), or
    the FBF default step for ``solve_fbf_memory`` and ``solve_tseng``.  A run
    raises StallError after ``STALL_LIMIT`` (50) consecutive idle cuts
    whose residual is not small.  ``keep_graph_points=False`` keeps no (y_n, y_n*) in the trace.
    """

    epsilon: float = 0.05
    relaxation: object = 1.0
    step_size: object = None
    max_iter: int = 1000
    tol_residual: float = 1e-8
    tol_step: float = 1e-8
    keep_graph_points: bool = True

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ConfigurationError(f"epsilon must lie in ]0, 1[, got {self.epsilon}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol_residual > 0 or not self.tol_step > 0:
            raise ConfigurationError("tolerances must be positive")


class IterationContext(NamedTuple):
    """Quantities of the current iteration handed to relaxation schedules."""

    n: int
    gamma: float
    epsilon: float
    x: np.ndarray
    x_tilde: np.ndarray
    y: np.ndarray
    y_star: np.ndarray
    theta: float
    sigma: float


def check_relaxation(lam, epsilon, n=0) -> float:
    """Check ``lambda_n in [epsilon, 2 - epsilon]`` up to a 1e-9 relative slack."""
    slack = 1e-9 * max(1.0, 2.0 - epsilon)
    if not (epsilon - slack <= lam <= 2.0 - epsilon + slack):
        raise ConfigurationError(
            f"relaxation lambda_{n} = {lam} outside [epsilon, 2 - epsilon] "
            f"= [{epsilon}, {2.0 - epsilon}]")
    return float(lam)


def _relaxation_schedule(relaxation, epsilon):
    """The lambda schedule as ``(lam_of, takes_ctx)``, lam_of range-checked.

    ``lam_of(n, ctx)`` returns lambda_n (None for a constant, which the
    engine checks once); ``takes_ctx`` says whether it reads ctx, so the
    engine builds an ``IterationContext`` only then.  Whether a callable
    schedule takes ``(n)`` or ``(n, ctx)`` is decided here, once per run, so
    a TypeError raised inside the schedule surfaces unchanged.
    """
    if not _is_schedule(relaxation):
        return None, False
    try:
        inspect.signature(relaxation).bind(0, None)
        return (lambda n, ctx: check_relaxation(relaxation(n, ctx), epsilon, n)), True
    except TypeError:
        return (lambda n, ctx: check_relaxation(relaxation(n), epsilon, n)), False


def tseng_relaxation(n, ctx: IterationContext) -> float:
    """The relaxation implied by Tseng's update: gamma |y*|^2 / <x - y, y*>.

    Falls back to epsilon when the denominator is not strictly positive
    (then y* = 0 and the step is idle anyway).  The value provably lies in
    [epsilon, 2 - epsilon]; the clamp only acts when the ratio of two
    noise-floor quantities loses that property to roundoff.
    """
    denom = -ctx.theta
    if denom > 0:
        lam = ctx.gamma * ctx.sigma / denom
        return min(max(lam, ctx.epsilon), 2.0 - ctx.epsilon)
    return ctx.epsilon


def _memory_pull(weights, where, depth=None):
    """The pull (-mu_{n-1}, ..., -mu_{n-m}) of a checked memory row (mu_{n-m}, ..., mu_n).

    The row must be a nonempty vector summing to 1 within 1e-12, no longer
    than ``depth``.  x~ = sum_k mu_{n-k} x_{n-k} is then x_n plus the pull
    applied to the differences x_n - x_{n-k}; negating a weight is exact.
    """
    row = np.asarray(weights, dtype=float)
    if row.ndim != 1 or row.size == 0:
        raise ConfigurationError(f"memory weight row{where} must be a nonempty vector")
    if depth is not None and row.size > depth:
        raise ConfigurationError(
            f"memory weight row{where} has length {row.size}, longer than the "
            f"history depth {depth} set by the row at n = 0")
    with np.errstate(over="ignore"):  # a sum past the float range is inf, refused below
        total = float(row.sum())
    if not abs(total - 1.0) <= 1e-12:  # a NaN total fails too
        raise ConfigurationError(
            f"memory weight row{where} sums to {total!r}, must be 1 within 1e-12")
    return tuple((-row[-2::-1]).tolist())


@dataclass(frozen=True)
class PerturbationPolicy:
    """The evaluation point x~_n fed to the warped resolvent.

    x~_n = x_n + sum_{k=1}^{depth-1} a_{n,k} (x_n - x_{n-k}) + e_n, with
    iterates before x_0 taken as x_0.  ``pull`` is the row (a_{n,1}, ...)
    or a schedule n -> row, ``errors`` a schedule n -> e_n (|e_n| -> 0) or
    None, and ``depth`` the number of iterates the engine keeps.
    """

    pull: object = ()
    errors: object = None
    depth: int = 1

    def __post_init__(self):
        if not _is_schedule(self.pull) and len(self.pull) >= self.depth:
            raise ConfigurationError(
                f"a pull of length {len(self.pull)} needs depth > {len(self.pull)}, got {self.depth}")

    @classmethod
    def additive(cls, errors):
        """errors: callable n -> perturbation vector, with |e_n| -> 0."""
        if not callable(errors):
            raise ConfigurationError("additive policy needs a callable error schedule")
        return cls(errors=errors)

    @classmethod
    def inertial(cls, alpha):
        """alpha: bounded extrapolation coefficient (constant or callable n -> float)."""
        if alpha is None:
            raise ConfigurationError("inertial alpha is required")
        return cls(staged(lambda a: (float(a),), alpha), depth=2)

    @classmethod
    def memory(cls, weights, errors=None):
        """weights: row (mu_{n,n-m}, ..., mu_{n,n}) or callable n -> row; rows sum to 1.

        A constant row is checked here, once.  A schedule's row at n = 0
        sets the history depth; each row is checked at its n, and none may
        be longer.
        """
        if not _is_schedule(weights):
            pull = _memory_pull(weights, "")
            return cls(pull, errors, len(pull) + 1)
        depth = len(_memory_pull(weights(0), " at n = 0")) + 1
        return cls(lambda n: _memory_pull(weights(n), f" at n = {n}", depth), errors, depth)


def apply_policy(policy: PerturbationPolicy, history, n) -> np.ndarray:
    """Evaluate x~_n from the iterate history (oldest to newest, x_n last).

    Entries before iterate 0 are taken as x_0, matching the inertial
    convention x_{-1} := x_0.  Returns a new array.  A pull row longer
    than ``depth - 1`` would read past the iterates kept, and raises.
    """
    if not len(history):
        raise ConfigurationError("apply_policy needs a nonempty history")
    x = history[-1]
    out = np.array(x, dtype=float)
    if policy is None:
        return out
    row = stage_at(policy.pull, n)
    if len(row) >= policy.depth:
        raise ConfigurationError(f"the pull at n = {n} has length {len(row)}; "
                                 f"it needs depth > {len(row)}, got {policy.depth}")
    for k, a in enumerate(row, 1):
        out += a * (x - (history[-1 - k] if k < len(history) else history[0]))
    if policy.errors is not None:
        e = vector(policy.errors(n))
        check_dim(e, x.shape[0], "additive perturbation")
        out += e
    return out


# ---------------------------------------------------------------------------
# Traces and results
# ---------------------------------------------------------------------------

class IterationRecord(NamedTuple):
    """Observable quantities of one iteration; the engine checks step_norm and residual."""

    n: int
    x: np.ndarray
    x_tilde: np.ndarray
    y: np.ndarray
    y_star: np.ndarray
    step_norm: float
    residual: float
    theta: float
    sigma: float
    rho: float
    lam: float
    gamma: float


class Trace:
    """An iteration trace by column, one list per ``IterationRecord`` field.  It reads as
    the list of its records (``len``, index, slice, iteration), each built on read."""

    def __init__(self):
        for column in IterationRecord._fields:
            setattr(self, column, [])

    def append(self, n, x, x_tilde, y, y_star, step_norm, residual, theta, sigma, rho, lam, gamma):
        self.n.append(n)
        self.x.append(x)
        self.x_tilde.append(x_tilde)
        self.y.append(y)
        self.y_star.append(y_star)
        self.step_norm.append(step_norm)
        self.residual.append(residual)
        self.theta.append(theta)
        self.sigma.append(sigma)
        self.rho.append(rho)
        self.lam.append(lam)
        self.gamma.append(gamma)

    def __len__(self):
        return len(self.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self.n))[i]]
        return IterationRecord(self.n[i], self.x[i], self.x_tilde[i], self.y[i], self.y_star[i],
                               self.step_norm[i], self.residual[i], self.theta[i], self.sigma[i],
                               self.rho[i], self.lam[i], self.gamma[i])

    def __iter__(self):
        return map(IterationRecord, *(getattr(self, column) for column in IterationRecord._fields))


@dataclass
class SolveResult:
    """Final point, the ``Trace`` of ``IterationRecord``s and an explicit status (never silent)."""

    x: object
    trace: Trace
    status: str
    stop_reason: str
    iterations: int
    kt_residuals: tuple = None

    @property
    def converged(self):
        return self.status == "converged"


def _length(d):
    return math.sqrt(d.dot(d))


def _stall_floor(cfg, x):
    # "Non-small" residual for the stall diagnostic: above the requested
    # tolerance and above the float noise floor of the iterate scale.
    return max(cfg.tol_residual, 1e-12 * (1.0 + float(np.linalg.norm(x))))


# ---------------------------------------------------------------------------
# Weak and strong warped proximal iterations
# ---------------------------------------------------------------------------

def _iterate(m: MDecomposition, kernels, step, policy, cfg: SolverConfig,
             x0, anchored=False) -> SolveResult:
    """The iteration engine shared by every solver.

    Each step: the stage (K_n, gamma_n), K_n from ``kernels`` (a Kernel or a schedule
    n -> Kernel) and gamma_n from ``step`` (a number, a schedule n -> number, or None: the
    step K_n was folded with, 1 for a kernel without a fold), whose step floor and pairing
    with M are checked and whose pair call (``Kernel._pair``) is built unless K_n and
    gamma_n repeat the last stage;
    the policy point x~_n; the graph point (y_n, y_n*) at x~_n, one pair call;
    then the update through its cut.  The update is the relaxed projection, or, when
    ``anchored``, the projection of x0 onto H(x0, x_n) and the cuts a
    ``CutRing`` keeps (Haugazeau).  Stops when |y*| <= tol_residual and
    |x~ - y| <= tol_step: the relaxed update still applies its last step,
    the anchored one certifies before projecting and records a zero step.

    Finiteness is certified once per graph point, by the scalars the cut
    needs: sigma = |y*|^2 finite means y* is, and theta = <y - x, y*>
    finite, with x finite, means y is (an infinite y_i makes its term
    infinite or NaN, also where y*_i = 0).  Only when theta or sigma is not
    finite does ``_scan_pair`` scan the vectors; it raises
    NonFiniteEntryError, or returns when a product merely overflowed.  A
    NonFiniteEntryError or DimensionMismatchError of the graph point names
    iteration n.  numpy's floating-point warnings are off in the loop: the
    typed errors report what they would.
    """
    if not (_is_schedule(kernels) or isinstance(kernels, Kernel)):
        raise ConfigurationError("kernel schedule must be a Kernel or a callable n -> Kernel")
    policy = policy if policy is not None else PerturbationPolicy()
    x0 = vector(x0)
    check_dim(x0, m.dim, "starting point")
    x = x0
    lam_of, takes_ctx = _relaxation_schedule(cfg.relaxation, cfg.epsilon)
    history = deque(maxlen=policy.depth)
    history.append(x)
    trace, keep = Trace(), cfg.keep_graph_points
    stall = 0
    paired = None, None  # the stage last checked: its kernel by identity, gamma by value
    y = None  # the previous y warm-starts the next backward solve
    floor = step_floor(cfg.epsilon)
    status, reason = "max_iter", f"max_iter = {cfg.max_iter} reached without tolerance"
    # Settled once per run: a constant stage (K, gamma), a constant lambda,
    # and x~_n = x_n itself (not a copy) when there is no perturbation.
    kernel_staged, step_staged = _is_schedule(kernels), _is_schedule(step)
    lam = None if anchored or lam_of else check_relaxation(cfg.relaxation, cfg.epsilon)
    perturbed = _is_schedule(policy.pull) or len(policy.pull) or policy.errors is not None
    ring = CutRing(x0) if anchored else None
    with np.errstate(all="ignore"):
        for n in range(cfg.max_iter):
            if kernel_staged or step_staged or n == 0:
                kern = kernels(n) if kernel_staged else kernels
                gamma = step(n) if step_staged else step
                gamma = float(gamma) if gamma is not None else (
                    kern.fold[0] if kern.fold is not None else 1.0)
                if kern is not paired[0] or gamma != paired[1]:
                    if not gamma >= floor:
                        check_step(gamma, 1.0, 0.0, cfg.epsilon, label=f"gamma_{n}")
                    _check_pairing(m, kern, gamma)
                    paired, pair = (kern, gamma), kern._pair(m.set_part, gamma)
            x_tilde = apply_policy(policy, history, n) if perturbed else x
            try:
                y, y_star = pair(x_tilde, y)
                # d.dot(e) and sqrt(d.dot(d)) are what inner() and np.linalg.norm compute.
                theta = float((y - x).dot(y_star))
                sigma = float(y_star.dot(y_star))
                if not (math.isfinite(theta) and math.isfinite(sigma)):
                    _scan_pair(kern, x_tilde, y, y_star)
            except (NonFiniteEntryError, DimensionMismatchError) as exc:
                raise type(exc)(f"iteration {n}: {exc}") from exc
            residual = math.sqrt(sigma)
            done = residual <= cfg.tol_residual and _length(x_tilde - y) <= cfg.tol_step
            if not anchored:
                if lam_of:
                    ctx = IterationContext(n, gamma, cfg.epsilon, x, x_tilde, y, y_star,
                                           theta, sigma) if takes_ctx else None
                    lam = lam_of(n, ctx)
                rho, x_next = relaxed_cut(x, theta, sigma, y_star, lam)
            elif done:
                # Certified before the projection: a noise-scale cut would
                # make the cut geometry meaningless.
                lam, rho, x_next = 1.0, 0.0, x
            else:
                lam = 1.0
                rho = cut_coefficient(theta, sigma, lam)
                if not math.isfinite(rho):
                    # theta and sigma overflowed: the cut has no geometry, and
                    # the record reports the non-finite step, as a relaxed one.
                    x_next = x + rho * y_star
                else:
                    ring.add(y, y_star, sigma, theta)
                    # x = P_{C_{n-1}} x0 meets the new cut when theta >= 0, so
                    # it is x0's projection onto C_n as well.
                    if theta < 0:
                        try:
                            x_next = ring.project(x)
                        except InfeasibleCutsError as exc:
                            raise InfeasibleCutsError(f"iteration {n}: {exc}") from exc
                    else:
                        x_next = x
            step_norm = _length(x_next - x)
            if not (math.isfinite(step_norm) and step_norm >= 0):
                raise SolverCorruptionError(f"step norm {step_norm} is not finite nonnegative")
            if not (math.isfinite(residual) and residual >= 0):
                raise SolverCorruptionError(f"residual {residual} is not finite nonnegative")
            trace.append(n, x, x_tilde, y if keep else None, y_star if keep else None,
                         step_norm, residual, theta, sigma, rho, lam, gamma)
            if done:
                x = x_next
                status, reason = "converged", f"residual and step tolerances met at n = {n}"
                break
            if theta >= 0 and residual > _stall_floor(cfg, x_tilde):
                stall += 1
                if stall >= STALL_LIMIT:
                    raise StallError(
                        f"{stall} consecutive idle cuts with residual {residual:.3e} at "
                        f"n = {n}; check kernel constants and schedules")
            else:
                stall = 0
            x = x_next
            history.append(x)
    return SolveResult(x=x, trace=trace, status=status, stop_reason=reason,
                       iterations=len(trace))


def solve_weak(m: MDecomposition, kernel_schedule, policy, cfg: SolverConfig,
               x0) -> SolveResult:
    """Relaxed warped proximal iteration, weakly convergent to a zero of M.

    Each step evaluates the warped resolvent at the policy point x~_n,
    certifies the graph point (y_n, y_n*), and applies the relaxed
    projection onto its half-space.  Stops when |y*| <= tol_residual and
    |x~ - y| <= tol_step; reaching max_iter returns a warning status.
    """
    return _iterate(m, kernel_schedule, cfg.step_size, policy, cfg, x0)


def solve_strong(m: MDecomposition, kernel_schedule, policy, cfg: SolverConfig,
                 x0) -> SolveResult:
    """Haugazeau-style warped iteration, strongly convergent to proj_Z x0.

    The next iterate is the projection of x0 onto H(x0, x_n) = {z : <z -
    x_n, x0 - x_n> <= 0} and the last ``fejer.RING_SIZE`` graph cuts, with
    older cuts still active kept too (``fejer.CutRing``): a set that
    contains every zero and lies in H(x0, x_n) and the newest cut.
    Disjoint cuts abort with the typed error (they cannot occur when zeros
    exist).
    """
    return _iterate(m, kernel_schedule, cfg.step_size, policy, cfg, x0, anchored=True)


# ---------------------------------------------------------------------------
# Forward-backward-forward solvers
# ---------------------------------------------------------------------------

def _fbf(A, B, W_schedule, gamma_schedule, policy, cfg, x0):
    # K_n = W_n - gamma_n B, paired with M = A + B; fbf_kernel checks each
    # stage's step range, fbf_step the epsilon regime and the default step.
    # gamma_n travels in K_n's fold; without B the engine reads the step itself.
    W = identity_map(A.dim) if W_schedule is None else W_schedule
    alpha = stage_at(W, 0).strong_monotonicity
    if alpha is None:
        raise ConfigurationError("solve_fbf_memory needs W with declared strong monotonicity")
    gamma = fbf_step(alpha, B.lipschitz if B is not None else 0.0, cfg.epsilon)
    step = gamma_schedule if gamma_schedule is not None else cfg.step_size
    step = gamma if step is None else step
    kernels = staged(lambda W_n, g: fbf_kernel(W_n, B, g, cfg.epsilon), W,
                     step if B is not None else 1.0)
    return _iterate(MDecomposition(A, B), kernels, step if B is None else None, policy, cfg, x0)


def solve_fbf_memory(A: SetValuedOperator, B, W_schedule, gamma_schedule,
                     policy, cfg: SolverConfig, x0) -> SolveResult:
    """Perturbed forward-backward-forward iteration with memory.

    x~ from the policy, one forward evaluation at x~, one backward solve
    through (W_n + gamma_n A)^{-1}, one forward correction at y, then the
    relaxed cut projection: the engine run with the forward-backward
    kernels ``W_n - gamma_n B``.
    """
    return _fbf(A, B, W_schedule, gamma_schedule, policy, cfg, x0)


def solve_tseng(A: SetValuedOperator, B: SingleValuedOperator, gamma_schedule,
                cfg: SolverConfig, x0) -> SolveResult:
    """Tseng's forward-backward-forward iteration.

    v* = gamma B x; y = J_{gamma A}(x - v*); x+ = y - gamma B y + v*.  This
    is the relaxed cut step of the kernel Id - gamma B with the relaxation
    gamma |y*|^2 / <x - y, y*> (``tseng_relaxation``), which the trace
    exposes; ``cfg.relaxation`` is not used.
    """
    return _fbf(A, B, None, gamma_schedule, None,
                replace(cfg, relaxation=tseng_relaxation), x0)


# ---------------------------------------------------------------------------
# Coupled systems: Kuhn-Tucker operator and primal-dual solver
# ---------------------------------------------------------------------------

def _block_parts(dim, op, offset, modulus, bound, floor, names):
    """(Lipschitz part, offset, bound, floor) of a coupled block of set part dimension ``dim``,
    checked, with defaults for None: the zero map, a zero offset, the part's Lipschitz constant,
    and half the regime's ``epsilon_bound``.  ``names`` holds the four that messages use."""
    set_name, op_name, offset_name, bound_name = names.split()
    op = zero_map(dim) if op is None else op
    if op.dim != dim:
        raise DimensionMismatchError(f"{op_name} has dim {op.dim}, {set_name} has dim {dim}")
    offset = check_dim(np.zeros(dim) if offset is None else vector(offset), dim, offset_name)
    bound = op.lipschitz if bound is None else bound
    if not bound > 0:
        raise ConfigurationError(f"declared {bound_name} must be > 0")
    return op, offset, bound, 0.5 * epsilon_bound(modulus, bound) if floor is None else floor


@dataclass
class PrimalBlock:
    """One primal inclusion block: set part A, Lipschitz part C, offset s*.

    ``alpha``/``chi`` are the declared constants of the stage operators
    F_{i,n} (identity by default), ``mu`` the declared Lipschitz constant of
    C, and ``epsilon`` the stage floor with epsilon < alpha/(mu + 1).
    """

    A: SetValuedOperator
    C: SingleValuedOperator = None
    s_star: np.ndarray = None
    alpha: float = 1.0
    chi: float = 1.0
    epsilon: float = None
    mu: float = None

    def __post_init__(self):
        self._C_given = self.C is not None
        self.C, self.s_star, self.mu, self.epsilon = _block_parts(
            self.A.dim, self.C, self.s_star, self.alpha, self.mu, self.epsilon, "A C s_star mu")
        self.default_step  # fbf_step checks the epsilon regime

    @property
    def dim(self):
        return self.A.dim

    @property
    def stage(self):
        """The stage regime's (alpha, beta, epsilon, chi): (alpha, mu, epsilon, chi)."""
        return self.alpha, self.mu, self.epsilon, self.chi

    @property
    def default_step(self):
        """Default stage constant gamma_i, inside [epsilon, (alpha - epsilon)/mu]."""
        return fbf_step(*self.stage[:3], "primal epsilon")


@dataclass
class DualBlock:
    """One dual inclusion block: set part B, Lipschitz part D, offset r."""

    B: SetValuedOperator
    D: SingleValuedOperator = None
    r: np.ndarray = None
    beta: float = 1.0
    kappa: float = 1.0
    delta: float = None
    nu: float = None

    def __post_init__(self):
        self._D_given = self.D is not None
        self.D, self.r, self.nu, self.delta = _block_parts(
            self.B.dim, self.D, self.r, self.beta, self.nu, self.delta, "B D r nu")
        self.default_step  # fbf_step checks the delta regime

    @property
    def dim(self):
        return self.B.dim

    @property
    def stage(self):
        """The stage regime's (alpha, beta, epsilon, chi): (beta, nu, delta, kappa)."""
        return self.beta, self.nu, self.delta, self.kappa

    @property
    def default_step(self):
        """Default stage constant tau_j, inside [delta, (beta - delta)/nu]."""
        return fbf_step(*self.stage[:3], "dual delta")


class CoupledProblem:
    """A system of coupled monotone inclusions with linear couplings.

    ``couplings`` maps (dual index j, primal index i) to the matrix of
    L_{ji}; missing pairs are zero.  ``coupling`` holds them all as one
    read-only stacked matrix L (dual total x primal total), so that L x and
    L* v* are one matvec each.  The skew coupling S, ``saddle_skew_map`` of
    [L, -Id], the forward part and the set part are built on first use and
    cached, so kernels and decompositions assembled from the same problem
    instance share the same forward object.
    """

    def __init__(self, primal, dual, couplings):
        self.primal = list(primal)
        self.dual = list(dual)
        if not self.primal or not self.dual:
            raise ConfigurationError("a coupled problem needs at least one primal and one dual block")
        self.primal_layout = BlockLayout(tuple(b.dim for b in self.primal))
        self.dual_layout = BlockLayout(tuple(b.dim for b in self.dual))
        self.layout = BlockLayout(
            self.primal_layout.dims + self.dual_layout.dims + self.dual_layout.dims)
        po, do = self.primal_layout.offsets, self.dual_layout.offsets
        self.coupling = np.zeros((do[-1], po[-1]))
        for (j, i), mat in dict(couplings).items():
            if not (0 <= i < len(self.primal) and 0 <= j < len(self.dual)):
                raise ConfigurationError(f"coupling index ({j}, {i}) out of range")
            L = mat if isinstance(mat, LinearMap) else LinearMap(mat)
            if L.domain_dim != self.primal[i].dim or L.codomain_dim != self.dual[j].dim:
                raise DimensionMismatchError(
                    f"coupling ({j}, {i}) has shape {L.matrix.shape}, expected "
                    f"({self.dual[j].dim}, {self.primal[i].dim})")
            self.coupling[do[j]:do[j + 1], po[i]:po[i + 1]] = L.matrix
        self.coupling.setflags(write=False)
        self._forward = None
        self._set_part = None
        self._skew = None

    def skew(self) -> SingleValuedOperator:
        """The skew coupling S: (x,y,v*) -> (L*v*, -v*, -Lx+y), ``saddle_skew_map`` of [L, -Id]."""
        if self._skew is None:
            nz = self.dual_layout.total
            self._skew = saddle_skew_map(LinearMap(np.concatenate((self.coupling, -np.eye(nz)), 1)))
        return self._skew

    def skew_norm(self) -> float:
        """Operator norm |S| of the skew coupling, from the eigenvalues of S^T S."""
        return self.skew().lipschitz

    def kt_forward(self) -> SingleValuedOperator:
        """Forward part of the stacked Kuhn-Tucker operator (cached instance).

        (x, y, v*) -> ((C_i x_i)_i + L* v*, (D_j y_j)_j - v*, -L x + y): the
        skew matrix times u, plus each C_i / D_j given on its slice.
        """
        if self._forward is None:
            S = self.skew().matrix
            offs = self.layout.offsets
            given = [(blk.C, blk._C_given) for blk in self.primal]
            given += [(blk.D, blk._D_given) for blk in self.dual]
            parts = [(slice(offs[k], offs[k + 1]), op) for k, (op, on) in enumerate(given) if on]

            def fn(u):
                out = S @ u
                for sl, op in parts:
                    out[sl] += op._apply(u[sl])
                return out

            diag = max(
                max(blk.mu for blk in self.primal),
                max(blk.nu for blk in self.dual),
            )
            self._forward = SingleValuedOperator(
                self.layout.total, fn, lipschitz=diag + self.skew_norm(),
                name="kt_forward", shaped=True)
        return self._forward

    def kt_set_part(self) -> BlockDiagonalOperator:
        """Diagonal set part: (A_i - s*_i)_i x (B_j)_j x ({r_j})_j (cached)."""
        if self._set_part is None:
            blocks = [blk.A.add_constant(-blk.s_star) for blk in self.primal]
            blocks += [blk.B for blk in self.dual]
            blocks += [constant_operator(blk.r) for blk in self.dual]
            self._set_part = BlockDiagonalOperator(blocks, self.layout, name="kt_diag")
        return self._set_part

    def decomposition(self) -> MDecomposition:
        """The stacked Kuhn-Tucker operator as an M-decomposition."""
        return MDecomposition(self.kt_set_part(), self.kt_forward())


@dataclass(frozen=True, eq=False)
class KuhnTuckerPoint:
    """A point (x, y, v*) of the stacked primal-dual space of ``problem``.

    ``flat`` is the frozen stacked vector; ``x``, ``y`` and ``v_star`` are
    read-only views of its three parts, and ``blocks()`` cuts them into
    per-block lists.
    """

    flat: np.ndarray
    problem: CoupledProblem

    def __post_init__(self):
        flat = vector(self.flat)
        check_dim(flat, self.problem.layout.total, "Kuhn-Tucker point")
        object.__setattr__(self, "flat", flat)

    @property
    def x(self) -> np.ndarray:
        return self.flat[:self.problem.primal_layout.total]

    @property
    def y(self) -> np.ndarray:
        ny = self.problem.primal_layout.total
        return self.flat[ny:ny + self.problem.dual_layout.total]

    @property
    def v_star(self) -> np.ndarray:
        return self.flat[self.problem.primal_layout.total + self.problem.dual_layout.total:]

    def blocks(self):
        """The (x blocks, y blocks, v* blocks) lists, as read-only views."""
        parts = self.problem.layout.split(self.flat)
        nI, nJ = len(self.problem.primal), len(self.problem.dual)
        return parts[:nI], parts[nI:nI + nJ], parts[nI + nJ:]

    @classmethod
    def lift(cls, problem: CoupledProblem, x_blocks, v_blocks) -> "KuhnTuckerPoint":
        """Lift a primal-dual pair, given block by block, to (x, Lx - r, v*)."""
        x = problem.primal_layout.join([vector(b) for b in x_blocks])
        v = problem.dual_layout.join([vector(b) for b in v_blocks])
        return cls.from_pair(problem, x, v)

    @classmethod
    def from_pair(cls, problem: CoupledProblem, x, v_star) -> "KuhnTuckerPoint":
        """Lift a primal-dual pair, given as stacked vectors, to (x, Lx - r, v*).

        A NaN or Inf in x, or an L x - r past the float range, is a NonFiniteEntryError; the
        latter names its dual block."""
        x = check_dim(np.asarray(x, dtype=float), problem.primal_layout.total, "stacked x")
        check_finite(x, "stacked x")
        with np.errstate(all="ignore"):  # an overflow is reported below, by dual block
            y = problem.coupling @ x - np.concatenate([blk.r for blk in problem.dual])
        for j, y_j in enumerate(problem.dual_layout.split(y)):
            check_finite(y_j, f"dual block {j}: L x - r")
        return cls(np.concatenate([x, y, v_star]), problem)

    @classmethod
    def zero(cls, problem: CoupledProblem) -> "KuhnTuckerPoint":
        return cls(np.zeros(problem.layout.total), problem)

    def flatten(self) -> np.ndarray:
        return self.flat


def kt_residuals(problem: CoupledProblem, point: KuhnTuckerPoint):
    """Blockwise resolvent certificates of the Kuhn-Tucker inclusions.

    Primal i: |x_i - J_{A_i}(x_i + s*_i - sum_j L_{ji}* v_j - C_i x_i)|.
    Dual j, at u_j = sum_i L_{ji} x_i - r_j:
    |u_j - J_{B_j}(u_j + v*_j - D_j u_j)|.
    """
    xs, _, vs = point.blocks()
    lt = problem.primal_layout.split(problem.coupling.T @ point.v_star)
    lx = problem.dual_layout.split(problem.coupling @ point.x)
    out = []
    for blk, x, lt_i in zip(problem.primal, xs, lt):
        w = blk.s_star - lt_i  # a C_i or D_j not given is zero: skipping it keeps the bits
        w = x + (w - blk.C(x) if blk._C_given else w)
        out.append(_length(x - blk.A.resolvent(1.0, w)))
    for blk, lx_j, v in zip(problem.dual, lx, vs):
        u = lx_j - blk.r
        w = u + v
        out.append(_length(u - blk.B.resolvent(1.0, w - blk.D(u) if blk._D_given else w)))
    return tuple(out)


def check_identity_stages(blocks, side):
    """Raise unless each block's stage constants are 1, as identity stage operators need:
    (alpha, chi) with F on the ``"primal"`` side, (beta, kappa) with W on the ``"dual"``."""
    consts, sym = ("(alpha, chi)", "F") if side == "primal" else ("(beta, kappa)", "W")
    for i, blk in enumerate(blocks):
        values = (blk.stage[0], blk.stage[3])
        if values != (1.0, 1.0):
            raise ConfigurationError(
                f"{side} block {i} declares {consts} = ({values[0]}, {values[1]}) "
                f"but no stage operators {sym} were supplied")


def _stage_steps(steps, defaults, kind):
    # One stage constant per block: the blocks' defaults, or a scalar broadcast.
    if steps is None:
        return defaults
    fixed = np.atleast_1d(np.asarray(steps, dtype=float))
    if fixed.shape not in ((1,), (len(defaults),)):
        raise ConfigurationError(f"need one {kind} per block, or one for all, got shape {fixed.shape}")
    return fixed.repeat(len(defaults) // len(fixed)).tolist()


def check_coupled_step(step):
    """A coupled run's step is the gamma = 1 its kernels fold: None or 1.0."""
    if step is not None and step != 1.0:
        raise ConfigurationError(f"a coupled run's step is 1 (its kernels fold gamma = 1), got {step!r}")


def solve_coupled(problem: CoupledProblem, cfg: SolverConfig, start=None,
                  policy=None, F_schedule=None, W_schedule=None,
                  gamma_schedules=None, tau_schedules=None, dual_scale=None) -> SolveResult:
    """Primal-dual solver for a coupled inclusion system.

    Runs the generic weak solver over the stacked Kuhn-Tucker space with
    the coupled kernels, built by ``staged``; ``cfg.step_size`` must be
    None or 1.0 (``check_coupled_step``).  ``dual_scale`` is the kernels'
    v* coefficient c, finite and > 0: None selects |S| for the skew S,
    ``saddle_skew_map`` of [L, -Id] (>= 1, since S holds the +-Id blocks
    linking y and v*), 1.0 the paper's kernel.  The result carries blockwise
    Kuhn-Tucker residual certificates of the final point.
    """
    check_coupled_step(cfg.step_size)
    if dual_scale is not None and not 0 < dual_scale < math.inf:
        raise ConfigurationError(f"dual_scale must be > 0 and finite, got {dual_scale}")
    c = problem.skew_norm() if dual_scale is None else float(dual_scale)
    if c == math.inf:  # a finite dual_scale was checked above
        raise ConfigurationError("the coupling norm |S| is past the float range; scale the couplings")
    if F_schedule is None:
        check_identity_stages(problem.primal, "primal")
        F_schedule = [identity_map(b.dim) for b in problem.primal]
    if W_schedule is None:
        check_identity_stages(problem.dual, "dual")
        W_schedule = [identity_map(b.dim) for b in problem.dual]
    gamma0, tau0 = ([b.default_step for b in part] for part in (problem.primal, problem.dual))
    kernels = staged(lambda F, W, g, t: coupled_kernel(
        problem, F, W, _stage_steps(g, gamma0, "gamma"), _stage_steps(t, tau0, "tau"), c),
        F_schedule, W_schedule, gamma_schedules, tau_schedules)
    start = KuhnTuckerPoint.zero(problem) if start is None else start
    res = solve_weak(problem.decomposition(), kernels, policy, cfg, start.flatten())
    point = KuhnTuckerPoint(res.x, problem)
    return SolveResult(
        x=point, trace=res.trace, status=res.status, stop_reason=res.stop_reason,
        iterations=res.iterations, kt_residuals=kt_residuals(problem, point))
