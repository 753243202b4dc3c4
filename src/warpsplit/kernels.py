"""Kernels and warped resolvents.

A kernel K warps the classical resolvent into ``(K + gamma M)^{-1} o K``.
Every kernel here is structured: it designates a backward part ``K_base``
for which ``(K_base + gamma A)^{-1}`` is realizable (closed form when the
base is a scaled identity, a contraction inner loop for general strongly
monotone Lipschitz bases), and the forward part B of ``M = A + B`` plus any
skew coupling is folded into the kernel evaluation, so that

    K + gamma * M  =  K_base + gamma * A

holds by construction.  No generic nonlinear inclusion solver is attempted;
the warped resolvent always reduces to classical resolvents plus forward
evaluations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    BackwardSolveError,
    ConfigurationError,
    DimensionMismatchError,
    NonFiniteEntryError,
)
from .operators import (
    BlockDiagonalOperator,
    GraphPoint,
    SetValuedOperator,
    SingleValuedOperator,
    saddle_skew_map,
)
from .space import BlockLayout, LinearMap, check_dim, check_finite

INNER_TOL_SCALE = 1e-12
INNER_MAX_ITER = 200


class MDecomposition:
    """A maximally monotone operator split as M = A + B.

    ``set_part`` is the resolvent-backed set-valued part A; ``forward_part``
    is the optional monotone Lipschitz single-valued part B.
    """

    def __init__(self, set_part: SetValuedOperator, forward_part=None):
        if forward_part is not None and forward_part.dim != set_part.dim:
            raise DimensionMismatchError(
                f"forward part dim {forward_part.dim} != set part dim {set_part.dim}")
        if forward_part is not None and not forward_part.monotone:
            raise ConfigurationError("forward part of an M-decomposition must be monotone")
        self.set_part = set_part
        self.forward_part = forward_part
        self.dim = set_part.dim

    def __repr__(self):
        fwd = "none" if self.forward_part is None else self.forward_part.name
        return f"MDecomposition(A={self.set_part.name}, B={fwd})"


def _norm(v) -> float:
    """|v| as sqrt(v.v), which is np.linalg.norm(v) bit for bit.

    When the squares of a finite v overflow, the norm is recomputed scaled
    by max |v_i|; a NaN or Inf entry still gives a non-finite norm.
    """
    n = math.sqrt(v.dot(v))
    if n == math.inf:
        s = float(np.abs(v).max())
        if s < math.inf:
            u = v / s
            n = s * math.sqrt(u.dot(u))
    return n


@functools.lru_cache(maxsize=8)
def _newton_inverse(W, c, mask):
    """(I - D (I - W_m / c))^-1 for the free mask D with bytes ``mask``.

    Cached: D rarely changes within a run.  The matrix has the positive
    definite block (W_m / c)_FF on D's free set F, so it is invertible.
    """
    D = np.frombuffer(mask)
    H = W.matrix * (D / c)[:, None]
    H.ravel()[::len(D) + 1] += 1.0 - D  # the diagonal, through a view
    return np.linalg.inv(H)


def _run_plan(plan, v, start=None):
    """``Kernel._plan``'s backward solve at v, warm-started at ``start``: one
    ``solve_base_inclusion`` per entry (unscanned; an inner loop's residual certifies it),
    then one numpy call per run, in the bits of each block's np.dot, and the offsets, zero
    on the entries, so that every coordinate they are subtracted from is already written."""
    runs, offsets, entries = plan
    out = np.empty(len(v))
    for sl, W, g, c, A in entries:
        out[sl] = solve_base_inclusion(W, g, A, v[sl] if c == 1.0 else v[sl] / c,
                                       None if start is None else start[sl])
    for sl, R, shape in runs:
        if shape is None:
            np.multiply(R, v[sl], out=out[sl])
        else:
            np.matmul(R, v[sl].reshape(shape), out=out[sl].reshape(shape))
    if runs:
        out -= offsets
    return out


def solve_base_inclusion(W, gamma, A, v, start=None, image=None):
    """Solve v in W(p) + gamma * A(p) for the unique p.

    W is a strongly monotone Lipschitz map (None means the identity); v and
    ``start`` are float vectors of A's dimension.  The scaled-identity case
    is closed form; otherwise a contraction inner loop with ratio
    sqrt(1 - (alpha/beta)^2) runs to residual ``1e-12 * (1 + |v|)`` within
    200 iterations, else raises.  The loop starts from ``start`` (any point
    converges; ``image``, when given, is its W(start)), else from J at v.

    For an affine W (``W.matrix``) and an A with ``resolvent_jacobian``, the
    steps are semismooth Newton steps on p - J_{(gamma/c) A}(p - (W p - v)/c),
    each certified by a contraction step, whose output is returned; once one
    fails to halve the best residual, contraction goes on from the best point.
    The inverse Newton matrix is cached per (W, c, free mask).

    The oracles are called through their unscanned entries
    (``SetValuedOperator._resolve``, ``SingleValuedOperator._apply``).  The
    loop certifies its own output: a residual within tolerance is finite,
    and a non-finite residual raises NonFiniteEntryError at once (after a
    Newton step, the loop falls back instead).  The closed form's output is
    certified by the graph point it feeds.
    """
    c = 1.0 if W is None else W.scale_of_identity
    if c is not None:
        return A._resolve(gamma, v) if c == 1.0 else A._resolve(gamma / c, v / c)
    if W.strong_monotonicity is None:
        raise ConfigurationError(
            f"backward solve with base {W.name!r} needs a declared strong-monotonicity constant")
    c = W.lipschitz ** 2 / W.strong_monotonicity
    tol = INNER_TOL_SCALE * (1.0 + _norm(v))
    if not math.isfinite(tol):
        raise NonFiniteEntryError(f"backward solve right-hand side has norm {tol / INNER_TOL_SCALE}")
    g = gamma / c
    jacobian = None if W.matrix is None else A.resolvent_jacobian
    best, best_residual = None, math.inf  # the Newton path's best (q, W q)
    p = A._resolve(g, v / c) if start is None else start
    Wp = W._apply(p) if image is None else image
    residual = np.inf
    for _ in range(INNER_MAX_ITER):
        u = (v - Wp + c * p) / c
        q = A._resolve(g, u)
        Wq = W._apply(q)
        # u - q in (gamma/c) A q, so c*(u - q) is gamma * (a point of A q)
        residual = _norm(Wq + c * (u - q) - v)
        if residual <= tol:
            return q
        if not math.isfinite(residual) and (jacobian is None or best is None):
            raise NonFiniteEntryError(f"backward solve residual {residual} is not finite")
        if jacobian is not None:
            halved = residual < 0.5 * best_residual
            if residual < best_residual:
                best, best_residual = (q, Wq), residual
            if halved:
                # Newton on F(p) = p - q, with Jacobian I - D (I - W_m/c).
                D = np.asarray(jacobian(g, u), dtype=float)
                p = p - _newton_inverse(W, c, D.tobytes()).dot(p - q)
                Wp = W._apply(p)
                continue
            jacobian = None  # the residual stopped halving
            q, Wq = best
        p, Wp = q, Wq
    raise BackwardSolveError(
        f"backward solve did not reach tolerance {tol:.3e} within "
        f"{INNER_MAX_ITER} iterations (residual {residual:.3e})",
        residual=residual)


class Kernel:
    """Structured kernel: blockwise base ``c_b * W_b`` minus a folded forward part.

    Parameters
    ----------
    dim : int
        Dimension of the kernel's space.
    base : list of (W, c) pairs
        Per-block base maps with positive coefficients; W = None means the
        identity.
    layout : BlockLayout or None
        Block structure; None means one block covering the whole space.
    fold : (gamma, SingleValuedOperator) or None
        Forward part folded into the evaluation: K = K_base - gamma * B.
    alpha, beta : float
        Declared strong-monotonicity and Lipschitz constants of K.
    """

    def __init__(self, dim, base, layout, fold, alpha, beta, name="kernel"):
        if not alpha > 0:
            raise ConfigurationError(f"kernel strong monotonicity must be > 0, got {alpha}")
        if not beta > 0:
            raise ConfigurationError(f"kernel Lipschitz constant must be > 0, got {beta}")
        # One whole-space block is built here, not as a BlockLayout, which
        # rejects the empty block of a zero-dimensional space.
        dims, offs = ((dim,), (0, dim)) if layout is None else (layout.dims, layout.offsets)
        if sum(dims) != dim:
            raise DimensionMismatchError("kernel layout does not cover the space")
        if len(base) != len(dims):
            raise DimensionMismatchError("kernel base must have one (W, c) pair per block")
        for W, c in base:
            if not c > 0:
                raise ConfigurationError(f"kernel base coefficient must be > 0, got {c}")
        self.dim = int(dim)
        self.base = [(W, float(c)) for W, c in base]
        self.layout = layout
        self.fold = None if fold is None else (float(fold[0]), fold[1])
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.name = name
        # Block slices, and the coefficient vector of the identity and
        # scaled-identity blocks (None if none); only general blocks call W.
        self._slices = [slice(a, b) for a, b in zip(offs, offs[1:])]
        coefs, self._general = [], []
        for sl, (W, c) in zip(self._slices, self.base):
            s = 1.0 if W is None else W.scale_of_identity
            if s is None:
                self._general.append((sl, W, c))
            coefs.append(0.0 if s is None else c * s)
        self._coef = None if len(self._general) == len(dims) else np.array(coefs).repeat(dims)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x) -> np.ndarray:
        """K x, with x checked for the kernel's dimension (``_eval`` checks nothing)."""
        x = np.asarray(x, dtype=float)
        check_dim(x, self.dim, "kernel %s argument", self.name)
        return self._eval(x)

    def _eval(self, x) -> np.ndarray:
        """K x, a new array, for a float vector x of the kernel's dimension; not scanned.

        The base and forward maps are called through their unscanned entries,
        ``_apply``.  A NaN or Inf in K x reaches y* of the graph point it
        feeds, which is certified.
        """
        y = np.empty(self.dim) if self._coef is None else self._coef * x
        for sl, W, c in self._general:
            y[sl] = c * W._apply(x[sl])
        if self.fold is not None:
            g, B = self.fold
            y -= B._apply(x) if g == 1.0 else g * B._apply(x)
        return y

    # -- warped backward solve ----------------------------------------------

    def _check_set_part(self, set_part):
        """A kernel of several blocks needs a block-diagonal set part on its layout."""
        if len(self.base) > 1 and (not isinstance(set_part, BlockDiagonalOperator)
                                   or set_part.layout.dims != self.layout.dims):
            raise ConfigurationError(
                f"kernel {self.name!r} needs a block-diagonal set part matching "
                f"its layout {self.layout.dims}")

    def backward_solve(self, gamma, set_part: SetValuedOperator, v, start=None) -> np.ndarray:
        """Solve v in K_base(p) + gamma * A(p) for checked gamma, v and set part, by the plan
        (``_plan``, built per call) that the engine's pair runs; ``start`` warm-starts inner loops."""
        if not gamma > 0:
            raise ConfigurationError(f"backward solve needs gamma > 0, got {gamma}")
        v = np.asarray(v, dtype=float)
        check_dim(v, self.dim, "backward solve right-hand side")
        if set_part.dim != self.dim:
            raise DimensionMismatchError(
                f"set part dim {set_part.dim} != kernel dim {self.dim}")
        self._check_set_part(set_part)
        return _run_plan(self._plan(set_part, gamma), v, start)

    def _plan(self, set_part, gamma):
        """The backward solve at gamma, as ``_run_plan`` runs it: (runs, offsets, entries).

        In a kernel of several blocks, block b on a base c_b W_b with W_b = s_b Id and a set
        part block with a ``linear_resolvent`` hook solves C_b p_b + gamma A_b(p_b) = v_b,
        C_b = c_b s_b, as the affine map (R_b / C_b) v_b - R_b s_b, from the hook at
        gamma / C_b; folded so, the scalar test problem's zero stays exact.  A row of such
        blocks with one shape of R is a run: scalar R (one read-only coefficient per
        coordinate; shape None) or d_b x d_b (their read-only (k, d_b, d_b) stack; shape
        (k, d_b, 1) for ``np.matmul``), so the cost stays Σ d_b² on matrix blocks, O(d_b) on
        scalar ones.  ``offsets`` holds the R_b s_b, zero off the runs.  Every other block
        is an entry (slice, W_b, gamma / c_b, c_b, A_b): c_b W_b(p) + gamma A_b(p) = v_b is
        W_b(p) + (gamma / c_b) A_b(p) = v_b / c_b, for ``solve_base_inclusion``.
        """
        several = len(self.base) > 1
        runs, entries, offsets, key = [], [], np.zeros(self.dim), None
        for k, (sl, (W, c), A) in enumerate(
                zip(self._slices, self.base, set_part.blocks if several else (set_part,))):
            scale = 1.0 if W is None else W.scale_of_identity
            if not several or scale is None or A.linear_resolvent is None:
                entries.append((sl, W, gamma / c, c, A))
                key = None  # an entry ends the run
                continue
            C = c * scale
            R, s = A.linear_resolvent(gamma if C == 1.0 else gamma / C)
            R, s = np.asarray(R), np.asarray(s)
            if R.shape not in ((), (A.dim, A.dim)) or s.shape != (A.dim,):
                raise DimensionMismatchError(f"linear resolvent of block {k} ({A.name}): "
                                             f"R {R.shape}, s {s.shape}, block dim {A.dim}")
            if key != R.shape:
                runs.append((sl.start, R.shape, [], []))
                key = R.shape
            runs[-1][2].append(R / C)
            runs[-1][3].append(A.dim)
            offsets[sl] = np.dot(R, s)
        maps = []
        for a, shape, Rs, dims in runs:
            R = np.stack(Rs) if shape else np.array(Rs).repeat(dims)
            R.setflags(write=False)
            maps.append((slice(a, a + sum(dims)), R, (len(Rs), shape[0], 1) if shape else None))
        return maps, offsets, entries

    def _pair(self, set_part, gamma):
        """pair(x, start) -> (y, y*) for a checked pairing at gamma, built once per stage.

        y = (K_base + gamma A)^{-1} K x, warm-started at ``start``, and y* = (K x - K y) / gamma,
        by the operations of ``eval``, ``backward_solve``, ``eval`` in order: bit for bit.  A
        fold on one identity block at 1.0 takes x - g B x and A's resolvent at gamma; one
        general block, ``solve_base_inclusion`` handed the W y of K y; any other kernel,
        ``_eval`` and the stage's ``_plan``.  Not scanned: the caller certifies the pair
        (``_scan_pair``, or theta and sigma).
        """
        (W, c), (g, B) = self.base[0], self.fold or (1.0, None)
        s, Bf = 1.0 if W is None else W.scale_of_identity, B and B._apply
        one = len(self.base) == 1
        if one and B is not None and c == s == 1.0:
            J = set_part._resolve

            def pair(x, start=None):
                w = x - (Bf(x) if g == 1.0 else g * Bf(x))
                y = J(gamma, w)
                k = y - (Bf(y) if g == 1.0 else g * Bf(y))
                return y, (w - k if gamma == 1.0 else (w - k) / gamma)
        elif one and s is None:
            Wf, gc, last = W._apply, gamma / c, [None, None]  # last (y, W y)

            def pair(x, start=None):
                w = c * Wf(x)
                if Bf:
                    w -= Bf(x) if g == 1.0 else g * Bf(x)
                y = solve_base_inclusion(W, gc, set_part, w if c == 1.0 else w / c, start,
                                         last[1] if start is last[0] else None)
                Wy = Wf(y)
                k = c * Wy
                if Bf:
                    k -= Bf(y) if g == 1.0 else g * Bf(y)
                last[:] = y, Wy
                return y, (w - k if gamma == 1.0 else (w - k) / gamma)
        else:
            plan, ev = self._plan(set_part, gamma), self._eval

            def pair(x, start=None):
                w = ev(x)
                y = _run_plan(plan, w, start)
                return y, (w - ev(y) if gamma == 1.0 else (w - ev(y)) / gamma)
        return pair

    def __repr__(self):
        return f"Kernel({self.name}, dim={self.dim}, alpha={self.alpha}, beta={self.beta})"


def _check_pairing(m: MDecomposition, kernel: Kernel, gamma):
    """Check the kernel against M once per stage: dimension, set part layout, and fold.

    The fold must be the forward object M carries (identity, not equality), at gamma.
    """
    if m.dim != kernel.dim:
        raise DimensionMismatchError(
            f"M has dim {m.dim}, kernel {kernel.name!r} has dim {kernel.dim}")
    kernel._check_set_part(m.set_part)
    g_fold, B_fold = kernel.fold or (None, None)
    if B_fold is not m.forward_part:
        folded, got = ("none" if B is None else repr(B.name) for B in (B_fold, m.forward_part))
        raise ConfigurationError(
            f"kernel {kernel.name!r} folds forward part {folded}, which is not the "
            f"object M = A + B carries (B = {got}); build the kernel with M's own "
            "forward part (e.g. fbf_kernel) so K + gamma*M stays backward-solvable")
    if B_fold is not None and abs(gamma - g_fold) > 1e-12 * max(1.0, abs(g_fold)):
        raise ConfigurationError(
            f"kernel {kernel.name!r} was folded with gamma = {g_fold}, called "
            f"with gamma = {gamma}")


def _scan_pair(kernel: Kernel, x, y, y_star):
    """The exact scans that certify a graph point (y, y*) computed at x.

    Returns when y and y* are finite.  Else raises NonFiniteEntryError naming
    the first non-finite value in the order they were computed: the kernel's
    folded forward oracle at x (called again, through its scanned entry, to
    tell), y, then y*.
    """
    if np.isfinite(y).all() and np.isfinite(y_star).all():
        return
    if kernel.fold is not None:
        kernel.fold[1](x)
    check_finite(y, "graph point y")
    check_finite(y_star, "graph point y*")


def warped_resolvent(m: MDecomposition, kernel: Kernel, gamma, x) -> np.ndarray:
    """Evaluate (K + gamma M)^{-1} (K x): the y of ``graph_point``, with its checks and scans.

    Fixed points of this map are exactly the zeros of M; the output y also
    satisfies ``K x - K y  in  gamma * M y``.  The returned y is read-only, as ``graph_point``'s is.
    """
    return graph_point(m, kernel, gamma, x).y


def graph_point(m: MDecomposition, kernel: Kernel, gamma, x_tilde) -> GraphPoint:
    """Return (y, y*) with y the warped resolvent at x_tilde and y* in M y.

    y* = (K x_tilde - K y) / gamma, which lies in M y by the graph
    characterization of warped resolvents; the pair certifies a half-space
    containing every zero of M.  The pair is the engine's, bit for bit,
    scanned by ``_scan_pair``; numpy's floating-point warnings are off while
    it is computed.
    """
    if not gamma > 0:
        raise ConfigurationError(f"graph_point needs gamma > 0, got {gamma}")
    x_tilde = np.asarray(x_tilde, dtype=float)
    _check_pairing(m, kernel, gamma)
    check_dim(x_tilde, kernel.dim, "kernel %s argument", kernel.name)
    with np.errstate(all="ignore"):
        y, y_star = kernel._pair(m.set_part, gamma)(x_tilde)
        _scan_pair(kernel, x_tilde, y, y_star)
    return GraphPoint(y=y, y_star=y_star)


# ---------------------------------------------------------------------------
# Kernel constructors
# ---------------------------------------------------------------------------

def identity_kernel(dim) -> Kernel:
    """K = Id: the warped resolvent reduces to the classical resolvent."""
    return Kernel(dim, base=[(None, 1.0)], layout=None, fold=None,
                  alpha=1.0, beta=1.0, name="identity")


def map_kernel(W: SingleValuedOperator) -> Kernel:
    """K = W for a strongly monotone Lipschitz map W (no forward fold)."""
    if W.strong_monotonicity is None:
        raise ConfigurationError(
            f"map_kernel needs a declared strong-monotonicity constant on {W.name!r}")
    return Kernel(W.dim, base=[(W, 1.0)], layout=None, fold=None,
                  alpha=W.strong_monotonicity, beta=W.lipschitz,
                  name=f"map({W.name})")


def epsilon_bound(alpha, beta) -> float:
    """The FBF bound alpha/(beta + 1): the regime needs epsilon in ]0, bound[."""
    return alpha / (beta + 1.0)


def fbf_step(alpha, beta, epsilon, label="epsilon") -> float:
    """Check the FBF regime and return the default step.

    The regime is ``epsilon in ]0, alpha/(beta + 1)[`` for a base W that is
    alpha-strongly monotone and a beta-Lipschitz forward part (beta = 0
    when there is none, which leaves ``epsilon in ]0, alpha[``).  The
    default step ``max(epsilon, 0.9 * (alpha - epsilon)/beta)`` (1 when
    beta = 0) passes ``check_step``.  ``label`` names epsilon in the error.
    """
    bound = epsilon_bound(alpha, beta)
    if not 0 < epsilon < bound:
        raise ConfigurationError(
            f"{label} = {epsilon} outside ]0, alpha/(beta + 1)[ = ]0, {bound}[")
    return max(epsilon, 0.9 * (alpha - epsilon) / beta) if beta > 0 else 1.0


def _slack(bound):
    return 1e-12 * max(1.0, abs(bound))


def step_floor(epsilon) -> float:
    """The least step ``check_step`` accepts: epsilon less its roundoff slack."""
    return epsilon - _slack(epsilon)


def check_step(gamma, alpha, beta, epsilon, floor=None, label="gamma") -> float:
    """Check ``gamma in [epsilon, (alpha - epsilon)/beta]``; return it as a float.

    beta = 0 leaves the range open above; ``floor``, when given, replaces
    epsilon as the lower end.  Each end is widened by the roundoff slack
    ``1e-12 * max(1, |end|)``; the message is only formatted on failure.
    """
    floor = epsilon if floor is None else floor
    hi = (alpha - epsilon) / beta if beta > 0 else math.inf
    if not step_floor(floor) <= gamma <= hi + _slack(hi):
        raise ConfigurationError(
            f"{label} = {gamma} outside [epsilon, (alpha - epsilon)/beta] = [{floor}, {hi}]")
    return float(gamma)


def fbf_kernel(W: SingleValuedOperator, B, gamma, epsilon) -> Kernel:
    """Forward-backward-forward kernel K = W - gamma * B.

    W must be alpha-strongly monotone, B monotone beta-Lipschitz, and the
    step must satisfy ``gamma * beta <= alpha - epsilon`` for the configured
    ``epsilon in ]0, alpha[``; the kernel is then epsilon-strongly monotone
    and its backward solve realizes ``(W + gamma A)^{-1}``.  The step floor
    epsilon is the solver's to check, not the kernel's.
    """
    alpha = W.strong_monotonicity
    if alpha is None:
        raise ConfigurationError(
            f"fbf_kernel needs a declared strong-monotonicity constant on W = {W.name!r}")
    fbf_step(alpha, 0.0, epsilon)
    if not gamma > 0:
        raise ConfigurationError(f"fbf_kernel needs gamma > 0, got {gamma}")
    if B is None:
        return Kernel(W.dim, base=[(W, 1.0)], layout=None, fold=None,
                      alpha=epsilon, beta=W.lipschitz, name=f"fbf({W.name})")
    if B.dim != W.dim:
        raise DimensionMismatchError(f"W dim {W.dim} != B dim {B.dim}")
    if not B.monotone:
        raise ConfigurationError("fbf_kernel needs a monotone forward operator B")
    check_step(gamma, alpha, B.lipschitz, epsilon, floor=0.0)
    return Kernel(W.dim, base=[(W, 1.0)], layout=None, fold=(float(gamma), B),
                  alpha=epsilon, beta=W.lipschitz + gamma * B.lipschitz,
                  name=f"fbf({W.name}-{gamma}*{B.name})")


def primal_dual_kernel(m: MDecomposition, gamma, mu) -> Kernel:
    """Kernel (x, v*) -> (x/gamma - L* v*, L x + mu v*) for M = ``saddle_decomposition(A, B, L)``.

    It folds M's own forward part S on M's two blocks, so the skew parts cancel
    and the backward solve decouples into the two classical resolvents.  Its
    alpha = min(1/gamma, mu) needs a skew fold: an M that is not two blocks, or
    whose forward part has no ``matrix`` S with S + S^T == 0 exactly, raises.
    """
    if not gamma > 0 or not mu > 0:
        raise ConfigurationError(f"primal_dual_kernel needs gamma, mu > 0, got {gamma}, {mu}")
    S = getattr(m.forward_part, "matrix", None)
    layout = getattr(m.set_part, "layout", None)
    if (layout is None or len(layout.dims) != 2 or S is None
            or S.shape != (m.dim, m.dim) or (S + S.T).any()):
        raise ConfigurationError(
            f"primal_dual_kernel needs a saddle decomposition: two blocks and a forward "
            f"part whose matrix S is skew (S + S^T == 0), got {m!r}")
    diag = np.diag(np.repeat([1.0 / gamma, float(mu)], layout.dims))
    return Kernel(m.dim,
                  base=[(None, 1.0 / gamma), (None, float(mu))],
                  layout=layout,
                  fold=(1.0, m.forward_part),
                  alpha=min(1.0 / gamma, float(mu)),
                  beta=float(np.linalg.norm(diag - S, 2)),
                  name="primal_dual")


def saddle_decomposition(A: SetValuedOperator, B: SetValuedOperator,
                         L: LinearMap) -> MDecomposition:
    """M(x, v*) = (A x + L* v*) x (-L x + B^{-1} v*) as an M-decomposition.

    Zeros are the primal-dual pairs of ``0 in A x + L*(B(L x))``; pair with
    ``primal_dual_kernel`` built from this decomposition.
    """
    dy, dz = L.domain_dim, L.codomain_dim
    if A.dim != dy or B.dim != dz:
        raise DimensionMismatchError(
            f"saddle operator dims: A is {A.dim} (need {dy}), B is {B.dim} (need {dz})")
    layout = BlockLayout((dy, dz))
    set_part = BlockDiagonalOperator([A, B.inverse()], layout, name="saddle_diag")
    return MDecomposition(set_part, saddle_skew_map(L))


def coupled_kernel(problem, F_ops, W_ops, gammas, taus, c=1.0) -> Kernel:
    """Stage-n kernel for the coupled-system solver.

    Maps (x, y, v*) to ``((F_i x_i / gamma_i - C_i x_i)_i - L* v*,
    (W_j y_j / tau_j - D_j y_j)_j + v*, L x - y + c v*)``.  Stage constants
    must lie in the admissible ranges.  The v* block's base is ``c Id``
    (the paper's kernel is c = 1); it carries no C or D, so its modulus and
    Lipschitz constant are both c.  The declared strong-monotonicity
    constant is min(the stages' vartheta, c), and the Lipschitz constant
    max(the stages' eta, c) + |S| for the skew S, ``saddle_skew_map`` of [L, -Id].
    """
    if not 0 < c < math.inf:
        raise ConfigurationError(f"coupled kernel v* coefficient c must be > 0 and finite, got {c}")
    primal, dual = problem.primal, problem.dual
    if len(F_ops) != len(primal) or len(W_ops) != len(dual):
        raise DimensionMismatchError("one stage operator per block is required")
    if len(gammas) != len(primal) or len(taus) != len(dual):
        raise DimensionMismatchError("one stage constant per block is required")
    ops = list(F_ops) + list(W_ops)
    steps = [float(g) for g in gammas] + [float(t) for t in taus]
    stages = [blk.stage for blk in primal + dual]  # (alpha, beta, epsilon, chi) each
    names = [("primal", i, "gamma", "F") for i in range(len(primal))]
    names += [("dual", j, "tau", "W") for j in range(len(dual))]
    for blk, op, s, stage, (side, i, step, sym) in zip(primal + dual, ops, steps, stages, names):
        check_step(s, *stage[:3], label=f"{side} block {i}: {step}")
        if op.dim != blk.dim:
            raise DimensionMismatchError(f"stage operator {sym}_{i} has wrong dimension")
        if op.strong_monotonicity is None:
            raise ConfigurationError(f"stage operator {sym}_{i} needs a declared strong monotonicity")

    c = float(c)
    base = [(op, 1.0 / s) for op, s in zip(ops, steps)] + [(None, c) for _ in dual]
    vartheta = min(min(e * b / (a - e) for a, b, e, _ in stages), c)
    eta = max(max(chi / e + b for _, b, e, chi in stages), c)
    beta = eta + problem.skew_norm()
    return Kernel(problem.layout.total,
                  base=base,
                  layout=problem.layout,
                  fold=(1.0, problem.kt_forward()),
                  alpha=vartheta,
                  beta=beta,
                  name="coupled")


def nongradient_cubic_kernel() -> Kernel:
    """Planar non-gradient test kernel (x1, x2) -> (x1^3/2 + x1/5 - x2, x1 + x2).

    Strictly monotone (symmetric Jacobian part >= diag(1/5, 1)) but not a
    gradient and not globally Lipschitz: a one-block kernel whose base map
    declares no strong monotonicity, so its backward solve raises.  It is
    for warped projection experiments driven by an external
    variational-inequality oracle; its output is scanned for NaN/Inf.
    """

    def k2(u):
        x1, x2 = u
        with np.errstate(all="ignore"):  # an overflow is the scan's to report
            y = np.array([0.5 * x1 ** 3 + 0.2 * x1 - x2, x1 + x2])
        return check_finite(y, "kernel nongradient_cubic output")

    beta = np.finfo(float).max
    W = SingleValuedOperator(2, k2, lipschitz=beta, name="nongradient_cubic")
    return Kernel(2, base=[(W, 1.0)], layout=None, fold=None,
                  alpha=0.2, beta=beta, name="nongradient_cubic")
