"""Monotone operator oracles and the standard catalog of instances.

Set-valued maximally monotone operators are represented purely through
their scaled resolvents ``J_{gamma A} = (Id + gamma A)^{-1}``: every
algorithm in the library consumes only resolvent-type solves.  Single-valued
monotone Lipschitz maps carry declared constants, which are trusted inputs
validated probabilistically by the test suite.

Each operator has one unscanned entry, ``_resolve`` or ``_apply``, bound at construction,
and every internal path calls it; the graph point it feeds is certified.  Every entry
returns a new float vector of the operator's dimension.  The operators built with
``shaped=True`` (every catalog constructor, ``saddle_skew_map``, ``inverse``,
``add_constant``, ``BlockDiagonalOperator`` and ``kt_forward``) do so by construction, and
their entry is their oracle.  An operator built on a user callable gets an entry that
copies each output into a new float array and checks its shape (``_shape_checked``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownOperatorError,
)
from .space import BlockLayout, LinearMap, aligned, check_dim, check_finite, vector


def _shape_checked(oracle, dim, what, name):
    """``oracle`` with each output copied into a new float array and checked to be a vector of
    ``dim`` coordinates, ``what % name`` naming it in the error; its entries are not scanned."""
    def checked(*args):
        y = np.array(oracle(*args), dtype=float)
        check_dim(y, dim, what, name)
        return y
    return checked


class SetValuedOperator:
    """Maximally monotone operator exposed through its resolvent oracle.

    Parameters
    ----------
    dim : int
        Dimension of the underlying space.
    resolvent_oracle : callable
        ``(gamma, x) -> J_{gamma A} x`` for every ``gamma > 0``.
    name : str
        Catalog name, used in error messages and problem files.

    ``resolvent`` validates gamma and x, calls the unscanned entry
    ``_resolve(gamma, x)`` and scans the output.

    ``resolvent_jacobian``, when set, is ``(gamma, u) -> d``, the diagonal of
    an element of the generalized Jacobian of ``J_{gamma A}`` at u: the free
    mask of ``box`` and ``l1``, all ones for ``zero``.  Affine-base backward
    solves take Newton steps with it.

    ``linear_resolvent``, when set, is ``gamma -> (R, s)`` with ``J_{gamma A} x =
    R (x - s)``, R a matrix or a scalar standing for R Id (``affine``'s is its
    cached inverse, read-only).  Kernels solve blocks with it; ``add_constant``
    passes it on.
    """

    resolvent_jacobian = None
    linear_resolvent = None

    def __init__(self, dim, resolvent_oracle, name="operator", shaped=False):
        self.dim = int(dim)
        self._resolve = resolvent_oracle if shaped else _shape_checked(
            resolvent_oracle, self.dim, "resolvent output of %s", name)
        self.name = name

    def resolvent(self, gamma, x) -> np.ndarray:
        """Evaluate J_{gamma A} x = (Id + gamma A)^{-1} x, scanned for NaN/Inf."""
        if not gamma > 0:
            raise ConfigurationError(f"resolvent needs gamma > 0, got {gamma}")
        x = np.asarray(x, dtype=float)
        check_dim(x, self.dim, f"resolvent of {self.name}")
        return check_finite(self._resolve(float(gamma), x), f"resolvent output of {self.name}")

    def _inverse_resolve(self, gamma, x) -> np.ndarray:
        return x - gamma * self._resolve(1.0 / gamma, x / gamma)

    def inverse(self) -> "SetValuedOperator":
        """The inverse operator A^{-1}, with resolvents by the inverse-resolvent
        identity J_{gamma A^{-1}} x = x - gamma J_{(1/gamma) A}(x / gamma)."""
        return SetValuedOperator(self.dim, self._inverse_resolve, f"inv({self.name})", shaped=True)

    def add_constant(self, w) -> "SetValuedOperator":
        """The operator x -> A x + w; its resolvent is J_A(v - gamma w)."""
        w = vector(w)
        check_dim(w, self.dim, "constant shift")
        op = SetValuedOperator(
            self.dim,
            lambda g, x, _op=self, _w=w: _op._resolve(g, x - g * _w),
            name=f"{self.name}+const", shaped=True)
        if self.linear_resolvent is not None:
            def linear(g, _base=self.linear_resolvent):
                R, s = _base(g)
                return R, s + g * w  # R (x - g w - s)
            op.linear_resolvent = linear
        return op

    def __repr__(self):
        return f"SetValuedOperator({self.name}, dim={self.dim})"


class BlockDiagonalOperator(SetValuedOperator):
    """Blockwise set-valued operator on a product space.

    The resolvent applies each block's resolvent with the same gamma; the
    kernels module additionally uses the per-block structure for warped
    backward solves with per-block scalings.
    """

    def __init__(self, blocks, layout=None, name="blockdiag"):
        blocks = tuple(blocks)
        if layout is None:
            layout = BlockLayout(tuple(b.dim for b in blocks))
        if tuple(b.dim for b in blocks) != layout.dims:
            raise DimensionMismatchError("block operator dims do not match layout")
        self.blocks = blocks
        self.layout = layout
        super().__init__(layout.total, self._block_resolvent, name, shaped=True)

    def _block_resolvent(self, gamma, x):
        parts = self.layout.split(x)
        return self.layout.join(
            [b._resolve(gamma, p) for b, p in zip(self.blocks, parts)])


class SingleValuedOperator:
    """Monotone Lipschitz map with declared constants.

    ``lipschitz`` (and optionally ``strong_monotonicity``) are declared,
    trusted inputs.  ``scale_of_identity`` marks maps equal to c * Id, which
    unlocks closed-form backward solves in the kernels module.

    ``strong_monotonicity`` reads the modulus ``_modulus``, or None.  ``affine_map`` may
    leave ``_modulus`` a function, which the first read calls once and replaces by its value.

    Calling the operator validates x, calls the unscanned entry ``_apply(x)``
    and scans the output for NaN/Inf.
    """

    matrix = None  # the read-only linear part of an affine or linear map

    def __init__(self, dim, fn, lipschitz, monotone=True,
                 strong_monotonicity=None, scale_of_identity=None,
                 name="map", shaped=False):
        if not lipschitz > 0:
            raise ConfigurationError(f"declared Lipschitz constant must be > 0, got {lipschitz}")
        if strong_monotonicity is not None and not strong_monotonicity > 0:
            raise ConfigurationError(
                f"declared strong monotonicity must be > 0, got {strong_monotonicity}")
        self.dim = int(dim)
        self._apply = fn if shaped else _shape_checked(fn, self.dim, "output of %s", name)
        self.lipschitz = float(lipschitz)
        self.monotone = bool(monotone)
        self._modulus = None if strong_monotonicity is None else float(strong_monotonicity)
        self.scale_of_identity = (
            None if scale_of_identity is None else float(scale_of_identity))
        self.name = name

    @property
    def strong_monotonicity(self):
        if callable(self._modulus):
            self._modulus = self._modulus()
        return self._modulus

    def __call__(self, x) -> np.ndarray:
        """The map at x, scanned for NaN/Inf."""
        x = np.asarray(x, dtype=float)
        check_dim(x, self.dim, f"argument of {self.name}")
        return check_finite(self._apply(x), f"output of {self.name}")

    def __repr__(self):
        return f"SingleValuedOperator({self.name}, dim={self.dim}, beta={self.lipschitz})"


@dataclass(frozen=True)
class GraphPoint:
    """A pair (y, y*) certified to lie in the graph of a monotone operator.

    Instances are produced only by operations whose postcondition guarantees
    membership (warped-resolvent graph characterization).
    """

    y: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", vector(self.y))
        object.__setattr__(self, "y_star", vector(self.y_star))
        if self.y.shape != self.y_star.shape:
            raise DimensionMismatchError(
                f"graph point blocks disagree: {self.y.shape} vs {self.y_star.shape}")


# ---------------------------------------------------------------------------
# Closed-form projections
# ---------------------------------------------------------------------------

def proj_ball(x, center, radius):
    d = x - center
    n = np.linalg.norm(d)
    if n <= radius:
        return np.asarray(x, dtype=float).copy()
    return center + (radius / n) * d


def proj_halfspace(x, normal, offset, norm_sq=None):
    """Project onto {z : <normal, z> <= offset}; ``norm_sq`` is <normal, normal>, formed here
    when None."""
    g = float(np.dot(normal, x)) - float(offset)
    if g <= 0:
        return np.asarray(x, dtype=float).copy()
    if norm_sq is None:
        norm_sq = float(np.dot(normal, normal))
    return x - (g / norm_sq) * normal


def proj_affine_set(x, A, b, pinv=None):
    """Project onto {z : A z = b} (least-squares correction)."""
    if pinv is None:
        pinv = np.linalg.pinv(A)
    return x - pinv @ (A @ x - b)


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


# ---------------------------------------------------------------------------
# Standard library constructors
# ---------------------------------------------------------------------------

def box_normal_cone(lo, hi) -> SetValuedOperator:
    """Normal cone of the box [lo, hi]; resolvent is the coordinate clamp."""
    lo = vector(lo)
    hi = vector(hi)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ConfigurationError("box bounds must satisfy lo <= hi componentwise")
    # ndarray.clip is the ufunc np.clip calls, without its dispatch overhead.
    op = SetValuedOperator(lo.shape[0], lambda g, x: x.clip(lo, hi), "box", shaped=True)
    op.resolvent_jacobian = lambda g, u: ((lo < u) & (u < hi)).astype(float)
    return op


def ball_normal_cone(center, radius) -> SetValuedOperator:
    """Normal cone of the closed Euclidean ball; resolvent is radial projection."""
    center = vector(center)
    radius = number(radius, "radius", "operator 'ball'")
    if not radius > 0:
        raise ConfigurationError(f"ball radius must be > 0, got {radius}")
    return SetValuedOperator(
        center.shape[0], lambda g, x: proj_ball(x, center, radius), "ball", shaped=True)


def halfspace_normal_cone(normal, offset) -> SetValuedOperator:
    """Normal cone of {z : <normal, z> <= offset}.

    <normal, normal> is formed once, here.  When it overflows, the same half-space is
    described by normal / 2^e and offset / 2^e, with 2^e the power of two just above the
    largest entry, whose squared norm is at most the dimension.
    """
    normal = vector(normal)
    if not normal.any():  # |normal| = 0 without forming |normal|, which may overflow
        raise ConfigurationError("half-space normal must be nonzero")
    offset = number(offset, "offset", "operator 'halfspace'")
    with np.errstate(over="ignore"):
        norm_sq = float(np.dot(normal, normal))
    if norm_sq == math.inf:
        e = math.frexp(float(np.abs(normal).max()))[1]
        normal, offset = vector(np.ldexp(normal, -e)), math.ldexp(offset, -e)
        norm_sq = float(np.dot(normal, normal))
    return SetValuedOperator(
        normal.shape[0], lambda g, x: proj_halfspace(x, normal, offset, norm_sq), "halfspace",
        shaped=True)


def affine_set_normal_cone(A, b) -> SetValuedOperator:
    """Normal cone of the affine subspace {z : A z = b}."""
    A = np.array(A, dtype=float)
    b = vector(b)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise DimensionMismatchError("affine set: A rows must match b")
    check_finite(A, "affine set matrix")  # before the SVD of pinv, which would not converge
    pinv = np.linalg.pinv(A)
    return SetValuedOperator(
        A.shape[1], lambda g, x: proj_affine_set(x, A, b, pinv), "affine_set", shaped=True)


def l1_operator(dim, weight=1.0) -> SetValuedOperator:
    """Subdifferential of weight * l1 norm; resolvent is soft-thresholding."""
    weight = number(weight, "weight", "operator 'l1'")
    if not weight > 0:
        raise ConfigurationError(f"l1 weight must be > 0, got {weight}")
    op = SetValuedOperator(dim, lambda g, x: soft_threshold(x, g * weight), "l1", shaped=True)
    op.resolvent_jacobian = lambda g, u: (np.abs(u) > g * weight).astype(float)
    return op


def zero_operator(dim) -> SetValuedOperator:
    """The zero operator A x = {0}; its resolvent is the identity."""
    op = SetValuedOperator(dim, lambda g, x: x.copy(), "zero", shaped=True)
    op.resolvent_jacobian = lambda g, u: np.ones(u.shape)
    op.linear_resolvent = lambda g: (1.0, np.zeros(dim))
    return op


def scaled_identity_operator(dim, scale) -> SetValuedOperator:
    """A = scale * Id as a set-valued operator; J_{gamma A} x = x/(1+gamma*scale)."""
    scale = number(scale, "scale", "operator 'scaled_identity'")
    if scale < 0:
        raise ConfigurationError(f"scaled identity needs scale >= 0 for monotonicity, got {scale}")
    op = SetValuedOperator(
        dim, lambda g, x: x / (1.0 + g * scale), "scaled_identity", shaped=True)
    op.linear_resolvent = lambda g: (1.0 / (1.0 + g * scale), np.zeros(dim))
    return op


def constant_operator(value) -> SetValuedOperator:
    """A x = {value} for every x; resolvent v -> v - gamma * value."""
    value = vector(value)
    op = SetValuedOperator(
        value.shape[0], lambda g, x: x - g * value, "constant", shaped=True)
    op.linear_resolvent = lambda g: (1.0, g * value)
    return op


# From this many rows up, a monotone matrix is certified by one Cholesky factorisation, which
# costs under a third of eigvalsh there (and about as much at 8 rows).  Below it, a base whose
# modulus is read would pay for both.
_CHOLESKY_ROWS = 33


def _symmetric_part(M):
    """0.5 M + 0.5 M^T, which cannot overflow, as 0.5 (M + M^T) can.  Past 16 rows it is
    formed on 0.5 M, 16 rows at a time, so that the only other temporary is 16 x n, not a
    second n x n one.  Both forms compute 0.5 M[i, j] + 0.5 M[j, i] for each entry."""
    n = M.shape[0]
    if n <= 16:
        return 0.5 * M + 0.5 * M.T
    S = 0.5 * M
    for a in range(0, n, 16):
        S[a:a + 16] += 0.5 * M[:, a:a + 16].T
    return S


def _cholesky_certifies(S):
    """True when a Cholesky factorisation of S - delta I completes, which proves that the
    symmetric matrix S (n x n, finite) has no negative eigenvalue.  S is left as it was.

    delta = 2 n (n + 1) u |S|_F, with u = 2^-53.  Let A = fl(S - delta I), so A = S - delta I + E
    with E diagonal and |E| <= u (|S|_F + delta).  A factor R that completes satisfies
    R^T R = A + dA with |dA| <= g |R^T| |R|, g = (n + 1) u / (1 - (n + 1) u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3; a blocked factorisation only reorders
    the same inner products).  Its diagonal bounds each column, |r_i|^2 <= a_ii / (1 - g), so
    |dA|_2 <= g |R|_F^2 <= g tr(A) / (1 - g) <= g (1 + u) (sqrt(n) |S|_F + n delta) / (1 - g).
    As R^T R is positive definite, lambda_min(S) > delta - |dA|_2 - |E|_2, which is positive:
    the terms in delta are about n (n + 1) u delta, and those in |S|_F at most
    ((n + 1) sqrt(n) + 1) u |S|_F (1 + O(n u)), under half of delta for n >= 2.
    |S|_F is the square root of one sum of n^2 squares, with relative error O(n^2 u), and delta
    one rounded product of it: both change delta by a factor 1 + O(n^2 u), inside that margin.

    The argument assumes no overflow.  When |S|_F^2 overflows, delta is inf and the
    factorisation fails at its first pivot.  Underflow adds at most about n^2 2^-1074 to
    |dA|_2, negligible next to delta unless |S|_F is below about 2^-500, where squares that
    underflow can also make |S|_F too small, or delta 0.  The eigenvalue test accepts every
    such S, whose spectrum lies far inside its absolute slack of 1e-12: a certificate there
    changes no decision.

    A certified S has lambda_min(S) >= 0, which the eigenvalue test accepts: eigvalsh is
    backward stable, within a few n u |S|_2 of the spectrum, far inside its 1e-12 slack.
    """
    n = S.shape[0]
    with np.errstate(over="ignore"):  # |S|_F past the float range is inf: so is delta
        fro = float(np.linalg.norm(S))
    diagonal = S.diagonal().copy()
    S.flat[::n + 1] -= 2 * n * (n + 1) * 2.0 ** -53 * fro  # in place: no second n x n matrix
    try:
        np.linalg.cholesky(S)  # the factor is dropped at once
    except np.linalg.LinAlgError:
        return False
    finally:
        S.flat[::n + 1] = diagonal
    return True


def _monotone_matrix(M, b, what):
    """(M, b, lowest) for a square, finite, monotone float matrix M and an offset b of its
    dimension (zeros for None): ``lowest`` is the smallest eigenvalue of M's symmetric part S,
    or None when ``_cholesky_certifies`` proved S positive semidefinite without computing it.

    Raises ConfigurationError when M is not monotone: the smallest eigenvalue is negative
    beyond a roundoff slack relative to the spectrum.  From ``_CHOLESKY_ROWS`` rows up, a
    Cholesky certificate is tried first; when there is none, the eigenvalue test decides, with
    the same decision and message as for a smaller matrix.

    The returned M is a float array of its own.  When M holds the caller's data, it is copied
    only after the check, once the factor is dropped: the check holds at most three n x n
    arrays at once (the caller's, S and the factor), as many as the eigenvalue test did.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got {A.shape}")
    b = np.zeros(A.shape[0]) if b is None else vector(b)
    check_dim(b, A.shape[0], "affine offset")
    check_finite(A, what)
    S, n = _symmetric_part(A), A.shape[0]
    if n >= _CHOLESKY_ROWS and _cholesky_certifies(S):
        lowest = None
    else:
        eig = np.linalg.eigvalsh(S) if n else np.zeros(1)
        if eig[0] < -1e-12 * max(1.0, -eig[0], eig[-1]):
            raise ConfigurationError(
                f"{what} is not monotone: its symmetric part has eigenvalue {eig[0]}")
        lowest = float(eig[0])
    return (np.array(A) if A is M or A.base is not None else A), b, lowest


def affine_resolvent_operator(M, b=None) -> SetValuedOperator:
    """Set-valued view of x -> {M x + b}; resolvent solves (I + gamma M) p = v - gamma b.

    M must be monotone (positive semidefinite symmetric part, any skew part);
    otherwise ConfigurationError.  The inverse of I + gamma M is kept for the
    last gamma; for monotone M its norm is at most 1.
    """
    M, b, _ = _monotone_matrix(M, b, "affine operator matrix")
    dim = M.shape[0]
    last = [(None, None)]  # (gamma, inverse of I + gamma M), replaced whole

    def linear(g):
        g0, R = last[0]
        if g != g0:
            R = np.linalg.inv(np.eye(dim) + g * M)
            R.setflags(write=False)  # handed out by the hook
            last[0] = g, R
        return R, g * b

    def res(g, x):
        R, s = linear(g)
        return R @ (x - s)

    op = SetValuedOperator(dim, res, "affine", shaped=True)
    op.linear_resolvent = linear
    return op


def affine_map(M, b=None) -> SingleValuedOperator:
    """Single-valued affine map x -> M x + b with computed Lipschitz constant.

    M must be monotone (positive semidefinite symmetric part, any skew part);
    otherwise ConfigurationError.  ``matrix`` is a read-only copy of M; one
    wider than 8 columns starts on a 64-byte boundary (``space.aligned``),
    which speeds up ``M @ x`` and leaves its bits unchanged.

    The declared modulus is the smallest eigenvalue of the symmetric part when it is > 0,
    else None.  When a Cholesky factorisation certified M, it is computed from ``matrix`` the
    first time ``strong_monotonicity`` is read, with the same bits.
    """
    M, b, mu = _monotone_matrix(M, b, "affine map matrix")
    lip = float(np.linalg.norm(M, 2)) if M.size else 0.0
    M = aligned(M)
    # A zero matrix is declared 1-Lipschitz like zero_map: a finite default step.
    op = SingleValuedOperator(
        M.shape[0], lambda x: M @ x + b,
        lipschitz=lip if lip > 0 else 1.0,
        monotone=True,
        strong_monotonicity=mu if mu is not None and mu > 0 else None,
        name="affine_map", shaped=True)
    op.matrix = M
    if mu is None:
        def modulus():
            lowest = float(np.linalg.eigvalsh(_symmetric_part(M))[0])
            return lowest if lowest > 0 else None
        op._modulus = modulus
    return op


def zero_map(dim) -> SingleValuedOperator:
    """The zero single-valued map; declared 1-Lipschitz (valid upper bound)."""
    return SingleValuedOperator(
        dim, lambda x: np.zeros(dim), lipschitz=1.0, name="zero_map", shaped=True)


def identity_map(dim, scale=1.0) -> SingleValuedOperator:
    """c * Id as a single-valued operator (c > 0)."""
    scale = number(scale, "scale", "operator 'identity_map'")
    if not scale > 0:
        raise ConfigurationError(f"identity map scale must be > 0, got {scale}")
    return SingleValuedOperator(
        dim, lambda x: scale * x, lipschitz=scale, monotone=True,
        strong_monotonicity=scale, scale_of_identity=scale, name="identity_map", shaped=True)


def saddle_skew_map(L: LinearMap) -> SingleValuedOperator:
    """The skew coupling (x, v*) -> (L* v*, -L x): S = [[0, L*], [-L, 0]], its read-only ``matrix``.

    The declared Lipschitz constant |S| = |L| is sqrt of the top eigenvalue
    of S^T S, for S scaled exactly by a power of two (so that S^T S neither
    overflows nor underflows), and at least the smallest positive float; inf,
    with no overflow warning, when |S| lies past the float range.
    """
    dy, dz = L.domain_dim, L.codomain_dim
    S = np.zeros((dy + dz, dy + dz))
    S[:dy, dy:] = L.matrix.T
    S[dy:, :dy] = -L.matrix
    S.setflags(write=False)
    largest = float(np.abs(L.matrix).max(initial=0.0))
    e = math.frexp(largest)[1]  # the largest entry of S / 2^e lies in [1/2, 1)
    T = np.ldexp(S, -e)
    top = np.linalg.eigvalsh(T.T @ T)[-1] if largest else 0.0  # 0 for a zero or empty L
    with np.errstate(over="ignore"):
        beta = max(float(np.ldexp(math.sqrt(top), e)), np.finfo(float).tiny)
    op = SingleValuedOperator(
        dy + dz, lambda u: S @ u, lipschitz=beta, name="saddle_skew", shaped=True)
    op.matrix = S
    return op


# ---------------------------------------------------------------------------
# Catalog (the vocabulary of the CLI problem-file format)
# ---------------------------------------------------------------------------

def number(value, key, where, kind=float):
    """``value`` as a finite scalar of type ``kind``: float, or int for an integral value.

    A word, a list or array, a non-integral value for an int, or a NaN or
    infinite float raises a ConfigurationError naming ``key`` and ``where``.
    """
    try:
        out = None if getattr(value, "ndim", 0) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and out != value):
        expected = "an integer" if kind is int else "a number"
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        raise ConfigurationError(f"{key!r} in {where} must be {expected}, got {shown!r}")
    if kind is float and not math.isfinite(out):
        raise ConfigurationError(f"{key!r} in {where} must be finite, got {out!r}")
    return out


def _build_box(params, dim):
    return box_normal_cone(params["lo"], params["hi"])


def _build_ball(params, dim):
    center = params.get("center")
    if center is None:
        center = np.zeros(dim)
    return ball_normal_cone(center, params["radius"])


def _build_halfspace(params, dim):
    return halfspace_normal_cone(params["normal"], params["offset"])


def _build_affine_set(params, dim):
    return affine_set_normal_cone(params["matrix"], params["rhs"])


def _build_l1(params, dim):
    return l1_operator(dim, params.get("weight", 1.0))


def _build_zero(params, dim):
    return zero_operator(dim)


def _build_scaled_identity(params, dim):
    return scaled_identity_operator(dim, params.get("scale", 1.0))


def _build_affine(params, dim):
    return affine_resolvent_operator(params["matrix"], params.get("offset"))


def _build_constant(params, dim):
    return constant_operator(params["value"])


SET_VALUED_CATALOG = {
    "box": _build_box,
    "ball": _build_ball,
    "halfspace": _build_halfspace,
    "affine_set": _build_affine_set,
    "l1": _build_l1,
    "zero": _build_zero,
    "scaled_identity": _build_scaled_identity,
    "affine": _build_affine,
    "constant": _build_constant,
}


def _build_affine_map(params, dim):
    return affine_map(params["matrix"], params.get("offset"))


def _build_zero_map(params, dim):
    return zero_map(dim)


def _build_identity_map(params, dim):
    return identity_map(dim, params.get("scale", 1.0))


SINGLE_VALUED_CATALOG = {
    "affine_map": _build_affine_map,
    "zero_map": _build_zero_map,
    "identity_map": _build_identity_map,
}


def standard_library():
    """The catalog of named operator constructors, keyed by kind.

    Names and parameter schemata are the vocabulary of the CLI problem-file
    format; unknown names raise the typed lookup error in ``make_set_valued``
    and ``make_single_valued``.
    """
    return {
        "set_valued": dict(SET_VALUED_CATALOG),
        "single_valued": dict(SINGLE_VALUED_CATALOG),
    }


def _make(catalog, kind, name, params, dim):
    """Build ``name`` from ``catalog``; typed errors for an unknown name, a
    missing parameter and a dimension mismatch."""
    try:
        builder = catalog[name]
    except KeyError:
        raise UnknownOperatorError(
            f"unknown {kind} operator {name!r}; known: {sorted(catalog)}") from None
    try:
        op = builder(dict(params), dim)
    except KeyError as exc:
        raise ConfigurationError(f"operator {name!r} is missing parameter {exc}") from None
    if op.dim != dim:
        raise DimensionMismatchError(
            f"operator {name!r} has dimension {op.dim}, problem expects {dim}")
    return op


def make_set_valued(name, params, dim) -> SetValuedOperator:
    """Build a catalog set-valued operator; typed lookup error on unknown names."""
    return _make(SET_VALUED_CATALOG, "set-valued", name, params, dim)


def make_single_valued(name, params, dim) -> SingleValuedOperator:
    """Build a catalog single-valued operator; typed lookup error on unknown names."""
    return _make(SINGLE_VALUED_CATALOG, "single-valued", name, params, dim)
