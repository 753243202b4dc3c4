"""Monotone operator oracles and the standard catalog of instances.

Set-valued maximally monotone operators are represented purely through
their scaled resolvents ``J_{gamma A} = (Id + gamma A)^{-1}``: every
algorithm in the library consumes only resolvent-type solves.  Single-valued
monotone Lipschitz maps carry declared constants, which are trusted inputs
validated probabilistically by the test suite.

The iteration engine scans no oracle output: the graph point it feeds is certified.  It
calls a ``shaped`` operator's oracle raw, as its output is a new float vector of its
dimension by construction: every catalog constructor, ``saddle_skew_map``, ``inverse``,
``add_constant``, ``BlockDiagonalOperator`` and ``kt_forward``.  Others, built on a user
callable, go through ``_resolve`` and ``_apply``, which check each output's shape.
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

    ``resolvent`` validates gamma and x, calls the oracle through
    ``_resolve``, which checks the output's shape, and scans the output.

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
        self._resolvent = resolvent_oracle
        self.name = name
        self.shaped = shaped

    def _resolve(self, gamma, x) -> np.ndarray:
        """J_{gamma A} x for a float gamma > 0 and a float vector x of this
        dimension: the output's shape is checked, its entries are not scanned."""
        y = np.asarray(self._resolvent(gamma, x), dtype=float)
        check_dim(y, self.dim, "resolvent output of %s", self.name)
        return y

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

    Calling the operator validates x, calls ``fn`` through ``_apply``,
    which checks the output's shape, and scans the output for NaN/Inf.
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
        self._fn = fn
        self.lipschitz = float(lipschitz)
        self.monotone = bool(monotone)
        self.strong_monotonicity = (
            None if strong_monotonicity is None else float(strong_monotonicity))
        self.scale_of_identity = (
            None if scale_of_identity is None else float(scale_of_identity))
        self.name = name
        self.shaped = shaped

    def _apply(self, x) -> np.ndarray:
        """The map at a float vector x of this dimension: the output's shape
        is checked, its entries are not scanned."""
        y = np.asarray(self._fn(x), dtype=float)
        check_dim(y, self.dim, "output of %s", self.name)
        return y

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


def proj_halfspace(x, normal, offset):
    """Project onto {z : <normal, z> <= offset}."""
    g = float(np.dot(normal, x)) - float(offset)
    if g <= 0:
        return np.asarray(x, dtype=float).copy()
    return x - (g / float(np.dot(normal, normal))) * normal


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
    if not radius > 0:
        raise ConfigurationError(f"ball radius must be > 0, got {radius}")
    radius = float(radius)
    return SetValuedOperator(
        center.shape[0], lambda g, x: proj_ball(x, center, radius), "ball", shaped=True)


def halfspace_normal_cone(normal, offset) -> SetValuedOperator:
    """Normal cone of {z : <normal, z> <= offset}."""
    normal = vector(normal)
    if np.linalg.norm(normal) == 0:
        raise ConfigurationError("half-space normal must be nonzero")
    offset = float(offset)
    return SetValuedOperator(
        normal.shape[0], lambda g, x: proj_halfspace(x, normal, offset), "halfspace", shaped=True)


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
    if not weight > 0:
        raise ConfigurationError(f"l1 weight must be > 0, got {weight}")
    weight = float(weight)
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
    if scale < 0:
        raise ConfigurationError(f"scaled identity needs scale >= 0 for monotonicity, got {scale}")
    scale = float(scale)
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


def _monotone_spectrum(M, what):
    """Ascending eigenvalues of the symmetric part of the square matrix M.

    Raises ConfigurationError when M is not monotone: the smallest
    eigenvalue is negative beyond a roundoff slack relative to the spectrum.
    """
    eig = np.linalg.eigvalsh(0.5 * (M + M.T)) if M.shape[0] else np.zeros(1)
    if eig[0] < -1e-12 * max(1.0, -eig[0], eig[-1]):
        raise ConfigurationError(
            f"{what} is not monotone: its symmetric part has eigenvalue {eig[0]}")
    return eig


def affine_resolvent_operator(M, b=None) -> SetValuedOperator:
    """Set-valued view of x -> {M x + b}; resolvent solves (I + gamma M) p = v - gamma b.

    M must be monotone (positive semidefinite symmetric part, any skew part);
    otherwise ConfigurationError.  The inverse of I + gamma M is kept for the
    last gamma; for monotone M its norm is at most 1.
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"affine operator matrix must be square, got {M.shape}")
    dim = M.shape[0]
    b = np.zeros(dim) if b is None else vector(b)
    check_dim(b, dim, "affine offset")
    check_finite(M, "affine operator matrix")
    _monotone_spectrum(M, "affine operator matrix")
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
    """
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"affine map matrix must be square, got {M.shape}")
    dim = M.shape[0]
    b = np.zeros(dim) if b is None else vector(b)
    check_dim(b, dim, "affine offset")
    check_finite(M, "affine map matrix")
    lip = float(np.linalg.norm(M, 2)) if M.size else 0.0
    mu = float(_monotone_spectrum(M, "affine map matrix")[0])
    M = aligned(M)
    # A zero matrix is declared 1-Lipschitz like zero_map: a finite default step.
    op = SingleValuedOperator(
        dim, lambda x: M @ x + b,
        lipschitz=lip if lip > 0 else 1.0,
        monotone=True,
        strong_monotonicity=mu if mu > 0 else None,
        name="affine_map", shaped=True)
    op.matrix = M
    return op


def zero_map(dim) -> SingleValuedOperator:
    """The zero single-valued map; declared 1-Lipschitz (valid upper bound)."""
    return SingleValuedOperator(
        dim, lambda x: np.zeros(dim), lipschitz=1.0, name="zero_map", shaped=True)


def identity_map(dim, scale=1.0) -> SingleValuedOperator:
    """c * Id as a single-valued operator (c > 0)."""
    if not scale > 0:
        raise ConfigurationError(f"identity map scale must be > 0, got {scale}")
    scale = float(scale)
    return SingleValuedOperator(
        dim, lambda x: scale * x, lipschitz=scale, monotone=True,
        strong_monotonicity=scale, scale_of_identity=scale, name="identity_map", shaped=True)


def saddle_skew_map(L: LinearMap) -> SingleValuedOperator:
    """The skew coupling (x, v*) -> (L* v*, -L x): S = [[0, L*], [-L, 0]], its read-only ``matrix``.

    The declared Lipschitz constant |S| = |L| is sqrt of the top eigenvalue
    of S^T S, for S scaled exactly by a power of two (so that S^T S neither
    overflows nor underflows), and at least the smallest positive float.
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
    beta = max(float(np.ldexp(math.sqrt(top), e)), np.finfo(float).tiny)  # inf past float range
    op = SingleValuedOperator(
        dy + dz, lambda u: S @ u, lipschitz=beta, name="saddle_skew", shaped=True)
    op.matrix = S
    return op


# ---------------------------------------------------------------------------
# Catalog (the vocabulary of the CLI problem-file format)
# ---------------------------------------------------------------------------

def number(value, key, where, kind=float):
    """``value`` as a scalar of type ``kind``: float, or int for an integral value.

    A word, a list or array, or a non-integral value for an int raises a
    ConfigurationError naming ``key`` and ``where``.
    """
    if type(value) is kind:
        return value
    try:
        out = None if getattr(value, "ndim", 0) else kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (kind is int and out != value):
        expected = "an integer" if kind is int else "a number"
        shown = value.tolist() if isinstance(value, np.ndarray) else value
        raise ConfigurationError(f"{key!r} in {where} must be {expected}, got {shown!r}")
    return out


def _build_box(params, dim):
    return box_normal_cone(params["lo"], params["hi"])


def _build_ball(params, dim):
    center = params.get("center")
    if center is None:
        center = np.zeros(dim)
    return ball_normal_cone(center, number(params["radius"], "radius", "operator 'ball'"))


def _build_halfspace(params, dim):
    return halfspace_normal_cone(
        params["normal"], number(params["offset"], "offset", "operator 'halfspace'"))


def _build_affine_set(params, dim):
    return affine_set_normal_cone(params["matrix"], params["rhs"])


def _build_l1(params, dim):
    return l1_operator(dim, number(params.get("weight", 1.0), "weight", "operator 'l1'"))


def _build_zero(params, dim):
    return zero_operator(dim)


def _build_scaled_identity(params, dim):
    return scaled_identity_operator(
        dim, number(params.get("scale", 1.0), "scale", "operator 'scaled_identity'"))


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
    return identity_map(dim, number(params.get("scale", 1.0), "scale", "operator 'identity_map'"))


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
