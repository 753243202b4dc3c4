"""Monotone operator oracles and the standard catalog of instances.

Set-valued maximally monotone operators are represented purely through
their scaled resolvents ``J_{gamma A} = (Id + gamma A)^{-1}``: every
algorithm in the library consumes only resolvent-type solves.  Single-valued
monotone Lipschitz maps carry declared constants, which are trusted inputs
validated probabilistically by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    UnknownOperatorError,
)
from .space import BlockLayout, LinearMap, check_dim, check_finite, vector


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
    """

    def __init__(self, dim, resolvent_oracle, name="operator"):
        self.dim = int(dim)
        self._resolvent = resolvent_oracle
        self.name = name

    def resolvent(self, gamma, x) -> np.ndarray:
        """Evaluate J_{gamma A} x = (Id + gamma A)^{-1} x."""
        if not gamma > 0:
            raise ConfigurationError(f"resolvent needs gamma > 0, got {gamma}")
        x = np.asarray(x, dtype=float)
        check_dim(x, self.dim, f"resolvent of {self.name}")
        y = np.asarray(self._resolvent(float(gamma), x), dtype=float)
        check_dim(y, self.dim, f"resolvent output of {self.name}")
        check_finite(y, f"resolvent output of {self.name}")
        return y

    def inverse_resolvent(self, gamma, x) -> np.ndarray:
        """Evaluate J_{gamma A^{-1}} x via the inverse-resolvent identity.

        J_{gamma A^{-1}} x = x - gamma J_{(1/gamma) A}(x / gamma).
        """
        if not gamma > 0:
            raise ConfigurationError(f"inverse_resolvent needs gamma > 0, got {gamma}")
        gamma = float(gamma)
        x = np.asarray(x, dtype=float)
        return x - gamma * self.resolvent(1.0 / gamma, x / gamma)

    def inverse(self) -> "SetValuedOperator":
        """The inverse operator A^{-1}, resolvents via the identity above."""
        return SetValuedOperator(
            self.dim,
            lambda g, x, _op=self: _op.inverse_resolvent(g, x),
            name=f"inv({self.name})",
        )

    def add_constant(self, w) -> "SetValuedOperator":
        """The operator x -> A x + w; its resolvent is J_A(v - gamma w)."""
        w = vector(w)
        check_dim(w, self.dim, "constant shift")
        return SetValuedOperator(
            self.dim,
            lambda g, x, _op=self, _w=w: _op.resolvent(g, x - g * _w),
            name=f"{self.name}+const",
        )

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
        super().__init__(layout.total, self._block_resolvent, name=name)

    def _block_resolvent(self, gamma, x):
        parts = self.layout.split(x)
        return self.layout.join(
            [b.resolvent(gamma, p) for b, p in zip(self.blocks, parts)])


class SingleValuedOperator:
    """Monotone Lipschitz map with declared constants.

    ``lipschitz`` (and optionally ``strong_monotonicity``) are declared,
    trusted inputs.  ``scale_of_identity`` marks maps equal to c * Id, which
    unlocks closed-form backward solves in the kernels module.
    """

    def __init__(self, dim, fn, lipschitz, monotone=True,
                 strong_monotonicity=None, scale_of_identity=None,
                 name="map", tag=None):
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
        self.tag = tag

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        check_dim(x, self.dim, f"argument of {self.name}")
        y = np.asarray(self._fn(x), dtype=float)
        check_dim(y, self.dim, f"output of {self.name}")
        check_finite(y, f"output of {self.name}")
        return y

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

    @property
    def dim(self):
        return self.y.shape[0]


# ---------------------------------------------------------------------------
# Closed-form projections
# ---------------------------------------------------------------------------

def proj_box(x, lo, hi):
    return np.clip(x, lo, hi)


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
    return SetValuedOperator(lo.shape[0], lambda g, x: proj_box(x, lo, hi), name="box")


def ball_normal_cone(center, radius) -> SetValuedOperator:
    """Normal cone of the closed Euclidean ball; resolvent is radial projection."""
    center = vector(center)
    if not radius > 0:
        raise ConfigurationError(f"ball radius must be > 0, got {radius}")
    radius = float(radius)
    return SetValuedOperator(
        center.shape[0], lambda g, x: proj_ball(x, center, radius), name="ball")


def halfspace_normal_cone(normal, offset) -> SetValuedOperator:
    """Normal cone of {z : <normal, z> <= offset}."""
    normal = vector(normal)
    if np.linalg.norm(normal) == 0:
        raise ConfigurationError("half-space normal must be nonzero")
    offset = float(offset)
    return SetValuedOperator(
        normal.shape[0], lambda g, x: proj_halfspace(x, normal, offset), name="halfspace")


def affine_set_normal_cone(A, b) -> SetValuedOperator:
    """Normal cone of the affine subspace {z : A z = b}."""
    A = np.array(A, dtype=float)
    b = vector(b)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise DimensionMismatchError("affine set: A rows must match b")
    pinv = np.linalg.pinv(A)
    return SetValuedOperator(
        A.shape[1], lambda g, x: proj_affine_set(x, A, b, pinv), name="affine_set")


def l1_operator(dim, weight=1.0) -> SetValuedOperator:
    """Subdifferential of weight * l1 norm; resolvent is soft-thresholding."""
    if not weight > 0:
        raise ConfigurationError(f"l1 weight must be > 0, got {weight}")
    weight = float(weight)
    return SetValuedOperator(dim, lambda g, x: soft_threshold(x, g * weight), name="l1")


def zero_operator(dim) -> SetValuedOperator:
    """The zero operator A x = {0}; its resolvent is the identity."""
    return SetValuedOperator(dim, lambda g, x: x.copy(), name="zero")


def scaled_identity_operator(dim, scale) -> SetValuedOperator:
    """A = scale * Id as a set-valued operator; J_{gamma A} x = x/(1+gamma*scale)."""
    if scale < 0:
        raise ConfigurationError(f"scaled identity needs scale >= 0 for monotonicity, got {scale}")
    scale = float(scale)
    return SetValuedOperator(
        dim, lambda g, x: x / (1.0 + g * scale), name="scaled_identity")


def constant_operator(value) -> SetValuedOperator:
    """A x = {value} for every x; resolvent v -> v - gamma * value."""
    value = vector(value)
    return SetValuedOperator(
        value.shape[0], lambda g, x: x - g * value, name="constant")


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
    # Ascending eigenvalues of M + M^T, twice the symmetric part; the
    # roundoff slack is relative to their scale.
    eig = np.linalg.eigvalsh(M + M.T) if dim else np.zeros(1)
    if eig[0] < -1e-12 * max(2.0, -eig[0], eig[-1]):
        raise ConfigurationError(
            f"affine operator matrix is not monotone: its symmetric part has "
            f"eigenvalue {eig[0] / 2}")
    eye = np.eye(dim)
    last = [None, None]  # gamma, inverse of I + gamma M

    def res(g, x):
        if g != last[0]:
            last[:] = g, np.linalg.inv(eye + g * M)
        return last[1] @ (x - g * b)

    return SetValuedOperator(dim, res, name="affine")


def affine_map(M, b=None, monotone=True) -> SingleValuedOperator:
    """Single-valued affine map x -> M x + b with computed Lipschitz constant."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"affine map matrix must be square, got {M.shape}")
    dim = M.shape[0]
    b = np.zeros(dim) if b is None else vector(b)
    check_dim(b, dim, "affine offset")
    lip = float(np.linalg.norm(M, 2)) if M.size else 0.0
    sym = 0.5 * (M + M.T)
    mu = float(np.min(np.linalg.eigvalsh(sym))) if dim else 0.0
    # A zero matrix is declared 1-Lipschitz like zero_map: a finite default step.
    return SingleValuedOperator(
        dim, lambda x: M @ x + b,
        lipschitz=lip if lip > 0 else 1.0,
        monotone=monotone,
        strong_monotonicity=mu if mu > 0 else None,
        name="affine_map")


def zero_map(dim) -> SingleValuedOperator:
    """The zero single-valued map; declared 1-Lipschitz (valid upper bound)."""
    return SingleValuedOperator(
        dim, lambda x: np.zeros(dim), lipschitz=1.0, monotone=True, name="zero_map")


def identity_map(dim, scale=1.0) -> SingleValuedOperator:
    """c * Id as a single-valued operator (c > 0)."""
    if not scale > 0:
        raise ConfigurationError(f"identity map scale must be > 0, got {scale}")
    scale = float(scale)
    return SingleValuedOperator(
        dim, lambda x: scale * x, lipschitz=scale, monotone=True,
        strong_monotonicity=scale, scale_of_identity=scale, name="identity_map")


def saddle_skew_map(L: LinearMap) -> SingleValuedOperator:
    """The skew coupling (x, v*) -> (L* v*, -L x) on the stacked primal-dual space."""
    dy, dz = L.domain_dim, L.codomain_dim
    layout = BlockLayout((dy, dz))

    def fn(u):
        x, v = layout.split(u)
        return layout.join([L.adjoint_apply(v), -L(x)])

    beta = max(L.operator_norm(), np.finfo(float).tiny)
    op = SingleValuedOperator(
        dy + dz, fn, lipschitz=beta, monotone=True,
        name="saddle_skew", tag=("saddle_skew", L.matrix.tobytes(), L.matrix.shape))
    return op


# ---------------------------------------------------------------------------
# Catalog (the vocabulary of the CLI problem-file format)
# ---------------------------------------------------------------------------

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


def make_set_valued(name, params, dim) -> SetValuedOperator:
    """Build a catalog set-valued operator; typed lookup error on unknown names."""
    try:
        builder = SET_VALUED_CATALOG[name]
    except KeyError:
        raise UnknownOperatorError(
            f"unknown set-valued operator {name!r}; known: {sorted(SET_VALUED_CATALOG)}") from None
    try:
        op = builder(dict(params), dim)
    except KeyError as exc:
        raise ConfigurationError(f"operator {name!r} is missing parameter {exc}") from None
    if op.dim != dim:
        raise DimensionMismatchError(
            f"operator {name!r} has dimension {op.dim}, problem expects {dim}")
    return op


def make_single_valued(name, params, dim) -> SingleValuedOperator:
    """Build a catalog single-valued operator; typed lookup error on unknown names."""
    try:
        builder = SINGLE_VALUED_CATALOG[name]
    except KeyError:
        raise UnknownOperatorError(
            f"unknown single-valued operator {name!r}; known: {sorted(SINGLE_VALUED_CATALOG)}") from None
    try:
        op = builder(dict(params), dim)
    except KeyError as exc:
        raise ConfigurationError(f"operator {name!r} is missing parameter {exc}") from None
    if op.dim != dim:
        raise DimensionMismatchError(
            f"operator {name!r} has dimension {op.dim}, problem expects {dim}")
    return op
