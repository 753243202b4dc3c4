"""Half-space geometry driving the projection algorithms.

Each graph point (y, y*) of a monotone operator induces the half-space
``H = {z : <z - y, y*> <= 0}`` containing every zero.  The weak solver
relaxes the projection onto H; the strong solver composes it with the
two-half-space projector Q, whose closed form is implemented here.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, InfeasibleCutsError, SolverCorruptionError
from .operators import GraphPoint
# check_dim is unused here; bench/spans.py rebinds it at this module.
from .space import check_dim, inner  # noqa: F401

RHO_ZERO_REL = 1e-14


def relaxed_cut(x, theta, sigma, y_star, lam):
    """Relaxed projection of x onto the cut {z : <z - y, y*> <= 0}.

    ``theta = <y - x, y*>`` and ``sigma = |y*|^2`` are passed in, since the
    solvers already hold them.  Returns ``(rho, x + rho * y*)`` with
    ``rho = lam * theta / sigma`` when the strict inequality ``theta < 0``
    holds, and ``(0.0, x)`` otherwise.  The strict branch implies y* != 0,
    so no epsilon is used; a sigma that underflowed to 0 raises instead.
    """
    if theta < 0:
        if sigma == 0:
            raise SolverCorruptionError(f"theta = {theta!r} < 0 but sigma = |y*|^2 underflowed to 0")
        rho = lam * theta / sigma
        return rho, x + rho * y_star
    return 0.0, x


def relaxed_projection_step(x, gp: GraphPoint, lam) -> np.ndarray:
    """One relaxed projection of x onto the cut of a graph point.

    Returns ``x + lam * (proj_H x - x)`` when the strict inequality
    ``<y - x, y*> < 0`` holds and a copy of x otherwise.
    """
    if not 0 < lam < 2:
        raise ConfigurationError(f"relaxation must lie in ]0, 2[, got {lam}")
    x = np.array(x, dtype=float)
    theta = inner(gp.y - x, gp.y_star)
    return relaxed_cut(x, theta, inner(gp.y_star, gp.y_star), gp.y_star, lam)[1]


def haugazeau_Q(x0, x, x_half) -> np.ndarray:
    """Project x0 onto H(x0, x) intersect H(x, x_half), in closed form.

    With chi = <x0 - x, x - x_half>, mu = |x0 - x|^2, nu = |x - x_half|^2
    and rho = mu*nu - chi^2, exactly one of three branches applies; the
    degenerate pair (rho = 0, chi < 0) means the two half-spaces are
    disjoint and raises the typed infeasibility error.  rho is classified
    as zero relative to the Gram scale mu*nu, which cancels
    catastrophically; the scalar arithmetic runs in extended precision so
    near-degenerate cuts keep full double accuracy in the result.
    """
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    x_half = np.asarray(x_half, dtype=float)
    if x0.shape != x.shape or x.shape != x_half.shape:
        raise DimensionMismatchError(
            f"haugazeau_Q needs equal shapes, got {x0.shape}, {x.shape}, {x_half.shape}")
    d0 = (x0 - x).astype(np.longdouble)
    d1 = (x - x_half).astype(np.longdouble)
    chi = np.dot(d0, d1)
    mu = np.dot(d0, d0)
    nu = np.dot(d1, d1)
    rho = mu * nu - chi * chi
    if rho <= RHO_ZERO_REL * max(mu * nu, 1.0):
        if chi < 0:
            raise InfeasibleCutsError(
                "the two half-space cuts are disjoint (rho = 0, chi < 0); "
                "the target set is empty or the iteration is corrupted")
        return x_half.copy()
    if chi * nu >= rho:
        out = x0.astype(np.longdouble) + (1.0 + chi / nu) * (x_half - x).astype(np.longdouble)
        return np.asarray(out, dtype=float)
    out = x.astype(np.longdouble) + (nu / rho) * (chi * d0 + mu * (-d1))
    return np.asarray(out, dtype=float)
