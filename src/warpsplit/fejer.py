"""Half-space geometry driving the projection algorithms.

Each graph point (y, y*) of a monotone operator induces the half-space
``H = {z : <z - y, y*> <= 0}`` containing every zero.  The weak solver
relaxes the projection onto H.  The strong solver projects its anchor x0
through ``CutRing`` onto the bookkeeping half-space H(x0, x), the last
``RING_SIZE`` such cuts and the older cuts still active at its last
projection.  The two-half-space projector ``haugazeau_Q``, the closed form
of the one-cut case, is not called by the engine; it stays for the tests
and ``bench/spans.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, InfeasibleCutsError, SolverCorruptionError
# check_dim is unused here; bench/spans.py rebinds it at this module.
from .space import check_dim  # noqa: F401

RHO_ZERO_REL = 1e-14

# The newest graph cuts an anchored run keeps, besides its active ones.
# Strong iterations on regression-d6's 30 recipe problems at seed 41 (d <=
# 6, tol 1e-9): 11,141 with 8 cuts, 10,856 with 12, 10,707 with 16, 10,780
# with 24 and 10,721 with 32.
RING_SIZE = 16
# A cut holds at z when <a, z> - b <= VIOLATION_REL * kappa, for the unit
# normal a, kappa the largest violation at x0 of any cut kept so far.
VIOLATION_REL = 1e-12
# A normal a = n + sum r_i a_i whose component n off the span of the
# active normals has |n|^2 <= DEPENDENT_SQ (1 + |r|^2) lies in that span.
DEPENDENT_SQ = 1e-18
# Coefficients r_i up to COEF_ZERO times the largest |r_i| are rounding:
# they block no step.
COEF_ZERO = 1e-10
# Active-set steps per projection, per kept row; each step adds, drops or
# swaps one cut.  Goldfarb-Idnani's method is finite; this bounds rounding.
STEPS_PER_ROW = 4


def cut_coefficient(theta, sigma, lam):
    """rho = lam * theta / sigma when theta < 0, else 0.0.

    ``theta = <y - x, y*>`` and ``sigma = |y*|^2``.  The strict branch
    implies y* != 0, so no epsilon is used; a sigma that underflowed to 0
    raises instead.
    """
    if theta < 0:
        if sigma == 0:
            raise SolverCorruptionError(f"theta = {theta!r} < 0 but sigma = |y*|^2 underflowed to 0")
        return lam * theta / sigma
    return 0.0


def relaxed_cut(x, theta, sigma, y_star, lam):
    """Relaxed projection of x onto the cut {z : <z - y, y*> <= 0}.

    ``theta = <y - x, y*>`` and ``sigma = |y*|^2`` are passed in, since the
    solvers already hold them.  Returns ``(rho, x + rho * y*)`` with rho
    from ``cut_coefficient``, and ``(0.0, x)`` when theta >= 0.
    """
    if theta < 0:
        rho = cut_coefficient(theta, sigma, lam)
        return rho, x + rho * y_star
    return 0.0, x


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
    chi, mu, nu = d0.dot(d1), d0.dot(d0), d1.dot(d1)
    rho = mu * nu - chi * chi
    if rho <= RHO_ZERO_REL * max(mu * nu, 1.0):
        if chi < 0:
            raise InfeasibleCutsError(
                "the two half-space cuts are disjoint (rho = 0, chi < 0); "
                "the target set is empty or the iteration is corrupted")
        return x_half.copy()
    if chi * nu >= rho:  # x0 + (1 + chi/nu) (x_half - x): x_half - x is -d1 exactly
        return (x0 - (1.0 + chi / nu) * d1).astype(float)
    return (x + (nu / rho) * (chi * d0 - mu * d1)).astype(float)


class CutRing:
    """The cuts an anchored run keeps, and the projection of x0 onto them.

    A cut {z : <z - y, y*> <= 0} is kept unit-normalised: the row a =
    y*/|y*| of ``normals`` and its violation s = <a, x0 - y> at the anchor
    x0.  Rows 1..size + min(d, size) hold the last ``size`` graph cuts and
    older ones still active, the newest overwriting the oldest that is not;
    row 0 is the bookkeeping cut H(x0, x) = {z : <z - x, x0 - x> <= 0}.

    ``project`` runs the dual active-set method of Goldfarb and Idnani
    (Math. Program. 27, 1983) on min |z - x0|^2 / 2 over the kept cuts: z =
    x0 - u, u = sum of lam_i a_i over the active rows P, which hold with
    equality, lam > 0.  Each step enters the most violated cut j, moving its
    multiplier up; an active multiplier that reaches 0 first leaves P.  A
    violated cut whose normal is a nonpositive combination of P's normals
    certifies that the cuts are disjoint (Farkas).

    P's normals are independent, so at most d are active.  Their dual basis
    is kept in ``dual`` (<a_i, b_k> = delta_ik, each b_k in their span), so
    that one matvec gives the coefficients r_i = <b_i, a_j> of an entering
    normal; entering or dropping a row updates it by a rank-one step.  At a
    vertex (d rows) an entering cut swaps with the row its ratio test
    picks: one simplex pivot.  P, lam and the dual basis warm-start the
    next projection.
    """

    def __init__(self, x0, size=RING_SIZE):
        d = x0.shape[0]
        rows = size + min(d, size) + 1
        self.x0 = x0
        self.normals = np.zeros((rows, d))
        self.s = np.zeros(rows)
        self.top = 0.0  # the largest violation of a kept cut, an upper bound
        self.order = list(range(1, rows))  # ring rows, oldest cut first
        self.fresh = {}  # row -> violation at z, of the cuts added since the last projection
        self.active = []  # P
        self.dual = np.zeros((d, d))  # P's dual basis, in P's order
        self.lam = np.zeros(d)
        self.u = np.zeros(d)
        self.z = None  # the last projection

    def add(self, y, y_star, sigma, theta):
        """Keep the cut {z : <z - y, y*> <= 0}; sigma = |y*|^2 (no cut unless finite, > 0).

        theta = <y - z, y*> for z the last projection (x0 before the first):
        the cut's violation at z is -theta / |y*|.  The cut overwrites the
        oldest ring row that is not active.  At most d rows are active, so
        this fails only when d > ``size``; the oldest row then goes, and the
        next projection restarts from H(x0, z), which contains the
        intersection of the cuts active at z.
        """
        if not 0 < sigma < math.inf:
            return
        order, P = self.order, self.active
        for k, slot in enumerate(order):
            if slot not in P:
                break
        else:
            k = 0
            self.z = None
        slot = order.pop(k)
        order.append(slot)
        scale = 1.0 / math.sqrt(sigma)
        a = np.multiply(y_star, scale, out=self.normals[slot])
        v = -theta * scale
        # s = <a, x0 - y> = <a, u> + <a, z - y> = <a, u> + v.
        s = self.s[slot] = float(a.dot(self.u)) + v
        if s > self.top:
            self.top = s
        self.fresh[slot] = v

    def project(self, x) -> np.ndarray:
        """The projection of x0 onto H(x0, x) and every kept cut.

        When x is the last projection, H(x0, x) contains the intersection of
        the cuts active there, all still kept, so it adds no constraint: row
        0 and the active set stay, and only the cuts added since can be
        violated.  Otherwise row 0 becomes H(x0, x), and the active set
        restarts from it alone (lam_0 = |x0 - x| puts z at x).  Raises
        InfeasibleCutsError when the cuts are disjoint.
        """
        normals, s = self.normals, self.s
        if x is self.z:
            fresh, j = self.fresh, -1
        else:
            d0 = self.x0 - x
            s0 = math.sqrt(d0.dot(d0))
            normals[0] = self.dual[0] = d0 / s0 if s0 > 0 else d0
            s[0] = self.lam[0] = s0
            self.top = max(self.top, s0)
            self.active = [0] if s0 > 0 else []
            self.u = d0
            fresh, j = {}, None  # any row may be violated at x
        self.fresh = {}
        P, tol = self.active, VIOLATION_REL * self.top
        v = tol
        for i, w in fresh.items():
            if w > v:
                j, v = i, w
        refreshed = False
        d = self.u.shape[0]
        for _ in range(STEPS_PER_ROW * len(s)):
            if j is None:
                viol = s - normals.dot(self.u)  # <a_i, z> - b_i
                j = int(viol.argmax())
                v = float(viol[j])
                if not v > tol:
                    j = -1
            if j < 0:
                break
            if j in P:  # rounding in the dual basis built up: z left an active plane
                if refreshed:
                    break
                self._refresh()
                refreshed = True
            elif len(P) < d or not self._swap(j, v):
                self._enter(j, v)
            j = None
        self.z = self.x0 - self.u
        return self.z

    def _refresh(self):
        """The dual basis and lam solved afresh on P, dropping rows until every lam_i > 0."""
        P = self.active
        while P:
            A = self.normals.take(P, 0)
            try:
                inv = np.linalg.inv(A.dot(A.T))
            except np.linalg.LinAlgError:
                P.pop()
                continue
            lam = inv.dot(self.s.take(P))
            if min(lam.tolist()) > 0:
                p = len(P)
                self.dual[:p] = inv.dot(A)
                self.lam[:p] = lam
                self.u = lam.dot(A)
                return
            P[:] = [i for i, m in zip(P, lam.tolist()) if m > 0]
        self.u = np.zeros_like(self.u)

    @staticmethod
    def _ratio(lam, r):
        """Goldfarb-Idnani's ratio test: the first multiplier to reach 0 as lam - tau r.

        Returns (tau, k, r_k), or (inf, -1, 0.0) when no r_k is positive
        beyond rounding, COEF_ZERO times the spread of r.
        """
        rl = r.tolist()
        floor = COEF_ZERO * (max(rl) - min(rl)) if rl else 0.0
        tau, k, rk = math.inf, -1, 0.0
        for i, (m, ri) in enumerate(zip(lam.tolist(), rl)):
            if ri > floor and m < tau * ri:
                tau, k, rk = m / ri, i, ri
        return tau, k, rk

    def _disjoint(self, j, v):
        return InfeasibleCutsError(
            f"the {len(self.active) + 1} active cuts are disjoint: cut {j} is violated by "
            f"{v:.3e} and its normal is a nonpositive combination of the others'; the "
            "target set is empty or the iteration is corrupted")

    def _swap(self, j, v):
        """At a vertex, swap cut j in for the row the ratio test picks.

        a_j = sum r_i a_i with r_i = <b_i, a_j>.  Dropping row k and entering
        j moves z by -(v / r_k) b_k, the only direction that keeps the other
        rows' planes, and pivots the dual basis: b_k / r_k, and b_i - (r_i /
        r_k) b_k.  Returns False, changing nothing, when the ratio test picks
        no row (``_enter``'s test on the same r then raises), or when a
        multiplier of the new vertex is negative: Goldfarb-Idnani's step is
        then no swap.
        """
        r = self.dual.dot(self.normals[j])
        _, k, rk = self._ratio(self.lam, r)
        if k < 0:
            return False
        bk = self.dual[k] * (1.0 / rk)
        pivot = self.dual - r[:, None] * bk
        pivot[k] = bk
        u = bk * v
        u += self.u
        lam = pivot.dot(u)
        if min(lam.tolist()) < 0:
            return False
        self.dual, self.lam, self.u = pivot, lam, u
        self.active[k] = j
        return True

    def _enter(self, j, v):
        """Goldfarb-Idnani's steps that make cut j (violation v > 0) active.

        a_j = n + sum r_i a_i with r_i = <b_i, a_j> and n orthogonal to P's
        normals.  Raising lam_j by tau moves z by -tau n and lam_P by -tau r:
        a full step tau = v / |n|^2 makes cut j hold and enters it, with the
        dual basis b_i - (r_i / |n|^2) n and n / |n|^2; a partial step stops
        where an active multiplier reaches 0, and drops that row k, taking
        b_k's part out of the other b_i.
        """
        P, dual, lam = self.active, self.dual, self.lam
        a = self.normals[j]
        lam_j = 0.0
        while True:
            p = len(P)
            r = dual[:p].dot(a)
            n = a - r.dot(self.normals.take(P, 0))
            nn = float(n.dot(n))
            if p == a.shape[0] or nn <= DEPENDENT_SQ * (1.0 + float(r.dot(r))):
                nn = 0.0
            full = v / nn if nn else math.inf
            part, k, _ = self._ratio(lam[:p], r)
            if full <= part and full < math.inf:
                n *= 1.0 / nn
                dual[:p] -= r[:, None] * n
                dual[p] = n
                lam[:p] -= full * r
                np.maximum(lam[:p], 0.0, out=lam[:p])  # after r_i at most the floor
                lam[p] = lam_j + full
                P.append(j)
                self.u = lam[:p + 1].dot(self.normals.take(P, 0))
                return
            if k < 0:
                raise self._disjoint(j, v)
            lam[:p] -= part * r
            lam_j += part
            v -= part * nn
            bk = dual[k].copy()
            dual[:p] -= dual[:p].dot(bk * (1.0 / bk.dot(bk)))[:, None] * bk
            dual[k:p - 1] = dual[k + 1:p]
            lam[k:p - 1] = lam[k + 1:p]
            del P[k]
