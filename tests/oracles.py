"""Independent oracles used to pin expected values.

Everything here is deliberately independent of the library's computation
paths: enumeration, grid search, bisection and dense linear algebra, plus
two literal loop transcriptions, Tseng's method and the per-block coupled
primal-dual step, that the library's one iteration engine must reproduce,
and the literal extended-precision Haugazeau formula that
``fejer.haugazeau_Q`` must reproduce byte for byte.  The four-branch
evaluation-point formula ``literal_apply_policy`` pins the one-form
``algorithms.apply_policy``, and ``relaxed_projection_step`` is the
single-cut relaxed projection written from a graph point.  The strong
solver's multi-cut projector ``fejer.CutRing`` is pinned by
``qp_polyhedron``, which enumerates active sets.
The coupled references apply each coupling L_{ji} block by block, where the
library uses one stacked coupling matrix.
The transcriptions call only the operators they are given.  The
character-by-character bracket parser pins the problem-file value grammar
that the CLI's run-at-a-time parser must reproduce, errors included.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from warpsplit.algorithms import stage_at
from warpsplit.errors import ConfigurationError, InfeasibleCutsError, ProblemFormatError
from warpsplit.fejer import relaxed_cut
from warpsplit.operators import GraphPoint
from warpsplit.space import check_dim, inner, vector


def project_halfspace(x, anchor, normal):
    """Projection onto {u : <u - anchor, normal> <= 0} (normal = 0: whole space)."""
    nn = float(np.dot(normal, normal))
    if nn == 0.0:
        return np.asarray(x, dtype=float).copy()
    g = float(np.dot(x - anchor, normal))
    if g <= 0:
        return np.asarray(x, dtype=float).copy()
    return x - (g / nn) * normal


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


@dataclass
class LiteralPolicy:
    """A policy in the four-kind form ``literal_apply_policy`` reads."""

    kind: str
    errors: object = None
    alpha: object = None
    weights: object = None
    depth: int = None

    @property
    def history_depth(self):
        return self.depth if self.depth else 1


def literal_apply_policy(policy: LiteralPolicy, history, n) -> np.ndarray:
    """Evaluate x~_n from the iterate history (oldest to newest, x_n last).

    Entries before iterate 0 are taken as x_0, matching the inertial
    convention x_{-1} := x_0.
    """
    if not len(history):
        raise ConfigurationError("apply_policy needs a nonempty history")
    x = history[-1]
    if policy is None or policy.kind == "none":
        return np.asarray(x, dtype=float).copy()
    if policy.kind == "additive":
        e = vector(policy.errors(n))
        check_dim(e, x.shape[0], "additive perturbation")
        return x + e
    if policy.kind == "inertial":
        prev = history[-2] if len(history) >= 2 else history[0]
        a = float(stage_at(policy.alpha, n))
        return x + a * (x - prev)
    if policy.kind == "memory":
        row = np.asarray(stage_at(policy.weights, n), dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise ConfigurationError("memory weight row must be a nonempty vector")
        if row.size > policy.history_depth:
            raise ConfigurationError(
                f"memory weight row at n = {n} has length {row.size}, longer than the "
                f"history depth {policy.history_depth} set by the row at n = 0")
        if abs(float(row.sum()) - 1.0) > 1e-12:
            raise ConfigurationError(
                f"memory weight row at n = {n} sums to {row.sum()!r}, must be 1 within 1e-12")
        out = np.zeros_like(np.asarray(x, dtype=float))
        m = row.size - 1
        for k, w in enumerate(row):
            idx = len(history) - 1 - (m - k)
            past = history[idx] if idx >= 0 else history[0]
            out = out + w * past
        if policy.errors is not None:
            e = vector(policy.errors(n))
            check_dim(e, x.shape[0], "memory additive perturbation")
            out = out + e
        return out
    raise ConfigurationError(f"unknown perturbation policy kind {policy.kind!r}")


def qp_two_halfspaces(x0, y, z, tol=1e-9):
    """Projection of x0 onto H(x0, y) intersect H(y, z) by active-set enumeration.

    H(a, b) = {u : <u - b, a - b> <= 0}.  Returns None when the intersection
    is empty.  At most four candidates: x0 itself, the two single-plane
    projections, and the two-plane projection.
    """
    x0 = np.asarray(x0, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    cons = []
    n1 = x0 - y
    if np.dot(n1, n1) > 0:
        cons.append((y, n1))
    n2 = y - z
    if np.dot(n2, n2) > 0:
        cons.append((z, n2))

    def feasible(u):
        for a, n in cons:
            slack = tol * (1.0 + np.linalg.norm(u)) * np.linalg.norm(n)
            if np.dot(u - a, n) > slack:
                return False
        return True

    candidates = []
    if feasible(x0):
        candidates.append(x0)
    for a, n in cons:
        u = x0 - (np.dot(x0 - a, n) / np.dot(n, n)) * n
        if feasible(u):
            candidates.append(u)
    if len(cons) == 2:
        # Two active planes: solve the 2x2 Gram system by Cramer's rule in
        # extended precision (the system is ill-conditioned for near-parallel
        # normals and plain double loses digits the closed form keeps).
        n1 = cons[0][1].astype(np.longdouble)
        n2 = cons[1][1].astype(np.longdouble)
        x0l = x0.astype(np.longdouble)
        g = np.array([np.dot(x0l - cons[0][0].astype(np.longdouble), n1),
                      np.dot(x0l - cons[1][0].astype(np.longdouble), n2)])
        a11, a12, a22 = np.dot(n1, n1), np.dot(n1, n2), np.dot(n2, n2)
        det = a11 * a22 - a12 * a12
        if abs(det) > 1e-30 * max(np.float64(1.0), np.float64(a11 * a22)):
            lam1 = (g[0] * a22 - g[1] * a12) / det
            lam2 = (a11 * g[1] - a12 * g[0]) / det
            u = np.asarray(x0l - lam1 * n1 - lam2 * n2, dtype=float)
            if feasible(u):
                candidates.append(u)
    if not candidates:
        return None
    dists = [np.linalg.norm(u - x0) for u in candidates]
    return candidates[int(np.argmin(dists))]


def qp_polyhedron(x0, normals, offsets, tol=1e-9):
    """Projection of x0 onto {z : <n_i, z> <= c_i for all i} by active-set enumeration.

    Every subset S of linearly independent normals (so at most d of them)
    gives the candidate z on the planes of S nearest x0, z = x0 - N_S^T lam;
    it is kept when lam >= 0 and z meets every half-space (each within
    ``tol``, relative to the scale of z and n_i).  Returns the candidate
    nearest x0, or None when no candidate is kept: then the half-spaces are
    disjoint, since a nonempty polyhedron's projection has a certificate
    with independent active normals.  Subsets of one size are solved as
    one stack.
    """
    x0 = np.asarray(x0, dtype=float)
    N = np.array(normals, dtype=float).reshape(-1, x0.size)
    c = np.asarray(offsets, dtype=float).reshape(-1)
    norms = np.linalg.norm(N, axis=1)
    candidates = [x0[None, :]]
    for size in range(1, min(len(c), x0.size) + 1):
        S = np.array(list(itertools.combinations(range(len(c)), size)))
        NS = N[S]
        sv = np.linalg.svd(NS / norms[S][..., None], compute_uv=False)
        keep = sv[:, -1] > 1e-10 * sv[:, 0]
        S, NS = S[keep], NS[keep]
        lam = np.linalg.solve(NS @ NS.transpose(0, 2, 1), (NS @ x0 - c[S])[..., None])[..., 0]
        keep = np.all(lam >= -tol * (1.0 + np.abs(lam).max(axis=1, keepdims=True)), axis=1)
        candidates.append(x0 - np.einsum("ks,ksd->kd", lam[keep], NS[keep]))
    z = np.concatenate(candidates)
    slack = tol * (1.0 + np.linalg.norm(z, axis=1))[:, None] * norms
    z = z[np.all(z @ N.T - c <= slack, axis=1)]
    if not len(z):
        return None
    return z[np.argmin(np.linalg.norm(z - x0, axis=1))]


def literal_haugazeau_Q(x0, x, x_half, rho_zero_rel=1e-14):
    """Q(x0, x, x_half) written out as the closed form reads, in longdouble.

    chi = <x0 - x, x - x_half>, mu = |x0 - x|^2, nu = |x - x_half|^2,
    rho = mu*nu - chi^2; rho counts as zero when it is at most
    ``rho_zero_rel * max(mu*nu, 1)``, and then chi < 0 means disjoint cuts.
    """
    ld = np.longdouble
    x0, x, x_half = (np.asarray(v, dtype=float) for v in (x0, x, x_half))
    d0 = (x0 - x).astype(ld)
    d1 = (x - x_half).astype(ld)
    chi = np.dot(d0, d1)
    mu = np.dot(d0, d0)
    nu = np.dot(d1, d1)
    rho = mu * nu - chi * chi
    if rho <= rho_zero_rel * max(mu * nu, 1.0):
        if chi < 0:
            raise InfeasibleCutsError("disjoint cuts")
        return x_half.copy()
    if chi * nu >= rho:
        out = x0.astype(ld) + (1.0 + chi / nu) * (x_half - x).astype(ld)
        return np.asarray(out, dtype=float)
    out = x.astype(ld) + (nu / rho) * (chi * d0 + mu * (-d1))
    return np.asarray(out, dtype=float)


def box_vi_solution(B, lo, hi, resolution=1e-4, grid=33):
    """Zero of N_box + B by multiscale grid search on the natural residual.

    Minimizes |x - proj_box(x - B(x))| over nested grids until the cell
    size falls below ``resolution``.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    d = lo.shape[0]
    box_lo, box_hi = lo.copy(), hi.copy()

    def residual(x):
        return np.linalg.norm(x - np.clip(x - B(x), box_lo, box_hi))

    best = None
    while True:
        axes = [np.linspace(lo[k], hi[k], grid) for k in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.array([residual(p) for p in pts])
        best = pts[int(np.argmin(vals))]
        cell = (hi - lo) / (grid - 1)
        if np.max(cell) <= resolution:
            return best
        lo = np.maximum(box_lo, best - 2 * cell)
        hi = np.minimum(box_hi, best + 2 * cell)


def disk_warped_projection(K, x, radius=1.0, n_grid=4096, tol=1e-14):
    """Warped projection onto the disk of the given radius, by brute force.

    Solves K(x) - K(p) = t p with t >= 0 and |p| = radius (boundary case)
    via a sign scan of the tangential component over the boundary angle plus
    bisection polish; interior points are their own projection.
    """
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) <= radius:
        return x.copy()
    Kx = K(x)

    def boundary(phi):
        return radius * np.array([np.cos(phi), np.sin(phi)])

    def tangential(phi):
        p = boundary(phi)
        dmp = Kx - K(p)
        return dmp[0] * p[1] - dmp[1] * p[0]

    def radial(phi):
        p = boundary(phi)
        dmp = Kx - K(p)
        return float(np.dot(dmp, p)) / radius ** 2

    phis = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    vals = np.array([tangential(p) for p in phis])
    roots = []
    for k in range(n_grid):
        a, b = phis[k], phis[(k + 1) % n_grid] + (2 * np.pi if k + 1 == n_grid else 0)
        fa, fb = vals[k], vals[(k + 1) % n_grid]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            left, right, fleft = a, b, fa
            for _ in range(200):
                mid = 0.5 * (left + right)
                fm = tangential(mid)
                if fm == 0.0 or right - left < tol:
                    left = right = mid
                    break
                if fleft * fm < 0:
                    right = mid
                else:
                    left, fleft = mid, fm
            roots.append(0.5 * (left + right))
    valid = [phi for phi in roots if radial(phi) >= -1e-10]
    if not valid:
        raise AssertionError("no boundary point satisfies the normal-cone condition")
    # Cluster duplicates (wrap-around) and insist the solution is unique.
    pts = [boundary(phi) for phi in valid]
    unique = []
    for p in pts:
        if not any(np.linalg.norm(p - q) < 1e-6 for q in unique):
            unique.append(p)
    if len(unique) != 1:
        raise AssertionError(f"warped projection is not unique: {unique}")
    return unique[0]


def dense_kt_solution(P_blocks, s_blocks, R_blocks, r_blocks, L_map, dims_primal, dims_dual):
    """Zero of the stacked affine Kuhn-Tucker operator by one dense solve.

    Primal blocks are affine maps x -> P x + p (pairs or matrices), dual
    blocks y -> R y + rho; ``L_map[(j, i)]`` holds coupling matrices.
    Returns (x_blocks, y_blocks, v_blocks).
    """

    def mat_off(block, d):
        if isinstance(block, tuple):
            return np.asarray(block[0], dtype=float), np.asarray(block[1], dtype=float)
        return np.asarray(block, dtype=float), np.zeros(d)

    nI, nJ = len(dims_primal), len(dims_dual)
    xoff = np.concatenate([[0], np.cumsum(dims_primal)])
    yoff = np.concatenate([[0], np.cumsum(dims_dual)])
    ny, nz = int(xoff[-1]), int(yoff[-1])
    n = ny + 2 * nz
    A = np.zeros((n, n))
    rhs = np.zeros(n)
    for i, d in enumerate(dims_primal):
        P, p = mat_off(P_blocks[i], d)
        sl = slice(xoff[i], xoff[i + 1])
        A[sl, sl] = P
        rhs[sl] = np.asarray(s_blocks[i], dtype=float) - p
        for j in range(nJ):
            L = L_map.get((j, i))
            if L is not None:
                A[sl, ny + nz + yoff[j]:ny + nz + yoff[j + 1]] = np.asarray(L, dtype=float).T
    for j, d in enumerate(dims_dual):
        R, rho = mat_off(R_blocks[j], d)
        sl = slice(ny + yoff[j], ny + yoff[j + 1])
        A[sl, sl] = R
        A[sl, ny + nz + yoff[j]:ny + nz + yoff[j + 1]] = -np.eye(d)
        rhs[sl] = -rho
        sl3 = slice(ny + nz + yoff[j], ny + nz + yoff[j + 1])
        A[sl3, ny + yoff[j]:ny + yoff[j + 1]] = np.eye(d)
        rhs[sl3] = -np.asarray(r_blocks[j], dtype=float)
        for i in range(nI):
            L = L_map.get((j, i))
            if L is not None:
                A[sl3, xoff[i]:xoff[i + 1]] = -np.asarray(L, dtype=float)
    sol = np.linalg.solve(A, rhs)
    xs = [sol[xoff[i]:xoff[i + 1]] for i in range(nI)]
    ys = [sol[ny + yoff[j]:ny + yoff[j + 1]] for j in range(nJ)]
    vs = [sol[ny + nz + yoff[j]:ny + nz + yoff[j + 1]] for j in range(nJ)]
    return xs, ys, vs


def tseng_iterates(A, B, gamma, x0, iterations):
    """Tseng's forward-backward-forward method, transcribed literally.

    v* = gamma B x; y = J_{gamma A}(x - v*); x+ = y - gamma B y + v*.
    Returns one (x, y, y*, theta, sigma, lam) per iteration, with
    y* = (x - v* - y)/gamma + B y the certified graph point,
    theta = <y - x, y*>, sigma = |y*|^2 and lam = gamma sigma / -theta the
    relaxation the update implies (NaN when theta >= 0).
    """
    x = np.asarray(x0, dtype=float)
    out = []
    for _ in range(iterations):
        v_star = gamma * B(x)
        y = A.resolvent(gamma, x - v_star)
        y_star = (x - v_star - y) / gamma + B(y)
        theta = float(np.dot(y - x, y_star))
        sigma = float(np.dot(y_star, y_star))
        lam = gamma * sigma / -theta if theta < 0 else float("nan")
        out.append((x, y, y_star, theta, sigma, lam))
        x = y - gamma * B(y) + v_star
    return out


def _coupling(problem, j, i):
    op = problem.L(j, i)
    return np.zeros((problem.dual[j].dim, problem.primal[i].dim)) if op is None else op.matrix


def coupling_Lx(problem, xs):
    """Per-dual-block sums sum_i L_{ji} x_i, one product per block pair."""
    return [sum(_coupling(problem, j, i) @ x for i, x in enumerate(xs))
            for j in range(len(problem.dual))]


def coupling_Lt(problem, vs):
    """Per-primal-block sums sum_j L_{ji}* v_j, one product per block pair."""
    return [sum(_coupling(problem, j, i).T @ v for j, v in enumerate(vs))
            for i in range(len(problem.primal))]


def kt_blocks(problem, p):
    """Cut a stacked point (x_1..x_I, y_1..y_J, v*_1..v*_J) into its three block lists."""
    nI, nJ = len(problem.primal), len(problem.dual)
    dims = [b.dim for b in problem.primal] + [b.dim for b in problem.dual] * 2
    cuts = np.cumsum([0] + dims)
    p = np.asarray(p, dtype=float)
    blocks = [p[cuts[k]:cuts[k + 1]] for k in range(len(dims))]
    return blocks[:nI], blocks[nI:nI + nJ], blocks[nI + nJ:]


def blockwise_kt_forward(problem, u):
    """The Kuhn-Tucker forward part (x, y, v*) -> (C x + L* v*, D y - v*, -L x + y), by blocks."""
    xs, ys, vs = kt_blocks(problem, u)
    out = [blk.C(x) + lt for blk, x, lt in zip(problem.primal, xs, coupling_Lt(problem, vs))]
    out += [blk.D(y) - v for blk, y, v in zip(problem.dual, ys, vs)]
    out += [-lx + y for lx, y in zip(coupling_Lx(problem, xs), ys)]
    return np.concatenate(out)


def blockwise_kt_residuals(problem, xs, vs):
    """The Kuhn-Tucker resolvent certificates of (x, v*), one block at a time.

    Primal i: |x_i - J_{A_i}(x_i + s*_i - sum_j L_{ji}* v_j - C_i x_i)|; dual
    j, at u_j = sum_i L_{ji} x_i - r_j: |u_j - J_{B_j}(u_j + v*_j - D_j u_j)|.
    """
    out = []
    for blk, x, lt in zip(problem.primal, xs, coupling_Lt(problem, vs)):
        out.append(np.linalg.norm(x - blk.A.resolvent(1.0, x + blk.s_star - lt - blk.C(x))))
    for blk, lx, v in zip(problem.dual, coupling_Lx(problem, xs), vs):
        u = lx - blk.r
        out.append(np.linalg.norm(u - blk.B.resolvent(1.0, u + v - blk.D(u))))
    return np.array(out)


def coupled_iterates(problem, gammas, taus, p0, iterations, lam=1.0):
    """The coupled primal-dual solver, transcribed block by block.

    Identity stage operators, constant stage constants ``gammas``/``taus``
    and a constant relaxation ``lam``, no perturbation.  Points live on the
    stacked space (x_1..x_I, y_1..y_J, v*_1..v*_J).  Returns one
    (p, q, q*, theta, sigma, lam) per iteration, with (q, q*) the certified
    graph point of the Kuhn-Tucker operator.
    """
    primal, dual = problem.primal, problem.dual
    p = np.asarray(p0, dtype=float)
    out = []
    for _ in range(iterations):
        xs, ys, vs = kt_blocks(problem, p)
        a, a_star = [], []
        for blk, g, x, lt in zip(primal, gammas, xs, coupling_Lt(problem, vs)):
            l_star = x - g * blk.C(x) - g * lt
            a.append(blk.A.resolvent(g, l_star + g * blk.s_star))
            a_star.append((l_star - a[-1]) / g + blk.C(a[-1]))
        b, b_star, c = [], [], []
        for blk, t, y, v, lx in zip(dual, taus, ys, vs, coupling_Lx(problem, xs)):
            t_star = y - t * blk.D(y) + t * v
            b.append(blk.B.resolvent(t, t_star))
            c.append(lx - y + v - blk.r)
            b_star.append((t_star - b[-1]) / t + blk.D(b[-1]) - c[-1])
        a_star = [s + lt for s, lt in zip(a_star, coupling_Lt(problem, c))]
        c_star = [blk.r + bj - la for blk, bj, la in zip(dual, b, coupling_Lx(problem, a))]
        q = np.concatenate(a + b + c)
        q_star = np.concatenate(a_star + b_star + c_star)
        theta = float(np.dot(q - p, q_star))
        sigma = float(np.dot(q_star, q_star))
        out.append((p, q, q_star, theta, sigma, lam))
        if theta < 0:
            p = p + (lam * theta / sigma) * q_star
    return out


def bracket_oracle(s, i, lineno, col0):
    """Parse a [...] list starting at index i; returns (value, index past ']')."""
    assert s[i] == "["
    items = []
    i += 1
    while True:
        while i < len(s) and s[i] in " \t":
            i += 1
        if i >= len(s):
            raise ProblemFormatError("unterminated '['", lineno, col0 + i)
        if s[i] == "]":
            return items, i + 1
        if s[i] == "[":
            sub, i = bracket_oracle(s, i, lineno, col0)
        else:
            j = i
            while j < len(s) and s[j] not in ",]":
                j += 1
            tok = s[i:j].strip()
            try:
                sub = int(tok)
            except ValueError:
                try:
                    sub = float(tok)
                except ValueError:
                    raise ProblemFormatError(
                        f"expected a number, got {tok!r}", lineno, col0 + i) from None
            i = j
        items.append(sub)
        while i < len(s) and s[i] in " \t":
            i += 1
        if i < len(s) and s[i] == ",":
            i += 1
        elif i < len(s) and s[i] == "]":
            return items, i + 1
        elif i >= len(s):
            raise ProblemFormatError("unterminated '['", lineno, col0 + i)
