"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured wall times.
"""

import time

import numpy as np
import pytest

from warpsplit import (
    CoupledProblem,
    DualBlock,
    InfeasibleCutsError,
    LinearMap,
    MDecomposition,
    PerturbationPolicy,
    PrimalBlock,
    SolverConfig,
    affine_map,
    affine_resolvent_operator,
    affine_set_normal_cone,
    ball_normal_cone,
    box_normal_cone,
    coupled_kernel,
    fbf_kernel,
    haugazeau_Q,
    identity_kernel,
    identity_map,
    map_kernel,
    nongradient_cubic_kernel,
    primal_dual_kernel,
    saddle_decomposition,
    scaled_identity_operator,
    solve_coupled,
    solve_fbf_memory,
    solve_strong,
    solve_tseng,
    solve_weak,
    tseng_relaxation,
    warped_resolvent,
)
from warpsplit.operators import SingleValuedOperator, l1_operator

from oracles import (
    coupled_iterates,
    dense_kt_solution,
    disk_warped_projection,
    qp_two_halfspaces,
    tseng_iterates,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def report(number, label, t0):
    print(f"\n[acceptance {number}] PASS - {label} ({time.perf_counter() - t0:.3f}s)")


def seeded_affine_box_problem(seed, max_dim=10):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, max_dim + 1))
    lo = -rng.uniform(0.5, 1.5, d)
    hi = rng.uniform(0.5, 1.5, d)
    z = lo + (hi - lo) * rng.uniform(0.3, 0.7, d)
    G = rng.normal(size=(d, d))
    S = rng.normal(size=(d, d))
    M = G @ G.T / d + 0.3 * np.eye(d) + 0.5 * (S - S.T)
    B = affine_map(M, -M @ z)
    A = box_normal_cone(lo, hi)
    x0 = z + rng.uniform(0.5, 1.0, d)
    return A, B, x0, z


def fbf_setup(B, tol, max_iter):
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    cfg = SolverConfig(epsilon=eps, step_size=gamma, max_iter=max_iter,
                       tol_residual=tol, tol_step=tol)
    return eps, gamma, cfg


def test_criterion_1_proximal_point_specialization():
    t0 = time.perf_counter()
    m = MDecomposition(scaled_identity_operator(2, 1.0))
    cfg = SolverConfig(step_size=1.0, relaxation=1.0, max_iter=20,
                       tol_residual=1e-300, tol_step=1e-300)
    solve_weak(m, identity_kernel(2), None, cfg, [1.0, 1.0])  # warm dispatch
    t_solve = time.perf_counter()
    res = solve_weak(m, identity_kernel(2), None, cfg, [1.0, 1.0])
    solve_ms = (time.perf_counter() - t_solve) * 1e3
    assert len(res.trace) == 20
    x0 = np.array([1.0, 1.0])
    for rec in res.trace:
        assert np.linalg.norm(rec.x - x0 / 2 ** rec.n) <= 1e-12
    assert np.linalg.norm(res.x - x0 / 2 ** 20) <= 1e-12
    report(1, f"proximal-point iterates equal x0/2^n to 1e-12 over 20 steps "
              f"(solve took {solve_ms:.2f} ms)", t0)


def test_criterion_2_haugazeau_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    infeasible_hits = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        x0 = rng.normal(size=d) * 2
        x = rng.normal(size=d) * 2
        xh = rng.normal(size=d) * 2
        oracle = qp_two_halfspaces(x0, x, xh)
        try:
            out = haugazeau_Q(x0, x, xh)
        except InfeasibleCutsError:
            assert oracle is None
            infeasible_hits += 1
            continue
        assert oracle is not None
        worst = max(worst, float(np.linalg.norm(out - oracle)))
    assert worst <= 1e-8
    # Constructed disjoint cuts trigger and are detected.
    with pytest.raises(InfeasibleCutsError):
        haugazeau_Q(np.zeros(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]))
    assert infeasible_hits > 0
    report(2, f"haugazeau_Q vs QP oracle on 10^4 triples, max err {worst:.2e} "
              f"<= 1e-8; infeasible branch hit {infeasible_hits} times", t0)


def test_criterion_3_tseng_triple_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        A, B, x0, _ = seeded_affine_box_problem(seed, max_dim=10)
        eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
        gamma = 0.9 * (1.0 - eps) / B.lipschitz
        cfg = SolverConfig(epsilon=eps, max_iter=200,
                           tol_residual=1e-300, tol_step=1e-300)
        ref = tseng_iterates(A, B, gamma, x0, 200)
        res_t = solve_tseng(A, B, gamma, cfg, x0)
        m = MDecomposition(A, B)
        k = fbf_kernel(identity_map(A.dim), B, gamma, eps)
        cfg_w = SolverConfig(epsilon=eps, relaxation=tseng_relaxation,
                             step_size=gamma, max_iter=200,
                             tol_residual=1e-300, tol_step=1e-300)
        res_w = solve_weak(m, k, None, cfg_w, x0)
        res_f = solve_fbf_memory(A, B, None, gamma,
                                 PerturbationPolicy.memory([1.0]), cfg_w, x0)
        assert len(res_t.trace) == len(res_w.trace) == len(res_f.trace) == 200
        for (x, *_), rt, rw, rf in zip(ref, res_t.trace, res_w.trace, res_f.trace):
            gaps = [float(np.linalg.norm(rec.x - x)) for rec in (rt, rw, rf)]
            worst = max(worst, *gaps)
            assert max(gaps) <= 1e-10
    report(3, f"literal Tseng / solve_tseng / kernel-form / memory-form agree on "
              f"20 problems x 200 iterations, worst per-iterate gap {worst:.2e} <= 1e-10", t0)


REGRESSION_SEEDS = list(range(100, 110))


def run_regression(seed, policy=None, tol=1e-6):
    A, B, x0, z = seeded_affine_box_problem(seed, max_dim=6)
    eps, gamma, cfg = fbf_setup(B, tol, 10_000)
    k = fbf_kernel(identity_map(A.dim), B, gamma, eps)
    m = MDecomposition(A, B)
    return solve_weak(m, k, policy, cfg, x0), z


def test_criterion_4_weak_convergence_regression():
    t0 = time.perf_counter()
    for seed in REGRESSION_SEEDS:
        res, z = run_regression(seed)
        assert res.converged, f"seed {seed} did not reach 1e-6 in 10^4 iterations"
        assert res.iterations <= 10_000
        assert res.trace[-1].residual <= 1e-6
        gaps = [float(np.linalg.norm(rec.x - z)) for rec in res.trace]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + 1e-10
    report(4, "10 seeded inclusion problems reach residual <= 1e-6 within "
              "10^4 iterations with nonincreasing Fejer gaps", t0)


def test_criterion_5_strong_convergence_to_projection():
    t0 = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        Amat = rng.normal(size=(k, d))
        b = rng.normal(size=k)
        m = MDecomposition(affine_set_normal_cone(Amat, b))
        x0 = rng.normal(size=d) * 2
        cfg = SolverConfig(max_iter=200, tol_residual=1e-10, tol_step=1e-10)
        res = solve_strong(m, identity_kernel(d), None, cfg, x0)
        assert res.converged
        proj = x0 - np.linalg.pinv(Amat) @ (Amat @ x0 - b)
        assert np.linalg.norm(res.x - proj) <= 1e-6
        dists = [np.linalg.norm(rec.x - x0) for rec in res.trace]
        for a, c in zip(dists, dists[1:]):
            assert c >= a - 1e-10
    report(5, "solve_strong reaches proj_Z x0 within 1e-6 on 5 affine zero "
              "sets with nondecreasing anchor distance", t0)


def test_criterion_5_strong_solver_on_the_regression_recipe():
    # The recipe's Z is the singleton {z}; the multi-cut Haugazeau step
    # must reach it at the tight tolerance on every seed, within the cap.
    t0 = time.perf_counter()
    iterations = []
    for seed in range(100, 124):
        A, B, x0, z = seeded_affine_box_problem(seed, max_dim=6)
        eps, gamma, cfg = fbf_setup(B, 1e-9, 10_000)
        res = solve_strong(MDecomposition(A, B), fbf_kernel(identity_map(A.dim), B, gamma, eps),
                           None, cfg, x0)
        assert res.converged, f"seed {seed}: {res.stop_reason}"
        assert np.linalg.norm(res.x - z) <= 1e-6
        iterations.append(res.iterations)
    report(5, f"solve_strong converges on regression seeds 100-123 at tol 1e-9 "
              f"({sum(iterations)} iterations, at most {max(iterations)})", t0)


def scalar_coupled_problem():
    return CoupledProblem(
        [PrimalBlock(A=scaled_identity_operator(1, 1.0))],
        [DualBlock(B=scaled_identity_operator(1, 1.0), r=[2.0])],
        {(0, 0): [[1.0]]})


def test_criterion_6_coupled_solver():
    t0 = time.perf_counter()
    # Scalar instance converges to the Kuhn-Tucker pair (1, -1).
    prob = scalar_coupled_problem()
    cfg = SolverConfig(max_iter=5000, tol_residual=1e-9, tol_step=1e-9)
    res = solve_coupled(prob, cfg)
    assert res.converged
    assert abs(res.x.x[0] - 1.0) <= 1e-6
    assert abs(res.x.v_star[0] + 1.0) <= 1e-6
    # Quadratic 2-primal / 1-dual instance matches the dense KKT solve.
    rng = np.random.default_rng(77)
    d1, d2, dz = 2, 2, 2
    mats = []
    for d in (d1, d2, dz):
        g = rng.normal(size=(d, d))
        mats.append(g @ g.T / d + 0.5 * np.eye(d))
    s1, s2 = rng.normal(size=d1), rng.normal(size=d2)
    r = rng.normal(size=dz)
    L1, L2 = rng.normal(size=(dz, d1)), rng.normal(size=(dz, d2))
    prob2 = CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator(mats[0]), s_star=s1),
         PrimalBlock(A=affine_resolvent_operator(mats[1]), s_star=s2)],
        [DualBlock(B=affine_resolvent_operator(mats[2]), r=r)],
        {(0, 0): L1, (0, 1): L2})
    xs, ys, vs = dense_kt_solution([mats[0], mats[1]], [s1, s2], [mats[2]], [r],
                                   {(0, 0): L1, (0, 1): L2}, [d1, d2], [dz])
    cfg2 = SolverConfig(max_iter=60_000, tol_residual=1e-9, tol_step=1e-9)
    res2 = solve_coupled(prob2, cfg2)
    assert res2.converged
    assert np.linalg.norm(res2.x.x.flatten() - np.concatenate(xs)) <= 1e-6
    assert np.linalg.norm(res2.x.v_star.flatten() - np.concatenate(vs)) <= 1e-6
    # The solver and the literal per-block transcription agree per-iterate to 1e-12.
    cfg3 = SolverConfig(max_iter=300, tol_residual=1e-300, tol_step=1e-300)
    res_d = solve_coupled(prob, cfg3)
    ref = coupled_iterates(prob, [b.default_step for b in prob.primal],
                           [b.default_step for b in prob.dual],
                           np.zeros(prob.layout.total), 300)
    worst = 0.0
    assert len(res_d.trace) == len(ref) == 300
    for rd, (p, *_) in zip(res_d.trace, ref):
        worst = max(worst, float(np.linalg.norm(rd.x - p)))
        assert np.linalg.norm(rd.x - p) <= 1e-12
    report(6, f"coupled solver: scalar KT pair, dense-KKT match, and "
              f"agreement with the literal transcription (worst gap {worst:.2e} <= 1e-12)", t0)


def sample_pairs(rng, dim, count, scale=2.0):
    for _ in range(count):
        yield rng.normal(size=dim) * scale, rng.normal(size=dim) * scale


def check_kernel_family(name, kern, m, gamma, rng, n_pairs=10_000,
                        cocoercivity_eps=None, j_pairs=None):
    """Declared constants plus warped-resolvent transport/Lipschitz bounds."""
    dim = kern.dim
    alpha, beta = kern.alpha, kern.beta
    for x, y in sample_pairs(rng, dim, n_pairs):
        d = x - y
        dk = kern.eval(x) - kern.eval(y)
        assert np.dot(d, dk) >= alpha * np.dot(d, d) - 1e-8, name
        assert np.linalg.norm(dk) <= beta * np.linalg.norm(d) * (1 + 1e-8), name
        if cocoercivity_eps is not None:
            assert np.dot(d, dk) >= np.dot(dk, dk) / (2 - cocoercivity_eps) - 1e-8, name
    ratio = beta / alpha
    for x, y in sample_pairs(rng, dim, j_pairs if j_pairs is not None else n_pairs):
        p = warped_resolvent(m, kern, gamma, x)
        q = warped_resolvent(m, kern, gamma, y)
        lhs = np.dot(p - q, kern.eval(x) - kern.eval(y))
        rhs = np.dot(p - q, kern.eval(p) - kern.eval(q))
        assert lhs >= rhs - 1e-8, name
        assert np.linalg.norm(p - q) <= ratio * np.linalg.norm(x - y) * (1 + 1e-8), name


def test_criterion_7_kernel_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    # Identity kernel with a box normal cone.
    check_kernel_family(
        "identity", identity_kernel(2),
        MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0])), 1.0, rng)
    # Forward-backward kernel, W = Id: epsilon-strong monotonicity and
    # 1/(2 - epsilon) cocoercivity.
    eps = 0.2
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    kern_fbf = fbf_kernel(identity_map(2), B, 0.8, eps)
    m_fbf = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    check_kernel_family("fbf", kern_fbf, m_fbf, 0.8, rng, cocoercivity_eps=eps)
    # General strongly monotone base (contraction inner loop).
    Wmat = np.eye(2) + 0.2 * ROT
    W = SingleValuedOperator(2, lambda x: Wmat @ x,
                             lipschitz=float(np.linalg.norm(Wmat, 2)),
                             monotone=True, strong_monotonicity=1.0, name="w02")
    check_kernel_family(
        "map", map_kernel(W),
        MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0])), 1.0, rng,
        j_pairs=2000)
    # Primal-dual kernel on the stacked space.
    L = LinearMap([[1.2]])
    kern_pd = primal_dual_kernel(L, 0.8, 1.1)
    m_pd = saddle_decomposition(l1_operator(1), box_normal_cone([-1.0], [1.0]), L)
    check_kernel_family("primal_dual", kern_pd, m_pd, 1.0, rng)
    # Coupled kernel on the stacked Kuhn-Tucker space.
    prob = scalar_coupled_problem()
    gam = [max(b.epsilon, 0.9 * (b.alpha - b.epsilon) / b.mu) for b in prob.primal]
    tau = [max(b.delta, 0.9 * (b.beta - b.delta) / b.nu) for b in prob.dual]
    kern_c = coupled_kernel(prob, [identity_map(1)], [identity_map(1)], gam, tau)
    check_kernel_family("coupled", kern_c, prob.decomposition(), 1.0, rng)
    report(7, "kernel families (identity, fbf, general-base, primal-dual, "
              "coupled) verified on 10^4 pairs each: strong monotonicity, "
              "Lipschitz, cocoercivity (W=Id), transport and (beta/alpha) "
              "resolvent bounds within 1e-8", t0)


def test_criterion_8_figure_reproduction():
    t0 = time.perf_counter()
    kern = nongradient_cubic_kernel()
    x = np.array([np.sqrt(2) / 2, -2.0])
    expected = np.array([np.sqrt(2) / 2, -np.sqrt(2) / 2])
    p = disk_warped_projection(kern.eval, x)
    assert np.linalg.norm(p - expected) <= 1e-8
    d = kern.eval(x) - kern.eval(p)
    t = float(np.dot(d, p))
    assert t >= 0 and np.linalg.norm(d - t * p) <= 1e-8
    # Identity kernel sends the same point to its radial projection.
    m = MDecomposition(ball_normal_cone(np.zeros(2), 1.0))
    radial = warped_resolvent(m, identity_kernel(2), 1.0, x)
    assert np.linalg.norm(radial - x / np.linalg.norm(x)) <= 1e-12
    report(8, "warped projection of (sqrt2/2, -2): cubic kernel gives "
              "(sqrt2/2, -sqrt2/2) within 1e-8, identity kernel gives the "
              "radial projection", t0)


def test_criterion_9_perturbation_robustness():
    t0 = time.perf_counter()
    for seed in REGRESSION_SEEDS:
        # Tighter stops than criterion 4 so each limit sits well inside the
        # 1e-6 agreement tolerance between runs.
        base, z = run_regression(seed, tol=1e-9)
        inertial, _ = run_regression(seed, PerturbationPolicy.inertial(0.3), tol=1e-9)
        memory, _ = run_regression(seed, PerturbationPolicy.memory([-0.3, 1.3]), tol=1e-9)
        assert base.converged and inertial.converged and memory.converged
        assert np.linalg.norm(inertial.x - base.x) <= 1e-6
        assert np.linalg.norm(memory.x - base.x) <= 1e-6
        for res in (inertial, memory):
            drift = [float(np.linalg.norm(rec.x_tilde - rec.x)) for rec in res.trace]
            assert drift[-1] <= 1e-5
            n10 = max(len(drift) // 10, 1)
            assert max(drift[-n10:]) <= max(max(drift[:n10]), 1e-12)
    report(9, "inertial (0.3) and memory (-0.3, 1.3) runs reach the "
              "unperturbed zeros within 1e-6 and |x~ - x| -> 0 on logs", t0)
