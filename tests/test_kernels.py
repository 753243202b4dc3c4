import numpy as np
import pytest

from warpsplit import (
    BackwardSolveError,
    BlockDiagonalOperator,
    BlockLayout,
    ConfigurationError,
    CoupledProblem,
    DualBlock,
    KuhnTuckerPoint,
    LinearMap,
    MDecomposition,
    NonFiniteEntryError,
    PrimalBlock,
    SetValuedOperator,
    SingleValuedOperator,
    SolverConfig,
    affine_map,
    affine_resolvent_operator,
    ball_normal_cone,
    box_normal_cone,
    coupled_kernel,
    fbf_kernel,
    graph_point,
    identity_kernel,
    identity_map,
    kt_residuals,
    l1_operator,
    map_kernel,
    nongradient_cubic_kernel,
    primal_dual_kernel,
    saddle_decomposition,
    scaled_identity_operator,
    solve_strong,
    solve_weak,
    warped_resolvent,
    zero_operator,
)
from warpsplit import kernels
from warpsplit.kernels import fbf_step, solve_base_inclusion

from oracles import (
    blockwise_kt_forward,
    blockwise_kt_residuals,
    coupling_Lx,
    disk_warped_projection,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation_map(scale=1.0):
    return affine_map(scale * ROT)


# ---------------------------------------------------------------------------
# Warped resolvent basics
# ---------------------------------------------------------------------------

def test_identity_kernel_gives_classical_resolvent():
    m = MDecomposition(ball_normal_cone(np.zeros(2), 1.0))
    y = warped_resolvent(m, identity_kernel(2), 1.0, np.array([2.0, 0.0]))
    np.testing.assert_allclose(y, [1.0, 0.0])


def test_fixed_points_are_zeros():
    # Proposition-style invariant: J z = z exactly at zeros of M, and the
    # graph certificate vanishes there.
    cases = []
    m1 = MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0]))
    cases.append((m1, identity_kernel(2), 0.7, np.array([0.3, -0.8])))
    B = rotation_map()
    shifted = affine_map(ROT, np.array([-0.5, 0.5]))
    m2 = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), shifted)
    k2 = fbf_kernel(identity_map(2), shifted, 0.5, 0.3)
    cases.append((m2, k2, 0.5, np.array([0.5, 0.5])))
    for m, k, gamma, z in cases:
        y = warped_resolvent(m, k, gamma, z)
        assert np.linalg.norm(y - z) <= 1e-10
        gp = graph_point(m, k, gamma, z)
        assert np.linalg.norm(gp.y_star) <= 1e-10


def test_fixed_point_converse_small_displacement_small_certificate():
    m = MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0]))
    k = identity_kernel(2)
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        y = warped_resolvent(m, k, 1.0, x)
        gp = graph_point(m, k, 1.0, x)
        if np.linalg.norm(y - x) <= 1e-12:
            assert np.linalg.norm(gp.y_star) <= 1e-10


def test_graph_point_halving_example():
    m = MDecomposition(scaled_identity_operator(2, 1.0))
    gp = graph_point(m, identity_kernel(2), 1.0, np.array([2.0, 0.0]))
    np.testing.assert_allclose(gp.y, [1.0, 0.0])
    np.testing.assert_allclose(gp.y_star, [1.0, 0.0])


def test_graph_point_zero_of_m_gives_zero_certificate():
    m = MDecomposition(box_normal_cone([0.0, 0.0], [2.0, 2.0]))
    gp = graph_point(m, identity_kernel(2), 1.3, np.array([1.0, 1.5]))
    np.testing.assert_allclose(gp.y, [1.0, 1.5])
    np.testing.assert_allclose(gp.y_star, [0.0, 0.0], atol=1e-14)


def test_graph_point_skew_fold_certificate():
    # A = {0} on R^2 (zero operator), B = skew rotation, K = Id - 0.4 B:
    # the certificate y* must equal B y, the only element of M y.
    B = rotation_map()
    m = MDecomposition(zero_operator(2), B)
    k = fbf_kernel(identity_map(2), B, 0.4, 0.5)
    rng = np.random.default_rng(22)
    for _ in range(100):
        x = rng.normal(size=2)
        gp = graph_point(m, k, 0.4, x)
        assert np.linalg.norm(gp.y_star - B(gp.y)) <= 1e-12


def test_graph_point_certified_by_pure_set_part_resolvent():
    # With M = A, emitted pairs must satisfy J_A(y + y*) = y.
    A = l1_operator(3, 0.8)
    m = MDecomposition(A)
    k = identity_kernel(3)
    rng = np.random.default_rng(20)
    for _ in range(200):
        gamma = float(rng.uniform(0.2, 2.0))
        gp = graph_point(m, k, gamma, rng.normal(size=3) * 2)
        assert np.linalg.norm(A.resolvent(1.0, gp.y + gp.y_star) - gp.y) <= 1e-10


def test_standard_library_catalog_names():
    from warpsplit import standard_library
    lib = standard_library()
    assert {"box", "ball", "halfspace", "affine_set", "l1", "zero",
            "scaled_identity", "affine", "constant"} <= set(lib["set_valued"])
    assert {"affine_map", "zero_map", "identity_map"} <= set(lib["single_valued"])


def test_graph_consistency_against_set_part_resolvent():
    # Kx - Ky in gamma * M y, checked through the resolvent certificate of A.
    A = box_normal_cone([0.0, 0.0], [1.0, 1.0])
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(A, B)
    gamma, eps = 0.45, 0.3
    k = fbf_kernel(identity_map(2), B, gamma, eps)
    rng = np.random.default_rng(23)
    for _ in range(200):
        x = rng.normal(size=2) * 2
        gp = graph_point(m, k, gamma, x)
        a_star = gp.y_star - B(gp.y)  # must lie in A(y)
        assert np.linalg.norm(A.resolvent(1.0, gp.y + a_star) - gp.y) <= 1e-10


# ---------------------------------------------------------------------------
# Forward-backward-forward kernels
# ---------------------------------------------------------------------------

def test_fbf_kernel_without_forward_part_is_w():
    W = identity_map(3, 2.0)
    k = fbf_kernel(W, None, 0.5, 1.0)
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(k.eval(x), W(x))


def test_fbf_kernel_strong_monotonicity_sampled():
    B = rotation_map()
    k = fbf_kernel(identity_map(2), B, 0.5, 0.5)
    rng = np.random.default_rng(24)
    for _ in range(10_000):
        x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        d = x - y
        assert np.dot(d, k.eval(x) - k.eval(y)) >= 0.5 * np.dot(d, d) - 1e-10


def test_fbf_kernel_cocoercivity_when_w_is_identity():
    eps = 0.2
    B = rotation_map()  # beta = 1, gamma*beta = 0.8 = 1 - eps
    k = fbf_kernel(identity_map(2), B, 0.8, eps)
    rng = np.random.default_rng(25)
    const = 1.0 / (2.0 - eps)
    for _ in range(10_000):
        x, y = rng.normal(size=2) * 3, rng.normal(size=2) * 3
        dk = k.eval(x) - k.eval(y)
        assert np.dot(x - y, dk) >= const * np.dot(dk, dk) - 1e-10


def test_fbf_kernel_regime_validation():
    B = rotation_map()
    with pytest.raises(ConfigurationError):
        fbf_kernel(identity_map(2), B, 10.0, 0.9)  # gamma*beta > alpha - eps
    with pytest.raises(ConfigurationError):
        fbf_kernel(identity_map(2), B, 0.1, 1.5)  # eps >= alpha
    with pytest.raises(ConfigurationError):
        fbf_kernel(rotation_map(), B, 0.1, 0.5)  # W lacks strong monotonicity


def test_kernel_pairing_mismatches_are_typed_errors():
    B = rotation_map()
    other = rotation_map()
    m = MDecomposition(zero_operator(2), B)
    k = fbf_kernel(identity_map(2), B, 0.4, 0.5)
    with pytest.raises(ConfigurationError):
        warped_resolvent(m, identity_kernel(2), 0.4, np.zeros(2))  # kernel folds nothing
    with pytest.raises(ConfigurationError):
        warped_resolvent(m, k, 0.7, np.zeros(2))  # gamma mismatch
    m_other = MDecomposition(zero_operator(2), other)
    with pytest.raises(ConfigurationError):
        warped_resolvent(m_other, k, 0.4, np.zeros(2))  # different forward object


# ---------------------------------------------------------------------------
# General strongly monotone bases (inner contraction loop)
# ---------------------------------------------------------------------------

def nonsymmetric_base():
    # W = Id + 0.5 R: 1-strongly monotone, Lipschitz sqrt(1.25).
    M = np.eye(2) + 0.5 * ROT
    return SingleValuedOperator(
        2, lambda x: M @ x, lipschitz=float(np.linalg.norm(M, 2)),
        monotone=True, strong_monotonicity=1.0, name="id_plus_halfrot")


def test_map_kernel_backward_solve_certificate():
    W = nonsymmetric_base()
    A = box_normal_cone([-1.0, -1.0], [1.0, 1.0])
    m = MDecomposition(A)
    k = map_kernel(W)
    rng = np.random.default_rng(26)
    for _ in range(100):
        x = rng.normal(size=2) * 2
        gamma = float(rng.uniform(0.3, 2.0))
        y = warped_resolvent(m, k, gamma, x)
        a_star = (k.eval(x) - W(y)) / gamma  # must lie in A(y)
        assert np.linalg.norm(A.resolvent(1.0, y + a_star) - y) <= 1e-9


def test_backward_solve_residual_meets_tolerance():
    from warpsplit.kernels import solve_base_inclusion
    W = nonsymmetric_base()
    A = l1_operator(2, 0.7)
    rng = np.random.default_rng(27)
    for _ in range(50):
        v = rng.normal(size=2) * 3
        gamma = float(rng.uniform(0.2, 2.0))
        p = solve_base_inclusion(W, gamma, A, v)
        # certificate: (v - W p)/gamma in A p
        a_star = (v - W(p)) / gamma
        assert np.linalg.norm(A.resolvent(1.0, p + a_star) - p) <= 1e-10


def test_backward_solve_divergence_is_typed_error():
    # Declared constants lie about this rotation-dominated map, so the
    # contraction loop cannot converge and must fail loudly.
    M = 0.05 * np.eye(2) + ROT
    W = SingleValuedOperator(2, lambda x: M @ x, lipschitz=1.1,
                             monotone=True, strong_monotonicity=1.0, name="liar")
    from warpsplit.kernels import solve_base_inclusion
    with pytest.raises(BackwardSolveError) as err:
        solve_base_inclusion(W, 1.0, zero_operator(2), np.array([1.0, 1.0]))
    assert err.value.residual is not None and err.value.residual > 0


# ---------------------------------------------------------------------------
# Newton path of the backward solve: affine base, set part with a Jacobian
# ---------------------------------------------------------------------------

def affine_base(rng, d):
    """W = I + 0.5 R with R skew of unit norm: 1-strongly monotone, not c * Id."""
    R = rng.normal(size=(d, d))
    R = R - R.T
    return affine_map(np.eye(d) + 0.5 * R / np.linalg.norm(R, 2), rng.normal(size=d))


def contraction_only(A):
    """A's resolvent oracle without a declared Jacobian: the contraction loop runs."""
    return SetValuedOperator(A.dim, A._resolvent, name=A.name)


def recorded(A):
    """Record (input, output) of every ``A._resolve`` call, in order."""
    calls = []
    real = A._resolve

    def spy(g, x):
        calls.append((x, real(g, x)))
        return calls[-1][1]

    A._resolve = spy
    return calls


def assert_inner_tolerance(W, A_calls, v, p):
    # p is the last resolvent output q at input u, and meets the loop's own
    # residual test |W q + c (u - q) - v| <= 1e-12 (1 + |v|).
    u, q = A_calls[-1]
    assert p is q
    c = W.lipschitz ** 2 / W.strong_monotonicity
    assert np.linalg.norm(W(q) + c * (u - q) - v) <= 1e-12 * (1.0 + np.linalg.norm(v))


def seeded_set_parts(rng, d):
    lo, hi = -rng.uniform(0.2, 1.5, d), rng.uniform(0.2, 1.5, d)
    return box_normal_cone(lo, hi), l1_operator(d, float(rng.uniform(0.1, 1.0)))


def test_newton_path_agrees_with_the_contraction_loop():
    rng = np.random.default_rng(81)
    newton_calls = contraction_calls = 0
    for _ in range(60):
        d = int(rng.integers(2, 7))
        W = affine_base(rng, d)
        for A in seeded_set_parts(rng, d):
            v = rng.normal(size=d) * 3.0
            gamma = float(rng.uniform(0.2, 2.0))
            start = rng.normal(size=d) if rng.uniform() < 0.5 else None
            calls = recorded(A)
            p = solve_base_inclusion(W, gamma, A, v, start)
            assert_inner_tolerance(W, calls, v, p)
            ref = contraction_only(A)
            ref_calls = recorded(ref)
            q = solve_base_inclusion(W, gamma, ref, v, start)
            assert np.linalg.norm(p - q) <= 1e-10
            newton_calls += len(calls)
            contraction_calls += len(ref_calls)
    assert newton_calls * 4 < contraction_calls


def test_newton_path_on_a_degenerate_active_set():
    # Coordinate 0 is decoupled from the rest and the solution p* sits on
    # the face p_0 = hi_0 with a zero normal-cone part, so from a start on
    # that face the first mask is taken at u exactly on the face.
    rng = np.random.default_rng(82)
    d = 4
    R = np.zeros((d, d))
    R[1:, 1:] = rng.normal(size=(d - 1, d - 1))
    R = R - R.T
    W = affine_map(np.eye(d) + 0.5 * R / np.linalg.norm(R, 2))
    lo, hi = -np.ones(d), np.ones(d)
    A = box_normal_cone(lo, hi)
    masks = []
    mask = A.resolvent_jacobian
    A.resolvent_jacobian = lambda g, u: masks.append(u.copy()) or mask(g, u)
    p_star = np.array([1.0, 0.2, -0.3, 0.4])
    v = W(p_star)
    start = p_star + np.array([0.0, 0.5, 0.5, -0.5])
    calls = recorded(A)
    p = solve_base_inclusion(W, 0.7, A, v, start)
    assert masks[0][0] == hi[0] and mask(0.7, masks[0])[0] == 0.0
    assert_inner_tolerance(W, calls, v, p)
    assert np.linalg.norm(p - p_star) <= 1e-10
    assert np.linalg.norm(p - solve_base_inclusion(W, 0.7, contraction_only(A), v, start)) <= 1e-10


def test_wrong_jacobian_falls_back_to_the_contraction_loop():
    rng = np.random.default_rng(83)
    fallbacks = 0
    for _ in range(30):
        d = int(rng.integers(2, 7))
        W = affine_base(rng, d)
        A, _ = seeded_set_parts(rng, d)
        mask = A.resolvent_jacobian
        steps = []
        A.resolvent_jacobian = lambda g, u: steps.append(1) or 1.0 - mask(g, u)
        v = rng.normal(size=d) * 3.0
        calls = recorded(A)
        p = solve_base_inclusion(W, 1.0, A, v)
        assert_inner_tolerance(W, calls, v, p)
        assert np.linalg.norm(p - solve_base_inclusion(W, 1.0, contraction_only(A), v)) <= 1e-10
        # the cold start, one step per Newton step, and at least one more
        fallbacks += len(calls) > len(steps) + 2
    assert fallbacks >= 20
    # A Newton point whose residual is not finite falls back too, and raises nothing.
    W = affine_base(rng, 2)
    A = box_normal_cone([-1.0, -1.0], [1.0, 1.0])
    A.resolvent_jacobian = lambda g, u: np.full(2, np.nan)
    v = np.array([3.0, 0.2])
    calls = recorded(A)
    p = solve_base_inclusion(W, 1.0, A, v)
    assert_inner_tolerance(W, calls, v, p)


def test_newton_path_is_taken_on_the_general_base_problem(monkeypatch):
    from test_engine_contract import general_base_problem
    A, B, W, gamma, eps, cfg, x0, z = general_base_problem()
    resolves = []
    real = A._resolve
    monkeypatch.setattr(A, "_resolve", lambda g, x: resolves.append(1) or real(g, x))
    solves = []
    base_solve = kernels.solve_base_inclusion
    monkeypatch.setattr(kernels, "solve_base_inclusion",
                        lambda *args: solves.append(1) or base_solve(*args))
    res = solve_weak(MDecomposition(A, B), fbf_kernel(W, B, gamma, eps), None, cfg, x0)
    assert res.converged and np.linalg.norm(res.x - z) <= 1e-6
    assert len(solves) == res.iterations and len(resolves) <= 3 * len(solves)


def test_affine_map_keeps_a_read_only_copy_of_its_matrix():
    M = np.array([[2.0, 1.0], [-1.0, 3.0]])
    W = affine_map(M)
    M[0, 0] = -5.0
    np.testing.assert_array_equal(W.matrix, [[2.0, 1.0], [-1.0, 3.0]])
    np.testing.assert_array_equal(W(np.array([1.0, 0.0])), [2.0, -1.0])
    with pytest.raises(ValueError):
        W.matrix[0, 0] = 0.0
    assert identity_map(2).matrix is None


def test_catalog_resolvent_jacobians():
    u = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    box = box_normal_cone(-np.ones(6), np.ones(6))
    np.testing.assert_array_equal(box.resolvent_jacobian(0.5, u), [0, 0, 1, 1, 0, 0])
    np.testing.assert_array_equal(l1_operator(6, 2.0).resolvent_jacobian(0.5, u),
                                  [1, 0, 0, 0, 0, 1])
    np.testing.assert_array_equal(zero_operator(6).resolvent_jacobian(0.5, u), np.ones(6))
    assert ball_normal_cone(np.zeros(6), 1.0).resolvent_jacobian is None


def test_averagedness_of_warped_resolvent():
    # K = 0.5 Id + 0.5 Rot is averaged with constant 0.5; M = 0.5 Id makes
    # K + M 1-strongly monotone, so J is averaged with constant 2/3.
    Kmat = 0.5 * np.eye(2) + 0.5 * ROT
    W = SingleValuedOperator(
        2, lambda x: Kmat @ x, lipschitz=float(np.linalg.norm(Kmat, 2)),
        monotone=True, strong_monotonicity=0.5, name="averaged_rot")
    k = map_kernel(W)
    m = MDecomposition(scaled_identity_operator(2, 0.5))
    c = 1.0 / (2.0 - 0.5)

    def T(x):
        return warped_resolvent(m, k, 1.0, x)

    # This instance is linear, so sample the inequality through the matrix
    # of T, extracted from the library and spot-checked against it.
    Tmat = np.stack([T(np.array([1.0, 0.0])), T(np.array([0.0, 1.0]))], axis=1)
    rng = np.random.default_rng(28)
    for _ in range(20):
        x = rng.normal(size=2) * 3
        assert np.linalg.norm(T(x) - Tmat @ x) <= 1e-9 * (1 + np.linalg.norm(x))
    for _ in range(10_000):
        x, y = rng.normal(size=2) * 2, rng.normal(size=2) * 2
        tx, ty = Tmat @ x, Tmat @ y
        rx, ry = x - tx, y - ty
        lhs = np.dot(tx - ty, tx - ty) + (1 - c) / c * np.dot(rx - ry, rx - ry)
        assert lhs <= np.dot(x - y, x - y) + 1e-8


def test_warped_proximity_variational_inequality():
    # phi = indicator of a box: for every y in the box, <y - p, Kx - Kp> <= 0.
    W = nonsymmetric_base()
    k = map_kernel(W)
    lo, hi = np.array([-1.0, 0.0]), np.array([1.0, 2.0])
    m = MDecomposition(box_normal_cone(lo, hi))
    rng = np.random.default_rng(29)
    for _ in range(300):
        x = rng.normal(size=2) * 2
        p = warped_resolvent(m, k, 1.0, x)
        dk = k.eval(x) - k.eval(p)
        for _ in range(10):
            y = rng.uniform(lo, hi)
            assert np.dot(y - p, dk) <= 1e-10


def test_monotone_transport_and_lipschitz_bound():
    B = rotation_map()
    gamma, eps = 0.5, 0.5
    k = fbf_kernel(identity_map(2), B, gamma, eps)
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    rng = np.random.default_rng(30)
    ratio = k.beta / k.alpha
    for _ in range(2000):
        x, y = rng.normal(size=2) * 2, rng.normal(size=2) * 2
        p = warped_resolvent(m, k, gamma, x)
        q = warped_resolvent(m, k, gamma, y)
        lhs = np.dot(p - q, k.eval(x) - k.eval(y))
        rhs = np.dot(p - q, k.eval(p) - k.eval(q))
        assert lhs >= rhs - 1e-10
        assert np.linalg.norm(p - q) <= ratio * np.linalg.norm(x - y) * (1 + 1e-8)
        assert p.shape == (2,) and np.all(np.isfinite(p))


# ---------------------------------------------------------------------------
# Primal-dual kernels
# ---------------------------------------------------------------------------

def test_primal_dual_kernel_trivial_coupling_is_identity():
    k = primal_dual_kernel(LinearMap(np.zeros((2, 2))), 1.0, 1.0)
    rng = np.random.default_rng(31)
    u = rng.normal(size=4)
    np.testing.assert_allclose(k.eval(u), u)


def test_primal_dual_kernel_skew_cancellation():
    L = LinearMap(np.random.default_rng(32).normal(size=(2, 3)))
    gamma, mu = 0.7, 1.3
    k = primal_dual_kernel(L, gamma, mu)
    rng = np.random.default_rng(33)
    for _ in range(1000):
        u = rng.normal(size=5)
        x, v = u[:3], u[3:]
        diag = np.concatenate([x / gamma, mu * v])
        assert abs(np.dot(u, k.eval(u) - diag)) <= 1e-12 * (1 + np.dot(u, u))


def test_primal_dual_kernel_hand_evaluation():
    k = primal_dual_kernel(LinearMap([[2.0]]), 1.0, 1.0)
    np.testing.assert_allclose(k.eval(np.array([1.0, 1.0])), [-1.0, 3.0])


def test_primal_dual_resolvent_matches_componentwise_form():
    L = LinearMap([[1.5]])
    A = l1_operator(1)
    B = box_normal_cone([-1.0], [1.0])
    m = saddle_decomposition(A, B, L)
    k = primal_dual_kernel(L, 1.0, 1.0)
    rng = np.random.default_rng(34)
    for _ in range(200):
        u = rng.normal(size=2) * 2
        y = warped_resolvent(m, k, 1.0, u)
        manual = np.concatenate([
            A.resolvent(1.0, u[:1] - L.adjoint_apply(u[1:])),
            B.inverse_resolvent(1.0, L(u[:1]) + u[1:]),
        ])
        np.testing.assert_allclose(y, manual, atol=1e-14)


def test_primal_dual_fixed_point_at_saddle_zero():
    # A x = x - 1 (affine), B = Id, L = 2: zero at (x, v) = (0.2, 0.4).
    A = affine_resolvent_operator([[1.0]], [-1.0])
    B = scaled_identity_operator(1, 1.0)
    L = LinearMap([[2.0]])
    m = saddle_decomposition(A, B, L)
    k = primal_dual_kernel(L, 0.8, 1.2)
    z = np.array([0.2, 0.4])
    y = warped_resolvent(m, k, 1.0, z)
    assert np.linalg.norm(y - z) <= 1e-12


def test_primal_dual_kernel_declared_constants_hold():
    rng = np.random.default_rng(35)
    L = LinearMap(rng.normal(size=(2, 2)))
    k = primal_dual_kernel(L, 0.5, 2.0)
    for _ in range(2000):
        u, w = rng.normal(size=4), rng.normal(size=4)
        d = u - w
        dk = k.eval(u) - k.eval(w)
        assert np.dot(d, dk) >= k.alpha * np.dot(d, d) - 1e-10
        assert np.linalg.norm(dk) <= k.beta * np.linalg.norm(d) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Coupled kernels
# ---------------------------------------------------------------------------

def scalar_uncoupled_problem():
    # Declared alpha = 3, mu = 1, epsilon = 1 admits gamma = tau = 1 for the
    # hand evaluation of the kernel formula.
    return CoupledProblem(
        [PrimalBlock(A=scaled_identity_operator(1, 1.0), alpha=3.0, chi=1.0,
                     epsilon=1.0, mu=1.0)],
        [DualBlock(B=scaled_identity_operator(1, 1.0), beta=3.0, kappa=1.0,
                   delta=1.0, nu=1.0)],
        {})


def test_coupled_kernel_hand_evaluation():
    prob = scalar_uncoupled_problem()
    k = coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [1.0], [1.0])
    u = np.array([2.0, 3.0, 5.0])  # (x, y, v*)
    np.testing.assert_allclose(k.eval(u), [2.0, 3.0 + 5.0, -3.0 + 5.0])


def test_coupled_kernel_stage_regime_validation():
    prob = scalar_uncoupled_problem()
    with pytest.raises(ConfigurationError):
        coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [5.0], [1.0])
    with pytest.raises(ConfigurationError):
        coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [1.0], [0.1])


def random_coupled_problem(rng):
    d1, d2, dz = 2, 2, 2
    mats = []
    for d in (d1, d2, dz):
        g = rng.normal(size=(d, d))
        mats.append(g @ g.T / d + 0.4 * np.eye(d))
    return CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator(mats[0]), s_star=rng.normal(size=d1)),
         PrimalBlock(A=affine_resolvent_operator(mats[1]))],
        [DualBlock(B=affine_resolvent_operator(mats[2]), r=rng.normal(size=dz))],
        {(0, 0): rng.normal(size=(dz, d1)), (0, 1): rng.normal(size=(dz, d2))})


def test_coupled_kernel_strong_monotonicity_sampled():
    rng = np.random.default_rng(36)
    prob = random_coupled_problem(rng)
    F = [identity_map(b.dim) for b in prob.primal]
    W = [identity_map(b.dim) for b in prob.dual]
    gammas = [max(b.epsilon, 0.9 * (b.alpha - b.epsilon) / b.mu) for b in prob.primal]
    taus = [max(b.delta, 0.9 * (b.beta - b.delta) / b.nu) for b in prob.dual]
    k = coupled_kernel(prob, F, W, gammas, taus)
    n = prob.layout.total
    for _ in range(10_000):
        u, w = rng.normal(size=n) * 2, rng.normal(size=n) * 2
        d = u - w
        assert np.dot(d, k.eval(u) - k.eval(w)) >= k.alpha * np.dot(d, d) - 1e-10


def test_kt_forward_skew_part_annihilates():
    rng = np.random.default_rng(37)
    prob = random_coupled_problem(rng)  # C = D = 0, so the forward part is pure skew
    fwd = prob.kt_forward()
    for _ in range(1000):
        u = rng.normal(size=prob.layout.total) * 2
        assert abs(np.dot(u, fwd(u))) <= 1e-12 * (1 + np.dot(u, u))


# ---------------------------------------------------------------------------
# The planar non-gradient test kernel
# ---------------------------------------------------------------------------

def test_cubic_kernel_evaluation_and_monotonicity():
    k = nongradient_cubic_kernel()
    np.testing.assert_allclose(k.eval(np.array([1.0, 2.0])),
                               [0.5 + 0.2 - 2.0, 3.0])
    rng = np.random.default_rng(38)
    for _ in range(2000):
        x, y = rng.normal(size=2) * 2, rng.normal(size=2) * 2
        d = x - y
        assert np.dot(d, k.eval(x) - k.eval(y)) >= 0.2 * np.dot(d, d) - 1e-10


def test_cubic_kernel_has_no_backward_solve():
    k = nongradient_cubic_kernel()
    with pytest.raises(ConfigurationError):
        k.backward_solve(1.0, ball_normal_cone(np.zeros(2), 1.0), np.zeros(2))


def test_cubic_kernel_overflow_is_a_non_finite_entry():
    # The cubic map scans its own output: x1^3 overflows at x1 = 1e120.
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteEntryError, match="kernel nongradient_cubic output"):
        nongradient_cubic_kernel().eval([1e120, 0.0])


def test_cubic_kernel_warped_disk_projection_oracle():
    k = nongradient_cubic_kernel()
    x = np.array([np.sqrt(2) / 2, -2.0])
    p = disk_warped_projection(k.eval, x)
    expected = np.array([np.sqrt(2) / 2, -np.sqrt(2) / 2])
    assert np.linalg.norm(p - expected) <= 1e-8
    # Normal-cone condition K x - K p = t p with t >= 0.
    d = k.eval(x) - k.eval(p)
    t = float(np.dot(d, p))
    assert t >= 0
    assert np.linalg.norm(d - t * p) <= 1e-8


# ---------------------------------------------------------------------------
# The compiled coupled space: stacked skew matrix and layout kernels
# ---------------------------------------------------------------------------

def monotone_matrix(rng, d, shift=0.3):
    g, s = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    return g @ g.T / d + shift * np.eye(d) + 0.5 * (s - s.T)


def two_by_two_coupled_problem(rng, alpha0=1.0, chi0=1.0):
    """2 primal (dims 2, 3) and 2 dual (dims 1, 2) blocks, non-zero C/D on all but one.

    (alpha0, chi0) are the declared constants of the first primal stage
    operator.  Returns the problem and the matrices of the primal set parts.
    """
    pd, dd = (2, 3), (1, 2)
    mats = [monotone_matrix(rng, d) for d in pd]
    primal = [PrimalBlock(A=affine_resolvent_operator(m),
                          C=affine_map(monotone_matrix(rng, d), rng.normal(size=d)),
                          s_star=rng.normal(size=d), alpha=al, chi=ch)
              for m, d, al, ch in zip(mats, pd, (alpha0, 1.0), (chi0, 1.0))]
    dual = [DualBlock(B=affine_resolvent_operator(monotone_matrix(rng, dd[0])),
                      D=affine_map(monotone_matrix(rng, dd[0]))),
            DualBlock(B=affine_resolvent_operator(monotone_matrix(rng, dd[1])),
                      r=rng.normal(size=dd[1]))]  # D defaults to the zero map
    couplings = {(j, i): rng.normal(size=(dd[j], pd[i])) for j in range(2) for i in range(2)
                 if (j, i) != (1, 0)}
    return CoupledProblem(primal, dual, couplings), mats


def test_kt_forward_matches_blockwise_formula():
    rng = np.random.default_rng(60)
    prob, _ = two_by_two_coupled_problem(rng)
    fwd = prob.kt_forward()
    for _ in range(200):
        u = rng.normal(size=prob.layout.total) * 3
        ref = blockwise_kt_forward(prob, u)
        assert np.linalg.norm(fwd(u) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_lift_matches_blockwise_couplings():
    rng = np.random.default_rng(62)
    prob, _ = two_by_two_coupled_problem(rng)
    for _ in range(50):
        xs = [rng.normal(size=b.dim) * 3 for b in prob.primal]
        vs = [rng.normal(size=b.dim) for b in prob.dual]
        point = KuhnTuckerPoint.lift(prob, xs, vs)
        ref = np.concatenate(xs + [lx - blk.r for lx, blk in zip(coupling_Lx(prob, xs), prob.dual)]
                             + vs)
        assert np.linalg.norm(point.flatten() - ref) <= 1e-13 * np.linalg.norm(ref)
        got_x, got_y, got_v = point.blocks()
        for got, want in zip(got_x + got_v, xs + vs):
            np.testing.assert_array_equal(got, want)


def test_kt_residuals_match_blockwise_formula():
    rng = np.random.default_rng(63)
    prob, _ = two_by_two_coupled_problem(rng)
    for _ in range(50):
        point = KuhnTuckerPoint.from_flat(rng.normal(size=prob.layout.total) * 3, prob)
        xs, _, vs = point.blocks()
        ref = blockwise_kt_residuals(prob, xs, vs)
        got = np.array(kt_residuals(prob, point))
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_coupled_kernel_general_block_matches_blockwise_formula():
    rng = np.random.default_rng(61)
    F0 = affine_map(monotone_matrix(rng, 2, shift=1.0))  # a general (non-identity) block
    assert F0.scale_of_identity is None
    prob, mats = two_by_two_coupled_problem(rng, F0.strong_monotonicity, F0.lipschitz)
    F = [F0, identity_map(3)]
    W = [identity_map(1), identity_map(2)]
    gammas = [b.default_step for b in prob.primal]
    taus = [b.default_step for b in prob.dual]
    k = coupled_kernel(prob, F, W, gammas, taus)
    set_part = prob.kt_set_part()
    ops_ = F + W + [None, None]
    coefs = [1.0 / g for g in gammas] + [1.0 / t for t in taus] + [1.0, 1.0]
    offs = prob.layout.offsets
    slices = [slice(a, b) for a, b in zip(offs, offs[1:])]
    for _ in range(20):
        u = rng.normal(size=prob.layout.total)
        base = np.concatenate([c * (u[sl] if op is None else op(u[sl]))
                               for op, c, sl in zip(ops_, coefs, slices)])
        ref = base - blockwise_kt_forward(prob, u)
        np.testing.assert_allclose(k.eval(u), ref, rtol=1e-13, atol=1e-13)
        v = rng.normal(size=prob.layout.total) * 2
        ref = np.concatenate([
            solve_base_inclusion(op, 1.0 / c, A_b, v[sl] / c)
            for op, c, A_b, sl in zip(ops_, coefs, set_part.blocks, slices)])
        p = k.backward_solve(1.0, set_part, v)
        np.testing.assert_allclose(p, ref, rtol=1e-14, atol=1e-14)
        # The general block solves c F0(p) + (P p - s*) = v to the inner tolerance.
        p0, v0 = p[slices[0]], v[slices[0]]
        lhs = coefs[0] * F0(p0) + mats[0] @ p0 - prob.primal[0].s_star
        assert np.linalg.norm(lhs - v0) <= 1e-10 * (1 + np.linalg.norm(v0))


# One FBF stage regime: the default step and both ends of the step range are
# the same at every call site.  (alpha, beta, epsilon) with epsilon < alpha/(beta + 1);
# the last triple has (alpha - epsilon)/beta > 1, where the slack is relative.
REGIMES = [(1.0, 1.0, 0.05), (3.0, 0.5, 0.4), (0.2, 4.0, 0.01), (50.0, 2.0, 0.9)]
OUTSIDE = r"outside \[epsilon, \(alpha - epsilon\)/beta\]"


def one_block_problem(alpha, beta, eps):
    return CoupledProblem(
        [PrimalBlock(A=zero_operator(1), alpha=alpha, chi=1.0, epsilon=eps, mu=beta)],
        [DualBlock(B=zero_operator(1))],
        {(0, 0): [[1.0]]})


def stage_kernel(prob, gamma):
    return coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [gamma],
                          [prob.dual[0].default_step])


@pytest.mark.parametrize("alpha, beta, eps", REGIMES)
def test_one_default_step_rule(alpha, beta, eps):
    step = fbf_step(alpha, beta, eps)
    primal = PrimalBlock(A=zero_operator(1), alpha=alpha, epsilon=eps, mu=beta)
    dual = DualBlock(B=zero_operator(1), beta=alpha, delta=eps, nu=beta)
    assert primal.default_step == step == dual.default_step


@pytest.mark.parametrize("alpha, beta, eps", REGIMES)
def test_one_step_range_at_the_upper_bound(alpha, beta, eps):
    W = identity_map(1, alpha)
    B = SingleValuedOperator(1, lambda x: beta * x, lipschitz=beta, monotone=True)
    prob = one_block_problem(alpha, beta, eps)
    hi = (alpha - eps) / beta
    for gamma in (hi * (1 - 1e-13), hi * (1 + 1e-13)):
        fbf_kernel(W, B, gamma, eps)
        stage_kernel(prob, gamma)
    with pytest.raises(ConfigurationError, match=OUTSIDE):
        fbf_kernel(W, B, hi * (1 + 1e-9), eps)
    with pytest.raises(ConfigurationError, match=OUTSIDE):
        stage_kernel(prob, hi * (1 + 1e-9))


@pytest.mark.parametrize("alpha, beta, eps", REGIMES)
def test_one_step_range_at_the_floor(alpha, beta, eps):
    prob = one_block_problem(alpha, beta, eps)
    m = MDecomposition(zero_operator(1))

    def engine(gamma):
        cfg = SolverConfig(epsilon=eps, step_size=gamma, max_iter=1)
        return solve_weak(m, identity_kernel(1), None, cfg, [1.0])

    for gamma in (eps * (1 - 1e-13), eps):
        engine(gamma)
        stage_kernel(prob, gamma)
    with pytest.raises(ConfigurationError, match=OUTSIDE):
        engine(eps * (1 - 1e-9))
    with pytest.raises(ConfigurationError, match=OUTSIDE):
        stage_kernel(prob, eps * (1 - 1e-9))


# ---------------------------------------------------------------------------
# One kernel form: each one-block kernel is its literal formula, bit for bit
# ---------------------------------------------------------------------------

def one_block_cases(rng, d):
    """(kernel, base W or None, base as a formula, folded (gamma, B) or None)."""
    B = affine_map(monotone_matrix(rng, d, shift=0.1), rng.normal(size=d))
    Wa = affine_base(rng, d)
    gamma = fbf_step(1.0, B.lipschitz, 0.1)
    Id, s03 = identity_map(d), identity_map(d, 0.3)
    return [
        (identity_kernel(d), None, lambda x: 1.0 * (1.0 * x), None),
        (map_kernel(s03), s03, lambda x: 1.0 * (0.3 * x), None),
        (fbf_kernel(Id, B, gamma, 0.1), Id, lambda x: 1.0 * (1.0 * x), (gamma, B)),
        (fbf_kernel(Wa, B, gamma, 0.1), Wa, Wa, (gamma, B)),
    ]


def test_one_block_kernels_are_their_literal_formulas():
    rng = np.random.default_rng(91)
    for d in (2, 3, 6):
        lo, hi = -rng.uniform(0.2, 1.5, d), rng.uniform(0.2, 1.5, d)
        A = box_normal_cone(lo, hi)  # declares a Jacobian: the affine base takes Newton steps
        for k, W, base, fold in one_block_cases(rng, d):
            for _ in range(20):
                x, v = rng.normal(size=d) * 2, rng.normal(size=d) * 3
                want = base(x) if fold is None else base(x) - fold[0] * fold[1](x)
                assert k.eval(x).tobytes() == want.tobytes()
                g = float(rng.uniform(0.2, 2.0))
                start = rng.normal(size=d) if rng.uniform() < 0.5 else None
                got = k.backward_solve(g, A, v, start)
                assert got.tobytes() == solve_base_inclusion(W, g, A, v, start).tobytes()


def test_several_blocks_need_a_matching_block_diagonal_set_part():
    k = primal_dual_kernel(LinearMap(np.ones((2, 3))), 1.0, 1.0)  # blocks (3, 2)
    swapped = BlockDiagonalOperator([zero_operator(2), zero_operator(3)], BlockLayout((2, 3)))
    for set_part in (ball_normal_cone(np.zeros(5), 1.0), swapped):
        with pytest.raises(ConfigurationError, match="block-diagonal set part"):
            k.backward_solve(1.0, set_part, np.ones(5))


def test_zero_dimensional_kernel_and_solve():
    k = identity_kernel(0)
    assert k.eval(np.zeros(0)).shape == (0,)
    for solve in (solve_weak, solve_strong):
        res = solve(MDecomposition(zero_operator(0)), k, None, SolverConfig(), np.zeros(0))
        assert res.converged and res.iterations == 1 and res.x.shape == (0,)
