import numpy as np
import pytest

from warpsplit import (
    BackwardSolveError,
    BlockDiagonalOperator,
    BlockLayout,
    ConfigurationError,
    CoupledProblem,
    DimensionMismatchError,
    DualBlock,
    Kernel,
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
    constant_operator,
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
    saddle_skew_map,
    scaled_identity_operator,
    solve_strong,
    solve_weak,
    warped_resolvent,
    zero_operator,
)
from warpsplit import kernels
from warpsplit.cli import ProblemFile, generate_problem, parse_text
from warpsplit.kernels import fbf_step, solve_base_inclusion

from oracles import (
    blockwise_kt_forward,
    blockwise_kt_residuals,
    coupling_Lx,
    disk_warped_projection,
    literal_kt_skew,
    literal_primal_dual_matrix,
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


def test_kernel_of_another_dimension_is_refused_before_any_evaluation():
    # M lives in R^2 and the kernel in R^3: the pairing check raises before K runs.
    calls = []
    W = SingleValuedOperator(3, lambda x: calls.append(x) or x, lipschitz=1.0,
                             monotone=True, strong_monotonicity=1.0, name="counted_id")
    m, k = MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0])), map_kernel(W)
    message = r"^M has dim 2, kernel 'map\(counted_id\)' has dim 3$"
    with pytest.raises(DimensionMismatchError, match=message):
        solve_weak(m, k, None, SolverConfig(), np.zeros(2))
    with pytest.raises(DimensionMismatchError, match=message):
        graph_point(m, k, 1.0, np.zeros(3))
    assert calls == []


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
    """A's resolvent oracle without a declared Jacobian: the contraction loop runs.

    Built before ``recorded(A)``, so that its calls are not A's."""
    return SetValuedOperator(A.dim, A._resolve, name=A.name)


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
            ref = contraction_only(A)
            calls = recorded(A)
            p = solve_base_inclusion(W, gamma, A, v, start)
            assert_inner_tolerance(W, calls, v, p)
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
    ref = contraction_only(A)
    calls = recorded(A)
    p = solve_base_inclusion(W, 0.7, A, v, start)
    assert masks[0][0] == hi[0] and mask(0.7, masks[0])[0] == 0.0
    assert_inner_tolerance(W, calls, v, p)
    assert np.linalg.norm(p - p_star) <= 1e-10
    assert np.linalg.norm(p - solve_base_inclusion(W, 0.7, ref, v, start)) <= 1e-10


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
        ref = contraction_only(A)
        calls = recorded(A)
        p = solve_base_inclusion(W, 1.0, A, v)
        assert_inner_tolerance(W, calls, v, p)
        assert np.linalg.norm(p - solve_base_inclusion(W, 1.0, ref, v)) <= 1e-10
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


def linear_resolvent_cases(rng, d):
    """Operators declaring ``linear_resolvent``, one of each kind."""
    M = monotone_matrix(rng, d)
    return [affine_resolvent_operator(M, rng.normal(size=d)),
            affine_resolvent_operator(M).add_constant(rng.normal(size=d)),
            constant_operator(rng.normal(size=d)),
            zero_operator(d),
            scaled_identity_operator(d, 0.7),
            scaled_identity_operator(d, 1.3).add_constant(rng.normal(size=d))]


def test_linear_resolvent_hooks_are_the_resolvents():
    rng = np.random.default_rng(92)
    for d in (1, 3):
        for A in linear_resolvent_cases(rng, d):
            for g in (0.3, 1.7):
                R, s = A.linear_resolvent(g)
                x = rng.normal(size=d) * 2
                want = A.resolvent(g, x)
                assert np.linalg.norm(np.dot(R, x - s) - want) <= 1e-13 * np.linalg.norm(want)
    # Identity-like kinds hand back a scalar R, so their blocks cost O(d);
    # affine hands back its cached inverse, which a caller cannot overwrite.
    for A in (zero_operator(500), constant_operator(np.ones(500)),
              scaled_identity_operator(500, 2.0).add_constant(np.ones(500))):
        assert np.ndim(A.linear_resolvent(0.5)[0]) == 0
    R, _ = affine_resolvent_operator(np.eye(2)).linear_resolvent(0.5)
    with pytest.raises(ValueError):
        R *= 2.0
    # Derived and user operators declare none.
    for A in (zero_operator(2).inverse(), box_normal_cone(-np.ones(2), np.ones(2)),
              box_normal_cone(-np.ones(2), np.ones(2)).add_constant([1.0, 0.0]),
              SetValuedOperator(2, lambda g, x: x)):
        assert A.linear_resolvent is None


def counted_block_loop(monkeypatch):
    """Count the per-block loop's calls; the list grows by one per block solved."""
    calls, solve_block = [], kernels.solve_base_inclusion

    def loop(*args):
        calls.append(args)
        return solve_block(*args)
    monkeypatch.setattr(kernels, "solve_base_inclusion", loop)
    return calls


def counted_map_builds(monkeypatch):
    """Count ``Kernel._plan`` builds; the list grows by one per build."""
    builds, build = [], Kernel._plan
    monkeypatch.setattr(Kernel, "_plan", lambda *args: builds.append(args) or build(*args))
    return builds


def test_blockwise_affine_maps_match_the_blockwise_formula(monkeypatch):
    rng = np.random.default_rng(93)
    calls = counted_block_loop(monkeypatch)
    builds = counted_map_builds(monkeypatch)
    # Blocks as (d_b, matrix R or not), and the runs they make: equal matrix
    # blocks in a row, a run broken by a scalar block or by a size change,
    # then random layouts of up to 8 blocks of size up to 5.
    fixed = [[(2, True)] * 4, [(3, True)] * 3 + [(1, False), (3, True), (3, True)],
             [(5, True), (5, True), (2, True), (2, True), (2, True), (4, False), (1, False)],
             [(1, True), (1, False), (1, True), (1, True), (2, False)]]
    drawn = [[(int(d), bool(rng.uniform() < 0.6)) for d in rng.integers(1, 6, size=n)]
             for n in rng.integers(2, 9, size=20)]
    for trial, spec in enumerate(fixed + drawn):
        dims = tuple(d for d, _ in spec)
        blocks = [linear_resolvent_cases(rng, d)[rng.integers(2) if matrix else rng.integers(2, 6)]
                  for d, matrix in spec]
        # Bases: the identity, identity_map and a scaled identity_map, with c_b != 1.
        base = [(rng.choice([None, identity_map(d), identity_map(d, 2.5)]),
                 float(rng.uniform(0.3, 3.0))) for d in dims]
        layout = BlockLayout(dims)
        k = Kernel(layout.total, base, layout, None, 0.1, 10.0)
        set_part = BlockDiagonalOperator(blocks, layout)
        del builds[:]
        # Every public solve builds the maps of its gamma and takes them.
        for g in (0.6, 0.6, 1.9, 1.9, 1.9):
            v = rng.normal(size=layout.total) * 3
            ref, folded = [], []
            for (W, c), A, v_b in zip(base, blocks, layout.split(v)):
                cs = c * (1.0 if W is None else W.scale_of_identity)
                ref.append(A.resolvent(g / cs, v_b / cs))
                # Each block's map as the hooks give it, applied on its own.
                R, s = A.linear_resolvent(g if cs == 1.0 else g / cs)
                folded.append(np.dot(np.divide(R, cs), v_b) - np.dot(R, s))
            ref = np.concatenate(ref)
            p = k.backward_solve(g, set_part, v)
            assert np.linalg.norm(p - ref) <= 1e-13 * np.linalg.norm(ref), (trial, g)
            assert p.tobytes() == np.concatenate(folded).tobytes(), (trial, g)
        assert len(builds) == 5 and not calls
        # One run per change of R's shape along the blocks: () for a scalar R.
        shapes = [(d, d) if matrix else () for d, matrix in spec]
        runs, _, entries = k._plan(set_part, 1.9)
        assert len(runs) == 1 + sum(a != b for a, b in zip(shapes, shapes[1:])), trial
        assert entries == [], trial
    # A scalar block is solved elementwise: no d x d array for zero_operator(500).
    layout = BlockLayout((2, 500, 2))
    blocks = [affine_resolvent_operator(monotone_matrix(rng, 2)), zero_operator(500),
              affine_resolvent_operator(monotone_matrix(rng, 2))]
    k = Kernel(504, [(None, 1.5), (None, 2.0), (None, 0.5)], layout, None, 0.5, 2.0)
    set_part, v = BlockDiagonalOperator(blocks, layout), rng.normal(size=504)
    np.testing.assert_array_equal(k.backward_solve(1.0, set_part, v)[2:502], v[2:502] / 2.0)
    assert max(R.size for _, R, _ in k._plan(set_part, 1.0)[0]) == 500


def test_each_kernel_builds_its_own_maps(monkeypatch):
    # One kernel per stage, as a staged run builds them: the run builds each
    # stage's maps once, with its pair, and a public solve builds its own; no
    # solve runs the loop.
    calls = counted_block_loop(monkeypatch)
    builds = counted_map_builds(monkeypatch)
    layout = BlockLayout((2, 2))
    set_part = BlockDiagonalOperator([zero_operator(2), constant_operator([1.0, 2.0])], layout)
    stages = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0)
    ks = {c: Kernel(4, [(None, c), (None, 1.0)], layout, None, 1.0, 3.0) for c in stages}
    cfg = SolverConfig(max_iter=len(stages), tol_residual=1e-300, tol_step=1e-300)
    res = solve_weak(MDecomposition(set_part), lambda n: ks[stages[n]], None, cfg, np.ones(4))
    assert res.iterations == len(stages) and (len(calls), len(builds)) == (0, 3)
    for n, (c, k) in enumerate(ks.items(), 4):
        np.testing.assert_allclose(k.backward_solve(1.0, set_part, np.ones(4)),
                                   [1 / c, 1 / c, 0.0, -1.0])
        assert (len(calls), len(builds)) == (0, n), c


def test_a_blockwise_solve_does_not_depend_on_earlier_solves():
    # The same (gamma, set part, v) gives the same bytes whatever the kernel
    # solved before: on a fresh kernel, after another gamma, and repeated.
    rng = np.random.default_rng(95)
    layout = BlockLayout((3, 2))
    mats = [monotone_matrix(rng, d) for d in layout.dims]
    offsets = [rng.normal(size=d) for d in layout.dims]

    def solve(history, g, v):
        set_part = BlockDiagonalOperator(
            [affine_resolvent_operator(M, b) for M, b in zip(mats, offsets)], layout)
        k = Kernel(5, [(None, 1.7), (None, 0.6)], layout, None, 0.6, 1.7)
        for h in history:
            k.backward_solve(h, set_part, v)
        return k.backward_solve(g, set_part, v).tobytes()

    for _ in range(20):
        g, other = rng.uniform(0.2, 2.0, size=2)
        v = rng.normal(size=5) * 3
        fresh = solve([], g, v)
        assert solve([other], g, v) == solve([other, g], g, v) == fresh


def test_one_kernel_rebuilds_its_maps_for_another_set_part(monkeypatch):
    # Two set parts at the same gamma, in turn: each solve builds the maps of
    # the set part at hand, and no solve runs the loop.
    calls = counted_block_loop(monkeypatch)
    builds = counted_map_builds(monkeypatch)
    layout = BlockLayout((2, 2))
    k = Kernel(4, [(None, 2.0), (None, 1.0)], layout, None, 1.0, 3.0)
    parts = {a: BlockDiagonalOperator([zero_operator(2), constant_operator([a, 2.0])], layout)
             for a in (1.0, 5.0)}
    for a in (1.0, 5.0, 1.0, 5.0):
        np.testing.assert_allclose(k.backward_solve(1.0, parts[a], np.ones(4)),
                                   [0.5, 0.5, 1.0 - a, -1.0])
    assert len(calls) == 0 and len(builds) == 4


def test_a_box_block_is_one_entry_beside_the_affine_runs(monkeypatch):
    # A block with no linear_resolvent hook is one solve_base_inclusion entry
    # of the plan; the hook blocks around it keep their runs: one matmul run
    # for the affine block, one scalar run for the constant.
    rng = np.random.default_rng(94)
    dims = (2, 3, 2)
    layout = BlockLayout(dims)
    blocks = [affine_resolvent_operator(monotone_matrix(rng, 2)),
              box_normal_cone(-np.ones(3), np.ones(3)), constant_operator([1.0, -2.0])]
    base = [(identity_map(2), 1.5), (None, 0.5), (identity_map(2, 2.0), 1.0)]
    k = Kernel(layout.total, base, layout, None, 0.5, 4.0)
    set_part = BlockDiagonalOperator(blocks, layout)
    runs, _, entries = k._plan(set_part, 0.4)
    assert [(sl, shape) for sl, _, shape in runs] == [(slice(0, 2), (1, 2, 1)), (slice(5, 7), None)]
    assert [(sl, W, c, A) for sl, W, _, c, A in entries] == [(slice(2, 5), None, 0.5, blocks[1])]
    calls = counted_block_loop(monkeypatch)
    for g in (0.4, 0.4, 1.1):
        v = rng.normal(size=layout.total) * 3
        want = []
        for (W, c), A, v_b in zip(base, blocks, layout.split(v)):
            C = c * (1.0 if W is None else W.scale_of_identity)
            if A.linear_resolvent is None:
                want.append(solve_base_inclusion(W, g / c, A, v_b / c))
            else:
                R, s = A.linear_resolvent(g if C == 1.0 else g / C)
                want.append(np.dot(np.divide(R, C), v_b) - np.dot(R, s))
        assert k.backward_solve(g, set_part, v).tobytes() == np.concatenate(want).tobytes()
    assert len(calls) == 3  # one entry per solve


def test_a_wrong_linear_resolvent_shape_names_its_block():
    def solve(hook):
        user = SetValuedOperator(2, lambda g, x: x, name="user")
        user.linear_resolvent = hook
        layout = BlockLayout((1, 2))
        k = Kernel(3, [(None, 1.0), (None, 2.0)], layout, None, 1.0, 2.0)
        return k.backward_solve(1.0, BlockDiagonalOperator([zero_operator(1), user], layout),
                                np.ones(3))

    with pytest.raises(DimensionMismatchError, match=r"block 1 \(user\)"):
        solve(lambda g: (np.eye(3), np.zeros(2)))
    with pytest.raises(DimensionMismatchError, match=r"block 1 \(user\): R \(2, 3\)"):
        solve(lambda g: ([[1.0, 0.0, 0.0]] * 2, np.zeros(2)))
    # A 0-d R, a float, numpy scalar or array, stands for R * Id; a list R is
    # read by its shape, as an array is.
    for R in (0.5, np.float64(0.5), np.array(0.5), [[0.5, 0.0], [0.0, 0.5]]):
        np.testing.assert_array_equal(solve(lambda g: (R, np.array([0.0, 2.0]))),
                                      [1.0, 0.25, -0.75])


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

def saddle(L):
    """The saddle decomposition of L with zero operators A and B."""
    return saddle_decomposition(zero_operator(L.domain_dim), zero_operator(L.codomain_dim), L)


def test_primal_dual_kernel_trivial_coupling_is_identity():
    k = primal_dual_kernel(saddle(LinearMap(np.zeros((2, 2)))), 1.0, 1.0)
    rng = np.random.default_rng(31)
    u = rng.normal(size=4)
    np.testing.assert_allclose(k.eval(u), u)


def test_primal_dual_kernel_skew_cancellation():
    L = LinearMap(np.random.default_rng(32).normal(size=(2, 3)))
    gamma, mu = 0.7, 1.3
    k = primal_dual_kernel(saddle(L), gamma, mu)
    rng = np.random.default_rng(33)
    for _ in range(1000):
        u = rng.normal(size=5)
        x, v = u[:3], u[3:]
        diag = np.concatenate([x / gamma, mu * v])
        assert abs(np.dot(u, k.eval(u) - diag)) <= 1e-12 * (1 + np.dot(u, u))


def test_primal_dual_kernel_hand_evaluation():
    k = primal_dual_kernel(saddle(LinearMap([[2.0]])), 1.0, 1.0)
    np.testing.assert_allclose(k.eval(np.array([1.0, 1.0])), [-1.0, 3.0])


def test_primal_dual_resolvent_matches_componentwise_form():
    L = LinearMap([[1.5]])
    A = l1_operator(1)
    B = box_normal_cone([-1.0], [1.0])
    m = saddle_decomposition(A, B, L)
    k = primal_dual_kernel(m, 1.0, 1.0)
    rng = np.random.default_rng(34)
    for _ in range(200):
        u = rng.normal(size=2) * 2
        y = warped_resolvent(m, k, 1.0, u)
        manual = np.concatenate([
            A.resolvent(1.0, u[:1] - L.adjoint_apply(u[1:])),
            B.inverse().resolvent(1.0, L(u[:1]) + u[1:]),
        ])
        np.testing.assert_allclose(y, manual, atol=1e-14)


def test_primal_dual_fixed_point_at_saddle_zero():
    # A x = x - 1 (affine), B = Id, L = 2: zero at (x, v) = (0.2, 0.4).
    A = affine_resolvent_operator([[1.0]], [-1.0])
    B = scaled_identity_operator(1, 1.0)
    L = LinearMap([[2.0]])
    m = saddle_decomposition(A, B, L)
    k = primal_dual_kernel(m, 0.8, 1.2)
    z = np.array([0.2, 0.4])
    y = warped_resolvent(m, k, 1.0, z)
    assert np.linalg.norm(y - z) <= 1e-12


def test_primal_dual_kernel_declared_constants_hold():
    rng = np.random.default_rng(35)
    L = LinearMap(rng.normal(size=(2, 2)))
    k = primal_dual_kernel(saddle(L), 0.5, 2.0)
    for _ in range(2000):
        u, w = rng.normal(size=4), rng.normal(size=4)
        d = u - w
        dk = k.eval(u) - k.eval(w)
        assert np.dot(d, dk) >= k.alpha * np.dot(d, d) - 1e-10
        assert np.linalg.norm(dk) <= k.beta * np.linalg.norm(d) * (1 + 1e-12)


def test_primal_dual_kernel_folds_the_forward_object_of_its_decomposition():
    L = LinearMap([[1.0, -2.0]])
    m = saddle(L)
    k = primal_dual_kernel(m, 0.5, 2.0)
    assert k.fold[1] is m.forward_part and k.layout is m.set_part.layout
    # alpha = min(1/gamma, mu) holds for a skew fold only.  S + S^T == 0 is
    # exact: one ulp off in one entry is rejected.
    near = m.forward_part.matrix.copy()
    near[0, 2] = np.nextafter(near[0, 2], 0.0)
    blocks = [zero_operator(1)] * 3
    no_matrix = SingleValuedOperator(3, m.forward_part, lipschitz=m.forward_part.lipschitz)
    for bad in (MDecomposition(zero_operator(3), m.forward_part),  # one block
                MDecomposition(BlockDiagonalOperator(blocks), m.forward_part),  # three
                MDecomposition(m.set_part),  # no forward part
                MDecomposition(m.set_part, no_matrix),  # no linear part to check
                MDecomposition(m.set_part, affine_map(np.eye(3))),  # symmetric
                MDecomposition(m.set_part, affine_map(near))):
        with pytest.raises(ConfigurationError, match="needs a saddle decomposition"):
            primal_dual_kernel(bad, 0.5, 2.0)


def test_separately_built_skew_maps_do_not_pair():
    # The fold is paired with M by identity: a second saddle_skew_map of the
    # same L, equal to the last bit, is another object.
    L = LinearMap([[1.5]])
    m = saddle_decomposition(l1_operator(1), box_normal_cone([-1.0], [1.0]), L)
    k = primal_dual_kernel(m, 1.0, 1.0)
    twin = saddle_decomposition(l1_operator(1), box_normal_cone([-1.0], [1.0]), L)
    copy = MDecomposition(m.set_part, saddle_skew_map(L))
    assert copy.forward_part.matrix.tobytes() == m.forward_part.matrix.tobytes()
    x = np.array([0.3, -0.4])
    for other in (twin, copy):
        with pytest.raises(ConfigurationError, match="not the object M = A . B carries"):
            warped_resolvent(other, k, 1.0, x)
    assert warped_resolvent(m, k, 1.0, x).shape == (2,)


def test_block_diagonal_resolvent_is_its_blockwise_resolvents():
    # The saddle set part A x B^{-1}, through its own resolvent and through a
    # one-block identity kernel's graph point, to the last bit.
    A, B = l1_operator(2, 0.3), box_normal_cone([-1.0], [1.0])
    set_part = saddle_decomposition(A, B, LinearMap([[1.0, 2.0]])).set_part
    m, k = MDecomposition(set_part), identity_kernel(3)
    rng = np.random.default_rng(38)
    for _ in range(50):
        u, g = rng.normal(size=3) * 2, float(rng.uniform(0.2, 3.0))
        want = np.concatenate([A.resolvent(g, u[:2]), B.inverse().resolvent(g, u[2:])])
        assert set_part.resolvent(g, u).tobytes() == want.tobytes()
        gp = graph_point(m, k, g, u)
        assert gp.y.tobytes() == want.tobytes()
        assert gp.y_star.tobytes() == ((u - want) / g).tobytes()


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


@pytest.mark.parametrize("c, alpha, beta", [
    # Stage vartheta = 1/(3 - 1) = 0.5 and eta = 1/1 + 1 = 2; |S| = 1 (only
    # the +-Id blocks linking y and v*).  c binds eta above 2, vartheta below 0.5.
    (2.5, 0.5, 2.5 + 1.0),
    (0.25, 0.25, 2.0 + 1.0),
])
def test_coupled_kernel_hand_evaluation_with_v_star_coefficient(c, alpha, beta):
    prob = scalar_uncoupled_problem()
    k = coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [1.0], [1.0], c)
    u = np.array([2.0, 3.0, 5.0])  # (x, y, v*)
    np.testing.assert_allclose(k.eval(u), [2.0, 3.0 + 5.0, -3.0 + c * 5.0])
    assert (k.alpha, k.beta) == (alpha, beta)
    with pytest.raises(ConfigurationError, match="v\\* coefficient"):
        coupled_kernel(prob, [identity_map(1)], [identity_map(1)], [1.0], [1.0], 0.0)


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


def test_cubic_kernel_overflow_warns_nothing():
    # Warnings are errors in this suite: the overflow must reach the scan
    # as NonFiniteEntryError, not as a numpy RuntimeWarning.
    with pytest.raises(NonFiniteEntryError, match="kernel nongradient_cubic output"):
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


def test_generated_coupled_kernel_is_its_literal_formula():
    # The fold's gamma is 1.0, so K u is the base's coefficients times u,
    # minus the Kuhn-Tucker forward map, to the last bit.
    for seed in (1, 2):
        prob = ProblemFile(parse_text(generate_problem("coupled", 2, seed))).problem
        steps = [b.default_step for b in prob.primal + prob.dual]
        c = prob.skew_norm()
        k = coupled_kernel(prob, [identity_map(b.dim) for b in prob.primal],
                           [identity_map(b.dim) for b in prob.dual], steps[:len(prob.primal)],
                           steps[len(prob.primal):], c)
        coef = np.repeat([1.0 / s for s in steps] + [c] * len(prob.dual), prob.layout.dims)
        fwd = prob.kt_forward()
        rng = np.random.default_rng(seed)
        for _ in range(20):
            u = rng.normal(size=prob.layout.total) * 3
            assert k.eval(u).tobytes() == (coef * u - fwd(u)).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 20])
def test_generated_coupled_skew_is_its_literal_layout(dim):
    # The Kuhn-Tucker skew is saddle_skew_map of [L, -Id]: to the last bit
    # its matrix is the literal layout, skew_norm is sqrt of the top
    # eigenvalue of S^T S, and kt_forward (C = D = 0 here) is S @ u.  The
    # primal-dual kernel of the saddle of L declares the norm of its literal
    # matrix.
    for seed in range(4):
        prob = ProblemFile(parse_text(generate_problem("coupled", dim, seed))).problem
        S = literal_kt_skew(prob.coupling)
        assert prob.skew().matrix.tobytes() == S.tobytes()
        assert not prob.skew().matrix.flags.writeable
        assert prob.skew_norm() == float(np.sqrt(np.linalg.eigvalsh(S.T @ S)[-1]))
        u = np.random.default_rng(seed).normal(size=prob.layout.total) * 3
        assert prob.kt_forward()(u).tobytes() == (S @ u).tobytes()
        L = LinearMap(prob.coupling)
        for gamma, mu in ((0.5, 1.0), (1.3, 0.2), (1.0, prob.skew_norm())):
            ref = float(np.linalg.norm(literal_primal_dual_matrix(L.matrix, gamma, mu), 2))
            assert primal_dual_kernel(saddle(L), gamma, mu).beta == ref


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
        point = KuhnTuckerPoint(rng.normal(size=prob.layout.total) * 3, prob)
        xs, _, vs = point.blocks()
        ref = blockwise_kt_residuals(prob, xs, vs)
        got = np.array(kt_residuals(prob, point))
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        # The dual block given no D skips the zero term, to the same bits.
        blk = prob.dual[1]
        u = prob.dual_layout.split(prob.coupling @ point.x)[1] - blk.r
        full = np.linalg.norm(u - blk.B.resolvent(1.0, u + vs[1] - blk.D(u)))
        assert not blk._D_given and got[-1] == full


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


@pytest.mark.parametrize("d", [2, 9, 200])
def test_unit_fbf_kernel_is_x_minus_gamma_b_x(d):
    # Identity blocks at coefficient exactly 1.0 with a fold: K x is
    # x - gamma (M x + b) in one subtraction, the bits of the formula, and at
    # gamma = 1.0 without the multiply.  A block whose c * s is 1.0 is one too.
    rng = np.random.default_rng(d)
    M, b = monotone_matrix(rng, d, shift=0.1), rng.normal(size=d)
    B = affine_map(M, b)
    eps = 0.5 / (B.lipschitz + 1.0)
    gamma = fbf_step(1.0, B.lipschitz, eps)
    cases = [(fbf_kernel(identity_map(d), B, gamma, eps), gamma),
             (Kernel(d, [(None, 1.0)], None, (1.0, B), 0.1, 1.0 + B.lipschitz), 1.0),
             (Kernel(d, [(identity_map(d, 0.5), 2.0)], None, (gamma, B), 0.1, 2.0), gamma)]
    for k, g in cases:
        for _ in range(5):
            x = rng.normal(size=d) * 3
            want = x - (M @ x + b) if g == 1.0 else x - g * (M @ x + b)
            assert k.eval(x).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 200])
def test_scaled_identity_base_is_two_x_minus_gamma_b_x(d):
    # A uniform coefficient other than 1.0 is applied: 2x - gamma B x, bit for bit,
    # whether it is c, the map's scale, or their product.
    rng = np.random.default_rng(d + 1)
    M, b = monotone_matrix(rng, d, shift=0.1), rng.normal(size=d)
    B = affine_map(M, b)
    gamma = 0.3
    for base in ([(None, 2.0)], [(identity_map(d, 2.0), 1.0)], [(identity_map(d, 4.0), 0.5)]):
        k = Kernel(d, base, None, (gamma, B), 1.0, 2.0 + gamma * B.lipschitz)
        for _ in range(5):
            x = rng.normal(size=d) * 3
            assert k.eval(x).tobytes() == (2.0 * x - gamma * (M @ x + b)).tobytes()


def test_eval_never_returns_the_callers_array():
    rng = np.random.default_rng(94)
    d = 4
    B = affine_map(monotone_matrix(rng, d, shift=0.1))
    g = fbf_step(1.0, B.lipschitz, 0.1)
    prob = random_coupled_problem(rng)
    F = [identity_map(blk.dim) for blk in prob.primal]
    W = [identity_map(blk.dim) for blk in prob.dual]
    for k in (identity_kernel(d), identity_kernel(0), map_kernel(identity_map(d, 2.0)),
              fbf_kernel(identity_map(d), None, g, 0.1), fbf_kernel(identity_map(d), B, g, 0.1),
              fbf_kernel(affine_base(rng, d), B, g, 0.1),
              Kernel(d, [(None, 1.0)], None, (1.0, identity_map(d)), 0.5, 2.0),
              primal_dual_kernel(saddle(LinearMap(np.ones((2, 2)))), 1.0, 1.0),
              coupled_kernel(prob, F, W, [blk.default_step for blk in prob.primal],
                             [blk.default_step for blk in prob.dual])):
        x = rng.normal(size=k.dim)
        kept = x.copy()
        y = k.eval(x)
        assert y is not x and not np.shares_memory(y, x) and y.flags.writeable
        assert x.tobytes() == kept.tobytes()


def test_several_blocks_need_a_matching_block_diagonal_set_part(monkeypatch):
    k = primal_dual_kernel(saddle(LinearMap(np.ones((2, 3)))), 1.0, 1.0)  # blocks (3, 2)
    swapped = BlockDiagonalOperator([zero_operator(2), zero_operator(3)], BlockLayout((2, 3)))
    for set_part in (ball_normal_cone(np.zeros(5), 1.0), swapped):
        with pytest.raises(ConfigurationError, match="block-diagonal set part"):
            k.backward_solve(1.0, set_part, np.ones(5))
    # A run checks the set part's layout with the rest of the pairing, once
    # per stage, so a coupled run raises before it evaluates the kernel.
    prob = random_coupled_problem(np.random.default_rng(37))
    F = [identity_map(b.dim) for b in prob.primal]
    W = [identity_map(b.dim) for b in prob.dual]
    k = coupled_kernel(prob, F, W, [b.default_step for b in prob.primal],
                       [b.default_step for b in prob.dual])
    evals = []
    monkeypatch.setattr(Kernel, "_eval", lambda self, x: evals.append(x))
    d = prob.layout.total
    for set_part in (ball_normal_cone(np.zeros(d), 1.0),
                     BlockDiagonalOperator([zero_operator(d - 2), zero_operator(2)])):
        m = MDecomposition(set_part, prob.kt_forward())
        with pytest.raises(ConfigurationError, match="needs a block-diagonal set part matching "
                                                     r"its layout \(2, 2, 2, 2\)"):
            solve_weak(m, k, None, SolverConfig(), np.zeros(d))
    assert not evals


def test_graph_point_checks_the_point_it_is_given():
    m = MDecomposition(zero_operator(2))
    with pytest.raises(DimensionMismatchError,
                       match=r"^kernel identity argument: expected dimension 2, got shape \(3,\)$"):
        graph_point(m, identity_kernel(2), 1.0, np.zeros(3))


def test_zero_dimensional_kernel_and_solve():
    k = identity_kernel(0)
    assert k.eval(np.zeros(0)).shape == (0,)
    for solve in (solve_weak, solve_strong):
        res = solve(MDecomposition(zero_operator(0)), k, None, SolverConfig(), np.zeros(0))
        assert res.converged and res.iterations == 1 and res.x.shape == (0,)


def _fn(x):
    return x


def _stage_call(F=None, W=None, gammas=None, taus=None, c=1.0):
    """coupled_kernel on a one-block problem; identity stage operators and default steps by default."""
    prob = one_block_problem(1.0, 1.0, 0.05)
    F = [identity_map(1)] if F is None else F
    W = [identity_map(1)] if W is None else W
    gammas = [prob.primal[0].default_step] if gammas is None else gammas
    taus = [prob.dual[0].default_step] if taus is None else taus
    return coupled_kernel(prob, F, W, gammas, taus, c=c)


NOT_MONOTONE = SingleValuedOperator(2, _fn, 1.0, monotone=False, name="user")


@pytest.mark.parametrize("call, error, message", [
    (lambda: MDecomposition(zero_operator(2), identity_map(3)), DimensionMismatchError,
     "forward part dim 3 != set part dim 2"),
    (lambda: MDecomposition(zero_operator(2), NOT_MONOTONE), ConfigurationError,
     "forward part of an M-decomposition must be monotone"),
    (lambda: Kernel(2, [(None, 1.0)], None, None, 0.0, 1.0), ConfigurationError,
     "kernel strong monotonicity must be > 0, got 0.0"),
    (lambda: Kernel(2, [(None, 1.0)], None, None, 1.0, 0.0), ConfigurationError,
     "kernel Lipschitz constant must be > 0, got 0.0"),
    (lambda: Kernel(3, [(None, 1.0)] * 2, BlockLayout((1, 1)), None, 1.0, 1.0),
     DimensionMismatchError, "kernel layout does not cover the space"),
    (lambda: Kernel(2, [(None, 1.0)] * 2, None, None, 1.0, 1.0), DimensionMismatchError,
     "kernel base must have one (W, c) pair per block"),
    (lambda: Kernel(2, [(None, 0.0)], None, None, 1.0, 1.0), ConfigurationError,
     "kernel base coefficient must be > 0, got 0.0"),
    (lambda: identity_kernel(2).backward_solve(0.0, zero_operator(2), np.zeros(2)),
     ConfigurationError, "backward solve needs gamma > 0, got 0.0"),
    (lambda: identity_kernel(2).backward_solve(1.0, zero_operator(3), np.zeros(2)),
     DimensionMismatchError, "set part dim 3 != kernel dim 2"),
    (lambda: map_kernel(affine_map(2.0 * np.eye(2))).backward_solve(
        1.0, zero_operator(2), np.array([np.inf, 0.0])), NonFiniteEntryError,
     "backward solve right-hand side has norm inf"),
    (lambda: nongradient_cubic_kernel().backward_solve(1.0, zero_operator(2), np.zeros(2)),
     ConfigurationError,
     "backward solve with base 'nongradient_cubic' needs a declared strong-monotonicity constant"),
    (lambda: warped_resolvent(MDecomposition(zero_operator(2)), identity_kernel(2), 0.0,
                              np.zeros(2)), ConfigurationError,
     "graph_point needs gamma > 0, got 0.0"),  # warped_resolvent is graph_point's y
    (lambda: graph_point(MDecomposition(zero_operator(2)), identity_kernel(2), 0.0, np.zeros(2)),
     ConfigurationError, "graph_point needs gamma > 0, got 0.0"),
    (lambda: map_kernel(affine_map(ROT)), ConfigurationError,
     "map_kernel needs a declared strong-monotonicity constant on 'affine_map'"),
    (lambda: fbf_kernel(affine_map(ROT), None, 0.5, 0.1), ConfigurationError,
     "fbf_kernel needs a declared strong-monotonicity constant on W = 'affine_map'"),
    (lambda: fbf_kernel(identity_map(2), None, 0.0, 0.1), ConfigurationError,
     "fbf_kernel needs gamma > 0, got 0.0"),
    (lambda: fbf_kernel(identity_map(2), identity_map(3), 0.5, 0.1), DimensionMismatchError,
     "W dim 2 != B dim 3"),
    (lambda: fbf_kernel(identity_map(2), NOT_MONOTONE, 0.5, 0.1), ConfigurationError,
     "fbf_kernel needs a monotone forward operator B"),
    (lambda: primal_dual_kernel(saddle(LinearMap(np.ones((1, 1)))), 0.0, 1.0),
     ConfigurationError, "primal_dual_kernel needs gamma, mu > 0, got 0.0, 1.0"),
    (lambda: primal_dual_kernel(saddle(LinearMap(np.ones((1, 1)))), 1.0, 0.0),
     ConfigurationError, "primal_dual_kernel needs gamma, mu > 0, got 1.0, 0.0"),
    (lambda: saddle_decomposition(zero_operator(2), zero_operator(2), LinearMap(np.ones((2, 3)))),
     DimensionMismatchError, "saddle operator dims: A is 2 (need 3), B is 2 (need 2)"),
    (lambda: _stage_call(c=0.0), ConfigurationError,
     "coupled kernel v* coefficient c must be > 0 and finite, got 0.0"),
    (lambda: _stage_call(F=[]), DimensionMismatchError, "one stage operator per block is required"),
    (lambda: _stage_call(gammas=[]), DimensionMismatchError,
     "one stage constant per block is required"),
    (lambda: _stage_call(F=[identity_map(2)]), DimensionMismatchError, "stage operator F_0 has wrong dimension"),
    (lambda: _stage_call(W=[affine_map([[0.0]])]), ConfigurationError,
     "stage operator W_0 needs a declared strong monotonicity"),
], ids=["m-forward-dim", "m-forward-monotone", "kernel-alpha", "kernel-beta", "kernel-layout",
        "kernel-base-length", "kernel-coefficient", "backward-gamma", "backward-set-part-dim",
        "inner-loop-rhs", "inner-loop-modulus", "warped-resolvent-gamma", "graph-point-gamma",
        "map-kernel-modulus", "fbf-modulus", "fbf-gamma", "fbf-dims", "fbf-monotone-b",
        "primal-dual-gamma", "primal-dual-mu", "saddle-dims", "coupled-c", "coupled-operators",
        "coupled-constants", "coupled-stage-dim", "coupled-stage-modulus"])
def test_guard_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
