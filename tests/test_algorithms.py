import dataclasses

import numpy as np
import pytest

from warpsplit import (
    ConfigurationError,
    CoupledProblem,
    DimensionMismatchError,
    DualBlock,
    KuhnTuckerPoint,
    MDecomposition,
    PerturbationPolicy,
    PrimalBlock,
    SingleValuedOperator,
    SolverConfig,
    StallError,
    affine_map,
    affine_resolvent_operator,
    affine_set_normal_cone,
    apply_policy,
    box_normal_cone,
    fbf_kernel,
    identity_kernel,
    identity_map,
    kt_residuals,
    scaled_identity_operator,
    solve_coupled,
    solve_fbf_memory,
    solve_strong,
    solve_tseng,
    solve_weak,
    tseng_relaxation,
    zero_map,
)
from warpsplit import algorithms, kernels
from warpsplit.operators import GraphPoint

from oracles import (
    LiteralPolicy,
    box_vi_solution,
    coupled_iterates,
    dense_kt_solution,
    literal_apply_policy,
    relaxed_projection_step,
    tseng_iterates,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def tight(max_iter, tol=1e-300):
    return SolverConfig(max_iter=max_iter, tol_residual=tol, tol_step=tol)


# ---------------------------------------------------------------------------
# Policies and configuration
# ---------------------------------------------------------------------------

def test_policy_none_returns_current():
    hist = [np.array([1.0, 2.0])]
    np.testing.assert_array_equal(apply_policy(PerturbationPolicy(), hist, 0), [1.0, 2.0])


def test_policy_inertial_hand_formula():
    hist = [np.array([0.0, 0.0]), np.array([2.0, 0.0])]
    out = apply_policy(PerturbationPolicy.inertial(0.5), hist, 3)
    np.testing.assert_array_equal(out, [3.0, 0.0])


def test_policy_inertial_first_step_uses_x0():
    hist = [np.array([2.0, 0.0])]
    out = apply_policy(PerturbationPolicy.inertial(0.5), hist, 0)
    np.testing.assert_array_equal(out, [2.0, 0.0])


def test_policy_memory_hand_formula():
    hist = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    out = apply_policy(PerturbationPolicy.memory([-0.3, 1.3]), hist, 5)
    np.testing.assert_allclose(out, [2.3, 0.0])


def test_policy_memory_weight_sum_validated():
    # A constant row is checked once, when the policy is built; the message
    # prints the sum as a plain float.
    for bad, match in (([0.5, 0.4], r"row sums to 0.9, must be 1 within 1e-12"),
                       ([], "nonempty vector"), ([[0.5, 0.5]], "nonempty vector")):
        with pytest.raises(ConfigurationError, match=match):
            PerturbationPolicy.memory(bad)


def test_policy_constant_pull_needs_room_in_depth():
    # A pull reaching x_{n-2} with only two iterates kept would read x_{n-1}.
    for pull, depth in (((0.3, 0.2), 2), ((), 0)):
        with pytest.raises(ConfigurationError, match=f"needs depth > {len(pull)}, got {depth}"):
            PerturbationPolicy(pull, depth=depth)
    assert PerturbationPolicy((0.3, 0.2), depth=3).depth == 3


def test_policy_scheduled_pull_needs_room_in_depth():
    # Two iterates kept, a lag-2 pull: x_{n-1} would stand in for x_{n-2}
    # and give 3 + 0.3 * 2 + 0.2 * 2 = 4.0.
    pol = PerturbationPolicy(lambda n: (0.3, 0.2), depth=2)
    hist = [np.array([1.0]), np.array([3.0])]
    with pytest.raises(ConfigurationError,
                       match=r"pull at n = 5 has length 2; it needs depth > 2, got 2"):
        apply_policy(pol, hist, 5)
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    with pytest.raises(ConfigurationError, match=r"pull at n = 0 has length 2"):
        solve_weak(m, identity_kernel(1), pol, SolverConfig(step_size=1.0, max_iter=5), [1.0])
    ok = PerturbationPolicy(lambda n: (0.3, 0.2), depth=3)
    np.testing.assert_allclose(apply_policy(ok, [np.array([0.0])] + hist, 5), [4.2], rtol=1e-15)


def test_policy_memory_scheduled_row_checked_at_its_n():
    rows = {0: [-0.3, 1.3], 1: [0.0, 1.0], 2: [0.5, 0.4]}
    pol = PerturbationPolicy.memory(lambda n: rows[min(n, 2)])
    hist = [np.array([1.0]), np.array([2.0])]
    for n in (0, 1):
        apply_policy(pol, hist, n)
    with pytest.raises(ConfigurationError, match=r"row at n = 2 sums to 0.9, must be 1"):
        apply_policy(pol, hist, 2)
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    with pytest.raises(ConfigurationError, match=r"row at n = 2 sums to 0.9"):
        solve_weak(m, identity_kernel(1), pol, SolverConfig(step_size=1.0, max_iter=5), [1.0])


def _histories(rng, d=4, longest=5):
    # Histories of 1..longest iterates, so rows deeper than the history
    # read x_0 for the missing iterates.
    xs = [rng.normal(size=d) * 10.0 ** rng.integers(-3, 4) for _ in range(longest)]
    return [xs[:k] for k in range(1, longest + 1)]


def test_policy_one_form_is_bit_identical_to_literal_kinds():
    rng = np.random.default_rng(11)
    alpha = lambda n: 0.1 + 0.7 * 0.9 ** n  # noqa: E731
    errors = lambda n: 0.5 ** n * np.arange(1.0, 5.0)  # noqa: E731
    cases = [
        (PerturbationPolicy(), LiteralPolicy("none")),
        (None, None),
        (PerturbationPolicy.additive(errors), LiteralPolicy("additive", errors=errors)),
        (PerturbationPolicy.inertial(0.3), LiteralPolicy("inertial", alpha=0.3, depth=2)),
        (PerturbationPolicy.inertial(alpha), LiteralPolicy("inertial", alpha=alpha, depth=2)),
    ]
    for _ in range(20):
        for history in _histories(rng):
            for n in (0, 1, 7):
                for pol, lit in cases:
                    out = apply_policy(pol, history, n)
                    assert out.tobytes() == literal_apply_policy(lit, history, n).tobytes()


def test_policy_memory_rows_match_literal_weighted_sum():
    rng = np.random.default_rng(12)
    for depth in (1, 2, 3, 4):
        for _ in range(25):
            row = rng.uniform(-1.0, 1.0, depth)
            row[-1] = 1.0 - row[:-1].sum()
            errors = (lambda n: 1e-3 * 0.5 ** n * np.ones(4)) if depth % 2 else None
            pol = PerturbationPolicy.memory(row, errors)
            lit = LiteralPolicy("memory", weights=row, errors=errors, depth=depth)
            assert pol.depth == depth
            for history in _histories(rng):
                for n in (0, 3):
                    out = apply_policy(pol, history, n)
                    ref = literal_apply_policy(lit, history, n)
                    scale = max(np.abs(h).max() for h in history)
                    assert np.abs(out - ref).max() <= 1e-12 * scale


def test_policy_memory_two_row_is_inertial_bit_for_bit():
    rng = np.random.default_rng(13)
    for a in (0.3, -0.25, 0.0, 0.9):
        mem, inert = PerturbationPolicy.memory((-a, 1 + a)), PerturbationPolicy.inertial(a)
        assert mem == inert
        for history in _histories(rng):
            assert apply_policy(mem, history, 4).tobytes() == apply_policy(inert, history, 4).tobytes()
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    k = fbf_kernel(identity_map(2), B, 0.7, 0.2)
    cfg = SolverConfig(epsilon=0.2, step_size=0.7, max_iter=3000, tol_residual=1e-10, tol_step=1e-10)
    runs = [solve_weak(m, k, pol, cfg, [0.9, 0.1]) for pol in
            (PerturbationPolicy.memory([-0.3, 1.3]), PerturbationPolicy.inertial(0.3))]
    assert runs[0].converged and runs[0].iterations == runs[1].iterations
    assert runs[0].x.tobytes() == runs[1].x.tobytes()
    assert all(r0.x_tilde.tobytes() == r1.x_tilde.tobytes()
               for r0, r1 in zip(runs[0].trace, runs[1].trace))


def test_policy_memory_row_longer_than_depth_rejected():
    # The row at n = 0 sets the history depth (1); the longer row at n = 1
    # would otherwise read x_1 for x_0 and return x~_1 = x_1.
    pol = PerturbationPolicy.memory(lambda n: [1.0] if n == 0 else [0.5, 0.5])
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(step_size=1.0, max_iter=5)
    with pytest.raises(ConfigurationError, match=r"n = 1 has length 2.*depth 1"):
        solve_weak(m, identity_kernel(1), pol, cfg, [1.0])


def test_policy_and_kernel_schedule_type_errors():
    with pytest.raises(ConfigurationError, match="inertial alpha"):
        PerturbationPolicy.inertial(None)
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    for bad in (3.0, identity_map(1)):
        with pytest.raises(ConfigurationError, match="kernel schedule"):
            solve_weak(m, bad, None, SolverConfig(max_iter=5), [1.0])


def test_policy_additive():
    hist = [np.array([1.0, 1.0])]
    pol = PerturbationPolicy.additive(lambda n: 0.5 ** n * np.array([1.0, 0.0]))
    np.testing.assert_array_equal(apply_policy(pol, hist, 2), [1.25, 1.0])


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(max_iter=0)
    with pytest.raises(ConfigurationError):
        SolverConfig(tol_residual=0.0)


def test_relaxation_schedule_type_error_surfaces():
    # A two-argument schedule is called as (n, ctx) only; a TypeError from
    # its body is not retried with one argument.
    def schedule(n, ctx):
        return 1.0 + None

    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(relaxation=schedule, step_size=1.0, max_iter=5)
    with pytest.raises(TypeError, match="unsupported operand"):
        solve_weak(m, identity_kernel(1), None, cfg, [1.0])


def test_one_argument_relaxation_schedule():
    # A schedule of n alone gives lambda_n, range-checked at each n.
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(relaxation=lambda n: 1.0 + 0.5 ** (n + 1), step_size=1.0, max_iter=5,
                       tol_residual=1e-300, tol_step=1e-300)
    res = solve_weak(m, identity_kernel(1), None, cfg, [1.0])
    assert [r.lam for r in res.trace] == [1.0 + 0.5 ** (n + 1) for n in range(5)]
    cfg = SolverConfig(relaxation=lambda n: 2.5, step_size=1.0, max_iter=5)
    with pytest.raises(ConfigurationError, match="relaxation lambda_0"):
        solve_weak(m, identity_kernel(1), None, cfg, [1.0])


# ---------------------------------------------------------------------------
# Weak solver
# ---------------------------------------------------------------------------

def test_weak_proximal_halving_closed_form():
    m = MDecomposition(scaled_identity_operator(2, 1.0))
    cfg = SolverConfig(step_size=1.0, relaxation=1.0, max_iter=20,
                       tol_residual=1e-300, tol_step=1e-300)
    res = solve_weak(m, identity_kernel(2), None, cfg, [1.0, 1.0])
    assert res.status == "max_iter"
    assert len(res.trace) == 20
    for rec in res.trace:
        expected = np.array([1.0, 1.0]) / 2 ** rec.n
        assert np.linalg.norm(rec.x - expected) <= 1e-12
        assert abs(rec.residual - np.linalg.norm(expected) / 2) <= 1e-12


def test_weak_starts_at_zero_certificate():
    m = MDecomposition(box_normal_cone([0.0, 0.0], [2.0, 2.0]))
    cfg = SolverConfig(max_iter=100, tol_residual=1e-10, tol_step=1e-10)
    res = solve_weak(m, identity_kernel(2), None, cfg, [1.0, 1.0])
    assert res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.x, [1.0, 1.0])


def test_weak_fbf_kernel_converges_to_grid_oracle_zero():
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    A = box_normal_cone([0.0, 0.0], [1.0, 1.0])
    m = MDecomposition(A, B)
    eps, gamma = 0.2, 0.7
    k = fbf_kernel(identity_map(2), B, gamma, eps)
    cfg = SolverConfig(epsilon=eps, step_size=gamma, max_iter=5000,
                       tol_residual=1e-10, tol_step=1e-10)
    res = solve_weak(m, k, None, cfg, [0.9, 0.1])
    assert res.converged
    oracle = box_vi_solution(B, np.zeros(2), np.ones(2), resolution=1e-4)
    assert np.linalg.norm(res.x - oracle) <= 2e-4
    assert np.linalg.norm(res.x - np.array([0.5, 0.5])) <= 1e-8


def test_weak_max_iter_is_warning_not_success():
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(step_size=1.0, max_iter=5, tol_residual=1e-300, tol_step=1e-300)
    res = solve_weak(m, identity_kernel(1), None, cfg, [1.0])
    assert res.status == "max_iter" and not res.converged
    assert "max_iter" in res.stop_reason


def test_weak_fejer_gaps_nonincreasing():
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    A = box_normal_cone([0.0, 0.0], [1.0, 1.0])
    m = MDecomposition(A, B)
    k = fbf_kernel(identity_map(2), B, 0.7, 0.2)
    cfg = SolverConfig(epsilon=0.2, step_size=0.7, max_iter=3000,
                       tol_residual=1e-10, tol_step=1e-10)
    res = solve_weak(m, k, None, cfg, [0.9, 0.1])
    gaps = [float(np.linalg.norm(rec.x - np.array([0.5, 0.5]))) for rec in res.trace]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10


def test_weak_cuts_contain_registered_zero():
    # Every emitted graph point's half-space must contain the zero.
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    k = fbf_kernel(identity_map(2), B, 0.7, 0.2)
    cfg = SolverConfig(epsilon=0.2, step_size=0.7, max_iter=3000,
                       tol_residual=1e-10, tol_step=1e-10)
    z = np.array([0.5, 0.5])
    res = solve_weak(m, k, None, cfg, [0.9, 0.1])
    for rec in res.trace:
        assert np.dot(z - rec.y, rec.y_star) <= 1e-10


def test_weak_square_summable_steps():
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    k = fbf_kernel(identity_map(2), B, 0.7, 0.2)
    cfg = SolverConfig(epsilon=0.2, step_size=0.7, max_iter=10_000,
                       tol_residual=1e-14, tol_step=1e-14)
    res = solve_weak(m, k, None, cfg, [0.9, 0.1])
    sq = [rec.step_norm ** 2 for rec in res.trace]
    assert sum(sq) < np.inf and sq[-1] <= 1e-12


def test_weak_gamma_floor_validated():
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(epsilon=0.5, step_size=0.1, max_iter=5,
                       tol_residual=1e-8, tol_step=1e-8)
    with pytest.raises(ConfigurationError):
        solve_weak(m, identity_kernel(1), None, cfg, [1.0])


def test_weak_lambda_range_validated():
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(epsilon=0.05, relaxation=2.5, step_size=1.0, max_iter=5,
                       tol_residual=1e-8, tol_step=1e-8)
    with pytest.raises(ConfigurationError):
        solve_weak(m, identity_kernel(1), None, cfg, [1.0])


def test_weak_stall_aborts_with_diagnostic():
    # A constant additive perturbation parks the evaluation point far from
    # the iterate, producing idle cuts with large residual.
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    pol = PerturbationPolicy.additive(lambda n: np.array([10.0]))
    cfg = SolverConfig(step_size=1.0, max_iter=200, tol_residual=1e-12, tol_step=1e-12)
    with pytest.raises(StallError):
        solve_weak(m, identity_kernel(1), pol, cfg, [0.0])


# ---------------------------------------------------------------------------
# Strong solver
# ---------------------------------------------------------------------------

def test_strong_projects_onto_affine_zero_set():
    m = MDecomposition(affine_set_normal_cone([[1.0, 0.0]], [0.0]))
    cfg = SolverConfig(max_iter=50, tol_residual=1e-10, tol_step=1e-10)
    res = solve_strong(m, identity_kernel(2), None, cfg, [3.0, 4.0])
    assert res.converged
    np.testing.assert_allclose(res.x, [0.0, 4.0], atol=1e-6)


def test_strong_start_in_zero_set_is_immediate():
    m = MDecomposition(affine_set_normal_cone([[1.0, 0.0]], [0.0]))
    cfg = SolverConfig(max_iter=50, tol_residual=1e-10, tol_step=1e-10)
    res = solve_strong(m, identity_kernel(2), None, cfg, [0.0, 7.0])
    assert res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.x, [0.0, 7.0])


def test_strong_idle_cut_records_rho_zero_and_keeps_x():
    # A x = x, gamma = 1 and x~_0 = x_0 + e_0 = 1 - 3: y_0 = y*_0 = -1, so
    # theta = <y - x, y*> = 2 >= 0 and the anchored cut moves nothing.
    m = MDecomposition(scaled_identity_operator(1, 1.0))
    policy = PerturbationPolicy.additive(lambda n: np.array([-3.0 if n == 0 else 0.0]))
    cfg = SolverConfig(max_iter=100, tol_residual=1e-10, tol_step=1e-10)
    res = solve_strong(m, identity_kernel(1), policy, cfg, [1.0])
    first, second = res.trace[:2]
    assert (first.theta, first.rho, first.step_norm) == (2.0, 0.0, 0.0)
    assert second.x.tobytes() == first.x.tobytes() == np.array([1.0]).tobytes()
    assert res.converged


def test_strong_anchor_distance_nondecreasing():
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    k = fbf_kernel(identity_map(2), B, 0.7, 0.2)
    cfg = SolverConfig(epsilon=0.2, step_size=0.7, max_iter=2000,
                       tol_residual=1e-9, tol_step=1e-9)
    x0 = np.array([0.9, 0.1])
    res = solve_strong(m, k, None, cfg, x0)
    assert res.converged
    dists = [np.linalg.norm(rec.x - x0) for rec in res.trace]
    for a, b in zip(dists, dists[1:]):
        assert b >= a - 1e-10


def test_strong_limit_is_projection_of_start():
    # M = N_Z for affine Z: the strong limit must be proj_Z x0.
    rng = np.random.default_rng(40)
    A = rng.normal(size=(1, 3))
    b = rng.normal(size=1)
    m = MDecomposition(affine_set_normal_cone(A, b))
    cfg = SolverConfig(max_iter=100, tol_residual=1e-11, tol_step=1e-11)
    x0 = rng.normal(size=3) * 2
    res = solve_strong(m, identity_kernel(3), None, cfg, x0)
    proj = x0 - np.linalg.pinv(A) @ (A @ x0 - b)
    assert np.linalg.norm(res.x - proj) <= 1e-6


@pytest.mark.parametrize("x0", [[3.0, 0.5], [-2.0, 4.0], [0.9, -3.0], [-5.0, -0.99],
                                [0.5, 1.5], [-0.7, 0.2]])
def test_strong_limit_is_the_projection_onto_a_zero_segment(x0):
    # B(x) = (x_1 - 0.2, 0) on the box [-1, 1]^2: Z = {0.2} x [-1, 1], so
    # the limit must be P_Z x0 = (0.2, clip(x0_2)), not just some zero.
    A = box_normal_cone([-1.0, -1.0], [1.0, 1.0])
    B = affine_map([[1.0, 0.0], [0.0, 0.0]], [-0.2, 0.0])
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    cfg = SolverConfig(epsilon=eps, step_size=gamma, max_iter=10_000,
                       tol_residual=1e-10, tol_step=1e-10)
    res = solve_strong(MDecomposition(A, B), fbf_kernel(identity_map(2), B, gamma, eps),
                       None, cfg, np.array(x0))
    assert res.converged
    assert np.linalg.norm(res.x - [0.2, np.clip(x0[1], -1.0, 1.0)]) <= 1e-8


# ---------------------------------------------------------------------------
# Tseng and FBF-with-memory
# ---------------------------------------------------------------------------

def test_tseng_one_dimensional_example():
    A = box_normal_cone([1.0], [2.0])
    B = affine_map([[1.0]], [-3.0])
    cfg = SolverConfig(epsilon=0.1, max_iter=500, tol_residual=1e-11, tol_step=1e-11)
    res = solve_tseng(A, B, 0.5, cfg, [0.0])
    assert res.converged
    np.testing.assert_allclose(res.x, [2.0], atol=1e-8)


def test_tseng_zero_forward_is_single_proximal_step():
    A = box_normal_cone([0.0, 0.0], [1.0, 1.0])
    B = zero_map(2)
    cfg = SolverConfig(epsilon=0.25, max_iter=50, tol_residual=1e-12, tol_step=1e-12)
    res = solve_tseng(A, B, 0.4, cfg, [3.0, -1.0])
    assert res.converged
    np.testing.assert_array_equal(res.trace[0].y, [1.0, 0.0])
    np.testing.assert_array_equal(res.x, [1.0, 0.0])
    assert res.iterations == 2  # first step projects, second certifies


def trace_bytes(res):
    """A run's trace, field by field, as bytes: equal only when bit for bit equal."""
    return [tuple(np.asarray(field).tobytes() for field in rec) for rec in res.trace]


def _rotation_runs(cfg):
    # The solvers on one rotation + box problem, and a coupled one; each run n -> result.
    A, B = box_normal_cone([0.0, 0.0], [1.0, 1.0]), affine_map(ROT, np.array([-0.5, 0.5]))
    m, k = MDecomposition(A, B), fbf_kernel(identity_map(2), B, 0.7, 0.2)
    return {
        "weak": lambda: solve_weak(m, k, None, cfg, [0.9, 0.1]),
        "weak-memory": lambda: solve_weak(m, k, PerturbationPolicy.memory([-0.3, 1.3]), cfg,
                                          [0.9, 0.1]),
        "strong": lambda: solve_strong(m, k, None, cfg, [0.9, 0.1]),
        "fbf-memory": lambda: solve_fbf_memory(A, B, None, 0.7, None, cfg, [0.9, 0.1]),
        "tseng": lambda: solve_tseng(A, B, 0.7, cfg, [0.9, 0.1]),
        "coupled": lambda: solve_coupled(scalar_coupled_problem(), cfg),
    }


@pytest.mark.parametrize("solver", list(_rotation_runs(None)))
def test_library_runs_keep_graph_points_unless_told_not_to(solver):
    # By default every record holds its graph point (y_n, y_n*); with
    # keep_graph_points=False those fields are None and the rest is bit for bit the same.
    cfg = SolverConfig(epsilon=0.2, max_iter=30, tol_residual=1e-300, tol_step=1e-300)
    assert cfg.keep_graph_points is True
    full = _rotation_runs(cfg)[solver]()
    lean = _rotation_runs(dataclasses.replace(cfg, keep_graph_points=False))[solver]()
    dim = len(full.trace[0].x)
    assert full.iterations == lean.iterations == 30
    assert all(rec.y.shape == rec.y_star.shape == (dim,) for rec in full.trace)
    assert all(rec.y is None and rec.y_star is None for rec in lean.trace)
    assert trace_bytes(lean) == [tuple(np.asarray(field).tobytes() for field in
                                       rec._replace(y=None, y_star=None)) for rec in full.trace]


def test_trace_reads_as_the_list_of_its_records():
    # len, indices (negative too), slices and iteration give the records the
    # engine appended; without a policy x~_n is x_n itself.
    m = MDecomposition(scaled_identity_operator(2, 1.0))
    cfg = SolverConfig(step_size=1.0, max_iter=5, tol_residual=1e-300, tol_step=1e-300)
    res = solve_weak(m, identity_kernel(2), None, cfg, [1.0, 1.0])
    trace, records = res.trace, list(res.trace)
    assert isinstance(trace, algorithms.Trace) and len(trace) == len(records) == 5

    def same(a, b):
        return type(a) is type(b) is algorithms.IterationRecord and all(
            u is v for u, v in zip(a, b))

    assert [rec.n for rec in records] == [0, 1, 2, 3, 4]
    assert all(same(trace[k], records[k]) and same(trace[k - 5], records[k]) for k in range(5))
    assert all(same(a, b) for a, b in zip(trace[:2], records[:2])) and len(trace[:2]) == 2
    assert all(same(a, b) for a, b in zip(trace[::-2], records[::-2])) and len(trace[::-2]) == 3
    assert trace[7:] == [] and bool(trace) and not algorithms.Trace()
    with pytest.raises(IndexError):
        trace[5]
    for rec in trace:
        assert rec.x_tilde is rec.x
        np.testing.assert_array_equal(rec.x, np.ones(2) / 2 ** rec.n)
        np.testing.assert_array_equal(rec.y, rec.x / 2)


def test_relaxation_context_is_an_immutable_record_of_the_iteration():
    # A (n, ctx) schedule reads the iteration's nine quantities, in order;
    # assigning a field raises.
    seen = []

    def schedule(n, ctx):
        seen.append(ctx)
        return 1.0

    m = MDecomposition(scaled_identity_operator(1, 1.0))
    cfg = SolverConfig(relaxation=schedule, step_size=1.0, max_iter=3, tol_residual=1e-300,
                       tol_step=1e-300)
    res = solve_weak(m, identity_kernel(1), None, cfg, [1.0])
    assert algorithms.IterationContext._fields == (
        "n", "gamma", "epsilon", "x", "x_tilde", "y", "y_star", "theta", "sigma")
    for ctx, rec in zip(seen, res.trace, strict=True):
        assert ctx == (rec.n, rec.gamma, 0.05, rec.x, rec.x_tilde, rec.y, rec.y_star,
                       rec.theta, rec.sigma)
    with pytest.raises(AttributeError):
        seen[0].theta = 0.0


def counted_builds(monkeypatch, name):
    calls, build = [], getattr(algorithms, name)

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(algorithms, name, counting)
    return calls


def test_fbf_kernel_built_once_for_constant_step(monkeypatch):
    # A constant step and a constant-valued step schedule both build one
    # kernel, and run the same iterates bit for bit.
    calls = counted_builds(monkeypatch, "fbf_kernel")
    A, B = box_normal_cone([1.0], [2.0]), affine_map([[1.0]], [-3.0])
    cfg = SolverConfig(epsilon=0.1, max_iter=40, tol_residual=1e-300, tol_step=1e-300)
    const = solve_tseng(A, B, 0.5, cfg, [0.0])
    assert len(calls) == 1 and const.iterations == 40
    calls.clear()
    sched = solve_tseng(A, B, lambda n: 0.5, cfg, [0.0])
    assert len(calls) == 1
    assert trace_bytes(sched) == trace_bytes(const)
    # A W operator is a constant; a W schedule that returns one operator is
    # one stage, and a fresh operator each iteration is a new stage.
    W = identity_map(1)
    calls.clear()
    const = solve_fbf_memory(A, B, W, 0.5, None, cfg, [0.0])
    assert len(calls) == 1
    calls.clear()
    sched = solve_fbf_memory(A, B, lambda n: W, 0.5, None, cfg, [0.0])
    assert len(calls) == 1
    assert trace_bytes(sched) == trace_bytes(const)
    calls.clear()
    fresh = solve_fbf_memory(A, B, lambda n: identity_map(1), 0.5, None, cfg, [0.0])
    assert len(calls) == fresh.iterations == const.iterations
    assert trace_bytes(fresh) == trace_bytes(const)


def test_varying_step_builds_once_per_distinct_stage(monkeypatch):
    # A stage is rebuilt, and paired with M, when its value differs from the
    # last build's: a stepwise schedule once per step, an alternating one
    # each time.
    calls = counted_builds(monkeypatch, "fbf_kernel")
    pairings = counted_builds(monkeypatch, "_check_pairing")
    A, B = box_normal_cone([1.0], [2.0]), affine_map([[1.0]], [-3.0])
    cfg = SolverConfig(epsilon=0.1, max_iter=40, tol_residual=1e-300, tol_step=1e-300)
    steps = lambda n: 0.5 if n < 10 else 0.45 if n < 25 else 0.4  # noqa: E731
    res = solve_tseng(A, B, steps, cfg, [0.0])
    assert [c[2] for c in calls] == [0.5, 0.45, 0.4]
    assert [c[2] for c in pairings] == [0.5, 0.45, 0.4]
    assert [r.gamma for r in res.trace] == [steps(n) for n in range(40)]
    calls.clear()
    pairings.clear()
    res = solve_tseng(A, B, lambda n: (0.5, 0.4)[n % 2], cfg, [0.0])
    assert len(calls) == len(pairings) == res.iterations == 40


def test_staged_compares_stage_values_with_their_snapshot():
    builds = []
    build = lambda *values: builds.append(values) or len(builds)  # noqa: E731
    # Equal values return the last build; a float equal to an int is equal.
    at = algorithms.staged(build, lambda n: (1, 1.0, 2)[n], 7)
    assert [at(n) for n in range(3)] == [1, 1, 2]
    # A list is compared by the items it held at build time.
    row = [0.5]

    def mutating(n):
        row[0] = 0.5 + n % 2
        return row
    at = algorithms.staged(build, mutating)
    assert [at(n) for n in range(4)] == [3, 4, 5, 6]
    at = algorithms.staged(build, lambda n: [0.5])
    assert [at(n) for n in range(3)] == [7, 7, 7]
    # An array, or an == that raises, is a change.
    at = algorithms.staged(build, lambda n: np.array([0.5]))
    assert [at(n) for n in range(2)] == [8, 9]

    class Unequal:
        def __eq__(self, other):
            raise TypeError("no ==")
    at = algorithms.staged(build, lambda n: Unequal())
    assert [at(n) for n in range(2)] == [10, 11]


def test_weak_kernel_schedule_called_once_per_iteration():
    # With no step_size, gamma_n is read from the fold of the fetched K_n.
    B = affine_map(ROT, np.array([-0.5, 0.5]))
    m = MDecomposition(box_normal_cone([0.0, 0.0], [1.0, 1.0]), B)
    calls = []

    def schedule(n):
        calls.append(n)
        return fbf_kernel(identity_map(2), B, 0.7, 0.2)

    res = solve_weak(m, schedule, None, SolverConfig(epsilon=0.2, max_iter=30,
                                                     tol_residual=1e-300, tol_step=1e-300),
                     [0.9, 0.1])
    assert res.iterations == 30 and calls == list(range(30))
    assert {r.gamma for r in res.trace} == {0.7}


@pytest.mark.parametrize("solver", ["tseng", "fbf_memory"])
def test_fbf_step_schedule_called_once_per_iteration(solver):
    # The step of each stage (K_n, gamma_n) is read once, for the kernel and
    # the engine alike.
    A, B = box_normal_cone([0.0, 0.0], [1.0, 1.0]), affine_map(ROT, np.array([-0.5, 0.5]))
    cfg = SolverConfig(epsilon=0.1, max_iter=30, tol_residual=1e-300, tol_step=1e-300)
    calls = []

    def schedule(n):
        calls.append(n)
        return 0.5 * 0.99 ** n

    if solver == "tseng":
        res = solve_tseng(A, B, schedule, cfg, [0.9, 0.1])
    else:
        res = solve_fbf_memory(A, B, None, schedule, None, cfg, [0.9, 0.1])
    assert res.iterations == 30 and calls == list(range(30))
    assert [r.gamma for r in res.trace] == [0.5 * 0.99 ** n for n in range(30)]


def test_tseng_regime_validation():
    A = box_normal_cone([0.0], [1.0])
    B = affine_map([[1.0]])
    with pytest.raises(ConfigurationError):
        solve_tseng(A, B, 2.0, SolverConfig(epsilon=0.1, max_iter=5), [0.5])
    with pytest.raises(ConfigurationError):
        solve_tseng(A, B, 0.5, SolverConfig(epsilon=0.9, max_iter=5), [0.5])


def seeded_affine_box_problem(seed, dim=None):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 11)) if dim is None else dim
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


def test_tseng_triple_equivalence_single_seed():
    A, B, x0, _ = seeded_affine_box_problem(3)
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    cfg = SolverConfig(epsilon=eps, max_iter=200, tol_residual=1e-300, tol_step=1e-300)
    ref = tseng_iterates(A, B, gamma, x0, 200)
    res_t = solve_tseng(A, B, gamma, cfg, x0)
    m = MDecomposition(A, B)
    k = fbf_kernel(identity_map(A.dim), B, gamma, eps)
    cfg_w = SolverConfig(epsilon=eps, relaxation=tseng_relaxation, step_size=gamma,
                         max_iter=200, tol_residual=1e-300, tol_step=1e-300)
    res_w = solve_weak(m, k, None, cfg_w, x0)
    res_f = solve_fbf_memory(A, B, identity_map(A.dim), gamma,
                             PerturbationPolicy.memory([1.0]), cfg_w, x0)
    assert len(res_t.trace) == len(res_w.trace) == len(res_f.trace) == 200
    for (x, _, _, _, sigma, lam), rt, rw, rf in zip(ref, res_t.trace, res_w.trace, res_f.trace):
        for rec in (rt, rw, rf):
            assert np.linalg.norm(rec.x - x) <= 1e-10
        # The implied relaxation is a ratio of near-zero quantities once the
        # residual bottoms out; compare it only where it is well conditioned.
        if np.sqrt(sigma) > 1e-8:
            assert abs(rt.lam - lam) <= 1e-6 * max(1.0, lam)


def test_fbf_memory_zero_forward_projects_box():
    A = box_normal_cone([0.0, 0.0], [1.0, 1.0])
    cfg = SolverConfig(epsilon=0.25, max_iter=50, tol_residual=1e-12, tol_step=1e-12)
    res = solve_fbf_memory(A, None, None, None, None, cfg, [3.0, -1.0])
    assert res.converged
    np.testing.assert_array_equal(res.x, [1.0, 0.0])


def test_fbf_memory_inertial_like_weights_reach_same_zero():
    A, B, x0, z = seeded_affine_box_problem(4, dim=2)
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    cfg = SolverConfig(epsilon=eps, max_iter=20_000, tol_residual=1e-9, tol_step=1e-9)
    plain = solve_fbf_memory(A, B, None, gamma, None, cfg, x0)
    mem = solve_fbf_memory(A, B, None, gamma,
                           PerturbationPolicy.memory([-0.3, 1.3]), cfg, x0)
    assert plain.converged and mem.converged
    assert np.linalg.norm(plain.x - mem.x) <= 1e-6
    assert np.linalg.norm(plain.x - z) <= 1e-6


def test_fbf_memory_additive_errors_decay_on_logs():
    A, B, x0, z = seeded_affine_box_problem(5, dim=3)
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    pol = PerturbationPolicy.additive(lambda n: 0.5 * 0.9 ** n * np.ones(3) / np.sqrt(3))
    cfg = SolverConfig(epsilon=eps, max_iter=20_000, tol_residual=1e-9, tol_step=1e-9)
    res = solve_fbf_memory(A, B, None, gamma, pol, cfg, x0)
    assert res.converged
    assert np.linalg.norm(res.x - z) <= 1e-6
    perturb = [np.linalg.norm(rec.x_tilde - rec.x) for rec in res.trace]
    assert perturb[-1] <= 1e-5
    assert max(perturb[-10:]) < max(perturb[:10])


# ---------------------------------------------------------------------------
# Kuhn-Tucker assembly and the coupled solver
# ---------------------------------------------------------------------------

def test_kt_residuals_scalar_zero_by_hand():
    # A = Id, B = Id, L = 1, s* = 0, r = 2: the three slots of M vanish at
    # (x, y, v*) = (1, -1, -1).
    x, y, v = 1.0, -1.0, -1.0
    assert x + 1.0 * v == 0.0            # -s* + A x + L* v*
    assert y - v == 0.0                  # B y - v*
    assert 2.0 - 1.0 * x + y == 0.0      # r - L x + y
    prob = CoupledProblem(
        [PrimalBlock(A=scaled_identity_operator(1, 1.0))],
        [DualBlock(B=scaled_identity_operator(1, 1.0), r=[2.0])],
        {(0, 0): [[1.0]]})
    point = KuhnTuckerPoint(np.array([x, y, v]), prob)
    res = kt_residuals(prob, point)
    assert max(res) <= 1e-12


def test_kt_point_is_one_frozen_flat_vector():
    prob = CoupledProblem(
        [PrimalBlock(A=scaled_identity_operator(1, 1.0)),
         PrimalBlock(A=scaled_identity_operator(2, 1.0))],
        [DualBlock(B=scaled_identity_operator(2, 1.0))],
        {(0, 1): np.eye(2)})
    flat = np.arange(7.0)
    point = KuhnTuckerPoint(flat, prob)
    flat[0] = 99.0  # the point keeps its own copy
    np.testing.assert_array_equal(point.flatten(), np.arange(7.0))
    np.testing.assert_array_equal(point.x, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(point.y, [3.0, 4.0])
    np.testing.assert_array_equal(point.v_star, [5.0, 6.0])
    xs, ys, vs = point.blocks()
    assert [b.tolist() for b in xs + ys + vs] == [[0.0], [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    for view in (point.x, point.y, point.v_star, *xs, *ys, *vs):
        assert not view.flags.writeable
    with pytest.raises(DimensionMismatchError):
        KuhnTuckerPoint(np.zeros(6), prob)


def test_kt_zero_matches_dense_solve_on_random_saddle():
    rng = np.random.default_rng(41)
    P = rng.normal(size=(2, 2))
    P = P @ P.T / 2 + 0.4 * np.eye(2)
    R = rng.normal(size=(2, 2))
    R = R @ R.T / 2 + 0.4 * np.eye(2)
    L = rng.normal(size=(2, 2))
    s = rng.normal(size=2)
    r = rng.normal(size=2)
    xs, ys, vs = dense_kt_solution([P], [s], [R], [r], {(0, 0): L}, [2], [2])
    prob = CoupledProblem([PrimalBlock(A=affine_resolvent_operator(P), s_star=s)],
                          [DualBlock(B=affine_resolvent_operator(R), r=r)], {(0, 0): L})
    point = KuhnTuckerPoint(np.concatenate([xs[0], ys[0], vs[0]]), prob)
    assert max(kt_residuals(prob, point)) <= 1e-9


def scalar_coupled_problem():
    return CoupledProblem(
        [PrimalBlock(A=scaled_identity_operator(1, 1.0))],
        [DualBlock(B=scaled_identity_operator(1, 1.0), r=[2.0])],
        {(0, 0): [[1.0]]})


def test_coupled_scalar_converges_to_kt_pair():
    prob = scalar_coupled_problem()
    cfg = SolverConfig(max_iter=3000, tol_residual=1e-9, tol_step=1e-9)
    res = solve_coupled(prob, cfg)
    assert res.converged
    np.testing.assert_allclose(res.x.x.flatten(), [1.0], atol=1e-6)
    np.testing.assert_allclose(res.x.v_star.flatten(), [-1.0], atol=1e-6)
    assert max(res.kt_residuals) <= 10 * cfg.tol_residual


def test_coupled_start_at_zero_is_stationary():
    prob = scalar_coupled_problem()
    start = KuhnTuckerPoint.lift(prob, [np.array([1.0])], [np.array([-1.0])])
    cfg = SolverConfig(max_iter=100, tol_residual=1e-10, tol_step=1e-10)
    res = solve_coupled(prob, cfg, start=start)
    assert res.converged and res.iterations == 1
    assert res.trace[0].theta >= 0.0
    np.testing.assert_allclose(res.x.x.flatten(), [1.0], atol=1e-12)


def scalar_coupled_oracle(prob, iterations):
    return coupled_iterates(prob, [b.default_step for b in prob.primal],
                            [b.default_step for b in prob.dual],
                            np.zeros(prob.layout.total), iterations)


def test_coupled_delegated_and_literal_agree_per_iterate(monkeypatch):
    # Every block is linear, so the kernel solves them with blockwise affine
    # maps, built at the first solve: the loop never runs.
    calls, solve_block = [], kernels.solve_base_inclusion

    def loop(*args):
        calls.append(args)
        return solve_block(*args)

    monkeypatch.setattr(kernels, "solve_base_inclusion", loop)
    prob = scalar_coupled_problem()
    cfg = SolverConfig(max_iter=300, tol_residual=1e-300, tol_step=1e-300)
    res_d = solve_coupled(prob, cfg, dual_scale=1.0)  # the oracle's kernel
    assert len(calls) == 0
    ref = scalar_coupled_oracle(prob, 300)
    assert len(res_d.trace) == len(ref) == 300
    for rd, (p, _, _, theta, sigma, _) in zip(res_d.trace, ref):
        assert np.linalg.norm(rd.x - p) <= 1e-12
        assert abs(rd.theta - theta) <= 1e-12 * max(1.0, abs(rd.theta))
        assert abs(rd.sigma - sigma) <= 1e-12 * max(1.0, rd.sigma)


def test_coupled_update_equals_relaxed_projection_step():
    # The blockwise update is exactly the relaxed projection onto the
    # stacked graph-point cut.
    ref = scalar_coupled_oracle(scalar_coupled_problem(), 40)
    for (p, q, q_star, _, _, lam), nxt in zip(ref, ref[1:]):
        manual = relaxed_projection_step(p, GraphPoint(y=q, y_star=q_star), lam)
        assert np.linalg.norm(manual - nxt[0]) <= 1e-12


def two_primal_one_dual_quadratic(rng):
    d1, d2, dz = 2, 3, 2
    mats = []
    for d in (d1, d2, dz):
        g = rng.normal(size=(d, d))
        mats.append(g @ g.T / d + 0.5 * np.eye(d))
    s1, s2 = rng.normal(size=d1), rng.normal(size=d2)
    r = rng.normal(size=dz)
    L1, L2 = rng.normal(size=(dz, d1)), rng.normal(size=(dz, d2))
    prob = CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator(mats[0]), s_star=s1),
         PrimalBlock(A=affine_resolvent_operator(mats[1]), s_star=s2)],
        [DualBlock(B=affine_resolvent_operator(mats[2]), r=r)],
        {(0, 0): L1, (0, 1): L2})
    xs, ys, vs = dense_kt_solution(
        [mats[0], mats[1]], [s1, s2], [mats[2]], [r],
        {(0, 0): L1, (0, 1): L2}, [d1, d2], [dz])
    return prob, np.concatenate(xs), np.concatenate(vs)


def test_coupled_quadratic_matches_dense_kkt():
    rng = np.random.default_rng(42)
    prob, x_ref, v_ref = two_primal_one_dual_quadratic(rng)
    cfg = SolverConfig(max_iter=60_000, tol_residual=1e-9, tol_step=1e-9)
    res = solve_coupled(prob, cfg)
    assert res.converged
    assert np.linalg.norm(res.x.x.flatten() - x_ref) <= 1e-6
    assert np.linalg.norm(res.x.v_star.flatten() - v_ref) <= 1e-6


def test_coupled_default_dual_scale_beats_the_paper_kernel():
    # The default v* coefficient c = |S| reaches the dense KKT solution in
    # fewer iterations than the paper's kernel, c = 1.
    prob, x_ref, v_ref = two_primal_one_dual_quadratic(np.random.default_rng(42))
    cfg = SolverConfig(max_iter=60_000, tol_residual=1e-9, tol_step=1e-9)
    scaled = solve_coupled(prob, cfg)
    paper = solve_coupled(prob, cfg, dual_scale=1.0)
    for res in (scaled, paper):
        assert res.converged
        assert np.linalg.norm(res.x.x.flatten() - x_ref) <= 1e-6
        assert np.linalg.norm(res.x.v_star.flatten() - v_ref) <= 1e-6
    assert scaled.iterations < paper.iterations
    explicit = solve_coupled(prob, cfg, dual_scale=prob.skew_norm())
    np.testing.assert_array_equal(explicit.x.flatten(), scaled.x.flatten())


@pytest.mark.parametrize("dual_scale", [0.0, -1.0, float("nan"), float("inf")])
def test_coupled_dual_scale_must_be_positive(dual_scale):
    # An infinite c passes "> 0"; it is refused here, not at iteration 0 on
    # a non-finite graph point.
    with pytest.raises(ConfigurationError, match="dual_scale must be > 0"):
        solve_coupled(scalar_coupled_problem(), SolverConfig(max_iter=5), dual_scale=dual_scale)


@pytest.mark.parametrize("c", [float("inf"), float("nan"), 0.0])
def test_coupled_kernel_v_star_coefficient_must_be_finite(c):
    prob = scalar_coupled_problem()
    with pytest.raises(ConfigurationError, match="c must be > 0 and finite"):
        kernels.coupled_kernel(prob, [identity_map(1)], [identity_map(1)],
                               [prob.primal[0].default_step], [prob.dual[0].default_step], c=c)


@pytest.mark.parametrize("key,kind", [("gamma_schedules", "gamma"), ("tau_schedules", "tau")])
@pytest.mark.parametrize("value", [np.ones((2, 1)), np.ones((1, 1)), lambda n: np.ones((1, 1))])
def test_coupled_stage_constants_must_be_one_per_block_or_one_for_all(key, kind, value):
    # A 2-D array of stage constants is a configuration error that names its
    # kind, from a constant and from a schedule alike.
    with pytest.raises(ConfigurationError, match=rf"need one {kind} per block, or one for all"):
        solve_coupled(scalar_coupled_problem(), SolverConfig(max_iter=5), **{key: value})


def test_coupled_problem_validation():
    with pytest.raises(ConfigurationError):
        PrimalBlock(A=scaled_identity_operator(1, 1.0), epsilon=0.9)  # >= alpha/(mu+1)
    with pytest.raises(ConfigurationError):
        CoupledProblem([], [], {})
    prob = scalar_coupled_problem()
    with pytest.raises(ConfigurationError):
        solve_coupled(prob, SolverConfig(max_iter=10), gamma_schedules=[9.0])


def _sid(dim):
    return scaled_identity_operator(dim, 1.0)


def _coupled(primal=None, dual=None, couplings=()):
    return CoupledProblem([primal or PrimalBlock(A=_sid(2))], [dual or DualBlock(B=_sid(2))],
                          dict(couplings))


@pytest.mark.parametrize("call, error, message", [
    (lambda: PerturbationPolicy.additive(0.5), ConfigurationError,
     "additive policy needs a callable error schedule"),
    (lambda: apply_policy(PerturbationPolicy(), [], 0), ConfigurationError,
     "apply_policy needs a nonempty history"),
    (lambda: solve_fbf_memory(_sid(2), None, SingleValuedOperator(2, lambda x: x, 1.0), None,
                              None, SolverConfig(), np.zeros(2)), ConfigurationError,
     "solve_fbf_memory needs W with declared strong monotonicity"),
    (lambda: PrimalBlock(A=_sid(2), C=zero_map(3)), DimensionMismatchError,
     "C has dim 3, A has dim 2"),
    (lambda: PrimalBlock(A=_sid(2), mu=0.0), ConfigurationError, "declared mu must be > 0"),
    (lambda: DualBlock(B=_sid(2), D=zero_map(3)), DimensionMismatchError,
     "D has dim 3, B has dim 2"),
    (lambda: DualBlock(B=_sid(2), nu=0.0), ConfigurationError, "declared nu must be > 0"),
    (lambda: _coupled(couplings={(1, 0): np.eye(2)}), ConfigurationError,
     "coupling index (1, 0) out of range"),
    (lambda: _coupled(couplings={(0, 0): np.eye(3)}), DimensionMismatchError,
     "coupling (0, 0) has shape (3, 3), expected (2, 2)"),
    (lambda: solve_coupled(_coupled(primal=PrimalBlock(A=_sid(2), alpha=2.0)), tight(5)),
     ConfigurationError,
     "primal block 0 declares (alpha, chi) = (2.0, 1.0) but no stage operators F were supplied"),
    (lambda: solve_coupled(_coupled(dual=DualBlock(B=_sid(2), kappa=2.0)), tight(5)),
     ConfigurationError,
     "dual block 0 declares (beta, kappa) = (1.0, 2.0) but no stage operators W were supplied"),
    (lambda: PerturbationPolicy.memory([np.nan, 1.0]), ConfigurationError,
     "memory weight row sums to nan, must be 1 within 1e-12"),
    (lambda: PerturbationPolicy.memory([1.7976931348623157e308, -0.3, 1.7976931348623157e308]),
     ConfigurationError, "memory weight row sums to inf, must be 1 within 1e-12"),
], ids=["additive-callable", "empty-history", "fbf-memory-W-modulus", "primal-C-dim",
        "primal-mu-positive", "dual-D-dim", "dual-nu-positive", "coupling-index",
        "coupling-shape", "identity-stages-primal", "identity-stages-dual", "memory-row-nan",
        "memory-row-overflow"])
def test_guard_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("step", [0.3, lambda n: 1.0])
def test_coupled_step_other_than_one_raises(step):
    # The coupled kernels fold gamma = 1: another step is rejected, not replaced.
    with pytest.raises(ConfigurationError, match="coupled run's step is 1"):
        solve_coupled(scalar_coupled_problem(), SolverConfig(step_size=step, max_iter=5))


def test_coupled_step_one_is_the_default_step():
    prob = scalar_coupled_problem()
    runs = [solve_coupled(prob, SolverConfig(step_size=step, max_iter=50)) for step in (None, 1.0)]
    assert all(rec.gamma == 1.0 for res in runs for rec in res.trace)
    np.testing.assert_array_equal(runs[0].x.flatten(), runs[1].x.flatten())
    assert [r.residual for r in runs[0].trace] == [r.residual for r in runs[1].trace]


def test_coupled_kernel_built_once_for_constant_stage_constants(monkeypatch):
    # Constant stage constants, and a schedule that returns one unchanged
    # list, build one kernel; each run is the constant run bit for bit.
    calls = counted_builds(monkeypatch, "coupled_kernel")
    prob, _, _ = two_primal_one_dual_quadratic(np.random.default_rng(43))
    cfg = SolverConfig(max_iter=20_000, tol_residual=1e-9, tol_step=1e-9)
    const = solve_coupled(prob, cfg)
    assert const.converged and len(calls) == 1
    calls.clear()
    gammas = [b.default_step for b in prob.primal]
    sched = solve_coupled(prob, cfg, gamma_schedules=lambda n: gammas)
    assert sched.converged and len(calls) == 1
    assert trace_bytes(sched) == trace_bytes(const)
    # An array value is a new stage every iteration, and still runs.
    calls.clear()
    arrays = solve_coupled(prob, cfg, gamma_schedules=lambda n: np.array(gammas))
    assert len(calls) == arrays.iterations == const.iterations
    assert trace_bytes(arrays) == trace_bytes(const)


def test_coupled_constant_array_beside_a_schedule_builds_once(monkeypatch):
    # Only the values the schedules return are compared: a constant array is
    # bound once, and the run is the constant list's run bit for bit.
    calls = counted_builds(monkeypatch, "coupled_kernel")
    prob, _, _ = two_primal_one_dual_quadratic(np.random.default_rng(43))
    cfg = SolverConfig(max_iter=30, tol_residual=1e-300, tol_step=1e-300)
    gammas, taus = ([b.default_step for b in part] for part in (prob.primal, prob.dual))
    runs = []
    for g in (gammas, np.array(gammas)):
        calls.clear()
        runs.append(solve_coupled(prob, cfg, gamma_schedules=g, tau_schedules=lambda n: taus))
        assert runs[-1].iterations == 30 and len(calls) == 1
    assert trace_bytes(runs[1]) == trace_bytes(runs[0])


def test_coupled_schedule_mutating_one_list_gets_a_build_per_change(monkeypatch):
    # A schedule that rewrites and returns one list in place: each change
    # is a new build, and the run equals one with a fresh list per stage.
    calls = counted_builds(monkeypatch, "coupled_kernel")
    prob, _, _ = two_primal_one_dual_quadratic(np.random.default_rng(43))
    cfg = SolverConfig(max_iter=300, tol_residual=1e-9, tol_step=1e-9)
    gammas = [b.default_step for b in prob.primal]
    fresh = lambda n: [gammas[0] * (1.0, 0.99)[n % 2]] + gammas[1:]  # noqa: E731
    row = list(gammas)

    def mutating(n):
        row[:] = fresh(n)
        return row
    res = solve_coupled(prob, cfg, gamma_schedules=mutating)
    assert len(calls) == res.iterations
    assert [c[3] for c in calls] == [fresh(n) for n in range(res.iterations)]
    assert trace_bytes(res) == trace_bytes(solve_coupled(prob, cfg, gamma_schedules=fresh))
