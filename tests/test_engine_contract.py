"""What the iteration engine's hot path promises.

Finiteness is certified once per graph point.  The engine calls its
oracles through entries that check each output's shape but scan no
entries, and the cut's scalars certify the pair: sigma = |y*|^2 finite
means y* is, and theta = <y - x, y*> finite means y is.  Only when one of
them is not finite are the vectors scanned.  The inner loop of a general
base certifies through its residual.  A bad value from a user oracle
raises a typed error naming the iteration it appears in, and never reaches
a trace record; a finite y* whose sigma overflows fails as a corrupted cut.
The public entries scan what they return, and ``graph_point`` gives the
engine's pair bit for bit.  The inner loop of a general base is
warm-started from the previous y within one run only, and identity bases
and the pairing check cost nothing per iteration.  The pair call each stage
builds gives the bits of the literal pair (``oracles.literal_warped_pair``).
"""

import sys

import numpy as np
import pytest

from warpsplit import (
    BlockDiagonalOperator,
    BlockLayout,
    ConfigurationError,
    CoupledProblem,
    DimensionMismatchError,
    DualBlock,
    Kernel,
    MDecomposition,
    NonFiniteEntryError,
    PrimalBlock,
    SetValuedOperator,
    SingleValuedOperator,
    SolverConfig,
    SolverCorruptionError,
    affine_map,
    affine_resolvent_operator,
    box_normal_cone,
    coupled_kernel,
    fbf_kernel,
    graph_point,
    identity_kernel,
    identity_map,
    map_kernel,
    scaled_identity_operator,
    solve_coupled,
    solve_strong,
    solve_weak,
    warped_resolvent,
    zero_operator,
)
from warpsplit import algorithms, kernels
from warpsplit.kernels import solve_base_inclusion

from oracles import literal_warped_pair

FAULT_AT = 6  # the oracle call that goes bad
BASE_FAULT_SOLVE = 3  # the backward solve whose inner loop sees a bad base value


def tight(max_iter):
    return SolverConfig(max_iter=max_iter, tol_residual=1e-300, tol_step=1e-300)


def skew_unit(rng, d):
    R = rng.normal(size=(d, d))
    R = R - R.T
    return R / np.linalg.norm(R, 2)


def faulty(fn, bad):
    """fn, except that call FAULT_AT returns ``bad(out)``."""
    calls = [0]

    def wrapped(*args):
        out = fn(*args)
        calls[0] += 1
        return bad(out) if calls[0] == FAULT_AT else out

    return wrapped


def faulty_in_inner_loop(fn, solve):
    """fn, except that its second call in backward solve BASE_FAULT_SOLVE
    (``solve[0]`` numbers the running solve, 0 outside one) returns NaN."""
    calls = [0]

    def wrapped(x):
        out = fn(x)
        if solve[0] == BASE_FAULT_SOLVE:
            calls[0] += 1
            if calls[0] == 2:
                return nan_out(out)
        return out

    return wrapped


def nan_out(out):
    return np.full_like(out, np.nan)


def inf_out(out):
    return np.full_like(out, np.inf)


def short_out(out):
    return out[:-1]


def user_ops(d, rng):
    """A box resolvent, a monotone affine forward map and a general base
    W = I + 0.5 R, each as a user oracle."""
    lo, hi = -np.ones(d), np.ones(d)
    G = rng.normal(size=(d, d))
    M = G @ G.T / d + 0.3 * np.eye(d) + 0.5 * skew_unit(rng, d)
    b = rng.normal(size=d)
    Wm = np.eye(d) + 0.5 * skew_unit(rng, d)
    A = lambda g, x: np.clip(x, lo, hi)
    B = lambda x: M @ x + b
    W = lambda x: Wm @ x
    return A, B, W, float(np.linalg.norm(M, 2)), float(np.linalg.norm(Wm, 2))


def weak_or_strong(solver, fault, solve):
    d = 3
    A_fn, B_fn, W_fn, b_lip, w_lip = user_ops(d, np.random.default_rng(71))
    if fault == "resolvent_nan":
        A_fn = faulty(A_fn, nan_out)
    elif fault == "resolvent_shape":
        A_fn = faulty(A_fn, short_out)
    elif fault == "forward_inf":
        B_fn = faulty(B_fn, inf_out)
    elif fault == "forward_shape":
        B_fn = faulty(B_fn, short_out)
    else:
        W_fn = faulty_in_inner_loop(W_fn, solve)
    A = SetValuedOperator(d, A_fn, name="user_box")
    B = SingleValuedOperator(d, B_fn, lipschitz=b_lip, name="user_forward")
    if fault == "base_nan":
        W = SingleValuedOperator(d, W_fn, lipschitz=w_lip, strong_monotonicity=1.0,
                                 name="user_base")
    else:
        W = identity_map(d)
    eps = 0.05
    k = fbf_kernel(W, B, 0.9 * (1.0 - eps) / b_lip, eps)
    run = solve_weak if solver == "weak" else solve_strong
    return lambda: run(MDecomposition(A, B), k, None, tight(200), np.full(d, 3.0))


def coupled_problem(A_fn, C_fn, F_fn, c_lip, f_lip, general):
    d = 2
    A = SetValuedOperator(d, A_fn, name="user_box")
    C = SingleValuedOperator(d, C_fn, lipschitz=c_lip, name="user_forward")
    F = SingleValuedOperator(d, F_fn, lipschitz=f_lip, strong_monotonicity=1.0, name="user_base")
    prob = CoupledProblem(
        [PrimalBlock(A=A, C=C, s_star=[1.0, -1.0], alpha=1.0, chi=f_lip if general else 1.0)],
        [DualBlock(B=scaled_identity_operator(d, 1.0), r=[0.5, 0.5])],
        {(0, 0): np.array([[1.0, 0.5], [0.0, 1.0]])})
    return prob, F


def coupled(fault, solve):
    d = 2
    A_fn, C_fn, F_fn, c_lip, f_lip = user_ops(d, np.random.default_rng(72))
    if fault == "resolvent_nan":
        A_fn = faulty(A_fn, nan_out)
    elif fault == "resolvent_shape":
        A_fn = faulty(A_fn, short_out)
    elif fault == "forward_inf":
        C_fn = faulty(C_fn, inf_out)
    elif fault == "forward_shape":
        C_fn = faulty(C_fn, short_out)
    else:
        F_fn = faulty_in_inner_loop(F_fn, solve)
    general = fault == "base_nan"
    prob, F = coupled_problem(A_fn, C_fn, F_fn, c_lip, f_lip, general)
    return lambda: solve_coupled(prob, tight(200), F_schedule=[F] if general else None)


@pytest.mark.parametrize("solver", ["weak", "strong", "coupled"])
@pytest.mark.parametrize("fault, error, at", [
    # Each iteration calls the resolvent once, the forward map twice and
    # solves through the user base once, so the fault hits iteration ``at``.
    ("resolvent_nan", NonFiniteEntryError, FAULT_AT - 1),
    ("forward_inf", NonFiniteEntryError, (FAULT_AT - 1) // 2),
    ("resolvent_shape", DimensionMismatchError, FAULT_AT - 1),
    ("forward_shape", DimensionMismatchError, (FAULT_AT - 1) // 2),
    ("base_nan", NonFiniteEntryError, BASE_FAULT_SOLVE - 1),
])
def test_bad_oracle_value_raises_typed_error_before_any_record(monkeypatch, solver, fault, error,
                                                               at):
    records = []
    append = algorithms.Trace.append

    def recording(trace, *fields):
        records.append(algorithms.IterationRecord(*fields))
        return append(trace, *fields)

    monkeypatch.setattr(algorithms.Trace, "append", recording)
    # Number the backward solves through the user base, so that it goes bad inside one.
    solve, count = [0], [0]
    inner = kernels.solve_base_inclusion

    def numbered(W, *args):
        if getattr(W, "name", None) != "user_base":
            return inner(W, *args)
        count[0] += 1
        solve[0] = count[0]
        try:
            return inner(W, *args)
        finally:
            solve[0] = 0

    monkeypatch.setattr(kernels, "solve_base_inclusion", numbered)
    run = coupled(fault, solve) if solver == "coupled" else weak_or_strong(solver, fault, solve)
    with pytest.raises(error, match=f"^iteration {at}: "):
        run()
    assert len(records) == at
    for rec in records:
        for v in (rec.x, rec.x_tilde, rec.y, rec.y_star):
            assert np.isfinite(v).all()
        assert np.isfinite([rec.theta, rec.sigma, rec.rho, rec.residual, rec.step_norm]).all()


def test_public_entries_scan_what_they_return():
    nan_res = SetValuedOperator(2, lambda g, x: np.full(2, np.nan), name="nan_res")
    inf_map = SingleValuedOperator(2, lambda x: np.full(2, np.inf), lipschitz=1.0, name="inf_map")
    with pytest.raises(NonFiniteEntryError, match="^resolvent output of nan_res"):
        nan_res.resolvent(1.0, np.zeros(2))
    with pytest.raises(NonFiniteEntryError, match=r"^resolvent output of inv\(nan_res\)"):
        nan_res.inverse().resolvent(1.0, np.zeros(2))
    with pytest.raises(NonFiniteEntryError, match="^output of inf_map"):
        inf_map(np.zeros(2))
    # The box clamps K x = -Inf back to a finite y, so only the forward oracle,
    # called again, names the Inf: warped_resolvent is graph_point's y, scans included.
    m = MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0]), inf_map)
    k = fbf_kernel(identity_map(2), inf_map, 0.5, 0.05)
    with pytest.raises(NonFiniteEntryError, match="^output of inf_map"):
        graph_point(m, k, 0.5, np.zeros(2))
    with pytest.raises(NonFiniteEntryError, match="^output of inf_map"):
        warped_resolvent(m, k, 0.5, np.zeros(2))


def test_warped_resolvent_refuses_a_y_star_that_overflows_beside_a_finite_y():
    # K x = 1e300 and y = P_box(K x) = 1 are finite, but y* = (K x - K y) / gamma
    # overflows at gamma = 1e-10: the pair is not a graph point, so no y is returned.
    m = MDecomposition(box_normal_cone([-1.0], [1.0]))
    with pytest.raises(NonFiniteEntryError, match=r"^graph point y\* contains NaN or Inf"):
        warped_resolvent(m, identity_kernel(1), 1e-10, [1e300])
    assert graph_point(m, identity_kernel(1), 1.0, [1e300]).y.tolist() == [1.0]


@pytest.mark.parametrize("solver", [solve_weak, solve_strong])
def test_kernel_overflow_is_caught_at_y_star(solver):
    # K x = 10 x overflows for a finite x; the backward solve clamps it back
    # into the box, so only the y* scan sees the Inf.
    m = MDecomposition(box_normal_cone([-1.0, -1.0], [1.0, 1.0]))
    k = map_kernel(identity_map(2, scale=10.0))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntryError):
        solver(m, k, None, SolverConfig(step_size=1.0), [1e308, 1e308])


@pytest.mark.parametrize("solver", [solve_weak, solve_strong])
def test_finite_y_star_whose_sigma_overflows_is_a_corrupted_cut(solver):
    # y* = x0 - P_box x0 ~ 1e200 is finite, so no NonFiniteEntryError: theta
    # and sigma overflow, and the cut they give is caught as corrupted.
    m = MDecomposition(box_normal_cone([-1.0], [1.0]))
    with pytest.raises(SolverCorruptionError, match="step norm nan"):
        solver(m, identity_kernel(1), None, SolverConfig(step_size=1.0), [1e200])


@pytest.mark.parametrize("solver", [solve_weak, solve_strong])
def test_sigma_overflow_with_a_finite_step_is_a_corrupted_residual(solver):
    # K = 1e300 Id: y* ~ 1e160 is finite and theta ~ -1e20 is too, so the
    # step is finite; sigma = |y*|^2 overflows, and with it the residual.
    m = MDecomposition(box_normal_cone([-1e-140], [1e-140]))
    k = map_kernel(identity_map(1, scale=1e300))
    with pytest.raises(SolverCorruptionError, match="^residual inf is not finite nonnegative"):
        solver(m, k, None, SolverConfig(step_size=1.0), [2e-140])


def test_iteration_records_are_immutable():
    m = MDecomposition(box_normal_cone([-1.0], [1.0]))
    rec = solve_weak(m, identity_kernel(1), None, SolverConfig(step_size=1.0), [2.0]).trace[0]
    with pytest.raises(AttributeError):
        rec.residual = 0.0
    assert rec._replace(residual=0.0).residual == 0.0 and rec.residual > 0


def test_non_finite_inner_residual_raises_at_once():
    # c = |W|^2 / alpha = 1e300, so c * start overflows although every oracle
    # output is finite: the loop stops at its first step instead of failing
    # with BackwardSolveError after 200.
    W = affine_map(np.array([[1.0, 1e150], [-1e150, 1.0]]))
    A = box_normal_cone([-1e10] * 2, [1e10] * 2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntryError, match="residual"):
        solve_base_inclusion(W, 1.0, A, np.ones(2), start=np.full(2, 1e10))


def test_inner_tolerance_survives_an_overflowing_norm():
    # |v|^2 overflows for this finite v: the tolerance is taken from the norm
    # scaled by max |v_i|, so the solve converges instead of raising.
    Wm = np.eye(2) + 0.5 * skew_unit(np.random.default_rng(74), 2)
    W = affine_map(Wm)
    A = box_normal_cone([-1.0, -1.0], [1.0, 1.0])
    v = np.array([1e300, 1e300])
    with np.errstate(over="ignore"):  # the first, unscaled |v|^2 overflows
        assert np.array_equal(solve_base_inclusion(W, 1.0, A, v), [1.0, 1.0])
    # The same solve through the public warped resolvent, K = W, K x = v.
    x = np.linalg.solve(Wm, v)
    assert np.array_equal(warped_resolvent(MDecomposition(A), map_kernel(W), 1.0, x), [1.0, 1.0])


# ---------------------------------------------------------------------------
# Warm start and per-run work
# ---------------------------------------------------------------------------

def general_base_problem(d=4, seed=73):
    """The regression recipe with the general kernel base W = I + 0.5 R."""
    rng = np.random.default_rng(seed)
    lo, hi = -rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 1.5, d)
    z = lo + (hi - lo) * rng.uniform(0.3, 0.7, d)
    G, S = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    M = G @ G.T / d + 0.3 * np.eye(d) + 0.5 * (S - S.T)
    B = affine_map(M, -M @ z)
    eps = min(0.05, 0.9 / (B.lipschitz + 1.0))
    gamma = 0.9 * (1.0 - eps) / B.lipschitz
    W = affine_map(np.eye(d) + 0.5 * skew_unit(rng, d))
    cfg = SolverConfig(epsilon=eps, step_size=gamma, max_iter=2000,
                       tol_residual=1e-9, tol_step=1e-9)
    x0 = z + rng.uniform(0.5, 1.0, d)
    return box_normal_cone(lo, hi), B, W, gamma, eps, cfg, x0, z


def record_bytes(res):
    return b"".join(
        r.x.tobytes() + r.y.tobytes() + r.y_star.tobytes()
        + np.array([r.residual, r.step_norm, r.theta, r.sigma, r.rho]).tobytes()
        for r in res.trace) + res.x.tobytes()


def test_same_general_kernel_object_reruns_byte_identical():
    A, B, W, gamma, eps, cfg, x0, z = general_base_problem()
    m, k = MDecomposition(A, B), fbf_kernel(W, B, gamma, eps)
    first = solve_weak(m, k, None, cfg, x0)
    second = solve_weak(m, k, None, cfg, x0)
    assert first.converged and np.linalg.norm(first.x - z) <= 1e-6
    assert record_bytes(first) == record_bytes(second)


def test_warm_start_cuts_inner_resolvents_and_meets_tolerance(monkeypatch):
    A_box, B, W, gamma, eps, cfg, x0, z = general_base_problem()
    last = []  # (input, output) of every resolvent call

    def counted(g, x):
        last.append((x.copy(), A_box.resolvent(g, x)))
        return last[-1][1]

    A = SetValuedOperator(A_box.dim, counted, name="counted_box")
    solves = []  # (v, start, resolvent calls, last resolvent input, output)

    def spy(W_, g, A_, v, start=None, image=None):
        before = len(last)
        p = solve_base_inclusion(W_, g, A_, v, start, image)
        solves.append((v, start, len(last) - before, *last[-1]))
        return p

    monkeypatch.setattr(kernels, "solve_base_inclusion", spy)
    res = solve_weak(MDecomposition(A, B), fbf_kernel(W, B, gamma, eps), None, cfg, x0)
    assert res.converged and len(solves) == res.iterations
    assert solves[0][1] is None and all(s[1] is not None for s in solves[1:])
    c = W.lipschitz ** 2 / W.strong_monotonicity
    for v, _, _, u, p in solves:
        # u - p lies in (gamma/c) A p, so W p + c (u - p) - v is the residual of v in W p + gamma A p
        assert np.linalg.norm(W(p) + c * (u - p) - v) <= 1e-12 * (1.0 + np.linalg.norm(v))
    warm = sum(s[2] for s in solves)
    cold = 0
    for v, *_ in solves:
        before = len(last)
        solve_base_inclusion(W, gamma, A, v)
        cold += len(last) - before
    assert warm < cold


def test_identity_base_is_never_called(monkeypatch):
    A, B, _, gamma, eps, _, x0, _ = general_base_problem()
    W = identity_map(A.dim)
    calls = {W: 0, B: 0}
    for op in (W, B):
        def counting(x, op=op, fn=op._apply):
            calls[op] += 1
            return fn(x)

        monkeypatch.setattr(op, "_apply", counting)
    res = solve_weak(MDecomposition(A, B), fbf_kernel(W, B, gamma, eps), None, tight(40), x0)
    assert calls[W] == 0 and calls[B] == 2 * res.iterations == 80


def test_healthy_weak_run_scans_no_vector(monkeypatch):
    A, B, _, gamma, eps, _, x0, _ = general_base_problem()
    scans = []
    check = kernels.check_finite
    bound = [mod for name, mod in sys.modules.items()
             if name.split(".")[0] == "warpsplit" and "check_finite" in vars(mod)]
    assert len(bound) >= 3  # space, operators, kernels
    for mod in bound:
        monkeypatch.setattr(mod, "check_finite",
                            lambda arr, what="value": scans.append(what) or check(arr, what))
    res = solve_weak(MDecomposition(A, B), fbf_kernel(identity_map(A.dim), B, gamma, eps), None,
                     tight(40), x0)
    assert res.iterations == 40 and scans == []
    B(x0)  # the public call scans, through the same bindings
    assert scans == ["output of affine_map"]


def engine_runs():
    """(m, kernel, gamma, result, general base?) of weak and strong runs with
    an identity and a general base W = I + 0.5 R, and of a coupled run."""
    A, B, W, gamma, eps, _, x0, _ = general_base_problem()
    m = MDecomposition(A, B)
    for base in (identity_map(A.dim), W):
        k = fbf_kernel(base, B, gamma, eps)
        for solver in (solve_weak, solve_strong):
            yield m, k, gamma, solver(m, k, None, tight(25), x0), base is W
    prob, _ = coupled_problem(*user_ops(2, np.random.default_rng(72)), general=False)
    k = coupled_kernel(prob, [identity_map(2)], [identity_map(2)],
                       [prob.primal[0].default_step], [prob.dual[0].default_step],
                       prob.skew_norm())  # solve_coupled's default v* coefficient
    yield prob.decomposition(), k, 1.0, solve_coupled(prob, tight(25)), False


def test_trace_pairs_are_graph_points_bit_for_bit():
    # The unscanned engine and the scanned public graph_point do the same
    # arithmetic.  Only the engine warm-starts a general base's inner loop,
    # so there the first pair agrees bit for bit and the rest within the
    # inner loop's tolerance.
    for m, k, gamma, res, warm in engine_runs():
        assert res.iterations == 25
        for rec in res.trace:
            gp = graph_point(m, k, gamma, rec.x_tilde)
            if warm and rec.n > 0:
                assert np.linalg.norm(gp.y - rec.y) <= 1e-10 * (1.0 + np.linalg.norm(rec.y))
            else:
                assert gp.y.tobytes() == rec.y.tobytes()
                assert gp.y_star.tobytes() == rec.y_star.tobytes()


def test_pairing_checked_once_per_kernel_and_gamma(monkeypatch):
    A, B, W, gamma, eps, _, x0, _ = general_base_problem()
    checks = []
    check = algorithms._check_pairing
    monkeypatch.setattr(algorithms, "_check_pairing", lambda *a: checks.append(check(*a)))
    m, k = MDecomposition(A, B), fbf_kernel(identity_map(A.dim), B, gamma, eps)
    solve_weak(m, k, None, tight(30), x0)
    assert len(checks) == 1
    # A step that leaves the kernel's folded gamma is checked when it changes.
    cfg = SolverConfig(epsilon=eps, step_size=lambda n: gamma if n < 5 else 0.5 * gamma,
                       max_iter=30, tol_residual=1e-300, tol_step=1e-300)
    with pytest.raises(ConfigurationError, match="folded with gamma"):
        solve_weak(m, k, None, cfg, x0)
    checks.clear()
    # A kernel schedule hands out a new kernel, and a new gamma, every step.
    steps = [gamma * (1.0 - 0.001 * n) for n in range(30)]
    cfg = SolverConfig(epsilon=eps, step_size=lambda n: steps[n], max_iter=30,
                       tol_residual=1e-300, tol_step=1e-300)
    solve_weak(m, lambda n: fbf_kernel(identity_map(A.dim), B, steps[n], eps), None, cfg, x0)
    assert len(checks) == 30


# ---------------------------------------------------------------------------
# Prepared pairs
# ---------------------------------------------------------------------------

def linear_coupled_problem(rng):
    """A coupled problem whose Kuhn-Tucker set part is linear, in runs of
    matrix blocks (affine) and of scalar blocks (scaled identity, zero, constant)."""
    def monotone(d):
        G = rng.normal(size=(d, d))
        return G @ G.T / d + 0.3 * np.eye(d) + 0.5 * skew_unit(rng, d)

    return CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator(monotone(2)), s_star=rng.normal(size=2)),
         PrimalBlock(A=scaled_identity_operator(1, 1.5), s_star=[0.3])],
        [DualBlock(B=affine_resolvent_operator(monotone(2)), r=rng.normal(size=2)),
         DualBlock(B=zero_operator(1), r=[0.2])],
        {(0, 0): rng.normal(size=(2, 2)), (0, 1): rng.normal(size=(2, 1)),
         (1, 0): rng.normal(size=(1, 2))})


def mixed_runs_problem():
    """The all-affine coupled problem of CI's ``coupled_affine.txt``: primal blocks of 3, 2 and 2
    (the last with an offset) and one dual block of 2, so the Kuhn-Tucker set part takes a run of
    one 3 x 3 block, a run of three 2 x 2 blocks and a scalar run (the v* constant)."""
    return CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator(
            [[1.2, 0.3, 0.0], [-0.3, 1.0, 0.2], [0.0, -0.2, 0.8]]), s_star=[0.5, -0.2, 0.1]),
         PrimalBlock(A=affine_resolvent_operator([[1.5, 0.4], [-0.4, 1.0]]), s_star=[-0.4, 0.3]),
         PrimalBlock(A=affine_resolvent_operator([[0.9, 0.0], [0.0, 1.3]], [0.2, -0.1]))],
        [DualBlock(B=affine_resolvent_operator([[1.0, 0.2], [0.2, 0.8]]), r=[0.2, -0.1])],
        {(0, 0): [[0.6, -0.2, 0.3], [0.1, 0.5, -0.4]], (0, 1): [[1.0, 0.5], [-0.3, 1.0]],
         (0, 2): [[0.4, 0.0], [-0.6, 0.7]]})


def staged_coupled_case(prob):
    """(kernel schedule, solve) of a ``solve_coupled`` run whose primal steps fall every 10
    iterations, so the engine builds a new pair at each of its five stages."""
    F, W = ([identity_map(b.dim) for b in part] for part in (prob.primal, prob.dual))
    taus = [b.default_step for b in prob.dual]

    def gammas(n):
        return [b.default_step * (1.0 - 0.02 * (n // 10)) for b in prob.primal]

    return (lambda n: coupled_kernel(prob, F, W, gammas(n), taus, prob.skew_norm()),
            lambda cfg: solve_coupled(prob, cfg, gamma_schedules=gammas))


def prepared_cases():
    """(name, m, kernel schedule, step schedule, x0[, solve]) of a run on each kind of prepared
    pair; ``solve(cfg)``, when given, replaces ``solve_weak`` from x0."""
    A, B, W, gamma, eps, _, x0, _ = general_base_problem()
    m, d, lip = MDecomposition(A, B), A.dim, B.lipschitz
    unit = fbf_kernel(identity_map(d), B, gamma, eps)
    yield "unit", m, unit, gamma, x0
    B1 = affine_map(B.matrix * (0.5 / lip))  # |B1| = 0.5, so gamma = 1 is in range
    yield "unit at gamma 1", MDecomposition(A, B1), fbf_kernel(identity_map(d), B1, 1.0, eps), 1.0, x0
    yield "c = 2", m, Kernel(d, [(None, 2.0)], None, (gamma, B), eps, 2.0 + gamma * lip), gamma, x0
    yield "identity_map(2) base", m, fbf_kernel(identity_map(d, 2.0), B, gamma, eps), gamma, x0
    # c s = 1 exactly, yet (gamma / c) / s and (v / c) / s are not gamma and v.
    third = Kernel(d, [(identity_map(d, 3.0), 1.0 / 3.0)], None, (gamma, B), eps, 1.0 + gamma * lip)
    yield "c s = 1", m, third, gamma, x0
    affine = MDecomposition(affine_resolvent_operator(B.matrix, np.ones(d)))
    yield "no fold", affine, identity_kernel(d), 0.7, x0
    yield "general base", m, fbf_kernel(W, B, gamma, eps), gamma, x0
    out = np.empty(d)  # a user base that hands back one buffer, rewritten at every call

    def into_buffer(x):
        np.matmul(W.matrix, x, out=out)
        return out

    reused = SingleValuedOperator(d, into_buffer, W.lipschitz, strong_monotonicity=W.strong_monotonicity)
    yield "user base reusing its output", m, fbf_kernel(reused, B, gamma, eps), gamma, x0
    steps = [gamma * (1.0 - 0.01 * (n // 10)) for n in range(50)]
    yield ("staged general base", m, lambda n: fbf_kernel(W, B, steps[n], eps),
           lambda n: steps[n], x0)
    rng = np.random.default_rng(75)
    prob = linear_coupled_problem(rng)
    k = coupled_kernel(prob, [identity_map(b.dim) for b in prob.primal],
                       [identity_map(b.dim) for b in prob.dual],
                       [b.default_step for b in prob.primal], [b.default_step for b in prob.dual],
                       prob.skew_norm())
    yield "blockwise maps", prob.decomposition(), k, 1.0, rng.normal(size=prob.layout.total)
    prob = mixed_runs_problem()
    k = coupled_kernel(prob, [identity_map(b.dim) for b in prob.primal],
                       [identity_map(b.dim) for b in prob.dual],
                       [b.default_step for b in prob.primal], [b.default_step for b in prob.dual],
                       prob.skew_norm())
    yield "blockwise maps in mixed runs", prob.decomposition(), k, 1.0, rng.normal(size=k.dim)
    # A kernel built by hand: a fold at gamma = 0.4, a scaled-identity base at 1.5, and
    # nonzero offsets from the affine blocks' b.
    layout = BlockLayout((3, 2, 2))
    set_part = BlockDiagonalOperator(
        [affine_resolvent_operator(np.eye(3) + 0.5 * skew_unit(rng, 3), rng.normal(size=3)),
         scaled_identity_operator(2, 0.5), affine_resolvent_operator(2.0 * np.eye(2), [1.0, -1.0])],
        layout)
    S = affine_map(skew_unit(rng, 7))
    base = [(None, 2.0), (identity_map(2, 1.5), 1.0), (None, 1.0)]
    yield ("blockwise fold at gamma 0.4", MDecomposition(set_part, S),
           Kernel(7, base, layout, (0.4, S), 0.6, 2.4), 0.4, rng.normal(size=7))
    yield ("blockwise without a fold", MDecomposition(set_part),
           Kernel(7, base, layout, None, 1.0, 2.0), 0.7, rng.normal(size=7))
    kernel_of, solve = staged_coupled_case(prob)
    yield "staged solve_coupled", prob.decomposition(), kernel_of, 1.0, None, solve
    # Multi-block kernels whose plan mixes affine runs with a solve_base_inclusion entry
    # (MIXED_CASES): a box block has no linear_resolvent hook, and an affine_map stage
    # operator F is a general block.
    couplings = {(0, 0): [[1.0, 0.5], [-0.3, 1.0]], (0, 1): [[0.4], [-0.6]]}
    dual = [DualBlock(B=affine_resolvent_operator([[1.0, 0.2], [0.2, 0.8]]), r=[0.2, -0.1])]
    boxed = CoupledProblem(
        [PrimalBlock(A=box_normal_cone([-0.5, -0.5], [0.5, 0.5]), s_star=[0.6, -0.4]),
         PrimalBlock(A=affine_resolvent_operator([[1.5]]), s_star=[0.3])], dual, couplings)
    F = affine_map(np.eye(2) + 0.5 * skew_unit(rng, 2), rng.normal(size=2))
    general = CoupledProblem(
        [PrimalBlock(A=affine_resolvent_operator([[1.2, 0.3], [-0.3, 1.0]]), s_star=[0.5, -0.2],
                     alpha=F.strong_monotonicity, chi=F.lipschitz),
         PrimalBlock(A=scaled_identity_operator(1, 1.5), s_star=[0.3])], dual, couplings)
    for name, prob, Fs in (("coupled box block", boxed, [identity_map(2), identity_map(1)]),
                           ("coupled affine_map stage F", general, [F, identity_map(1)])):
        k = coupled_kernel(prob, Fs, [identity_map(2)], [b.default_step for b in prob.primal],
                           [b.default_step for b in prob.dual], prob.skew_norm())
        yield name, prob.decomposition(), k, 1.0, rng.normal(size=k.dim)


MIXED_CASES = ("coupled box block", "coupled affine_map stage F")


@pytest.mark.parametrize("name", [case[0] for case in prepared_cases()])
def test_prepared_pairs_are_the_literal_pair_bit_for_bit(name):
    # The engine's pair, built once per stage, against K x, the backward
    # solve, K y and the division, through the public kernel calls, each
    # warm-started from the engine's previous y.
    _, m, kernel_of, step_of, x0, *solve = next(c for c in prepared_cases() if c[0] == name)
    cfg = SolverConfig(epsilon=0.05, step_size=step_of, max_iter=50,
                       tol_residual=1e-300, tol_step=1e-300)
    res = solve[0](cfg) if solve else solve_weak(m, kernel_of, None, cfg, x0)
    assert res.iterations == 50
    start = None
    for rec in res.trace:
        k = kernel_of(rec.n) if callable(kernel_of) else kernel_of
        y, y_star = literal_warped_pair(m, k, rec.gamma, rec.x_tilde, start)
        assert y.tobytes() == rec.y.tobytes() and y_star.tobytes() == rec.y_star.tobytes(), rec.n
        start = rec.y


@pytest.mark.parametrize("name", [case[0] for case in prepared_cases()])
def test_warped_resolvent_is_the_literal_pair_y_bit_for_bit(name):
    # The public warped resolvent, cold, against the y of K x, the backward solve, K y.
    _, m, kernel_of, step_of, x0, *_ = next(c for c in prepared_cases() if c[0] == name)
    k = kernel_of(0) if callable(kernel_of) else kernel_of
    gamma = step_of(0) if callable(step_of) else step_of
    xs = list(np.random.default_rng(76).normal(size=(3, k.dim)))
    for x in xs if x0 is None else [x0] + xs:
        y = warped_resolvent(m, k, gamma, x)
        assert y.tobytes() == literal_warped_pair(m, k, gamma, x)[0].tobytes()
        assert not y.flags.writeable  # graph_point's frozen y


def recorded_plans(monkeypatch):
    """The plans the pairs and solves run; the list grows by one per ``_run_plan`` call."""
    plans, run = [], kernels._run_plan
    monkeypatch.setattr(kernels, "_run_plan",
                        lambda plan, *args: plans.append(plan) or run(plan, *args))
    return plans


@pytest.mark.parametrize("name", MIXED_CASES)
def test_mixed_cases_run_one_entry_beside_their_affine_runs(monkeypatch, name):
    # K x, one run of the stage's plan, K y: the first primal block is the one entry,
    # and the other blocks, all with hooks on scalar bases, make the runs.
    calls, real = [], Kernel._eval
    monkeypatch.setattr(Kernel, "_eval", lambda self, x: calls.append("_eval") or real(self, x))
    plans = recorded_plans(monkeypatch)
    _, m, k, gamma, x0 = next(c for c in prepared_cases() if c[0] == name)
    k._pair(m.set_part, gamma)(x0)
    assert calls == ["_eval", "_eval"] and len(plans) == 1
    runs, _, entries = plans[0]
    assert [entry[0] for entry in entries] == [slice(0, 2)]
    assert [sl for sl, _, _ in runs] == [slice(2, 3), slice(3, 5), slice(5, 7)]


def test_coupled_solves_on_affine_blocks_run_affine_maps_only(monkeypatch):
    # Every stage of a coupled run on affine blocks, staged or not, runs a plan of
    # affine runs with no solve_base_inclusion entry.
    calls = []
    monkeypatch.setattr(kernels, "solve_base_inclusion", lambda *args: calls.append(args))
    plans = recorded_plans(monkeypatch)
    prob = mixed_runs_problem()
    cfg = SolverConfig(max_iter=20000, tol_residual=1e-8, tol_step=1e-8)
    res = solve_coupled(prob, cfg)
    assert res.converged and len(plans) == res.iterations
    assert staged_coupled_case(prob)[1](tight(50)).iterations == 50
    assert len(plans) == res.iterations + 50 and calls == []
    assert all(runs and not entries for runs, _, entries in plans)


def test_general_base_pair_hands_its_w_y_to_the_next_solve(monkeypatch):
    # K y = W y - gamma B y computes W y; the next solve starts at y and takes
    # it as W(start).  So a warm-started iteration applies W once less than
    # the literal pair does, with the same bits: 7 affine_map applications per
    # iteration, not 8, on the regression recipe.
    A, B, W, gamma, eps, cfg, x0, _ = general_base_problem()
    m, k = MDecomposition(A, B), fbf_kernel(W, B, gamma, eps)
    calls = {W: 0, B: 0}
    for op in (W, B):
        def counting(x, op=op, fn=op._apply):
            calls[op] += 1
            return fn(x)

        monkeypatch.setattr(op, "_apply", counting)
    res = solve_weak(m, k, None, cfg, x0)
    engine = dict(calls)
    calls.update({W: 0, B: 0})
    start = None
    for rec in res.trace:
        y, y_star = literal_warped_pair(m, k, gamma, rec.x_tilde, start)
        assert y.tobytes() == rec.y.tobytes() and y_star.tobytes() == rec.y_star.tobytes()
        start = rec.y
    n = res.iterations
    assert res.converged and n > 10
    assert engine[B] == calls[B] == 2 * n
    assert engine[W] == calls[W] - (n - 1)
