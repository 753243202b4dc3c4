import numpy as np
import pytest

from warpsplit import (
    ConfigurationError,
    GraphPoint,
    InfeasibleCutsError,
    haugazeau_Q,
)

from oracles import (
    literal_haugazeau_Q,
    project_halfspace,
    qp_two_halfspaces,
    relaxed_projection_step,
)


def gp(y, y_star):
    return GraphPoint(y=np.asarray(y, dtype=float), y_star=np.asarray(y_star, dtype=float))


def test_relaxed_step_else_branch_keeps_iterate():
    # <y - x, y*> = 5 >= 0: the iterate already satisfies the cut.
    x = np.array([-5.0, -1.0])
    out = relaxed_projection_step(x, gp([0.0, 0.0], [1.0, 0.0]), 1.0)
    np.testing.assert_array_equal(out, x)


def test_relaxed_step_projects_onto_cut():
    out = relaxed_projection_step(np.zeros(2), gp([1.0, 0.0], [-1.0, 0.0]), 1.0)
    expected = project_halfspace(np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    np.testing.assert_allclose(out, expected)
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_relaxed_step_reflection():
    out = relaxed_projection_step(np.zeros(2), gp([1.0, 0.0], [-1.0, 0.0]), 2.0 - 1e-12)
    np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-11)


def test_relaxed_step_lambda_range():
    with pytest.raises(ConfigurationError):
        relaxed_projection_step(np.zeros(2), gp([1.0, 0.0], [-1.0, 0.0]), 2.0)


def test_relaxed_step_matches_relaxed_halfspace_projection():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(1, 6))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        ys = rng.normal(size=d)
        lam = float(rng.uniform(0.05, 1.95))
        out = relaxed_projection_step(x, gp(y, ys), lam)
        proj = project_halfspace(x, y, ys)
        np.testing.assert_allclose(out, x + lam * (proj - x), atol=1e-12)


def test_fejer_inequality_for_cut_members():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        ys = rng.normal(size=d)
        lam = float(rng.uniform(0.05, 1.95))
        point = gp(y, ys)
        x_next = relaxed_projection_step(x, point, lam)
        proj = project_halfspace(x, y, ys)
        # z in the half-space: z = y - t * ys
        z = y - float(rng.uniform(0, 2)) * ys
        lhs = np.dot(x_next - z, x_next - z)
        rhs = np.dot(x - z, x - z) - lam * (2 - lam) * np.dot(proj - x, proj - x)
        assert lhs <= rhs + 1e-10


def test_haugazeau_anchor_equals_current_returns_candidate():
    out = haugazeau_Q(np.array([2.0, 1.0]), np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_haugazeau_orthogonal_cuts():
    out = haugazeau_Q(np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [1.0, 1.0])
    oracle = qp_two_halfspaces(np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, oracle)


def test_haugazeau_disjoint_cuts_raise():
    with pytest.raises(InfeasibleCutsError):
        haugazeau_Q(np.zeros(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_haugazeau_matches_qp_oracle_sampled():
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        x0 = rng.normal(size=d) * 2
        x = rng.normal(size=d) * 2
        xh = rng.normal(size=d) * 2
        oracle = qp_two_halfspaces(x0, x, xh)
        try:
            out = haugazeau_Q(x0, x, xh)
        except InfeasibleCutsError:
            assert oracle is None
            continue
        assert oracle is not None
        assert np.linalg.norm(out - oracle) <= 1e-8
        checked += 1
    assert checked > 1500


def test_haugazeau_output_lies_in_both_cuts():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        x0 = rng.normal(size=d)
        x = rng.normal(size=d)
        xh = rng.normal(size=d)
        try:
            q = haugazeau_Q(x0, x, xh)
        except InfeasibleCutsError:
            continue
        assert np.dot(q - x, x0 - x) <= 1e-10
        assert np.dot(q - xh, x - xh) <= 1e-10


def _pinning_triples(rng, count):
    # Four families, in turn: independent points; x_half = x + s*noise; and
    # x_half moved from x away from x0 (both closed-form branches, near the
    # degenerate edge) or towards it (disjoint cuts), plus s*noise.  The
    # noise scale s runs down to 1e-12, where rho cancels to roundoff.
    for k in range(count):
        d = int(rng.integers(1, 9))
        x0, x = rng.normal(size=d) * 2, rng.normal(size=d) * 2
        s = 10.0 ** rng.uniform(-12, 0)
        if k % 4 == 0:
            x_half = rng.normal(size=d) * 2
        elif k % 4 == 1:
            x_half = x + s * rng.normal(size=d)
        else:
            t = rng.uniform(0.1, 2.0) * (1.0 if k % 4 == 2 else -1.0)
            x_half = x + t * (x - x0) + s * rng.normal(size=d)
        yield x0, x, x_half


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleCutsError:
        return None


def test_haugazeau_matches_the_literal_formula_byte_for_byte():
    # The shipped arithmetic is the literal longdouble formula rewritten only
    # through exact identities: the same bytes, and the same triples raise.
    outcomes = {"infeasible": 0, "x_half": 0, "projected": 0}
    for x0, x, x_half in _pinning_triples(np.random.default_rng(15), 10_000):
        ref = _outcome(literal_haugazeau_Q, x0, x, x_half)
        out = _outcome(haugazeau_Q, x0, x, x_half)
        assert (ref is None) == (out is None), (x0, x, x_half)
        if ref is None:
            outcomes["infeasible"] += 1
            continue
        assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes(), (x0, x, x_half)
        outcomes["x_half" if np.array_equal(out, x_half) else "projected"] += 1
    assert min(outcomes.values()) >= 1_500, outcomes
