import numpy as np
import pytest

from warpsplit import (
    ConfigurationError,
    GraphPoint,
    InfeasibleCutsError,
    haugazeau_Q,
)
from warpsplit.fejer import CutRing

from oracles import (
    literal_haugazeau_Q,
    project_halfspace,
    qp_polyhedron,
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


# ---------------------------------------------------------------------------
# The strong solver's cut ring
# ---------------------------------------------------------------------------

def _add(ring, y, y_star):
    # theta is taken at the ring's last projection, x0 before the first.
    z = ring.x0 if ring.z is None else ring.z
    ring.add(y, y_star, float(y_star @ y_star), float((y - z) @ y_star))


def _ring_cut(rng, d, kept):
    """A cut (y, y*) drawn at random, or, one time in four, built from a
    positive combination of recent cuts and shifted off it, so that it
    closes the set or nearly does (Farkas)."""
    if kept and rng.integers(4) == 0:
        c = rng.uniform(0.2, 1.0, len(kept))
        normal = -sum(ci * n for ci, (n, _) in zip(c, kept))
        offset = -sum(ci * b for ci, (_, b) in zip(c, kept))
        offset -= rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        nn = normal @ normal
        if nn > 1e-6:
            return normal * offset / nn, normal
    return rng.normal(size=d) * 2, rng.normal(size=d) * 2


def test_cut_ring_matches_the_polyhedron_oracle():
    # Runs of up to 5 cuts and 4 projections, d <= 6, rings that keep the
    # last 1 to 4 cuts (and older active ones), plus the bookkeeping cut.
    # Each projection is compared with the oracle over H(x0, x) and the
    # rows the ring keeps: from a new x (row 0 becomes H(x0, x)), from x0,
    # and from the last projection (the warm start).  The ring raises
    # exactly when the oracle finds the cuts disjoint.
    rng = np.random.default_rng(16)
    counts = {"fresh": 0, "warm": 0, "disjoint": 0}
    worst = 0.0
    while counts["fresh"] + counts["warm"] < 1000:
        d, size = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        x0 = rng.normal(size=d) * 2
        ring = CutRing(x0, size)
        kept, last = [], None
        for _ in range(4):
            for _ in range(min(int(rng.integers(1, 3)), 5 - len(kept))):
                y, y_star = _ring_cut(rng, d, kept)
                _add(ring, y, y_star)
                kept.append((y_star, float(y_star @ y)))
            warm = last is not None and rng.random() < 0.5
            x = last if warm else (x0 if rng.random() < 0.2 else rng.normal(size=d) * 2)
            try:
                out = ring.project(x)
            except InfeasibleCutsError:
                out = None
            # The rows as the projection left them: row 0 is H(x0, x) for a new x.
            normals = [a for a in ring.normals if a @ a > 0]
            offsets = [float(a @ x0 - s) for a, s in zip(ring.normals, ring.s) if a @ a > 0]
            if not np.array_equal(x, x0):
                normals.append(x0 - x)
                offsets.append(float((x0 - x) @ x))
            ref = qp_polyhedron(x0, normals, offsets)
            assert (out is None) == (ref is None)
            if out is None:
                counts["disjoint"] += 1
                break
            if not warm and not np.array_equal(x, x0):
                np.testing.assert_allclose(ring.normals[0] * np.linalg.norm(x0 - x), x0 - x)
            worst = max(worst, np.linalg.norm(out - ref) / max(1.0, np.linalg.norm(ref - x0)))
            counts["warm" if warm else "fresh"] += 1
            last = out
    assert worst <= 1e-8, worst
    assert counts["fresh"] >= 300 and counts["warm"] >= 300 and counts["disjoint"] >= 100, counts


def test_cut_ring_keeps_active_cuts_past_their_turn():
    # Two cuts meet at the projection (1, 1) of x0; idle cuts that x0's
    # projection already meets then fill the ring, and the active two stay.
    x0 = np.array([3.0, 3.0])
    ring = CutRing(x0, size=3)
    _add(ring, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    _add(ring, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    z = ring.project(x0)
    np.testing.assert_allclose(z, [1.0, 1.0])
    for _ in range(5):
        _add(ring, np.array([-5.0, 0.0]), np.array([-1.0, 0.0]))
        z = ring.project(z)
        np.testing.assert_allclose(z, [1.0, 1.0])
    assert sorted(ring.active) == [1, 2]


def test_cut_ring_disjoint_cuts_raise():
    ring = CutRing(np.zeros(2))
    _add(ring, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))  # z_1 >= 1
    _add(ring, np.array([-1.0, 0.0]), np.array([1.0, 0.0]))  # z_1 <= -1
    with pytest.raises(InfeasibleCutsError):
        ring.project(np.zeros(2))


def test_cut_ring_recovers_from_rounding_in_its_dual_basis():
    # x0 = (3, 3) projects to the vertex (1, 1) of z_1 <= 1, z_2 <= 1.  Error
    # planted in the dual basis, as rounding builds it up, sends the next
    # swap off the active planes; the ring then solves its active set afresh
    # and still returns the projection onto the three cuts.
    x0 = np.array([3.0, 3.0])
    ring = CutRing(x0, size=4)
    _add(ring, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    _add(ring, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    z = ring.project(x0)
    ring.dual[:2] += [[0.0, 1e-3], [2e-3, 0.0]]
    _add(ring, np.array([0.75, 0.75]), np.array([1.0, 1.0]))  # z_1 + z_2 <= 1.5
    np.testing.assert_allclose(ring.project(z), [0.75, 0.75], atol=1e-12)


def test_cut_ring_skips_a_cut_without_a_finite_normal():
    ring = CutRing(np.zeros(2))
    for sigma in (0.0, np.inf, np.nan):
        ring.add(np.ones(2), np.ones(2), sigma, -1.0)
    assert not ring.s.any()
    np.testing.assert_array_equal(ring.project(np.zeros(2)), [0.0, 0.0])
