import numpy as np
import pytest

from warpsplit import (
    BlockDiagonalOperator,
    BlockLayout,
    ConfigurationError,
    CoupledProblem,
    DimensionMismatchError,
    DualBlock,
    GraphPoint,
    LinearMap,
    NonFiniteEntryError,
    PrimalBlock,
    SetValuedOperator,
    SingleValuedOperator,
    UnknownOperatorError,
    affine_map,
    affine_resolvent_operator,
    affine_set_normal_cone,
    ball_normal_cone,
    box_normal_cone,
    constant_operator,
    halfspace_normal_cone,
    identity_map,
    inner,
    l1_operator,
    make_set_valued,
    make_single_valued,
    saddle_skew_map,
    scaled_identity_operator,
    zero_map,
    zero_operator,
)
from warpsplit.space import aligned


def library_instances(dim=3, rng=None):
    rng = rng or np.random.default_rng(0)
    G = rng.normal(size=(dim, dim))
    S = rng.normal(size=(dim, dim))
    return [
        box_normal_cone(-np.ones(dim), np.ones(dim)),
        ball_normal_cone(np.zeros(dim), 1.5),
        halfspace_normal_cone(rng.normal(size=dim), 0.3),
        affine_set_normal_cone(rng.normal(size=(1, dim)), [0.2]),
        l1_operator(dim, 0.7),
        zero_operator(dim),
        scaled_identity_operator(dim, 2.0),
        affine_resolvent_operator(G @ G.T / dim + 0.2 * (S - S.T)),
    ]


def test_resolvent_normal_cone_is_projection():
    A = ball_normal_cone(np.zeros(2), 1.0)
    np.testing.assert_allclose(A.resolvent(1.0, np.array([2.0, 0.0])), [1.0, 0.0])


def test_resolvent_identity_halves():
    A = scaled_identity_operator(2, 1.0)
    np.testing.assert_array_equal(A.resolvent(1.0, np.array([4.0, 2.0])), [2.0, 1.0])


def test_resolvent_soft_threshold_small_input_maps_to_zero():
    A = l1_operator(1)
    np.testing.assert_array_equal(A.resolvent(0.5, np.array([0.3])), [0.0])


def test_resolvent_requires_positive_gamma():
    A = zero_operator(1)
    with pytest.raises(ConfigurationError):
        A.resolvent(0.0, np.array([1.0]))


def test_inverse_resolvent_identity_operator():
    A = scaled_identity_operator(2, 1.0)  # A^{-1} = Id
    np.testing.assert_allclose(A.inverse().resolvent(1.0, np.array([2.0, 0.0])), [1.0, 0.0])


def test_inverse_resolvent_of_point_normal_cone():
    # A = normal cone of {0}: A^{-1} = 0, so its resolvent is the identity.
    A = affine_set_normal_cone(np.eye(2), np.zeros(2))
    np.testing.assert_allclose(A.inverse().resolvent(1.0, np.array([3.0, 4.0])), [3.0, 4.0])


def test_inverse_resolvent_l1_is_interval_projection():
    # (d|.|)^{-1} is the normal-cone inverse: its resolvent projects onto [-1, 1].
    A = l1_operator(1)
    np.testing.assert_allclose(A.inverse().resolvent(1.0, np.array([5.0])), [1.0])
    np.testing.assert_allclose(A.inverse().resolvent(1.0, np.array([-0.4])), [-0.4])


def test_inverse_resolvent_decomposition_identity():
    rng = np.random.default_rng(6)
    for A in library_instances(3, rng):
        for _ in range(50):
            gamma = float(rng.uniform(0.2, 3.0))
            x = rng.normal(size=3) * 2
            lhs = A.inverse().resolvent(gamma, x) + gamma * A.resolvent(1.0 / gamma, x / gamma)
            assert np.linalg.norm(lhs - x) <= 1e-12 * (1 + np.linalg.norm(x))


def test_firm_nonexpansiveness_of_library_resolvents():
    rng = np.random.default_rng(7)
    instances = library_instances(3, rng)
    pairs_per_op = 10_000 // len(instances) + 1
    for A in instances:
        for _ in range(pairs_per_op):
            gamma = float(rng.uniform(0.1, 4.0))
            x = rng.normal(size=3) * 3
            y = rng.normal(size=3) * 3
            jx = A.resolvent(gamma, x)
            jy = A.resolvent(gamma, y)
            lhs = np.dot(jx - jy, jx - jy)
            rhs = np.dot(x - y, jx - jy)
            assert lhs <= rhs + 1e-10, f"{A.name} not firmly nonexpansive"


def test_graph_consistency_of_resolvents():
    rng = np.random.default_rng(8)
    for A in library_instances(3, rng):
        for _ in range(100):
            gamma = float(rng.uniform(0.2, 2.0))
            x = rng.normal(size=3) * 2
            p = A.resolvent(gamma, x)
            p_star = (x - p) / gamma
            assert np.linalg.norm(A.resolvent(gamma, p + gamma * p_star) - p) <= 1e-10
            # p* lies in A p, so the unit-gamma resolvent recovers p as well.
            assert np.linalg.norm(A.resolvent(1.0, p + p_star) - p) <= 1e-10


def test_constant_operator_resolvent():
    A = constant_operator([2.0, -1.0])
    np.testing.assert_array_equal(A.resolvent(0.5, np.array([1.0, 1.0])), [0.0, 1.5])


def test_add_constant_shifts_resolvent():
    A = l1_operator(1)
    shifted = A.add_constant([-1.0])  # x -> d|x| - 1
    # v in p + gamma(d|p| - 1) <=> p = J_{gamma d|.|}(v + gamma)
    np.testing.assert_allclose(shifted.resolvent(2.0, np.array([0.5])),
                               A.resolvent(2.0, np.array([2.5])))


def test_saddle_skew_map_matrix_and_norm():
    # S = [[0, L*], [-L, 0]] is the read-only matrix of the map, and its
    # declared Lipschitz constant |S| = |L| agrees with the spectral norm,
    # also where the squares of L's entries overflow or underflow.
    rng = np.random.default_rng(30)
    for _ in range(200):
        dz, dy = rng.integers(1, 9, size=2)
        L = rng.normal(size=(dz, dy)) * 10.0 ** rng.uniform(-300, 300)
        skew = saddle_skew_map(LinearMap(L))
        S = np.block([[np.zeros((dy, dy)), L.T], [-L, np.zeros((dz, dz))]])
        assert skew.matrix.tobytes() == S.tobytes() and not skew.matrix.flags.writeable
        u = rng.normal(size=dy + dz)
        assert skew(u).tobytes() == (S @ u).tobytes()
        ref = np.linalg.norm(L, 2)
        assert abs(skew.lipschitz - ref) <= 1e-15 * ref


@pytest.mark.parametrize("shape", [(2, 3), (1, 1), (0, 3), (3, 0), (0, 0)])
def test_saddle_skew_map_of_zero_or_empty_coupling_is_tiny(shape):
    assert saddle_skew_map(LinearMap(np.zeros(shape))).lipschitz == np.finfo(float).tiny


def test_affine_map_skew_constants():
    B = affine_map([[0.0, 1.0], [-1.0, 0.0]])
    assert B.monotone
    assert abs(B.lipschitz - 1.0) <= 1e-12
    rng = np.random.default_rng(9)
    for _ in range(200):
        x, y = rng.normal(size=2), rng.normal(size=2)
        d = x - y
        assert abs(inner(d, B(x) - B(y))) <= 1e-12  # skew part contributes nothing
        assert np.linalg.norm(B(x) - B(y)) <= (1 + 1e-12) * np.linalg.norm(d)


def test_single_valued_monotonicity_sampled():
    rng = np.random.default_rng(10)
    G = rng.normal(size=(3, 3))
    B = affine_map(G @ G.T / 3 + 0.1 * np.eye(3))
    for _ in range(500):
        x, y = rng.normal(size=3), rng.normal(size=3)
        d = x - y
        assert inner(d, B(x) - B(y)) >= -1e-12 * np.dot(d, d)
        assert np.linalg.norm(B(x) - B(y)) <= B.lipschitz * np.linalg.norm(d) * (1 + 1e-12)


def test_catalog_builds_and_unknown_name():
    A = make_set_valued("box", {"lo": np.array([0.0, 0.0]), "hi": np.array([1.0, 1.0])}, 2)
    np.testing.assert_array_equal(A.resolvent(1.0, np.array([2.0, -1.0])), [1.0, 0.0])
    with pytest.raises(UnknownOperatorError):
        make_set_valued("no_such_operator", {}, 2)
    with pytest.raises(UnknownOperatorError):
        make_single_valued("no_such_map", {}, 2)
    with pytest.raises(ConfigurationError):
        make_set_valued("ball", {}, 2)  # missing radius


@pytest.mark.parametrize("make, kind, name, known", [
    (make_set_valued, "set-valued", "affine",
     "['affine', 'affine_set', 'ball', 'box', 'constant', 'halfspace', 'l1', "
     "'scaled_identity', 'zero']"),
    (make_single_valued, "single-valued", "affine_map",
     "['affine_map', 'identity_map', 'zero_map']"),
], ids=["set_valued", "single_valued"])
def test_catalog_error_messages(make, kind, name, known):
    # The message itself (args[0]; the error's str() is the same text, unquoted).
    with pytest.raises(UnknownOperatorError) as unknown:
        make("nope", {}, 2)
    assert unknown.value.args[0] == f"unknown {kind} operator 'nope'; known: {known}"
    with pytest.raises(ConfigurationError) as missing:
        make(name, {}, 2)
    assert str(missing.value) == f"operator {name!r} is missing parameter 'matrix'"
    with pytest.raises(DimensionMismatchError) as mismatch:
        make(name, {"matrix": np.eye(3)}, 2)
    assert str(mismatch.value) == f"operator {name!r} has dimension 3, problem expects 2"


def test_graph_point_dimension_check():
    with pytest.raises(DimensionMismatchError):
        GraphPoint(y=np.array([1.0, 2.0]), y_star=np.array([1.0]))


def test_affine_resolvent_cache_follows_gamma():
    rng = np.random.default_rng(70)
    dim = 4
    G, S = rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim))
    M = G @ G.T / dim + 0.5 * (S - S.T)
    b = rng.normal(size=dim)
    op = affine_resolvent_operator(M, b)
    for g in (0.5, 2.0, 0.5, 0.5, 3.0, 2.0, 0.5):
        x = rng.normal(size=dim)
        ref = np.linalg.solve(np.eye(dim) + g * M, x - g * b)
        assert np.linalg.norm(op.resolvent(g, x) - ref) <= 1e-12 * (1 + np.linalg.norm(ref))


def _monotone(rng, d):
    G, S = rng.normal(size=(d, d)), rng.normal(size=(d, d))
    return G @ G.T / d + 0.5 * (S - S.T)


def _at(m, offset):
    """A copy of the matrix m whose data starts at ``offset`` mod 64."""
    buf = np.empty(m.nbytes + 64, np.uint8)
    out = np.ndarray(m.shape, m.dtype, buf, (offset - buf.ctypes.data) % 64)
    out[...] = m
    return out


@pytest.mark.parametrize("d", [9, 200])
def test_wide_dense_matrices_start_on_a_cache_line(d):
    # affine_map's M is multiplied at every iteration: it starts at 0 mod 64,
    # is read-only and holds its input's bits.  Eight are kept alive at once,
    # so that a heap that happens to align one proves nothing.
    rng = np.random.default_rng(d)
    kept = []
    for _ in range(8):
        M, b = _monotone(rng, d), rng.normal(size=d)
        W = affine_map(M, b)
        assert W.matrix.ctypes.data % 64 == 0 and not W.matrix.flags.writeable
        assert W.matrix.flags.c_contiguous and W.matrix.tobytes() == M.tobytes()
        # The product's bits do not depend on where the matrix sits.
        x = rng.normal(size=d)
        for offset in (8, 16, 32):
            assert W(x).tobytes() == (_at(M, offset) @ x + b).tobytes()
        kept.append(W)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_narrow_affine_map_keeps_its_own_copy(d):
    # A row of at most 8 floats fits in one cache line: affine_map keeps the
    # array it made from M, read-only, and copies it no second time.
    M = _monotone(np.random.default_rng(d), d)
    W = affine_map(M)
    assert W.matrix.flags.owndata and W.matrix.base is None
    assert not W.matrix.flags.writeable and W.matrix.tobytes() == M.tobytes()
    assert aligned(W.matrix) is W.matrix


def test_fortran_ordered_matrix_keeps_its_order():
    # The aligned copy keeps the memory order of what it copies, so a
    # product reads the entries in the order it did before.
    M = np.asfortranarray(_monotone(np.random.default_rng(5), 12))
    got = aligned(M)
    assert got.flags.f_contiguous and not got.flags.c_contiguous
    assert got.ctypes.data % 64 == 0 and np.array_equal(got, M)


def test_affine_resolvent_rejects_non_monotone_matrix():
    with pytest.raises(ConfigurationError, match="not monotone"):
        affine_resolvent_operator([[-0.5]])
    with pytest.raises(ConfigurationError, match="not monotone"):
        affine_resolvent_operator([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(ConfigurationError):
        make_set_valued("affine", {"matrix": [[-2.0]]}, 1)
    # Monotone edge cases stay accepted: pure skew, and rank-deficient PSD
    # whose smallest computed eigenvalue is roundoff below zero.
    affine_resolvent_operator([[0.0, 3.0], [-3.0, 0.0]])
    g = np.random.default_rng(71).normal(size=(5, 2)) * 1e3
    affine_resolvent_operator(g @ g.T)


def _fn(x):
    return x


@pytest.mark.parametrize("call, error, message", [
    (lambda: SingleValuedOperator(2, _fn, 0.0), ConfigurationError,
     "declared Lipschitz constant must be > 0, got 0.0"),
    (lambda: SingleValuedOperator(2, _fn, 1.0, strong_monotonicity=0.0), ConfigurationError,
     "declared strong monotonicity must be > 0, got 0.0"),
    (lambda: box_normal_cone([1.0, 0.0], [0.0, 1.0]), ConfigurationError,
     "box bounds must satisfy lo <= hi componentwise"),
    (lambda: ball_normal_cone([0.0, 0.0], 0.0), ConfigurationError,
     "ball radius must be > 0, got 0.0"),
    (lambda: halfspace_normal_cone([0.0, 0.0], 1.0), ConfigurationError,
     "half-space normal must be nonzero"),
    (lambda: affine_set_normal_cone([[1.0, 0.0]], [1.0, 2.0]), DimensionMismatchError,
     "affine set: A rows must match b"),
    (lambda: affine_set_normal_cone([[np.nan, 1.0]], [1.0]), NonFiniteEntryError,
     "affine set matrix contains NaN or Inf"),
    (lambda: l1_operator(2, 0.0), ConfigurationError, "l1 weight must be > 0, got 0.0"),
    (lambda: scaled_identity_operator(2, -1.0), ConfigurationError,
     "scaled identity needs scale >= 0 for monotonicity, got -1.0"),
    (lambda: affine_resolvent_operator([[1.0, 2.0]]), DimensionMismatchError,
     "affine operator matrix must be square, got (1, 2)"),
    (lambda: affine_map([[1.0, 2.0]]), DimensionMismatchError,
     "affine map matrix must be square, got (1, 2)"),
    (lambda: affine_map([[np.nan, 0.0], [0.0, 1.0]]), NonFiniteEntryError,
     "affine map matrix contains NaN or Inf"),
    (lambda: identity_map(2, 0.0), ConfigurationError, "identity map scale must be > 0, got 0.0"),
    (lambda: BlockDiagonalOperator([zero_operator(2)], BlockLayout((3,))), DimensionMismatchError,
     "block operator dims do not match layout"),
    (lambda: zero_operator(2).resolvent(0.0, [1.0, 1.0]), ConfigurationError,
     "resolvent needs gamma > 0, got 0.0"),
], ids=["lipschitz-positive", "declared-modulus-positive", "box-bounds", "ball-radius",
        "halfspace-normal", "affine-set-rows", "affine-set-finite", "l1-weight",
        "scaled-identity-scale", "affine-operator-square", "affine-map-square", "affine-map-finite",
        "identity-map-scale", "block-dims", "resolvent-gamma"])
def test_guard_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_shaped_oracles_return_a_new_vector_of_their_dimension():
    # The engine calls a shaped operator's oracle raw, with no shape check:
    # every catalog and derived operator must return a new float vector of
    # its dimension.  An operator built on a user callable is not shaped.
    rng = np.random.default_rng(12)
    d = 3
    box = box_normal_cone(-np.ones(d), np.ones(d))
    prob = CoupledProblem([PrimalBlock(A=box, C=identity_map(d))], [DualBlock(B=zero_operator(2))],
                          {(0, 0): rng.normal(size=(2, d))})
    set_ops = library_instances(d, rng) + [
        constant_operator(rng.normal(size=d)), box.inverse(), box.add_constant(rng.normal(size=d)),
        BlockDiagonalOperator([box, zero_operator(2)])]
    maps = [affine_map(np.eye(d) + 0.5 * (np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)),
                       rng.normal(size=d)),
            zero_map(d), identity_map(d, 2.0), saddle_skew_map(LinearMap(rng.normal(size=(2, d)))),
            prob.kt_forward()]
    calls = [(op, lambda x, op=op, g=g: op._resolvent(g, x)) for op in set_ops for g in (0.5, 2.0)]
    calls += [(op, op._fn) for op in maps]
    for op, call in calls:
        assert op.shaped, op
        for scale in (0.1, 3.0):
            x = rng.normal(size=op.dim) * scale
            y = call(x)
            assert type(y) is np.ndarray and y.dtype == float and y.shape == (op.dim,), op
            assert not np.shares_memory(y, x), op
    assert not SetValuedOperator(d, lambda g, x: x).shaped
    assert not SingleValuedOperator(d, _fn, 1.0).shaped
