import numpy as np
import pytest

from warpsplit import (
    BlockLayout,
    DimensionMismatchError,
    LinearMap,
    NonFiniteEntryError,
    inner,
    vector,
)


def test_inner_orthogonal():
    assert inner(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_inner_norm_squared():
    assert inner(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 25.0


def test_inner_hand_sum():
    assert inner(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_vector_rejects_nan_and_inf():
    with pytest.raises(NonFiniteEntryError):
        vector([1.0, np.nan])
    with pytest.raises(NonFiniteEntryError):
        vector([np.inf, 0.0])


def test_vector_of_a_scalar_has_one_coordinate():
    v = vector(3.0)
    assert v.shape == (1,) and v[0] == 3.0 and not v.flags.writeable


def test_vector_is_frozen():
    v = vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v[0] = 3.0


def test_adjoint_identity_map():
    L = LinearMap(np.eye(2))
    np.testing.assert_array_equal(L.adjoint_apply(np.array([1.0, 2.0])), [1.0, 2.0])


def test_adjoint_transpose_by_hand():
    L = LinearMap([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(L.adjoint_apply(np.array([1.0, 0.0])), [0.0, 1.0])


def test_adjoint_column_map():
    L = LinearMap([[1.0], [2.0]])  # maps R -> R^2
    np.testing.assert_array_equal(L.adjoint_apply(np.array([1.0, 1.0])), [3.0])


def test_adjoint_involution():
    # The adjoint of the transpose map is the map itself.
    rng = np.random.default_rng(1)
    L = LinearMap(rng.normal(size=(3, 5)))
    x = rng.normal(size=5)
    np.testing.assert_array_equal(LinearMap(L.matrix.T).adjoint_apply(x), L(x))


def test_adjoint_pairing_identity_sampled():
    rng = np.random.default_rng(2)
    for _ in range(200):
        L = LinearMap(rng.normal(size=(4, 3)))
        x = rng.normal(size=3)
        y = rng.normal(size=4)
        lhs = inner(L(x), y)
        rhs = inner(x, L.adjoint_apply(y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(x) * np.linalg.norm(y))


def test_cauchy_schwarz_sampled():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        d = rng.integers(1, 6)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        assert abs(inner(x, y)) <= np.linalg.norm(x) * np.linalg.norm(y) + 1e-12


def test_block_layout_split_join_identity():
    layout = BlockLayout((1, 4, 2))
    rng = np.random.default_rng(5)
    v = rng.normal(size=7)
    np.testing.assert_array_equal(layout.join(layout.split(v)), v)


def test_linear_map_dim_errors():
    L = LinearMap([[1.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        L(np.array([1.0]))
    with pytest.raises(DimensionMismatchError):
        L.adjoint_apply(np.array([1.0, 2.0]))


@pytest.mark.parametrize("call, message", [
    (lambda: vector([[1.0]]), "expected a 1-D vector, got shape (1, 1)"),
    (lambda: BlockLayout((2, 0)), "block dimensions must be positive, got (2, 0)"),
    (lambda: BlockLayout((2, 1)).join([np.zeros(2)]), "layout has 2 blocks, got 1"),
    (lambda: LinearMap([1.0, 2.0]), "matrix must be 2-D, got shape (2,)"),
], ids=["vector-ndim", "layout-positive", "join-block-count", "linear-map-2d"])
def test_guard_raises_its_type_and_message(call, message):
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    assert type(exc.value) is DimensionMismatchError and str(exc.value) == message
