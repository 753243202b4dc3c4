"""Outputs are new arrays, shape errors keep their wording, constants are checked up front.

The kernels skip products and divisions by exactly 1.0, and the engine uses
x_n itself as x~_n when there is no perturbation.  None of that may hand a
caller back its own array: ``Kernel.eval``, ``Kernel.backward_solve``,
``apply_policy`` and ``graph_point`` return arrays that are neither their
argument nor an iterate held in the history.  Shape-check messages are
formatted only on failure, and must still read as before.
"""

import numpy as np
import pytest

from warpsplit import (
    ConfigurationError,
    DimensionMismatchError,
    MDecomposition,
    PerturbationPolicy,
    SetValuedOperator,
    SingleValuedOperator,
    SolverConfig,
    affine_map,
    apply_policy,
    box_normal_cone,
    fbf_kernel,
    graph_point,
    identity_kernel,
    identity_map,
    map_kernel,
    solve_strong,
    solve_weak,
)
from warpsplit.kernels import solve_base_inclusion

D = 3
ROT = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, -0.5, 0.0]])


def echo_operator(name="echo"):
    """The zero operator through a resolvent that returns its own argument."""
    return SetValuedOperator(D, lambda g, x: x, name=name)


def unit_kernels():
    B = affine_map(ROT)
    return {
        "identity": (identity_kernel(D), None),
        "unit identity_map": (map_kernel(identity_map(D)), None),
        "fbf without B": (fbf_kernel(identity_map(D), None, 1.0, 0.5), None),
        "fbf": (fbf_kernel(identity_map(D), B, 0.5, 0.05), B),
    }


@pytest.mark.parametrize("name", list(unit_kernels()))
def test_kernel_outputs_are_new_arrays(name):
    kernel, B = unit_kernels()[name]
    gamma = kernel.fold[0] if kernel.fold is not None else 1.0
    x = np.array([0.3, -1.2, 2.0])
    start = np.array([1.0, 1.0, 1.0])
    w = kernel.eval(x)
    assert w is not x and not np.shares_memory(w, x)
    np.testing.assert_array_equal(x, [0.3, -1.2, 2.0])
    for A in (echo_operator(), box_normal_cone(-np.ones(D), np.ones(D))):
        for warm in (None, start):
            p = kernel.backward_solve(gamma, A, w, warm)
            assert p is not w and p is not warm and not np.shares_memory(p, w)
    m = MDecomposition(box_normal_cone(-np.ones(D), np.ones(D)), B)
    gp = graph_point(m, kernel, gamma, x)
    assert gp.y is not x and gp.y_star is not x


def test_identity_kernel_eval_is_bitwise_its_argument():
    x = np.array([-0.0, 5e-324, -1e308])
    for kernel, _ in unit_kernels().values():
        if kernel.fold is None:
            out = kernel.eval(x)
            assert out.tobytes() == x.tobytes() and out is not x


def test_unit_closed_form_solve_copies_an_echoed_argument():
    v = np.array([1.0, -2.0, 3.0])
    for W in (None, identity_map(D)):
        p = solve_base_inclusion(W, 0.7, echo_operator(), v)
        assert p is not v and p.tobytes() == v.tobytes()


@pytest.mark.parametrize("policy", [
    None,
    PerturbationPolicy(),
    PerturbationPolicy.additive(lambda n: np.zeros(D)),
    PerturbationPolicy.inertial(0.0),
    PerturbationPolicy.memory([0.0, 1.0]),
])
def test_apply_policy_returns_a_new_array(policy):
    history = [np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5])]
    for n in range(3):
        out = apply_policy(policy, history, n)
        np.testing.assert_array_equal(out, history[-1])
        assert all(out is not h and not np.shares_memory(out, h) for h in history)


def test_engine_without_policy_evaluates_at_the_iterate():
    m = MDecomposition(box_normal_cone(-np.ones(D), np.ones(D)), affine_map(ROT))
    k = fbf_kernel(identity_map(D), m.forward_part, 0.5, 0.05)
    res = solve_weak(m, k, None, SolverConfig(epsilon=0.05, max_iter=20), [2.0, -3.0, 1.0])
    for rec in res.trace:
        np.testing.assert_array_equal(rec.x_tilde, rec.x)


# ---------------------------------------------------------------------------
# Shape-check messages, word for word
# ---------------------------------------------------------------------------

def test_apply_shape_error_names_the_operator_and_shape():
    op = SingleValuedOperator(2, lambda x: np.zeros(3), lipschitz=1.0, name="50%_map")
    for call in (lambda: op._apply(np.zeros(2)), lambda: op(np.zeros(2))):
        with pytest.raises(DimensionMismatchError) as err:
            call()
        assert str(err.value) == "output of 50%_map: expected dimension 2, got shape (3,)"


def test_resolve_shape_error_names_the_operator_and_shape():
    op = SetValuedOperator(2, lambda g, x: np.zeros((2, 1)), name="tall")
    for call in (lambda: op._resolve(1.0, np.zeros(2)), lambda: op.resolvent(1.0, np.zeros(2))):
        with pytest.raises(DimensionMismatchError) as err:
            call()
        assert str(err.value) == "resolvent output of tall: expected dimension 2, got shape (2, 1)"


def test_kernel_eval_shape_error_names_the_kernel_and_shape():
    with pytest.raises(DimensionMismatchError) as err:
        identity_kernel(2).eval(np.zeros(3))
    assert str(err.value) == "kernel identity argument: expected dimension 2, got shape (3,)"


# ---------------------------------------------------------------------------
# A constant relaxation is checked once, before any oracle call
# ---------------------------------------------------------------------------

def test_constant_relaxation_out_of_range_raises_before_any_resolvent():
    calls = []
    A = SetValuedOperator(1, lambda g, x: calls.append(1) or x.copy(), name="counted")
    cfg = SolverConfig(epsilon=0.05, relaxation=2.5, step_size=1.0, max_iter=5)
    with pytest.raises(ConfigurationError, match="relaxation lambda_0 = 2.5"):
        solve_weak(MDecomposition(A), identity_kernel(1), None, cfg, [1.0])
    assert not calls
    # The anchored update uses no lambda, so the strong solver runs.
    assert solve_strong(MDecomposition(A), identity_kernel(1), None, cfg, [1.0]).converged
