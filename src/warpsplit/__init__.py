"""Monotone inclusion solvers built on warped resolvents.

The library solves 0 in M(x) for maximally monotone M through projection
methods driven by graph points of M: each iteration evaluates a warped
resolvent (K + gamma M)^{-1} o K for a structured kernel K, certifies a
half-space containing every zero, and projects.  Weakly and strongly
convergent drivers, forward-backward-forward schemes and a primal-dual
solver for coupled inclusion systems share this one engine.
"""

from .algorithms import (
    CoupledProblem,
    DualBlock,
    IterationRecord,
    KuhnTuckerPoint,
    PerturbationPolicy,
    PrimalBlock,
    SolveResult,
    SolverConfig,
    apply_policy,
    kt_residuals,
    solve_coupled,
    solve_fbf_memory,
    solve_strong,
    solve_tseng,
    solve_weak,
    tseng_relaxation,
)
from .errors import (
    BackwardSolveError,
    ConfigurationError,
    DimensionMismatchError,
    InfeasibleCutsError,
    NonFiniteEntryError,
    ProblemFormatError,
    SolverCorruptionError,
    StallError,
    UnknownOperatorError,
    WarpsplitError,
)
from .fejer import haugazeau_Q
from .kernels import (
    Kernel,
    MDecomposition,
    coupled_kernel,
    fbf_kernel,
    graph_point,
    identity_kernel,
    map_kernel,
    nongradient_cubic_kernel,
    primal_dual_kernel,
    saddle_decomposition,
    warped_resolvent,
)
from .operators import (
    BlockDiagonalOperator,
    GraphPoint,
    SetValuedOperator,
    SingleValuedOperator,
    affine_map,
    affine_resolvent_operator,
    affine_set_normal_cone,
    ball_normal_cone,
    box_normal_cone,
    constant_operator,
    halfspace_normal_cone,
    identity_map,
    l1_operator,
    make_set_valued,
    make_single_valued,
    proj_affine_set,
    proj_ball,
    proj_halfspace,
    saddle_skew_map,
    scaled_identity_operator,
    soft_threshold,
    standard_library,
    zero_map,
    zero_operator,
)
from .space import (
    BlockLayout,
    LinearMap,
    inner,
    vector,
)

__version__ = "0.1.0"
