"""Nearby non-trivial Smith forms of matrix polynomials.

The package computes lower bounds on the distance from a square matrix
polynomial to one with a non-trivial Smith form, detects unattainable
(at-infinity) infima, and finds nearby matrix polynomials with a
non-trivial Smith form or a prescribed McCoy rank drop by solving the
first-order optimality systems with a regularized Newton iteration.
"""

from .errors import (
    ConvergenceFailure,
    DegreeBoundViolation,
    DegreeTooLarge,
    DimensionMismatch,
    LinearSolveFailure,
    NoCandidates,
    PadTooSmall,
    ParseError,
    PolysmithError,
    RankDeficientInput,
    TrivialInputExpected,
    UnattainableProblem,
    ValidationError,
)
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly, apply_perturbation
from .structured import (
    SvdResult,
    block_conv_matrix,
    conv_matrix,
    generalized_sylvester,
    kronecker,
    numeric_rank,
    singular_values,
)
from .detadj import (
    adjoint,
    determinant,
    hadamard_gradient_bound,
    jacobian_adj,
    jacobian_det,
)
from .gcdkit import (
    ApproxGcdResult,
    TrivialityReport,
    approx_gcd,
    detect_unattainable,
    distance_lower_bound,
    eigenvalue_candidates,
    gcd_trivial_check,
    local_invariant_structure,
    mccoy_rank,
    reachable_adjoint_degrees,
    triviality_report,
)
from .lmsolve import LmConfig, LmTrace, Termination, lm_minimize, lm_step
from .snf_opt import (
    SnfProblem,
    SnfReport,
    certify,
    initial_guess,
    kkt_hessian,
    kkt_residual,
    solve,
    solve_best_degree,
)
from .mccoy_opt import (
    McCoyProblem,
    McCoyReport,
    Pencil,
    companion_linearization,
    initial_guess_mccoy,
    mccoy_residual,
    reversed_problem,
    solve_mccoy,
)

__version__ = "0.1.0"
