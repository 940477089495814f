"""Nearby non-trivial Smith forms of matrix polynomials.

The package computes lower bounds on the distance from a square matrix
polynomial to one with a non-trivial Smith form, detects unattainable
(at-infinity) infima, and finds nearby matrix polynomials with a
non-trivial Smith form or a prescribed McCoy rank drop by solving the
first-order optimality systems with a regularized Newton iteration.
"""

from .errors import (
    DegreeBoundViolation,
    DegreeTooLarge,
    DimensionMismatch,
    LinearSolveFailure,
    PadTooSmall,
    ParseError,
    PolysmithError,
    RankDeficientInput,
    UnattainableProblem,
    ValidationError,
)
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly
from .structured import block_conv_matrix, conv_matrix, generalized_sylvester, numeric_rank
from .detadj import (
    adjoint,
    determinant,
    jacobian_adj,
    jacobian_det,
)
from .gcdkit import (
    Analysis,
    ApproxGcdResult,
    TrivialityReport,
    approx_gcd,
    detect_unattainable,
    distance_lower_bound,
    local_invariant_structure,
    reachable_adjoint_degrees,
    triviality_report,
)
from .lmsolve import LmConfig, LmTrace, Termination, lm_minimize, lm_step
from .snf_opt import (
    SnfProblem,
    SnfReport,
    initial_guess,
    solve,
    solve_best_degree,
)
from .mccoy_opt import (
    McCoyProblem,
    McCoyReport,
    initial_guess_mccoy,
    reversed_problem,
    solve_mccoy,
)

__version__ = "0.1.0"
