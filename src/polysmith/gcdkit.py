"""Approximate GCDs of many polynomials and Smith-form triviality reporting.

The last invariant factor of a square matrix polynomial is det / gcd(Adj),
so triviality questions reduce to GCD questions about the adjoint entries,
which in turn become rank questions about generalized Sylvester matrices.
Reversal (coefficients read backwards) moves behavior at infinity to zero
and is used to recognize unattainable infima.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations

import numpy as np
from numpy.linalg import _umath_linalg

from .detadj import adjoint, determinant, jacobian_adj_norm
from .errors import DegreeTooLarge, RankDeficientInput
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly, last_index, taylor_weights
from .structured import conv_matrices, generalized_sylvester, rank_of

# Computed adjoints and determinants carry interpolation noise around 1e-16;
# trailing coefficients below this relative size are treated as zero.
TRIM_TOL = 1e-10

# Rank decisions at numerically computed eigenvalues: companion-matrix roots
# are accurate to roughly sqrt(eps) for double roots, so the spectral gate
# must sit well above that.
EIGEN_RANK_TOL = 1e-6

# Divisor seeds refined by the alternating fit.
SEED_SHORTLIST = 4

# Sweep cap of the alternating fit, and the number of recent sweep gains
# whose rate decides whether it can converge before the cap (see approx_gcd).
_ALS_SWEEPS = 100
_ALS_WINDOW = 10

# Zoom refinement of the real candidate roots: a bracket of _ZOOM_CELLS cells
# shrinks to two of them, 32-fold, per round, so ten rounds take the starting
# two grid cells to 32**-10 ~ 9e-16 of their width, the double-precision
# resolution of an exact common root.
_ZOOM_CELLS = 64
_ZOOM_ROUNDS = 10


@dataclass
class TrivialityReport:
    """Summary of how close a matrix polynomial is to a non-trivial Smith form."""

    is_trivial: bool
    mccoy_rank: int
    gcd_adjoint_degree: int
    lower_bound: float
    unattainable: bool
    sylvester_rank: int
    sylvester_sigma: float
    # (degree, multiplicity) pairs at zero of the reversed input; only for
    # unattainable inputs.
    reversal_invariant_structure: list = field(default_factory=list)


@dataclass
class ApproxGcdResult:
    """Monic approximate common divisor with cofactors and fit residual.

    sweeps counts the alternating-fit sweeps run, discarded ones included;
    stop says why the fit ended: "converged" (the residual gain fell below
    1e-12), "rate" (at the rate of its plain sweeps' gains, secant sweeps
    left out, the gain could not do so before the sweep cap), "rose" (a plain
    sweep raised the residual and was discarded) or "cap" (all sweeps ran).
    """

    h: Poly
    cofactors: list
    residual: float
    sweeps: int
    stop: str


def eigen_rank(s):
    """Count of singular values (last axis, largest first) above EIGEN_RANK_TOL
    times max(1, the largest): a rank suited to approximate eigenvalues."""
    return np.count_nonzero(s > EIGEN_RANK_TOL * np.fmax(1.0, s[..., :1]), axis=-1)


def ranks_at(a: MatPoly, points):
    """eigen_rank of A(omega) at a scalar point, or at each of a 1-D array of
    points, from one MatPoly.evaluate and one stacked SVD."""
    return eigen_rank(np.linalg.svd(a.evaluate(points), compute_uv=False))


# Fixed generic sample point for rank questions about singular inputs.
_GENERIC_POINT = 0.5702958749 + 0.8216998537j


def _sylvester_svd(rows, dprime):
    """Singular values and shape of the generalized Sylvester matrix of the
    coefficient rows at the declared degrees dprime, from one SVD."""
    syl = generalized_sylvester(rows, dprime)
    return np.linalg.svd(syl, compute_uv=False), syl.shape


def _rescaled(value: float, power: int) -> float:
    """value * 2**power, saturating to inf or 0 at the ends of the float range."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(value, power))


class Analysis:
    """Triviality quantities of one square input, each computed once on first use.

    Every decision is taken on A / 2**k, with the power of two 2**k that puts
    the largest coefficient magnitude in [0.5, 1).  That division is exact,
    and the trimming and rank tolerances (relative, with an absolute floor
    for values below one) then see the same magnitudes whatever the input's
    scale.  The reported bound and sigma are scaled back.  MatPoly
    coefficients are mutable, so an analysis belongs to the caller that made
    it, not to the input.
    """

    def __init__(self, a: MatPoly):
        self.a = a
        self.n = a.rows
        self.k = int(np.frexp(np.max(np.abs(a.coeff)))[1])
        self.norm = MatPoly(np.ldexp(a.coeff, -self.k))

    @cached_property
    def det(self) -> Poly:
        """Trimmed determinant of the normalized input."""
        return determinant(self.norm).trimmed(TRIM_TOL)

    def require_nonsingular(self):
        """Raise RankDeficientInput when the trimmed determinant vanishes."""
        if self.det.degree() == NEG_INF:
            raise RankDeficientInput("matrix polynomial is singular over the rational functions")

    @cached_property
    def table(self):
        """(coefficients, degrees) of the adjugate of the normalized input, one row
        per entry in column-major order, each trimmed as Poly.trimmed(TRIM_TOL)
        trims it: zero past its degree, which is NEG_INF for a vanishing entry."""
        rows = adjoint(self.norm).coeff.transpose(1, 0, 2).reshape(self.n * self.n, -1)
        size = np.abs(rows)
        deg = last_index(size > TRIM_TOL * np.fmax(1.0, size.max(axis=1, keepdims=True)))
        rows[np.arange(rows.shape[1]) > deg[:, None]] = 0.0
        return rows, deg

    @cached_property
    def live(self) -> np.ndarray:
        """Indices of the table rows that do not vanish."""
        return np.flatnonzero(self.table[1] >= 0)

    @cached_property
    def gcd_degree(self) -> int:
        """GCD degree of the nonzero adjugate entries at their actual degrees.

        This is the nullity of their generalized Sylvester matrix; 0 when
        every entry vanishes.
        """
        if self.live.size < 2:
            return int(self.table[1].max(initial=0))
        s, shape = self.gcd_svd
        return shape[1] - rank_of(s, shape)

    @cached_property
    def gcd_svd(self):
        """Singular values and shape of gcd_degree's Sylvester matrix."""
        return _sylvester_svd(self.table[0][self.live], self.table[1][self.live])

    @property
    def gcd_trivial(self) -> bool:
        return self.live.size > 0 and self.gcd_degree == 0

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Numeric roots of det(A); empty when the determinant is near-constant."""
        if self.det.degree() in (NEG_INF, 0):
            return np.zeros(0, dtype=complex)
        return np.roots(self.det.coeffs[::-1])

    @cached_property
    def mccoy_rank(self) -> int:
        """Minimum rank of A(omega) over candidate eigenvalues.

        Unimodular inputs have no eigenvalues and keep rank n everywhere; for
        a singular input the rank over the rational functions (sampled at a
        generic point) is the ceiling instead.
        """
        points = [_GENERIC_POINT] if self.det.degree() == NEG_INF else self.eigenvalues
        return int(ranks_at(self.norm, points).min(initial=self.n))

    @cached_property
    def padded(self):
        """Rank and rank-th singular value of the adjugate's Sylvester matrix at
        the padded degree (n-1)d, from one SVD: gcd_degree's if every live entry has it.

        A constant matrix has a constant adjugate, and triviality is then a
        plain rank question about A(0).
        """
        n, reach = self.n, (self.n - 1) * self.a.degree_bound
        if reach == 0:
            s = np.linalg.svd(self.norm.evaluate(0.0).real, compute_uv=False)
            return rank_of(s, (n, n)), float(s[n - 2]) if n >= 2 else 0.0
        if self.live.size < 2:
            return 0, 0.0
        s, shape = (self.gcd_svd if np.all(self.table[1][self.live] == reach)  # gcd_degree's
                    else _sylvester_svd(self.table[0][self.live], [reach] * self.live.size))
        e = rank_of(s, shape)
        return e, float(s[e - 1]) if e else 0.0

    @property
    def sylvester_sigma(self) -> float:
        """The padded sigma at the input's scale: adjugate entries are
        (n-1)-minors, a constant matrix's sigma is a singular value of A."""
        power = self.k if self.a.degree_bound == 0 else self.k * (self.n - 1)
        return _rescaled(self.padded[1], power)

    def unattainable(self, structure: PerturbStructure) -> bool:
        """True iff the nearest non-trivial Smith form is an infimum at infinity.

        Tests the adjoint entries at their actual degrees, at the maximal
        degrees reachable under the perturbation mask, and after reversal at
        those degrees: the infimum is unattainable exactly when padding to
        the reachable degrees kills full rank and the reversed entries share
        a root at zero.  Where the reachable degrees raise no entry's degree
        the padded matrix is gcd_degree's, of full rank; none exceeds (n-1)d,
        so when every entry has that degree they are not computed.
        """
        self.require_nonsingular()
        if not self.gcd_trivial or np.all(self.table[1] == (self.n - 1) * self.a.degree_bound):
            return False
        top = np.maximum(reachable_adjoint_degrees(self.a, structure).T.ravel(), self.table[1])
        kept = top != NEG_INF  # top is NEG_INF where both are
        rows, dprime = self.table[0][kept], np.maximum(top[kept], 0).astype(int)
        if dprime.size < 2 or dprime.max() == 0 or np.array_equal(top, self.table[1]):
            return False
        s, shape = _sylvester_svd(rows, dprime)
        if rank_of(s, shape) == shape[1]:
            return False
        # Reversal at dprime: coefficient i is dprime - i; i > dprime wraps to the zero tail.
        flip = dprime[:, None] - np.arange(rows.shape[1])
        s, shape = _sylvester_svd(np.take_along_axis(rows, flip, axis=1), dprime)
        return rank_of(s, shape) < shape[1]

    def lower_bound(self):
        """Lower bound on the distance to a non-trivial Smith form.

        Returns (bound, sigma) where sigma is the rank-th singular value of
        the generalized Sylvester matrix of the adjoint at the padded
        degrees.  The bound is zero for inputs that are already non-trivial,
        and for 1x1 inputs, which are always trivial (see report).  A
        singular input raises RankDeficientInput, whatever its size.
        """
        self.require_nonsingular()
        if self.n == 1 or not self.gcd_trivial:
            return 0.0, 0.0
        e, sigma = self.padded
        d = self.a.degree_bound
        if d == 0:
            # Constant matrix: non-triviality means rank at most n-2, and the
            # unstructured distance to that set is the (n-1)-th singular value.
            bound = sigma
        elif e == 0:
            bound = 0.0
        else:
            gradient_scale = jacobian_adj_norm(self.norm)
            bound = sigma / ((self.n - 1) * d * gradient_scale) if gradient_scale else 0.0
        return _rescaled(bound, self.k), self.sylvester_sigma

    def report(self, structure: PerturbStructure) -> TrivialityReport:
        """Triviality, McCoy rank, bound, and unattainability in one record;
        a singular input raises RankDeficientInput, whatever its size."""
        self.require_nonsingular()
        n = self.n
        if n == 1:
            # A 1x1 matrix has a single invariant factor and is always trivial.
            rank = self.mccoy_rank
            return TrivialityReport(True, rank, 0, 0.0, False, rank, 0.0)
        trivial = self.gcd_trivial and self.mccoy_rank >= n - 1
        unattainable = trivial and self.unattainable(structure)
        bound = self.lower_bound()[0] if trivial and not unattainable else 0.0
        e, sigma = (self.padded[0], self.sylvester_sigma) if self.live.size else (0, 0.0)
        profile = local_invariant_structure(self.norm.reversed(), 0.0) if unattainable else []
        return TrivialityReport(trivial, self.mccoy_rank, self.gcd_degree, float(bound),
                                unattainable, e, sigma, profile)


def local_invariant_structure(a: MatPoly, omega):
    """Partial multiplicities of the invariant factors at an eigenvalue.

    Returns (degree, multiplicity) pairs, degrees ascending and summing the
    multiplicities to n.  The Taylor blocks of A at omega are one product with
    the matpoly.taylor_weights table.  T_k, the block Toeplitz matrix of the
    first k blocks, gains a kernel dimension per factor divisible by
    (t - omega)^k: the increments are the conjugate partition of the profile.
    """
    n, d = a.rows, a.degree_bound
    taylor = np.tensordot(a.coeff, taylor_weights(omega, d, d + 1), axes=([2], [1]))

    counts = []
    prev_kernel = 0
    max_power = n * max(d, 1) + 1
    # Block lower-triangular Toeplitz: block (i, j) is Taylor block i - j, and
    # T_k is its leading k x k blocks.
    t = conv_matrices(taylor, max_power)[:, :, :max_power].transpose(2, 0, 3, 1)
    t = t.reshape(max_power * n, max_power * n)
    for k in range(1, max_power + 1):
        s = np.linalg.svd(t[: k * n, : k * n], compute_uv=False)
        kernel = k * n - int(eigen_rank(s))
        count = kernel - prev_kernel
        if count <= 0:
            break
        counts.append(count)
        prev_kernel = kernel

    top = counts[0] if counts else 0
    degrees = Counter({0: n - top}) + Counter(sum(c > i for c in counts) for i in range(top))
    return sorted(degrees.items())


def reachable_entry_degrees(a: MatPoly, structure: PerturbStructure) -> np.ndarray:
    """Largest coefficient index of each entry that is nonzero or perturbable."""
    return last_index((a.coeff != 0.0) | structure.mask)


def reachable_adjoint_degrees(a: MatPoly, structure: PerturbStructure) -> np.ndarray:
    """Per-entry degree ceiling of Adj(A + dA) under the perturbation mask.

    Each adjoint entry is a minor, so its degree is bounded by the best
    permutation sum of the reachable degrees of the complementary submatrix.
    Entries that are structurally zero stay NEG_INF.  The search visits all
    (n-1)! permutations for each of the n^2 entries, 322,560 at n = 8, so
    the last result is kept, keyed on the reachable entry degrees and the
    input's coefficients: the attainability verdict and the workspaces of
    one solve share one search, and a call on another input, even one with
    the same sparsity pattern, costs what it did without the memo.  Each
    call returns a fresh copy.
    """
    base = reachable_entry_degrees(a, structure)
    return _adjoint_degree_search(base.tobytes(), a.rows, a.coeff.tobytes()).copy()


@lru_cache(maxsize=1)
def _adjoint_degree_search(key: bytes, n: int, coeff: bytes) -> np.ndarray:
    """reachable_adjoint_degrees from the n x n reachable entry degrees in key;
    coeff, the input's coefficients, only scopes the kept result to one input."""
    base = np.frombuffer(key).reshape(n, n)
    out = np.full((n, n), NEG_INF)
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            best = NEG_INF
            for perm in permutations(range(n - 1)):
                best = max(best, sum(base[rows[k], cols[perm[k]]] for k in range(n - 1)))
            out[i, j] = best
    return out


def detect_unattainable(a: MatPoly, structure: PerturbStructure) -> bool:
    """True iff the nearest non-trivial Smith form is at infinity; see Analysis.unattainable."""
    return Analysis(a).unattainable(structure)


def distance_lower_bound(a: MatPoly):
    """(bound, sigma) for the distance to a non-trivial Smith form; see Analysis.lower_bound."""
    return Analysis(a).lower_bound()


def approx_gcd(f, deg_h: int, dprime) -> ApproxGcdResult:
    """Monic near-common divisor of degree deg_h, 1 or 2, by alternating least squares.

    Root candidates pooled from the entries seed the divisor; the refinement
    then alternates between solving for cofactors with the divisor fixed and
    re-fitting the divisor (leading coefficient pinned to one) with the
    cofactors fixed, a linearly converging map that a secant step every
    deg_h + 1 sweeps extrapolates to its fixed point.  A fit ends when its
    residual gain falls below 1e-12, when a plain sweep raises the residual,
    after _ALS_SWEEPS sweeps, or once the geometric rate of its last
    _ALS_WINDOW plain gains could not bring the gain below 1e-12 before then
    (lmsolve's Sublinear rule).  The shortlisted seeds' fits run in lockstep,
    bit for bit the fits run one by one (see _alternating_fits).
    """
    return approx_gcd_candidates(f, deg_h, dprime)[0]


def approx_gcd_candidates(f, deg_h: int, dprime) -> list:
    """Alternating-fit results from the top divisor seeds, best residual first."""
    dprime = [int(x) for x in dprime]
    if deg_h not in (1, 2):
        raise DegreeTooLarge("the common divisor must have degree 1 or 2")
    if deg_h > min(dprime):
        raise DegreeTooLarge(f"degree {deg_h} exceeds a declared degree bound")
    trimmed = [p.trimmed(TRIM_TOL) for p in f]
    active = [i for i, p in enumerate(trimmed) if p.degree() != NEG_INF]
    if not active:
        raise RankDeficientInput("every entry vanishes after trimming; no divisor to fit")
    targets = [trimmed[i].padded(dprime[i]).coeffs for i in active]
    seeds = _initial_divisors([trimmed[i].coeffs for i in active], deg_h)
    unique = {}
    for fit in _alternating_fits(seeds, targets, deg_h):
        key = tuple(np.round(fit[0], 9))
        if key not in unique or fit[2] < unique[key][2]:
            unique[key] = fit
    results = []
    for h, cofactors, residual, sweeps, stop in sorted(unique.values(), key=lambda fit: fit[2]):
        polys = [Poly.zero(max(d - deg_h, 0)) for d in dprime]
        for i, u in zip(active, cofactors):
            polys[i] = Poly(u)
        results.append(ApproxGcdResult(Poly(h), polys, residual, sweeps, stop))
    return results


def _stacked_lstsq(a, b) -> np.ndarray:
    """np.linalg.lstsq(a[k], b, rcond=None)[0] for every slice a[k], in one call.

    b is one right-hand side shared by every slice, or a stack of them.  This
    is the LAPACK gelsd gufunc that np.linalg.lstsq calls, with its rcond and
    error state, so each slice is bit for bit that call's solution and a
    failed SVD raises LinAlgError as it does.
    """
    rcond = np.finfo(float).eps * max(a.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return _umath_linalg.lstsq(a, b, rcond, signature="ddd->ddid")[0]


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _alternating_fits(seeds, targets, deg_h: int) -> list:
    """(h, cofactors, residual, sweeps, stop) from each monic seed by alternating least squares.

    The seeds' fits run in lockstep.  Each sweep solves the cofactors of one
    declared degree for every running fit in one stacked call (their conv(h)
    matrices against that degree's targets), then every monic divisor in one
    more stacked call against the fits' cofactor convolution matrices, stacked
    in target order.  Both stacks come from structured.conv_matrices, one
    call per declared cofactor degree, and each slice is bit for bit the
    per-fit np.linalg.lstsq call (see _stacked_lstsq); every residual, rhs -
    stacked @ h, comes from one product.  Each fit leaves the stack when it
    stops.  After deg_h + 1 accepted sweeps from its last restart, a fit
    restarts at the _secant_points of their divisors.  A sweep from there
    that raises the residual, or a point that is not finite, restarts it at
    its last divisor; any other sweep that does so ends it at its previous
    fit.  The rate rule reads the other sweeps' gains from the second on.
    """
    counts = np.array([t.size - deg_h for t in targets])  # coefficients per cofactor
    ends = np.cumsum(counts)
    bounds = list(zip((ends - counts).tolist(), ends.tolist()))
    # Cofactor k's block of the stacked system starts in row k*deg_h + (its first flat index).
    starts = ends - counts + deg_h * np.arange(counts.size)
    groups, rows = [], []
    for count in dict.fromkeys(counts.tolist()):
        members = np.flatnonzero(counts == count)
        groups.append((count, np.column_stack([targets[k] for k in members]),
                       (ends - counts)[members][:, None] + np.arange(count)))
        rows.append((starts[members][:, None] + np.arange(count + deg_h)).ravel())
    rhs = np.concatenate(targets)
    # Gathers the groups' blocks into row order; one group (every snf seed) is in order.
    order = np.empty(rhs.size, dtype=int)
    order[np.concatenate(rows)] = np.arange(rhs.size)
    n_seeds = len(seeds)
    h = np.array(seeds, dtype=float)
    start, chains, leaped = h.copy(), [[x] for x in h[:, :-1].copy()], [False] * n_seeds
    cofactors = np.zeros((n_seeds, ends[-1]))
    residual, gains = [np.inf] * n_seeds, [[] for _ in seeds]
    sweeps, stop = [0] * n_seeds, ["cap"] * n_seeds
    live = list(range(n_seeds))
    for sweep in range(1, _ALS_SWEEPS + 1):
        n_live = len(live)
        new_cofactors = np.empty((n_live, ends[-1]))
        blocks = []
        for count, group_rhs, where in groups:
            solved = _stacked_lstsq(conv_matrices(start[live], count), group_rhs).transpose(0, 2, 1)
            new_cofactors[:, where] = solved
            blocks.append(conv_matrices(solved, deg_h + 1).reshape(n_live, -1, deg_h + 1))
        stacked = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)[:, order]
        free = _stacked_lstsq(stacked[..., :-1], (rhs - stacked[..., -1])[..., None])
        new_h = np.ones((n_live, deg_h + 1))
        new_h[:, :-1] = free[..., 0]
        diff = rhs - (stacked @ new_h[..., None])[..., 0]
        new_residual = np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()
        running = []
        for s, new_c, new_hs, new_res in zip(live, new_cofactors, new_h, new_residual):
            sweeps[s], leap, leaped[s] = sweep, leaped[s], False
            if not (new_res <= residual[s] + 1e-10 * (1.0 + residual[s])):
                if leap:
                    start[s], chains[s] = h[s], [h[s, :-1].copy()]
                    running.append(s)
                else:
                    stop[s] = "rose"
                continue
            gain = abs(residual[s] - new_res)
            h[s], start[s], cofactors[s], residual[s] = new_hs, new_hs, new_c, new_res
            chains[s].append(new_hs[:-1])
            if gain < 1e-12:
                stop[s] = "converged"
                continue
            if not leap and math.isfinite(gain):
                gains[s].append(gain)
            left = _ALS_SWEEPS - sweep
            if not leap and len(gains[s]) > _ALS_WINDOW and left > 0:
                rate = (gain / gains[s][-1 - _ALS_WINDOW]) ** (1.0 / _ALS_WINDOW)
                if gain * rate**left >= 1e-12:
                    stop[s] = "rate"
                    continue
            running.append(s)
        live = running
        due = [s for s in live if len(chains[s]) == deg_h + 2]
        points = _secant_points(np.array([chains[s] for s in due])) if due else []
        for s, point in zip(due, points):
            leaped[s] = bool(np.isfinite(point).all())
            chains[s] = [point] if leaped[s] else [h[s, :-1].copy()]
            start[s, :-1] = chains[s][0]
        if not live:
            break
    return [(h[s], [cofactors[s, lo:hi] for lo, hi in bounds], residual[s], sweeps[s], stop[s])
            for s in range(n_seeds)]


def _secant_points(chains) -> np.ndarray:
    """x_last + sum_i a_i (x_{i+1} - x_last), with sum_i a_i (u_i - u_last) = -u_last and
    u_i = x_{i+1} - x_i, per chain x_0 ... x_{m+1} of m-vectors: the fixed point of an affine
    sweep (Aitken's delta-squared for m = 1); NaN if np.linalg.solve's gesv finds it singular."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore"):
        steps = np.diff(chains, axis=1)
        system = (steps[:, :-1] - steps[:, -1:]).transpose(0, 2, 1)
        a = _umath_linalg.solve1(system, -steps[:, -1], signature="dd->d")
        return chains[:, -1] + (a[..., None] * (chains[:, 1:-1] - chains[:, -1:])).sum(axis=1)


def _root_projection_score(entries):
    """score(points): least-norm coefficient change making every trimmed entry vanish at each point.

    The basis norm runs over each entry's actual degree, so the score stays
    bounded away from zero for far-away points and does not drift toward
    roots at infinity.  Sums run in degree, then entry order: np.cumsum never
    reorders them, as numpy's pairwise summation does for a single point.
    """
    degrees = [c.size - 1 for c in entries]
    table = np.zeros((max(degrees) + 1, len(entries)))
    for k, c in enumerate(entries):
        table[: c.size, k] = c
    exponents = 2 * np.arange(table.shape[0])[:, None]

    def score(points) -> np.ndarray:
        points = np.asarray(points, dtype=complex)
        vals = np.abs(np.polynomial.polynomial.polyval(points, table, tensor=True)) ** 2
        basis = np.cumsum(np.abs(points) ** exponents, axis=0)[degrees]
        return np.cumsum(vals / basis, axis=0)[-1]

    return score


def _common_root_radius(entries) -> float:
    """A near-common root must be a near-root of every entry."""
    bound = np.inf
    for c in entries:
        if c.size >= 2:
            bound = min(bound, 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1]))
    if not np.isfinite(bound):
        return 2.0
    return 1.0 + 1.5 * bound


def chebyshev_minima(f, radius: float, size: int):
    """The sorted size-point Chebyshev grid on [-radius, radius], and the
    indices of its interior points where f, called once on the whole grid, is
    no larger than at either neighbour."""
    grid = np.sort(radius * np.cos(np.pi * (np.arange(size) + 0.5) / size))
    vals = f(grid)
    return grid, np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1


def _real_candidate_roots(score, radius):
    """Real-line minimizers of the projection score, refined together by zooming.

    Each local minimum of a 256-point Chebyshev grid starts as a two-cell
    bracket.  A round scores _ZOOM_CELLS + 1 evenly spaced points of every
    bracket in one call and keeps the neighbours of each best interior point;
    the best point of the last round is the root."""
    grid, keep = chebyshev_minima(score, radius, 256)
    if keep.size == 0:
        return []
    lo, hi, pick = grid[keep - 1], grid[keep + 1], np.arange(keep.size)
    steps = np.linspace(0.0, 1.0, _ZOOM_CELLS + 1)
    for _ in range(_ZOOM_ROUNDS):
        points = lo[:, None] + (hi - lo)[:, None] * steps
        best = np.argmin(score(points.ravel()).reshape(points.shape)[:, 1:-1], axis=1) + 1
        lo, hi = points[pick, best - 1], points[pick, best + 1]
    return list(points[pick, best])


def _initial_divisors(entries, deg_h: int) -> list:
    """Monic seed divisors (coefficient vectors) from the best-scoring conjugate-closed root sets.

    Candidates pool the roots of the individual entries with real-line
    minimizers of the projection score, filtered to the radius where a
    near-common root can exist.  The top SEED_SHORTLIST seeds are returned; the
    alternating fit downstream keeps whichever refines best.
    """
    radius = _common_root_radius(entries)
    score = _root_projection_score(entries)
    candidates = []
    for c in entries:
        if c.size >= 2:
            candidates.extend(np.roots(c[::-1]))
    candidates = [z for z in candidates if abs(z) <= radius] or candidates
    candidates.extend(_real_candidate_roots(score, radius))
    if not candidates:
        return [np.eye(deg_h + 1)[-1]]  # t**deg_h
    candidates = np.asarray(candidates, dtype=complex)
    scores = score(candidates)

    def real_like(z):
        return abs(z.imag) <= 1e-8 * (1.0 + abs(z.real))

    if deg_h == 1:
        real_idx = [i for i in range(candidates.size) if real_like(candidates[i])]
        pool = real_idx if real_idx else list(range(candidates.size))
        pool.sort(key=lambda i: scores[i])
        return [np.array([-candidates[i].real, 1.0]) for i in pool[:SEED_SHORTLIST]]

    # deg_h == 2.  A real polynomial vanishing at z also vanishes at
    # conj(z), so a conjugate pair costs one projection while two real roots
    # cost two.
    scored_pairs = []
    for i, z in enumerate(candidates):
        if not real_like(z):
            scored_pairs.append((float(scores[i]), (z, np.conj(z))))
    reals = sorted(
        (i for i in range(candidates.size) if real_like(candidates[i])),
        key=lambda i: scores[i],
    )
    for a in range(min(len(reals), 3)):
        for b in range(a, min(len(reals), 3)):
            i, j = reals[a], reals[b]
            scored_pairs.append(
                (float(scores[i] + scores[j]), (candidates[i].real, candidates[j].real))
            )
    if not scored_pairs:
        z = candidates[int(np.argmin(scores))]
        scored_pairs.append((float(scores[int(np.argmin(scores))]), (z, np.conj(z))))
    scored_pairs.sort(key=lambda item: item[0])
    return [np.array([float((r1 * r2).real), float(-(r1 + r2).real), 1.0])
            for _, (r1, r2) in scored_pairs[:SEED_SHORTLIST]]


def triviality_report(a: MatPoly, structure: PerturbStructure) -> TrivialityReport:
    """Aggregate triviality, McCoy rank, bound, and unattainability checks."""
    return Analysis(a).report(structure)
