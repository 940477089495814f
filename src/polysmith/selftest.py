"""Built-in oracle suite: independent checks of the core identities.

Each check recomputes an expected value through a route that does not share
code with the operation under test (exact rational arithmetic, finite
differences, brute-force search) and compares.  Used by the `selftest` CLI
subcommand.  The exact-arithmetic and finite-difference oracles are defined
here once; the test suite imports them through tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .detadj import adjoint, determinant, jacobian_adj, jacobian_det
from .lmsolve import LmConfig, lm_minimize
from .matpoly import MatPoly, PerturbStructure, Poly
from .mccoy_opt import McCoyProblem, _McCoyWorkspace, initial_guess_mccoy
from .snf_opt import SnfProblem, _Workspace, initial_guess, solve
from .structured import conv_matrix, generalized_sylvester, numeric_rank


def frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def frac_poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def frac_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def exact_determinant(grid):
    """Cofactor expansion over grids of Fraction coefficient lists."""
    n = len(grid)
    if n == 1:
        return list(grid[0][0])
    total = [Fraction(0)]
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = frac_poly_mul(grid[0][j], exact_determinant(minor))
        if j % 2:
            term = [-c for c in term]
        total = frac_poly_add(total, term)
    return total


def exact_poly_rem(a, b):
    a, b = frac_trim(list(a)), frac_trim(list(b))
    while len(a) >= len(b) and any(a):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = frac_trim(a)
    return a


def exact_gcd(a, b):
    """Euclid's algorithm over Fraction coefficient lists."""
    a, b = frac_trim(list(a)), frac_trim(list(b))
    while any(b):
        a, b = b, exact_poly_rem(a, b)
    return a


def exact_gcd_degree(polys):
    """Degree of the GCD of Fraction coefficient lists; None when every one is zero."""
    acc = None
    for p in polys:
        p = frac_trim(list(p))
        if any(p):
            acc = p if acc is None else exact_gcd(acc, p)
    return None if acc is None else len(acc) - 1


def random_integer_matpoly(rng, n, d, low=-6, high=7):
    """Matrix polynomial with small integer coefficients and its Fraction grid."""
    ints = rng.integers(low, high, size=(n, n, d + 1))
    grid = [[[Fraction(int(v)) for v in ints[i, j]] for j in range(n)] for i in range(n)]
    return MatPoly(ints.astype(float)), grid


def fd_columns(fn, x0, eps=1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function, one column per coordinate."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for k in range(x0.size):
        step = np.zeros_like(x0)
        step[k] = eps
        cols.append((fn(x0 + step) - fn(x0 - step)) / (2 * eps))
    return np.array(cols).T


def run_selftest(seed: int = 0):
    """Yield (name, ok, detail) for each oracle check."""
    rng = np.random.default_rng(seed)

    a = Poly(rng.normal(size=4))
    b = Poly(rng.normal(size=3))
    lhs = conv_matrix(a, b.declared_degree) @ b.coeffs
    rhs = np.convolve(a.coeffs, b.coeffs)
    yield "convolution matrix vs direct product", np.allclose(lhs, rhs, atol=1e-12), ""

    mat, grid = random_integer_matpoly(rng, 3, 2)
    exact = np.array([float(c) for c in exact_determinant(grid)])
    got = determinant(mat).coeffs
    ok = np.allclose(got[: exact.size], exact, atol=1e-9 * (1 + np.abs(exact).max()))
    yield "determinant vs exact cofactor expansion", ok, ""

    adj = adjoint(mat)
    det = determinant(mat)
    prod = mat @ adj
    err = 0.0
    for i in range(3):
        for j in range(3):
            want = det.padded(prod.degree_bound).coeffs if i == j else 0.0
            err = max(err, float(np.max(np.abs(prod.entry(i, j).coeffs - want))))
    yield "adjoint identity A adj(A) = det(A) I", err <= 1e-9 * (1 + mat.frobenius_norm() ** 3), f"err={err:.2e}"

    small = MatPoly(rng.normal(size=(2, 2, 2)))
    jac = jacobian_det(small)
    fd = fd_columns(lambda v: determinant(MatPoly.unvec(v, 2, 2, 1)).coeffs, small.vec())
    yield "jacobian_det vs central differences", *_relative_check(jac, fd, 1e-5)
    jac = jacobian_adj(small)
    fd = fd_columns(lambda v: adjoint(MatPoly.unvec(v, 2, 2, 1)).vec(), small.vec())
    yield "jacobian_adj vs central differences", *_relative_check(jac, fd, 1e-5)

    ints = rng.integers(-5, 6, size=(2, 4))
    common = [Fraction(1), Fraction(1)]  # t + 1
    polys = []
    for row in ints:
        polys.append(frac_poly_mul([Fraction(int(v)) for v in row], common))
    gdeg = exact_gcd_degree(polys)
    fs = [Poly([float(c) for c in p]) for p in polys]
    syl = generalized_sylvester(fs, [p.declared_degree for p in fs])
    nullity = syl.shape[1] - numeric_rank(syl)
    yield "sylvester nullity vs exact gcd degree", nullity == gdeg, f"nullity={nullity} gcd_deg={gdeg}"

    z, trace = lm_minimize(
        lambda v: np.array([v[0] ** 2 - 2.0]),
        lambda v: np.array([[2.0 * v[0]]]),
        np.array([1.0]),
        LmConfig(),
    )
    yield "regularized newton on z^2 = 2", abs(z[0] - np.sqrt(2)) < 1e-9, f"z={z[0]!r}"

    # A fixed shift nu = ||g|| crawls along the 1e-4 direction for hundreds
    # of steps; the gain-ratio multiplier must shrink it to reach the root.
    scales = np.array([1.0, 1e-2, 1e-4])
    z, trace = lm_minimize(lambda v: scales * v - 1.0, lambda v: np.diag(scales),
                           np.zeros(3), LmConfig())
    ok = trace.iterations <= 40 and np.allclose(z, 1.0 / scales, rtol=1e-10)
    yield "adaptive shift on an ill-conditioned linear system", ok, f"iterations={trace.iterations}"

    # Quadratics with close-by real roots, so the nearest common root is
    # interior and the global search basin is unambiguous.
    f = [0.594, -1.53, 0.9]  # 0.9 (t - 0.6)(t - 1.1)
    g = [-0.56, 0.13, 0.7]   # 0.7 (t - 0.8)(t + 1.0)
    diag = MatPoly.from_entries([[f, [0, 0, 0]], [[0, 0, 0], g]])
    report = solve(SnfProblem(diag, PerturbStructure.degree(diag), deg_h=1), LmConfig())
    grid_r = np.linspace(-8.0, 8.0, 400001)
    fv = np.polynomial.polynomial.polyval(grid_r, np.array(f))
    gv = np.polynomial.polynomial.polyval(grid_r, np.array(g))
    weight = 1.0 + grid_r**2 + grid_r**4
    best = float(np.sqrt(np.min((fv**2 + gv**2) / weight)))
    ok = abs(report.distance - best) <= 1e-4 * (1 + best)
    yield "snf solve vs diagonal projection search", ok, f"solver={report.distance:.8f} grid={best:.8f}"

    # 3x3: the adjugate is quadratic, so its Jacobian and curvature are not
    # constant and the solvers' Hessians carry the minors-based blocks.
    dense = MatPoly(rng.normal(size=(3, 3, 2)))
    jac = jacobian_adj(dense)
    fd = fd_columns(lambda v: adjoint(MatPoly.unvec(v, 3, 3, 1)).vec(), dense.vec())
    yield "jacobian_adj 3x3 vs central differences", *_relative_check(jac, fd, 1e-5)

    snf = SnfProblem(dense, PerturbStructure.full(dense), deg_h=1)
    ws = _Workspace(snf)
    z = initial_guess(snf)
    z = z + 0.02 * rng.normal(size=z.size)
    fd = fd_columns(ws.residual, z)
    yield "snf KKT Hessian vs central differences", *_relative_check(ws.hessian(z), fd, 1e-6)

    mccoy = McCoyProblem(dense, PerturbStructure.full(dense), r=2)
    z = initial_guess_mccoy(mccoy)
    ws = _McCoyWorkspace(mccoy, z)
    z = z + 0.02 * rng.normal(size=z.size)
    fd = fd_columns(ws.residual, z)
    yield "mccoy KKT Hessian vs central differences", *_relative_check(ws.hessian(z), fd, 1e-6)


def _relative_check(got, want, tol):
    rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    return rel <= tol, f"rel={rel:.2e}"
