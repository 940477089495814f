"""Polynomials and matrix polynomials with real coefficients.

Coefficients are stored dense in ascending degree order.  Every container
carries an explicit declared degree bound that may exceed the actual degree;
the convolution and Sylvester constructions elsewhere in the package depend
on declared, not actual, degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, PadTooSmall

NEG_INF = float("-inf")


class Poly:
    """A univariate real polynomial, coefficient of t^i at index i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("coefficients must be a non-empty 1-D sequence")
        self.coeffs = arr

    @classmethod
    def zero(cls, declared_degree=0):
        return cls(np.zeros(declared_degree + 1))

    @property
    def declared_degree(self) -> int:
        return self.coeffs.size - 1

    def degree(self, tol: float = 0.0):
        """Largest index with a coefficient of magnitude > tol, or NEG_INF.

        tol is relative to the largest coefficient magnitude, so computed
        quantities with rounding noise can be trimmed with e.g. tol=1e-10.
        """
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return NEG_INF
        keep = np.nonzero(np.abs(self.coeffs) > tol * max(1.0, scale))[0]
        if keep.size == 0:
            return NEG_INF
        return int(keep[-1])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def padded(self, declared_degree: int) -> "Poly":
        """Same polynomial with the declared degree raised to the given value."""
        deg = self.degree()
        if declared_degree < deg:
            raise PadTooSmall(f"pad degree {declared_degree} < degree {deg}")
        out = np.zeros(declared_degree + 1)
        n = min(self.coeffs.size, declared_degree + 1)
        out[:n] = self.coeffs[:n]
        return Poly(out)

    def trimmed(self, tol: float = 0.0) -> "Poly":
        """Drop trailing coefficients of relative magnitude <= tol."""
        deg = self.degree(tol)
        if deg == NEG_INF:
            return Poly([0.0])
        return Poly(self.coeffs[: int(deg) + 1])

    def reversed(self, d: int) -> "Poly":
        """Degree-d reversal: coefficient sequence reversed into length d+1."""
        deg = self.degree()
        if deg != NEG_INF and d < deg:
            raise PadTooSmall(f"reversal degree {d} < degree {deg}")
        return Poly(self.padded(d).coeffs[::-1].copy())

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()})"


class MatPoly:
    """A rectangular matrix of polynomials with a shared declared degree bound.

    Storage is a dense float array of shape (rows, cols, degree_bound + 1).
    """

    __slots__ = ("coeff",)

    def __init__(self, coeff):
        arr = np.asarray(coeff, dtype=float)
        if arr.ndim != 3 or arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise DimensionMismatch(
                f"expected a (rows, cols, degree_bound+1) array, got shape {arr.shape}"
            )
        self.coeff = arr.copy()

    @classmethod
    def zeros(cls, rows: int, cols: int, degree_bound: int = 0) -> "MatPoly":
        return cls(np.zeros((rows, cols, degree_bound + 1)))

    @classmethod
    def identity(cls, n: int, degree_bound: int = 0) -> "MatPoly":
        arr = np.zeros((n, n, degree_bound + 1))
        arr[np.arange(n), np.arange(n), 0] = 1.0
        return cls(arr)

    @classmethod
    def from_entries(cls, entries, degree_bound=None) -> "MatPoly":
        """Build from a grid of ascending coefficient lists (or Poly values)."""
        rows = len(entries)
        cols = len(entries[0])
        grids = [
            [np.atleast_1d(np.asarray(getattr(e, "coeffs", e), dtype=float)) for e in row]
            for row in entries
        ]
        if any(len(row) != cols for row in grids):
            raise DimensionMismatch("entry grid is ragged")
        longest = max(g.size for row in grids for g in row) - 1
        if degree_bound is None:
            degree_bound = longest
        elif degree_bound < longest:
            raise PadTooSmall(f"degree bound {degree_bound} < entry length {longest}")
        arr = np.zeros((rows, cols, degree_bound + 1))
        for i in range(rows):
            for j in range(cols):
                arr[i, j, : grids[i][j].size] = grids[i][j]
        return cls(arr)

    @property
    def rows(self) -> int:
        return self.coeff.shape[0]

    @property
    def cols(self) -> int:
        return self.coeff.shape[1]

    @property
    def degree_bound(self) -> int:
        return self.coeff.shape[2] - 1

    def entry(self, i: int, j: int) -> Poly:
        return Poly(self.coeff[i, j])

    def degree(self):
        """Maximum entry degree, or NEG_INF for the zero matrix."""
        return max(self.entry(i, j).degree() for i in range(self.rows) for j in range(self.cols))

    def evaluate(self, z) -> np.ndarray:
        """Entry-wise evaluation at a scalar; returns a complex rows x cols matrix."""
        return np.polynomial.polynomial.polyval(complex(z), self.coeff.transpose(2, 0, 1))

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.coeff))

    def vec(self, pad_degree=None) -> np.ndarray:
        """Stacked coefficient vector, column-major in the entries.

        Entry (i, j) occupies the slot j*rows + i; coefficients ascend within
        each slot and are zero-padded to pad_degree.
        """
        if pad_degree is None:
            pad_degree = self.degree_bound
        deg = self.degree()
        if pad_degree < deg:
            raise PadTooSmall(f"pad degree {pad_degree} < matrix degree {deg}")
        width = min(self.degree_bound, pad_degree) + 1
        out = np.zeros((self.cols, self.rows, pad_degree + 1))
        out[:, :, :width] = self.coeff.transpose(1, 0, 2)[:, :, :width]
        return out.reshape(-1)

    @classmethod
    def unvec(cls, v, rows: int, cols: int, pad_degree: int) -> "MatPoly":
        """Inverse of vec for a vector laid out column-major in the entries."""
        v = np.asarray(v, dtype=float)
        if v.size != rows * cols * (pad_degree + 1):
            raise DimensionMismatch(
                f"vector of size {v.size} does not fill {rows}x{cols} with pad {pad_degree}"
            )
        arr = v.reshape(cols, rows, pad_degree + 1).transpose(1, 0, 2)
        return cls(arr)

    def pvec(self) -> list:
        """Column-major list of the entries as Poly values."""
        return [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)]

    def reversed(self) -> "MatPoly":
        """Entry-wise reversal at the declared degree bound d: t^d A(1/t)."""
        return MatPoly(self.coeff[:, :, ::-1])

    def with_degree_bound(self, degree_bound: int) -> "MatPoly":
        deg = self.degree()
        if degree_bound < deg:
            raise PadTooSmall(f"degree bound {degree_bound} < matrix degree {deg}")
        arr = np.zeros((self.rows, self.cols, degree_bound + 1))
        n = min(self.degree_bound, degree_bound) + 1
        arr[:, :, :n] = self.coeff[:, :, :n]
        return MatPoly(arr)

    def __add__(self, other: "MatPoly") -> "MatPoly":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        d = max(self.degree_bound, other.degree_bound)
        arr = np.zeros((self.rows, self.cols, d + 1))
        arr[:, :, : self.degree_bound + 1] += self.coeff
        arr[:, :, : other.degree_bound + 1] += other.coeff
        return MatPoly(arr)

    def __sub__(self, other: "MatPoly") -> "MatPoly":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        d = max(self.degree_bound, other.degree_bound)
        arr = np.zeros((self.rows, self.cols, d + 1))
        arr[:, :, : self.degree_bound + 1] += self.coeff
        arr[:, :, : other.degree_bound + 1] -= other.coeff
        return MatPoly(arr)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = np.zeros((self.rows, self.cols, self.degree_bound + other.coeffs.size))
            for k, c in enumerate(other.coeffs):
                out[:, :, k : k + self.degree_bound + 1] += c * self.coeff
            return MatPoly(out)
        return MatPoly(self.coeff * float(other))

    __rmul__ = __mul__

    def __matmul__(self, other: "MatPoly") -> "MatPoly":
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        da, db = self.degree_bound, other.degree_bound
        out = np.zeros((self.rows, other.cols, da + db + 1))
        for a in range(da + 1):
            for b in range(db + 1):
                out[:, :, a + b] += self.coeff[:, :, a] @ other.coeff[:, :, b]
        return MatPoly(out)

    def __repr__(self):
        return f"MatPoly(rows={self.rows}, cols={self.cols}, degree_bound={self.degree_bound})"


@dataclass
class PerturbStructure:
    """Admissible perturbation set: mask[i, j, k] allows coefficient k of (i, j)."""

    mask: np.ndarray

    def __post_init__(self):
        # A read-only copy, so the tables built on first use stay valid.
        self.mask = np.array(self.mask, dtype=bool)
        if self.mask.ndim != 3:
            raise DimensionMismatch("mask must have shape (rows, cols, degree_bound+1)")
        self.mask.flags.writeable = False

    @classmethod
    def full(cls, a: MatPoly) -> "PerturbStructure":
        return cls(np.ones_like(a.coeff, dtype=bool))

    @classmethod
    def support(cls, a: MatPoly) -> "PerturbStructure":
        return cls(a.coeff != 0.0)

    @classmethod
    def degree(cls, a: MatPoly) -> "PerturbStructure":
        mask = np.zeros_like(a.coeff, dtype=bool)
        for i in range(a.rows):
            for j in range(a.cols):
                deg = a.entry(i, j).degree()
                if deg != NEG_INF:
                    mask[i, j, : int(deg) + 1] = True
        return cls(mask)

    def reversed(self) -> "PerturbStructure":
        """The mask of the reversed matrix polynomial (see MatPoly.reversed)."""
        return PerturbStructure(self.mask[:, :, ::-1])

    def matches(self, a: MatPoly) -> bool:
        return self.mask.shape == a.coeff.shape

    @property
    def num_params(self) -> int:
        return int(self.mask.sum())

    @cached_property
    def cells(self) -> tuple:
        """Row i, column j and coefficient k of each parameter, in parameter
        order: the column-major entry order of MatPoly.vec, then k."""
        j, i, k = np.nonzero(self.mask.transpose(1, 0, 2))
        for table in (i, j, k):
            table.flags.writeable = False
        return i, j, k

    def param_indices(self) -> np.ndarray:
        """Positions of the masked coefficients inside vec(., degree_bound)."""
        rows, cols, width = self.mask.shape
        i, j, k = self.cells
        return np.ravel_multi_index((j, i, k), (cols, rows, width))

    @cached_property
    def _slots(self) -> np.ndarray:
        """Flat positions in the coefficient array of the params, in order."""
        return np.ravel_multi_index(self.cells, self.mask.shape)

    def _params(self, params) -> np.ndarray:
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.size != self._slots.size:
            raise DimensionMismatch(
                f"expected {self._slots.size} parameters, got {params.size}"
            )
        return params

    def delta(self, params) -> MatPoly:
        """Perturbation matrix with params scattered into the masked slots."""
        out = np.zeros(self.mask.shape)
        out.reshape(-1)[self._slots] = self._params(params)
        return MatPoly(out)

    def apply(self, a: MatPoly, params) -> MatPoly:
        """a with params added at masked slots; unmasked coefficients unchanged."""
        if not self.matches(a):
            raise DimensionMismatch("mask shape does not match the matrix")
        out = a.coeff.copy()
        out.reshape(-1)[self._slots] += self._params(params)
        return MatPoly(out)
