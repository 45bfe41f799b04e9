"""Dense matrices over the three scalar kinds, plus tuples of them.

A matrix stores its row-major ``values`` over one ``denom``.  An exact
(rational) matrix holds ints over an int denom >= 1 with
gcd(denom, *values) == 1, so every rational matrix has exactly one stored
form (the zero matrix has denom 1) and the generated ``==`` and ``hash`` are
those of the rationals.  A float or complex matrix holds its scalars with
denom 1.  ``_from_raw`` is the one constructor that brings values over a
denominator to that form; ``Fraction`` appears only at the boundary:
``entries``, ``at``, ``trace``, ``det`` and ``from_rows``.

Two linear-algebra engines sit behind one interface:

* exact (rational kind): one fraction-free Gauss-Jordan elimination
  (``_gauss_jordan_int``) of the stored integers.  Its reduced rows all end
  with the same pivot d, so a rank is the number of pivots, a determinant
  is ``sign * d`` over denom^n (closed forms up to 4x4), and each kernel or
  solution vector is its integer row over d.  Everything is exact, with no
  rounding anywhere.
* float (real/complex kinds): every rank decision takes one rule
  (``_float_svd``): the rank of an array is the number of its singular
  values above ``RANK_TOL`` (1e-9) times a scale, the largest entry of the
  matrix unless the caller names another (the intertwiner system passes the
  largest entry of the matrices it was built from, since its own entries may
  cancel).  A float kernel is the orthonormal basis of right singular
  vectors past the rank, and a float solve is the minimum-norm solution
  (``_float_solve``).  Determinants and inverses are numpy's LU.

Products follow the same split, in one function (``_raw_product``).  An
exact product takes every entry of A'B' as one integer dot product of the
stored values and returns A'B' over the product of the denominators.  A
float or complex product accumulates each entry left to right from zero,
as a scalar loop would, but one inner index at a time over whole rows:
``out += a[:, j] b[j]``.  Every entry thus takes the same rounded products
and sums in the same order, with no fused multiply-add, so results are
those of plain Python floats to the last bit and do not depend on the
Python version (``sum()`` compensates float sums from 3.12 on).  numpy's
complex multiply rounds differently from Python's, so a complex product is
split into real ufuncs, re = ar br - ai bi and im = ar bi + ai br, the
formula Python uses.  Overflow gives inf or NaN without a warning, as it
does for Python floats.  Callers that stack several matrices into one
operand (``_hstack``, or concatenation), or compare products without
building them, pass the stored values and read blocks with ``_block``.

All values are immutable after construction and every operation is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul, sub
from typing import Optional, Sequence

import numpy as np

from .errors import KindMismatchError, NonFiniteError, ShapeError, SingularMatrixError
from .fields import Field, Kind, StarMode

RANK_TOL = 1e-9  # float singular values count toward rank above this times a scale


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: int
    cols: int
    values: tuple  # row-major, length rows*cols; ints for the exact kind
    denom: int = 1  # exact entries are values[e] / denom; 1 for the float kinds

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(field: Field, data: Sequence[Sequence]) -> "Matrix":
        rows = len(data)
        if rows == 0:
            raise ShapeError("matrix needs at least one row")
        cols = len(data[0])
        flat = []
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows")
            flat.extend(field.coerce(x) for x in row)
        if not field.is_exact:
            return Matrix(field, rows, cols, tuple(flat))
        return _from_ratios(field, rows, cols, [(x.numerator, x.denominator) for x in flat])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (_zero_one(field)[0],) * (rows * cols))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = _zero_one(field)
        return Matrix(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))

    @staticmethod
    def unit(field: Field, n: int, i: int, j: int) -> "Matrix":
        """Standard matrix unit E_ij (0-based) in M_n."""
        z, o = _zero_one(field)
        return Matrix(field, n, n, tuple(o if (r, c) == (i, j) else z for r in range(n) for c in range(n)))

    @staticmethod
    def diagonal(field: Field, values: Sequence) -> "Matrix":
        n = len(values)
        row = Matrix.from_rows(field, [list(values)])
        flat = [_zero_one(field)[0]] * (n * n)
        flat[::n + 1] = row.values
        return Matrix(field, n, n, tuple(flat), row.denom)

    @staticmethod
    def from_numpy(field: Field, arr) -> "Matrix":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ShapeError("expected a 2-d array")
        if field.kind is Kind.RATIONAL:
            raise KindMismatchError("cannot build exact rationals from a float array")
        return Matrix(field, arr.shape[0], arr.shape[1],
                      tuple(arr.astype(_dtype(field), copy=False).reshape(-1).tolist()))

    # -- basic access ------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """Row-major entries as scalars of the kind (``Fraction`` when exact)."""
        if not self.field.is_exact:
            return self.values
        return tuple(Fraction(v, self.denom) for v in self.values)

    def at(self, i: int, j: int):
        v = self.values[i * self.cols + j]
        return Fraction(v, self.denom) if self.field.is_exact else v

    def __getitem__(self, ij):
        return self.at(*ij)

    def row_list(self) -> list:
        n = self.cols
        e = self.entries
        return [list(e[i * n:(i + 1) * n]) for i in range(self.rows)]

    def to_numpy(self):
        if self.field.kind is Kind.RATIONAL:
            return np.array([v / self.denom for v in self.values],
                            dtype=float).reshape(self.rows, self.cols)
        return np.array(self.values, _dtype(self.field)).reshape(self.rows, self.cols)

    def astype(self, field: Field) -> "Matrix":
        """Explicit kind conversion (e.g. exact rationals to float64)."""
        if field.kind is Kind.RATIONAL and self.field.kind is not Kind.RATIONAL:
            raise KindMismatchError("cannot convert floats back to exact rationals")
        if field.kind is Kind.REAL64 and self.field.kind is Kind.COMPLEX128:
            raise KindMismatchError("cannot convert complex to real")
        if field.is_exact:
            return Matrix(field, self.rows, self.cols, self.values, self.denom)
        caster = float if field.kind is Kind.REAL64 else complex
        values = [v / self.denom for v in self.values] if self.field.is_exact else self.values
        return Matrix(field, self.rows, self.cols, tuple(map(caster, values)))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _same_field(self, other: "Matrix"):
        self.field.require_same(other.field)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "subtraction")

    def _plus(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("%s shape mismatch" % what)
        if not self.field.is_exact:
            return Matrix(self.field, self.rows, self.cols,
                          tuple(map(add if sign > 0 else sub, self.values, other.values)))
        denom = math.lcm(self.denom, other.denom)
        p, q = denom // self.denom, sign * (denom // other.denom)
        return _from_raw(self.field, self.rows, self.cols,
                         [a * p + b * q for a, b in zip(self.values, other.values)], denom)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(-a for a in self.values), self.denom)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def scale(self, scalar) -> "Matrix":
        s = self.field.coerce(scalar)
        if not self.field.is_exact:
            return Matrix(self.field, self.rows, self.cols, tuple(s * a for a in self.values))
        return _from_raw(self.field, self.rows, self.cols,
                         [s.numerator * a for a in self.values], self.denom * s.denominator)

    def _matmul(self, other: "Matrix") -> "Matrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise ShapeError("product shape mismatch: %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return _from_raw(self.field, self.rows, other.cols,
                         _raw_product(self.field, self.values, other.values, self.cols, other.cols),
                         self.denom * other.denom)

    # -- involution and scalar maps ---------------------------------------

    def transpose(self) -> "Matrix":
        v, c = self.values, self.cols
        return Matrix(self.field, c, self.rows, tuple(x for j in range(c) for x in v[j::c]),
                      self.denom)

    def conj(self) -> "Matrix":
        if not self.field.is_complex:
            return self
        return Matrix(self.field, self.rows, self.cols, tuple(x.conjugate() for x in self.values))

    def star(self) -> "Matrix":
        """Transpose, or conjugate transpose in conjugate star mode."""
        out = self.transpose()
        if self.field.star_mode is StarMode.CONJUGATE_TRANSPOSE:
            out = out.conj()
        return out

    def trace(self):
        if not self.is_square:
            raise ShapeError("trace of a non-square matrix")
        diag = self.values[::self.cols + 1]
        if self.field.is_exact:
            return Fraction(sum(diag), self.denom)
        acc = self.field.zero()
        for x in diag:
            acc += x
        return acc

    def maxabs(self) -> float:
        return max((abs(x) for x in self.values), default=0) / self.denom

    def is_zero(self, tol: float = 0.0) -> bool:
        """Every entry within tol of zero; a NaN entry counts as nonzero."""
        if self.field.is_exact:
            return not any(self.values)
        return all(abs(x) <= tol for x in self.values)

    def approx_eq(self, other: "Matrix", tol: float = 0.0) -> bool:
        """Every entry within tol of other's; a NaN difference counts as unequal."""
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if self.field.is_exact:
            return self == other
        return all(abs(a - b) <= tol for a, b in zip(self.values, other.values))

    def __str__(self):
        from .fields import value_str
        body = "\n".join("  [" + ", ".join(value_str(self.at(i, j)) for j in range(self.cols)) + "]"
                         for i in range(self.rows))
        return "Matrix %dx%d (%s)\n%s" % (self.rows, self.cols, self.field.kind.value, body)

    # -- linear algebra ----------------------------------------------------

    def det(self):
        if not self.is_square:
            raise ShapeError("determinant of a non-square matrix")
        if self.field.is_exact:
            (rows,), denom = _int_matrices([self])
            return Fraction(_det_int(rows), denom ** self.rows)
        return _float_det(self.to_numpy())

    def rank(self) -> int:
        if self.field.is_exact:
            (rows,), _ = _int_matrices([self])
            _, pivots, _, _ = _gauss_jordan_int(rows)
            return len(pivots)
        return _float_svd(self.to_numpy(), self.maxabs(), vectors=False)[0]

    def nullspace(self) -> list:
        """Basis of the right kernel, as column vectors (cols x 1 matrices).

        Exact: the vector for free column f is 1 there and 0 at every other
        free column.  Float: an orthonormal basis, the right singular
        vectors past the rank (``_float_svd``)."""
        if self.field.is_exact:
            (rows,), _ = _int_matrices([self])
            kernel, d = _int_kernel(rows, self.cols)
            return [_from_raw(self.field, self.cols, 1, v, d) for v in kernel]
        r, _, _, vh = _float_svd(self.to_numpy(), self.maxabs())
        return [Matrix.from_numpy(self.field, v.reshape(self.cols, 1)) for v in vh[r:].conj()]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        if self.field.is_exact:
            sol = _exact_solve(self, Matrix.identity(self.field, n))
            if sol is None:
                raise SingularMatrixError("matrix is singular")
            return sol
        a = self.to_numpy()
        if self.rank() < n:
            raise SingularMatrixError("matrix is singular at tolerance")
        inv = np.linalg.solve(a, np.eye(n, dtype=a.dtype))
        residual = np.max(np.abs(a @ inv - np.eye(n)))
        if residual > 1e-6 * max(1.0, np.max(np.abs(a)) * np.max(np.abs(inv))):
            raise SingularMatrixError("inverse failed verification (residual %.3g)" % residual)
        return Matrix.from_numpy(self.field, inv)


def _dtype(field: Field):
    """The numpy dtype of a float kind's values."""
    return np.float64 if field.kind is Kind.REAL64 else np.complex128


def _zero_one(field: Field) -> tuple:
    """The stored 0 and 1: ints for the exact kind, the kind's scalars else."""
    return (0, 1) if field.is_exact else (field.zero(), field.one())


def _raw_product(field: Field, a, b, m: int, k: int) -> list:
    """Row-major entries of the product of the row-major values ``a``, with m
    columns, and ``b``, with m rows and k columns, given as ``Matrix.values``
    holds them.

    The exact kind takes one integer dot product per entry, so the product
    of A = a / La and B = b / Lb has entries ``out[e] / (La Lb)``.  The float
    kinds accumulate each entry left to right from zero, one inner index at
    a time over whole rows, so each entry is the one a scalar loop over
    Python floats gives (``sum()`` would compensate float sums from Python
    3.12 on).  A complex product is split into real ufuncs,
    re = ar br - ai bi and im = ar bi + ai br, which round as Python's
    complex multiply does; numpy's own complex multiply does not.  Either
    operand may stack several matrices, each with its own L: every entry is
    still the dot product, in the same order, that the separate product
    takes.
    """
    if field.is_exact:
        rows = [a[i:i + m] for i in range(0, len(a), m)]
        cols = [b[j::k] for j in range(k)]
        return [sum(map(mul, row, col)) for row in rows for col in cols]
    dtype = _dtype(field)
    a = np.array(a, dtype).reshape(-1, m)
    b = np.array(b, dtype).reshape(m, k)
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow silently
        if not field.is_complex:
            out = np.zeros((len(a), k))
            for aj, bj in zip(a.T[:, :, None], b):  # column j of a, row j of b
                out += aj * bj
            return out.reshape(-1).tolist()
        # per inner index j, the four real products ar br, ai (-bi), ar bi, ai br
        left = np.array([a.real, a.imag, a.real, a.imag]).transpose(2, 0, 1)[..., None]
        right = np.array([b.real, -b.imag, b.imag, b.real]).transpose(1, 0, 2)[:, :, None]
        acc = np.zeros((2, len(a), k))
        for lj, rj in zip(left, right):
            x = lj * rj
            acc += x[0::2] + x[1::2]  # re = ar br - ai bi, im = ar bi + ai br
    out = np.empty((len(a), k), dtype)
    out.real = acc[0]  # acc[0] + 1j * acc[1] would put 0 * inf = NaN beside an infinite im
    out.imag = acc[1]
    return out.reshape(-1).tolist()


def _hstack(parts, n: int) -> list:
    """Row-major values of [p_0 | p_1 | ...] for row-major n x n parts."""
    return [v for r in range(0, n * n, n) for p in parts for v in p[r:r + n]]


def _block(values, k: int, i: int, j: int, n: int) -> list:
    """Row-major n x n block (i, j) of row-major values with k columns."""
    return [v for r in range(i * n, (i + 1) * n) for v in values[r * k + j * n:r * k + (j + 1) * n]]


def _from_raw(field: Field, rows: int, cols: int, values, denom: int = 1) -> Matrix:
    """The rows x cols matrix with entries ``values[e] / denom``, in stored
    form: the one constructor that normalises.  For the exact kind the ints
    and the nonzero int denom, which may be negative, are divided by their
    gcd, taken with denom's sign; the float kinds pass denom 1 and keep
    their values as they are."""
    if denom != 1:
        g = math.gcd(denom, *values)
        if denom < 0:
            g = -g
        if g != 1:
            values = [v // g for v in values]
            denom //= g
    return Matrix(field, rows, cols, tuple(values), denom)


def _from_ratios(field: Field, rows: int, cols: int, ratios) -> Matrix:
    """The exact matrix with row-major entries p / q, from (p, q) int pairs
    with q >= 1, over the lcm of the q."""
    denom = math.lcm(*(q for _, q in ratios))
    return _from_raw(field, rows, cols, [p * (denom // q) for p, q in ratios], denom)


# -- free-function spellings of the core operations -------------------------

def star(m: Matrix) -> Matrix:
    return m.star()


def trace(m: Matrix):
    return m.trace()


def det(m: Matrix):
    return m.det()


def rank(m: Matrix) -> int:
    return m.rank()


def inverse(m: Matrix) -> Matrix:
    return m.inverse()


def nullspace(m: Matrix) -> list:
    return m.nullspace()


# -- tuples ------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixTuple:
    field: Field
    n: int
    d: int
    matrices: tuple

    @staticmethod
    def of(*matrices: Matrix) -> "MatrixTuple":
        if not matrices:
            raise ShapeError("empty tuple")
        first = matrices[0]
        if not first.is_square:
            raise ShapeError("tuple members must be square")
        for m in matrices:
            first._same_field(m)
            if (m.rows, m.cols) != (first.rows, first.cols):
                raise ShapeError("tuple members must share n")
        return MatrixTuple(first.field, first.rows, len(matrices), tuple(matrices))

    def __getitem__(self, i: int) -> Matrix:
        return self.matrices[i]

    def __iter__(self):
        return iter(self.matrices)

    def stars(self) -> tuple:
        return tuple(m.star() for m in self.matrices)

    def maxabs(self) -> float:
        return max(m.maxabs() for m in self.matrices)

    def astype(self, field: Field) -> "MatrixTuple":
        return MatrixTuple.of(*(m.astype(field) for m in self.matrices))

    def conjugated(self, p: Matrix) -> "MatrixTuple":
        """Componentwise p . X_i . p^{-1}."""
        pinv = p.inverse()
        return MatrixTuple.of(*(p * m * pinv for m in self.matrices))

    def star_conjugated(self, o: Matrix) -> "MatrixTuple":
        """Componentwise o . X_i . star(o)."""
        ostar = o.star()
        return MatrixTuple.of(*(o * m * ostar for m in self.matrices))


# -- exact engine -------------------------------------------------------------

def _int_matrices(matrices) -> tuple:
    """(row lists of L * m for each matrix m, L): the stored values brought
    to one common denominator L, the lcm of the matrices' denominators."""
    denom = math.lcm(*(m.denom for m in matrices))
    out = []
    for m in matrices:
        k, c = denom // m.denom, m.cols
        values = m.values if k == 1 else [v * k for v in m.values]
        out.append([list(values[r * c:(r + 1) * c]) for r in range(m.rows)])
    return out, denom


def _power_traces(m: Matrix, upto: int) -> list:
    """tr(M^k) for k = 1..upto (upto >= 1), where M = L m holds the stored
    values and L = m.denom.  The exact kind returns ints, so
    tr(m^k) = tr(M^k) / L^k, and folds the last factor into the trace.  The
    float kinds (L = 1) take the products of repeated ``acc * m``
    (``_raw_product``) and sum each diagonal as ``Matrix.trace`` does."""
    n, field, values = m.rows, m.field, m.values
    if not field.is_exact:
        acc, out = values, [reduce(add, values[::n + 1], field.zero())]
        for _ in range(upto - 1):
            acc = _raw_product(field, acc, values, n, n)
            out.append(reduce(add, acc[::n + 1], field.zero()))
        return out
    (rows,), _ = _int_matrices([m])
    cols = [list(c) for c in zip(*rows)]
    out = [sum(rows[i][i] for i in range(n))]
    acc = rows  # M^(k-1); the last factor is folded into the trace
    for k in range(2, upto + 1):
        out.append(sum(sum(map(mul, row, col)) for row, col in zip(acc, cols)))
        if k < upto:
            acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
    return out


def _det_int(rows):
    """Determinant of a square integer matrix (closed forms up to 4x4)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        r0, r1, r2, r3 = rows
        # Laplace expansion along the first two rows via 2x2 minors.
        m01 = r0[0] * r1[1] - r0[1] * r1[0]
        m02 = r0[0] * r1[2] - r0[2] * r1[0]
        m03 = r0[0] * r1[3] - r0[3] * r1[0]
        m12 = r0[1] * r1[2] - r0[2] * r1[1]
        m13 = r0[1] * r1[3] - r0[3] * r1[1]
        m23 = r0[2] * r1[3] - r0[3] * r1[2]
        n01 = r2[0] * r3[1] - r2[1] * r3[0]
        n02 = r2[0] * r3[2] - r2[2] * r3[0]
        n03 = r2[0] * r3[3] - r2[3] * r3[0]
        n12 = r2[1] * r3[2] - r2[2] * r3[1]
        n13 = r2[1] * r3[3] - r2[3] * r3[1]
        n23 = r2[2] * r3[3] - r2[3] * r3[2]
        return m01 * n23 - m02 * n13 + m03 * n12 + m12 * n03 - m13 * n02 + m23 * n01
    _, pivots, d, sign = _gauss_jordan_int([list(row) for row in rows])
    return sign * d if len(pivots) == n else 0


def _gauss_jordan_int(rows):
    """Fraction-free Gauss-Jordan reduction of an integer matrix.

    ``rows`` is a list of equal-length lists of ints and is consumed.
    Returns ``(rows, pivot_cols, d, sign)``: the first ``len(pivot_cols)``
    rows are d times the reduced row echelon form, so each holds d at its
    own pivot column and 0 at every other pivot column, and the remaining
    rows are zero.  d is the last pivot (1 when there is none) and sign is
    the parity of the row swaps, +1 or -1.  Each step is the Bareiss update
    applied to every other row, rows above the pivot included; all entries
    stay minors of the input, so every division is exact, and the pivots
    are the Bareiss pivots, so a square input of full rank has determinant
    ``sign * d``.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        row_r = rows[r]
        piv = row_r[c]
        for i in range(nrows):
            row_i = rows[i]
            head = row_i[c]
            if i == r or (head == 0 and piv == prev):
                continue  # the update would leave this row as it is
            # row_r is zero left of c; a row above starts at its own pivot
            j = pivot_cols[i] if i < r else c
            row_i[j:] = [(a * piv - head * b) // prev for a, b in zip(row_i[j:], row_r[j:])]
        prev = piv
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, prev, sign


def _int_kernel(rows, ncols: int) -> tuple:
    """(vectors, d): d times the reduced right-kernel basis of an integer
    matrix, one int list per free column, in increasing column order.

    ``rows`` is consumed.  The vector for free column f holds d there, 0 at
    every other free column and minus the reduced rows' entries in column f
    at the pivot columns.
    """
    ech, pivots, d, _ = _gauss_jordan_int(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[f] = d
        for row, pc in zip(ech, pivots):
            v[pc] = -row[f]
        basis.append(v)
    return basis, d


def _exact_solve(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """One exact solution of a X = b, or None when inconsistent.

    Free variables are set to zero.  ``b`` may have several columns.  One
    reduction of [L a | L b] leaves d times the reduced row echelon form,
    so row p of X, with p the pivot column of row r, is ``row_r[a.cols:]``
    over d.
    """
    if a.rows != b.rows:
        raise ShapeError("solve shape mismatch")
    (arows, brows), _ = _int_matrices([a, b])
    ech, pivots, d, _ = _gauss_jordan_int([ra + rb for ra, rb in zip(arows, brows)])
    m = a.cols
    if pivots and pivots[-1] >= m:
        return None  # pivot in the right-hand block: inconsistent
    sol = [[0] * b.cols] * m
    for row, pc in zip(ech, pivots):
        sol[pc] = row[m:]
    return _from_raw(a.field, m, b.cols, [v for r in sol for v in r], d)


def solve_linear(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """A solution of a X = b, or None if inconsistent.

    The exact kind sets the free variables zero.  The float kinds return
    the minimum-norm solution at the rank of ``a`` (``_float_solve``, at the
    scale of the largest entry of ``a``)."""
    a._same_field(b)
    if a.rows != b.rows:
        raise ShapeError("solve shape mismatch")
    if a.field.is_exact:
        return _exact_solve(a, b)
    x = _float_solve(a.to_numpy(), b.to_numpy(), a.maxabs())
    return None if x is None else Matrix.from_numpy(a.field, x)


# -- float engine --------------------------------------------------------------

def _float_svd(a, scale: float, vectors: bool = True) -> tuple:
    """The float rank rule, which every float rank decision takes: the rank r
    of the array ``a`` is the number of its singular values above
    ``RANK_TOL * scale``.

    Returns (r, u, s, vh), the singular values s in decreasing order.  u and
    vh are None without ``vectors``; else vh is square, so vh[:r] is an
    orthonormal basis of the row space and vh[r:].conj() one of the right
    kernel.  ``NonFiniteError`` if an entry of ``a`` is not finite.
    """
    if not np.isfinite(a).all():
        raise NonFiniteError("non-finite entry in a float rank decision")
    if vectors:
        u, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    else:
        u, s, vh = None, np.linalg.svd(a, compute_uv=False), None
    return int(np.count_nonzero(s > RANK_TOL * scale)), u, s, vh


def _float_solve(a, b, scale: float):
    """The minimum-norm X of a X = b for float arrays at the rank r of ``a``
    at ``scale``, or None when a column of ``b`` lies outside the column
    space: appending the columns, each brought to largest entry ``scale``,
    raises the rank.  A full row rank needs no such test."""
    r, u, s, vh = _float_svd(a, scale)
    if r < len(a):
        unit = scale or 1.0  # a zero a: any nonzero column is outside
        peak = np.max(np.abs(b), axis=0)
        fitted = b * (unit / np.where(peak > 0, peak, 1.0))
        if _float_svd(np.hstack([a, fitted]), unit, vectors=False)[0] > r:
            return None
    return vh[:r].conj().T @ ((u[:, :r].conj().T @ b) / s[:r, None])


def _float_det(a: np.ndarray):
    val = np.linalg.det(a)
    return complex(val) if np.iscomplexobj(a) else float(val)
