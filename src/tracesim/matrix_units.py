"""Matrix-unit systems, the induced algebra embedding, centers and commutants.

A family a_ij (i,j in 0..N-1) of n x n matrices is a matrix-unit system
when a_ij * a_st = delta_js * a_it and no member vanishes (one zero member
forces them all to zero, so "all nonzero" is part of validity).  Valid
systems are linearly independent, and coefficient families that commute
with every unit induce an injective algebra embedding

    theta(c) = sum_ij c_ij * a_ij,

multiplicative because (sum x_ij a_ij)(sum y_ij a_ij) =
sum_ij (sum_k x_ik y_kj) a_ij.  Commutants (hence centers: the commutant
of a full unit system is the scalars) come from the same stacked linear
system the intertwiner module uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (MissingUnitsError, NonCentralCoefficientError, ShapeError)
from .fields import Field
from .intertwiner import intertwiner_basis
from .matrices import Matrix, MatrixTuple, _float_tol

RELATION_TOL = 1e-9  # scaled by the largest entry magnitude in float modes


@dataclass(frozen=True)
class EpsilonViolation:
    kind: str  # "zero" | "product"
    i: int
    j: int
    s: int = -1
    t: int = -1
    expected: Optional[Matrix] = None
    got: Optional[Matrix] = None

    def __str__(self):
        if self.kind == "zero":
            return "zero unit at (i,j)=(%d,%d)" % (self.i, self.j)
        return "violated at (i,j,s,t)=(%d,%d,%d,%d)" % (self.i, self.j, self.s, self.t)


def _family_shape(units: Sequence[Sequence[Matrix]]):
    n_outer = len(units)
    if n_outer == 0:
        raise ShapeError("empty unit family")
    first = units[0][0]
    for row in units:
        if len(row) != n_outer:
            raise ShapeError("unit family must be square N x N")
        for m in row:
            first._same_field(m)
            if (m.rows, m.cols) != (first.rows, first.cols) or not m.is_square:
                raise ShapeError("units must be square matrices of one size")
    return n_outer, first.rows, first.field


def _rel_tol(units, tol):
    field = units[0][0].field
    if field.is_exact:
        return 0.0
    if tol is not None:
        return _float_tol(tol)
    scale = max(m.maxabs() for row in units for m in row)
    return RELATION_TOL * max(1.0, scale)


def check_epsilon(units: Sequence[Sequence[Matrix]], tol: Optional[float] = None):
    """Verify all N^4 unit relations; returns (ok, first violation or None)."""
    n_outer, _, _ = _family_shape(units)
    eff = _rel_tol(units, tol)
    for i in range(n_outer):
        for j in range(n_outer):
            if units[i][j].is_zero(eff):
                return False, EpsilonViolation("zero", i, j)
    for i in range(n_outer):
        for j in range(n_outer):
            for s in range(n_outer):
                for t in range(n_outer):
                    got = units[i][j] * units[s][t]
                    if j == s:
                        if not got.approx_eq(units[i][t], eff):
                            return False, EpsilonViolation("product", i, j, s, t,
                                                           units[i][t], got)
                    elif not got.is_zero(eff):
                        expected = Matrix.zeros(got.field, got.rows, got.cols)
                        return False, EpsilonViolation("product", i, j, s, t, expected, got)
    return True, None


@dataclass(frozen=True)
class UnitSystem:
    n_units: int  # N
    n: int
    field: Field
    units: tuple  # N x N nested tuple of matrices

    @staticmethod
    def from_family(units: Sequence[Sequence[Matrix]], tol: Optional[float] = None,
                    validate: bool = True) -> "UnitSystem":
        n_outer, n_inner, field = _family_shape(units)
        if validate:
            ok, violation = check_epsilon(units, tol)
            if not ok:
                raise ShapeError("not a matrix-unit system: %s" % violation)
        return UnitSystem(n_outer, n_inner, field,
                          tuple(tuple(row) for row in units))

    @staticmethod
    def standard(field: Field, n: int) -> "UnitSystem":
        units = tuple(tuple(Matrix.unit(field, n, i, j) for j in range(n)) for i in range(n))
        return UnitSystem(n, n, field, units)

    @staticmethod
    def conjugated(field: Field, n: int, p: Matrix) -> "UnitSystem":
        pinv = p.inverse()
        units = tuple(tuple(p * Matrix.unit(field, n, i, j) * pinv for j in range(n))
                      for i in range(n))
        return UnitSystem(n, n, field, units)

    def at(self, i: int, j: int) -> Matrix:
        return self.units[i][j]

    def flat(self) -> list:
        return [m for row in self.units for m in row]


def check_delta(v: Matrix, system: UnitSystem, tol: Optional[float] = None) -> bool:
    """True iff v commutes with every unit of the system.

    v u and u v are compared entry by entry (``approx_eq``), as
    ``check_epsilon`` compares its products, so no difference is formed.
    """
    if (v.rows, v.cols) != (system.n, system.n):
        raise ShapeError("candidate shape does not match the units")
    v._same_field(system.at(0, 0))
    eff = _rel_tol(system.units, tol)
    for row in system.units:
        for u in row:
            if not (v * u).approx_eq(u * v, eff):
                return False
    return True


def theta_embedding(system: UnitSystem, coeffs: Sequence[Sequence[Matrix]],
                    tol: Optional[float] = None) -> Matrix:
    """sum_ij coeffs[i][j] * a_ij for central coefficient matrices.

    Each coefficient must commute with every unit (centrality relative to
    the system, not to the whole matrix ring).
    """
    n_units = system.n_units
    if len(coeffs) != n_units or any(len(row) != n_units for row in coeffs):
        raise ShapeError("coefficient family must be %d x %d" % (n_units, n_units))
    for i, row in enumerate(coeffs):
        for j, c in enumerate(row):
            if not check_delta(c, system, tol):
                raise NonCentralCoefficientError(
                    "coefficient (%d,%d) does not commute with the units" % (i, j))
    acc = Matrix.zeros(system.field, system.n, system.n)
    for i in range(n_units):
        for j in range(n_units):
            acc = acc + coeffs[i][j] * system.at(i, j)
    return acc


def coeff_product(a: Sequence[Sequence[Matrix]], b: Sequence[Sequence[Matrix]]):
    """Formal product of coefficient families: (a b)_ij = sum_k a_ik b_kj."""
    n_units = len(a)
    out = []
    for i in range(n_units):
        row = []
        for j in range(n_units):
            acc = None
            for k in range(n_units):
                term = a[i][k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def commutant(mats: Sequence[Matrix], n: Optional[int] = None,
              field: Optional[Field] = None, tol: Optional[float] = None) -> list:
    """Basis of {v : v m = m v for all m}; full M_n for an empty set."""
    if not mats:
        if n is None or field is None:
            raise ShapeError("empty set needs explicit n and field")
        return [Matrix.unit(field, n, i, j) for i in range(n) for j in range(n)]
    x = MatrixTuple.of(*mats)
    basis = intertwiner_basis(x, x, with_star=False, tol=tol)
    return list(basis.basis)


@dataclass(frozen=True)
class SubringReport:
    coefficients: tuple         # sampled (0,0)-corner entries, sorted; one NaN last if any
    closure_ok: bool
    reconstruction_ok: bool
    violations: tuple
    sampled_elements: int


def extract_subring_coefficients(generators: Sequence[Matrix], depth: int = 3,
                                 max_products: int = 4000,
                                 tol: Optional[float] = None) -> SubringReport:
    """Sample the subring generated and watch its corner entries.

    For a generating set that contains the standard units, the (0,0)
    entries of the generated subring form a subring of the scalars, and
    every generated element X is rebuilt from corner data via
    X = sum_ij E_i0 (E_0i X E_j0) E_0j.  Products of generators up to the
    given depth are sampled, and both facts are checked on the first 40 of
    them.  Additive closure needs no check: the corner of x + y is
    corner(x) + corner(y) by definition of matrix addition.

    The closure check stacks row 0 of each checked element x_k into one
    matrix R.  Row k of (R E00) y E00 is row 0 of x_k E00 y E00, since each
    of its entries is the same dot product, accumulated in the same order,
    so column 0 gives every corner (x_k E00 y E00)_00 for one y from two
    products, and the answer is the same to the last bit.  A corner that is
    NaN, as an overflowing float product can make it, counts as a
    violation.

    ``coefficients`` holds the distinct sampled corners that are not NaN,
    sorted (complex ones by magnitude, then repr), followed by the first
    NaN corner when there is one.
    """
    if not generators:
        raise MissingUnitsError("empty generating set")
    first = generators[0]
    n = first.rows
    field = first.field
    std = [[Matrix.unit(field, n, i, j) for j in range(n)] for i in range(n)]
    eff = 0.0 if field.is_exact else (_float_tol(tol) if tol is not None else RELATION_TOL)
    for i in range(n):
        for j in range(n):
            if not any(g.approx_eq(std[i][j], eff) for g in generators):
                raise MissingUnitsError(
                    "generating set lacks standard unit E_%d%d" % (i, j))

    # products of generators up to the depth, deduplicated
    sample = []
    seen = set()
    layer = [Matrix.identity(field, n)]
    for _ in range(depth):
        nxt = []
        for m in layer:
            for g in generators:
                prod = m * g
                key = prod.entries
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
                    sample.append(prod)
                    if len(sample) >= max_products:
                        break
            if len(sample) >= max_products:
                break
        if len(sample) >= max_products:
            break
        layer = nxt

    def differs(u, w):
        if field.is_exact:
            return u != w
        return not abs(u - w) <= eff  # a NaN difference counts

    violations = []
    corner = lambda m: m.at(0, 0)
    head = sample[:40]
    e00 = std[0][0]
    # R stacks row 0 of each head element; column 0 of (R E00) y E00 holds
    # every corner for y (see the docstring)
    r_e00 = Matrix(field, len(head), n, tuple(v for x in head for v in x.entries[:n])) * e00
    corner_cols = [(r_e00 * y * e00).entries[::n] for y in head]
    for k, x in enumerate(head):
        for y, col in zip(head, corner_cols):
            if differs(col[k], corner(x) * corner(y)):
                violations.append(("mul", corner(x), corner(y)))

    recon_ok = True
    for x in head:
        acc = Matrix.zeros(field, n, n)
        for i in range(n):
            e0i_x = std[0][i] * x
            for j in range(n):
                acc = acc + std[i][0] * (e0i_x * std[j][0]) * std[0][j]
        if not (acc - x).is_zero(eff):
            recon_ok = False
            violations.append(("reconstruction", x.entries, None))
            break

    corners = [corner(m) for m in sample]
    key = (lambda v: (abs(v), repr(v))) if field.is_complex else None
    coeffs = sorted({c for c in corners if c == c}, key=key)
    coeffs += [c for c in corners if c != c][:1]  # NaN has no order: one, last
    return SubringReport(tuple(coeffs), not any(v[0] == "mul" for v in violations),
                         recon_ok, tuple(violations), len(sample))
