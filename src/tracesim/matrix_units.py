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

The relation checks take a few stacked products instead of one product per
relation.  ``check_epsilon`` multiplies each a_ij by [a_00 | a_01 | ...];
``theta_embedding`` and ``check_delta`` take [c_0; c_1; ...] [a_00 | ...] and
[a_00; ...] [c_0 | c_1 | ...]; the subring sampler multiplies each element
by all generators at once.  A block of a stacked product is the separate
product entry for entry, each the same dot product in the same order, so
every float value is the same to the last bit.  The products stay raw
(``matrices._raw_product`` of the stored values): exact entries are integer
dot products over a known denominator and are compared by
cross-multiplying, and a matrix is built only for a returned value or a
reported violation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (MissingUnitsError, NonCentralCoefficientError, ShapeError)
from .fields import Field
from .intertwiner import intertwiner_basis
from .matrices import Matrix, MatrixTuple, _from_raw, _raw_product

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


def _rel_tol(units):
    field = units[0][0].field
    if field.is_exact:
        return 0.0
    scale = max(m.maxabs() for row in units for m in row)
    return RELATION_TOL * max(1.0, scale)


def _hstack(parts, n: int) -> list:
    """Row-major values of [p_0 | p_1 | ...] for row-major n x n parts."""
    return [v for r in range(0, n * n, n) for p in parts for v in p[r:r + n]]


def _block(values, k: int, i: int, j: int, n: int) -> list:
    """Row-major n x n block (i, j) of row-major values with k columns."""
    return [v for r in range(i * n, (i + 1) * n) for v in values[r * k + j * n:r * k + (j + 1) * n]]


def _agree(field: Field, a, la, b, lb, eff: float) -> bool:
    """a / la equals b / lb entry by entry (values as ``Matrix`` stores
    them): integers cross-multiplied for the exact kind, within eff for the
    float kinds, where a NaN difference counts as unequal."""
    if field.is_exact:
        if la == lb:
            return list(a) == list(b)
        return all(x * lb == y * la for x, y in zip(a, b))
    return all(abs(x - y) <= eff for x, y in zip(a, b))


def check_epsilon(units: Sequence[Sequence[Matrix]]):
    """Verify all N^4 unit relations; returns (ok, first violation or None).

    Each left unit a_ij takes one product a_ij [a_00 | a_01 | ...], whose
    block (s, t) is a_ij a_st entry for entry, and the blocks are checked in
    (i, j, s, t) order.  Float entries agree within RELATION_TOL times
    max(1, the largest entry magnitude of the family).
    """
    n_outer, n, field = _family_shape(units)
    eff = _rel_tol(units)
    for i in range(n_outer):
        for j in range(n_outer):
            if units[i][j].is_zero(eff):
                return False, EpsilonViolation("zero", i, j)
    width = n * n_outer * n_outer
    right = _hstack([m.values for row in units for m in row], n)
    zero = Matrix.zeros(field, n, n)
    for i in range(n_outer):
        for j in range(n_outer):
            left = units[i][j]
            prod = _raw_product(field, left.values, right, n, width)
            for s in range(n_outer):
                for t in range(n_outer):
                    got = _block(prod, width, 0, s * n_outer + t, n)
                    denom = left.denom * units[s][t].denom
                    want = units[i][t] if j == s else zero
                    if not _agree(field, got, denom, want.values, want.denom, eff):
                        return False, EpsilonViolation("product", i, j, s, t, want,
                                                       _from_raw(field, n, n, got, denom))
    return True, None


@dataclass(frozen=True)
class UnitSystem:
    n_units: int  # N
    n: int
    field: Field
    units: tuple  # N x N nested tuple of matrices

    @staticmethod
    def from_family(units: Sequence[Sequence[Matrix]]) -> "UnitSystem":
        n_outer, n_inner, field = _family_shape(units)
        ok, violation = check_epsilon(units)
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


def _first_noncentral(system: UnitSystem, coeffs: Sequence[Matrix]) -> tuple:
    """(k, cu): k indexes the first coefficient that fails to commute with
    some unit, or is None; cu holds the raw entries of [c_0; c_1; ...]
    [a_0 | a_1 | ...], units in row-major order.

    Block (k, l) of cu is c_k a_l and block (l, k) of [a_0; a_1; ...]
    [c_0 | c_1 | ...] is a_l c_k, entry for entry, both over the same
    denominator, so two products test every pair.  The float tolerance is
    RELATION_TOL * max(1, max|a|) * max(1, max|c_k|), since both products
    scale with the coefficient too.  It is capped at the largest float, so
    an infinite difference never passes.
    """
    n, units, field = system.n, system.flat(), system.field
    for c in coeffs:
        if (c.rows, c.cols) != (n, n):
            raise ShapeError("candidate shape does not match the units")
        c._same_field(units[0])
    eff = _rel_tol(system.units)
    if field.is_exact:
        effs = [eff] * len(coeffs)
    else:
        effs = [min(eff * max(1.0, c.maxabs()), sys.float_info.max) for c in coeffs]
    u_raw = [u.values for u in units]
    c_raw = [c.values for c in coeffs]
    wu, wc = n * len(units), n * len(coeffs)
    cu = _raw_product(field, [v for c in c_raw for v in c], _hstack(u_raw, n), n, wu)
    uc = _raw_product(field, [v for u in u_raw for v in u], _hstack(c_raw, n), n, wc)
    for k, bound in enumerate(effs):
        if not all(_agree(field, _block(cu, wu, k, l, n), 1, _block(uc, wc, l, k, n), 1, bound)
                   for l in range(len(units))):
            return k, cu
    return None, cu


def check_delta(v: Matrix, system: UnitSystem) -> bool:
    """True iff v commutes with every unit of the system: the one-coefficient
    case of ``theta_embedding``'s check."""
    return _first_noncentral(system, [v])[0] is None


def theta_embedding(system: UnitSystem, coeffs: Sequence[Sequence[Matrix]]) -> Matrix:
    """sum_ij coeffs[i][j] * a_ij for central coefficient matrices.

    Each coefficient must commute with every unit (centrality relative to
    the system, not to the whole matrix ring).  The terms c_ij a_ij are the
    diagonal blocks of the centrality check's first product, added in
    row-major order from zero.
    """
    n_units, n, field = system.n_units, system.n, system.field
    if len(coeffs) != n_units or any(len(row) != n_units for row in coeffs):
        raise ShapeError("coefficient family must be %d x %d" % (n_units, n_units))
    flat = [c for row in coeffs for c in row]
    bad, cu = _first_noncentral(system, flat)
    if bad is not None:
        raise NonCentralCoefficientError(
            "coefficient (%d,%d) does not commute with the units" % divmod(bad, n_units))
    width = n * len(flat)  # one block per unit, as many as coefficients
    terms = [_block(cu, width, k, k, n) for k in range(len(flat))]
    if not field.is_exact:
        acc = [field.zero()] * (n * n)
        for term in terms:
            acc = [x + y for x, y in zip(acc, term)]
        return Matrix(field, n, n, tuple(acc))
    denoms = [c.denom * u.denom for c, u in zip(flat, system.flat())]
    denom = math.lcm(*denoms)
    acc = [sum(term[e] * (denom // d) for term, d in zip(terms, denoms)) for e in range(n * n)]
    return _from_raw(field, n, n, acc, denom)


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
              field: Optional[Field] = None) -> list:
    """Basis of {v : v m = m v for all m}; full M_n for an empty set."""
    if not mats:
        if n is None or field is None:
            raise ShapeError("empty set needs explicit n and field")
        return [Matrix.unit(field, n, i, j) for i in range(n) for j in range(n)]
    x = MatrixTuple.of(*mats)
    basis = intertwiner_basis(x, x, with_star=False)
    return list(basis.basis)


@dataclass(frozen=True)
class SubringReport:
    coefficients: tuple         # sampled (0,0)-corner entries, sorted; one NaN last if any
    closure_ok: bool
    reconstruction_ok: bool
    violations: tuple
    sampled_elements: int


def extract_subring_coefficients(generators: Sequence[Matrix], depth: int = 3,
                                 max_products: int = 4000) -> SubringReport:
    """Sample the subring generated and watch its corner entries.

    For a generating set that contains the standard units, the (0,0)
    entries of the generated subring form a subring of the scalars, and
    every generated element X is rebuilt from corner data via
    X = sum_ij E_i0 (E_0i X E_j0) E_0j.  Products of generators up to the
    given depth are sampled, and both facts are checked on the first 40 of
    them.  Additive closure needs no check: the corner of x + y is
    corner(x) + corner(y) by definition of matrix addition.

    Each sample layer takes one product m [g_0 | g_1 | ...] per element m
    of the layer before, whose blocks are the products m g, each brought to
    stored form so that equal elements are equal keys.

    The closure check stacks row 0 of each checked element x_k into one
    matrix R.  Row k of (R E00) y E00 is row 0 of x_k E00 y E00, since each
    of its entries is the same dot product, accumulated in the same order.
    So (R E00) [y_0 | y_1 | ...], read as one row per (x_k, y) pair and
    multiplied by column 0 of E00, gives every corner (x_k E00 y E00)_00
    from three products, the same to the last bit.  A corner that is NaN,
    as an overflowing float product can make it, counts as a violation.

    E_0i X E_j0 is X_ij E_00, and its (0,0) entry is the dot product that
    formed entry (i, j) of X, so the reconstruction is read off X itself
    with no product formed: each rebuilt entry minus X's is zero unless the
    entry is inf or NaN, exactly when the n + 3n^2 products would fail.

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
    eff = 0.0 if field.is_exact else RELATION_TOL
    for i in range(n):
        for j in range(n):
            if not any(g.approx_eq(std[i][j], eff) for g in generators):
                raise MissingUnitsError(
                    "generating set lacks standard unit E_%d%d" % (i, j))

    if any((g.rows, g.cols) != (n, n) for g in generators):
        raise ShapeError("generators must be square matrices of one size")

    # products of generators up to the depth, deduplicated
    width = n * len(generators)
    right = _hstack([g.values for g in generators], n)
    sample = []
    seen = set()
    layer = [Matrix.identity(field, n)]
    for _ in range(depth):
        nxt = []
        for m in layer:
            prod = _raw_product(field, m.values, right, n, width)
            for b, g in enumerate(generators):
                elem = _from_raw(field, n, n, _block(prod, width, 0, b, n), m.denom * g.denom)
                if elem not in seen:
                    seen.add(elem)
                    nxt.append(elem)
                    sample.append(elem)
                    if len(sample) >= max_products:
                        break
            if len(sample) >= max_products:
                break
        if len(sample) >= max_products:
            break
        layer = nxt

    def differs(u, w):  # stored values over one denominator
        if field.is_exact:
            return u != w
        return not abs(u - w) <= eff  # a NaN difference counts

    violations = []
    head = sample[:40]
    h = len(head)
    e00 = std[0][0].values
    # R stacks row 0 of each head element; (R E00) [y_0 | y_1 | ...] read
    # as h*h rows of length n, times column 0 of E00, holds every corner
    # (x_k E00 y E00)_00 at k*h + y (see the docstring)
    r_e00 = _raw_product(field, [v for x in head for v in x.values[:n]], e00, n, n)
    r_e00_y = _raw_product(field, r_e00, _hstack([x.values for x in head], n), n, h * n)
    pair_corners = _raw_product(field, r_e00_y, e00[::n], n, 1)
    for k, x in enumerate(head):
        for c, y in zip(pair_corners[k * h:(k + 1) * h], head):
            if differs(c, x.values[0] * y.values[0]):
                violations.append(("mul", x.at(0, 0), y.at(0, 0)))

    recon_ok = True  # each rebuilt entry is x's own (see the docstring)
    for x in head:
        if any(differs(v, v) for v in x.values):
            recon_ok = False
            violations.append(("reconstruction", x.entries, None))
            break

    corners = [x.at(0, 0) for x in sample]
    key = (lambda v: (abs(v), repr(v))) if field.is_complex else None
    coeffs = sorted({c for c in corners if c == c}, key=key)
    coeffs += [c for c in corners if c != c][:1]  # NaN has no order: one, last
    return SubringReport(tuple(coeffs), not any(v[0] == "mul" for v in violations),
                         recon_ok, tuple(violations), len(sample))

