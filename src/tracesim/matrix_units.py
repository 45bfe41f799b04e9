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
relation, and judge each product whole.  ``check_epsilon`` compares
[a_00; a_01; ...] [a_00 | a_01 | ...] with the stacked expected matrix;
``theta_embedding`` and ``check_delta`` compare [c_0; c_1; ...] [a_00 | ...]
with the block transpose of [a_00; ...] [c_0 | c_1 | ...]; the subring
sampler multiplies a whole layer by all generators at once.  Each product
is one numpy matmul (``matrices._raw_product`` of the stored values): an
exact one multiplies object arrays of ints over a known denominator, so
the exact kind is judged whole like the float kinds, and a block is cut
out and a matrix built only for a returned value or a violation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import ne
from typing import Optional, Sequence

import numpy as np

from .errors import (MissingUnitsError, NonCentralCoefficientError, ShapeError)
from .fields import Field
from .intertwiner import intertwiner_basis
from .matrices import (Matrix, MatrixTuple, _block, _dtype, _from_raw, _hstack,
                       _raw_product)

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


def check_epsilon(units: Sequence[Sequence[Matrix]]):
    """Verify all N^4 unit relations; returns (ok, first violation or None).

    One product [a_00; a_01; ...] [a_00 | a_01 | ...], whose block (ij, st)
    is a_ij a_st, is compared whole with the stacked matrix whose block
    (ij, st) is a_it if j == s, else 0.  The exact kind brings the family to
    one denominator L and compares the integer product, over L^2, with L
    times the expected blocks.  The float kinds accept entries within
    RELATION_TOL times max(1, the largest entry magnitude of the family),
    and a NaN difference fails.  The violation reported is the first
    failing block in (i, j, s, t) order.
    """
    n_outer, n, field = _family_shape(units)
    eff = _rel_tol(units)
    for i in range(n_outer):
        for j in range(n_outer):
            if units[i][j].is_zero(eff):
                return False, EpsilonViolation("zero", i, j)
    flat = [m for row in units for m in row]
    if field.is_exact:
        denom, dtype = math.lcm(*(m.denom for m in flat)), object
        values = [[v * (denom // m.denom) for v in m.values] for m in flat]
    else:
        denom, dtype, values = 1, _dtype(field), [m.values for m in flat]
    got = np.array(_raw_product(field, [v for m in values for v in m], _hstack(values, n),
                                n, n * len(flat)), dtype)
    got = got.reshape(n_outer, n_outer, n, n_outer, n_outer, n)  # [i, j, r, s, t, c]
    want = np.zeros_like(got)
    a_itrc = np.array(values, dtype).reshape(n_outer, n_outer, n, n)
    for j in range(n_outer):
        want[:, j, :, j] = a_itrc.transpose(0, 2, 1, 3) * denom  # block (ij, jt): a_it, over L^2
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.abs(got - want) <= eff)
    bad = bad.any(axis=(2, 5))  # [i, j, s, t]
    if not bad.any():
        return True, None
    i, j, s, t = map(int, np.unravel_index(np.argmax(bad), bad.shape))
    want = units[i][t] if j == s else Matrix.zeros(field, n, n)
    return False, EpsilonViolation("product", i, j, s, t, want,
                                   _from_raw(field, n, n, got[i, j, :, s, t].reshape(-1).tolist(),
                                             denom * denom))


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
    some unit, or is None; cu is [c_0; c_1; ...] [a_0 | a_1 | ...], units
    in row-major order, as an array of raw entries indexed [k, r, l, c].

    Block (k, l) of cu is c_k a_l and block (l, k) of uc = [a_0; a_1; ...]
    [c_0 | c_1 | ...] is a_l c_k, both over the same denominator, so two
    products test every pair, and one comparison of cu with the block
    transpose of uc judges them all.  The float tolerance for c_k is
    RELATION_TOL * max(1, max|a|) * max(1, max|c_k|), since both products
    scale with the coefficient too; both maxima are numpy reductions over
    the stacked operands.  It is capped at the largest float, so an
    infinite difference never passes.
    """
    n, units, field = system.n, system.flat(), system.field
    for c in coeffs:
        if (c.rows, c.cols) != (n, n):
            raise ShapeError("candidate shape does not match the units")
        c._same_field(units[0])
    n_c, n_u = len(coeffs), len(units)
    dtype = object if field.is_exact else _dtype(field)
    a = np.array([u.values for u in units], dtype).reshape(n_u, n, n)
    cs = np.array([c.values for c in coeffs], dtype).reshape(n_c, n, n)
    cu = _raw_product(field, cs, a.transpose(1, 0, 2), n, n * n_u)  # stacked times side by side
    uc = _raw_product(field, a, cs.transpose(1, 0, 2), n, n * n_c)
    left = np.array(cu, dtype).reshape(n_c, n, n_u, n)  # [k, r, l, c]
    right = np.array(uc, dtype).reshape(n_u, n, n_c, n).transpose(2, 1, 0, 3)
    if field.is_exact:
        bad = left != right
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            eff = RELATION_TOL * max(1.0, np.abs(a).max())
            bounds = np.minimum(eff * np.maximum(1.0, np.abs(cs).max(axis=(1, 2))),
                                sys.float_info.max)
            bad = ~(np.abs(left - right) <= bounds[:, None, None, None])
    bad = bad.reshape(n_c, -1).any(axis=1)
    return (int(np.argmax(bad)) if bad.any() else None), left


def check_delta(v: Matrix, system: UnitSystem) -> bool:
    """True iff v commutes with every unit of the system: the one-coefficient
    case of ``theta_embedding``'s check."""
    return _first_noncentral(system, [v])[0] is None


def theta_embedding(system: UnitSystem, coeffs: Sequence[Sequence[Matrix]]) -> Matrix:
    """sum_ij coeffs[i][j] * a_ij for central coefficient matrices.

    Each coefficient must commute with every unit (centrality relative to
    the system, not to the whole matrix ring).  The terms c_ij a_ij are the
    diagonal blocks of the centrality check's first product, summed in one
    step (the exact kind weights each by L / its denominator, L the lcm).
    """
    n_units, n, field = system.n_units, system.n, system.field
    if len(coeffs) != n_units or any(len(row) != n_units for row in coeffs):
        raise ShapeError("coefficient family must be %d x %d" % (n_units, n_units))
    flat = [c for row in coeffs for c in row]
    bad, cu = _first_noncentral(system, flat)
    if bad is not None:
        raise NonCentralCoefficientError(
            "coefficient (%d,%d) does not commute with the units" % divmod(bad, n_units))
    diag = np.arange(len(flat))  # one unit per coefficient: block (k, k) is c_k a_k
    terms = cu[diag, :, diag, :].reshape(len(flat), n * n)
    if not field.is_exact:
        return Matrix(field, n, n, tuple(terms.sum(axis=0).tolist()))
    denoms = [c.denom * u.denom for c, u in zip(flat, system.flat())]
    denom = math.lcm(*denoms)
    acc = np.array([denom // d for d in denoms], object) @ terms
    return _from_raw(field, n, n, acc.tolist(), denom)


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

    Each sample layer takes one product [m_0; m_1; ...] [g_0 | g_1 | ...]
    of the layer before, whose blocks are the products m g, each brought to
    stored form so that equal elements are equal keys.

    The closure check stacks row 0 of each checked element x_k into one
    matrix R.  Row k of (R E00) y E00 is row 0 of x_k E00 y E00.  So
    (R E00) [y_0 | y_1 | ...], read as one row per (x_k, y) pair and
    multiplied by column 0 of E00, gives every corner (x_k E00 y E00)_00
    from three products: the product x_00 y_00 next to terms that are zero.
    A corner that is NaN, as an overflowing float product can make it,
    counts as a violation.

    E_0i X E_j0 is X_ij E_00, and its (0,0) entry is the dot product that
    formed entry (i, j) of X, so the reconstruction is read off X itself
    with no product formed: each rebuilt entry minus X's is zero unless the
    entry is inf or NaN, exactly when the n + 3n^2 products would fail.  An
    exact entry is never either, so the exact kind skips that check.

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
    seen = set()  # stored forms: every sample has one field and shape
    layer = [Matrix.identity(field, n)]
    for _ in range(depth):
        nxt = []
        prod = _raw_product(field, [v for m in layer for v in m.values], right, n, width)
        for i, m in enumerate(layer):
            for b, g in enumerate(generators):
                elem = _from_raw(field, n, n, _block(prod, width, i, b, n), m.denom * g.denom)
                if (elem.values, elem.denom) not in seen:
                    seen.add((elem.values, elem.denom))
                    nxt.append(elem)
                    sample.append(elem)
                    if len(sample) >= max_products:
                        break
            if len(sample) >= max_products:
                break
        if len(sample) >= max_products:
            break
        layer = nxt

    head = sample[:40]
    h = len(head)
    e00 = std[0][0].values
    # R stacks row 0 of each head element; (R E00) [y_0 | y_1 | ...] read
    # as h*h rows of length n, times column 0 of E00, holds every corner
    # (x_k E00 y E00)_00 at k*h + y (see the docstring)
    r_e00 = _raw_product(field, [v for x in head for v in x.values[:n]], e00, n, n)
    r_e00_y = _raw_product(field, r_e00, _hstack([x.values for x in head], n), n, h * n)
    pair_corners = _raw_product(field, r_e00_y, e00[::n], n, 1)
    firsts = [x.values[0] for x in head]  # x_00 y_00 over x.denom y.denom, as the corners
    products = [a * b for a in firsts for b in firsts]
    if field.is_exact:
        bad = map(ne, pair_corners, products)
    else:  # a NaN difference counts
        bad = [not abs(c - p) <= eff for c, p in zip(pair_corners, products)]
    violations = [("mul", head[k // h].at(0, 0), head[k % h].at(0, 0))
                  for k, b in enumerate(bad) if b]
    # each rebuilt entry minus x's own is v - v (see the docstring)
    broken = None if field.is_exact else next(
        (x for x in head if any(not abs(v - v) <= eff for v in x.values)), None)
    if broken is not None:
        violations.append(("reconstruction", broken.entries, None))

    corners = [x.at(0, 0) for x in sample]
    key = (lambda v: (abs(v), repr(v))) if field.is_complex else None
    coeffs = sorted({c for c in corners if c == c}, key=key)
    coeffs += [c for c in corners if c != c][:1]  # NaN has no order: one, last
    return SubringReport(tuple(coeffs), not any(v[0] == "mul" for v in violations),
                         broken is None, tuple(violations), len(sample))

