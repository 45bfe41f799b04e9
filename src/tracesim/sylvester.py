"""Sylvester's equation A X - X B = C and the trace-based uniqueness test.

Unique solvability for every right-hand side holds iff the spectra of A
and B are disjoint.  For exact input that is decided in Python ints,
without eigenvalues: with L the denominator of A, Newton's identities on
the power traces tr((L A)^k) give n! L^n det(tI - A) in integers, and
spectral disjointness is one integer determinant, the resultant;
``sylvester_solve`` does not consult it.  The float kinds read both
answers off the rank of one system, the n*m x n*m matrix S of
X -> A X - X B, by the float rank rule (``matrices._float_svd``) at the
scale of the largest entry of A and B, so ``sylvester_unique`` holds
exactly when ``sylvester_solve`` has full rank.  The tests keep the
flattened system as the oracle of both kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import NonFiniteError, ShapeError, ZeroPolynomialError
from .fields import Field
from .intertwiner import _chain_solve
from .matrices import (Matrix, _det_int, _dtype, _float_det, _float_solve, _float_svd, _from_raw,
                       _int_matrices, _power_traces)


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending degree; normalized (no trailing zeros)."""

    field: Field
    coeffs: tuple

    @staticmethod
    def of(field: Field, coeffs) -> "Polynomial":
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == field.zero():
            cs.pop()
        return Polynomial(field, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, value):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(self.field, ())
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial.of(self.field, out)

    def __str__(self):
        from .fields import value_str
        if self.is_zero:
            return "0"
        return " + ".join("%s t^%d" % (value_str(c), i)
                          for i, c in enumerate(self.coeffs) if c != self.field.zero())


def sylvester_solve(a: Matrix, b: Matrix, c: Matrix) -> Optional[Matrix]:
    """One solution X of A X - X B = C, or None when there is none.

    The exact kind solves for the images X v_l of the Krylov chain starts
    v_l of B (``intertwiner._chain_solve``), with the free unknowns zero.
    The float kinds solve for row-major X (``_float_sylvester_system``) and
    return the minimum-norm solution (``matrices._float_solve``) at the rank
    ``sylvester_unique`` reads, so a unique system always has its solution.
    """
    a.field.require_same(b.field)
    a.field.require_same(c.field)
    if not a.is_square or not b.is_square:
        raise ShapeError("A and B must be square")
    n, m = a.rows, b.rows
    if (c.rows, c.cols) != (n, m):
        raise ShapeError("C must be %dx%d" % (n, m))
    field = a.field
    if field.is_exact:
        sol = _chain_solve(*_int_matrices([a, b, c])[0])
        return None if sol is None else _from_raw(field, n, m, *sol)
    x = _float_solve(_float_sylvester_system(a, b), c.to_numpy().reshape(n * m, 1),
                     max(a.maxabs(), b.maxabs()))
    return None if x is None else Matrix.from_numpy(field, x.reshape(n, m))


def _float_sylvester_system(a: Matrix, b: Matrix) -> np.ndarray:
    """S, the matrix of X -> A X - X B on row-major X, each entry formed as
    (0 + a_ir) - b_sj as a scalar loop would (no negative zero).  An entry
    that overflows, like a_ii - b_jj, is left as it is: ``_float_svd``
    refuses it with ``NonFiniteError``."""
    n, m, an, bn = a.rows, b.rows, a.to_numpy(), b.to_numpy()
    system = np.zeros((n * m, n * m), dtype=an.dtype)
    s = system.reshape(n, m, n, m)  # a view, indexed [i, j, r, s]
    with np.errstate(over="ignore", invalid="ignore"):  # _float_svd refuses an overflow
        s[:, np.arange(m), :, np.arange(m)] += an  # the indexed axes come first: [j, i, r]
        s[np.arange(n), :, np.arange(n), :] -= bn.T  # [i, j, s]
    return system


def char_poly_from_traces(a: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - A) from power sums via Newton.

    Monic of degree n.  Exact: Newton's identities in integers
    (``_int_char_poly``), one division per coefficient.  Float: Newton's
    identities on the float power traces.
    """
    if not a.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n, field = a.rows, a.field
    if field.is_exact:
        desc, scale = _int_char_poly(a)
        return Polynomial(field, tuple(Fraction(c, scale) for c in reversed(desc)))
    zero = field.zero()
    power_sums = [zero] + _power_traces(a, n)
    elem = [field.one()] + [zero] * n
    for k in range(1, n + 1):
        s = zero
        for i in range(1, k + 1):
            term = elem[k - i] * power_sums[i]
            s = s + term if i % 2 else s - term
        elem[k] = s / field.coerce(k)
    return Polynomial.of(field, [-elem[k] if k % 2 else elem[k] for k in range(n, -1, -1)])


def _int_char_poly(a: Matrix) -> tuple:
    """(c, s): the integer coefficients of s det(tI - A), highest degree
    first, with s = n! L^n and L = a.denom.  For P_i = tr((L A)^i) and e_k
    the elementary symmetric functions of the eigenvalues, Newton's
    identities hold in integers for E_k = k! L^k e_k:
    E_k = sum_{i=1..k} (-1)^(i-1) (k-1)!/(k-i)! E_(k-i) P_i."""
    n, denom = a.rows, a.denom
    power_sums = [0] + _power_traces(a, n)
    elem = [1] + [0] * n
    for k in range(1, n + 1):
        s, f = 0, 1  # f = (k-1)!/(k-i)!
        for i in range(1, k + 1):
            term = f * elem[k - i] * power_sums[i]
            s = s + term if i % 2 else s - term
            f *= k - i
        elem[k] = s
    scale = math.factorial(n)  # the coefficient of t^(n-k) is (-1)^k E_k n!/k! L^(n-k)
    return [(-1) ** k * scale // math.factorial(k) * denom ** (n - k) * elem[k]
            for k in range(n + 1)], scale * denom ** n


def _sylvester_rows(pdesc: list, qdesc: list) -> list:
    """The Sylvester matrix of p, q (highest degree first), q's rows on top."""
    m, k = len(pdesc) - 1, len(qdesc) - 1
    return ([[0] * r + qdesc + [0] * (m - 1 - r) for r in range(m)]
            + [[0] * r + pdesc + [0] * (k - 1 - r) for r in range(k)])


def resultant(p: Polynomial, q: Polynomial):
    """Determinant of the Sylvester matrix; nonzero iff p, q share no root.

    Convention: the matrix is assembled with q's coefficient block on top,
    so resultant(t-1, t-2) = 1 and resultant(p, t-c) = p(c).  Exact: p and
    q scaled to integers by the lcm u, v of their denominators, one
    ``_det_int``, and res(p, q) = res(u p, v q) / (u^deg q v^deg p).  Float:
    numpy's LU determinant; ``NonFiniteError`` for a non-finite coefficient.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    p.field.require_same(q.field)
    field = p.field
    m, k = p.degree, q.degree
    if m + k == 0:
        return field.one()
    if field.is_exact:
        u = math.lcm(*(c.denominator for c in p.coeffs))
        v = math.lcm(*(c.denominator for c in q.coeffs))
        rows = _sylvester_rows([c.numerator * (u // c.denominator) for c in reversed(p.coeffs)],
                               [c.numerator * (v // c.denominator) for c in reversed(q.coeffs)])
        return Fraction(_det_int(rows), u ** k * v ** m)
    rows = np.array(_sylvester_rows(list(reversed(p.coeffs)), list(reversed(q.coeffs))),
                    _dtype(field))
    if not np.isfinite(rows).all():
        raise NonFiniteError("resultant of a polynomial with a non-finite coefficient")
    return _float_det(rows)


def sylvester_unique(a: Matrix, b: Matrix) -> bool:
    """True iff A X - X B = C has a unique solution for every C.

    Exact: the resultant of the two characteristic polynomials is nonzero,
    judged on the integer Sylvester matrix of n! L^n chi_A and m! L'^m chi_B
    (``_int_char_poly``).  Float: the system
    S of ``sylvester_solve`` has full rank by ``matrices._float_svd``, that
    is sigma_min(S) exceeds ``RANK_TOL`` times the largest entry of A and B;
    ``NonFiniteError`` if an entry of S overflows.
    """
    if not a.is_square or not b.is_square:
        raise ShapeError("A and B must be square")
    a.field.require_same(b.field)
    if a.field.is_exact:
        return _det_int(_sylvester_rows(_int_char_poly(a)[0], _int_char_poly(b)[0])) != 0
    system = _float_sylvester_system(a, b)
    return _float_svd(system, max(a.maxabs(), b.maxabs()), vectors=False)[0] == len(system)
