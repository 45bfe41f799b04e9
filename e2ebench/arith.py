"""The benchmark's own matrix arithmetic.

Inputs are built and outputs are checked with this module, never with
tracesim's, so a defect in the library cannot hide itself.  Matrices are
lists of rows of Python scalars; every routine works for int and Fraction
(exact), float and complex entries alike.  Sizes stay small (n <= 6, linear
systems up to 72 x 36), where plain loops are fast enough.
"""

from __future__ import annotations

import math
from fractions import Fraction


def zeros(n):
    return [[0] * n for _ in range(n)]


def identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def star(a, conjugate=False):
    """Transpose, or conjugate transpose when ``conjugate`` is set."""
    if conjugate:
        return [[x.conjugate() for x in col] for col in zip(*a)]
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def maxabs(a):
    return max((abs(x) for row in a for x in row), default=0.0)


def direct_sum(a, b):
    n, m = len(a), len(b)
    out = zeros(n + m)
    for i in range(n):
        out[i][:n] = a[i]
    for i in range(m):
        out[n + i][n:] = b[i]
    return out


def _eliminate(a, rhs=None, tol=0.0):
    """Gauss-Jordan with partial pivoting on copies; returns (rows, rhs, pivots, sign).

    Python ints become Fractions, so that exact input stays exact.
    """
    def exact(r):
        return [Fraction(x) if isinstance(x, int) else x for x in r]

    rows = [exact(r) for r in a]
    rhs = None if rhs is None else [exact(r) for r in rhs]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = max(range(r, nrows), key=lambda i: abs(rows[i][c]))
        if abs(rows[best][c]) <= tol:
            continue
        if best != r:
            rows[r], rows[best] = rows[best], rows[r]
            if rhs is not None:
                rhs[r], rhs[best] = rhs[best], rhs[r]
            sign = -sign
        piv = rows[r][c]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / piv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                if rhs is not None:
                    rhs[i] = [x - f * y for x, y in zip(rhs[i], rhs[r])]
        pivots.append(c)
        r += 1
    return rows, rhs, pivots, sign


def det(a):
    rows, _, pivots, sign = _eliminate(a)
    if len(pivots) < len(a):
        return 0 * a[0][0]
    out = sign
    for i in range(len(a)):
        out = out * rows[i][i]
    return out


def rank(a, tol=0.0):
    return len(_eliminate(a, tol=tol)[2])


def rank_int(rows):
    """Exact rank of an integer matrix by fraction-free (Bareiss) elimination."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    r, prev = 0, 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            rows[i] = [(x * piv - head * y) // prev for x, y in zip(rows[i], rows[r])]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def inverse(a):
    """Inverse of a square matrix; raises ZeroDivisionError when singular."""
    n = len(a)
    rows, rhs, pivots, _ = _eliminate(a, identity(n, type(a[0][0])(1)))
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return [[x / rows[i][i] for x in rhs[i]] for i in range(n)]


def conjugate_by(p, x, pinv):
    return matmul(matmul(p, x), pinv)


def word_trace(mats, codes, conjugate=False):
    """Trace of the word with tracesim's letter codes (2*index + starred)."""
    acc = None
    for c in codes:
        m = mats[c // 2]
        if c & 1:
            m = star(m, conjugate)
        acc = m if acc is None else matmul(acc, m)
    return trace(acc)


def rel_close(a, b, rel):
    """Entrywise |a - b| <= rel * max(1, |a|, |b|) over whole matrices."""
    s = max(1.0, maxabs(a), maxabs(b))
    return maxabs(sub(a, b)) <= rel * s


# -- random matrices ------------------------------------------------------------

def rand_int(rng, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def rand_gauss(rng, n, sigma, complex_=False):
    if complex_:
        return [[complex(rng.gauss(0, sigma), rng.gauss(0, sigma)) for _ in range(n)]
                for _ in range(n)]
    return [[rng.gauss(0, sigma) for _ in range(n)] for _ in range(n)]


def unimodular(rng, n):
    """(U, U^-1): integer matrices of determinant +-1, as Python ints."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.randint(-1, 1)
            upper[j][i] = rng.randint(-1, 1)
    perm = list(range(n))
    rng.shuffle(perm)
    prod = matmul(lower, upper)
    u = [prod[k] for k in perm]
    return u, [[int(x) for x in row] for row in inverse(u)]


_PYTHAGOREAN = ((2, 1), (3, 2), (4, 1), (3, 1))


def rational_orthogonal(rng, n):
    """Exact rational orthogonal O = M / D from Pythagorean Givens rotations.

    Returns the integer matrix M and the integer D.
    """
    m, den = identity(n), 1
    for _ in range(2 if n <= 3 else 3):
        p, q = rng.sample(range(n), 2)
        a, b = rng.choice(_PYTHAGOREAN)
        g = identity(n, a * a + b * b)
        g[p][p] = g[q][q] = a * a - b * b
        g[p][q], g[q][p] = -2 * a * b, 2 * a * b
        m, den = matmul(m, g), den * (a * a + b * b)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * x for x in row] for i, row in enumerate(m)], den


def float_orthogonal(rng, n, complex_=False):
    """Product of n(n-1) random Givens rotations (with phases when complex)."""
    one = complex(1) if complex_ else 1.0
    o = identity(n, one)
    for _ in range(max(1, n * (n - 1))):
        p, q = rng.sample(range(n), 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        g = identity(n, one)
        if complex_:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            phase = complex(math.cos(phi), math.sin(phi))
            g[p][p], g[q][q] = c * one, c * one
            g[p][q], g[q][p] = -s * phase.conjugate(), s * phase
        else:
            g[p][p] = g[q][q] = c
            g[p][q], g[q][p] = -s, s
        o = matmul(o, g)
    return o


def float_invertible(rng, n, complex_=False):
    """I + Gaussian/sqrt(n): invertible with a modest condition number."""
    while True:
        g = rand_gauss(rng, n, 1.0 / math.sqrt(n), complex_)
        p = add(identity(n, complex(1) if complex_ else 1.0), g)
        try:
            pinv = inverse(p)
        except ZeroDivisionError:
            continue
        if maxabs(p) * maxabs(pinv) < 20.0:
            return p, pinv
