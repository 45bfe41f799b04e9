import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from conftest import rand_int_matrix, rand_invertible_int
from tracesim import (Field, Matrix, NonFiniteError, Polynomial, ZeroPolynomialError,
                      char_poly_from_traces, resultant, solve_linear, sylvester_solve,
                      sylvester_unique)
from tracesim.intertwiner import _krylov_chains
from tracesim.matrices import _int_matrices
from tracesim.sylvester import _float_sylvester_system

FQ = Field.rational()
FR = Field.real64()
FC = Field.complex128()


# -- oracles (kept independent of the code paths they check) ---------------------

def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def charpoly_by_interpolation(m: Matrix):
    """det(tI - A) sampled at n+1 points and Lagrange-interpolated."""
    n = m.rows
    points = [Fraction(k) for k in range(n + 1)]
    values = [(Matrix.identity(FQ, n).scale(t) - m).det() for t in points]
    coeffs = [Fraction(0)] * (n + 1)
    for i, ti in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, tj in enumerate(points):
            if j == i:
                continue
            basis = poly_mul(basis, [-tj, Fraction(1)])
            denom *= ti - tj
        w = values[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return tuple(coeffs)


def poly_gcd_degree(a, b):
    """Degree of gcd via the Euclidean algorithm over the rationals."""
    a = list(a)
    b = list(b)

    def norm(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = norm(a), norm(b)
    while b:
        while len(a) >= len(b):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= factor * c
            a = norm(a)
            if not a:
                break
        a, b = b, a
        a, b = norm(a), norm(b)
    return len(a) - 1


def flattened_system(a: Matrix, b: Matrix) -> Matrix:
    """The n*m x n*m matrix of X -> A X - X B over the row-major entries of
    X, one scalar at a time: row (i, j) gets a_ir added at column (r, j),
    then b_sj subtracted at column (i, s)."""
    n, m = a.rows, b.rows
    zero = a.field.zero()
    rows = []
    for i in range(n):
        for j in range(m):
            row = [zero] * (n * m)
            for r in range(n):
                row[r * m + j] += a.at(i, r)
            for s in range(m):
                row[i * m + s] -= b.at(s, j)
            rows.append(row)
    return Matrix.from_rows(a.field, rows)


def newton_char_poly(m: Matrix) -> tuple:
    """Coefficients of det(tI - m) by Newton's identities in the kind's own
    scalars (``Fraction`` when exact) on tr(m^k) from repeated products."""
    n, field = m.rows, m.field
    zero = field.zero()
    sums, acc = [zero], m
    for _ in range(n):
        sums.append(acc.trace())
        acc = acc * m
    elem = [field.one()] + [zero] * n
    for k in range(1, n + 1):
        s = zero
        for i in range(1, k + 1):
            term = elem[k - i] * sums[i]
            s = s + term if i % 2 else s - term
        elem[k] = s / field.coerce(k)
    return tuple(elem[n - j] if (n - j) % 2 == 0 else -elem[n - j] for j in range(n + 1))


def sylvester_det(p: Polynomial, q: Polynomial):
    """The resultant as ``Matrix.det`` of the Sylvester matrix, q's block on
    top, built entry by entry in the kind's scalars."""
    m, k = p.degree, q.degree
    zero = p.field.zero()
    pdesc, qdesc = list(reversed(p.coeffs)), list(reversed(q.coeffs))
    rows = ([[zero] * r + qdesc + [zero] * (m - 1 - r) for r in range(m)]
            + [[zero] * r + pdesc + [zero] * (k - 1 - r) for r in range(k)])
    return Matrix.from_rows(p.field, rows).det()


def rand_fraction(rng, num=5, den=7):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rational_char_poly_cases(rng, count):
    """Random matrices with denominators up to 7 for n = 1..6, then for each
    n the zero matrix, a scalar matrix and a dense nilpotent one (a strictly
    upper triangular matrix conjugated by a unimodular one)."""
    for _ in range(count):
        n = rng.randint(1, 6)
        yield Matrix.from_rows(FQ, [[rand_fraction(rng) for _ in range(n)] for _ in range(n)])
    for n in range(1, 7):
        yield Matrix.zeros(FQ, n, n)
        yield Matrix.identity(FQ, n).scale(rand_fraction(rng))
        upper = Matrix.from_rows(FQ, [[rand_fraction(rng) if j > i else 0 for j in range(n)]
                                      for i in range(n)])
        p = rand_invertible_int(rng, FQ, n, -2, 2)
        yield p * upper * p.inverse()


# -- solve -------------------------------------------------------------------------

def test_solve_diagonal_example():
    a = Matrix.diagonal(FQ, [1, 2])
    b = Matrix.from_rows(FQ, [[3]])
    c = Matrix.from_rows(FQ, [[1], [1]])
    x = sylvester_solve(a, b, c)
    assert x.entries == (Fraction(-1, 2), Fraction(-1))


def test_solve_underdetermined_returns_some_solution():
    a = Matrix.diagonal(FQ, [1, 2])
    x = sylvester_solve(a, a, Matrix.zeros(FQ, 2, 2))
    assert x is not None
    assert a * x - x * a == Matrix.zeros(FQ, 2, 2)


def test_solve_detects_inconsistency():
    a = Matrix.from_rows(FQ, [[0]])
    assert sylvester_solve(a, a, Matrix.from_rows(FQ, [[1]])) is None


def test_solve_random_instances():
    rng = random.Random(0)
    for _ in range(10):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_int_matrix(rng, FQ, n)
        b = rand_int_matrix(rng, FQ, m)
        c = Matrix.from_rows(FQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        x = sylvester_solve(a, b, c)
        if x is not None:
            assert a * x - x * b == c


def test_solve_rational_instances_over_mixed_denominators():
    rng = random.Random(3)

    def rand(rows, cols, denom):
        return Matrix.from_rows(FQ, [[Fraction(rng.randint(-9, 9), rng.randint(1, denom))
                                      for _ in range(cols)] for _ in range(rows)])

    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a, b, x0 = rand(n, n, 4), rand(m, m, 9), rand(n, m, 5)
        c = a * x0 - x0 * b
        x = sylvester_solve(a, b, c)
        assert x is not None and a * x - x * b == c
        if sylvester_unique(a, b):
            assert x == x0


def test_solve_rejects_an_overflowing_float_system():
    fc = Field.complex128()
    for field, big in ((FR, 1e308), (fc, complex(1e308, 1.0))):
        a, b = Matrix.from_rows(field, [[big]]), Matrix.from_rows(field, [[-big]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not escape
            with pytest.raises(NonFiniteError):  # the system entry a_00 - b_00 is inf
                sylvester_solve(a, b, Matrix.from_rows(field, [[1.0]]))


def test_solve_float_and_complex():
    rng = random.Random(8)
    a = Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    b = Matrix.from_rows(FR, [[rng.gauss(0, 1) + 4 for _ in range(2)] for _ in range(2)])
    c = Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(2)] for _ in range(3)])
    x = sylvester_solve(a, b, c)
    assert x is not None
    assert (a * x - x * b - c).maxabs() < 1e-9
    fc = Field.complex128()
    ac = Matrix.diagonal(fc, [1, 1j])
    bc = Matrix.from_rows(fc, [[3 + 0j]])
    cc = Matrix.from_rows(fc, [[1], [1j]])
    xc = sylvester_solve(ac, bc, cc)
    assert (ac * xc - xc * bc - cc).maxabs() < 1e-12


def chain_count(b: Matrix) -> int:
    (rows,), _ = _int_matrices([b])
    return len(_krylov_chains(rows, b.rows)[1])


def test_exact_chain_route_matches_the_flattened_system():
    """The chain solver against one exact solve of the flattened system: the
    same solvability, A X - X B = C exactly, and the same X when the solution
    is unique.  Spectra drawn from a small pool overlap often, so non-unique
    and inconsistent equations come up; scalar and repeated-block B have
    several Krylov chains."""
    rng = random.Random(24)
    pool = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-2, 3)]

    def conjugated(diag, denom):  # P T P^-1, T upper triangular over denom
        k = len(diag)
        t = Matrix.from_rows(FQ, [[diag[i] if i == j else
                                   Fraction(rng.randint(-3, 3), denom) * (j > i)
                                   for j in range(k)] for i in range(k)])
        p = rand_invertible_int(rng, FQ, k, -2, 2)
        return p * t * p.inverse()

    def rand(rows, cols, denom):
        return Matrix.from_rows(FQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, denom))
                                      for _ in range(cols)] for _ in range(rows)])

    seen = Counter()
    for case in range(240):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = conjugated([rng.choice(pool) for _ in range(n)], 3)
        shape = case % 6
        if shape == 0:
            b = Matrix.zeros(FQ, m, m)
        elif shape == 1:
            b = Matrix.identity(FQ, m).scale(rng.choice(pool))
        elif shape == 2:  # diagonalizable with repeated eigenvalues
            p = rand_invertible_int(rng, FQ, m, -2, 2)
            b = p * Matrix.diagonal(FQ, (rng.sample(pool, 2) * m)[:m]) * p.inverse()
        else:
            b = conjugated([rng.choice(pool) for _ in range(m)], 5)
        if shape == 3:
            a = Matrix.identity(FQ, n)
        if rng.random() < 0.5:
            x0 = rand(n, m, 7)
            c = a * x0 - x0 * b
        else:
            c = rand(n, m, 4)
        flat = flattened_system(a, b)
        oracle = solve_linear(flat, Matrix(FQ, n * m, 1, c.values, c.denom))
        x = sylvester_solve(a, b, c)
        assert (x is None) == (oracle is None), (a, b, c)
        unique = flat.rank() == n * m
        if x is None:
            seen["inconsistent"] += 1
        else:
            assert a * x - x * b == c
            seen["unique" if unique else "non-unique"] += 1
            if unique:
                assert x == Matrix(FQ, n, m, oracle.values, oracle.denom)
        seen["several chains"] += chain_count(b) > 1
        seen["n != m"] += n != m
        seen["B = 0"] += b.is_zero()
        seen["mixed denominators"] += len({a.denom, b.denom, c.denom}) > 1
    assert min(seen.values()) >= 20 and len(seen) == 7, seen


@pytest.mark.parametrize("field", [FR, Field.complex128()], ids=["real", "complex"])
def test_float_solve_is_the_flattened_row_loop(field):
    """The numpy system is, byte for byte and signed zeros included, the
    scalar row loop's, and the solve gives, by repr, what that loop plus
    ``solve_linear`` gives: signed zeros in A and B, complex entries, and
    singular systems (B = A) included."""
    rng = random.Random(25)

    def value():
        pick = rng.random()
        re = 0.0 if pick < 0.2 else -0.0 if pick < 0.4 else rng.gauss(0, 2)
        if field.is_complex:
            pick = rng.random()
            return complex(re, -0.0 if pick < 0.25 else 0.0 if pick < 0.5 else rng.gauss(0, 2))
        return re

    def rand(rows, cols):
        return Matrix(field, rows, cols, tuple(value() for _ in range(rows * cols)))

    cases = []
    for case in range(120):
        n = rng.randint(1, 4)
        m = n if case % 3 == 0 else rng.randint(1, 4)
        a, c = rand(n, n), rand(n, m)
        cases.append((a, a if case % 3 == 0 else rand(m, m), c))
    # a_00 - b_00 = 1e-10 is the whole scale of A and B (and of the flattened
    # system), so it counts as rank: both sides solve, X = 1e10 and X = 1
    tiny, zero, one = (Matrix.from_rows(field, [[v]]) for v in (1e-10, 0.0, 1.0))
    cases += [(tiny, zero, one), (tiny, zero, tiny)]
    outcomes = Counter()
    for a, b, c in cases:
        n, m = a.rows, b.rows
        flat = flattened_system(a, b)
        system = _float_sylvester_system(a, b)
        assert system.tobytes() == flat.to_numpy().tobytes()
        assert system.dtype == flat.to_numpy().dtype
        sol = solve_linear(flat, Matrix(field, n * m, 1, c.values))
        expected = None if sol is None else Matrix(field, n, m, sol.values)
        assert repr(sylvester_solve(a, b, c)) == repr(expected)
        outcomes[sol is None] += 1
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


# -- one float rank for uniqueness and solving ------------------------------------

def solves_within_backward_bound(a, b, c, x):
    """max |A X - X B - C| <= 1e-8 (max(|A|, |B|) |X| + |C|), |.| the largest
    entry: X solves a system within 1e-8 of the given one, at any scale."""
    residual = (a * x - x * b - c).maxabs()
    return residual <= 1e-8 * (max(a.maxabs(), b.maxabs()) * x.maxabs() + c.maxabs())


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_unique_and_solve_read_one_rank(field):
    def mat(rows):
        return Matrix.from_rows(field, rows)

    # a_00 - b_00 = 1e-10 is the whole scale of A and B: S has full rank
    tiny, zero, one = mat([[1e-10]]), mat([[0.0]]), mat([[1.0]])
    assert sylvester_unique(tiny, zero)
    x = sylvester_solve(tiny, zero, one)
    assert x is not None and solves_within_backward_bound(tiny, zero, one, x)
    assert abs(x.at(0, 0) - 1e10) <= 1e-6 * 1e10
    # beside 2, 1e-10 is under RANK_TOL of the scale: rank 1 for both
    a = Matrix.diagonal(field, [1e-10, 2.0])
    assert not sylvester_unique(a, zero)
    assert sylvester_solve(a, zero, mat([[1.0], [1.0]])) is None
    x = sylvester_solve(a, zero, mat([[0.0], [1.0]]))  # inside the kept rank: minimum norm
    assert x is not None and x.approx_eq(mat([[0.0], [0.5]]), 1e-12)


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_unique_implies_a_verified_solution(field):
    """Whenever float ``sylvester_unique`` holds, ``sylvester_solve`` returns an
    X within the backward bound, for random C: at scales 1e-12..1e12, with
    spectra that nearly meet, and for the 1e-10 scalar."""
    rng = random.Random("unique-solves:%s" % field.kind.value)

    def value(scale):
        v = rng.gauss(0, scale)
        return complex(v, rng.gauss(0, scale)) if field.is_complex else v

    def rand(rows, cols, scale):
        return Matrix(field, rows, cols, tuple(value(scale) for _ in range(rows * cols)))

    pairs = [(Matrix.from_rows(field, [[1e-10]]), Matrix.from_rows(field, [[0.0]]))]
    for case in range(150):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        scale = 10.0 ** rng.randint(-12, 12)
        a = rand(n, n, scale)
        if case % 3 == 0:  # A's spectrum, or a small shift of it: singular or near it
            shift = 10.0 ** rng.randint(-14, -4) if case % 2 else 0.0
            b = a + Matrix.identity(field, n).scale(scale * shift)
        else:
            b = rand(m, m, scale)
        pairs.append((a, b))
    seen = Counter()
    for a, b in pairs:
        unique = sylvester_unique(a, b)
        seen[unique] += 1
        if not unique:
            continue
        for _ in range(3):
            c = rand(a.rows, b.rows, 10.0 ** rng.randint(-6, 6))
            x = sylvester_solve(a, b, c)
            assert x is not None and solves_within_backward_bound(a, b, c, x), (a, b, c)
    assert seen[True] >= 60 and seen[False] >= 20, seen


# -- characteristic polynomial -------------------------------------------------------

def test_charpoly_examples():
    assert char_poly_from_traces(Matrix.diagonal(FQ, [1, 2])).coeffs == (2, -3, 1)
    assert char_poly_from_traces(Matrix.zeros(FQ, 3, 3)).coeffs == (0, 0, 0, 1)
    assert char_poly_from_traces(Matrix.identity(FQ, 2)).coeffs == (1, -2, 1)


def test_charpoly_matches_determinant_oracle():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_int_matrix(rng, FQ, n, -3, 3)
        assert char_poly_from_traces(m).coeffs == charpoly_by_interpolation(m)


def test_charpoly_satisfies_cayley_hamilton():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rand_int_matrix(rng, FQ, n, -3, 3)
        chi = char_poly_from_traces(m)
        acc = Matrix.zeros(FQ, n, n)
        power = Matrix.identity(FQ, n)
        for c in chi.coeffs:
            acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


def test_charpoly_matches_the_fraction_newton_loop():
    rng = random.Random(11)
    for m in rational_char_poly_cases(rng, 60):
        chi = char_poly_from_traces(m)
        assert chi.coeffs == newton_char_poly(m), m
        assert all(type(c) is Fraction for c in chi.coeffs)


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_charpoly_is_the_newton_loop_on_matrix_products(field):
    rng = random.Random(12)
    for m in rational_char_poly_cases(rng, 40):
        f = m.astype(field)
        if field.is_complex:
            f = f + Matrix.from_rows(field, [[complex(0, rng.uniform(-2, 2)) for _ in range(m.cols)]
                                             for _ in range(m.rows)])
        assert repr(char_poly_from_traces(f).coeffs) == repr(newton_char_poly(f))


def test_charpoly_float_matches_exact():
    rng = random.Random(2)
    for _ in range(10):
        m = rand_int_matrix(rng, FQ, 4, -3, 3)
        exact = char_poly_from_traces(m).coeffs
        approx = char_poly_from_traces(m.astype(FR)).coeffs
        for e, a in zip(exact, approx):
            assert abs(float(e) - a) <= 1e-6 * max(1.0, abs(float(e)))


# -- resultant ------------------------------------------------------------------------

def P(*coeffs):
    return Polynomial.of(FQ, coeffs)


def test_resultant_examples():
    assert resultant(P(-1, 1), P(-2, 1)) == 1
    assert resultant(P(0, 1), P(0, 1)) == 0
    assert resultant(P(2, -3, 1), P(-3, 1)) == 2  # equals p(3)


def rand_poly(rng, field, max_degree=4):
    """Non-monic, mixed denominators, degree 0 included; the leading
    coefficient is nonzero."""
    deg = rng.randint(0, max_degree)
    lead = Fraction(rng.choice([k for k in range(-6, 7) if k]), rng.randint(1, 7))
    coeffs = [rand_fraction(rng, 6) for _ in range(deg)] + [lead]
    if field.is_exact:
        return Polynomial.of(field, coeffs)
    return Polynomial.of(field, [float(c) + (rng.uniform(-1, 1) * 1j if field.is_complex else 0)
                                 for c in coeffs])


def test_resultant_matches_the_sylvester_matrix_determinant():
    rng = random.Random(13)
    seen = Counter()
    for _ in range(300):
        p, q = rand_poly(rng, FQ), rand_poly(rng, FQ)
        if rng.random() < 0.3:  # a shared factor
            p, q = p * P(-1, 1), q * P(-1, 1)
        seen[(min(p.degree, q.degree) == 0, resultant(p, q) == 0)] += 1
        if p.degree + q.degree:
            assert resultant(p, q) == sylvester_det(p, q), (p, q)
        else:
            assert resultant(p, q) == 1
    assert all(seen[case] >= 10 for case in [(True, False), (False, False), (False, True)]), seen


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_resultant_is_the_determinant_of_the_same_array(field):
    rng = random.Random(14)
    for _ in range(200):
        p, q = rand_poly(rng, field), rand_poly(rng, field)
        if p.degree + q.degree:
            assert repr(resultant(p, q)) == repr(sylvester_det(p, q))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_resultant_refuses_a_non_finite_coefficient(field, bad):
    # Polynomial(...) built directly skips the coercion that refuses it
    p = Polynomial(field, (field.one(), bad, field.one()))
    for args in ((p, Polynomial.of(field, [2, 1])), (Polynomial.of(field, [2, 1]), p)):
        with pytest.raises(NonFiniteError):
            resultant(*args)


def test_resultant_rejects_zero_polynomial():
    with pytest.raises(ZeroPolynomialError):
        resultant(P(), P(1))


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(3)
    for _ in range(60):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = [Fraction(rng.randint(-3, 3)) for _ in range(da)] + [Fraction(1)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(db)] + [Fraction(1)]
        r = resultant(Polynomial.of(FQ, a), Polynomial.of(FQ, b))
        assert (r == 0) == (poly_gcd_degree(a, b) >= 1)


def test_resultant_is_multiplicative_in_first_argument():
    rng = random.Random(7)
    for _ in range(30):
        def rand_poly():
            deg = rng.randint(1, 3)
            return Polynomial.of(
                FQ, [Fraction(rng.randint(-3, 3)) for _ in range(deg)] + [Fraction(1)])
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


def test_linear_factor_evaluation_identity():
    rng = random.Random(4)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))] + [Fraction(1)]
        c = Fraction(rng.randint(-4, 4))
        p = Polynomial.of(FQ, coeffs)
        assert resultant(p, Polynomial.of(FQ, [-c, 1])) == p(c)


# -- uniqueness criterion ---------------------------------------------------------------

def test_unique_examples():
    assert sylvester_unique(Matrix.diagonal(FQ, [1, 2]), Matrix.from_rows(FQ, [[3]]))
    z = Matrix.from_rows(FQ, [[0]])
    assert not sylvester_unique(z, z)
    assert not sylvester_unique(Matrix.from_rows(FQ, [[0, 1], [0, 0]]), z)


def test_exact_unique_is_the_resultant_of_the_char_polys():
    rng = random.Random(15)
    cases = list(rational_char_poly_cases(rng, 40))
    seen = Counter()
    for a in cases:
        for b in rng.sample(cases, 4) + [a, a.scale(2)]:
            unique = sylvester_unique(a, b)
            assert unique == (resultant(char_poly_from_traces(a), char_poly_from_traces(b)) != 0)
            seen[unique] += 1
    assert seen[True] >= 50 and seen[False] >= 50, seen


def test_unique_float_bound_survives_huge_norms():
    # entries of 1e30: the singular values of S and the threshold 1e-9 * 1e30 scale
    # together, and S is singular
    n = 11
    m = Matrix.from_rows(FR, [[1e30 if j == i + 1 else 0.0 for j in range(n)]
                              for i in range(n)])
    assert sylvester_unique(m, m) is False


def test_unique_agrees_with_flattened_rank():
    rng = random.Random(5)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_int_matrix(rng, FQ, n, -2, 2)
        b = rand_int_matrix(rng, FQ, m, -2, 2)
        criterion = sylvester_unique(a, b)
        oracle = flattened_system(a, b).rank() == n * m
        assert criterion == oracle


def test_unique_implies_solution_found_and_unique():
    rng = random.Random(6)
    found = 0
    while found < 10:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_int_matrix(rng, FQ, n, -3, 3)
        b = rand_int_matrix(rng, FQ, m, -3, 3)
        if not sylvester_unique(a, b):
            continue
        found += 1
        c = Matrix.from_rows(FQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)])
        x1 = sylvester_solve(a, b, c)
        assert x1 is not None and a * x1 - x1 * b == c
        x2 = sylvester_solve(a, b, c)
        assert (x1 - x2).is_zero()
