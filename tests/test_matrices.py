import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_int_matrix, rand_invertible_int
from tracesim import (Field, Matrix, ShapeError, SingularMatrixError, StarMode, det,
                      inverse, nullspace, rank, solve_linear, star, trace)
from tracesim.matrices import _det_int, _gauss_jordan_int, _raw_product

FQ = Field.rational()
FR = Field.real64()
FC = Field.complex128()


def cofactor_det(rows):
    """Independent oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


small_entries = st.integers(min_value=-6, max_value=6)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


# -- star --------------------------------------------------------------------

def test_star_is_plain_transpose():
    m = Matrix.from_rows(FQ, [[1, 2], [3, 4]])
    assert star(m) == Matrix.from_rows(FQ, [[1, 3], [2, 4]])


def test_star_of_identity():
    assert star(Matrix.identity(FQ, 3)) == Matrix.identity(FQ, 3)


def test_star_conjugates_in_conjugate_mode():
    m = Matrix.from_rows(FC, [[1j]])
    assert star(m).at(0, 0) == -1j
    mt = Matrix.from_rows(Field.complex128(StarMode.TRANSPOSE), [[1j]])
    assert star(mt).at(0, 0) == 1j


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_star_is_an_involution(rows):
    m = Matrix.from_rows(FQ, rows)
    assert star(star(m)) == m


@given(square_matrices(3), square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_star_is_an_antihomomorphism(rows_a, rows_b):
    n = min(len(rows_a), len(rows_b))
    a = Matrix.from_rows(FQ, [r[:n] for r in rows_a[:n]])
    b = Matrix.from_rows(FQ, [r[:n] for r in rows_b[:n]])
    assert star(a * b) == star(b) * star(a)


# -- trace -------------------------------------------------------------------

def test_trace_examples():
    assert trace(Matrix.diagonal(FQ, [1, 2, 2])) == 5
    assert trace(Matrix.zeros(FQ, 4, 4)) == 0
    assert trace(Matrix.identity(FQ, 3)) == 3


def test_trace_rejects_non_square():
    with pytest.raises(ShapeError):
        trace(Matrix.zeros(FQ, 2, 3))


@given(square_matrices(3), square_matrices(3))
@settings(max_examples=60, deadline=None)
def test_trace_of_product_commutes(rows_a, rows_b):
    n = min(len(rows_a), len(rows_b))
    a = Matrix.from_rows(FQ, [r[:n] for r in rows_a[:n]])
    b = Matrix.from_rows(FQ, [r[:n] for r in rows_b[:n]])
    assert trace(a * b) == trace(b * a)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_trace_star_m_times_m_is_sum_of_squares(rows):
    m = Matrix.from_rows(FQ, rows)
    assert trace(star(m) * m) == sum(x * x for x in m.entries)


# -- det ---------------------------------------------------------------------

def test_det_examples():
    assert det(Matrix.identity(FQ, 4)) == 1
    assert det(Matrix.diagonal(FQ, [1, 2, 2])) == 4
    assert det(Matrix.from_rows(FQ, [[0, 1], [0, 0]])) == 0


@given(square_matrices(5))
@settings(max_examples=80, deadline=None)
def test_det_matches_cofactor_oracle(rows):
    m = Matrix.from_rows(FQ, rows)
    assert det(m) == cofactor_det([[Fraction(x) for x in r] for r in rows])


def test_det_exact_with_fractions():
    m = Matrix.from_rows(FQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det(m) == Fraction(1, 14) - Fraction(1, 15)


def test_float_det_close_to_exact():
    rng = random.Random(3)
    for _ in range(10):
        m = rand_int_matrix(rng, FQ, 4)
        expected = float(det(m))
        got = det(m.astype(FR))
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))


# -- rank ---------------------------------------------------------------------

def test_rank_of_square_zero_nilpotents():
    e12_plus_e34 = Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3)
    assert rank(e12_plus_e34) == 2
    assert rank(Matrix.unit(FQ, 4, 0, 1)) == 1
    assert rank(Matrix.zeros(FQ, 3, 3)) == 0


def test_float_rank_threshold_is_relative():
    m = Matrix.from_rows(FR, [[1.0, 0.0], [0.0, 1e-12]])
    assert rank(m) == 1            # 1e-9 relative


# -- inverse --------------------------------------------------------------------

def test_inverse_examples():
    assert inverse(Matrix.identity(FQ, 3)) == Matrix.identity(FQ, 3)
    assert inverse(Matrix.diagonal(FQ, [1, 2])) == Matrix.diagonal(FQ, [1, Fraction(1, 2)])
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.from_rows(FQ, [[0, 1], [0, 0]]))


def test_inverse_round_trip_exact():
    rng = random.Random(11)
    for _ in range(20):
        m = rand_invertible_int(rng, FQ, 4)
        assert m * inverse(m) == Matrix.identity(FQ, 4)


def test_inverse_float_verifies():
    rng = random.Random(12)
    for _ in range(10):
        m = rand_invertible_int(rng, FQ, 4).astype(FR)
        prod = m * inverse(m)
        assert (prod - Matrix.identity(FR, 4)).maxabs() < 1e-9


def test_inverse_complex_verifies():
    # V S^-1 U^H: the conjugate transposes matter once entries are complex
    rng = random.Random(13)
    for _ in range(10):
        m = Matrix.from_rows(FC, [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                                  for _ in range(4)])
        assert (m * inverse(m) - Matrix.identity(FC, 4)).maxabs() < 1e-9
        assert (inverse(m) * m - Matrix.identity(FC, 4)).maxabs() < 1e-9


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_inverse_refuses_a_rank_deficient_matrix(field):
    # rank 1 by the singular values, so numpy's solve is never asked
    m = Matrix.from_rows(field, [[1, 2], [2, 4 + 1e-12]])
    with pytest.raises(SingularMatrixError, match="singular at tolerance"):
        inverse(m)


def test_float_inverse_of_wilkinsons_growth_matrix_passes_its_residual_check():
    # Wilkinson's growth matrix: 1 on the diagonal, -1 below it, an inexact
    # last column.  cond is about 30, but LU with partial pivoting doubles
    # the last column at every step (growth 2^49) and misses I by about
    # 1e-2; the SVD that decides the rank inverts it to rounding.
    n = 50
    rows = [[1 if i == j else -1 if j < i else 0 for j in range(n)] for i in range(n)]
    for i, row in enumerate(rows):
        row[-1] = 1 + (i % 7) / 9
    m = Matrix.from_rows(FR, rows)
    a, inv = m.to_numpy(), inverse(m).to_numpy()
    assert np.max(np.abs(a @ inv - np.eye(n))) <= 1e-12
    assert np.max(np.abs(inv @ a - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("values", [[1e-310, 1e-310], [1e-310]], ids=["nan", "inf"])
def test_float_inverse_refuses_an_inverse_that_overflows(values):
    # full rank at the scale of its own entries, but 1 / 1e-310 overflows:
    # the residual is NaN (0 * inf) or inf (inf - 1), and neither passes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularMatrixError, match="failed verification"):
            inverse(Matrix.diagonal(FR, values))


# -- nullspace --------------------------------------------------------------------

def test_nullspace_examples():
    assert nullspace(Matrix.identity(FQ, 3)) == []
    assert len(nullspace(Matrix.zeros(FQ, 1, 2))) == 2
    basis = nullspace(Matrix.from_rows(FQ, [[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v.at(0, 0) * 1 + v.at(1, 0) * 1 == 0 and v.entries != (0, 0)


def test_nullspace_is_exact_and_right_sized():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix.from_rows(FQ, [[rng.randint(-3, 3) for _ in range(cols)]
                                  for _ in range(rows)])
        basis = nullspace(m)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert (m * v).is_zero()


def test_nullspace_on_engineered_low_rank():
    # products of thin factors force column skips in the elimination
    rng = random.Random(8)
    for _ in range(20):
        n, r, m = rng.randint(2, 5), rng.randint(1, 2), rng.randint(2, 5)
        b = Matrix.from_rows(FQ, [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)])
        c = Matrix.from_rows(FQ, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)])
        a = b * c
        assert rank(a) <= r
        basis = nullspace(a)
        assert len(basis) == m - rank(a)
        for v in basis:
            assert (a * v).is_zero()


def test_det_fractional_matches_cofactor_oracle():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)]
        m = Matrix.from_rows(FQ, rows)
        assert det(m) == cofactor_det(rows)


def test_nullspace_float_residuals():
    rng = random.Random(6)
    for _ in range(15):
        m = Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(5)] for _ in range(3)])
        basis = nullspace(m)
        assert len(basis) == 5 - rank(m)
        for v in basis:
            assert (m * v).maxabs() < 1e-9


# -- solve --------------------------------------------------------------------------

def test_solve_consistency_detection():
    a = Matrix.from_rows(FQ, [[1, 1], [1, 1]])
    b_good = Matrix.from_rows(FQ, [[2], [2]])
    b_bad = Matrix.from_rows(FQ, [[2], [3]])
    x = solve_linear(a, b_good)
    assert x is not None and a * x == b_good
    assert solve_linear(a, b_bad) is None


def test_solve_random_exact():
    rng = random.Random(7)
    for _ in range(15):
        a = rand_invertible_int(rng, FQ, 3)
        b = rand_int_matrix(rng, FQ, 3)
        x = solve_linear(a, b)
        assert a * x == b


# -- mixing guard ---------------------------------------------------------------------

def test_kind_mixing_is_an_error():
    a = Matrix.identity(FQ, 2)
    b = Matrix.identity(FR, 2)
    with pytest.raises(Exception):
        a * b
    with pytest.raises(Exception):
        a + b


# -- integer kernels of the exact engine ----------------------------------------

def test_det_matches_cofactor():
    rng = random.Random(1)
    for n in range(1, 7):
        for _ in range(30):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert _det_int([r[:] for r in rows]) == cofactor_det(rows)


def test_gauss_jordan_pivots_and_det():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        ech, pivots, d, sign = _gauss_jordan_int([r[:] for r in rows])
        assert pivots == sorted(set(pivots)) and sign in (1, -1)
        # d at its own pivot, zeros left of it and at every other pivot column
        for r, pc in enumerate(pivots):
            assert ech[r][pc] == d != 0
            assert all(ech[r][c] == 0 for c in range(pc))
            assert all(ech[r][c] == 0 for c in pivots if c != pc)
        assert all(v == 0 for row in ech[len(pivots):] for v in row)
        if n == m:
            expected = cofactor_det(rows)
            if len(pivots) < n:
                assert expected == 0
            else:
                assert sign * d == expected


def fraction_rref(rows):
    """Reference: plain Gauss-Jordan over Fractions; (reduced rows, pivot columns)."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(len(a[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [v - a[i][c] * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def reference_solve(a, b):
    """(X, pivot columns) with a X = b and free variables zero, by
    ``fraction_rref``; None when inconsistent."""
    ra, rb = a.row_list(), b.row_list()
    red, pivots = fraction_rref([x + y for x, y in zip(ra, rb)])
    if any(pc >= a.cols for pc in pivots):
        return None
    sol = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for row, pc in zip(red, pivots):
        sol[pc] = row[a.cols:]
    return Matrix.from_rows(FQ, sol), pivots


def rand_fraction_matrix(rng, rows, cols):
    return Matrix.from_rows(FQ, [[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7]))
                                  for _ in range(cols)] for _ in range(rows)])


def test_exact_solve_and_inverse_match_fraction_reference():
    rng = random.Random(11)
    counts = {"solved": 0, "inconsistent": 0, "free": 0, "inverse": 0}
    for _ in range(120):
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        a = rand_fraction_matrix(rng, n, m)
        if rng.random() < 0.5 and min(n, m) > 1:  # rank deficient: a product through rank < min
            inner = rng.randint(1, min(n, m) - 1)
            a = rand_fraction_matrix(rng, n, inner) * rand_fraction_matrix(rng, inner, m)
        # half consistent by construction, half random right-hand sides
        if rng.random() < 0.5:
            b = a * rand_fraction_matrix(rng, m, k)
        else:
            b = rand_fraction_matrix(rng, n, k)
        x = solve_linear(a, b)
        ref = reference_solve(a, b)
        if ref is None:
            assert x is None
            counts["inconsistent"] += 1
            continue
        expected, pivots = ref
        assert x == expected and a * x == b
        free = [c for c in range(m) if c not in pivots]
        assert all(x.at(c, j) == 0 for c in free for j in range(k))
        counts["solved"] += 1
        counts["free"] += bool(free)
        if n == m:
            if len(pivots) == n:
                assert inverse(a) == reference_solve(a, Matrix.identity(FQ, n))[0]
                counts["inverse"] += 1
            else:
                with pytest.raises(SingularMatrixError):
                    inverse(a)
    assert min(counts.values()) >= 5, counts


def test_nan_entries_count_as_nonzero_and_unequal():
    nan = math.nan
    for field in (FR, FC):
        assert not Matrix(field, 1, 2, (0.0, nan)).is_zero()
        assert not Matrix(field, 1, 2, (nan, 0.0)).is_zero()
        one_two = Matrix.from_rows(field, [[1, 2]])
        assert not one_two.approx_eq(Matrix(field, 1, 2, (field.one(), nan)), 1.0)
        assert not Matrix(field, 1, 2, (field.one(), nan)).approx_eq(one_two, 1.0)
        assert one_two.approx_eq(Matrix.from_rows(field, [[1, 2.5]]), 0.5)
        assert Matrix.from_rows(field, [[0, 1e-12]]).is_zero(1e-9)
    # finite factors whose product overflows: inf - inf in a scalar loop,
    # inf where a fused multiply-add keeps 1e200 * -1e200 exact
    a = Matrix.from_rows(FR, [[1e200, 1e200], [0, 1]])
    b = Matrix.from_rows(FR, [[1, 1e200], [0, -1e200]])
    prod = a * b
    assert not math.isfinite(prod.at(0, 1))
    assert not (prod - prod).is_zero(math.inf)
    assert not prod.approx_eq(prod, math.inf)


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
@pytest.mark.parametrize("n,left,right", [(2, 3, 4), (3, 2, 3), (4, 1, 5)])
def test_stacked_float_product_blocks_match_separate_products_bit_for_bit(field, n, left, right):
    """numpy's ``@`` chooses its own summation order, so the blocks are
    pinned on dyadic inputs, where every rounded operation is exact: each
    block is the separate product and the exact rational one."""
    rng = random.Random("%s:%d:%d:%d" % (field.kind.value, n, left, right))

    def rand():
        return Matrix(field, n, n, tuple(_dyadic_scalar(rng, field) for _ in range(n * n)))

    lefts, rights = [rand() for _ in range(left)], [rand() for _ in range(right)]
    k = n * right
    # [A_0; A_1; ...] [B_0 | B_1 | ...]: block (p, q) is A_p B_q
    prod = _raw_product(field, [v for a in lefts for v in a.entries],
                        [v for r in range(0, n * n, n) for b in rights for v in b.entries[r:r + n]],
                        n, k)
    for p, a in enumerate(lefts):
        for q, b in enumerate(rights):
            block = tuple(prod[(p * n + r) * k + q * n + c] for r in range(n) for c in range(n))
            assert _reprs(block) == _reprs(a._matmul(b).entries), (p, q)
            assert _parts(block) == _exact_product(a.entries, b.entries, n, n), (p, q)


# -- the vectorised float engine against its scalar references ----------------

def reference_product(field, a, b, m, k):
    """Independent oracle: every entry accumulated left to right from zero in
    Python floats or complexes, one scalar product at a time."""
    out = []
    for i in range(0, len(a), m):
        for j in range(k):
            acc = field.zero()
            for x, y in zip(a[i:i + m], b[j::k]):
                acc += x * y
            out.append(acc)
    return out


def _dyadic_scalar(rng, field):
    """A signed zero, or a 6-bit integer times 2^-8..2^8 (each part when
    complex), so that every product and every sum of up to 9 of them is
    exact in float64, whatever the order."""
    def part():
        if rng.random() < 0.1:
            return rng.choice([0.0, -0.0])
        return rng.randint(-63, 63) * 2.0 ** rng.randint(-8, 8)
    return complex(part(), part()) if field.is_complex else part()


def _parts(values):
    """(re, im) of each value as Fractions, so -0.0 and 0.0 compare equal."""
    return [(Fraction(complex(v).real), Fraction(complex(v).imag)) for v in values]


def _exact_product(a, b, m, k):
    """The product of row-major float values in exact rational arithmetic,
    as (re, im) Fraction pairs."""
    a, b = _parts(a), _parts(b)
    rows = _pair_product([a[i:i + m] for i in range(0, len(a), m)],
                         [b[i:i + k] for i in range(0, len(b), k)], k)
    return [z for row in rows for z in row]


def _reprs(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_product_matches_scalar_loop_bit_for_bit(field):
    """On dyadic inputs with few bits the scalar loop and ``@`` round nothing,
    so they agree to the last bit, signed zeros included, and both are the
    exact rational product."""
    rng = random.Random("product:%s" % field.kind.value)
    for trial in range(300):
        m, k = rng.randint(1, 7), rng.randint(1, 9)
        rows = m * rng.randint(1, 4) if trial % 2 else rng.randint(1, 9)  # stacked or not
        a = [_dyadic_scalar(rng, field) for _ in range(rows * m)]
        b = [_dyadic_scalar(rng, field) for _ in range(m * k)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _raw_product(field, a, b, m, k)
        assert all(type(v) is type(field.zero()) for v in got)
        assert _reprs(got) == _reprs(reference_product(field, a, b, m, k)), trial
        assert _parts(got) == _exact_product(a, b, m, k), trial


def test_float_product_sums_from_a_positive_zero_and_keeps_parts_apart():
    assert _reprs(_raw_product(FR, [-0.0], [1.0], 1, 1)) == ["0.0"]  # 0.0 + -0.0
    # 1e200j (1e200 + 0j) = 0 + infj; re + 1j * im would make the real part 0 * inf = NaN
    assert _reprs(_raw_product(FC, [1e200j], [1e200 + 0j], 1, 1)) == ["infj"]
    assert _reprs(reference_product(FC, [1e200j], [1e200 + 0j], 1, 1)) == ["infj"]


def _dyadic(rng, rows, cols, complex_):
    """A rows x cols matrix of (re, im) Fraction pairs with parts p / 8
    (im 0 unless ``complex_``)."""
    return [[(Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8) if complex_ else 0, 8))
             for _ in range(cols)] for _ in range(rows)]


def _pair_product(left, right, cols):
    """The product of two matrices of (re, im) Fraction pairs, with ``cols``
    columns (``right`` may have no rows)."""
    zero = Fraction(0)
    return [[(sum((a[0] * b[0] - a[1] * b[1] for a, b in zip(row, col)), zero),
              sum((a[0] * b[1] + a[1] * b[0] for a, b in zip(row, col)), zero))
             for col in (list(zip(*right)) if right else [()] * cols)] for row in left]


def _dyadic_low_rank(rng, rows, cols, rank, complex_):
    """A rows x cols matrix of (re, im) Fraction pairs and of rank <= ``rank``:
    a product of two thin ``_dyadic`` factors.  Every part is a dyadic
    rational with a small numerator, held exactly by float64."""
    return _pair_product(_dyadic(rng, rows, rank, complex_), _dyadic(rng, rank, cols, complex_),
                         cols)


def _realified(rows):
    """[[Re, -Im], [Im, Re]] of (re, im) Fraction rows: its rational rank is
    twice the complex rank, and its kernel is the realified complex kernel."""
    re = [[z[0] for z in row] for row in rows]
    im = [[z[1] for z in row] for row in rows]
    return ([r + [-v for v in i] for r, i in zip(re, im)]
            + [i + r for r, i in zip(re, im)])


@pytest.mark.parametrize("field", [FR, FC], ids=["float64", "complex128"])
def test_float_rank_and_kernel_match_the_exact_engine(field):
    """On dyadic low-rank inputs, which float64 holds exactly, the float rank
    is the exact rank, the float kernel spans the exact kernel (stacked with
    it, the rank does not grow), and ``solve_linear`` finds a solution
    exactly when the exact engine does, for right-hand sides of any scale.
    Complex inputs are judged through their real form [[Re, -Im], [Im, Re]]."""
    rng = random.Random("dyadic:%s" % field.kind.value)
    shapes = [(8, 3), (3, 8), (5, 5), (12, 9), (4, 16), (1, 6), (6, 1)]
    seen, solved = set(), Counter()
    for trial in range(120):
        rows, cols = shapes[trial % len(shapes)]
        rank_bound = rng.randint(0, min(rows, cols))
        exact = _dyadic_low_rank(rng, rows, cols, rank_bound, field.is_complex)
        m = Matrix(field, rows, cols, tuple(complex(re, im) if field.is_complex else float(re)
                                            for row in exact for re, im in row))
        assert [(Fraction(z.real), Fraction(z.imag)) for z in m.values] == [
            z for row in exact for z in row]  # float64 holds every part exactly
        if field.is_complex:
            real = Matrix.from_rows(FQ, _realified(exact))
            want_rank = real.rank() // 2
        else:
            real = Matrix.from_rows(FQ, [[re for re, _ in row] for row in exact])
            want_rank = real.rank()
        assert rank(m) == want_rank, trial
        kernel = nullspace(m)
        assert len(kernel) == cols - want_rank, trial
        vectors = np.array([v.to_numpy().reshape(-1) for v in kernel]).reshape(-1, cols)
        assert np.allclose(vectors.conj() @ vectors.T, np.eye(len(kernel)))  # orthonormal
        if field.is_complex:  # v and i v, realified
            vectors = np.concatenate([np.hstack([vectors.real, vectors.imag]),
                                      np.hstack([-vectors.imag, vectors.real])])
        want = [np.array([float(e) for e in v.entries]) for v in real.nullspace()]
        stacked = [w / np.linalg.norm(w) for w in want] + list(vectors)
        if stacked:
            assert rank(Matrix.from_numpy(FR, np.array(stacked))) == len(want), trial
        # a right-hand side in the column space or not, scaled by 2^-60..2^60
        inside = rng.random() < 0.5
        rhs = _dyadic(rng, rows, 1, field.is_complex)
        if inside:
            rhs = _pair_product(exact, _dyadic(rng, cols, 1, field.is_complex), 1)
        k = Fraction(2) ** rng.randint(-60, 60)
        rhs = [(re * k, im * k) for (re, im), in rhs]
        b = Matrix(field, rows, 1, tuple(complex(re, im) if field.is_complex else float(re)
                                         for re, im in rhs))
        want_b = ([[re] for re, _ in rhs] + [[im] for _, im in rhs] if field.is_complex
                  else [[re] for re, _ in rhs])
        x = solve_linear(m, b)
        assert (x is None) == (solve_linear(real, Matrix.from_rows(FQ, want_b)) is None), trial
        if x is not None:
            assert (m * x - b).maxabs() <= 1e-9 * max(m.maxabs() * x.maxabs(), b.maxabs())
        solved[x is not None] += 1
        seen.add((want_rank == 0, want_rank == min(rows, cols)))
    assert seen == {(True, False), (False, True), (False, False)}, seen
    assert min(solved[True], solved[False]) >= 20, solved
    assert len(nullspace(Matrix.zeros(field, 2, 3))) == 3
    assert nullspace(Matrix.identity(field, 3)) == []
