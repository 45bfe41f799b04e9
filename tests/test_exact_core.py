"""The integer exact core against Fraction references built here.

Matrix products, rational trace words, power traces and intertwiner systems
are computed on the stored integers over one denominator; these tests
rebuild each answer the plain way, with ``Fraction`` loops or ``Matrix``
arithmetic over ``Fraction``s, and demand equality.  The staged
intertwiner basis, whose first stage runs through Krylov chains of X_1, is
checked against a ``Fraction`` Gauss-Jordan of the whole stacked system.
The numpy float intertwiner system is checked byte for byte, signed zeros
included, against a Python row-list loop kept here as the reference.
"""

import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import givens_orthogonal
from tracesim import (Field, Kind, KindMismatchError, Matrix, MatrixTuple, NonFiniteError,
                      ShapeError, StarMode, TupleFileError, enumerate_canonical, eval_word,
                      fingerprint, fingerprints_equal, intertwiner_basis, load_corpus,
                      load_tuple, solve_linear, specht_equivalent, tuple_from_dict)
from tracesim.intertwiner import _float_system, _krylov_chains
from tracesim.matrices import _int_matrices, _power_traces
from tracesim.tupleio import parse_entry

FQ = Field.rational()


def rand_fraction_matrix(rng, n):
    return Matrix.from_rows(FQ, [[Fraction(rng.randint(-6, 6), rng.randint(1, 7))
                                  for _ in range(n)] for _ in range(n)])


def rational_tuples():
    """Random tuples with denominators up to 7 for n = 1..4, d = 1..3, plus zeros."""
    rng = random.Random(2024)
    out = []
    for n in range(1, 5):
        for d in range(1, 4):
            x = MatrixTuple.of(*(rand_fraction_matrix(rng, n) for _ in range(d)))
            out.append(pytest.param(x, id="n%d-d%d" % (n, d)))
    zero = MatrixTuple.of(*(Matrix.zeros(FQ, 3, 3) for _ in range(2)))
    out.append(pytest.param(zero, id="zero"))
    return out


TUPLES = rational_tuples()


# -- matrix products ----------------------------------------------------------------

SHAPES = list(itertools.product(range(1, 6), repeat=3))  # n x m by m x k


def rand_rect(rng, field, rows, cols, denom):
    """Entries with numerators up to 10^6 and denominators up to ``denom``;
    float kinds get the same values rounded, complex ones a second part."""
    def value():
        v = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, denom))
        if field.kind is Kind.REAL64:
            return float(v)
        if field.is_complex:
            return complex(float(v), rng.uniform(-1e6, 1e6))
        return v
    return Matrix.from_rows(field, [[value() for _ in range(cols)] for _ in range(rows)])


def ordered_product(a, b):
    """Entries of a b, each accumulated left to right from the kind's zero."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = a.field.zero()
            for t in range(a.cols):
                acc += a.at(i, t) * b.at(t, j)
            out.append(acc)
    return out


@pytest.mark.parametrize("denom", [7, 1], ids=["rational", "integer"])
def test_exact_product_matches_fraction_loop(denom):
    rng = random.Random(100 + denom)
    for n, m, k in SHAPES:
        a, b = rand_rect(rng, FQ, n, m, denom), rand_rect(rng, FQ, m, k, denom)
        got = a * b
        assert (got.rows, got.cols) == (n, k)
        assert list(got.entries) == ordered_product(a, b), (n, m, k)
        assert all(type(v) is Fraction for v in got.entries)
        assert a * Matrix.zeros(FQ, m, k) == Matrix.zeros(FQ, n, k)
        assert Matrix.zeros(FQ, k, n) * a == Matrix.zeros(FQ, k, m)
        assert Matrix.identity(FQ, n) * a == a
        assert a * Matrix.identity(FQ, m) == a


def rand_dyadic_rect(rng, field, rows, cols):
    """Float entries p / 2^e with |p| <= 2^10 and e <= 6 (each part when
    complex): every product and sum of a 5 x 5 product is exact."""
    def part():
        return rng.randint(-2 ** 10, 2 ** 10) / 2 ** rng.randint(0, 6)
    def value():
        return complex(part(), part()) if field.is_complex else part()
    return Matrix.from_rows(field, [[value() for _ in range(cols)] for _ in range(rows)])


def exact_parts(mat):
    """(Re, Im) of a float matrix as exact rational matrices."""
    values = [complex(v) for v in mat.entries]
    return tuple(Matrix.from_rows(FQ, [[Fraction(getattr(v, part)) for v in values[r:r + mat.cols]]
                                       for r in range(0, len(values), mat.cols)])
                 for part in ("real", "imag"))


@pytest.mark.parametrize("field", [Field.real64(), Field.complex128()], ids=["real", "complex"])
def test_float_product_is_exact_on_dyadic_inputs(field):
    """A float product is numpy's ``@``, which sums in an order of its own;
    on dyadic inputs no operation rounds, so each entry is the exact
    engine's product, and so the left-to-right scalar loop's."""
    rng = random.Random(7)
    for n, m, k in SHAPES:
        a, b = rand_dyadic_rect(rng, field, n, m), rand_dyadic_rect(rng, field, m, k)
        got = list((a * b).entries)
        assert got == ordered_product(a, b), (n, m, k)
        (ar, ai), (br, bi) = exact_parts(a), exact_parts(b)
        re, im = ar * br - ai * bi, ar * bi + ai * br
        assert [complex(v) for v in got] == [complex(x, y) for x, y in zip(re.entries, im.entries)]


def test_product_shape_and_kind_checks():
    a = Matrix.identity(FQ, 2)
    with pytest.raises(ShapeError):
        a * Matrix.zeros(FQ, 3, 2)
    with pytest.raises(KindMismatchError):
        a * Matrix.identity(Field.real64(), 2)


def fresh(m):
    return Matrix.from_rows(m.field, m.row_list())


def assert_stored_form(m):
    """Ints over an int denom >= 1 that shares no factor with all of them."""
    assert type(m.values) is tuple and all(type(v) is int for v in m.values)
    assert type(m.denom) is int and m.denom >= 1
    assert math.gcd(m.denom, *m.values) == 1


def test_every_route_reaches_one_stored_form():
    q = Fraction
    target = Matrix.from_rows(FQ, [[q(1, 2), 3], [0, q(-5, 6)]])
    eye = Matrix.identity(FQ, 2)
    routes = {
        "from_rows 2/4": Matrix.from_rows(FQ, [[q(2, 4), q(6, 2)], [q(0, 7), q(-10, 12)]]),
        "file 2/4": tuple_from_dict({"field": "rational", "n": 2, "d": 1,
                                     "matrices": [["2/4", "6/2", "0/7", "-10/12"]]})[0],
        "product": Matrix.from_rows(FQ, [[q(1, 3), 0], [0, q(1, 3)]])
        * Matrix.from_rows(FQ, [[q(3, 2), 9], [0, q(-5, 2)]]),
        "sum": Matrix.from_rows(FQ, [[q(1, 6), 1], [0, q(-1, 2)]])
        + Matrix.from_rows(FQ, [[q(1, 3), 2], [0, q(-1, 3)]]),
        "difference": Matrix.from_rows(FQ, [[q(3, 4), 3], [1, 0]])
        - Matrix.from_rows(FQ, [[q(1, 4), 0], [1, q(5, 6)]]),
        "scale": target.scale(q(-4, 3)).scale(q(-3, 4)),
        "inverse": target.inverse().inverse(),
        "solve_linear": solve_linear(eye.scale(6), target.scale(6)),
    }
    for name, m in routes.items():
        assert_stored_form(m)
        assert m == target and hash(m) == hash(target), name
        assert m.entries == target.entries and all(type(e) is Fraction for e in m.entries)
    zero = Matrix.zeros(FQ, 2, 2)
    for m in (target.scale(0), target - target, target * zero, target * 0):
        assert_stored_form(m)
        assert m.denom == 1 and m == zero and hash(m) == hash(zero)
    # kernels of the same row at other scales and signs: a negative last pivot
    # still gives a positive denominator
    kernels = [Matrix.from_rows(FQ, [row]).nullspace()
               for row in ([1, 2, 3], [-3, -6, -9], [q(1, 2), 1, q(3, 2)])]
    want = [Matrix.from_rows(FQ, [[-2], [1], [0]]), Matrix.from_rows(FQ, [[-3], [0], [1]])]
    for basis in kernels:
        for v in basis:
            assert_stored_form(v)
        assert basis == want and [hash(v) for v in basis] == [hash(v) for v in want]


def test_random_operations_keep_the_stored_form():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 4)
        a, b = (rand_rect(rng, FQ, n, n, rng.choice([1, 2, 6, 7])) for _ in range(2))
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        results = {
            "sum": (a + b, [x + y for x, y in zip(a.entries, b.entries)]),
            "difference": (a - b, [x - y for x, y in zip(a.entries, b.entries)]),
            "self-difference": (a - a, [0] * (n * n)),
            "negation": (-a, [-x for x in a.entries]),
            "scale": (a.scale(s), [s * x for x in a.entries]),
            "product": (a * b, ordered_product(a, b)),
            "transpose": (a.transpose(), [a.at(i, j) for j in range(n) for i in range(n)]),
        }
        for name, (m, want) in results.items():
            assert_stored_form(m)
            assert list(m.entries) == want, name
            assert m == fresh(m) and hash(m) == hash(fresh(m)), name
        for v in a.nullspace():
            assert_stored_form(v)
            assert (a * v).is_zero()
        if a.det() != 0:
            assert_stored_form(a.inverse())
            assert a.inverse() * a == Matrix.identity(FQ, n)


def test_products_with_a_shared_factor_match_fresh_copies():
    rng = random.Random(6)
    for n, m, k in SHAPES[::7]:
        shared = rand_rect(rng, FQ, n, m, 7)
        for _ in range(4):
            right = rand_rect(rng, FQ, m, k, 5)
            left = rand_rect(rng, FQ, k, n, 3)
            assert shared * right == fresh(shared) * fresh(right), (n, m, k)
            assert left * shared == fresh(left) * fresh(shared), (n, m, k)
            assert list((shared * right).entries) == ordered_product(shared, right)
        assert shared * Matrix.identity(FQ, m) == shared


# -- trace words, power traces, intertwiner systems ---------------------------------

@pytest.mark.parametrize("include_star", [False, True])
@pytest.mark.parametrize("x", TUPLES)
def test_word_traces_match_fraction_products(x, include_star):
    fp = fingerprint(x, 5, include_star=include_star)
    words = enumerate_canonical(x.d, 5, include_star)
    assert list(fp.entries) == words
    for w in words:
        assert fp[w] == eval_word(w, x).trace(), str(w)


@pytest.mark.parametrize("x", TUPLES)
def test_power_traces_match_repeated_products(x):
    # the exact kind returns the integers tr((L m)^k) = L^k tr(m^k), L = m.denom
    for m in x.matrices:
        expected = []
        acc = m
        for k in range(1, x.n + 3):
            expected.append(acc.trace() * m.denom ** k)
            acc = acc * m
        traces = _power_traces(m, x.n + 2)
        assert all(type(t) is int for t in traces) and traces == expected


def fraction_system(x, y, with_star):
    """Rows of P X_i - Y_i P = 0 over the row-major entries of P, in Fractions."""
    n = x.n
    pairs = list(zip(x.matrices, y.matrices))
    if with_star:
        pairs += list(zip(x.stars(), y.stars()))
    rows = []
    for xi, yi in pairs:
        for a in range(n):
            for b in range(n):
                row = [Fraction(0)] * (n * n)
                for s in range(n):
                    row[a * n + s] += xi.at(s, b)
                for r in range(n):
                    row[r * n + b] -= yi.at(a, r)
                rows.append(row)
    return rows


def partners(x):
    """x itself, a rational conjugate of x, and an unrelated tuple."""
    rng = random.Random(x.n * 10 + x.d)
    while True:
        p = rand_fraction_matrix(rng, x.n)
        if p.det() != 0:
            break
    other = MatrixTuple.of(*(rand_fraction_matrix(rng, x.n) for _ in range(x.d)))
    return [x, x.conjugated(p), other]


def fraction_kernel(rows, ncols):
    """Reduced right-kernel basis by Gauss-Jordan over Fractions: the vector
    for free column f is 1 there and 0 at every other free column."""
    a = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                a[i] = [u - a[i][c] * w for u, w in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, pc in zip(a, pivots):
                v[pc] = -row[f]
            basis.append(tuple(v))
    return basis


def assert_basis_matches_reference(x, y, with_star):
    expected = fraction_kernel(fraction_system(x, y, with_star), x.n * x.n)
    got = intertwiner_basis(x, y, with_star)
    assert [b.entries for b in got.basis] == expected
    return got


@pytest.mark.parametrize("with_star", [False, True])
@pytest.mark.parametrize("x", TUPLES)
def test_intertwiner_basis_matches_fraction_nullspace(x, with_star):
    for y in partners(x):
        rows = fraction_system(x, y, with_star)
        expected = fraction_kernel(rows, x.n * x.n)
        assert [b.entries for b in intertwiner_basis(x, y, with_star).basis] == expected
        assert [v.entries for v in Matrix.from_rows(FQ, rows).nullspace()] == expected


def diag_tuple(*diagonals):
    return MatrixTuple.of(*(Matrix.diagonal(FQ, v) for v in diagonals))


@pytest.mark.parametrize("with_star", [False, True])
def test_staged_basis_edge_cases(with_star):
    rng = random.Random(5)
    m = rand_fraction_matrix(rng, 2)
    # zero space after the first equation: the later ones are never solved
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]), m)
    y = MatrixTuple.of(Matrix.diagonal(FQ, [3, 4]), m)
    assert assert_basis_matches_reference(x, y, with_star).dim == 0
    # later equations whose residuals are all zero on the current kernel
    eye = [Fraction(5, 3)] * 3
    assert assert_basis_matches_reference(diag_tuple([1, 1, 2], eye, eye),
                                          diag_tuple([1, 1, 2], eye, eye), with_star).dim == 5
    # a scalar first equation keeps all of M_n; the second cuts it down
    x = MatrixTuple.of(Matrix.identity(FQ, 3), rand_fraction_matrix(rng, 3))
    assert assert_basis_matches_reference(x, x, with_star).dim >= 1


# -- the Krylov first stage ------------------------------------------------------------

def jordan_matrix(sizes, eigenvalues=None):
    """Jordan matrix with blocks of the given sizes (ones above the diagonal)."""
    n = sum(sizes)
    eigenvalues = eigenvalues or [0] * len(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for size, lam in zip(sizes, eigenvalues):
        for i in range(start, start + size):
            rows[i][i] = Fraction(lam)
            if i + 1 < start + size:
                rows[i][i + 1] = Fraction(1)
        start += size
    return Matrix.from_rows(FQ, rows)


def block_diag(a, b):
    n, m = a.rows, b.rows
    return Matrix.from_rows(FQ, [[a.at(i, j) if i < n and j < n else
                                  b.at(i - n, j - n) if i >= n and j >= n else 0
                                  for j in range(n + m)] for i in range(n + m)])


def companion(coeffs):
    """Companion matrix of t^n + c_{n-1} t^(n-1) + ... + c_0; cyclic."""
    n = len(coeffs)
    return Matrix.from_rows(FQ, [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i]]
                                 for i in range(n)])


def unimodular(rng, n):
    lower = Matrix.from_rows(FQ, [[1 if i == j else rng.randint(-2, 2) if j < i else 0
                                   for j in range(n)] for i in range(n)])
    upper = Matrix.from_rows(FQ, [[1 if i == j else rng.randint(-2, 2) if j > i else 0
                                   for j in range(n)] for i in range(n)])
    return lower * upper


def first_components():
    """(X_1, Y_1) pairs whose X_1 is far from cyclic, plus cyclic controls."""
    rng = random.Random(17)
    a = rand_fraction_matrix(rng, 2)
    aa = block_diag(a, a)
    nil = jordan_matrix([3, 1])
    p = unimodular(rng, 4)
    return [
        pytest.param(Matrix.identity(FQ, 3).scale(Fraction(5, 3)),
                     Matrix.identity(FQ, 3).scale(Fraction(5, 3)), id="scalar"),
        pytest.param(Matrix.zeros(FQ, 4, 4), Matrix.zeros(FQ, 4, 4), id="zero"),
        pytest.param(jordan_matrix([3, 1, 1]), jordan_matrix([2, 2, 1]), id="J311-J221"),
        pytest.param(jordan_matrix([2, 2, 2]), jordan_matrix([3, 2, 1]), id="J222-J321"),
        pytest.param(aa, p * aa * p.inverse(), id="A+A"),
        pytest.param(nil, p * nil * p.inverse(), id="nilpotent"),
        pytest.param(jordan_matrix([2, 1], [Fraction(1, 2)] * 2),
                     jordan_matrix([1, 1, 1], [Fraction(1, 2)] * 3), id="repeated-eigenvalue"),
        pytest.param(companion([1, -2, 0, 3]), companion([1, -2, 0, 3]).transpose(),
                     id="companion"),
        pytest.param(Matrix.from_rows(FQ, [[Fraction(2, 3)]]),
                     Matrix.from_rows(FQ, [[Fraction(2, 3)]]), id="n1"),
        pytest.param(Matrix.from_rows(FQ, [[Fraction(2, 3)]]),
                     Matrix.from_rows(FQ, [[1]]), id="n1-distinct"),
    ]


@pytest.mark.parametrize("with_star", [False, True])
@pytest.mark.parametrize("x1, y1", first_components())
def test_krylov_first_stage_matches_fraction_nullspace(x1, y1, with_star):
    rng = random.Random(x1.rows)
    second = rand_fraction_matrix(rng, x1.rows)
    for xm, ym in ((x1, y1), (x1, x1), (y1, y1)):
        assert_basis_matches_reference(MatrixTuple.of(xm), MatrixTuple.of(ym), with_star)
        # a second component: the later stages run inside the Krylov kernel
        x = MatrixTuple.of(xm, second)
        assert_basis_matches_reference(x, x, with_star)


def chains_of(m):
    (rows,), _ = _int_matrices([m])
    kept, chains = _krylov_chains(rows, m.rows)
    for start, length, rel in chains:  # every tail relation holds
        u = kept[start]
        for _ in range(length):
            u = [sum(a * b for a, b in zip(row, u)) for row in rows]
        combo = [rel[-1] * e for e in u]
        for c, v in zip(rel[:-1], kept):
            combo = [s + c * e for s, e in zip(combo, v)]
        assert rel[-1] != 0 and combo == [0] * m.rows
    assert sum(length for _, length, _ in chains) == len(kept) == m.rows
    assert [start for start, _, _ in chains] == list(
        itertools.accumulate([0] + [length for _, length, _ in chains[:-1]]))
    return [length for _, length, _ in chains]


def test_krylov_chain_counts():
    assert chains_of(companion([1, -2, 0, 3])) == [4]
    assert chains_of(companion([Fraction(1, 2), 0, 0, 0, 0])) == [5]
    assert chains_of(Matrix.identity(FQ, 4).scale(Fraction(-7, 2))) == [1, 1, 1, 1]
    assert chains_of(Matrix.zeros(FQ, 3, 3)) == [1, 1, 1]
    assert chains_of(Matrix.from_rows(FQ, [[5]])) == [1]
    # ones above the diagonal: e_j maps into the span of e_0..e_j-1
    assert chains_of(jordan_matrix([3, 1, 1])) == [1, 1, 1, 1, 1]
    assert chains_of(jordan_matrix([3, 1, 1]).transpose()) == [3, 1, 1]
    assert chains_of(block_diag(companion([2, 1]), companion([2, 1]))) == [2, 2]


@st.composite
def degenerate_pairs(draw):
    """Rational pairs with n <= 4, d <= 2 whose X_1 has repeated eigenvalues
    (a conjugated Jordan form over {0, 1/2, 1}) or rank at most 2."""
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    entry = st.fractions(-3, 3, max_denominator=3)

    def unimodular_draw():
        lower = Matrix.from_rows(FQ, [[1 if i == j else draw(small) if j < i else 0
                                       for j in range(n)] for i in range(n)])
        upper = Matrix.from_rows(FQ, [[1 if i == j else draw(small) if j > i else 0
                                       for j in range(n)] for i in range(n)])
        return lower * upper

    def first():
        if draw(st.booleans()):
            cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else set())
            sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
            lams = [draw(st.sampled_from([0, Fraction(1, 2), 1])) for _ in sizes]
            s = unimodular_draw()
            return s * jordan_matrix(sizes, lams) * s.inverse()
        rank = draw(st.integers(0, min(2, n)))
        if rank == 0:
            return Matrix.zeros(FQ, n, n)
        u = Matrix.from_rows(FQ, [[draw(entry) for _ in range(rank)] for _ in range(n)])
        v = Matrix.from_rows(FQ, [[draw(entry) for _ in range(n)] for _ in range(rank)])
        return u * v

    x1 = first()
    how = draw(st.sampled_from(["same", "conjugate", "other"]))
    t = unimodular_draw()
    y1 = {"same": x1, "conjugate": t * x1 * t.inverse(), "other": first()}[how]
    if draw(st.booleans()):
        return MatrixTuple.of(x1), MatrixTuple.of(y1)
    x2 = Matrix.from_rows(FQ, [[draw(entry) for _ in range(n)] for _ in range(n)])
    y2 = t * x2 * t.inverse() if how == "conjugate" else x2
    return MatrixTuple.of(x1, x2), MatrixTuple.of(y1, y2)


@settings(max_examples=80, deadline=None)
@given(degenerate_pairs(), st.booleans())
def test_krylov_basis_matches_fraction_nullspace_on_degenerate_tuples(pair, with_star):
    assert_basis_matches_reference(*pair, with_star)


# -- the float system -------------------------------------------------------------------

def reference_system_rows(xs, ys, n, zero):
    """Rows of P X_i - Y_i P = 0 as the Python row-list loop built them."""
    rows = []
    for xi, yi in zip(xs, ys):
        for a in range(n):
            for b in range(n):
                row = [zero] * (n * n)
                for s in range(n):
                    row[a * n + s] = row[a * n + s] + xi[s][b]
                for r in range(n):
                    row[r * n + b] = row[r * n + b] - yi[a][r]
                rows.append(row)
    return rows


def signed_zero_tuple(field, rng, n, d):
    """Random entries with exact zeros of both signs mixed in."""
    def value():
        pick = rng.random()
        re = 0.0 if pick < 0.2 else -0.0 if pick < 0.4 else rng.gauss(0, 2)
        if field.is_complex:
            im = -0.0 if rng.random() < 0.3 else 0.0 if rng.random() < 0.3 else rng.gauss(0, 2)
            return complex(re, im)
        return re
    return MatrixTuple.of(*(Matrix(field, n, n, tuple(value() for _ in range(n * n)))
                            for _ in range(d)))


@pytest.mark.parametrize("with_star", [False, True])
@pytest.mark.parametrize("field", [Field.real64(), Field.complex128(),
                                   Field.complex128(StarMode.TRANSPOSE)],
                         ids=["real", "complex", "complex-transpose"])
def test_float_system_is_bitwise_the_row_loop(field, with_star):
    rng = random.Random(23)
    for n in range(1, 5):
        for d in (1, 2):
            x, y = signed_zero_tuple(field, rng, n, d), signed_zero_tuple(field, rng, n, d)
            xs, ys = list(x.matrices), list(y.matrices)
            if with_star:
                xs += list(x.stars())
                ys += list(y.stars())
            rows = reference_system_rows([m.row_list() for m in xs], [m.row_list() for m in ys],
                                         n, field.zero())
            reference = Matrix(field, len(rows), n * n, tuple(e for row in rows for e in row))
            got = _float_system([m.to_numpy() for m in xs], [m.to_numpy() for m in ys], n)
            expected = reference.to_numpy()
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(got.real), np.signbit(expected.real))
            if field.is_complex:
                assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))
            basis = intertwiner_basis(x, y, with_star).basis
            assert [b.entries for b in basis] == [v.entries for v in reference.nullspace()]
            assert intertwiner_basis(x, x, with_star).dim >= 1


@pytest.mark.parametrize("rows, cols, rank", [(7, 3, 2), (9, 4, 1), (2, 6, 2), (3, 7, 1),
                                              (5, 5, 3), (4, 4, 0)])
def test_int_nullspace_of_rank_deficient_inputs(rows, cols, rank):
    rng = random.Random(rows * 100 + cols * 10 + rank)
    for _ in range(5):
        left = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rank)]
        a = [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(cols)]
             for i in range(rows)]
        expected = fraction_kernel(a, cols)
        assert [v.entries for v in Matrix.from_rows(FQ, a).nullspace()] == expected
        assert len(expected) >= cols - rank


def test_specht_needs_transpose_at_default_degree():
    fx = next(f for f in load_corpus() if f.name == "needs-transpose")
    equal, diff = specht_equivalent(fx.x, fx.y)
    assert not equal
    assert str(diff.word) == "x1 x1*"


# -- float fingerprint tolerance ----------------------------------------------------

def sigma3_pairs(count=20, n=3):
    rng = random.Random(3)
    out = []
    for _ in range(count):
        x = MatrixTuple.of(Matrix.from_rows(Field.real64(),
                                            [[rng.gauss(0, 3) for _ in range(n)]
                                             for _ in range(n)]))
        out.append((x, x.star_conjugated(givens_orthogonal(rng, n))))
    return out


def test_float_fingerprints_of_orthogonal_conjugates_are_equal_at_n_squared():
    for x, y in sigma3_pairs():
        equal, diff = fingerprints_equal(fingerprint(x, 9), fingerprint(y, 9))
        assert equal, str(diff)


def test_float_fingerprint_tolerance_still_sees_small_relative_changes():
    for x, y in sigma3_pairs():
        fx, fy = fingerprint(x, 9), fingerprint(y, 9)
        word = next(w for w in fy.entries if str(w) == "x1 x1*")
        entries = dict(fy.entries)
        entries[word] *= 1 + 1e-3
        equal, diff = fingerprints_equal(fx, dataclasses.replace(fy, entries=entries))
        assert not equal
        assert diff.word == word


def test_float_fingerprint_tolerance_survives_huge_norms():
    # every pure trace of a nilpotent is 0, while norm^12 = 1e360 overflows
    x = MatrixTuple.of(Matrix.from_rows(Field.real64(), [[0.0, 1e30], [0.0, 0.0]]))
    fx = fingerprint(x, 12, include_star=False)
    equal, _ = fingerprints_equal(fx, fx)
    assert equal


# -- non-finite input ------------------------------------------------------------------

@pytest.mark.parametrize("field, entry", [
    ("float64", math.nan), ("float64", math.inf), ("float64", -math.inf),
    ("complex128", [0.0, math.nan]), ("complex128", [math.inf, 1.0]),
])
def test_non_finite_entries_rejected_on_load(tmp_path, field, entry):
    path = tmp_path / "t.json"
    entries = [entry, 0, 0, 1] if field == "float64" else [entry, [0, 0], [0, 0], [1, 0]]
    path.write_text(json.dumps({"field": field, "n": 2, "d": 1, "matrices": [entries]}))
    with pytest.raises(TupleFileError, match="non-finite"):
        load_tuple(str(path))


def test_huge_json_integers_rejected():
    for field, raw in ((Field.real64(), 10 ** 400), (Field.complex128(), [10 ** 400, 0]),
                       (Field.complex128(), [0, -10 ** 400])):
        with pytest.raises(TupleFileError, match="beyond float range"):
            parse_entry(field, raw)
    for field in (Field.real64(), Field.complex128()):
        with pytest.raises(NonFiniteError, match="beyond float range"):
            field.coerce(-10 ** 400)
    assert parse_entry(Field.real64(), 10 ** 300) == 1e300
