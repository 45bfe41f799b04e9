import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certificate import fraction_rank, shrinks
from conftest import givens_orthogonal, rand_invertible_int, rand_rational_tuple
from tracesim import (Field, IntertwinerBasis, Matrix, MatrixTuple, ShapeError, commutant,
                      gl_similar, intertwiner_basis, orthogonal_witness)
from tracesim import intertwiner, words
from tracesim.intertwiner import (DEFAULT_SAMPLE_BOUND, DEFAULT_TRIALS, _decide_span,
                                  _verify_intertwiner)
from tracesim.matrices import _det_int, _power_traces

FQ = Field.rational()
FR = Field.real64()


def decide(b):
    """(P, U, detail) of the default search on a span."""
    return _decide_span(b, 0, DEFAULT_TRIALS, DEFAULT_SAMPLE_BOUND)


def wong_certificate(x, y, with_star=False):
    """(basis, U) of the search on a pair."""
    basis = intertwiner_basis(x, y, with_star)
    p, u, _ = decide(basis)
    assert p is None and u is not None
    return basis.basis, u


def basis_satisfies_equations(basis, x, y, tol=0.0):
    for b in basis.basis:
        for xi, yi in zip(x.matrices, y.matrices):
            if not (b * xi - yi * b).is_zero(tol):
                return False
        if basis.with_star:
            for xi, yi in zip(x.stars(), y.stars()):
                if not (b * xi - yi * b).is_zero(tol):
                    return False
    return True


def test_identity_tuple_has_full_intertwiner_space():
    x = MatrixTuple.of(Matrix.identity(FQ, 3))
    b = intertwiner_basis(x, x, with_star=True)
    assert b.dim == 9
    assert basis_satisfies_equations(b, x, x)


def test_commutant_of_distinct_diagonal_is_diagonal():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]))
    b = intertwiner_basis(x, x, with_star=False)
    assert b.dim == 2
    for m in b.basis:
        assert m.at(0, 1) == 0 and m.at(1, 0) == 0


def test_no_trace_pair_has_only_singular_intertwiners():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    b = intertwiner_basis(x, y, with_star=False)
    assert b.dim == 4
    assert decide(b)[0] is None
    verdict = gl_similar(x, y)
    assert (verdict.verdict, verdict.detail) == (
        "not_similar", "shrunk subspace: dim U = 2 > dim sum_j B_j U = 1, so no intertwiner "
        "is invertible (second Wong sequence, draw 1)")
    assert shrinks(*wong_certificate(x, y))


def test_basis_linear_independence():
    rng = random.Random(0)
    for _ in range(10):
        x = rand_rational_tuple(rng, 3, 2)
        b = intertwiner_basis(x, x, with_star=False)
        assert b.dim >= 1  # identity always intertwines
        stacked = Matrix.from_rows(FQ, [list(m.entries) for m in b.basis])
        assert stacked.rank() == b.dim


def test_basis_equations_hold_exactly_on_random_pairs():
    rng = random.Random(8)
    for _ in range(8):
        x = rand_rational_tuple(rng, 3, 2, -2, 2)
        p = rand_invertible_int(rng, FQ, 3, -2, 2)
        y = x.conjugated(p)
        for with_star in (False, True):
            b = intertwiner_basis(x, y, with_star)
            assert basis_satisfies_equations(b, x, y)


def test_basis_residuals_float():
    import numpy as np
    rng = random.Random(9)
    for _ in range(5):
        x = MatrixTuple.of(*(Matrix.from_rows(
            FR, [[rng.gauss(0, 1) for _ in range(4)] for _ in range(4)])
            for _ in range(2)))
        q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(4)]
                                      for _ in range(4)]))
        y = x.star_conjugated(Matrix.from_numpy(FR, q))
        b = intertwiner_basis(x, y, with_star=True)
        assert b.dim >= 1
        scale = max(1.0, x.maxabs())
        assert basis_satisfies_equations(b, x, y, tol=1e-10 * scale)


@pytest.mark.parametrize("field", [FR, Field.complex128()], ids=["float64", "complex128"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_scalar_letter_pivots_scale_with_the_letters(field, n):
    """X = (0.1 I) and Y = Q X Q^t, rounded.  The system's entries x - y
    cancel to rounding dust, so a pivot threshold taken from them counts
    every dust pivot and finds no intertwiner; one taken from the letters
    finds all n^2 directions."""
    q = (Matrix.from_rows(FR, [[0.6, -0.8], [0.8, 0.6]]) if n == 2
         else givens_orthogonal(random.Random(n), n)).astype(field)
    x = MatrixTuple.of(Matrix.identity(field, n).scale(0.1))
    y = x.star_conjugated(q)
    assert y[0] != x[0]  # the rounding dust is there
    assert intertwiner_basis(x, y, with_star=True).dim == n * n
    assert gl_similar(x, y).verdict == "similar"
    assert orthogonal_witness(x, y).verdict == "equivalent"
    assert len(commutant([y[0]])) == n * n


def test_scalar_tuple_space_is_at_least_n():
    x = MatrixTuple.of(Matrix.identity(FQ, 3).scale(5))
    b = intertwiner_basis(x, x, with_star=False)
    assert b.dim >= 3


# -- the draw loop (_decide_span) ------------------------------------------------------

def test_full_matrix_space_contains_identity():
    basis = tuple(Matrix.unit(FQ, 2, i, j) for i in range(2) for j in range(2))
    b = IntertwinerBasis(2, False, FQ, basis)
    p, u, _ = decide(b)
    assert p is not None and p.det() != 0 and u is None


def test_nilpotent_line_is_proven_singular():
    b = IntertwinerBasis(2, False, FQ, (Matrix.unit(FQ, 2, 0, 1),))
    assert _decide_span(b, 1, 10, DEFAULT_SAMPLE_BOUND)[0] is None
    p, u, detail = decide(b)
    assert p is None and shrinks(b.basis, u)
    assert detail == ("shrunk subspace: dim U = 1 > dim sum_j B_j U = 0, so no intertwiner "
                      "is invertible (second Wong sequence, draw 1)")


def test_diagonal_span_monte_carlo_finds_witness():
    basis = (Matrix.diagonal(FQ, [1, 0]), Matrix.diagonal(FQ, [0, 1]))
    b = IntertwinerBasis(2, False, FQ, basis)
    p, _, _ = _decide_span(b, 0, 20, DEFAULT_SAMPLE_BOUND)
    assert p is not None and p.det() != 0


def test_empty_basis_has_no_invertible():
    b = IntertwinerBasis(2, False, FQ, ())
    assert decide(b) == (None, Matrix.identity(FQ, 2), "intertwiner space is zero")


_DIAG = ([1, 2], [2, 1])  # similar


@pytest.mark.parametrize("call", ["_decide_span", "gl_similar", "orthogonal_witness"])
@pytest.mark.parametrize("params", [{"trials": 0}, {"trials": -3}, {"sample_bound": 0}],
                         ids=["no-trials", "negative-trials", "zero-bound"])
def test_draw_parameters_are_validated(call, params):
    x, y = (MatrixTuple.of(Matrix.diagonal(FQ, v)) for v in _DIAG)
    span = {"trials": DEFAULT_TRIALS, "sample_bound": DEFAULT_SAMPLE_BOUND, **params}
    run = {"_decide_span": lambda: _decide_span(intertwiner_basis(x, y, False), 0, **span),
           "gl_similar": lambda: gl_similar(x, y, **params),
           "orthogonal_witness": lambda: orthogonal_witness(x, y, **params)}[call]
    with pytest.raises(ShapeError, match="the search needs trials >= 1 and sample_bound >= 1"):
        run()


def grid_has_invertible(b):
    """Reference: some point of the full grid {0..n}^k has nonzero determinant.

    det(sum c_j B_j) is a polynomial of degree n in each c_j, and the grid
    holds n + 1 values of each, so it hits every nonzero such polynomial.
    """
    n = b.n
    denom = math.lcm(*(e.denominator for m in b.basis for e in m.entries))
    span = [[int(e * denom) for e in m.entries] for m in b.basis]
    for coeffs in itertools.product(range(n + 1), repeat=b.dim):
        flat = [sum(c * m[t] for c, m in zip(coeffs, span)) for t in range(n * n)]
        if _det_int([flat[i * n:(i + 1) * n] for i in range(n)]) != 0:
            return True
    return False


def random_spans(rng, count):
    """Small rational spans; two in three are forced singular (a shared zero
    column, or strictly upper triangular)."""
    out = []
    for t in range(count):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        style = t % 3
        mats = []
        for _ in range(k):
            rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            for i in range(n):
                if style == 1:
                    rows[i][0] = 0
                if style == 2:
                    rows[i][:i + 1] = [0] * (i + 1)
            mats.append(Matrix.from_rows(FQ, rows))
        out.append(IntertwinerBasis(n, False, FQ, tuple(mats)))
    return out


def random_pair_spans(rng, count):
    """Intertwiner spaces of pairs of small triangular tuples with entries in
    {0, 1, 2}; repeated eigenvalues make many of them nonzero and singular."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 3)
        x, y = (MatrixTuple.of(Matrix.from_rows(
            FQ, [[rng.choice([0, 1, 2]) if j >= i else 0 for j in range(n)]
                 for i in range(n)])) for _ in range(2))
        b = intertwiner_basis(x, y, with_star=rng.random() < 0.3)
        if 0 < b.dim <= 5:
            out.append(b)
    return out


def test_search_verdict_matches_the_full_grid():
    rng = random.Random(78)
    spans = random_spans(rng, 60) + random_pair_spans(rng, 40)
    singular = 0
    for b in spans:
        p, u, _ = decide(b)
        assert (p is not None) == grid_has_invertible(b)
        if p is None:
            singular += 1
            assert shrinks(b.basis, u)  # every singular span here is certified
        else:
            assert p.det() != 0
    assert 20 <= singular <= len(spans) - 20


def skew_span(field, with_star=False):
    """The 3 x 3 skew-symmetric matrices: every element is singular (odd
    size), yet the span has no shrunk subspace, so every Wong sequence
    escapes and only the Monte Carlo bound remains."""
    def e(i, j):
        return Matrix.unit(field, 3, i, j) - Matrix.unit(field, 3, j, i)
    return IntertwinerBasis(3, with_star, field, (e(0, 1), e(0, 2), e(1, 2)))


def test_monte_carlo_negative_is_labeled_probable(monkeypatch):
    bound = "Schwartz-Zippel error bound (3/2000001)^20 = 3.33e-117"
    for field in (FQ, FR):
        monkeypatch.setattr(intertwiner, "intertwiner_basis",
                            lambda x, y, with_star: skew_span(field, with_star))
        x = MatrixTuple.of(Matrix.identity(field, 3))
        v = gl_similar(x, x)
        assert (v.verdict, v.detail) == (
            "not_similar_probable",
            "20 Monte Carlo draws found no invertible intertwiner and no shrunk subspace; "
            + bound)
        v = orthogonal_witness(x, x)
        assert (v.verdict, v.detail) == (
            "not_equivalent_probable",
            "20 Monte Carlo draws found no invertible star-intertwiner and no shrunk "
            "subspace; " + bound)
    p, u, detail = _decide_span(skew_span(FQ), 4, 3, 1)
    assert (p, u) == (None, None)
    assert detail.endswith("bound (3/3)^3 = 1.00e+0")


def jordan(sizes, eigenvalues=None):
    """The Jordan matrix with blocks of the given sizes and eigenvalues
    (nilpotent by default)."""
    eigenvalues = eigenvalues or [0] * len(sizes)
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size, lam in zip(sizes, eigenvalues):
        for i in range(start, start + size):
            rows[i][i] = lam
            if i + 1 < start + size:
                rows[i][i + 1] = 1
        start += size
    return MatrixTuple.of(Matrix.from_rows(FQ, rows))


@pytest.mark.parametrize("xs, ys, dim, dim_u, dim_image", [
    ((3, 1, 1), (2, 2, 1), 11, 1, 0),
    ((2, 2), (3, 1), 6, 2, 1),
    ((2, 2, 2), (3, 2, 1), 15, 3, 2),
    ((3, 3, 2), (3, 3, 1, 1), 22, 3, 2),
    ((2, 2, 2, 2), (3, 2, 2, 1), 28, 4, 3),
])
def test_jordan_pairs_are_proven_not_similar(xs, ys, dim, dim_u, dim_image):
    x, y = jordan(xs), jordan(ys)
    t0 = time.perf_counter()
    v = gl_similar(x, y)
    assert time.perf_counter() - t0 < 1.0
    assert intertwiner_basis(x, y, with_star=False).dim == dim
    assert (v.verdict, v.detail) == (
        "not_similar", "shrunk subspace: dim U = %d > dim sum_j B_j U = %d, so no "
        "intertwiner is invertible (second Wong sequence, draw 1)" % (dim_u, dim_image))
    assert shrinks(*wong_certificate(x, y))


def partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def jordan_types(n):
    """Every Jordan matrix of size n with eigenvalues in {0, 1}."""
    for n0 in range(n + 1):
        for p0 in partitions(n0):
            for p1 in partitions(n - n0):
                yield jordan(p0 + p1, [0] * len(p0) + [1] * len(p1))


@pytest.mark.parametrize("n", range(1, 6))
def test_d1_verdicts_match_the_hom_dimension_identity(n):
    """For one matrix, X ~ Y iff dim C(X,X) + dim C(Y,Y) = 2 dim C(X,Y): an
    independent route that uses only intertwiner dimensions.  Y is conjugated
    by a fixed unimodular P so the pairs are not both in Jordan form."""
    p = Matrix.from_rows(FQ, [[1 if j >= i else 0 for j in range(n)] for i in range(n)])
    types = list(jordan_types(n))
    self_dims = [intertwiner_basis(x, x, False).dim for x in types]
    negatives = 0
    for i, x in enumerate(types):
        for j in range(i, len(types)):
            y = types[j].conjugated(p)
            similar = self_dims[i] + self_dims[j] == 2 * intertwiner_basis(x, y, False).dim
            v = gl_similar(x, y)
            assert v.verdict == ("similar" if similar else "not_similar"), (i, j, v.detail)
            negatives += not similar
    assert negatives == len(types) * (len(types) - 1) // 2  # only i == j is similar


@pytest.mark.parametrize("field", [FR, Field.complex128()], ids=["float64", "complex128"])
@pytest.mark.parametrize("xs, ys", [((3, 1, 1), (2, 2, 1)), ((2, 2), (3, 1)),
                                    ((2, 2, 2), (3, 2, 1)), ((3, 3, 2), (3, 3, 1, 1)),
                                    ((2, 2, 2, 2), (3, 2, 2, 1))])
def test_float_jordan_pairs_are_not_similar(field, xs, ys):
    """The float search decides the Jordan pairs on its first draw: the
    rank decisions against the fixed scale drop the rounding noise of
    B_j ker A instead of keeping it as directions."""
    x, y = jordan(xs).astype(field), jordan(ys).astype(field)
    v = gl_similar(x, y)
    assert v.verdict == "not_similar"
    assert v.detail.startswith("shrunk subspace") and v.detail.endswith("draw 1)")
    assert gl_similar(x, x).verdict == "similar"


def extension(a, b, c):
    """The tuple [[A_i, C_i], [0, B_i]]."""
    na, nb = a[0].rows, b[0].rows
    mats = []
    for ai, bi, ci in zip(a, b, c):
        rows = [ai.row_list()[r] + ci.row_list()[r] for r in range(na)]
        rows += [[0] * na + bi.row_list()[r] for r in range(nb)]
        mats.append(Matrix.from_rows(FQ, rows))
    return MatrixTuple.of(*mats)


def splits(a, b, c):
    """Whether A_i X - X B_i = C_i has a common solution X, solved in Fractions
    over the entries of X; then the extension is similar to the direct sum."""
    na, nb = a[0].rows, b[0].rows
    rows, rhs = [], []
    for ai, bi, ci in zip(a, b, c):
        for r in range(na):
            for s in range(nb):
                row = [Fraction(0)] * (na * nb)
                for t in range(na):
                    row[t * nb + s] += ai.at(r, t)
                for t in range(nb):
                    row[r * nb + t] -= bi.at(t, s)
                rows.append(row)
                rhs.append(ci.at(r, s))
    return fraction_rank(rows) == fraction_rank([r + [v] for r, v in zip(rows, rhs)])


def random_triangular(rng, m):
    """An upper triangular m x m matrix with entries in {0, 1}."""
    return Matrix.from_rows(FQ, [[rng.choice([0, 1]) if j >= i else 0 for j in range(m)]
                                 for i in range(m)])


def test_extension_pairs_are_certified():
    """[[A, C], [0, B]] against [[A, 0], [0, B]]: block triangular, so every
    trace word agrees.  The pair is similar iff the extension splits, which
    a Sylvester system decides independently; every other pair must come
    back as a certified not_similar."""
    rng = random.Random(31)
    counts = {True: 0, False: 0}
    for _ in range(60):
        d, na, nb = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        a = [random_triangular(rng, na) for _ in range(d)]
        b = [random_triangular(rng, nb) for _ in range(d)]
        c = [Matrix.from_rows(FQ, [[rng.randint(-1, 1) for _ in range(nb)]
                                   for _ in range(na)]) for _ in range(d)]
        zero = [Matrix.zeros(FQ, na, nb)] * d
        x, y = extension(a, b, c), extension(a, b, zero)
        similar = splits(a, b, c)
        v = gl_similar(x, y)
        assert v.verdict == ("similar" if similar else "not_similar"), v.detail
        if not similar:
            assert shrinks(*wong_certificate(x, y))
        counts[similar] += 1
    assert min(counts.values()) >= 10, counts


# -- gl_similar ----------------------------------------------------------------------

def test_gl_similar_reflexive():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 3]))
    v = gl_similar(x, x)
    assert v.verdict == "similar"
    assert v.witness is not None


def test_gl_similar_nilpotent_scaling():
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[0, 1], [0, 0]]))
    y = MatrixTuple.of(Matrix.from_rows(FQ, [[0, 2], [0, 0]]))
    v = gl_similar(x, y)
    assert v.verdict == "similar"
    p = v.witness
    for xi, yi in zip(x, y):
        assert p * xi == yi * p
    assert p.det() != 0


_SHRUNK_2_1 = ("shrunk subspace: dim U = 2 > dim sum_j B_j U = 1, so no intertwiner is "
               "invertible (second Wong sequence, draw 1)")


def test_gl_similar_rejects_rank_gap():
    """Ranks 2 vs 1 with every pure trace word 0: the search proves the pair
    apart, exactly and in float64, and the exact U passes the standalone
    check."""
    for field in (FQ, FR):
        x = MatrixTuple.of(Matrix.unit(field, 4, 0, 1) + Matrix.unit(field, 4, 2, 3))
        y = MatrixTuple.of(Matrix.unit(field, 4, 0, 1))
        assert (x[0].rank(), y[0].rank()) == (2, 1)
        v = gl_similar(x, y)
        assert (v.verdict, v.detail) == ("not_similar", _SHRUNK_2_1)
        if field.is_exact:
            assert shrinks(*wong_certificate(x, y))


def test_gl_similar_shrunk_subspace_proof_without_filters():
    """With no trace-word step in front of it, the search alone proves the
    rank-gap pair apart by a shrunk subspace, and its Wong certificate U
    passes the standalone check."""
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    v = gl_similar(x, y)
    assert v.verdict == "not_similar"
    assert v.detail.startswith("shrunk subspace")
    assert shrinks(*wong_certificate(x, y))


@pytest.mark.parametrize("field", [FQ, FR], ids=["rational", "float64"])
def test_power_trace_gap_is_proved_by_the_search(field):
    """diag(1, 4, 4) vs diag(2, 2, 5): equal rank, tr X and tr X^2; only
    tr X^3 differs (129 vs 141), and the search proves the pair apart by its
    zero intertwiner space."""
    x = MatrixTuple.of(Matrix.diagonal(field, [1, 4, 4]))
    y = MatrixTuple.of(Matrix.diagonal(field, [2, 2, 5]))
    assert x[0].rank() == y[0].rank()
    assert _power_traces(x[0], 3) == [9, 33, 129] and _power_traces(y[0], 3) == [9, 33, 141]
    v = gl_similar(x, y)
    assert (v.verdict, v.detail) == ("not_similar", "intertwiner space is zero")
    assert orthogonal_witness(x, y).detail == "star-intertwiner space is zero"


def test_deciders_enumerate_no_words(monkeypatch):
    """300 letters give 90,000 words of degree 2, which a trace-word step
    would take quadratic time over; both deciders settle the pairs from the
    intertwiner space alone, without enumerating a single word."""
    def no_words(*args):
        raise AssertionError("a decider enumerated trace words")
    monkeypatch.setattr(words, "_enumerate_cached", no_words)
    d = 300
    x = MatrixTuple.of(*(Matrix.from_rows(FQ, [[i % 5]]) for i in range(d)))
    y = MatrixTuple.of(*(Matrix.from_rows(FQ, [[i % 5 if i else 7]]) for i in range(d)))
    assert gl_similar(x, x).verdict == "similar"
    assert orthogonal_witness(x, x).verdict == "equivalent"
    assert gl_similar(x, y).detail == "intertwiner space is zero"
    assert orthogonal_witness(x, y).detail == "star-intertwiner space is zero"


def test_gl_similar_symmetric_verdicts():
    rng = random.Random(1)
    for _ in range(6):
        x = rand_rational_tuple(rng, 2, 2, -2, 2)
        y = rand_rational_tuple(rng, 2, 2, -2, 2)
        vxy = gl_similar(x, y)
        vyx = gl_similar(y, x)
        assert vxy.verdict == vyx.verdict


def test_gl_round_trip_with_exact_witness():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        x = rand_rational_tuple(rng, n, d, -3, 3)
        p0 = rand_invertible_int(rng, FQ, n, -3, 3)
        y = x.conjugated(p0)
        v = gl_similar(x, y, seed=5)
        assert v.verdict == "similar"
        p = v.witness
        assert p.det() != 0
        for xi, yi in zip(x, y):
            assert p * xi == yi * p  # exact


def test_float_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        x = MatrixTuple.of(*(Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(3)]
                                                   for _ in range(3)]) for _ in range(2)))
        p_rows = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]
        p0 = Matrix.from_rows(FR, p_rows)
        y = x.conjugated(p0)
        v = gl_similar(x, y, seed=9)
        assert v.verdict == "similar"
        p = v.witness
        scale = max(1.0, p.maxabs()) * max(1.0, x.maxabs())
        for xi, yi in zip(x, y):
            assert (p * xi - yi * p).maxabs() <= 1e-9 * scale


def test_float_similarity_survives_huge_norms():
    # entries of 1e30: the degree-2 word tolerances reach 1e60, and the
    # search works on the basis scaled so its largest entry is 1
    n = 11
    m = Matrix.from_rows(FR, [[1e30 if j == i + 1 else 0.0 for j in range(n)]
                              for i in range(n)])
    x = MatrixTuple.of(m)
    assert gl_similar(x, x).verdict == "similar"


@st.composite
def tuple_and_unimodular(draw):
    """A rational tuple with n <= 3, d <= 2 and a P = L U of determinant 1."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 2))
    entry = st.fractions(-3, 3, max_denominator=3)
    x = MatrixTuple.of(*(Matrix.from_rows(FQ, [[draw(entry) for _ in range(n)]
                                               for _ in range(n)]) for _ in range(d)))
    small = st.integers(-2, 2)
    lower = Matrix.from_rows(FQ, [[1 if i == j else draw(small) if j < i else 0
                                   for j in range(n)] for i in range(n)])
    upper = Matrix.from_rows(FQ, [[1 if i == j else draw(small) if j > i else 0
                                   for j in range(n)] for i in range(n)])
    return x, lower * upper


@settings(max_examples=30, deadline=None)
@given(tuple_and_unimodular())
def test_tuple_is_similar_to_itself_and_its_conjugates(case):
    x, p = case
    for y in (x, x.conjugated(p)):
        v = gl_similar(x, y)
        assert v.verdict == "similar", v.detail
        assert _verify_intertwiner(v.witness, x, y)


def test_verify_intertwiner_rejects_overflowing_residual():
    # P X - X P has a non-finite (0, 1) entry from finite ones: NaN from
    # inf - inf, or inf where a fused multiply-add keeps 1e200 * -1e200
    # exact.  The tolerance 1e-9 * 2 * 1e200 * 1e200 overflows and is capped
    # at the largest float, so only that entry can fail
    p = Matrix.from_rows(FR, [[1e200, 1e200], [0, 1]])
    x = MatrixTuple.of(Matrix.from_rows(FR, [[1, 1e200], [0, -1e200]]))
    assert not math.isfinite((p * x[0] - x[0] * p).at(0, 1))
    assert not _verify_intertwiner(p, x, x)


def test_verify_intertwiner_rejects_an_infinite_residual():
    # P X - I P = [[inf, 0], [0, 0]]: the overflowing tolerance is capped at
    # the largest float, which the infinite entry exceeds
    p = Matrix.diagonal(FR, [1e200, 1.0])
    x = MatrixTuple.of(p)
    y = MatrixTuple.of(Matrix.identity(FR, 2))
    assert (p * x[0] - y[0] * p).values == (math.inf, 0.0, 0.0, 0.0)
    assert not _verify_intertwiner(p, x, y)


def unimodular(rng, n):
    """An integer L U of determinant 1 with 1e3 <= cond(L U) <= 1e8."""
    while True:
        lower = Matrix.from_rows(FQ, [[1 if i == j else rng.randint(-3, 3) if j < i else 0
                                       for j in range(n)] for i in range(n)])
        upper = Matrix.from_rows(FQ, [[1 if i == j else rng.randint(-9, 9) if j > i else 0
                                       for j in range(n)] for i in range(n)])
        p = lower * upper
        if 1e3 <= np.linalg.cond(p.to_numpy()) <= 1e8:
            return p


# Y = P X P^{-1} for P = [[1, 1000], [0, 1]]: the GL witness check once took
# 1e-10 max(1, max|P|) max(1, max|X|), ignoring |Y|, and float64 answered
# not_similar_probable for (X, Y) and similar for (Y, X).
_ILL_X = [[-2, 2], [-1, 0]]
_ILL_Y = [[-1002, 1002002], [-1, 1000]]


def ill_conditioned_round_trips():
    """The 2 x 2 pair above, then integer tuples (n = 3..7, d = 1..3,
    entries in -2..2) conjugated by a unimodular P with cond(P) in
    1e3..1e8; every entry of Y is an integer that float64 holds exactly."""
    yield (MatrixTuple.of(Matrix.from_rows(FQ, _ILL_X)),
           MatrixTuple.of(Matrix.from_rows(FQ, _ILL_Y)))
    rng = random.Random(1)
    for _ in range(16):
        n, d = rng.randint(3, 7), rng.randint(1, 3)
        x = MatrixTuple.of(*(Matrix.from_rows(FQ, [[rng.randint(-2, 2) for _ in range(n)]
                                                   for _ in range(n)]) for _ in range(d)))
        y = x.conjugated(unimodular(rng, n))
        assert y.maxabs() < 2 ** 53
        yield x, y


@pytest.mark.parametrize("field", [FR, Field.complex128()], ids=["float64", "complex128"])
def test_float_gl_accepts_ill_conditioned_round_trips_in_both_orders(field):
    for x, y in ill_conditioned_round_trips():
        xf, yf = x.astype(field), y.astype(field)
        for a, b in ((xf, yf), (yf, xf)):
            v = gl_similar(a, b)
            assert v.verdict == "similar", (x.n, v.detail)
            assert _verify_intertwiner(v.witness, a, b)


# Every branch of the shared search, pinned verbatim for both deciders: the
# CLI prints these verdict and detail strings, and the benchmark checks read
# the verdicts.
_ZERO = ([1, 2], [3, 4])        # no nonzero intertwiner, starred or not
_SINGULAR = ([1, 0], [1, 1])    # nonzero intertwiners, all singular
_SKEW = None                    # the skew span: every draw singular, no shrunk subspace
_BOUND = "Schwartz-Zippel error bound (3/2000001)^20 = 3.33e-117"
_gl, _orth = gl_similar, orthogonal_witness


@pytest.mark.parametrize("decide, pair, verdict, detail", [
    (_gl, _ZERO, "not_similar", "intertwiner space is zero"),
    (_gl, _SINGULAR, "not_similar",
     "shrunk subspace: dim U = 1 > dim sum_j B_j U = 0, so no intertwiner is invertible "
     "(second Wong sequence, draw 1)"),
    (_gl, _SINGULAR, ShapeError, "the search needs trials >= 1 and sample_bound >= 1"),
    (_orth, _ZERO, "not_equivalent", "star-intertwiner space is zero"),
    (_orth, _SINGULAR, "not_equivalent",
     "shrunk subspace: dim U = 1 > dim sum_j B_j U = 0, so no star-intertwiner is "
     "invertible (second Wong sequence, draw 1)"),
    (_orth, _SINGULAR, ShapeError, "the search needs trials >= 1 and sample_bound >= 1"),
    (_gl, _SKEW, "not_similar_probable",
     "20 Monte Carlo draws found no invertible intertwiner and no shrunk subspace; " + _BOUND),
    (_orth, _SKEW, "not_equivalent_probable",
     "20 Monte Carlo draws found no invertible star-intertwiner and no shrunk subspace; "
     + _BOUND),
], ids=["gl-zero", "gl-shrunk", "gl-bad-draws", "orth-zero", "orth-shrunk", "orth-bad-draws",
        "gl-monte-carlo", "orth-monte-carlo"])
def test_decider_branches(decide, pair, verdict, detail, monkeypatch):
    if pair is _SKEW:
        monkeypatch.setattr(intertwiner, "intertwiner_basis",
                            lambda x, y, with_star: skew_span(FQ, with_star))
        x = y = MatrixTuple.of(Matrix.identity(FQ, 3))
    else:
        x, y = (MatrixTuple.of(Matrix.diagonal(FQ, v)) for v in pair)
    if verdict is ShapeError:
        for params in ({"trials": 0}, {"sample_bound": 0}):
            with pytest.raises(ShapeError, match=detail):
                decide(x, y, **params)
        return
    v = decide(x, y)
    assert (v.verdict, v.detail) == (verdict, detail)
    if v.detail.startswith("shrunk"):
        basis, u = wong_certificate(x, y, with_star=decide is _orth)
        assert shrinks(basis, u)
