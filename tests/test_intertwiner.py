import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_invertible_int, rand_rational_tuple
from tracesim import (BudgetExceededError, Field, IntertwinerBasis, Matrix, MatrixTuple,
                      ShapeError, find_invertible, gl_similar, intertwiner_basis,
                      orthogonal_witness)
from tracesim.intertwiner import _simplex, _verify_intertwiner
from tracesim.matrices import _det_int

FQ = Field.rational()
FR = Field.real64()


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
    assert find_invertible(b, trials=0) is None  # proof via the simplex
    verdict = gl_similar(x, y, mode="deterministic", filters=False)
    assert verdict.verdict == "not_similar"


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


def test_scalar_tuple_space_is_at_least_n():
    x = MatrixTuple.of(Matrix.identity(FQ, 3).scale(5))
    b = intertwiner_basis(x, x, with_star=False)
    assert b.dim >= 3


# -- find_invertible ---------------------------------------------------------------

def test_full_matrix_space_contains_identity():
    basis = tuple(Matrix.unit(FQ, 2, i, j) for i in range(2) for j in range(2))
    b = IntertwinerBasis(2, False, FQ, basis)
    p = find_invertible(b, trials=0)
    assert p is not None and p.det() != 0


def test_nilpotent_line_is_proven_singular():
    b = IntertwinerBasis(2, False, FQ, (Matrix.unit(FQ, 2, 0, 1),))
    assert find_invertible(b, trials=0) is None
    assert find_invertible(b, seed=1, trials=10) is None


def test_diagonal_span_monte_carlo_finds_witness():
    basis = (Matrix.diagonal(FQ, [1, 0]), Matrix.diagonal(FQ, [0, 1]))
    b = IntertwinerBasis(2, False, FQ, basis)
    p = find_invertible(b, seed=0, trials=20)
    assert p is not None and p.det() != 0


def test_deterministic_grid_budget_guard():
    basis = tuple(Matrix.unit(FQ, 4, i, j) for i in range(4) for j in range(4))
    b = IntertwinerBasis(4, False, FQ, basis)
    with pytest.raises(BudgetExceededError, match=r"C\(4\+16-1, 4\) = 3876 points > 100"):
        find_invertible(b, trials=0, budget=100)


def test_empty_basis_has_no_invertible():
    b = IntertwinerBasis(2, False, FQ, ())
    assert find_invertible(b, trials=0) is None


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_simplex_is_the_sum_n_part_of_the_grid_in_order(n, k):
    grid = [a for a in itertools.product(range(n + 1), repeat=k) if sum(a) == n]
    assert list(_simplex(n, k)) == grid
    assert len(grid) == math.comb(n + k - 1, n)


def grid_has_invertible(b):
    """Reference: some point of the full grid {0..n}^k has nonzero determinant."""
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


def test_simplex_verdict_matches_the_full_grid():
    rng = random.Random(78)
    spans = random_spans(rng, 60) + random_pair_spans(rng, 40)
    singular = 0
    for b in spans:
        found = find_invertible(b, trials=0)
        assert (found is not None) == grid_has_invertible(b)
        if found is None:
            singular += 1
        else:
            assert found.det() != 0
    assert 20 <= singular <= len(spans) - 20


def jordan(sizes):
    """The nilpotent Jordan matrix with blocks of the given sizes."""
    n = sum(sizes)
    ones, start = set(), 0
    for size in sizes:
        ones.update(range(start, start + size - 1))
        start += size
    return MatrixTuple.of(Matrix.from_rows(FQ, [[1 if j == i + 1 and i in ones else 0
                                                 for j in range(n)] for i in range(n)]))


@pytest.mark.parametrize("xs, ys, dim, points", [
    ((3, 1, 1), (2, 2, 1), 11, 3003),
    ((2, 2), (3, 1), 6, 126),
])
def test_jordan_pairs_are_proven_not_similar(xs, ys, dim, points):
    x, y = jordan(xs), jordan(ys)
    assert intertwiner_basis(x, y, with_star=False).dim == dim
    v = gl_similar(x, y, filters=False)
    assert (v.verdict, v.detail) == (
        "not_similar", "determinant vanishes on all %d points of the degree-%d coefficient "
        "simplex" % (points, x.n))


def triangular_span(field):
    """Upper triangular span of dimension 5 in M_3 whose first invertible
    simplex point is the 22nd, (1, 0, 0, 1, 1): det is c1 (c1+..+c5) (2 c1 - c5)."""
    def mat(diagonal, upper):
        m = Matrix.diagonal(FQ, diagonal)
        for i, j in upper:
            m = m + Matrix.unit(FQ, 3, i, j)
        return m.astype(field)
    return IntertwinerBasis(3, False, field, (
        mat([1, 1, 2], []), mat([0, 1, 0], [(0, 1)]), mat([0, 1, 0], [(0, 2)]),
        mat([0, 1, 0], [(1, 2)]), mat([0, 1, -1], [])))


def test_float_batches_find_the_same_point_as_the_exact_walk():
    exact = triangular_span(FQ)
    points = list(_simplex(3, 5))
    first = next(i for i, a in enumerate(points)
                 if exact.combo([Fraction(c) for c in a]).det() != 0)
    assert (first, points[first]) == (21, (1, 0, 0, 1, 1))  # inside the fifth batch
    p = find_invertible(exact, trials=0)
    assert p == exact.combo([Fraction(c) for c in points[first]])
    q = find_invertible(triangular_span(FR), trials=0)
    assert q.entries == tuple(float(e) for e in p.entries)


def test_float_batches_visit_every_simplex_point_once(monkeypatch):
    # every element of this span has a zero first column
    basis = tuple(Matrix.unit(FR, 3, i, j) for i, j in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
    sizes = []
    det = np.linalg.det

    def counting_det(a):
        sizes.append(a.shape[0])
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    assert find_invertible(IntertwinerBasis(3, False, FR, basis), trials=0) is None
    assert sizes == [1, 2, 4, 8, 16, 4]
    assert sum(sizes) == math.comb(3 + 5 - 1, 3)


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


def test_gl_similar_rejects_rank_gap():
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    v = gl_similar(x, y, mode="deterministic")
    assert v.verdict == "not_similar"
    assert "rank" in v.detail


def test_gl_similar_grid_proof_without_filters():
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    v = gl_similar(x, y, mode="deterministic", filters=False)
    assert v.verdict == "not_similar"
    assert "simplex" in v.detail


def test_gl_similar_symmetric_verdicts():
    rng = random.Random(1)
    for _ in range(6):
        x = rand_rational_tuple(rng, 2, 2, -2, 2)
        y = rand_rational_tuple(rng, 2, 2, -2, 2)
        vxy = gl_similar(x, y, mode="deterministic")
        vyx = gl_similar(y, x, mode="deterministic")
        assert vxy.verdict == vyx.verdict


def test_gl_round_trip_with_exact_witness():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        x = rand_rational_tuple(rng, n, d, -3, 3)
        p0 = rand_invertible_int(rng, FQ, n, -3, 3)
        y = x.conjugated(p0)
        v = gl_similar(x, y, mode="monte_carlo", seed=5)
        assert v.verdict == "similar"
        p = v.witness
        assert p.det() != 0
        for xi, yi in zip(x, y):
            assert p * xi == yi * p  # exact


def test_monte_carlo_negative_is_labeled_probable():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    v = gl_similar(x, y, mode="monte_carlo", filters=False)
    assert v.verdict == "not_similar_probable"


def test_float_round_trip():
    rng = random.Random(3)
    for _ in range(5):
        x = MatrixTuple.of(*(Matrix.from_rows(FR, [[rng.gauss(0, 1) for _ in range(3)]
                                                   for _ in range(3)]) for _ in range(2)))
        p_rows = [[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)]
        p0 = Matrix.from_rows(FR, p_rows)
        y = x.conjugated(p0)
        v = gl_similar(x, y, mode="monte_carlo", seed=9)
        assert v.verdict == "similar"
        p = v.witness
        scale = max(1.0, p.maxabs()) * max(1.0, x.maxabs())
        for xi, yi in zip(x, y):
            assert (p * xi - yi * p).maxabs() <= 1e-9 * scale


def test_float_power_trace_gap_survives_huge_norms():
    # scale^11 = 1e330 overflows; the gap becomes inf instead of raising
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
        assert _verify_intertwiner(v.witness, x, y, with_star=False)


def test_verify_intertwiner_rejects_overflowing_residual():
    # P X - X P = [[0, nan], [0, 0]] from finite entries, and the tolerance
    # 1e-10 * 1e200 * 1e200 is infinite, so only the NaN can fail
    p = Matrix.from_rows(FR, [[1e200, 1e200], [0, 1]])
    x = MatrixTuple.of(Matrix.from_rows(FR, [[1, 1e200], [0, -1e200]]))
    assert math.isnan((p * x[0] - x[0] * p).at(0, 1))
    assert not _verify_intertwiner(p, x, x, with_star=False)


# Every branch of the shared search, pinned verbatim for both deciders: the
# CLI and the benchmark checks read these verdict and detail strings.
_ZERO = ([1, 2], [3, 4])        # no nonzero intertwiner, starred or not
_SINGULAR = ([1, 0], [1, 1])    # nonzero intertwiners, all singular; the filters see it


def _gl(x, y, mode, filters):
    return gl_similar(x, y, mode=mode, filters=filters)


def _orth(x, y, mode, filters):
    return orthogonal_witness(x, y, mode=mode, filter_degree=2 if filters else 0)


@pytest.mark.parametrize("decide, pair, mode, verdict, detail", [
    (_gl, _ZERO, "auto", "not_similar", "intertwiner space is zero"),
    (_gl, _SINGULAR, "auto", "not_similar",
     "determinant vanishes on all 3 points of the degree-2 coefficient simplex"),
    (_gl, _SINGULAR, "monte_carlo", "not_similar_probable",
     "20 Monte Carlo trials found no invertible intertwiner"),
    (_gl, _SINGULAR, "bogus", ShapeError, "rank of component 1 differs: 1 vs 2"),
    (_orth, _ZERO, "auto", "not_equivalent", "star-intertwiner space is zero"),
    (_orth, _SINGULAR, "auto", "not_equivalent",
     "determinant vanishes on all 3 points of the degree-2 coefficient simplex"),
    (_orth, _SINGULAR, "monte_carlo", "not_equivalent_probable",
     "20 Monte Carlo trials found no invertible star-intertwiner"),
    (_orth, _SINGULAR, "bogus", ShapeError,
     "trace-word filter: first differing word x1: 1 vs 2"),
], ids=["gl-zero", "gl-grid", "gl-monte-carlo", "gl-bad-mode", "orth-zero", "orth-grid",
        "orth-monte-carlo", "orth-bad-mode"])
def test_decider_branches(decide, pair, mode, verdict, detail):
    x, y = (MatrixTuple.of(Matrix.diagonal(FQ, v)) for v in pair)
    if verdict is ShapeError:
        # the filter settles the pair, yet an unknown mode is refused first
        assert decide(x, y, "auto", filters=True).detail == detail
        with pytest.raises(ShapeError, match="unknown mode 'bogus'"):
            decide(x, y, mode, filters=True)
        return
    v = decide(x, y, mode, filters=False)
    assert (v.verdict, v.detail) == (verdict, detail)
