import math
import random

import numpy as np
import pytest

from conftest import (cayley_orthogonal, givens_orthogonal, pythagorean_rotation,
                      rand_complex_tuple, rand_float_tuple)
from tracesim import (Field, Matrix, MatrixTuple, StarMode, WitnessConstructionError,
                      gl_similar, intertwiner_basis, orthogonal_witness, specht_equivalent,
                      specht_property_check)
from tracesim import orthogonal
from tracesim.intertwiner import DEFAULT_SAMPLE_BOUND, _decide_span

FQ = Field.rational()
FR = Field.real64()
FC = Field.complex128()
FCT = Field.complex128(StarMode.TRANSPOSE)


# -- public names ------------------------------------------------------------------

def test_every_exported_name_resolves():
    import tracesim
    missing = [name for name in tracesim.__all__ if not hasattr(tracesim, name)]
    assert missing == []


# -- specht_equivalent ---------------------------------------------------------------

def test_specht_equivalent_reflexive():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]))
    equal, diff = specht_equivalent(x, x)
    assert equal and diff is None


def test_specht_equivalent_separates_no_trace_pair():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    equal, diff = specht_equivalent(x, y, 1)
    assert not equal
    assert str(diff.word) == "x1" and (diff.value_a, diff.value_b) == (5, 4)


def complex_transpose_pair():
    n1 = Matrix.from_rows(FCT, [[1, 1j, 0, 0], [1j, -1, 0, 0],
                                [0, 0, 0, 0], [0, 0, 0, 0]])
    n2 = Matrix.from_rows(FCT, [[0, 1, 0, -1j], [1, 0, -1j, 0],
                                [0, -1j, 0, -1], [-1j, 0, -1, 0]])
    return MatrixTuple.of(n1), MatrixTuple.of(n2)


def test_complex_transpose_pair_fools_plain_transpose_words():
    x, y = complex_transpose_pair()
    # both are symmetric square-zero nilpotents of different rank
    assert (x[0] * x[0]).maxabs() == 0.0
    assert (y[0] * y[0]).maxabs() == 0.0
    assert (x[0].transpose() - x[0]).maxabs() == 0.0
    assert (y[0].transpose() - y[0]).maxabs() == 0.0
    assert x[0].rank() == 1 and y[0].rank() == 2
    equal, _ = specht_equivalent(x, y, 16)
    assert equal


# -- orthogonal_witness ----------------------------------------------------------------

def test_witness_identity_pair():
    x = MatrixTuple.of(Matrix.identity(FR, 2))
    res = orthogonal_witness(x, x)
    assert res.verdict == "equivalent"
    assert res.witness.residual_orth < 1e-10


def test_witness_rotation_conjugate_pair():
    # Y = O X O^t with the 45-degree rotation O = [[c,s],[-s,c]]
    x = MatrixTuple.of(Matrix.diagonal(FR, [1, 2]))
    c = s = math.sqrt(0.5)
    o = Matrix.from_rows(FR, [[c, s], [-s, c]])
    y = x.star_conjugated(o)
    assert (y[0] - Matrix.from_rows(FR, [[1.5, 0.5], [0.5, 1.5]])).maxabs() < 1e-12
    res = orthogonal_witness(x, y)
    assert res.verdict == "equivalent"
    assert res.witness.residual_orth <= 1e-10
    assert res.witness.residual_conj <= 1e-10


def test_matching_low_degree_words_but_empty_star_space():
    # same trace and same sum of squares, disjoint spectra: the degree-2
    # words agree and the (empty) intertwiner space decides
    x = MatrixTuple.of(Matrix.diagonal(FQ, [0, 3, 3]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 4]))
    equal, _ = specht_equivalent(x, y, 2)
    assert equal
    res = orthogonal_witness(x, y)
    assert res.verdict == "not_equivalent"
    assert "zero" in res.detail
    equal3, diff = specht_equivalent(x, y, 3)
    assert not equal3 and str(diff.word) == "x1 x1 x1"


def test_witness_rejects_sum_of_squares_gap():
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    equal, diff = specht_equivalent(x, y, 2)
    assert not equal and str(diff.word) == "x1 x1*"
    res = orthogonal_witness(x, y)
    assert (res.verdict, res.detail) == (
        "not_equivalent", "shrunk subspace: dim U = 4 > dim sum_j B_j U = 2, so no "
        "star-intertwiner is invertible (second Wong sequence, draw 1)")


def test_float_round_trips_small():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 5)
        d = rng.randint(1, 3)
        x = rand_float_tuple(rng, n, d)
        o = givens_orthogonal(rng, n)
        y = x.star_conjugated(o)
        res = orthogonal_witness(x, y, seed=4)
        assert res.verdict == "equivalent"
        assert res.witness.residual_orth <= 1e-8
        assert res.witness.residual_conj <= 1e-8 * max(1.0, x.maxabs())


def test_exact_witness_via_rational_rotation():
    rng = random.Random(4)
    o0 = pythagorean_rotation(2, 1)  # [[3/5,4/5],[-4/5,3/5]]
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[1, 2], [2, 5]]),
                       Matrix.from_rows(FQ, [[0, 1], [-1, 0]]))
    y = x.star_conjugated(o0)
    res = orthogonal_witness(x, y)
    assert res.verdict == "equivalent"
    o = res.witness.o
    assert o * o.star() == Matrix.identity(FQ, 2)
    for xi, yi in zip(x, y):
        assert o * xi * o.star() == yi
    assert res.witness.residual_orth == 0.0 and res.witness.residual_conj == 0.0


def test_exact_witness_unavailable_falls_back_to_float():
    # X = Y = diag(1,2): the star-intertwiner space is the diagonal matrices;
    # a generic draw has P star(P) non-scalar.
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]))
    res = orthogonal_witness(x, x, seed=0)
    assert res.verdict in ("equivalent", "exact_witness_unavailable")
    if res.verdict == "exact_witness_unavailable":
        w = res.witness
        assert w.o.field.kind.value == "float64"
        assert w.residual_orth <= 1e-8 and w.residual_conj <= 1e-8 * 2
        assert res.intertwiner is not None and res.intertwiner.det() != 0


def test_exact_witness_unavailable_when_the_scalar_is_no_square():
    # X = Y = J, the quarter turn: the star-intertwiners are a I + b J, so
    # P star(P) = (a^2 + b^2) I is scalar, and a draw with a^2 + b^2 not a
    # rational square falls back to float64
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[0, 1], [-1, 0]]))
    res = orthogonal_witness(x, x, seed=0)
    assert res.verdict == "exact_witness_unavailable"
    p = res.intertwiner
    lam = orthogonal._scalar_of(p * p.star())
    assert lam is not None and math.isqrt(lam.numerator) ** 2 != lam.numerator
    assert orthogonal._rational_sqrt(lam) is None
    assert res.witness.residual_orth <= 1e-8 and res.witness.residual_conj <= 1e-8


def test_witness_necessity_of_fingerprints():
    rng = random.Random(5)
    for _ in range(5):
        x = rand_float_tuple(rng, 3, 2)
        o = givens_orthogonal(rng, 3)
        y = x.star_conjugated(o)
        res = orthogonal_witness(x, y)
        assert res.is_equivalent
        for degree in (1, 2, 3, 4):
            equal, diff = specht_equivalent(x, y, degree)
            assert equal, (degree, diff)


def test_complex_unitary_round_trip():
    rng = random.Random(6)
    n = 3
    a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                  for _ in range(n)])
    q, _ = np.linalg.qr(a)
    x = MatrixTuple.of(Matrix.from_numpy(FC, np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)])))
    u = Matrix.from_numpy(FC, q)
    y = x.star_conjugated(u)
    res = orthogonal_witness(x, y, seed=7)
    assert res.verdict == "equivalent"
    assert res.witness.residual_orth <= 1e-8
    assert res.witness.residual_conj <= 1e-8 * max(1.0, x.maxabs())


# -- complex orthogonal round trips (plain transpose) ----------------------------------

@pytest.mark.parametrize("d", range(1, 4))
@pytest.mark.parametrize("n", range(2, 7))
def test_complex_orthogonal_round_trips(n, d):
    # Y = O X O^t with O complex orthogonal but not unitary: G = P P^t is
    # complex symmetric, not Hermitian, and the witness needs its primary root
    rng = random.Random(100 * n + d)
    eye = Matrix.identity(FCT, n)
    for _ in range(20):
        x = rand_complex_tuple(rng, FCT, n, d)
        o = cayley_orthogonal(rng, FCT, n)
        on = o.to_numpy()
        assert (o * o.star() - eye).maxabs() < 1e-10
        assert np.max(np.abs(on @ on.conj().T - np.eye(n))) > 1e-3
        y = x.star_conjugated(o)
        assert gl_similar(x, y).verdict == "similar"
        res = orthogonal_witness(x, y)
        assert res.verdict == "equivalent"
        assert res.witness.residual_orth <= 1e-8
        assert res.witness.residual_conj <= 1e-8 * max(1.0, x.maxabs(), y.maxabs())


# -- the inverse square root ------------------------------------------------------------

def test_negative_spectrum_takes_a_rotated_root():
    # P = diag(i, 1) star-intertwines diag(1, 2) with itself, and
    # G = P P^t = diag(-1, 1): the unrotated iteration breaks down on -1
    x = MatrixTuple.of(Matrix.diagonal(FCT, [1, 2]))
    p = Matrix.from_rows(FCT, [[1j, 0], [0, 1]])
    w = orthogonal._construct_float_witness(p, x, x)
    assert w.residual_orth <= 1e-12 and w.residual_conj <= 1e-12
    g = np.diag([-1.0 + 0j, 1.0])
    hinv = orthogonal._inverse_root(g)
    assert np.max(np.abs(hinv @ hinv @ g - np.eye(2))) < 1e-12


def test_inverse_root_of_a_non_diagonalizable_matrix():
    # N is complex symmetric with N^2 = 0, so (I + N)^{-1/2} = I - N/2
    nil = np.array([[1, 1j], [1j, -1]])
    hinv = orthogonal._inverse_root(np.eye(2) + nil)
    assert np.max(np.abs(hinv - (np.eye(2) - nil / 2))) < 1e-12


def test_inverse_root_of_positive_definite_is_the_positive_one():
    hinv = orthogonal._inverse_root(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert hinv.dtype == np.float64
    # eigenvalue 3 on (1, 1) and 1 on (1, -1)
    a, b = 1 / math.sqrt(3), 1.0
    assert np.max(np.abs(hinv - np.array([[a + b, a - b], [a - b, a + b]]) / 2)) < 1e-12
    rng = random.Random(9)
    a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                  for _ in range(4)])
    g = a @ a.conj().T + np.eye(4)
    hinv = orthogonal._inverse_root(g)
    assert np.max(np.abs(hinv - hinv.conj().T)) < 1e-12
    assert np.max(np.abs(hinv @ g @ hinv - np.eye(4))) < 1e-12
    assert min(np.linalg.eigvalsh(hinv)) > 0


@pytest.mark.parametrize("field, digits", [(FR, 8), (FC, 8), (FCT, 5)])
def test_ill_conditioned_intertwiner_still_gives_a_witness(field, digits):
    # X = Y = I: every P star-intertwines.  Here G = P star(P) has condition
    # number 10^digits (times that of the complex orthogonal factor), so the
    # stopping test must hold on its smallest eigenvalue, not against max |G|
    rng = random.Random(10)
    left = cayley_orthogonal(rng, field, 4) if field is FCT else givens_orthogonal(rng, 4)
    right = givens_orthogonal(rng, 4).to_numpy()
    p = left.to_numpy() @ np.diag(np.logspace(0, -digits / 2, 4)) @ right
    x = MatrixTuple.of(Matrix.identity(field, 4))
    w = orthogonal._construct_float_witness(Matrix.from_numpy(field, p), x, x)
    assert w.residual_orth <= 1e-8


def test_inverse_root_of_an_indefinite_real_matrix_is_none():
    # no real root of -2 exists, and a real G is never rotated
    assert orthogonal._inverse_root(np.diag([1.0, -2.0])) is None


@pytest.mark.parametrize("field, rows", [(FR, [[1, 0], [0, 0]]),
                                         (FCT, [[1, 1j], [0, 0]])])
def test_singular_intertwiner_fails_at_every_angle(field, rows):
    # both give a singular G (the second G = P P^t is zero)
    x = MatrixTuple.of(Matrix.diagonal(field, [1, 2]))
    with pytest.raises(WitnessConstructionError, match="numerically singular"):
        orthogonal._construct_float_witness(Matrix.from_rows(field, rows), x, x)


# -- witness retries ------------------------------------------------------------------

def count_retries(monkeypatch):
    """The seeds of the retry path's _decide_span calls (the search in
    _search goes through the intertwiner module and is not counted)."""
    calls = []

    def counted(basis, seed, trials, sample_bound):
        calls.append(seed)
        return _decide_span(basis, seed, trials, sample_bound)
    monkeypatch.setattr(orthogonal, "_decide_span", counted)
    return calls


def eager_witness(p, basis, xf, yf, seed, exact_p=False):
    """Every retry candidate built up front, then tried in order."""
    candidates = [p.astype(xf.field) if exact_p else p]
    for attempt in range(1, 4):
        alt, _, _ = _decide_span(basis, seed + attempt, 5, DEFAULT_SAMPLE_BOUND)
        if alt is not None:
            candidates.append(alt.astype(xf.field) if exact_p else alt)
    for cand in candidates:
        try:
            return orthogonal._construct_float_witness(cand, xf, yf)
        except WitnessConstructionError:
            pass
    raise AssertionError("no candidate gave a witness")


def test_witness_retries_not_drawn_when_first_candidate_succeeds(monkeypatch):
    calls = count_retries(monkeypatch)
    rng = random.Random(11)
    x = rand_float_tuple(rng, 3, 2)
    res = orthogonal_witness(x, x.star_conjugated(givens_orthogonal(rng, 3)), seed=2)
    assert res.verdict == "equivalent"
    assert calls == []


def test_witness_retry_matches_eager_candidates(monkeypatch):
    calls = count_retries(monkeypatch)
    rng = random.Random(12)
    x = rand_float_tuple(rng, 3, 2)
    y = x.star_conjugated(givens_orthogonal(rng, 3))
    basis = intertwiner_basis(x, y, with_star=True)
    zero = Matrix.zeros(FR, 3, 3)  # fails as "zero intertwiner"
    got = orthogonal._float_witness_with_retries(zero, basis, x, y, 5, DEFAULT_SAMPLE_BOUND)
    assert calls == [6]
    assert got == eager_witness(zero, basis, x, y, 5)
    # exact P: a singular diagonal intertwiner of diag(1, 2), retried in float64
    xq = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]))
    basis = intertwiner_basis(xq, xq, with_star=True)
    xf = xq.astype(FR)
    del calls[:]
    got = orthogonal._float_witness_with_retries(basis.basis[0], basis, xf, xf, 0,
                                                 DEFAULT_SAMPLE_BOUND)
    assert calls == [1]
    assert got == eager_witness(basis.basis[0], basis, xf, xf, 0, exact_p=True)


def test_retry_rescues_an_ill_conditioned_first_candidate(monkeypatch):
    """X = A + A and Y = B + B, block diagonal, with Y = O X O^t for a complex
    orthogonal O of dyadic entries, so every entry is exact.  The
    star-intertwiner space has dimension 4.  Seed 5972's first invertible
    draw has cond P near 4e6 and its witness misses the residual bound; the
    first retry, at seed 5973, gives a witness."""
    calls = count_retries(monkeypatch)
    a, b = [[1, 2], [3, 1 + 1j]], [[1 - 5.25j, 5.75], [6.75, 1 + 6.25j]]
    x, y = (MatrixTuple.of(Matrix.from_rows(FCT, [r + [0, 0] for r in m] + [[0, 0] + r for r in m]))
            for m in (a, b))
    assert intertwiner_basis(x, y, with_star=True).dim == 4
    res = orthogonal_witness(x, y, seed=5972)
    assert res.verdict == "equivalent" and calls == [5973]
    assert np.linalg.cond(res.intertwiner.to_numpy()) > 1e6
    with pytest.raises(WitnessConstructionError, match="residuals too large"):
        orthogonal._construct_float_witness(res.intertwiner, x, y)
    assert res.witness.residual_orth <= 1e-14 and res.witness.residual_conj <= 1e-13


def test_witness_residuals_keep_nan():
    nan = math.nan
    eye = Matrix.identity(FR, 2)
    zero = MatrixTuple.of(Matrix.zeros(FR, 2, 2), Matrix.zeros(FR, 2, 2))
    # O star(O) - I = [[0, nan], [nan, nan]]: NaN after a finite first entry
    r_orth, _ = orthogonal._witness_residuals(Matrix(FR, 2, 2, (1.0, 0.0, 0.0, nan)),
                                              zero, zero)
    assert math.isnan(r_orth)
    # the NaN residual comes from the second matrix, after a finite one
    y = MatrixTuple.of(Matrix.zeros(FR, 2, 2), Matrix(FR, 2, 2, (0.0, nan, 0.0, 0.0)))
    assert orthogonal._witness_residuals(eye, zero, zero) == (0.0, 0.0)
    assert math.isnan(orthogonal._witness_residuals(eye, zero, y)[1])


@pytest.mark.parametrize("residuals", [(math.nan, 0.0), (0.0, math.nan)])
def test_float_witness_rejects_nan_residuals(monkeypatch, residuals):
    x = MatrixTuple.of(Matrix.diagonal(FR, [1.0, 2.0]))
    eye = Matrix.identity(FR, 2)
    assert orthogonal._construct_float_witness(eye, x, x).residual_orth == 0.0
    monkeypatch.setattr(orthogonal, "_witness_residuals", lambda o, x, y: residuals)
    with pytest.raises(WitnessConstructionError, match="residuals too large"):
        orthogonal._construct_float_witness(eye, x, x)


# -- specht_property_check ----------------------------------------------------------------

def test_report_round_trip_pair_consistent():
    rng = random.Random(7)
    x = rand_float_tuple(rng, 2, 2)
    o = givens_orthogonal(rng, 2)
    y = x.star_conjugated(o)
    rep = specht_property_check(x, y, 2)
    assert rep.fingerprints_equal is True
    assert rep.verdict.is_equivalent
    assert rep.consistent


def test_report_no_trace_pair_consistent():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    rep = specht_property_check(x, y, 1)
    assert rep.fingerprints_equal is False
    assert not rep.verdict.is_equivalent
    assert rep.consistent  # unequal fingerprints + no witness is the expected shape


def test_report_flags_complex_transpose_failure():
    x, y = complex_transpose_pair()
    rep = specht_property_check(x, y, 16)
    assert rep.fingerprints_equal is True
    assert not rep.verdict.is_equivalent
    assert not rep.consistent
    assert "separate" in rep.note


def test_report_marks_budget_skip():
    rng = random.Random(8)
    x = rand_float_tuple(rng, 3, 2)
    rep = specht_property_check(x, x, 9, budget=100)
    assert rep.fingerprints_equal is None
    assert "skipped (budget)" in rep.note
    assert rep.verdict.is_equivalent
