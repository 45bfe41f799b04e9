import math
import random

import numpy as np
import pytest

from conftest import givens_orthogonal, pythagorean_rotation, rand_float_tuple
from tracesim import (Field, IndefiniteMatrixError, KindMismatchError, Matrix,
                      MatrixTuple, NonSymmetricError, StarMode, WitnessConstructionError,
                      intertwiner_basis, jacobi_eig, orthogonal_witness, specht_equivalent,
                      specht_property_check, sqrt_spd)
from tracesim import orthogonal
from tracesim.intertwiner import DEFAULT_SAMPLE_BOUND, find_invertible

FQ = Field.rational()
FR = Field.real64()
FC = Field.complex128()
FCT = Field.complex128(StarMode.TRANSPOSE)


# -- jacobi ------------------------------------------------------------------------

def test_jacobi_identity():
    v, lam = jacobi_eig(Matrix.identity(FR, 3))
    assert lam == [1.0, 1.0, 1.0]
    assert (v - Matrix.identity(FR, 3)).maxabs() == 0.0


def test_jacobi_2x2_known_eigensystem():
    s = Matrix.from_rows(FR, [[2, 1], [1, 2]])
    v, lam = jacobi_eig(s)
    assert sorted(round(x, 10) for x in lam) == [1.0, 3.0]
    vn = v.to_numpy()
    for col, ev in zip(vn.T, lam):
        assert np.max(np.abs(s.to_numpy() @ col - ev * col)) < 1e-10
    # eigenvector of 1 is proportional to (1,-1), of 3 to (1,1)
    for col, ev in zip(vn.T, lam):
        target = np.array([1.0, -1.0]) if round(ev) == 1 else np.array([1.0, 1.0])
        cosang = abs(col @ target) / (np.linalg.norm(col) * np.linalg.norm(target))
        assert cosang > 1 - 1e-12


def test_jacobi_diagonal_is_immediate():
    v, lam = jacobi_eig(Matrix.diagonal(FR, [4, 9]))
    assert sorted(lam) == [4.0, 9.0]


def test_jacobi_diagonalizes_random_symmetric():
    rng = random.Random(0)
    for n in (2, 3, 5):
        a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        s = Matrix.from_numpy(FR, (a + a.T) / 2)
        v, lam = jacobi_eig(s)
        vn = v.to_numpy()
        assert np.max(np.abs(vn @ vn.T - np.eye(n))) < 1e-10
        d = vn.T @ s.to_numpy() @ vn
        assert np.max(np.abs(d - np.diag(lam))) < 1e-9


def test_jacobi_hermitian_complex():
    rng = random.Random(1)
    n = 4
    a = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                  for _ in range(n)])
    s = Matrix.from_numpy(FC, (a + a.conj().T) / 2)
    v, lam = jacobi_eig(s)
    vn = v.to_numpy()
    assert np.max(np.abs(vn @ vn.conj().T - np.eye(n))) < 1e-10
    d = vn.conj().T @ s.to_numpy() @ vn
    assert np.max(np.abs(d - np.diag(lam))) < 1e-9


def test_jacobi_rejects_non_symmetric_and_exact_kind():
    with pytest.raises(NonSymmetricError):
        jacobi_eig(Matrix.from_rows(FR, [[0, 1], [0, 0]]))
    with pytest.raises(KindMismatchError):
        jacobi_eig(Matrix.identity(FQ, 2))


def test_jacobi_reports_non_convergence():
    from tracesim import ConvergenceError
    s = Matrix.from_rows(FR, [[2, 1], [1, 2]])
    with pytest.raises(ConvergenceError):
        jacobi_eig(s, max_sweeps=0)


# -- sqrt_spd ---------------------------------------------------------------------

def test_sqrt_examples():
    assert (sqrt_spd(Matrix.identity(FR, 3)) - Matrix.identity(FR, 3)).maxabs() < 1e-12
    h = sqrt_spd(Matrix.diagonal(FR, [4, 9]))
    assert (h - Matrix.diagonal(FR, [2, 3])).maxabs() < 1e-12
    s = Matrix.from_rows(FR, [[2, 1], [1, 2]])
    assert (sqrt_spd(s) * sqrt_spd(s) - s).maxabs() < 1e-12


def test_sqrt_rejects_indefinite_and_singular():
    with pytest.raises(IndefiniteMatrixError):
        sqrt_spd(Matrix.diagonal(FR, [1, -1]))
    with pytest.raises(IndefiniteMatrixError):
        sqrt_spd(Matrix.diagonal(FR, [1, 0]))


def test_sqrt_reconstruction_random_spd():
    rng = random.Random(2)
    for n in (2, 4, 6):
        a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        spd = a @ a.T + n * np.eye(n)
        s = Matrix.from_numpy(FR, spd)
        h = sqrt_spd(s)
        err = (h * h - s).maxabs()
        assert err <= 1e-10 * np.linalg.norm(spd)


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
    # filter passes and the decision falls to the (empty) intertwiner space
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
    res = orthogonal_witness(x, y)
    assert res.verdict == "not_equivalent"
    assert "x1 x1*" in res.detail


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


def test_witness_necessity_of_fingerprints():
    rng = random.Random(5)
    for _ in range(5):
        x = rand_float_tuple(rng, 3, 2)
        o = givens_orthogonal(rng, 3)
        y = x.star_conjugated(o)
        res = orthogonal_witness(x, y)
        assert res.is_equivalent
        for degree in (1, 2, 3, 4):
            equal, diff = specht_equivalent(
                x, y, degree, tol=1e-7 * max(1.0, x.maxabs()) ** degree * 9)
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


# -- witness retries ------------------------------------------------------------------

def count_find_invertible(monkeypatch):
    """Count the retry path's find_invertible calls (the search in _search
    goes through the intertwiner module and is not counted)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return find_invertible(*args, **kwargs)
    monkeypatch.setattr(orthogonal, "find_invertible", counted)
    return calls


def eager_witness(p, basis, xf, yf, tol, seed, exact_p=False):
    """Every retry candidate built up front, then tried in order."""
    candidates = [p.astype(xf.field) if exact_p else p]
    for attempt in range(1, 4):
        alt = find_invertible(basis, seed=seed + attempt, trials=5,
                              sample_bound=DEFAULT_SAMPLE_BOUND)
        if alt is not None:
            candidates.append(alt.astype(xf.field) if exact_p else alt)
    for cand in candidates:
        try:
            return orthogonal._construct_float_witness(cand, xf, yf, 1e-8)
        except WitnessConstructionError:
            pass
    raise AssertionError("no candidate gave a witness")


def test_witness_retries_not_drawn_when_first_candidate_succeeds(monkeypatch):
    calls = count_find_invertible(monkeypatch)
    rng = random.Random(11)
    x = rand_float_tuple(rng, 3, 2)
    res = orthogonal_witness(x, x.star_conjugated(givens_orthogonal(rng, 3)), seed=2)
    assert res.verdict == "equivalent"
    assert calls == []


def test_witness_retry_matches_eager_candidates(monkeypatch):
    calls = count_find_invertible(monkeypatch)
    rng = random.Random(12)
    x = rand_float_tuple(rng, 3, 2)
    y = x.star_conjugated(givens_orthogonal(rng, 3))
    basis = intertwiner_basis(x, y, with_star=True)
    zero = Matrix.zeros(FR, 3, 3)  # fails as "zero intertwiner"
    got = orthogonal._float_witness_with_retries(zero, basis, x, y, 1e-8, 5,
                                                 DEFAULT_SAMPLE_BOUND)
    assert calls == [6]
    assert got == eager_witness(zero, basis, x, y, 1e-8, 5)
    # exact P: a singular diagonal intertwiner of diag(1, 2), retried in float64
    xq = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2]))
    basis = intertwiner_basis(xq, xq, with_star=True)
    xf = xq.astype(FR)
    del calls[:]
    got = orthogonal._float_witness_with_retries(basis.basis[0], basis, xf, xf, 1e-8, 0,
                                                 DEFAULT_SAMPLE_BOUND)
    assert calls == [1]
    assert got == eager_witness(basis.basis[0], basis, xf, xf, 1e-8, 0, exact_p=True)


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
    assert orthogonal._construct_float_witness(eye, x, x, 1e-8).residual_orth == 0.0
    monkeypatch.setattr(orthogonal, "_witness_residuals", lambda o, x, y: residuals)
    with pytest.raises(WitnessConstructionError, match="residuals too large"):
        orthogonal._construct_float_witness(eye, x, x, 1e-8)


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
