"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from certificate import shrinks
from conftest import givens_orthogonal, pythagorean_rotation, rand_invertible_int
from tracesim import (Field, Matrix, MatrixTuple, StarMode, UnitSystem, Word,
                      char_poly_from_traces, check_epsilon, coeff_product, commutant,
                      enumerate_canonical, eval_word, fingerprint, fingerprints_equal,
                      gl_similar, load_corpus, orthogonal_witness, specht_equivalent,
                      specht_property_check, theta_embedding, trace)
from tracesim.intertwiner import (DEFAULT_SAMPLE_BOUND, DEFAULT_TRIALS, _decide_span,
                                  intertwiner_basis)

FQ = Field.rational()
FR = Field.real64()


@contextmanager
def criterion(number, description, limit_seconds):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL - %s" % (number, description))
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_seconds, \
        "criterion %d exceeded its %.0fs budget (%.2fs)" % (number, limit_seconds, elapsed)
    print("ACCEPTANCE %d: PASS - %s (%.2fs)" % (number, description, elapsed))


def corpus_by_name():
    return {fx.name: fx for fx in load_corpus()}


def search_certificate(x, y, with_star):
    """(basis, P, U) of the intertwiner search."""
    basis = intertwiner_basis(x, y, with_star)
    p, u, _ = _decide_span(basis, 0, DEFAULT_TRIALS, DEFAULT_SAMPLE_BOUND)
    return basis, p, u


def assert_certified_not_similar(x, y):
    """The search proves the pair not similar, and its shrunk subspace
    passes the standalone check."""
    basis, p, u = search_certificate(x, y, False)
    assert p is None and shrinks(basis.basis, u)


def test_criterion_1_no_trace_pair():
    with criterion(1, "no-trace pair: degree-1 fingerprints 5 vs 4, not similar", 1.0):
        fx = corpus_by_name()["no-trace"]
        equal, diff = specht_equivalent(fx.x, fx.y, 1)
        assert not equal
        assert str(diff.word) == "x1"
        assert diff.value_a == Fraction(5) and diff.value_b == Fraction(4)
        verdict = gl_similar(fx.x, fx.y)
        assert verdict.verdict == "not_similar"
        assert_certified_not_similar(fx.x, fx.y)


def test_criterion_2_transpose_needed_pair():
    with criterion(2, "transpose-needed pair: pure words blind to D=16, "
                      "starred split 2 vs 1 at D=2, not similar", 5.0):
        fx = corpus_by_name()["needs-transpose"]
        fpx = fingerprint(fx.x, 16, include_star=False)
        fpy = fingerprint(fx.y, 16, include_star=False)
        equal, _ = fingerprints_equal(fpx, fpy)
        assert equal  # exact agreement of every pure word of degree <= 16
        equal, diff = specht_equivalent(fx.x, fx.y, 2)
        assert not equal
        assert str(diff.word) == "x1 x1*"
        assert diff.value_a == Fraction(2) and diff.value_b == Fraction(1)
        verdict = gl_similar(fx.x, fx.y)
        assert verdict.verdict == "not_similar"
        assert_certified_not_similar(fx.x, fx.y)


def test_criterion_3_complex_plain_transpose_failure():
    with criterion(3, "complex transpose pair: all starred words to D=16 agree, "
                      "ranks 1 vs 2, not similar", 60.0):
        fx = corpus_by_name()["complex-transpose"]
        assert fx.x.field.star_mode is StarMode.TRANSPOSE
        words = enumerate_canonical(1, 16, include_star=True, budget=10 ** 7)
        assert len(words) > 2000  # exhaustive canonical set, not a sample
        equal, diff = specht_equivalent(fx.x, fx.y, 16, budget=10 ** 7)
        assert equal, diff
        assert fx.x[0].rank() == 1 and fx.y[0].rank() == 2
        verdict = gl_similar(fx.x, fx.y)
        assert verdict.verdict == "not_similar"
        report = specht_property_check(fx.x, fx.y, 16)
        assert report.fingerprints_equal is True
        assert not report.verdict.is_equivalent
        assert not report.consistent  # the documented trace-word blind spot


def test_criterion_4_orthogonal_round_trips():
    with criterion(4, "100 float orthogonal round trips, residuals at 1e-8", 30.0):
        rng = random.Random(2024)
        for trial in range(100):
            n = rng.randint(2, 6)
            d = rng.randint(1, 4)
            x = MatrixTuple.of(*(Matrix.from_rows(
                FR, [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
                for _ in range(d)))
            o0 = givens_orthogonal(rng, n)
            y = x.star_conjugated(o0)
            res = orthogonal_witness(x, y, seed=trial)
            assert res.verdict == "equivalent", (trial, res.verdict, res.detail)
            scale = max(1.0, x.maxabs())
            assert res.witness.residual_orth <= 1e-8
            assert res.witness.residual_conj <= 1e-8 * scale
            # independent recomputation of the residuals
            o = res.witness.o
            eye = Matrix.identity(FR, n)
            assert (o * o.star() - eye).maxabs() <= 1e-8
            for xi, yi in zip(x, y):
                assert (o * xi * o.star() - yi).maxabs() <= 1e-8 * scale


def test_criterion_5_gl_round_trips_exact():
    with criterion(5, "100 exact GL round trips over the rationals", 60.0):
        rng = random.Random(77)
        for trial in range(100):
            n = rng.randint(2, 5)
            d = rng.randint(1, 3)
            x = MatrixTuple.of(*(Matrix.from_rows(
                FQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                for _ in range(d)))
            p0 = rand_invertible_int(rng, FQ, n, -3, 3)
            y = x.conjugated(p0)
            verdict = gl_similar(x, y, seed=trial)
            assert verdict.verdict == "similar", (trial, verdict.detail)
            p = verdict.witness
            assert p.det() != 0
            for xi, yi in zip(x, y):
                assert p * xi == yi * p  # exact identity, no tolerance


def test_criterion_6_specht_sufficiency_desk_scale():
    with criterion(6, "200 symmetric 2x2 pairs: fingerprints at D=4 match "
                      "star-intertwiner existence exactly", 60.0):
        rng = random.Random(5)
        rotations = [pythagorean_rotation(2, 1), pythagorean_rotation(3, 2),
                     pythagorean_rotation(4, 1), pythagorean_rotation(5, 2)]
        flip = Matrix.from_rows(FQ, [[0, 1], [1, 0]])
        sign = Matrix.from_rows(FQ, [[1, 0], [0, -1]])

        def random_symmetric():
            a, b, c = (rng.randint(-4, 4) for _ in range(3))
            return Matrix.from_rows(FQ, [[a, b], [b, c]])

        for case in range(200):
            x_mat = random_symmetric()
            style = case % 4
            if style == 0:
                o = rotations[case % len(rotations)]
                y_mat = o * x_mat * o.star()
            elif style == 1:
                o = flip if case % 8 < 4 else sign
                y_mat = o * x_mat * o.star()
            elif style == 2:
                y_mat = random_symmetric()
            else:
                # same trace, generically different second invariant
                y_mat = Matrix.from_rows(FQ, [[x_mat.at(0, 0), rng.randint(-4, 4)],
                                              [0, x_mat.at(1, 1)]])
                y_mat = y_mat + y_mat.star() - Matrix.diagonal(
                    FQ, [x_mat.at(0, 0), x_mat.at(1, 1)])
            x = MatrixTuple.of(x_mat)
            y = MatrixTuple.of(y_mat)
            fp_equal, _ = fingerprints_equal(fingerprint(x, 4), fingerprint(y, 4))
            basis, p, u = search_certificate(x, y, True)
            assert p is not None or shrinks(basis.basis, u)  # certified either way
            witness_exists = p is not None
            assert fp_equal == witness_exists, \
                (case, x_mat.entries, y_mat.entries, fp_equal, witness_exists)


def charpoly_cofactor(m: Matrix):
    """Oracle: cofactor expansion of det(tI - A) over polynomial entries."""
    n = m.rows

    def pmul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        out = [Fraction(0)] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, x in enumerate(b):
            out[i] += x
        return out

    def pneg(a):
        return [-x for x in a]

    entries = [[[Fraction(-m.at(i, j))] if i != j else [Fraction(-m.at(i, j)), Fraction(1)]
                for j in range(n)] for i in range(n)]

    def pdet(rows):
        k = len(rows)
        if k == 1:
            return rows[0][0]
        acc = [Fraction(0)]
        for j in range(k):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = pmul(rows[0][j], pdet(minor))
            acc = padd(acc, term if j % 2 == 0 else pneg(term))
        return acc

    coeffs = pdet(entries)
    while len(coeffs) < n + 1:
        coeffs.append(Fraction(0))
    return tuple(coeffs)


def test_criterion_7_sylvester_criterion_equivalence():
    with criterion(7, "50 exact pairs: trace criterion == flattened-system rank; "
                      "Newton char poly == cofactor char poly", 60.0):
        from tracesim import sylvester_unique
        rng = random.Random(13)
        zero = FQ.zero()
        for case in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            a = Matrix.from_rows(FQ, [[rng.randint(-2, 2) for _ in range(n)]
                                      for _ in range(n)])
            b = Matrix.from_rows(FQ, [[rng.randint(-2, 2) for _ in range(m)]
                                      for _ in range(m)])
            assert char_poly_from_traces(a).coeffs == charpoly_cofactor(a)
            assert char_poly_from_traces(b).coeffs == charpoly_cofactor(b)
            rows = []
            for i in range(n):
                for j in range(m):
                    row = [zero] * (n * m)
                    for r in range(n):
                        row[r * m + j] += a.at(i, r)
                    for s in range(m):
                        row[i * m + s] -= b.at(s, j)
                    rows.append(row)
            system = Matrix.from_rows(FQ, rows)
            oracle = system.rank() == n * m
            assert sylvester_unique(a, b) == oracle, (case, n, m)


def test_criterion_8_word_machinery():
    with criterion(8, "canonical enumeration == brute force (d<=2, D<=6); "
                      "trace invariance on 1000 samples", 60.0):
        def orbit_min(word: Word):
            best = None
            for variant in (word, word.star_reverse()):
                for r in range(variant.degree):
                    rot = variant.rotate(r)
                    if best is None or rot < best:
                        best = rot
            return best

        for d in (1, 2):
            for include_star in (True, False):
                alphabet = list(range(2 * d)) if include_star else [2 * i for i in range(d)]
                reps = set()
                for k in range(1, 7):
                    for codes in itertools.product(alphabet, repeat=k):
                        reps.add(orbit_min(Word(codes)))
                assert enumerate_canonical(d, 6, include_star) == sorted(reps)

        rng = random.Random(99)
        for sample in range(1000):
            exact = sample % 2 == 0
            n = rng.randint(1, 3)
            d = rng.randint(1, 2)
            if exact:
                x = MatrixTuple.of(*(Matrix.from_rows(
                    FQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                    for _ in range(d)))
            else:
                x = MatrixTuple.of(*(Matrix.from_rows(
                    FR, [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
                    for _ in range(d)))
            k = rng.randint(1, 4)
            word = Word(tuple(rng.randrange(2 * d) for _ in range(k)))
            t = trace(eval_word(word, x))
            rotated = trace(eval_word(word.rotate(rng.randrange(k)), x))
            reversed_star = trace(eval_word(word.star_reverse(), x))
            if exact:
                assert rotated == t and reversed_star == t
            else:
                assert abs(rotated - t) <= 1e-10
                assert abs(reversed_star - t) <= 1e-10


def test_criterion_9_matrix_units_exact():
    with criterion(9, "50 conjugated unit systems: relations, independence, "
                      "scalar commutant, multiplicative embedding - all exact", 60.0):
        rng = random.Random(21)
        for case in range(50):
            n = rng.randint(2, 4)
            p = rand_invertible_int(rng, FQ, n, -3, 3)
            system = UnitSystem.conjugated(FQ, n, p)
            ok, violation = check_epsilon(system.units)
            assert ok, (case, str(violation))
            stacked = Matrix.from_rows(FQ, [list(m.entries) for m in system.flat()])
            assert stacked.rank() == n * n
            basis = commutant(system.flat())
            assert len(basis) == 1
            lam = basis[0].at(0, 0)
            assert lam != 0 and basis[0] == Matrix.identity(FQ, n).scale(lam)
        system = UnitSystem.conjugated(FQ, 3, rand_invertible_int(rng, FQ, 3, -3, 3))
        eye = Matrix.identity(FQ, 3)
        for _ in range(20):
            ca = [[eye.scale(Fraction(rng.randint(-3, 3))) for _ in range(3)]
                  for _ in range(3)]
            cb = [[eye.scale(Fraction(rng.randint(-3, 3))) for _ in range(3)]
                  for _ in range(3)]
            lhs = theta_embedding(system, ca) * theta_embedding(system, cb)
            rhs = theta_embedding(system, coeff_product(ca, cb))
            assert lhs == rhs
