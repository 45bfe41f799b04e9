import functools
import itertools
import random
from fractions import Fraction

import numpy as np

import pytest

from conftest import rand_float_tuple, rand_invertible_int, rand_rational_tuple
from tracesim import (BudgetExceededError, Field, LetterIndexError, Letter, Matrix,
                      MatrixTuple, ShapeError, StarMode, Word, canonicalize, enumerate_canonical,
                      eval_word, fingerprint, fingerprints_equal, trace)
from tracesim.words import _eval_traces_float, _min_rotation

FQ = Field.rational()
FR = Field.real64()


def w(text):
    return Word.parse(text)


# -- canonicalization -----------------------------------------------------------

def orbit(word: Word):
    """Oracle: the full rotation + star-reversal orbit, built directly."""
    out = set()
    for variant in (word, word.star_reverse()):
        for r in range(variant.degree):
            out.add(variant.rotate(r))
    return out


def test_canonical_examples():
    assert canonicalize(w("x1*")) == w("x1")
    assert canonicalize(w("x1* x1")) == w("x1 x1*")
    assert canonicalize(w("x2 x1")) == w("x1 x2")


def test_canonicalize_is_orbit_minimum():
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randint(1, 7)
        word = Word(tuple(rng.randrange(6) for _ in range(k)))
        expected = min(orbit(word))
        assert canonicalize(word) == expected
        assert canonicalize(expected) == expected  # idempotent


def test_word_parse_and_str_round_trip():
    word = w("x1 x2* x1")
    assert str(word) == "x1 x2* x1"
    assert Word.parse(str(word)) == word
    with pytest.raises(ShapeError):
        Word.parse("y1")
    with pytest.raises(ShapeError):
        Word.parse("")


def test_letter_encoding_orders_unstarred_first():
    assert Letter(1, False).code < Letter(1, True).code < Letter(2, False).code


# -- enumeration -----------------------------------------------------------------

def test_enumerate_examples():
    assert enumerate_canonical(1, 2, True) == [w("x1"), w("x1 x1"), w("x1 x1*")]
    assert enumerate_canonical(1, 1, False) == [w("x1")]
    assert enumerate_canonical(2, 1, True) == [w("x1"), w("x2")]


def brute_canonical_set(d, degree, include_star):
    alphabet = list(range(2 * d)) if include_star else [2 * i for i in range(d)]
    reps = set()
    for k in range(1, degree + 1):
        for codes in itertools.product(alphabet, repeat=k):
            reps.add(min(orbit(Word(codes))))
    return sorted(reps)


@pytest.mark.parametrize("d,degree,include_star", [
    (1, 6, True), (1, 6, False), (2, 6, True), (2, 6, False),
    (1, 12, True),  # necklaces of composite lengths 4, 6, 8, 9, 10, 12
    (3, 4, True), (3, 5, False), (2, 7, True),
])
def test_enumeration_matches_bruteforce_dedup(d, degree, include_star):
    assert enumerate_canonical(d, degree, include_star) == \
        brute_canonical_set(d, degree, include_star)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        enumerate_canonical(3, 10, True, budget=1000)


def test_enumeration_budget_counts_raw_words():
    assert len(enumerate_canonical(2, 5, True, budget=4 ** 5)) > 0
    with pytest.raises(BudgetExceededError):
        enumerate_canonical(2, 5, True, budget=4 ** 5 - 1)


def test_pure_words_stay_pure():
    for word in enumerate_canonical(2, 5, include_star=False):
        assert all(not l.starred for l in word.letters)


# -- evaluation --------------------------------------------------------------------

def test_eval_examples():
    x1 = Matrix.from_rows(FQ, [[0, 1], [0, 0]])
    x = MatrixTuple.of(x1)
    assert eval_word(w("x1"), x) == x1
    assert eval_word(w("x1 x1*"), x) == Matrix.from_rows(FQ, [[1, 0], [0, 0]])
    e12 = Matrix.unit(FQ, 2, 0, 1)
    e21 = Matrix.unit(FQ, 2, 1, 0)
    assert eval_word(w("x1 x2"), MatrixTuple.of(e12, e21)) == Matrix.unit(FQ, 2, 0, 0)


def test_eval_rejects_out_of_range_letters():
    x = MatrixTuple.of(Matrix.identity(FQ, 2))
    with pytest.raises(LetterIndexError):
        eval_word(w("x2"), x)


def test_cyclic_and_star_reversal_trace_invariance_exact():
    rng = random.Random(1)
    for _ in range(150):
        n, d = rng.randint(1, 3), rng.randint(1, 2)
        x = rand_rational_tuple(rng, n, d, -3, 3)
        k = rng.randint(1, 5)
        word = Word(tuple(rng.randrange(2 * d) for _ in range(k)))
        t = trace(eval_word(word, x))
        for r in range(k):
            assert trace(eval_word(word.rotate(r), x)) == t
        assert trace(eval_word(word.star_reverse(), x)) == t


def test_star_reversal_conjugates_complex_traces():
    # with the conjugate-transpose star, the star-reversed word's trace is
    # the complex conjugate of the original
    fc = Field.complex128()
    rng = random.Random(11)
    for _ in range(40):
        n, d = rng.randint(1, 3), rng.randint(1, 2)
        mats = [Matrix.from_rows(fc, [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                       for _ in range(n)] for _ in range(n)])
                for _ in range(d)]
        x = MatrixTuple.of(*mats)
        k = rng.randint(1, 4)
        word = Word(tuple(rng.randrange(2 * d) for _ in range(k)))
        t = trace(eval_word(word, x))
        t_rev = trace(eval_word(word.star_reverse(), x))
        assert abs(t_rev - t.conjugate()) <= 1e-10 * max(1.0, x.maxabs()) ** k


def test_degree_one_complex_traces_keep_imaginary_part():
    fc = Field.complex128()
    x = MatrixTuple.of(Matrix.from_rows(fc, [[1j, 0], [0, 0]]))
    y = MatrixTuple.of(Matrix.from_rows(fc, [[-1j, 0], [0, 0]]))
    fx = fingerprint(x, 1)
    fy = fingerprint(y, 1)
    assert fx[w("x1")] == 1j and fy[w("x1")] == -1j
    equal, diff = fingerprints_equal(fx, fy)
    assert not equal and diff.word == w("x1")


def test_hermitian_sum_of_abs_squares():
    fc = Field.complex128()
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(1, 3)
        m = Matrix.from_rows(fc, [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                   for _ in range(n)] for _ in range(n)])
        t = trace(m.star() * m)
        expected = sum(abs(e) ** 2 for e in m.entries)
        assert abs(t - expected) <= 1e-12 * max(1.0, expected)


def test_cyclic_trace_invariance_float():
    rng = random.Random(2)
    for _ in range(60):
        n, d = rng.randint(2, 4), rng.randint(1, 2)
        x = rand_float_tuple(rng, n, d)
        k = rng.randint(1, 6)
        word = Word(tuple(rng.randrange(2 * d) for _ in range(k)))
        t = trace(eval_word(word, x))
        scale = max(1.0, x.maxabs()) ** k
        for r in range(k):
            assert abs(trace(eval_word(word.rotate(r), x)) - t) <= 1e-10 * scale
        assert abs(trace(eval_word(word.star_reverse(), x)) - t) <= 1e-10 * scale


def _complex_tuple(rng, n, d, star_mode):
    field = Field.complex128(star_mode)
    return MatrixTuple.of(*(Matrix.from_rows(field, [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                                      for _ in range(n)] for _ in range(n)])
                            for _ in range(d)))


@pytest.mark.parametrize("kind", ["float64", "complex-transpose", "complex-conjugate"])
@pytest.mark.parametrize("n,d,degree", [(3, 1, 10), (2, 2, 6), (3, 3, 5)])
def test_float_traces_match_a_naive_product_bit_for_bit(kind, n, d, degree):
    rng = random.Random("%s:%d:%d:%d" % (kind, n, d, degree))
    if kind == "float64":
        x = rand_float_tuple(rng, n, d)
    else:
        x = _complex_tuple(rng, n, d, StarMode.TRANSPOSE if kind == "complex-transpose"
                           else StarMode.CONJUGATE_TRANSPOSE)
    letters = {}
    for i, m in enumerate(x.matrices):
        letters[2 * i], letters[2 * i + 1] = m.to_numpy(), m.star().to_numpy()
    words = enumerate_canonical(d, degree, True)
    words.append(words[len(words) // 2])  # a duplicate gets its own value back
    rng.shuffle(words)
    values = _eval_traces_float(words, x, [m.to_numpy() for m in x.matrices])
    caster = complex if x.field.is_complex else float
    for word, value in zip(words, values):
        naive = np.trace(functools.reduce(np.matmul, [letters[c] for c in word.codes]))
        assert value == caster(naive), word


@pytest.mark.parametrize("n", range(2, 7))
def test_float64_fingerprint_is_eval_word_trace_by_repr(n):
    """Every float product is numpy's ``@``, the one the fingerprint's
    evaluation takes too, so for float64 each fingerprint value is the trace
    of ``eval_word``'s matrix to the last bit."""
    rng = random.Random("fingerprint-eval:%d" % n)
    for d in range(1, 4):
        x = rand_float_tuple(rng, n, d)
        fp = fingerprint(x, 4, include_star=True)
        assert len(fp.entries) > 2 * d
        for word, value in fp.items():
            assert repr(value) == repr(eval_word(word, x).trace()), (d, word)


# -- fingerprints ---------------------------------------------------------------------

def test_fingerprint_example_diag():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    fp = fingerprint(x, 2, include_star=True)
    assert fp[w("x1")] == 5
    assert fp[w("x1 x1")] == 9
    assert fp[w("x1 x1*")] == 9
    assert fp.words() == [w("x1"), w("x1 x1"), w("x1 x1*")]


def test_fingerprint_zero_tuple():
    x = MatrixTuple.of(Matrix.zeros(FQ, 3, 3))
    fp = fingerprint(x, 3)
    assert all(v == 0 for _, v in fp.items())


def test_rational_fingerprint_never_goes_through_float():
    big = Fraction(10 ** 3000 + 1, 3)  # beyond float range
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[big, 0], [1, -big]]))
    fp = fingerprint(x, 2)
    assert fp.norm == 0.0
    assert fp[w("x1")] == 0
    assert fp[w("x1 x1")] == 2 * big * big
    assert fingerprints_equal(fp, fp) == (True, None)


def test_fingerprint_sum_of_squares_values():
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    fx = fingerprint(x, 2)
    fy = fingerprint(y, 2)
    assert fx[w("x1 x1*")] == 2
    assert fy[w("x1 x1*")] == 1
    equal, diff = fingerprints_equal(fx, fy)
    assert not equal and diff.word == w("x1 x1*") and (diff.value_a, diff.value_b) == (2, 1)


def test_pure_fingerprints_of_nilpotents_agree_at_high_degree():
    x = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1) + Matrix.unit(FQ, 4, 2, 3))
    y = MatrixTuple.of(Matrix.unit(FQ, 4, 0, 1))
    fx = fingerprint(x, 16, include_star=False)
    fy = fingerprint(y, 16, include_star=False)
    equal, _ = fingerprints_equal(fx, fy)
    assert equal


def test_fingerprint_diff_reports_order_first_word():
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    equal, diff = fingerprints_equal(fingerprint(x, 1), fingerprint(y, 1))
    assert not equal
    assert diff.word == w("x1") and diff.value_a == 5 and diff.value_b == 4


def test_fingerprint_shape_mismatch_rejected():
    x = MatrixTuple.of(Matrix.identity(FQ, 2))
    with pytest.raises(ShapeError):
        fingerprints_equal(fingerprint(x, 1), fingerprint(x, 2))


def test_fingerprint_value_independent_of_representative():
    rng = random.Random(3)
    x = rand_rational_tuple(rng, 3, 2)
    fp = fingerprint(x, 3)
    for _ in range(40):
        k = rng.randint(1, 3)
        word = Word(tuple(rng.randrange(4) for _ in range(k)))
        rep = canonicalize(word)
        assert fp[rep] == trace(eval_word(rep, x))
        assert trace(eval_word(word, x)) == fp[rep]


def test_fingerprint_is_a_similarity_invariant():
    rng = random.Random(4)
    for _ in range(10):
        x = rand_rational_tuple(rng, 3, 2, -2, 2)
        p = rand_invertible_int(rng, FQ, 3, -2, 2)
        y = x.conjugated(p)
        fx = fingerprint(x, 3, include_star=False)
        fy = fingerprint(y, 3, include_star=False)
        equal, _ = fingerprints_equal(fx, fy)
        assert equal


def test_fingerprint_orthogonal_invariance_with_star():
    from conftest import givens_orthogonal
    rng = random.Random(5)
    for _ in range(8):
        x = rand_float_tuple(rng, 3, 2)
        o = givens_orthogonal(rng, 3)
        y = x.star_conjugated(o)
        fx = fingerprint(x, 3, include_star=True)
        fy = fingerprint(y, 3, include_star=True)
        equal, diff = fingerprints_equal(fx, fy)
        assert equal, diff


# -- orbit minimum ---------------------------------------------------------------

def brute_min_rotation(codes):
    k = len(codes)
    variants = [tuple(codes)]
    variants.append(tuple(c ^ 1 for c in reversed(codes)))
    return min(v[r:] + v[:r] for v in variants for r in range(k))


def test_min_rotation_against_bruteforce():
    rng = random.Random(3)
    for _ in range(400):
        k = rng.randint(1, 8)
        codes = tuple(rng.randrange(6) for _ in range(k))
        assert _min_rotation(codes) == brute_min_rotation(codes)


def test_min_rotation_exhaustive_small():
    for k in range(1, 5):
        for codes in itertools.product(range(4), repeat=k):
            assert _min_rotation(codes) == brute_min_rotation(codes)
