"""Cross-module consistency: the decision procedures must respect the
implication lattice

    orthogonally equivalent  =>  GL similar  =>  pure fingerprints equal
    orthogonally equivalent  =>  starred fingerprints equal

on a zoo of constructed-positive, constructed-negative and random pairs,
with every verdict certified: no probable negative may appear.
"""

import random
from fractions import Fraction

from conftest import pythagorean_rotation, rand_invertible_int, rand_rational_tuple
from tracesim import (Field, Matrix, MatrixTuple, fingerprint, fingerprints_equal,
                      gl_similar, orthogonal_witness)

FQ = Field.rational()


def block_rotation_3(a, b):
    r = pythagorean_rotation(a, b)
    rows = [[r.at(0, 0), r.at(0, 1), 0],
            [r.at(1, 0), r.at(1, 1), 0],
            [0, 0, 1]]
    return Matrix.from_rows(FQ, rows)


def permutation_3(perm):
    rows = [[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)]
    return Matrix.from_rows(FQ, rows)


def make_pair(rng, case):
    n = 3
    x = rand_rational_tuple(rng, n, 2, -2, 2)
    style = case % 4
    if style == 0:
        o = block_rotation_3(2, 1) * permutation_3([1, 2, 0])
        return x, x.star_conjugated(o)
    if style == 1:
        p = rand_invertible_int(rng, FQ, n, -2, 2)
        return x, x.conjugated(p)
    if style == 2:
        return x, rand_rational_tuple(rng, n, 2, -2, 2)
    y = MatrixTuple.of(*(m.star() for m in x.matrices))  # transposed tuple
    return x, y


def test_verdict_lattice_on_mixed_pairs():
    rng = random.Random(0)
    seen_orth = seen_gl_only = seen_neither = 0
    for case in range(40):
        x, y = make_pair(rng, case)
        orth = orthogonal_witness(x, y, seed=case)
        gl = gl_similar(x, y, seed=case)
        assert orth.verdict != "not_equivalent_probable"
        assert gl.verdict != "not_similar_probable"
        if orth.is_equivalent:
            seen_orth += 1
            assert gl.is_similar
            eq, diff = fingerprints_equal(fingerprint(x, 3), fingerprint(y, 3))
            assert eq, diff
        if gl.is_similar:
            eq, diff = fingerprints_equal(fingerprint(x, 3, include_star=False),
                                          fingerprint(y, 3, include_star=False))
            assert eq, diff
            if not orth.is_equivalent:
                seen_gl_only += 1
        else:
            seen_neither += 1
    # the zoo must actually exercise all three layers
    assert seen_orth >= 5 and seen_gl_only >= 5 and seen_neither >= 5


def test_verdicts_are_symmetric():
    rng = random.Random(1)
    for case in range(12):
        x, y = make_pair(rng, case)
        assert gl_similar(x, y).verdict == gl_similar(y, x).verdict
        assert (orthogonal_witness(x, y).is_equivalent
                == orthogonal_witness(y, x).is_equivalent)


def test_transposed_tuple_is_orthogonally_detectable_when_symmetric():
    # a tuple of symmetric matrices equals its own transpose tuple
    a = Matrix.from_rows(FQ, [[1, 2], [2, 5]])
    x = MatrixTuple.of(a)
    y = MatrixTuple.of(a.star())
    res = orthogonal_witness(x, y)
    assert res.is_equivalent
