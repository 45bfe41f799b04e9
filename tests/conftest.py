import math
import random
from fractions import Fraction

import numpy as np

from tracesim import Field, Matrix, MatrixTuple


def rand_int_matrix(rng: random.Random, field: Field, n: int, lo=-4, hi=4) -> Matrix:
    return Matrix.from_rows(field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rand_invertible_int(rng: random.Random, field: Field, n: int, lo=-4, hi=4) -> Matrix:
    while True:
        m = rand_int_matrix(rng, field, n, lo, hi)
        if m.det() != 0:
            return m


def rand_rational_tuple(rng: random.Random, n: int, d: int, lo=-4, hi=4) -> MatrixTuple:
    field = Field.rational()
    return MatrixTuple.of(*(rand_int_matrix(rng, field, n, lo, hi) for _ in range(d)))


def rand_float_matrix(rng: random.Random, n: int) -> Matrix:
    field = Field.real64()
    return Matrix.from_rows(field, [[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])


def rand_float_tuple(rng: random.Random, n: int, d: int) -> MatrixTuple:
    return MatrixTuple.of(*(rand_float_matrix(rng, n) for _ in range(d)))


def rand_complex_tuple(rng: random.Random, field: Field, n: int, d: int) -> MatrixTuple:
    return MatrixTuple.of(*(Matrix.from_rows(field, [[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                                      for _ in range(n)] for _ in range(n)])
                            for _ in range(d)))


def cayley_orthogonal(rng: random.Random, field: Field, n: int) -> Matrix:
    """Complex orthogonal O = (I - K)^{-1} (I + K), O O^t = I, from a random
    complex skew-symmetric K; not unitary, so only the plain transpose fixes it."""
    k = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            k[i, j] = complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
            k[j, i] = -k[i, j]
    eye = np.eye(n)
    return Matrix.from_numpy(field, np.linalg.solve(eye - k, eye + k))


def givens_orthogonal(rng: random.Random, n: int) -> Matrix:
    """Product of random Givens rotations; an exactly orthogonal float matrix."""
    o = np.eye(n)
    for _ in range(max(1, n * (n - 1))):
        p, q = rng.sample(range(n), 2)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        g = np.eye(n)
        g[p, p] = g[q, q] = math.cos(theta)
        g[p, q] = -math.sin(theta)
        g[q, p] = math.sin(theta)
        o = o @ g
    return Matrix.from_numpy(Field.real64(), o)


def pythagorean_rotation(a: int, b: int) -> Matrix:
    """Exact rational orthogonal 2x2 from a Pythagorean pair (a,b)."""
    c = Fraction(a * a - b * b, a * a + b * b)
    s = Fraction(2 * a * b, a * a + b * b)
    return Matrix.from_rows(Field.rational(), [[c, s], [-s, c]])
