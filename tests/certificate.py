"""A standalone check of shrunk-subspace certificates, in Fractions.

A certificate is a span basis B_1..B_k and the columns of U.  It proves
that no element of the span is invertible when U has full column rank and
dim sum_j B_j U < dim U: every P = sum c_j B_j maps U into sum_j B_j U.
The check reads the matrices through ``tracesim.matrices`` only and does
its own products and elimination, so it shares no code with the decider.
"""

from fractions import Fraction

from tracesim.matrices import Matrix


def fraction_rank(rows) -> int:
    """Rank of a list of equal-length rows, by Gaussian elimination in Fractions."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def shrinks(basis, u: Matrix) -> bool:
    """True iff the columns of U are independent and dim sum_j B_j U < dim U."""
    n, m = u.rows, u.cols
    cols = [[Fraction(u.at(i, c)) for i in range(n)] for c in range(m)]
    images = [[sum(Fraction(b.at(i, j)) * v[j] for j in range(n)) for i in range(n)]
              for b in basis for v in cols]
    return m > 0 and fraction_rank(cols) == m and fraction_rank(images) < m
