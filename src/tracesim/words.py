"""Trace words: enumeration, canonical forms, evaluation, fingerprints.

A word is a nonempty product of letters ``x_i`` / ``x_i*`` (1-based index,
optional star).  Its trace on a matrix tuple is invariant under cyclic
rotation and, up to complex conjugation, under the star-reversal that maps
``a b c`` to ``c* b* a*``.  Canonicalization therefore takes the minimum of
the combined orbit under a fixed total order: degree first, then
lexicographic on (index, starred) with unstarred before starred.  Letters
are encoded as ``2*(index-1) + starred`` so that tuple comparison *is* the
total order and star-reversal is a reverse plus bit-toggle.

The fingerprint of a tuple maps every canonical word of degree <= D to its
trace; equality of fingerprints is the orbit-separating invariant the
similarity decisions use as a necessary condition (and, for the star
alphabet at D = n^2 over the right fields, a sufficient one).

Rational fingerprints are computed in Python ints: one L clears every
denominator of the tuple, and tr w(X) = tr w(L X) / L^deg(w).  Words are
visited in lexicographic order so each reuses the integer product of the
prefix it shares with the previous word, and the last letter is folded
into the trace in O(n^2).  Float kinds multiply numpy arrays word by word
and compare values with a tolerance relative to n * max(1, s)^deg(w), s
the largest Frobenius norm among the tuples' matrices.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import mul
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError, KindMismatchError, LetterIndexError, ShapeError
from .fields import Field, Kind
from .matrices import Matrix, MatrixTuple, _int_matrices

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Letter:
    index: int  # 1-based
    starred: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise LetterIndexError("letter index must be >= 1")

    @property
    def code(self) -> int:
        return 2 * (self.index - 1) + int(self.starred)

    @staticmethod
    def from_code(code: int) -> "Letter":
        return Letter(code // 2 + 1, bool(code & 1))

    def __str__(self):
        return "x%d%s" % (self.index, "*" if self.starred else "")


_LETTER_RE = re.compile(r"^x(\d+)(\*?)$")


@dataclass(frozen=True, order=True)
class Word:
    codes: tuple = dc_field(compare=False)
    sort_key: tuple = dc_field(init=False, compare=True)  # (degree, codes)

    def __post_init__(self):
        if not self.codes:
            raise ShapeError("words are nonempty")
        object.__setattr__(self, "sort_key", (len(self.codes), self.codes))

    @staticmethod
    def of(*letters) -> "Word":
        return Word(tuple(l.code if isinstance(l, Letter) else Letter(*l).code for l in letters))

    @staticmethod
    def parse(text: str) -> "Word":
        toks = text.split()
        if not toks:
            raise ShapeError("empty word text")
        letters = []
        for tok in toks:
            m = _LETTER_RE.match(tok)
            if not m:
                raise ShapeError("bad letter %r (expected e.g. 'x2' or 'x2*')" % tok)
            letters.append(Letter(int(m.group(1)), m.group(2) == "*"))
        return Word.of(*letters)

    @property
    def degree(self) -> int:
        return len(self.codes)

    @property
    def letters(self) -> tuple:
        return tuple(Letter.from_code(c) for c in self.codes)

    def max_index(self) -> int:
        return max(c // 2 for c in self.codes) + 1

    def rotate(self, k: int) -> "Word":
        k %= self.degree
        return Word(self.codes[k:] + self.codes[:k])

    def star_reverse(self) -> "Word":
        return Word(tuple(c ^ 1 for c in reversed(self.codes)))

    def __str__(self):
        return " ".join(str(l) for l in self.letters)


def _min_rotation(codes) -> tuple:
    """Minimum over all cyclic rotations of ``codes`` and of its star-reversal.

    The star-reversal reverses the sequence and toggles every star bit.
    """
    k = len(codes)
    best = tuple(codes)
    for variant in (best, tuple(codes[i] ^ 1 for i in range(k - 1, -1, -1))):
        for r in range(k):
            rot = variant[r:] + variant[:r]
            if rot < best:
                best = rot
    return best


def canonicalize(w: Word) -> Word:
    """Minimum of the cyclic + star-reversal orbit under the fixed order."""
    return Word(_min_rotation(w.codes))


def _alphabet(d: int, include_star: bool) -> list:
    if include_star:
        return list(range(2 * d))
    return [2 * i for i in range(d)]


@functools.lru_cache(maxsize=128)
def _enumerate_cached(d: int, max_degree: int, include_star: bool, budget: int) -> tuple:
    alphabet = _alphabet(d, include_star)
    a = len(alphabet)
    if a > 1 and a ** max_degree > budget:
        raise BudgetExceededError(
            "enumeration budget exceeded: %d^%d raw words > %d" % (a, max_degree, budget))
    seen = set()
    for k in range(1, max_degree + 1):
        for codes in itertools.product(alphabet, repeat=k):
            seen.add(_min_rotation(codes))
    return tuple(Word(c) for c in sorted(seen, key=lambda c: (len(c), c)))


def enumerate_canonical(d: int, max_degree: int, include_star: bool = True,
                        budget: int = DEFAULT_BUDGET) -> list:
    """Sorted canonical representatives of all words of degree 1..max_degree."""
    if d < 1 or max_degree < 1:
        raise ShapeError("need d >= 1 and max_degree >= 1")
    return list(_enumerate_cached(d, max_degree, include_star, budget))


def eval_word(w: Word, x: MatrixTuple) -> Matrix:
    """Product, in letter order, of X_i (unstarred) and star(X_i) (starred)."""
    if w.max_index() > x.d:
        raise LetterIndexError("word uses x%d but the tuple has d=%d" % (w.max_index(), x.d))
    stars = x.stars()
    acc = None
    for c in w.codes:
        m = stars[c // 2] if c & 1 else x[c // 2]
        acc = m if acc is None else acc * m
    return acc


@dataclass(frozen=True)
class Fingerprint:
    d: int
    degree_bound: int
    include_star: bool
    field: Field
    entries: dict  # canonical Word -> trace value, in canonical order
    n: int
    norm: float  # largest Frobenius norm among the tuple's matrices

    def words(self) -> list:
        return list(self.entries.keys())

    def __getitem__(self, w: Word):
        return self.entries[w]

    def items(self):
        return self.entries.items()


@dataclass(frozen=True)
class FingerprintDiff:
    word: Word
    value_a: object
    value_b: object

    def __str__(self):
        from .fields import value_str
        return "first differing word %s: %s vs %s" % (
            self.word, value_str(self.value_a), value_str(self.value_b))


def fingerprint(x: MatrixTuple, max_degree: int, include_star: bool = True,
                budget: int = DEFAULT_BUDGET) -> Fingerprint:
    """Trace of every canonical word of degree <= max_degree on the tuple."""
    words = enumerate_canonical(x.d, max_degree, include_star, budget)
    if x.field.kind is Kind.RATIONAL:
        values = _eval_traces_exact(words, x)
    else:
        values = _eval_traces_float(words, x)
    norm = max(float(np.linalg.norm(m.to_numpy())) for m in x.matrices)
    return Fingerprint(x.d, max_degree, include_star, x.field,
                       dict(zip(words, values)), x.n, norm)


def _eval_traces_exact(words: Iterable[Word], x: MatrixTuple) -> list:
    """Exact traces in Python ints: tr w(X) = tr w(L X) / L^deg(w).

    L clears every denominator of the tuple once.  Words are visited in
    lexicographic order of their codes so each one reuses the integer
    product of the prefix it shares with the previous word; the last
    letter is folded straight into the trace.
    """
    words = list(words)
    n = x.n
    int_mats, denom = _int_matrices(x.matrices)
    mats, cols = {}, {}
    for i, rows in enumerate(int_mats):
        t = [list(c) for c in zip(*rows)]
        mats[2 * i], mats[2 * i + 1] = rows, t  # the exact star is the transpose
        cols[2 * i], cols[2 * i + 1] = t, rows
    out = [None] * len(words)
    prefix = ()  # codes whose running products sit in ``stack``
    stack = []
    for k in sorted(range(len(words)), key=lambda k: words[k].codes):
        codes = words[k].codes
        head = codes[:-1]
        keep = 0
        while keep < len(prefix) and keep < len(head) and prefix[keep] == head[keep]:
            keep += 1
        del stack[keep:]
        for c in head[keep:]:
            if stack:
                b = cols[c]
                stack.append([[sum(map(mul, row, col)) for col in b] for row in stack[-1]])
            else:
                stack.append(mats[c])
        prefix = head
        last = cols[codes[-1]]
        if stack:
            tr = sum(sum(map(mul, row, col)) for row, col in zip(stack[-1], last))
        else:
            tr = sum(last[i][i] for i in range(n))
        out[k] = Fraction(tr, denom ** len(codes))
    return out


def _eval_traces_float(words: Iterable[Word], x: MatrixTuple) -> list:
    mats = {}
    for i, m in enumerate(x.matrices):
        mats[2 * i] = m.to_numpy()
        mats[2 * i + 1] = m.star().to_numpy()
    caster = complex if x.field.is_complex else float
    out = []
    for w in words:
        acc = mats[w.codes[0]]
        for c in w.codes[1:]:
            acc = acc @ mats[c]
        out.append(caster(np.trace(acc)))
    return out


def fingerprints_equal(a: Fingerprint, b: Fingerprint, tol: float = 1e-8):
    """(equal, first difference in canonical order or None).

    Exact comparison for rational fingerprints.  Float kinds compare word w
    with |va - vb| <= tol * n * max(1, s)^deg(w), s the larger of the two
    fingerprints' norms: a trace of a degree-k word is bounded by
    n * s^k, so the tolerance is relative to the size the value can reach.
    """
    if (a.d, a.degree_bound, a.include_star) != (b.d, b.degree_bound, b.include_star):
        raise ShapeError("fingerprint shape mismatch")
    if a.field.kind != b.field.kind:
        raise KindMismatchError("fingerprints live in different kinds")
    exact = a.field.is_exact
    scale = max(1.0, a.norm, b.norm)
    bound = [tol * a.n]  # bound[k] = tol * n * scale^k; products overflow to inf, not raise
    for _ in range(a.degree_bound):
        bound.append(bound[-1] * scale)
    for w, va in a.entries.items():
        vb = b.entries[w]
        if exact:
            if va != vb:
                return False, FingerprintDiff(w, va, vb)
        elif abs(va - vb) > bound[w.degree]:
            return False, FingerprintDiff(w, va, vb)
    return True, None
