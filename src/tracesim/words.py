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
trace.  Equal fingerprints are necessary for similarity (for orthogonal
similarity, with the star alphabet) and, for the star alphabet at D = n^2
over the right fields, sufficient.  The deciders do not consult them;
``specht_equivalent`` compares them as an invariant in its own right.

Canonical words are generated directly as necklaces (``_necklaces``), so
the work scales with the number of orbits, about a^D / D for an alphabet
of a letters, not with the a^D raw words.

Both evaluators share one walk (``_prefix_walk``): words are visited in
lexicographic order so each reuses the product of the prefix it shares
with the previous word, and only the trace of the prefix times the last
letter is taken.  Rational fingerprints are computed in Python ints: the
stored integers are brought to one denominator L of the tuple,
tr w(X) = tr w(L X) / L^deg(w), and the last letter is folded into the
trace in O(n^2).  Float kinds multiply numpy arrays left to right,
((X_a X_b) X_c) .., as a word-by-word product would, so every value is the
same to the last bit; they compare values with a tolerance relative to
n * max(1, s)^deg(w), s the largest Frobenius norm among the tuples'
matrices.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import BudgetExceededError, KindMismatchError, LetterIndexError, ShapeError
from .fields import Field, Kind, StarMode
from .matrices import Matrix, MatrixTuple, _int_matrices

DEFAULT_BUDGET = 10_000_000
TRACE_TOL = 1e-8  # float traces agree within this times n * max(1, s)^deg(w)


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


def _necklaces(k: int, a: int):
    """Necklaces of length k over {0..a-1}, the least rotations of their
    classes, in lexicographic order.  The FKM loop visits the prenecklaces
    in increasing order; a prenecklace is a necklace iff the Lyndon word it
    repeats has a length p dividing k."""
    w = [-1]
    while w:
        w[-1] += 1
        p = len(w)
        while len(w) < k:
            w.append(w[len(w) - p])
        if k % p == 0:
            yield tuple(w)
        while w and w[-1] == a - 1:
            w.pop()


@functools.lru_cache(maxsize=128)
def _enumerate_cached(d: int, max_degree: int, include_star: bool, budget: int) -> tuple:
    """Canonical words in (degree, codes) order, generated as the
    necklaces of each degree by the FKM algorithm (Fredricksen, Kessler and
    Maiorana 1978; Ruskey, Savage and Wang 1992), about a^k / k of them
    where there are a^k raw words.  A necklace is least among its own
    rotations; a starred one is canonical iff no rotation of its
    star-reversal is smaller.  A pure necklace always is: its star-reversal
    has only starred letters, each above the least letter of the word.
    The budget still counts the a^D raw words."""
    alphabet = _alphabet(d, include_star)
    a = len(alphabet)
    if a > 1 and a ** max_degree > budget:
        raise BudgetExceededError(
            "enumeration budget exceeded: %d^%d raw words > %d" % (a, max_degree, budget))
    out = []
    for k in range(1, max_degree + 1):
        for neck in _necklaces(k, a):
            codes = tuple(alphabet[i] for i in neck)
            if not include_star or _min_rotation(codes) == codes:
                out.append(Word(codes))
    return tuple(out)


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
    # largest Frobenius norm among the tuple's matrices; 0.0 for the exact
    # kind, whose values compare exactly and which never goes through float
    norm: float

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
    if x.field.kind is Kind.RATIONAL:  # never through float: entries may be beyond its range
        values, norm = _eval_traces_exact(words, x), 0.0
    else:
        arrays = [m.to_numpy() for m in x.matrices]
        values = _eval_traces_float(words, x, arrays)
        norm = max(float(np.linalg.norm(arr)) for arr in arrays)
    return Fingerprint(x.d, max_degree, include_star, x.field,
                       dict(zip(words, values)), x.n, norm)


def _prefix_walk(words: list, letters: dict, times):
    """Yields (position, P, last code) for every word, P the product of all
    its letters but the last (None for a degree-1 word).

    Words are visited in lexicographic order of their codes, and the
    running products of the prefix shared with the previous word are kept:
    a product starts from ``letters[c]`` and ``times(P, c)`` extends it."""
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
            stack.append(times(stack[-1], c) if stack else letters[c])
        prefix = head
        yield k, (stack[-1] if stack else None), codes[-1]


def _eval_traces_exact(words: list, x: MatrixTuple) -> list:
    """Exact traces in Python ints: tr w(X) = tr w(L X) / L^deg(w).

    L is the common denominator of the tuple's stored integers.  The last
    letter is folded straight into the trace of the ``_prefix_walk`` product.
    """
    n = x.n
    int_mats, denom = _int_matrices(x.matrices)
    mats, cols = {}, {}
    for i, rows in enumerate(int_mats):
        t = [list(c) for c in zip(*rows)]
        mats[2 * i], mats[2 * i + 1] = rows, t  # the exact star is the transpose
        cols[2 * i], cols[2 * i + 1] = t, rows

    def times(p, c):
        return [[sum(map(mul, row, col)) for col in cols[c]] for row in p]

    out = [None] * len(words)
    for k, p, c in _prefix_walk(words, mats, times):
        last = cols[c]
        if p is None:
            tr = sum(last[i][i] for i in range(n))
        else:
            tr = sum(sum(map(mul, row, col)) for row, col in zip(p, last))
        out[k] = Fraction(tr, denom ** words[k].degree)
    return out


def _eval_traces_float(words: list, x: MatrixTuple, arrays: list) -> list:
    """Float traces tr(P @ X_c) of the ``_prefix_walk`` products, from the
    tuple's numpy ``arrays``.  Each star is a C-contiguous copy, as a
    converted ``Matrix.star`` would be, so every product takes the same
    kernel path and every value is the one a word-by-word product gives."""
    conjugate = x.field.star_mode is StarMode.CONJUGATE_TRANSPOSE
    mats = {}
    for i, arr in enumerate(arrays):
        mats[2 * i] = arr
        mats[2 * i + 1] = np.ascontiguousarray((arr.conj() if conjugate else arr).T)
    caster = complex if x.field.is_complex else float
    out = [None] * len(words)
    for k, p, c in _prefix_walk(words, mats, lambda p, c: p @ mats[c]):
        out[k] = caster(np.trace(mats[c] if p is None else p @ mats[c]))
    return out


def fingerprints_equal(a: Fingerprint, b: Fingerprint):
    """(equal, first difference in canonical order or None).

    Exact comparison for rational fingerprints.  Float kinds compare word w
    with |va - vb| <= TRACE_TOL * n * max(1, s)^deg(w), s the larger of the two
    fingerprints' norms: a trace of a degree-k word is bounded by
    n * s^k, so the tolerance is relative to the size the value can reach.
    """
    if (a.d, a.degree_bound, a.include_star) != (b.d, b.degree_bound, b.include_star):
        raise ShapeError("fingerprint shape mismatch")
    if a.field.kind != b.field.kind:
        raise KindMismatchError("fingerprints live in different kinds")
    exact = a.field.is_exact
    scale = max(1.0, a.norm, b.norm)
    bound = [TRACE_TOL * a.n]  # TRACE_TOL * n * scale^k; products overflow to inf, not raise
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
