"""Seeded request lists for the three workloads.

``build(workload, seed, seconds)`` returns the blocks of one run; the same
arguments give a byte-identical list (see ``dump``).  Each request holds the
operation, the tuple documents tracesim will parse with ``tuple_from_dict``,
and the truth fixed by construction with the benchmark's own arithmetic.

The mix is stratified: a block holds every category of its workload, and a
fixed schedule, not the seed, rotates the sizes (n, d) through the blocks.
The seed only draws the matrix entries.  So every seed runs the same mix, and
the end-to-end figures of two seeds differ by input values alone.  The
number of blocks is fixed per workload (``LIST_BLOCKS``); a run repeats the
list rather than lengthening it.

Exact (rational) matrices are built from Python ints wherever possible: a
unimodular P keeps P X P^-1 integral, and a rational rotation is an integer
matrix over one common denominator.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import arith as A

KINDS = ("rational", "float64", "complex128")
# Float entries are N(0, SIGMA); the fingerprint tolerance defect of
# ROADMAP 5a was measured at this scale.  Do not shrink it to hide the defect.
SIGMA = 3.0

# Blocks in one list: at most about a second of in-request time per pass on
# a 2-core host, so a run of 40 s has room for thirty passes or more.
LIST_BLOCKS = {"decide": 6, "invariants": 1, "linalg": 8}
# Word enumeration is cached per process; invariants pays it once per pass,
# as a CLI call does.  The other two keep one worker for every pass.
FRESH_WORKER_PER_PASS = {"decide": False, "invariants": True, "linalg": False}

# Fixture name -> (gl_similar, orth_similar), copied from the corpus files.
# complex-transpose is left out: its starred fingerprint at D = 16 costs ~3 s,
# as much as a whole decide pass, and is fingerprint-engine work, which
# decide is the no-change control for.
CORPUS_TRUTH = {
    "no-trace": (False, False),
    "needs-transpose": (False, False),
    "gl-positive": (True, False),
    "orthogonal-positive": (True, True),
}

SIZES = [(n, d) for n in range(2, 7) for d in range(1, 4)]


# -- documents -------------------------------------------------------------------

def _entry(kind, v):
    if kind == "rational":
        return str(v)
    if kind == "float64":
        return float(v.real) if isinstance(v, complex) else float(v)
    v = complex(v)
    return [v.real, v.imag]


def doc(kind, mats):
    """Tuple document in tracesim's file format for a list of square matrices."""
    n = len(mats[0])
    return {"field": kind, "n": n, "d": len(mats),
            "matrices": [[_entry(kind, x) for row in m for x in row] for m in mats]}


def cast(kind, m):
    """Entries as the kind's scalars; rational entries stay ints or Fractions."""
    if kind == "rational":
        return [list(row) for row in m]
    if kind == "float64":
        return [[float(x) for x in row] for row in m]
    return [[complex(x) for x in row] for row in m]


def _cast_all(kind, mats):
    return [cast(kind, m) for m in mats]


def dump(requests) -> bytes:
    return json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()


# -- random building blocks ----------------------------------------------------------

def _is_complex(kind):
    return kind == "complex128"


def rand_mat(rng, kind, n):
    if kind == "rational":
        return A.rand_int(rng, n)
    return A.rand_gauss(rng, n, SIGMA, _is_complex(kind))


def conj_gl(rng, kind, mats):
    """P X P^-1 for one random invertible P of the kind."""
    n = len(mats[0])
    if kind == "rational":
        p, q = A.unimodular(rng, n)
    else:
        p, q = A.float_invertible(rng, n, _is_complex(kind))
    return [A.conjugate_by(p, m, q) for m in mats]


def conj_orth(rng, kind, mats):
    """O X star(O) for one random orthogonal/unitary O of the kind."""
    n = len(mats[0])
    if kind == "rational":
        m, den = A.rational_orthogonal(rng, n)
        mt, d2 = A.star(m), den * den
        return [[[Fraction(v, d2) for v in row] for row in A.conjugate_by(m, x, mt)]
                for x in mats]
    o = A.float_orthogonal(rng, n, _is_complex(kind))
    return [A.conjugate_by(o, x, A.star(o, _is_complex(kind))) for x in mats]


def _bump_trace(mats):
    out = [[list(r) for r in m] for m in mats]
    out[0][0][0] += 1
    return out


def _diagonalizable(rng, n, avoid):
    """Integer matrix with distinct integer eigenvalues outside ``avoid``."""
    vals = rng.sample([v for v in range(-6, 7) if v not in avoid], n)
    diag = [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return conj_gl(rng, "rational", [diag])[0]


def _with_common_block(rng, x0, y0, size):
    """Direct sums X0 + B and Y0 + B with one random integer block tuple B."""
    if size == 0:
        return x0, y0
    common = [A.rand_int(rng, size) for _ in x0]
    return ([A.direct_sum(m, b) for m, b in zip(x0, common)],
            [A.direct_sum(m, b) for m, b in zip(y0, common)])


# -- decide ----------------------------------------------------------------------------

def _gl_pair(rng, kind, n, d, cls):
    x = [rand_mat(rng, kind, n) for _ in range(d)]
    if cls == "pos":
        return x, conj_gl(rng, kind, x), True
    if cls == "filter_neg":
        return x, conj_gl(rng, kind, _bump_trace(x)), False
    # hard negative: equal ranks, power traces and degree-2 words; only the
    # intertwiner grid can tell them apart.
    if d == 1:
        # Jordan block against a scalar, plus a common diagonalizable block
        lam = rng.randint(-2, 2)
        x0, y0 = [[[lam, 1], [0, lam]]], [[[lam, 0], [0, lam]]]
        if n > 2:
            b = _diagonalizable(rng, n - 2, {lam})
            x0, y0 = [A.direct_sum(x0[0], b)], [A.direct_sum(y0[0], b)]
    else:
        # Hom-dimension gap pair of ROADMAP 5c plus a common random block;
        # Krull-Schmidt keeps the sums non-similar.
        x0 = [[[0, 0], [0, 1]], [[0, 1], [0, 1]]]
        y0 = [[[0, 0], [1, 1]], [[0, 0], [0, 1]]]
        if d == 3:
            s = A.identity(2, rng.choice((-2, -1, 1, 2)))
            x0.append(s)
            y0.append(s)
        x0, y0 = _with_common_block(rng, x0, y0, n - 2)
    x0, y0 = _cast_all(kind, x0), _cast_all(kind, y0)
    return conj_gl(rng, kind, x0), conj_gl(rng, kind, y0), False


def _triangular_pair(rng):
    """3x3 upper-triangular T, T' agreeing on starred words of degree <= 2 only."""
    while True:
        a, b, c = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))
        t = [[1, a, b], [0, 2, c], [0, 0, 3]]
        t2 = [[1, c, b], [0, 2, a], [0, 0, 3]]
        if A.word_trace([t], (0, 0, 1)) != A.word_trace([t2], (0, 0, 1)):
            return t, t2


def _orth_pair(rng, kind, n, d, cls):
    if cls in ("pos", "filter_neg"):
        x = [rand_mat(rng, kind, n) for _ in range(d)]
        y = x if cls == "pos" else _bump_trace(x)
        return x, conj_orth(rng, kind, y), cls == "pos"
    # hard negative: equal starred words up to degree 2, a differing
    # degree-3 word (x1 x1 x1*), so the star-intertwiner has to decide.
    n = max(n, 3)
    t, t2 = _triangular_pair(rng)
    x0, y0 = [t], [t2]
    for _ in range(d - 1):
        s = A.identity(3, rng.choice((-2, -1, 1, 2)))
        x0.append(s)
        y0.append(s)
    x0, y0 = _with_common_block(rng, x0, y0, n - 3)
    x0, y0 = _cast_all(kind, x0), _cast_all(kind, y0)
    return conj_orth(rng, kind, x0), conj_orth(rng, kind, y0), False


def _decide_block(rng, b):
    out = []
    k = 0
    for kind in KINDS:
        for op, make in (("gl_similar", _gl_pair), ("orthogonal_witness", _orth_pair)):
            for cls in ("pos", "filter_neg", "hard_neg"):
                n, d = SIZES[(b + 7 * k) % len(SIZES)]
                k += 1
                if op == "gl_similar" and cls == "hard_neg" and d == 1 and n > 4:
                    d = 2  # a d = 1 grid at n >= 5 has (n+1)^n points
                x, y, similar = make(rng, kind, n, d, cls)
                out.append({"op": op, "cat": "%s/%s/%s" % (op, kind, cls),
                            "x": doc(kind, x), "y": doc(kind, y),
                            "truth": {"similar": similar}})
    return out


def _corpus_requests():
    return [{"op": "run_fixture", "cat": "run_fixture/%s" % name, "name": name,
             "truth": {"gl": gl, "orth": orth}}
            for name, (gl, orth) in CORPUS_TRUTH.items()]


# -- invariants -------------------------------------------------------------------------

# (n, d, D, starred alphabet) for explicit-degree fingerprints.
FINGERPRINT_SHAPES = [(2, 2, 6, True), (3, 1, 10, True), (3, 2, 6, False),
                      (2, 3, 5, True), (4, 1, 8, True), (3, 3, 5, False)]
# (n, d) where specht_equivalent at its default D = n^2 stays well under 1 s.
SPECHT_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1)]


def _invariant_pair(rng, kind, n, d, starred, equal):
    """Pairs equal by construction, or unequal with a differing word of degree <= 2."""
    cplx = _is_complex(kind)
    if equal:
        x = [rand_mat(rng, kind, n) for _ in range(d)]
        return x, (conj_orth if starred else conj_gl)(rng, kind, x)
    if not starred:
        x = [rand_mat(rng, kind, n) for _ in range(d)]
        return x, conj_gl(rng, kind, _bump_trace(x))
    # GL-conjugate by a non-orthogonal P: pure words agree, tr(x1 x1*) moves
    # (redrawn in the rare case, such as a scalar x1, where it cannot).
    while True:
        x = [rand_mat(rng, kind, n) for _ in range(d)]
        y = conj_gl(rng, kind, x)
        a, b = A.word_trace(x, (0, 1), cplx), A.word_trace(y, (0, 1), cplx)
        if abs(a - b) > 1e-3 * max(1.0, abs(a)):
            return x, y


# Rational evaluation costs 10-100 times as much as float (Fraction
# arithmetic), so the rational kind has its own three smaller shapes, and
# float and complex take one pair per truth, not two, on the two costliest.
RATIONAL_FINGERPRINT_SHAPES = [(4, 1, 6, True), (3, 2, 6, False), (3, 3, 5, False)]
SINGLE_PAIR_SHAPES = ((2, 2, 6, True), (2, 3, 5, True))


def _invariants_block(rng, b):
    """Every shape in every kind, both truths; one list is one fresh worker.

    The rational kind gets one pair per shape, its truth alternating; float
    and complex get two pairs of each truth, except on the costliest shapes.
    """
    out = []
    fingerprints = [(shape, kind) for shape in FINGERPRINT_SHAPES for kind in KINDS[1:]]
    fingerprints += [(shape, "rational") for shape in RATIONAL_FINGERPRINT_SHAPES]
    for i, ((n, d, deg, starred), kind) in enumerate(fingerprints):
        if kind == "rational":
            truths = ((b + i) % 2 == 0,)
        else:
            truths = (True, False) * (1 if (n, d, deg, starred) in SINGLE_PAIR_SHAPES else 2)
        for equal in truths:
            x, y = _invariant_pair(rng, kind, n, d, starred, equal)
            out.append({"op": "fingerprint", "cat": "fingerprint/%s/%s" % (kind, equal),
                        "x": doc(kind, x), "y": doc(kind, y), "degree": deg,
                        "star": starred, "truth": {"equal": equal}})
    for i, (n, d) in enumerate(SPECHT_SHAPES):
        for kind in KINDS:
            truths = ((b + i) % 2 == 0,) if kind == "rational" else (True, False) * 2
            for equal in truths:
                x, y = _invariant_pair(rng, kind, n, d, True, equal)
                out.append({"op": "specht_equivalent",
                            "cat": "specht/%s/%s" % (kind, equal),
                            "x": doc(kind, x), "y": doc(kind, y), "truth": {"equal": equal}})
    return out


# -- linalg -------------------------------------------------------------------------------

def _spectral(rng, kind, vals):
    """A matrix with the given eigenvalues: P diag(vals) P^-1.

    Float P is plain Gaussian (condition below 1e4), so entries outgrow the
    eigenvalues as they do in practice; at this scale the float resultant
    threshold of ``sylvester_unique`` misjudges some disjoint spectra.
    """
    n = len(vals)
    diag = [[vals[i] if i == j else 0 * vals[0] for j in range(n)] for i in range(n)]
    if kind == "rational":
        return conj_gl(rng, kind, [diag])[0]
    while True:
        p = A.rand_gauss(rng, n, 1.0)
        try:
            q = A.inverse(p)
        except ZeroDivisionError:
            continue
        if A.maxabs(p) * A.maxabs(q) < 1e4:
            return A.conjugate_by(p, cast(kind, diag), q)


def _spectra(rng, kind, n, m, disjoint):
    if kind == "rational":
        vals = rng.sample(range(-6, 7), n + m)
    else:
        vals = [rng.gauss(0, SIGMA) for _ in range(n + m)]
    alpha, beta = vals[:n], vals[n:]
    if not disjoint:
        beta[rng.randrange(m)] = alpha[rng.randrange(n)]
    return alpha, beta


def _unit_family(rng, kind, n_units, m):
    """a_ij = U (E_ij (x) I_m) U^-1 and central coefficients U (I_N (x) M_ij) U^-1."""
    n = n_units * m

    def kron_unit(i, j):
        e = A.zeros(n)
        for t in range(m):
            e[i * m + t][j * m + t] = 1
        return e

    def kron_coeff(mm):
        e = A.zeros(n)
        for blk in range(n_units):
            for s in range(m):
                e[blk * m + s][blk * m:(blk + 1) * m] = mm[s]
        return e

    u, ui = A.unimodular(rng, n)
    units = [A.conjugate_by(u, kron_unit(i, j), ui)
             for i in range(n_units) for j in range(n_units)]
    coeffs = [A.conjugate_by(u, kron_coeff(A.rand_int(rng, m)), ui)
              for _ in range(n_units * n_units)]
    return _cast_all(kind, units), _cast_all(kind, coeffs)


def _commutant_tuple(rng, n, d, b):
    """Block sum of random integer blocks; returns (tuple, commutant dimension).

    The block sizes follow a fixed rule from the block index ``b``, so the
    cost of a commutant request does not depend on the seed.  The dimension
    is that of the block sum before conjugation, added up block pair by block
    pair: dim C = sum over (i, j) of dim Hom(B_i, B_j).
    """
    sizes = []
    left = n
    while left:
        s = min(1 + (b + len(sizes)) % 3, left)
        sizes.append(s)
        left -= s
    blocks = [[A.rand_int(rng, s) for _ in range(d)] for s in sizes]
    dim = sum(hom_dim(bi, bj) for bi in blocks for bj in blocks)
    mats = blocks[0]
    for blk in blocks[1:]:
        mats = [A.direct_sum(a, b) for a, b in zip(mats, blk)]
    return conj_gl(rng, "rational", mats), dim


def hom_dim(xs, ys):
    """dim {V : V X_k = Y_k V for all k} for integer matrix tuples, exactly."""
    q, p = len(xs[0]), len(ys[0])
    rows = []
    for x, y in zip(xs, ys):
        for a in range(p):
            for b in range(q):
                row = [0] * (p * q)
                for s in range(q):
                    row[a * q + s] += x[s][b]
                for r in range(p):
                    row[r * q + b] -= y[a][r]
                rows.append(row)
    return p * q - A.rank_int(rows)


# Subring extraction in one block of four: (kind, n).  Rational n = 3 costs
# about 0.8 s and n = 4 about 2 s, so they are left out.  Rational inputs get
# two extra generators: with one, how many products coincide depends on its
# entries, and the cost swings 30-240 ms with the seed; with two it stays
# within 250-300 ms.
SUBRING_SCHEDULE = [("rational", 2), None, None, None, ("float64", 3), None, None, None]
UNIT_SHAPES = ((2, 1), (3, 1), (2, 2))  # (N units, multiplicity)


def _linalg_block(rng, b):
    out = []
    for k, kind in enumerate(("rational", "float64")):
        s = b + 3 * k
        n, m = 2 + s % 3, 2 + (s + 1) % 3
        for disjoint in (True, False):
            alpha, beta = _spectra(rng, kind, n, m, disjoint)
            out.append({"op": "sylvester_unique",
                        "cat": "sylvester_unique/%s/%s" % (kind, disjoint),
                        "a": doc(kind, [_spectral(rng, kind, alpha)]),
                        "b": doc(kind, [_spectral(rng, kind, beta)]),
                        "truth": {"unique": disjoint}})
        ns = 2 + s % 4
        alpha, beta = _spectra(rng, kind, ns, ns, True)
        a, bb = _spectral(rng, kind, alpha), _spectral(rng, kind, beta)
        xs = cast(kind, A.rand_int(rng, ns))
        c = A.sub(A.matmul(a, xs), A.matmul(xs, bb))
        out.append({"op": "sylvester_solve", "cat": "sylvester_solve/%s" % kind,
                    "a": doc(kind, [a]), "b": doc(kind, [bb]), "c": doc(kind, [c]),
                    "truth": {"solvable": True}})
        alpha, _ = _spectra(rng, kind, 2 + (s + 2) % 4, 1, True)
        out.append({"op": "char_poly", "cat": "char_poly/%s" % kind,
                    "a": doc(kind, [_spectral(rng, kind, alpha)]),
                    "truth": {"roots": [_entry(kind, v) for v in alpha]}})
        alpha, beta = _spectra(rng, kind, n, m, True)
        out.append({"op": "resultant", "cat": "resultant/%s" % kind,
                    "a": doc(kind, [_spectral(rng, kind, alpha)]),
                    "b": doc(kind, [_spectral(rng, kind, beta)]),
                    "truth": {"alpha": [_entry(kind, v) for v in alpha],
                              "beta": [_entry(kind, v) for v in beta]}})
        units, coeffs = _unit_family(rng, kind, *UNIT_SHAPES[s % 3])
        out.append({"op": "units", "cat": "units/%s" % kind,
                    "units": doc(kind, units), "coeffs": doc(kind, coeffs),
                    "truth": {"valid": True}})
        units, _ = _unit_family(rng, kind, *UNIT_SHAPES[(s + 1) % 3])
        valid = bool(b % 2)
        if not valid:
            units[rng.randrange(len(units))][0][0] += 1
        out.append({"op": "check_epsilon", "cat": "check_epsilon/%s/%s" % (kind, valid),
                    "units": doc(kind, units), "truth": {"valid": valid}})
        mats, dim = _commutant_tuple(rng, 3 + s % 4, 1 + s % 2, b)
        out.append({"op": "commutant", "cat": "commutant/%s" % kind,
                    "x": doc(kind, _cast_all(kind, mats)), "truth": {"dim": dim}})
        sub = SUBRING_SCHEDULE[b % len(SUBRING_SCHEDULE)]
        if sub is not None and sub[0] == kind:
            sn = sub[1]
            std = [[[int(r == i and c == j) for c in range(sn)] for r in range(sn)]
                   for i in range(sn) for j in range(sn)]
            extra = [A.rand_int(rng, sn, -2, 2) for _ in range(2 if kind == "rational" else 1)]
            out.append({"op": "subring", "cat": "subring/%s" % kind,
                        "x": doc(kind, _cast_all(kind, std + extra)),
                        "truth": {"closure": True, "reconstruction": True}})
    return out


# -- lists -----------------------------------------------------------------------------------

_BLOCKS = {"decide": _decide_block, "invariants": _invariants_block, "linalg": _linalg_block}
WORKLOADS = tuple(_BLOCKS)


def build(workload, seed):
    """The request list of one run, as a list of blocks (lists of requests)."""
    rng = random.Random("%s:%d" % (workload, seed))
    blocks = [_BLOCKS[workload](rng, b) for b in range(LIST_BLOCKS[workload])]
    if workload == "decide":
        blocks[len(blocks) // 2].extend(_corpus_requests())
    for bi, blk in enumerate(blocks):
        for ri, req in enumerate(blk):
            req["id"] = "%d.%d" % (bi, ri)
    return blocks
