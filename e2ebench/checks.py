"""Judge each reply against the truth built into its request.

``judge(request, reply)`` returns ``(outcome, certified)``.  ``outcome`` is
``CORRECT`` or ``WRONG``; a request that raised is ``FAILED`` and never
reaches this module.  ``certified`` marks an answer that carries a proof or a
witness the benchmark verified itself:

* a similarity witness, Sylvester solution or differing trace word that the
  benchmark's own arithmetic confirms;
* a negative verdict reached by an exhausted grid or a zero intertwiner
  space (``not_similar`` / ``not_equivalent``), never a ``*_probable`` one;
* any other exact-kind (rational) answer, which involves no tolerance.

Float answers that rest on a threshold (fingerprint equality, Sylvester
uniqueness, relation checks) are not certified.  All arithmetic here is
``arith``'s, never tracesim's; a reply is read only through its plain data
(verdict strings, booleans, ``Matrix.entries``).
"""

from __future__ import annotations

from fractions import Fraction

import arith as A

CORRECT, WRONG, FAILED = "CORRECT", "WRONG", "FAILED"

# Relative tolerance for float residuals: far above rounding at n <= 6 and
# entries of order 10, far below any real error.
REL = 1e-6

# Categories where a wrong answer is a known library defect.  They count
# against correct_share like any other wrong answer; a wrong answer anywhere
# else marks the whole run incorrect.
KNOWN_DEFECTS = (
    # ROADMAP 5a: the absolute tolerance of fingerprints_equal
    "fingerprint/float64/", "fingerprint/complex128/",
    "specht/float64/", "specht/complex128/",
    # the float resultant threshold tol * scale^(n+m) of sylvester_unique
    "sylvester_unique/float64/",
    # the float grid threshold 1e-9 * max|entry|^n of find_invertible: a
    # similar float pair (n = 6, d = 1) came back "not_similar" with the
    # grid as its proof, about once in 4000 decide requests
    "gl_similar/float64/pos", "gl_similar/complex128/pos",
    "orthogonal_witness/float64/pos", "orthogonal_witness/complex128/pos",
)


def is_known_defect(cat: str) -> bool:
    return cat.startswith(KNOWN_DEFECTS)


def parse_doc(doc):
    """Matrices of a tuple document as lists of rows of Python scalars."""
    n, kind = doc["n"], doc["field"]
    out = []
    for flat in doc["matrices"]:
        if kind == "rational":
            vals = [Fraction(v) for v in flat]
        elif kind == "float64":
            vals = [float(v) for v in flat]
        else:
            vals = [complex(v[0], v[1]) for v in flat]
        out.append([vals[i * n:(i + 1) * n] for i in range(n)])
    return out


def rows_of(m):
    """Rows of a tracesim Matrix, read from its plain ``entries`` tuple."""
    e = m.entries
    return [list(e[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def _exact(doc):
    return doc["field"] == "rational"


def _conj(doc):
    return doc["field"] == "complex128"


def _same(a, b, exact):
    return a == b if exact else A.rel_close(a, b, REL)


def _invertible(p, exact):
    if exact:
        return A.det(p) != 0
    try:
        pinv = A.inverse(p)
    except ZeroDivisionError:
        return False
    return A.maxabs(p) * A.maxabs(pinv) < 1e10


def intertwines(p, xs, ys, exact, conjugate=None):
    """P X_i = Y_i P for all i (and for the stars when ``conjugate`` is given)."""
    pairs = list(zip(xs, ys))
    if conjugate is not None:
        pairs += [(A.star(x, conjugate), A.star(y, conjugate)) for x, y in pairs]
    scale = max(1.0, A.maxabs(p)) * max([1.0] + [A.maxabs(x) for x in xs + ys])
    for x, y in pairs:
        lhs, rhs = A.matmul(p, x), A.matmul(y, p)
        if exact:
            if lhs != rhs:
                return False
        elif A.maxabs(A.sub(lhs, rhs)) > REL * scale:
            return False
    return True


def _orthogonal_conjugates(o, xs, ys, exact, conjugate):
    os_ = A.star(o, conjugate)
    n = len(o)
    one = Fraction(1) if exact else 1.0
    if not _same(A.matmul(o, os_), A.identity(n, one), exact):
        return False
    scale = max([1.0] + [A.maxabs(y) for y in ys])
    for x, y in zip(xs, ys):
        got = A.matmul(A.matmul(o, x), os_)
        if exact:
            if got != y:
                return False
        elif A.maxabs(A.sub(got, y)) > REL * scale:
            return False
    return True


def _gl(req, v):
    truth = req["truth"]["similar"]
    if v.verdict == "similar":
        if not truth:
            return WRONG, False
        xs, ys = parse_doc(req["x"]), parse_doc(req["y"])
        p = rows_of(v.witness)
        ok = intertwines(p, xs, ys, _exact(req["x"])) and _invertible(p, _exact(req["x"]))
        return (CORRECT, True) if ok else (WRONG, False)
    if truth:
        return WRONG, False
    return CORRECT, v.verdict == "not_similar"


def _orth(req, v):
    truth = req["truth"]["similar"]
    exact, conj = _exact(req["x"]), _conj(req["x"])
    if v.verdict in ("equivalent", "exact_witness_unavailable"):
        if not truth or v.witness is None:
            return WRONG, False
        xs, ys = parse_doc(req["x"]), parse_doc(req["y"])
        o = rows_of(v.witness.o)
        witness_exact = exact and v.verdict == "equivalent"
        if not _orthogonal_conjugates(o, xs, ys, witness_exact, conj):
            return WRONG, False
        if v.verdict == "exact_witness_unavailable":
            # the exact verdict rests on the rational star-intertwiner
            p = rows_of(v.intertwiner)
            if not (intertwines(p, xs, ys, True, conjugate=False) and _invertible(p, True)):
                return WRONG, False
        return CORRECT, True
    if truth:
        return WRONG, False
    return CORRECT, v.verdict == "not_equivalent"


def _fixture(req, res):
    got = {c.label: c.got for c in res.checks}
    gl, orth = req["truth"]["gl"], req["truth"]["orth"]
    ok = got.get("gl_similar") == gl and got.get("orth_similar") == orth and res.ok
    return (CORRECT if ok else WRONG), False


def _word_differs(req, word_codes):
    """The benchmark's own check that a reported differing word really differs."""
    exact, conj = _exact(req["x"]), _conj(req["x"])
    xs, ys = parse_doc(req["x"]), parse_doc(req["y"])
    a = A.word_trace(xs, word_codes, conj)
    b = A.word_trace(ys, word_codes, conj)
    if exact:
        return a != b
    return abs(a - b) > 1e-3 * max(1.0, abs(a), abs(b))


def _fingerprint(req, reply):
    equal, diff, values = reply
    exact = _exact(req["x"])
    conj = _conj(req["x"])
    xs = parse_doc(req["x"])
    for codes, got in values:
        want = A.word_trace(xs, codes, conj)
        if exact and got != want:
            return WRONG, False
        if not exact and abs(got - want) > REL * max(1.0, abs(want)) * 1e2:
            return WRONG, False
    return _equality(req, equal, diff)


def _equality(req, equal, diff):
    if equal != req["truth"]["equal"]:
        return WRONG, False
    exact = _exact(req["x"])
    if equal:
        return CORRECT, exact
    if diff is None or not _word_differs(req, diff.word.codes):
        return WRONG, False
    return CORRECT, True


def _specht(req, reply):
    equal, diff = reply
    return _equality(req, equal, diff)


def _poly_from_roots(roots):
    coeffs = [roots[0] ** 0]  # ascending degree
    for r in roots:
        nxt = [0 * r] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= r * c
        coeffs = nxt
    return coeffs


def _scalars(kind, vals):
    if kind == "rational":
        return [Fraction(v) for v in vals]
    return [float(v) for v in vals]


def _close(a, b, exact, scale=1.0):
    if exact:
        return a == b
    return abs(a - b) <= REL * max(1.0, scale, abs(a), abs(b))


def _char_poly(req, poly):
    kind = req["a"]["field"]
    exact = kind == "rational"
    want = _poly_from_roots(_scalars(kind, req["truth"]["roots"]))
    got = list(poly.coeffs)
    scale = max(abs(c) for c in want)
    ok = len(got) == len(want) and all(_close(g, w, exact, scale) for g, w in zip(got, want))
    return (CORRECT, exact) if ok else (WRONG, False)


def _resultant(req, value):
    kind = req["a"]["field"]
    exact = kind == "rational"
    alpha = _scalars(kind, req["truth"]["alpha"])
    beta = _scalars(kind, req["truth"]["beta"])
    want = alpha[0] ** 0
    for b in beta:
        for a in alpha:
            want *= b - a
    # the float value is a Sylvester determinant of trace-derived coefficients;
    # bound its rounding by the coefficient scale to the power of its order.
    coeff = max(abs(c) for c in _poly_from_roots(alpha) + _poly_from_roots(beta))
    scale = 1e-2 * max(1.0, coeff) ** (len(alpha) + len(beta))
    return (CORRECT, exact) if _close(value, want, exact, scale) else (WRONG, False)


def _sylvester_unique(req, unique):
    ok = unique == req["truth"]["unique"]
    return (CORRECT, _exact(req["a"])) if ok else (WRONG, False)


def _sylvester_solve(req, sol):
    if sol is None:
        return WRONG, False
    exact = _exact(req["a"])
    (a,), (b,), (c,) = parse_doc(req["a"]), parse_doc(req["b"]), parse_doc(req["c"])
    x = rows_of(sol)
    got = A.sub(A.matmul(a, x), A.matmul(x, b))
    scale = max(1.0, A.maxabs(a), A.maxabs(b)) * max(1.0, A.maxabs(x))
    if exact:
        ok = got == c
    else:
        ok = A.maxabs(A.sub(got, c)) <= REL * scale
    return (CORRECT, True) if ok else (WRONG, False)


def _units(req, theta):
    exact = _exact(req["units"])
    units, coeffs = parse_doc(req["units"]), parse_doc(req["coeffs"])
    want = A.zeros(len(units[0]))
    for u, c in zip(units, coeffs):
        want = A.add(want, A.matmul(c, u))
    return (CORRECT, exact) if _same(rows_of(theta), want, exact) else (WRONG, False)


def _check_epsilon(req, reply):
    ok = reply[0] == req["truth"]["valid"]
    return (CORRECT, _exact(req["units"])) if ok else (WRONG, False)


def _commutant(req, basis):
    exact = _exact(req["x"])
    xs = parse_doc(req["x"])
    if len(basis) != req["truth"]["dim"]:
        return WRONG, False
    mats = [rows_of(v) for v in basis]
    for v in mats:
        if not intertwines(v, xs, xs, exact):
            return WRONG, False
    flat = [[x for row in v for x in row] for v in mats]
    if flat and A.rank(flat, 0.0 if exact else 1e-9) != len(flat):
        return WRONG, False
    return CORRECT, exact


def _subring(req, report):
    ok = report.closure_ok and report.reconstruction_ok and report.sampled_elements > 0
    return (CORRECT, _exact(req["x"])) if ok else (WRONG, False)


_JUDGES = {
    "gl_similar": _gl, "orthogonal_witness": _orth, "run_fixture": _fixture,
    "fingerprint": _fingerprint, "specht_equivalent": _specht,
    "sylvester_unique": _sylvester_unique, "sylvester_solve": _sylvester_solve,
    "char_poly": _char_poly, "resultant": _resultant, "units": _units,
    "check_epsilon": _check_epsilon, "commutant": _commutant, "subring": _subring,
}


def judge(req, reply):
    return _JUDGES[req["op"]](req, reply)
