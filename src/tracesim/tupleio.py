"""Tuple file format: the on-disk shape of a d-tuple of n x n matrices.

JSON object with keys:

    field     "rational" | "float64" | "complex128"
    star      "transpose" | "conjugate"   (optional; kind-appropriate default)
    n, d      dimensions, integers >= 1
    matrices  d arrays of n*n entries, row-major

Entries are "p/q" or "p" strings for rationals (ASCII digits, an optional
sign on p only, so the denominator is positive by syntax), plain numbers
for float64, and [re, im] pairs for complex128.  Rational entries are read
straight into ints over one denominator.  Float and complex entries are
checked once per matrix: the types of all entries in one pass, then
finiteness on the converted floats; only a matrix that fails goes through
``parse_entry`` entry by entry, so the error names its first bad entry.
Parsing then printing then parsing is the identity.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from fractions import Fraction

from .errors import TupleFileError
from .fields import Field, Kind, StarMode, value_str
from .matrices import Matrix, MatrixTuple, _from_ratios

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

_FIELD_NAMES = {k.value: k for k in Kind}
_STAR_NAMES = {s.value: s for s in StarMode}


def field_from_names(field_name: str, star_name: str | None) -> Field:
    if not isinstance(field_name, str) or field_name not in _FIELD_NAMES:
        raise TupleFileError("unknown field %r" % (field_name,))
    kind = _FIELD_NAMES[field_name]
    if star_name is None:
        star = StarMode.CONJUGATE_TRANSPOSE if kind is Kind.COMPLEX128 else StarMode.TRANSPOSE
    else:
        if not isinstance(star_name, str) or star_name not in _STAR_NAMES:
            raise TupleFileError("unknown star mode %r" % (star_name,))
        star = _STAR_NAMES[star_name]
    try:
        return Field(kind, star)
    except Exception as exc:
        raise TupleFileError(str(exc))


def _rational_parts(raw) -> tuple:
    """(p, q) of a rational entry "p/q" or "p" (q = 1), with q >= 1."""
    match = _RATIONAL_RE.fullmatch(raw) if isinstance(raw, str) else None
    if match is None:
        raise TupleFileError("rational entries are 'p' or 'p/q' strings, got %r" % (raw,))
    p, q = match.groups()
    try:
        p, q = int(p), 1 if q is None else int(q)
    except ValueError:  # beyond the interpreter's limit on digits per int
        raise TupleFileError("rational entry of %d characters has too many digits"
                             % len(raw)) from None
    if q == 0:
        raise TupleFileError("zero denominator in %r" % (raw,))
    return p, q


def parse_entry(field: Field, raw):
    """One entry in file syntax as a scalar of ``field``; NaN and infinities
    (which ``json`` accepts) are rejected."""
    kind = field.kind
    if kind is Kind.RATIONAL:
        return Fraction(*_rational_parts(raw))
    if kind is Kind.REAL64:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TupleFileError("float64 entries are numbers, got %r" % (raw,))
    elif (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in raw)):
        raise TupleFileError("complex128 entries are [re, im] pairs, got %r" % (raw,))
    try:
        value = float(raw) if kind is Kind.REAL64 else complex(raw[0], raw[1])
    except OverflowError:  # an int too large for a float; its repr may be huge too
        raise TupleFileError("integer entry beyond float range") from None
    if not cmath.isfinite(value):
        raise TupleFileError("non-finite entry %r" % (raw,))
    return value


def format_entry(field: Field, value):
    if field.kind is Kind.RATIONAL:
        return value_str(value)
    if field.kind is Kind.REAL64:
        return value
    return [value.real, value.imag]


def _header(doc, required: tuple, optional: tuple = ()) -> tuple:
    """(field, dims, matrices) of a tuple or matrix document: ``dims`` maps
    every ``required`` key and each ``optional`` key present to its value, an
    int (not a bool) >= 1.  Anything else raises ``TupleFileError``."""
    if not isinstance(doc, dict):
        raise TupleFileError("top level must be an object")
    for key in ("field", "matrices") + required:
        if key not in doc:
            raise TupleFileError("missing key %r" % key)
    dims = {key: doc[key] for key in required + optional if key in doc}
    for key, value in dims.items():
        if type(value) is not int or value < 1:
            raise TupleFileError("%s must be an integer >= 1, got %r" % (key, value))
    return field_from_names(doc["field"], doc.get("star")), dims, doc["matrices"]


def tuple_from_dict(doc: dict) -> MatrixTuple:
    field, dims, matrices = _header(doc, ("n", "d"))
    n, d = dims["n"], dims["d"]
    if not isinstance(matrices, list) or len(matrices) != d:
        raise TupleFileError("expected %d matrices" % d)
    mats = []
    for entries in matrices:
        if not isinstance(entries, list) or len(entries) != n * n:
            raise TupleFileError("each matrix needs n*n = %d entries" % (n * n))
        mats.append(_parse_matrix(field, n, n, entries))
    return MatrixTuple.of(*mats)


def _parse_matrix(field: Field, rows: int, cols: int, entries: list) -> Matrix:
    """The matrix of row-major entries in file syntax; rational ones are read
    straight into ints over the lcm of their denominators."""
    if not field.is_exact:
        return Matrix(field, rows, cols, _float_values(field, entries))
    return _from_ratios(field, rows, cols, [_rational_parts(e) for e in entries])


def _float_values(field: Field, entries: list) -> tuple:
    """The float64 or complex128 values of one matrix's entries in file
    syntax, as ``parse_entry`` gives them: the types are checked in one pass
    and finiteness on the converted floats.  ``parse_entry`` runs entry by
    entry only when that check fails, to raise for the first bad entry (or
    to read number subclasses, which the one-pass check does not take)."""
    parts = entries
    if field.is_complex:
        pairs = set(map(type, entries)) <= {list} and all(len(e) == 2 for e in entries)
        parts = [x for e in entries for x in e] if pairs else None
    floats = None
    if parts is not None and set(map(type, parts)) <= {int, float}:
        try:
            floats = list(map(float, parts))
        except OverflowError:  # an int too large for a float
            pass
    if floats is None or not all(map(math.isfinite, floats)):
        return tuple(parse_entry(field, e) for e in entries)
    if field.is_complex:
        return tuple(map(complex, floats[::2], floats[1::2]))
    return tuple(floats)


def tuple_to_dict(x: MatrixTuple) -> dict:
    return {
        "field": x.field.kind.value,
        "star": x.field.star_mode.value,
        "n": x.n,
        "d": x.d,
        "matrices": [[format_entry(x.field, e) for e in m.entries] for m in x.matrices],
    }


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise TupleFileError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:  # bad JSON or UTF-8, or an int beyond the digit limit
        raise TupleFileError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise TupleFileError("%s: top level must be an object" % path)
    return doc


def load_tuple(path: str) -> MatrixTuple:
    return tuple_from_dict(_read_json(path))


def load_rect_matrix(path: str) -> Matrix:
    """Single possibly-rectangular matrix (the Sylvester right-hand side).

    Same format as a d=1 tuple file plus an optional "cols" key; entries
    are n*cols row-major.
    """
    field, dims, matrices = _header(_read_json(path), ("n",), ("d", "cols"))
    n = dims["n"]
    cols = dims.get("cols", n)
    if dims.get("d", 1) != 1 or not isinstance(matrices, list) or len(matrices) != 1:
        raise TupleFileError("expected a single matrix")
    entries = matrices[0]
    if not isinstance(entries, list) or len(entries) != n * cols:
        raise TupleFileError("matrix needs n*cols = %d entries" % (n * cols))
    return _parse_matrix(field, n, cols, entries)


def dump_tuple(x: MatrixTuple) -> str:
    """The tuple file text of x; ``TupleFileError`` for a rational entry that
    ``load_tuple`` could not read back (beyond ``sys.get_int_max_str_digits()``)."""
    doc = tuple_to_dict(x)
    limit = sys.get_int_max_str_digits() if x.field.is_exact else 0
    for k, entries in enumerate(doc["matrices"] if limit else ()):
        for e, text in enumerate(entries):
            digits = max(len(part.lstrip("-")) for part in text.split("/"))
            if digits > limit:
                raise TupleFileError("matrix %d, entry %d: %d digits, more than the %d "
                                     "an int may be read with" % (k, e, digits, limit))
    return json.dumps(doc, indent=2) + "\n"


def save_tuple(x: MatrixTuple, path: str):
    """Write x to path; a tuple that ``dump_tuple`` refuses leaves the file as it was."""
    text = dump_tuple(x)
    with open(path, "w") as fh:
        fh.write(text)


def matrix_entry_row_strings(m: Matrix) -> list:
    """Rows rendered in tuple-file entry syntax, for witness printing."""
    rows = []
    for i in range(m.rows):
        cells = []
        for j in range(m.cols):
            e = format_entry(m.field, m.at(i, j))
            cells.append(json.dumps(e) if isinstance(e, list) else str(e))
        rows.append(" ".join(cells))
    return rows
