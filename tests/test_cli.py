import io
import json
import math
import sys
from contextlib import redirect_stdout

import pytest

from tracesim import (Field, Matrix, MatrixTuple, StarMode, UnitSystem, dump_tuple,
                      load_tuple, save_tuple)
from tracesim.cli import main
from tracesim import TupleFileError
from tracesim.tupleio import load_rect_matrix, tuple_from_dict, tuple_to_dict

FQ = Field.rational()
FR = Field.real64()


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def write_tuple(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(dump_tuple(x))
    return str(path)


@pytest.fixture
def diag_files(tmp_path):
    x = MatrixTuple.of(Matrix.diagonal(FQ, [1, 2, 2]))
    y = MatrixTuple.of(Matrix.diagonal(FQ, [1, 1, 2]))
    return write_tuple(tmp_path, "x.json", x), write_tuple(tmp_path, "y.json", y)


# -- round trips -----------------------------------------------------------------

def test_tuple_file_round_trip_rational(tmp_path):
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[1, 2], [-1, 3]]))
    doc = tuple_to_dict(x)
    assert tuple_from_dict(doc) == x
    p = write_tuple(tmp_path, "t.json", x)
    assert load_tuple(p) == x


def test_tuple_file_round_trip_all_kinds(tmp_path):
    from fractions import Fraction
    xs = [
        MatrixTuple.of(Matrix.from_rows(FQ, [[Fraction(1, 3), 2], [-1, Fraction(7, 5)]])),
        MatrixTuple.of(Matrix.from_rows(FR, [[0.5, -1.25], [3.0, 2.0]])),
        MatrixTuple.of(Matrix.from_rows(Field.complex128(), [[1 + 2j, 0], [0, -1j]])),
    ]
    for i, x in enumerate(xs):
        p = write_tuple(tmp_path, "t%d.json" % i, x)
        assert load_tuple(p) == x
        # parse -> print -> parse is the identity at the byte level too
        assert dump_tuple(load_tuple(p)) == dump_tuple(x)


def test_malformed_rational_entry_rejected(tmp_path):
    # ASCII digits only, and the whole string: "3\n", "٣" (Arabic-Indic three)
    # and "1/٤" slipped through a "$"-anchored, Unicode "\d" match
    for bad in ("1/-2", "1/0", "0.5", 1.5, "3\n", "\u0663", "1/\u0664", " 3"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": "rational", "n": 1, "d": 1,
                                    "matrices": [[bad]]}))
        with pytest.raises(TupleFileError):
            load_tuple(str(path))


def test_entries_beyond_the_int_digit_limit_rejected(tmp_path):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for raw in ("9" * 5001, "1/" + "7" * 5001):
            with pytest.raises(TupleFileError, match="has too many digits"):
                tuple_from_dict({"field": "rational", "n": 1, "d": 1, "matrices": [[raw]]})
        assert tuple_from_dict({"field": "rational", "n": 1, "d": 1,
                                "matrices": [["9" * 5000]]})[0].values == (int("9" * 5000),)
        path = tmp_path / "big.json"  # a JSON integer literal, parsed by json itself
        path.write_text('{"field": "float64", "n": 1, "d": 1, "matrices": [[%s]]}' % ("1" * 5001))
        with pytest.raises(TupleFileError, match="not valid JSON"):
            load_tuple(str(path))
        path.write_bytes(b'{"field": "float64", "n": 1, "d": 1, "matrices": [[\xff]]}')
        with pytest.raises(TupleFileError, match="not valid JSON"):
            load_tuple(str(path))
    finally:
        sys.set_int_max_str_digits(limit)


def test_save_refuses_entries_that_could_not_be_loaded(tmp_path):
    from fractions import Fraction
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = tmp_path / "t.json"
        save_tuple(MatrixTuple.of(Matrix.from_rows(FQ, [[Fraction(1, 3)]])), str(path))
        before = path.read_text()
        huge = 10 ** 5000 + 1  # 5001 digits
        for value, where in ((Fraction(huge, 3), "matrix 1, entry 3"),
                             (Fraction(1, huge), "matrix 1, entry 3")):
            x = MatrixTuple.of(Matrix.identity(FQ, 2), Matrix.diagonal(FQ, [1, value]))
            with pytest.raises(TupleFileError, match=where + ": 5001 digits"):
                dump_tuple(x)
            with pytest.raises(TupleFileError, match=where):
                save_tuple(x, str(path))
            assert path.read_text() == before  # a refused save writes nothing
        at_limit = MatrixTuple.of(Matrix.diagonal(FQ, [Fraction(-(10 ** 4299), 10 ** 4299 + 1)]))
        save_tuple(at_limit, str(path))
        assert load_tuple(str(path)) == at_limit
        sys.set_int_max_str_digits(0)  # no limit: everything saves and loads back
        save_tuple(x, str(path))
        assert load_tuple(str(path)) == x
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("field, bad, message", [
    ("float64", True, "float64 entries are numbers, got True"),
    ("float64", "1.5", "float64 entries are numbers, got '1.5'"),
    ("float64", None, "float64 entries are numbers, got None"),
    ("float64", [1.0], "float64 entries are numbers, got [1.0]"),
    ("float64", math.nan, "non-finite entry nan"),
    ("float64", -math.inf, "non-finite entry -inf"),
    ("float64", 10 ** 400, "integer entry beyond float range"),
    ("complex128", True, "complex128 entries are [re, im] pairs, got True"),
    ("complex128", "1.5", "complex128 entries are [re, im] pairs, got '1.5'"),
    ("complex128", None, "complex128 entries are [re, im] pairs, got None"),
    ("complex128", [[1.0], 0], "complex128 entries are [re, im] pairs, got [[1.0], 0]"),
    ("complex128", [math.nan, 0], "non-finite entry [nan, 0]"),
    ("complex128", [0, math.inf], "non-finite entry [0, inf]"),
    ("complex128", [10 ** 400, 0], "integer entry beyond float range"),
    ("complex128", [1.0], "complex128 entries are [re, im] pairs, got [1.0]"),
    ("complex128", [1, 2, 3], "complex128 entries are [re, im] pairs, got [1, 2, 3]"),
    ("complex128", [True, 0], "complex128 entries are [re, im] pairs, got [True, 0]"),
    ("complex128", [0, False], "complex128 entries are [re, im] pairs, got [0, False]"),
])
def test_malformed_float_entry_named_first(field, bad, message):
    # alone, and before a later bad entry of another sort, which is not the one reported
    good, later = (0.5, "later") if field == "float64" else ([0.5, 1], [0, "later"])
    for tail in ([good, good], [later, good]):
        doc = {"field": field, "n": 2, "d": 2, "matrices": [[good] * 4, [good, bad] + tail]}
        with pytest.raises(TupleFileError) as err:
            tuple_from_dict(doc)
        assert str(err.value) == message


def test_float_documents_read_ints_as_floats():
    x = tuple_from_dict({"field": "float64", "n": 2, "d": 1, "matrices": [[1, -2.5, 0, -0.0]]})
    assert [(type(v), repr(v)) for v in x[0].values] == [
        (float, "1.0"), (float, "-2.5"), (float, "0.0"), (float, "-0.0")]
    z = tuple_from_dict({"field": "complex128", "n": 1, "d": 1, "matrices": [[[3, -0.0]]]})
    assert [(type(v), repr(v)) for v in z[0].values] == [(complex, "(3-0j)")]


_HEADER = {"field": "rational", "n": 1, "d": 1, "matrices": [["1"]]}


@pytest.mark.parametrize("change, message", [
    ({"n": "x"}, "n must be an integer >= 1, got 'x'"),
    ({"n": 1.9}, "n must be an integer >= 1, got 1.9"),
    ({"n": 1.0}, "n must be an integer >= 1, got 1.0"),
    ({"n": True}, "n must be an integer >= 1, got True"),
    ({"n": 0}, "n must be an integer >= 1, got 0"),
    ({"d": None}, "d must be an integer >= 1, got None"),
    ({"field": ["rational"]}, r"unknown field \['rational'\]"),
    ({"star": 1}, "unknown star mode 1"),
], ids=["n-string", "n-fraction", "n-float", "n-bool", "n-zero", "d-null", "field-list",
        "star-number"])
def test_malformed_tuple_header_rejected(change, message):
    with pytest.raises(TupleFileError, match=message):
        tuple_from_dict({**_HEADER, **change})


def test_tuple_document_must_be_an_object_with_every_key(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for load in (lambda: load_tuple(str(path)), lambda: tuple_from_dict([1, 2])):
        with pytest.raises(TupleFileError, match="top level must be an object"):
            load()
    for key in ("field", "n", "d", "matrices"):
        doc = {k: v for k, v in _HEADER.items() if k != key}
        with pytest.raises(TupleFileError, match="missing key '%s'" % key):
            tuple_from_dict(doc)


@pytest.mark.parametrize("change, message", [
    ({"n": 0, "matrices": [[]]}, "n must be an integer >= 1, got 0"),
    ({"n": "2"}, "n must be an integer >= 1, got '2'"),
    ({"cols": 0, "matrices": [[]]}, "cols must be an integer >= 1, got 0"),
    ({"cols": 1.5}, "cols must be an integer >= 1, got 1.5"),
    ({"d": 2}, "expected a single matrix"),
    ({"field": ["rational"]}, "unknown field"),
], ids=["n-zero", "n-string", "cols-zero", "cols-fraction", "two-matrices", "field-list"])
def test_malformed_rect_matrix_header_rejected(tmp_path, change, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"field": "rational", "n": 2, "cols": 1,
                                "matrices": [["1", "1"]], **change}))
    with pytest.raises(TupleFileError, match=message):
        load_rect_matrix(str(path))
    path.write_text("[]")
    with pytest.raises(TupleFileError, match="top level must be an object"):
        load_rect_matrix(str(path))


def test_similar_reports_a_malformed_header(tmp_path, diag_files, capsys):
    x, _ = diag_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_HEADER, "n": "x"}))
    code = main(["similar", str(bad), x])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: n must be an integer >= 1, got 'x'\n"


# -- fingerprint command -------------------------------------------------------------

def test_fingerprint_line_output(diag_files):
    x, _ = diag_files
    code, out = run_cli("fingerprint", x, "-D", "1")
    assert code == 0
    assert out == "x1 = 5\n"


def test_fingerprint_zero_tuple(tmp_path):
    z = write_tuple(tmp_path, "z.json", MatrixTuple.of(Matrix.zeros(FQ, 2, 2)))
    code, out = run_cli("fingerprint", z, "-D", "2")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.endswith("= 0")


def test_fingerprint_of_a_rational_beyond_float_range(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "rational", "n": 1, "d": 1,
                                "matrices": [["1" + "0" * 2999]]}))
    code = main(["fingerprint", str(path), "-D", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == "x1 = 1%s\n" % ("0" * 2999)


def test_fingerprint_beyond_the_int_digit_limit(tmp_path, capsys):
    # degree-2 traces of a 3000-digit entry have 5999 digits, past str()'s default 4300
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"field": "rational", "n": 1, "d": 1,
                                "matrices": [["1" + "0" * 2999]]}))
    entry, square = "1" + "0" * 2999, "1" + "0" * 5998
    assert main(["fingerprint", str(path), "-D", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "x1 = %s\nx1 x1 = %s\nx1 x1* = %s\n" % (entry, square, square)
    assert main(["fingerprint", str(path), "-D", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["entries"] == [["x1", entry], ["x1 x1", square],
                                                   ["x1 x1*", square]]


def test_fingerprint_budget_diagnostic(tmp_path, capsys):
    z = write_tuple(tmp_path, "z.json", MatrixTuple.of(Matrix.zeros(FQ, 2, 2), Matrix.zeros(FQ, 2, 2)))
    code = main(["fingerprint", z, "-D", "12", "--budget", "100"])
    captured = capsys.readouterr()
    assert code != 0
    assert "enumeration budget exceeded" in captured.err


def test_fingerprint_deterministic_output(diag_files):
    x, _ = diag_files
    a = run_cli("fingerprint", x, "-D", "3")
    b = run_cli("fingerprint", x, "-D", "3")
    assert a == b


def test_fingerprint_json_output(diag_files):
    x, _ = diag_files
    code, out = run_cli("fingerprint", x, "-D", "2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["entries"] == [["x1", "5"], ["x1 x1", "9"], ["x1 x1*", "9"]]


# -- similar command -------------------------------------------------------------------

def test_similar_not_similar(diag_files):
    x, y = diag_files
    code, out = run_cli("similar", x, y)
    assert code == 0
    assert out.strip() == "not-similar"


def test_similar_orthogonal_round_trip_with_witness(tmp_path):
    from conftest import pythagorean_rotation
    o0 = pythagorean_rotation(3, 2)
    x = MatrixTuple.of(Matrix.from_rows(FQ, [[1, 2], [2, 5]]))
    y = x.star_conjugated(o0)
    fx = write_tuple(tmp_path, "x.json", x)
    fy = write_tuple(tmp_path, "y.json", y)
    code, out = run_cli("similar", fx, fy, "--orthogonal", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "similar"
    assert "witness:" in lines


def test_similar_orthogonal_complex_transpose_round_trip(tmp_path):
    import random
    from conftest import cayley_orthogonal, rand_complex_tuple
    fct = Field.complex128(StarMode.TRANSPOSE)
    rng = random.Random(0)
    x = rand_complex_tuple(rng, fct, 3, 2)
    y = x.star_conjugated(cayley_orthogonal(rng, fct, 3))
    fx = write_tuple(tmp_path, "x.json", x)
    fy = write_tuple(tmp_path, "y.json", y)
    code, out = run_cli("similar", fx, fy, "--orthogonal", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "similar"
    assert lines[1] == "witness:" and len(lines) == 5


def test_similar_json_output(diag_files):
    x, y = diag_files
    code, out = run_cli("similar", x, y, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "not-similar"


def test_similar_shape_mismatch_fails(tmp_path, diag_files, capsys):
    x, _ = diag_files
    small = write_tuple(tmp_path, "s.json", MatrixTuple.of(Matrix.identity(FQ, 2)))
    code = main(["similar", x, small])
    captured = capsys.readouterr()
    assert code != 0 and "error:" in captured.err


def test_similar_seeded_runs_are_byte_identical(tmp_path):
    import random
    from conftest import rand_rational_tuple, rand_invertible_int
    rng = random.Random(0)
    x = rand_rational_tuple(rng, 3, 2)
    p = rand_invertible_int(rng, FQ, 3)
    y = x.conjugated(p)
    fx = write_tuple(tmp_path, "x.json", x)
    fy = write_tuple(tmp_path, "y.json", y)
    runs = {run_cli("similar", fx, fy, "--seed", "3", "--witness")
            for _ in range(3)}
    assert len(runs) == 1
    code, out = next(iter(runs))
    assert code == 0 and out.startswith("similar")


# -- units command ---------------------------------------------------------------------

def test_units_ok_and_center(tmp_path):
    u = UnitSystem.standard(FQ, 2)
    f = write_tuple(tmp_path, "u.json", MatrixTuple.of(*u.flat()))
    code, out = run_cli("units", f, "--center")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon: ok"
    assert lines[1] == "center basis (dim 1):"
    assert lines[2:] == ["1 0", "0 1"]


def test_units_violation_report(tmp_path):
    u = UnitSystem.standard(FQ, 2)
    mats = list(u.flat())
    mats[0] = Matrix.zeros(FQ, 2, 2)
    f = write_tuple(tmp_path, "u.json", MatrixTuple.of(*mats))
    code, out = run_cli("units", f)
    assert code == 0
    assert out.startswith("epsilon: zero unit at (i,j)=(0,0)")


def test_units_json_output(tmp_path):
    u = UnitSystem.standard(FQ, 2)
    f = write_tuple(tmp_path, "u.json", MatrixTuple.of(*u.flat()))
    code, out = run_cli("units", f, "--center", "--json")
    doc = json.loads(out)
    assert code == 0
    assert doc["epsilon"] == "ok"
    assert doc["center_basis"] == [["1", "0", "0", "1"]]


def test_units_requires_square_count(tmp_path, capsys):
    f = write_tuple(tmp_path, "u.json",
                    MatrixTuple.of(Matrix.identity(FQ, 2), Matrix.identity(FQ, 2)))
    code = main(["units", f])
    captured = capsys.readouterr()
    assert code != 0 and "N^2" in captured.err


# -- sylvester command --------------------------------------------------------------------

def test_sylvester_solve_output(tmp_path):
    a = write_tuple(tmp_path, "a.json", MatrixTuple.of(Matrix.diagonal(FQ, [1, 2])))
    b = write_tuple(tmp_path, "b.json", MatrixTuple.of(Matrix.from_rows(FQ, [[3]])))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"field": "rational", "n": 2, "cols": 1, "d": 1,
                                 "matrices": [["1", "1"]]}))
    code, out = run_cli("sylvester", a, b, str(cpath))
    assert code == 0
    assert out.splitlines() == ["solution:", "-1/2", "-1"]


def test_sylvester_unique_flag(tmp_path):
    a = write_tuple(tmp_path, "a.json", MatrixTuple.of(Matrix.diagonal(FQ, [1, 2])))
    b = write_tuple(tmp_path, "b.json", MatrixTuple.of(Matrix.from_rows(FQ, [[3]])))
    code, out = run_cli("sylvester", a, b, "--unique")
    assert code == 0 and out.strip() == "unique: yes"
    z = write_tuple(tmp_path, "z.json", MatrixTuple.of(Matrix.from_rows(FQ, [[0]])))
    code, out = run_cli("sylvester", z, z, "--unique")
    assert code == 0 and out.strip() == "unique: no"


# -- corpus command -----------------------------------------------------------------------

def test_corpus_list_and_run():
    code, out = run_cli("corpus", "list")
    assert code == 0 and "no-trace" in out
    code, out = run_cli("corpus", "run")
    assert code == 0
    assert all(line.endswith(": ok") for line in out.strip().splitlines())


def test_corpus_run_single(capsys):
    code, out = run_cli("corpus", "run", "no-trace")
    assert code == 0 and out.strip() == "fixture no-trace: ok"
    code = main(["corpus", "run", "nonexistent"])
    captured = capsys.readouterr()
    assert code != 0 and "unknown fixture" in captured.err
