from fractions import Fraction

import pytest

from certificate import shrinks
from tracesim import (Field, Kind, StarMode, gl_similar, intertwiner_basis, load_corpus,
                      orthogonal_witness, run_corpus, run_fixture)
from tracesim.intertwiner import DEFAULT_SAMPLE_BOUND, DEFAULT_TRIALS, _decide_span


def by_name():
    return {fx.name: fx for fx in load_corpus()}


def test_corpus_has_the_bundled_fixtures():
    fixtures = load_corpus()
    assert len(fixtures) >= 4
    names = {fx.name for fx in fixtures}
    assert {"no-trace", "needs-transpose", "complex-transpose",
            "gl-positive", "orthogonal-positive", "hom-dimension"} <= names


def test_no_trace_fixture_digits():
    fx = by_name()["no-trace"]
    assert fx.x[0].entries == tuple(Fraction(v) for v in (1, 0, 0, 0, 2, 0, 0, 0, 2))
    assert fx.y[0].entries == tuple(Fraction(v) for v in (1, 0, 0, 0, 1, 0, 0, 0, 2))
    assert not fx.expected.gl_similar


def test_needs_transpose_fixture_digits():
    fx = by_name()["needs-transpose"]
    x = fx.x[0]
    assert x.at(0, 1) == 1 and x.at(2, 3) == 1
    assert sum(1 for e in x.entries if e != 0) == 2
    y = fx.y[0]
    assert y.at(0, 1) == 1 and sum(1 for e in y.entries if e != 0) == 1


def test_complex_transpose_fixture_digits():
    fx = by_name()["complex-transpose"]
    assert fx.x.field.kind is Kind.COMPLEX128
    assert fx.x.field.star_mode is StarMode.TRANSPOSE
    n1, n2 = fx.x[0], fx.y[0]
    # N1 is the outer square of (1, i, 0, 0)
    u = [1, 1j, 0, 0]
    for i in range(4):
        for j in range(4):
            assert n1.at(i, j) == u[i] * u[j]
    # N2 entries lie in {0, +-1, +-i} and the matrix squares to zero
    assert set(n2.entries) <= {0, 1, -1, 1j, -1j}
    assert (n2 * n2).maxabs() == 0.0
    assert (n1 * n1).maxabs() == 0.0
    assert n1.rank() == 1 and n2.rank() == 2


def test_hom_dimension_fixture_is_not_settled_by_dimensions():
    fx = by_name()["hom-dimension"]
    x, y = fx.x, fx.y
    assert [m.row_list() for m in x] == [[[0, 0], [0, 1]], [[0, 1], [0, 1]]]
    assert [m.row_list() for m in y] == [[[0, 0], [1, 1]], [[0, 0], [0, 1]]]
    for a, b in ((x, x), (x, y), (y, x), (y, y)):
        assert intertwiner_basis(a, b, with_star=False).dim == 1
    v = gl_similar(x, y)
    assert (v.verdict, v.detail) == (
        "not_similar", "shrunk subspace: dim U = 1 > dim sum_j B_j U = 0, so no intertwiner "
        "is invertible (second Wong sequence, draw 1)")


@pytest.mark.parametrize("name, with_star", [
    ("no-trace", False), ("no-trace", True), ("needs-transpose", False),
    ("needs-transpose", True), ("hom-dimension", False),
])
def test_exact_negative_fixtures_carry_checked_certificates(name, with_star):
    """The search proves each exact negative fixture, plain and starred, by
    a shrunk subspace that the standalone check accepts.  (The starred space
    of hom-dimension is zero.)"""
    fx = by_name()[name]
    basis = intertwiner_basis(fx.x, fx.y, with_star)
    p, u, detail = _decide_span(basis, 0, DEFAULT_TRIALS, DEFAULT_SAMPLE_BOUND)
    assert p is None and detail.startswith("shrunk subspace")
    assert shrinks(basis.basis, u)


def test_expected_records_are_internally_consistent():
    for fx in load_corpus():
        if fx.expected.orth_similar:
            assert fx.expected.gl_similar
            assert all(fx.expected.fingerprint_equal_at.values())


def test_live_procedures_reproduce_every_fixture():
    for result in run_corpus():
        assert result.ok, "%s: %s" % (
            result.name,
            [(c.label, c.expected, c.got) for c in result.checks if not c.ok])


def test_run_fixture_reports_labels():
    fx = by_name()["no-trace"]
    res = run_fixture(fx)
    labels = {c.label for c in res.checks}
    assert "gl_similar" in labels and "orth_similar" in labels
    assert any(l.startswith("fingerprint_equal") for l in labels)


@pytest.mark.parametrize("name", ["no-trace", "needs-transpose", "complex-transpose",
                                  "gl-positive", "orthogonal-positive", "hom-dimension"])
def test_float_fixtures_keep_their_verdicts(name):
    """The float64 copy of each fixture (complex-transpose is float already)
    gets the fixture's verdicts."""
    fx = by_name()[name]
    x, y = fx.x, fx.y
    if x.field.is_exact:
        x, y = x.astype(Field.real64()), y.astype(Field.real64())
    assert gl_similar(x, y).is_similar == fx.expected.gl_similar
    assert orthogonal_witness(x, y).is_equivalent == fx.expected.orth_similar
