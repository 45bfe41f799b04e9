"""Bundled counterexample corpus and positive controls.

Six named fixtures ship with the package, in the same JSON shape the CLI
consumes, each carrying the expected outcomes of the live decision
procedures:

* no-trace          diagonal pair separated already by the degree-1 trace;
* needs-transpose   square-zero nilpotents whose pure trace words all agree
                    but whose starred words differ (sum of squares);
* complex-transpose complex symmetric square-zero nilpotents of different
                    rank whose plain-transpose trace words all agree - the
                    documented failure of trace-word separation in that mode;
* gl-positive       a seeded conjugation round trip (similar, not
                    orthogonally so);
* orthogonal-positive  a rational-rotation round trip with an exact witness;
* hom-dimension     a pair with all four Hom dimensions equal to 1 and equal
                    pure trace words up to D = n^2 that is still not similar:
                    equal Hom dimensions are necessary, not sufficient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from .errors import TupleFileError
from .intertwiner import gl_similar
from .matrices import MatrixTuple
from .orthogonal import orthogonal_witness, specht_equivalent
from .tupleio import tuple_from_dict
from .words import fingerprint, fingerprints_equal


@dataclass(frozen=True)
class Expected:
    gl_similar: bool
    orth_similar: bool
    fingerprint_equal_at: dict       # degree -> bool, starred alphabet
    pure_fingerprint_equal_at: dict  # degree -> bool, unstarred alphabet

    def validate(self):
        if self.orth_similar and not self.gl_similar:
            raise TupleFileError("inconsistent fixture: orthogonal but not similar")
        if self.orth_similar and not all(self.fingerprint_equal_at.values()):
            raise TupleFileError(
                "inconsistent fixture: orthogonal yet fingerprints marked unequal")


@dataclass(frozen=True)
class Fixture:
    name: str
    citation: str
    x: MatrixTuple
    y: MatrixTuple
    expected: Expected


_FIXTURE_FILES = (
    "no_trace.json",
    "needs_transpose.json",
    "complex_transpose.json",
    "gl_positive.json",
    "orthogonal_positive.json",
    "hom_dimension.json",
)


def _load_fixture(name: str) -> Fixture:
    text = resources.files("tracesim.data").joinpath(name).read_text()
    doc = json.loads(text)
    exp = doc["expected"]
    expected = Expected(
        gl_similar=bool(exp["gl_similar"]),
        orth_similar=bool(exp["orth_similar"]),
        fingerprint_equal_at={int(k): bool(v)
                              for k, v in exp.get("fingerprint_equal_at", {}).items()},
        pure_fingerprint_equal_at={int(k): bool(v)
                                   for k, v in exp.get("pure_fingerprint_equal_at", {}).items()},
    )
    expected.validate()
    return Fixture(doc["name"], doc.get("citation", ""),
                   tuple_from_dict(doc["X"]), tuple_from_dict(doc["Y"]), expected)


def load_corpus() -> tuple:
    return tuple(_load_fixture(f) for f in _FIXTURE_FILES)


@dataclass(frozen=True)
class FixtureCheck:
    label: str
    expected: object
    got: object

    @property
    def ok(self) -> bool:
        return self.expected == self.got


@dataclass(frozen=True)
class FixtureResult:
    name: str
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def run_fixture(fx: Fixture, seed: int = 0) -> FixtureResult:
    """Reproduce a fixture's expectations with the live procedures."""
    checks = []
    gl = gl_similar(fx.x, fx.y, seed=seed)
    checks.append(FixtureCheck("gl_similar", fx.expected.gl_similar, gl.is_similar))
    orth = orthogonal_witness(fx.x, fx.y, seed=seed)
    checks.append(FixtureCheck("orth_similar", fx.expected.orth_similar, orth.is_equivalent))
    for degree, want in sorted(fx.expected.fingerprint_equal_at.items()):
        equal, _ = specht_equivalent(fx.x, fx.y, degree)
        checks.append(FixtureCheck("fingerprint_equal(D=%d)" % degree, want, equal))
    for degree, want in sorted(fx.expected.pure_fingerprint_equal_at.items()):
        fa = fingerprint(fx.x, degree, include_star=False)
        fb = fingerprint(fx.y, degree, include_star=False)
        equal, _ = fingerprints_equal(fa, fb)
        checks.append(FixtureCheck("pure_fingerprint_equal(D=%d)" % degree, want, equal))
    return FixtureResult(fx.name, tuple(checks))


def run_corpus(seed: int = 0) -> list:
    return [run_fixture(fx, seed=seed) for fx in load_corpus()]
