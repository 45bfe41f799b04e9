import math
from fractions import Fraction

import pytest

from tracesim import Field, Kind, KindMismatchError, NonFiniteError, StarMode


def test_rational_forces_transpose():
    with pytest.raises(KindMismatchError):
        Field(Kind.RATIONAL, StarMode.CONJUGATE_TRANSPOSE)
    with pytest.raises(KindMismatchError):
        Field(Kind.REAL64, StarMode.CONJUGATE_TRANSPOSE)


def test_complex_defaults_to_conjugate_transpose():
    assert Field.complex128().star_mode is StarMode.CONJUGATE_TRANSPOSE
    assert Field.complex128(StarMode.TRANSPOSE).star_mode is StarMode.TRANSPOSE


def test_coercion_accepts_ints_everywhere():
    assert Field.rational().coerce(3) == Fraction(3)
    assert Field.real64().coerce(3) == 3.0
    assert Field.complex128().coerce(3) == 3 + 0j


def test_coercion_rejects_lossy_input():
    with pytest.raises(KindMismatchError):
        Field.rational().coerce(0.5)
    with pytest.raises(KindMismatchError):
        Field.real64().coerce(Fraction(1, 2))
    with pytest.raises(KindMismatchError):
        Field.real64().coerce(1j)
    with pytest.raises(KindMismatchError):
        Field.rational().coerce(True)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                   complex(math.inf, 0)])
def test_coercion_rejects_non_finite_floats(value):
    if not isinstance(value, complex):
        with pytest.raises(NonFiniteError):
            Field.real64().coerce(value)
    with pytest.raises(NonFiniteError):
        Field.complex128().coerce(value)


def test_rational_values_are_normalized():
    v = Field.rational().coerce(Fraction(4, -6))
    assert v.numerator == -2 and v.denominator == 3


def test_require_same_rejects_cross_kind():
    with pytest.raises(KindMismatchError):
        Field.rational().require_same(Field.real64())
    with pytest.raises(KindMismatchError):
        Field.complex128().require_same(Field.complex128(StarMode.TRANSPOSE))
