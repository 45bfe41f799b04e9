"""Scalar kinds and the star involution.

Three kinds of scalars are supported: exact rationals (arbitrary-precision
``fractions.Fraction``), real float64 and complex128, a pair of float64
(Python ``complex``).  A :class:`Field` bundles the kind with the star
mode, i.e. whether ``star`` acts as plain transposition or conjugate
transposition.
Exact kinds never round; float kinds never pretend to be exact.

Rationals and reals force the transpose star.  Complex scalars default to
the conjugate transpose but plain transposition is selectable, which is
exactly the regime where trace-word separation is known to break down.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import KindMismatchError, NonFiniteError


class Kind(enum.Enum):
    RATIONAL = "rational"
    REAL64 = "float64"
    COMPLEX128 = "complex128"


class StarMode(enum.Enum):
    TRANSPOSE = "transpose"
    CONJUGATE_TRANSPOSE = "conjugate"


@dataclass(frozen=True)
class Field:
    kind: Kind
    star_mode: StarMode

    def __post_init__(self):
        if self.kind in (Kind.RATIONAL, Kind.REAL64):
            if self.star_mode is not StarMode.TRANSPOSE:
                raise KindMismatchError(
                    "%s scalars only support the transpose star" % self.kind.value
                )

    @staticmethod
    def rational() -> "Field":
        return Field(Kind.RATIONAL, StarMode.TRANSPOSE)

    @staticmethod
    def real64() -> "Field":
        return Field(Kind.REAL64, StarMode.TRANSPOSE)

    @staticmethod
    def complex128(star_mode: StarMode = StarMode.CONJUGATE_TRANSPOSE) -> "Field":
        return Field(Kind.COMPLEX128, star_mode)

    @property
    def is_exact(self) -> bool:
        return self.kind is Kind.RATIONAL

    @property
    def is_complex(self) -> bool:
        return self.kind is Kind.COMPLEX128

    def zero(self):
        return _ZERO[self.kind]

    def one(self):
        return _ONE[self.kind]

    def coerce(self, value):
        """Accept a raw scalar of matching kind; reject cross-kind input.

        ints are welcome everywhere (they embed exactly in all three kinds);
        anything lossy (float into rational, complex into real) is an error,
        and so is a NaN or infinite float.
        """
        if isinstance(value, bool):
            raise KindMismatchError("bool is not a scalar")
        if self.kind is Kind.RATIONAL:
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise KindMismatchError("rational field expects int or Fraction, got %r" % (value,))
        if self.kind is Kind.REAL64:
            if isinstance(value, (int, float)):
                return _finite(float, value)
            raise KindMismatchError("float64 field expects int or float, got %r" % (value,))
        if isinstance(value, (int, float, complex)):
            return _finite(complex, value)
        raise KindMismatchError("complex128 field expects a number, got %r" % (value,))

    def require_same(self, other: "Field"):
        if self != other:
            raise KindMismatchError(
                "kind/star mismatch: %s/%s vs %s/%s"
                % (self.kind.value, self.star_mode.value, other.kind.value, other.star_mode.value)
            )


def _finite(caster, value):
    """``caster(value)`` when it is finite; NaN, infinities and ints beyond
    float range are rejected."""
    try:
        out = caster(value)
    except OverflowError:
        raise NonFiniteError("integer of %d bits is beyond float range"
                             % value.bit_length()) from None
    if not cmath.isfinite(out):
        raise NonFiniteError("non-finite scalar %r" % (value,))
    return out


_ZERO = {Kind.RATIONAL: Fraction(0), Kind.REAL64: 0.0, Kind.COMPLEX128: 0j}
_ONE = {Kind.RATIONAL: Fraction(1), Kind.REAL64: 1.0, Kind.COMPLEX128: 1 + 0j}


def value_str(value) -> str:
    """Deterministic human rendering: '3/4' for rationals, repr otherwise.

    Rationals print in full at any size: ``str()`` of an int refuses more
    than ``sys.get_int_max_str_digits()`` digits, and a trace of a long word
    easily has that many, but ``Decimal`` converts ints without that limit."""
    if isinstance(value, Fraction):
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else "%s/%s" % (num, Decimal(value.denominator))
    return repr(value)
