"""Univariate polynomials with exact rational coefficients.

Coefficients are stored ascending by power of x with trailing zeros
stripped, so the zero polynomial has an empty coefficient tuple and the
leading coefficient of a nonzero polynomial is never zero.  The public
constructor and the internal ``Polynomial._raw`` strip what they are given;
:meth:`Polynomial.derivative` and :meth:`Polynomial.antiderivative` need no
strip, as their leading coefficients d c_d and c_d / (d + 1) are nonzero
whenever c_d is.  Every constructor builds the coefficient tuple once and
stores it through the ``coeffs`` slot descriptor, past the immutability
guard of ``__setattr__``: the certify path builds thousands of short
polynomials per basis.

Coefficients are int-first: the constructor, :meth:`Polynomial.scale` by
any factor but 1 and :meth:`Polynomial.antiderivative` store an ``int``
wherever a coefficient is integral and a ``Fraction`` only where it has a
denominator (:func:`scalar`).  Most operands of the package are integers,
and ``int`` arithmetic is far cheaper than ``Fraction`` arithmetic.  Sums
and products of ``Fraction`` coefficients are not normalised back and may
leave an integral ``Fraction``; ``1 == Fraction(1)``, their hashes agree
and :func:`format_rational` prints both as ``1``, so the type never shows
in comparisons or output.  All arithmetic is exact; there is no floating
point anywhere in this package, and scalars are divided only through
:func:`divide` (``int / int`` would give a float).

A coefficient already held is kept, not recomputed.  The derivative keeps
the linear coefficient c_1 as the same object instead of forming 1 * c_1,
:meth:`Polynomial.nth_derivative` does the same through it at order 1,
``scale(1)`` returns the polynomial itself, and trailing zeros are found
by truth value rather than by ``== 0``.  A ``Fraction`` product builds a
new object through two gcds, and every later comparison with the held
coefficient then runs ``Fraction.__eq__`` where an identical object would
stop at identity; the coboundary checks of :mod:`~sl2cohom.reduced`
compare exactly such coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from operator import mul
from typing import Iterable, Union

Scalar = Union[Fraction, int]


def parse_rational(text: str) -> Fraction:
    """Parse the canonical text form "p/q" or "p" of an exact rational.

    Digit-group underscores are refused: ``Fraction`` reads "1_0" as 10.
    """
    if "_" in text:
        raise ValueError(f"underscore in rational {text!r}")
    return Fraction(text.strip())


def exact(value: Scalar) -> Fraction:
    """value as a Fraction.  A float is refused: it is inexact before any
    arithmetic starts (0.1 is not 1/10), so every later answer would be
    about a different input."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; pass an int, a Fraction or a 'p/q' string")
    return Fraction(value)


def scalar(value: Scalar) -> Scalar:
    """value as an int when it is integral, else as a Fraction; a float is
    refused through :func:`exact`."""
    if type(value) is not int:
        value = exact(value)
        if value.denominator == 1:
            return value.numerator
    return value


def divide(value: Scalar, divisor: Scalar) -> Scalar:
    """value / divisor exactly: an int when the quotient is integral, a
    Fraction otherwise."""
    if type(value) is int and type(divisor) is int:
        quotient, remainder = divmod(value, divisor)
        return Fraction(value, divisor) if remainder else quotient
    return scalar(exact(value) / exact(divisor))


def format_rational(value: Scalar) -> str:
    """Canonical text form: "p/q" with q > 0 and gcd(|p|, q) = 1, or "p".

    ``str`` already gives it for both scalar types: a ``Fraction`` is kept
    in lowest terms with a positive denominator and prints its numerator
    alone when that denominator is 1, so no conversion is needed."""
    return str(value)


class Polynomial:
    """Immutable univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, cs: list) -> "Polynomial":
        """Internal fast path: cs must hold int or Fraction values, an int
        wherever the caller can give one cheaply, and never a float (any
        quotient in cs comes from :func:`divide`)."""
        while cs and not cs[-1]:
            cs.pop()
        p = _new(cls)
        _set_coeffs(p, tuple(cs))
        return p

    @staticmethod
    def _nonzero_constant(c: Scalar) -> "Polynomial":
        """Internal fast path: the constant c, a nonzero int or Fraction
        held as it is, with no zero test; the shared ``ONE`` for the int 1."""
        if type(c) is int and c == 1:
            return ONE
        p = _new(Polynomial)
        _set_coeffs(p, (c,))
        return p

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def monomial(power: int, coeff: Scalar = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("negative power")
        return Polynomial((0,) * power + (coeff,))

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, power: int) -> Scalar:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial._raw(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        left, right = self.coeffs, other.coeffs
        if not left or not right:
            return Polynomial._raw([])
        out = [0] * (len(left) + len(right) - 1)
        sparse = [(j, b) for j, b in enumerate(right) if b]
        for i, a in enumerate(left):
            if a:
                for j, b in sparse:
                    out[i + j] += a * b
        return Polynomial._raw(out)

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: Scalar) -> "Polynomial":
        """c times the polynomial; ``scale(1)`` is the polynomial itself."""
        c = scalar(c)
        if type(c) is int:
            # a Fraction from scalar is never integral, so only an int is 0 or 1
            if c == 1:
                return self
            if not c:
                return Polynomial(())
        return Polynomial._raw([scalar(c * a) for a in self.coeffs])

    def derivative(self) -> "Polynomial":
        """The derivative; its leading coefficient d c_d is never zero.

        The linear coefficient c_1 becomes the constant term as the object
        it is; only the higher terms are multiplied.
        """
        cs = self.coeffs
        p = _new(Polynomial)
        _set_coeffs(p, (cs[1], *map(mul, range(2, len(cs)), cs[2:])) if len(cs) > 1 else ())
        return p

    def nth_derivative(self, order: int) -> "Polynomial":
        if order == 0:
            return self
        if order == 1:
            # the factor perm(1, 1) of c_1 is the only factor 1 at any order
            return self.derivative()
        # x^i goes to i (i - 1) ... (i - order + 1) x^(i - order)
        return Polynomial._raw([perm(i, order) * c
                                for i, c in enumerate(self.coeffs[order:], order)])

    def antiderivative(self) -> "Polynomial":
        """The primitive with zero constant term.

        The constant term c becomes the coefficient of x as it is, an
        integral ``Fraction`` going back to ``int``; only the higher terms
        are divided.  The leading coefficient c_d / (d + 1) is never zero.
        """
        cs = self.coeffs
        if not cs:
            return self
        c = cs[0]
        p = _new(Polynomial)
        _set_coeffs(p, (0, c if type(c) is int else scalar(c),
                        *map(divide, cs[1:], range(2, len(cs) + 1))))
        return p

    def __call__(self, point: Scalar) -> Scalar:
        point = scalar(point)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    # -- serialisation ------------------------------------------------

    def to_json(self) -> list[str]:
        """Ascending coefficient array of canonical rational strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(format_rational(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(xpow)
                elif c == -1:
                    parts.append(f"-{xpow}")
                else:
                    parts.append(f"{format_rational(c)}*{xpow}")
        return " + ".join(parts).replace("+ -", "- ")


_new = object.__new__
#: Stores a polynomial's coefficient tuple through the slot descriptor, past
#: the immutability guard of ``Polynomial.__setattr__``.
_set_coeffs = Polynomial.coeffs.__set__

ONE = Polynomial.one()
X = Polynomial.x()
