"""Arbitrary-precision rationals.

gmpy2.mpq when available (much faster), fractions.Fraction otherwise.  Both
hash compatibly with int, so they can share dict keys.

Rat holds the contents of field elements, rational Q exponents, tableau
entries and scalars only: term-dict coefficients in ``exactalg`` are
Python ints, with one rational content per element.
"""

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat


def rat(a, b=None):
    """Coerce to an exact rational.  Accepts ints, rationals and 'p/q' strings."""
    if b is not None:
        return Rat(a, b)
    if isinstance(a, str):
        return Rat(a)
    return Rat(a)


def is_integral(r) -> bool:
    return r.denominator == 1


def as_int(r) -> int:
    if r.denominator != 1:
        raise ValueError(f"{r} is not an integer")
    return int(r.numerator)
