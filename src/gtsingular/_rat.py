"""Arbitrary-precision rationals.

gmpy2.mpq with the ``gmpy2`` extra (much faster), fractions.Fraction otherwise.
Both hash compatibly with int, so they can share dict keys.

Rat holds tableau entries, classical points and the scalars that cross the
API edge of ``exactalg``; inside it, coefficients, contents and Q exponents
are Python ints.  A quantum Q exponent is an int in units of 1/scale, and
``as_int`` converts one at the edge without truncating.
"""

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rat


def rat(a, b=None):
    """Coerce to an exact rational.  Accepts ints, rationals and 'p/q' strings."""
    if b is not None:
        return Rat(a, b)
    return Rat(a)


def is_integral(r) -> bool:
    return r.denominator == 1


def as_int(v) -> int:
    """v as an int, exactly: an int passes as it is, and a rational, float
    or 'p/q' string must be integral.  Raises ValueError otherwise; it
    never truncates."""
    if type(v) is int:
        return v
    r = rat(v)
    if r.denominator != 1:
        raise ValueError(f"{v} is not an integer")
    return int(r.numerator)
