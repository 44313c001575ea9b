"""Arbitrary-precision rationals.

gmpy2.mpq when available (much faster), fractions.Fraction otherwise.  Both
hash compatibly with int, so they can share dict keys.

Rat holds rational Q exponents, tableau entries and the scalars that
cross the API edge of ``exactalg``: inside it, term-dict coefficients are
Python ints and the content of an element is a pair of coprime ints.
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
