"""Arbitrary-precision rationals.

gmpy2.mpq with the ``gmpy2`` extra (much faster), fractions.Fraction otherwise.
Both hash compatibly with int, so they can share dict keys.

Rat holds tableau entries and the scalars and Q exponents that cross the
API edge of ``exactalg``; inside it, coefficients and contents are Python
ints, and so are the scaled Q exponents of module specs and check_appendix.
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


def as_int(r) -> int:
    if r.denominator != 1:
        raise ValueError(f"{r} is not an integer")
    return int(r.numerator)
