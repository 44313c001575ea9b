"""Exact coefficient field for tableau formulas.

Elements are rational functions over Q in three formal quantities:

* quantum system: Q (the quantum parameter q), X (= q^x) and Y (= q^y),
  where x, y are the two entries of a singular pair.  Monomials carry int
  exponents of Q, X and Y: a rational exponent of q is an int in units of
  1/scale (the relabeling Q -> Q^(1/scale), see bracket).  The API edge,
  _qexp, converts a quantum exponent or point a caller passes once, and
  raises ValueError for a non-integral one rather than rounding it; X, Y
  exponents and LinearExpr.cx, cy go through as_int there in both systems.
* classical system: the polynomial variables x and y themselves (the Q
  slot of a monomial is unused).

Polynomials are term dicts whose coefficients are Python ints; the
rational part of an element lives in one content per element (the
content / primitive-part split).  A stored polynomial is primitive: its
coefficients have gcd 1 and its leading coefficient, at the largest key,
is positive.  By Gauss's lemma a product of primitive polynomials is
again primitive with a positive leading coefficient, so products need no
gcd pass, and an exact quotient of integer polynomials by a primitive one
has integer coefficients, so exact division never leaves the integers.
Only sums need a gcd pass, and every sum of elements, a + b included, is
taken by one function, fe_sum.

The content is a fraction of two coprime ints, the denominator positive,
so content arithmetic is int arithmetic too: a product cancels each
numerator against the other denominator, and a sum takes one lcm and one
gcd (Knuth, TAOCP vol. 2, 4.5.1).  Rat values are split into such pairs
at the API edge and rebuilt only for rendering.

Term dicts come in two key forms, one per stage of the module pipeline:

* trivariate, {(expQ, expX, expY): c}: values symbolic in X and Y before
  the singular point is evaluated (gamma values, check_appendix samples).
  An e/f Coefficient crosses that point on its factors' values and never
  takes this form (_factor_values);
* univariate, {expQ: c}: everything evaluate_at_singular and dv_operator
  return, and every module-stage value built from them (the action, its
  caches, gtcenter's evaluated gammas).  The exponent is an int in units
  of 1/qscale in a module spec and of 1/2 in check_appendix.  A classical
  value is {0: c}, and classical points stay rational.

One element holds one form, and each operation picks the primitives of
that form once (_TRI or _UNI), never per term; an operation that meets
both forms raises TypeError.  The zero element has no terms and belongs
to both.  A value free of X and Y, such as every value of a generic
spec, crosses by evaluate_at_singular at any point.

The singular-point functional, evaluate_at_singular (the value) and
dv_operator (the derivative), has one body per input form:
_element_functional for a FieldElement and _factor_functional for a
Coefficient.  Both read their input at the one point x = y = c, and the
only derivative taken is the antisymmetric one at that point
(_diff_terms): the module has no two-point evaluation and no general
derivative.

Everything is immutable and exact.  Equality is decided by cross
multiplication, so no multivariate gcd is ever required; instead the
denominator is kept as a multiset of small normalized factors (bracket
numerators and the like), which lets sums share factors and lets exact
factor-by-factor cancellation keep intermediate results small.  Only
two-term factors are ever cancelled, by division along exponent chains:
the quantum brackets of the tableau formulas are binomials (see _reduce).
Both key forms divide with one chain walk (_updiv_binomial).  A wider
factor, or a chain longer than _CHAIN_LIMIT, stays in the denominator: the
value stays exact, and it equals and hashes like its reduced form.
"""

from collections import Counter
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from ._rat import Rat, as_int, rat

QUANTUM = "quantum"
CLASSICAL = "classical"

# a binomial division gives up on a chain longer than this
_CHAIN_LIMIT = 10000


class DivisionByZero(ZeroDivisionError):
    """Division by the zero field element."""


class PoleAtEvaluation(ArithmeticError):
    """Denominator vanishes at the evaluation point and the X = Y factor
    cannot be cancelled; signals a non-realizable configuration."""


class NegativeArgument(ValueError):
    """Operation defined for nonnegative integer arguments only."""


def _qexp(e):
    """A quantum Q exponent or point as an int (see the module docstring)."""
    try:
        return as_int(e)
    except ValueError:
        raise ValueError(
            f"quantum exponent {e!r} is not an integer: pass exponents in "
            f"units of 1/scale (the relabeling Q -> Q^(1/scale))") from None


# ---------------------------------------------------------------------------
# term dictionaries: {(expQ, expX, expY): int} or {expQ: int}, no zero
# coefficients stored; the helpers up to _sum serve both key forms
# ---------------------------------------------------------------------------

def _qreduce(n, d):
    """n/d as a content: coprime ints, the denominator positive."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _qmul(an, ad, bn, bd):
    """The content (an/ad)(bn/bd) of two contents: each numerator is
    cancelled against the other denominator, so the product is reduced."""
    if ad == 1 and bd == 1:
        return an * bn, 1
    g = gcd(an, bd)
    h = gcd(bn, ad)
    return (an // g) * (bn // h), (ad // h) * (bd // g)


def _qdiv(an, ad, bn, bd):
    """The content (an/ad)/(bn/bd) of two contents, bn nonzero."""
    if bn < 0:
        return _qmul(an, ad, -bd, -bn)
    return _qmul(an, ad, bd, bn)


def _qsplit(r):
    """A Rat or int as a content pair."""
    return int(r.numerator), int(r.denominator)


def _primitive(d):
    """(content, primitive part) of a nonzero int term dict.  The content
    is the gcd of the coefficients, signed so that the primitive part has
    a positive leading coefficient."""
    g = gcd(*d.values())
    if d[max(d)] < 0:
        g = -g
    if g == 1:
        return 1, d
    return g, {k: c // g for k, c in d.items()}


def _integral(d):
    """(content numerator, content denominator, primitive part) of a term
    dict with exact rational or int coefficients, the form a caller outside
    this module may pass; (0, 1, {}) when every coefficient is zero."""
    d = {k: c for k, c in d.items() if c}
    if not d:
        return 0, 1, {}
    den = lcm(*(int(c.denominator) for c in d.values()))
    g, prim = _primitive(
        {k: int(c.numerator) * (den // int(c.denominator)) for k, c in d.items()}
    )
    return (*_qreduce(g, den), prim)


def _int_q_keys(d):
    """A caller's term dict with every Q exponent passed through _qexp and
    every X and Y exponent through as_int."""
    return {(_qexp(k[0]), as_int(k[1]), as_int(k[2])) if type(k) is tuple else _qexp(k): c
            for k, c in d.items()}


def _collect(pairs, into=None):
    """Sum the coefficients of equal keys over (key, coeff) pairs, on top of
    a copy of into; a key whose sum is zero is dropped, and a zero
    coefficient at a new key is skipped."""
    out = dict(into) if into else {}
    for k, c in pairs:
        s = out.get(k)
        if s is None:
            if c:
                out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _psub(a, b):
    return _collect(((k, -c) for k, c in b.items()), a)


def _sum(parts):
    """Sum n/d * dict over nonempty (n, d, int dict) parts, as (content
    numerator, content denominator, primitive part), or (0, 1, {}) when
    the sum vanishes.

    Every content is rescaled to the common one, the gcd of the
    numerators over the lcm of the denominators, so each part enters the
    sum with an integer multiplier."""
    den = lcm(*(d for _, d, _ in parts))
    g = gcd(*(n for n, _, _ in parts))
    scaled = [((n // g) * (den // d), p) for n, d, p in parts]
    (m0, d0), rest = scaled[0], scaled[1:]
    num = _collect(
        chain.from_iterable(
            d.items() if m == 1 else ((k, m * v) for k, v in d.items())
            for m, d in rest
        ),
        d0 if m0 == 1 else {k: m0 * v for k, v in d0.items()},
    )
    if not num:
        return 0, 1, num
    h, num = _primitive(num)
    return (*_qreduce(g * h, den), num)


def _pmul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    # inline rather than _collect over a generator of pairs: this is the
    # hottest loop, and the generator made it about 8% slower
    out = {}
    for (q1, x1, y1), c1 in a.items():
        for (q2, x2, y2), c2 in b.items():
            k = (q1 + q2, x1 + x2, y1 + y2)
            c = c1 * c2
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def _upmul(a, b):
    """_pmul on univariate dicts: the key of a product term is the sum of
    the two exponents."""
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = get(k, 0) + c1 * c2
    if len(out) == len(a) * len(b):
        return out
    return {k: c for k, c in out.items() if c}


def _times(t, keys, mul=_pmul):
    """t times dict(k) for each factor key k, repeats included."""
    for k in keys:
        t = mul(t, dict(k))
    return t


def _pshift(a, s, sign=1):
    """a times the monomial of key s (sign -1: divided by it)."""
    dq, dx, dy = s
    if sign < 0:
        dq, dx, dy = -dq, -dx, -dy
    return {(q + dq, x + dx, y + dy): c for (q, x, y), c in a.items()}


def _upshift(a, s, sign=1):
    """_pshift on univariate dicts."""
    s = sign * s
    return {e + s: c for e, c in a.items()}


def _pswap_xy(a):
    return {(q, y, x): c for (q, x, y), c in a.items()}


def _pdiv_x_minus_y(a):
    """Exact division by X - Y; returns the quotient dict or None.

    Works on Laurent terms: negative exponents are allowed since X - Y
    divides P exactly when it divides X^m Y^m P.  The chains along
    X/Y are keyed by (Q, X*Y), so the chain-sum test of the chain division
    is the substitution Y -> X.
    """
    return _pdiv_binomial(a, (0, 1, 0), 1, (0, 0, 1), -1)


def _pdiv_binomial(a, lead, lc, trail, tc):
    """Exact division of the int dict a by lc*M_lead + tc*M_trail (lc > 0)
    along exponent chains in the direction v = lead - trail; returns the
    quotient dict or None.

    Every key is cid + t*v on one chain cid, and the factor maps each chain
    into itself, so the division is _updiv_binomial's: with n = len(a) and
    index(cid) < n, the key packs into the int t*n + index(cid), the chains
    become the residue classes mod n, and the factor becomes lc*Q^n + tc.
    A quotient key t*n + index(cid) unpacks to cid + t*v - trail."""
    v = (lead[0] - trail[0], lead[1] - trail[1], lead[2] - trail[2])
    # chain parameter: integer steps along a nonzero component of v
    i = 1 if v[1] else 2 if v[2] else 0
    n = len(a)
    index = {}
    packed = {}
    for k, c in a.items():
        t = k[i] // v[i]
        cid = (k[0] - t * v[0], k[1] - t * v[1], k[2] - t * v[2])
        packed[t * n + index.setdefault(cid, len(index))] = c
    quo = _updiv_binomial(packed, n, lc, 0, tc)
    if quo is None:
        return None
    cids = list(index)
    out = {}
    for e, c in quo.items():
        t, j = divmod(e, n)
        q, x, y = cids[j]
        out[(q + t * v[0] - trail[0], x + t * v[1] - trail[1],
             y + t * v[2] - trail[2])] = c
    return out


def _updiv_binomial(a, lead, lc, trail, tc):
    """Exact division of the univariate int dict a by lc*Q^lead + tc*Q^trail
    (lc > 0), the one chain walk; returns the quotient dict or None.

    With step = lead - trail, an exponent e lies on chain e mod step at
    position e // step, and the factor maps each chain into itself, so it
    divides a exactly when it divides every chain.  For Q^lead - Q^trail
    that holds exactly when every chain's coefficients sum to zero, which a
    first pass checks before any chain dict is built.  A quotient term that
    lc does not divide rejects too (the factor is primitive), and a chain
    longer than _CHAIN_LIMIT gives up."""
    step = lead - trail
    if lc == 1 and tc == -1:
        sums = {}
        get = sums.get
        for e, c in a.items():
            r = e % step
            sums[r] = get(r, 0) + c
        if any(sums.values()):
            return None
    chains = {}
    for e, c in a.items():
        t, r = divmod(e, step)
        chains.setdefault(r, {})[t] = c
    quo = {}
    for r, d in chains.items():
        tmax, tmin = max(d), min(d)
        if tmax - tmin > _CHAIN_LIMIT:
            return None
        base = r - lead
        for t in range(tmax, tmin - 1, -1):
            c = d.pop(t, None)
            if not c:
                continue
            if lc == 1:
                qc = c
            else:
                qc, rem = divmod(c, lc)
                if rem:
                    return None
            quo[base + t * step] = qc
            lower = d.get(t - 1)
            v = qc * tc
            if lower is None:
                if v:
                    d[t - 1] = -v
            else:
                lower = lower - v
                if lower:
                    d[t - 1] = lower
                else:
                    del d[t - 1]
        if any(d.values()):
            return None
    return quo


# shared by every element equal to a scalar: no term dict is mutated once built
_PONE = {(0, 0, 0): 1}
_UONE = {0: 1}


def _normalize_factor(d):
    """Split a nonzero int term dict into its canonical factor, the
    removed scalar and the removed exponent shift.

    The canonical factor is the primitive part with a positive leading
    coefficient, shifted to zero minimal exponents in Q, X and Y; the
    removed scalar is the signed content (an int), and the removed shift
    is the key of the minimal exponents, or None when they are all zero.
    Two factors that differ by a rational scalar and a monomial get the
    same canonical factor."""
    g, d = _primitive(d)
    mq = min(k[0] for k in d)
    mx = min(k[1] for k in d)
    my = min(k[2] for k in d)
    if not (mq or mx or my):
        return d, g, None
    s = (mq, mx, my)
    return _pshift(d, s, -1), g, s


def _unormalize_factor(d):
    """_normalize_factor on univariate dicts: the shift is the minimal
    exponent."""
    g, d = _primitive(d)
    s = min(d)
    if not s:
        return d, g, None
    return _upshift(d, s, -1), g, s


def _fkey(d):
    return tuple(sorted(d.items()))


class _Ring(NamedTuple):
    """The term-dict primitives of one key form."""

    one: dict
    mul: object
    shift: object
    normalize: object
    div_binomial: object


_TRI = _Ring(_PONE, _pmul, _pshift, _normalize_factor, _pdiv_binomial)
_UNI = _Ring(_UONE, _upmul, _upshift, _unormalize_factor, _updiv_binomial)


def _ring(d):
    """The primitives of the nonempty term dict d's key form."""
    return _TRI if type(next(iter(d))) is tuple else _UNI


_MIXED = "an operation mixes trivariate (Q, X, Y) and univariate (Q) elements"


class FieldElement:
    """(cn / cd) * num * product(nfac) / product(fden).

    cn / cd is the content, two coprime ints with cd > 0; cn is nonzero
    unless the element is zero, whose content is 0 / 1.  Content
    arithmetic is int arithmetic, and a Rat is made only when the element
    is rendered.  num is a primitive int term dict with a positive leading
    coefficient, empty for zero.  nfac and fden are sorted multisets of
    factor keys (_fkey of a canonical factor from _normalize_factor:
    primitive, positive leading coefficient, zero minimal exponents).
    Products concatenate factor multisets, and only sums expand, after
    extracting shared factors; trivial factors are dropped, and a built
    numerator is divided by each two-term denominator factor that divides
    it exactly (_reduce), while a wider factor stays in fden.  Equality
    is exact via cross multiplication of the integer parts.  __hash__
    reads two invariants of the value, however it is factored or reduced:
    the content (all parts are primitive with a positive leading
    coefficient) and the leading key lead(num) + sum(lead(nfac)) -
    sum(lead(fden)), since under a monomial order such as lex the leading
    key of a product is the sum of the factors' (Geddes, Czapor and
    Labahn, Algorithms for Computer Algebra, 1992, ch. 2).

    num and the factors of one element share one key form: trivariate
    (Q, X, Y) keys before the singular point is evaluated, bare Q
    exponents after it (see the module docstring).  The constructors
    below build trivariate elements; evaluate_at_singular and dv_operator
    return univariate ones, and so does the constructor when given dicts
    keyed by bare Q exponents.  Arithmetic and equality between the two
    forms raise TypeError.  Every exponent in a key is an int, Q exponents
    in the caller's units of 1/scale.
    """

    __slots__ = ("cn", "cd", "num", "nfac", "fden", "system")

    def __init__(self, num, den=None, system=None):
        """num / den for term dicts with exact rational or int coefficients,
        both keyed alike; each Q exponent goes through _qexp."""
        if system is None:
            raise TypeError("system is required")
        nn, nd, num = _integral(_int_q_keys(num))
        one = _ring(num).one if num else _PONE
        dn, dd, den = _integral(one if den is None else _int_q_keys(den))
        if not den:
            raise DivisionByZero("zero denominator")
        if num and _ring(den) is not _ring(num):
            raise TypeError(_MIXED)
        built = _build(*_qdiv(nn, nd, dn, dd), num, [], [den], system)
        self.cn = built.cn
        self.cd = built.cd
        self.num = built.num
        self.nfac = built.nfac
        self.fden = built.fden
        self.system = system

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, cn, cd, num, nfac, fden, system):
        e = object.__new__(cls)
        e.cn = cn
        e.cd = cd
        e.num = num
        e.nfac = nfac
        e.fden = fden
        e.system = system
        return e

    @classmethod
    def zero(cls, system):
        """The zero of system, one element shared per system (_ZEROS): no
        element or term dict is mutated once built."""
        z = _ZEROS.get(system)
        return cls._raw(0, 1, {}, (), (), system) if z is None else z

    @classmethod
    def one(cls, system):
        return cls._raw(1, 1, _PONE, (), (), system)

    @classmethod
    def scalar(cls, value, system):
        c = rat(value)
        if not c:
            return cls.zero(system)
        return cls._raw(*_qsplit(c), _PONE, (), (), system)

    @classmethod
    def monomial(cls, system, coeff, expq=0, expx=0, expy=0):
        c = rat(coeff)
        e = _qexp(expq)
        if not c:
            return cls.zero(system)
        return cls._raw(*_qsplit(c), {(e, as_int(expx), as_int(expy)): 1}, (), (), system)

    @classmethod
    def q_monomial(cls, system, coeff, expq=0):
        """coeff * Q^expq in the univariate form; in the classical system
        expq is 0 and this is the scalar coeff."""
        c = rat(coeff)
        e = _qexp(expq)
        if not c:
            return cls.zero(system)
        return cls._raw(*_qsplit(c), {e: 1} if e else _UONE, (), (), system)

    # -- views ---------------------------------------------------------------

    def expanded_num(self):
        """num with all numerator factors multiplied out (the content is
        not included)."""
        if not self.nfac:
            return self.num
        return _times(self.num, self.nfac, _ring(self.num).mul)

    @property
    def den(self):
        """The denominator expanded to a single term dict."""
        if not self.num:
            return dict(_PONE)
        ring = _ring(self.num)
        return _times(dict(ring.one), self.fden, ring.mul)

    def is_zero(self):
        return not self.num

    def is_one(self):
        if self.cn != 1 or self.cd != 1:
            return False
        if not self.fden and not self.nfac:
            return self.num == _ring(self.num).one
        return self.expanded_num() == self.den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.system != other.system:
            return False
        ring = self._check(other)
        if ring is None:
            return not self.num and not other.num
        if self.cn != other.cn or self.cd != other.cd:
            return False
        if self.fden == other.fden and self.nfac == other.nfac:
            return self.num == other.num
        ca, cb = Counter(self.fden), Counter(other.fden)
        common = ca & cb
        left = _times(self.expanded_num(), (cb - common).elements(), ring.mul)
        right = _times(other.expanded_num(), (ca - common).elements(), ring.mul)
        return left == right

    def __hash__(self):
        # the content and the leading key (see the class docstring); a
        # factor key's largest key is its last, and the content numerator
        # and the exponents enter doubled, since CPython hashes the int -1
        # like -2
        if not self.num:
            return hash((self.system, 0, 1))
        ups = [max(self.num)] + [k[-1][0] for k in self.nfac]
        downs = [k[-1][0] for k in self.fden]
        if type(ups[0]) is tuple:
            lead = tuple(2 * (sum(u[i] for u in ups) - sum(d[i] for d in downs))
                         for i in range(3))
        else:
            lead = 2 * (sum(ups) - sum(downs))
        return hash((self.system, 2 * self.cn, self.cd, lead))

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other):
        """The primitives of the two operands' key form, or None when
        either is zero."""
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.system != other.system:
            raise ValueError("mixed number systems")
        a, b = self.num, other.num
        if not a or not b:
            return None
        tri = type(next(iter(a))) is tuple
        if tri is not (type(next(iter(b))) is tuple):
            raise TypeError(_MIXED)
        return _TRI if tri else _UNI

    def __add__(self, other):
        """fe_sum of the two, once _check has raised any operand error."""
        self._check(other)
        return fe_sum([(self, None), (other, None)], self.system)

    def __sub__(self, other):
        return self.__add__(-other)

    def __neg__(self):
        return FieldElement._raw(-self.cn, self.cd, self.num, self.nfac, self.fden,
                                 self.system)

    def __mul__(self, other):
        """Two factor-free elements of one system whose numerator is _UONE
        itself multiply their contents, as fe_sum does for such a pair
        without building the product; a polynomial left operand pays one
        identity test for it."""
        if (self.num is _UONE and type(other) is FieldElement and other.num is _UONE
                and self.system == other.system
                and not (self.nfac or self.fden or other.nfac or other.fden)):
            return _scalar(_qmul(self.cn, self.cd, other.cn, other.cd), self.system)
        ring = self._check(other)
        if ring is None:
            return FieldElement.zero(self.system)
        if other.num == ring.one:
            num = self.num
        elif self.num == ring.one:
            num = other.num
        else:
            num = ring.mul(self.num, other.num)
        nfac, fden = self.nfac + other.nfac, self.fden + other.fden
        if nfac or fden:
            nfac, fden = _cancel_pairs(nfac, fden)
        cn, cd = _qmul(self.cn, self.cd, other.cn, other.cd)
        return FieldElement._raw(cn, cd, num, nfac, fden, self.system)

    def __truediv__(self, other):
        ring = self._check(other)
        if not other.num:
            raise DivisionByZero("division by the zero element")
        if ring is None:
            return FieldElement.zero(self.system)
        cn, cd = _qdiv(self.cn, self.cd, other.cn, other.cd)
        nfac = self.nfac + other.fden
        if other.num != ring.one:
            built = _build(cn, cd, self.num, nfac, [other.num], self.system,
                           pre_den=self.fden)
            nfac2, fden2 = _cancel_pairs(built.nfac, built.fden + other.nfac)
            return FieldElement._raw(built.cn, built.cd, built.num, nfac2, fden2,
                                     self.system)
        nfac2, fden2 = _cancel_pairs(nfac, self.fden + other.nfac)
        return FieldElement._raw(cn, cd, self.num, nfac2, fden2, self.system)

    def scale(self, c):
        c = rat(c)
        if not c or not self.num:
            return FieldElement.zero(self.system)
        cn, cd = _qmul(self.cn, self.cd, *_qsplit(c))
        return FieldElement._raw(cn, cd, self.num, self.nfac, self.fden, self.system)

    # -- rendering ------------------------------------------------------------

    def __repr__(self):
        return f"<FieldElement {format_element(self)}>"

    def __str__(self):
        return format_element(self)


_ZEROS = {s: FieldElement._raw(0, 1, {}, (), (), s) for s in (QUANTUM, CLASSICAL)}


def _scalar(content, system):
    """The factor-free element content * _UONE of the scalar fast path,
    built here rather than by _raw, whose classmethod call and argument
    unpacking cost about a third of a scalar product."""
    e = object.__new__(FieldElement)
    e.cn, e.cd = content
    e.num = _UONE
    e.nfac = e.fden = ()
    e.system = system
    return e


def fe_sum(elems, system):
    """Sum the products a * b of a list of (a, b) factor pairs in one pass;
    b = None stands for 1.  This is the one sum of field elements: a + b
    is fe_sum([(a, None), (b, None)], system).

    Scalar pairs, whose factors have no nfac/fden and the numerator _UONE
    itself (every classical module-stage value), are never multiplied:
    their int content products are summed over the running lcm of their
    denominators and reduced once, and a zero factor drops its pair.  At
    the first pair of another shape every product a * b is built, and the
    products are summed as follows.  Products that carry the same factors
    are added first; then the group sums are put over one denominator:
    shared numerator factors stay factored, the denominator union is taken
    once, and every group sum is expanded only against what it is missing.
    A group whose sum vanishes takes no part in the union.  The parts
    share one key form (TypeError otherwise), and every factor, zero
    factors included, belongs to system (ValueError otherwise, as for +)."""
    den, s = 1, 0
    for a, b in elems:
        if a.system != system or b is not None and b.system != system:
            raise ValueError("mixed number systems")
        if a.num is _UONE and not (a.nfac or a.fden) and (b is None or (
                b.num is _UONE and not (b.nfac or b.fden))):
            n, d = (a.cn, a.cd) if b is None else (a.cn * b.cn, a.cd * b.cd)
            if d == den:
                s += n
            else:
                m = lcm(den, d)
                s, den = s * (m // den) + n * (m // d), m
        elif a.num and (b is None or b.num):
            break
    else:
        return _scalar(_qreduce(s, den), system) if s else FieldElement.zero(system)
    pairs, elems = elems, []
    for a, b in pairs:
        if a.system != system:  # a * b checks b against a
            raise ValueError("mixed number systems")
        e = a if b is None else a * b
        if e.num:
            elems.append(e)
    if len(elems) == 1:
        return elems[0]
    forms = {type(next(iter(e.num))) is tuple for e in elems}
    if len(forms) > 1:
        raise TypeError(_MIXED)
    ring = _TRI if forms.pop() else _UNI
    groups = {}
    for e in elems:
        groups.setdefault((e.nfac, e.fden), []).append((e.cn, e.cd, e.num))
    sums = []
    for key, parts in groups.items():
        cn, cd, num = _sum(parts) if len(parts) > 1 else parts[0]
        if num:
            sums.append((cn, cd, num, key))
    if len(sums) < 2:
        if not sums:
            return FieldElement.zero(system)
        cn, cd, num, (nfac, fden) = sums[0]
        return _build_raw(cn, cd, num, nfac, fden, system, ring)
    sums = [(cn, cd, num, Counter(nfac), Counter(fden))
            for cn, cd, num, (nfac, fden) in sums]
    common_n, lcd = sums[0][3], sums[0][4]
    for _, _, _, nf, df in sums[1:]:
        common_n = common_n & nf
        lcd = lcd | df
    parts = [(cn, cd, _times(num, ((nf - common_n) + (lcd - df)).elements(), ring.mul))
             for cn, cd, num, nf, df in sums]
    cn, cd, num = _sum(parts)
    if not num:
        return FieldElement.zero(system)
    return _build_raw(cn, cd, num, tuple(sorted(common_n.elements())),
                      tuple(sorted(lcd.elements())), system, ring)


def _cancel_pairs(nfac, fden):
    """Drop factors shared by the two multisets: one merge over both
    sorted.  An empty side returns at once, with the other side sorted."""
    if not nfac:
        return (), tuple(sorted(fden))
    if not fden:
        return tuple(sorted(nfac)), ()
    a, b = sorted(nfac), sorted(fden)
    keep_a, keep_b = [], []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            keep_a.append(x)
            i += 1
        else:
            keep_b.append(y)
            j += 1
    keep_a += a[i:]
    keep_b += b[j:]
    return tuple(keep_a), tuple(keep_b)


def _build_raw(cn, cd, num, nfac, fden, system, ring):
    """Fast path: num primitive and factors already canonical, just reduce
    the expanded part."""
    if not num:
        return FieldElement.zero(system)
    if fden:
        num, fden = _reduce(num, fden, ring)
        nfac, fden = _cancel_pairs(nfac, fden)
    return FieldElement._raw(cn, cd, num, nfac, fden, system)


def _build(cn, cd, num, raw_num_factors, raw_den_factors, system, pre_den=()):
    """(cn / cd) * num * product(raw_num_factors) / product(raw_den_factors).

    cn / cd is a content; num and the raw factors are int term dicts of
    any content and sign, keyed like num (a numerator factor may also be
    a factor key, taken as canonical); the contents and monomial shifts
    of num and of every raw factor are folded into the content and num.
    pre_den holds factor keys already in the denominator."""
    if not num:
        return FieldElement.zero(system)
    ring = _ring(num)
    one = ring.one
    g, num = _primitive(num)
    if g != 1:
        cn, cd = _qmul(cn, cd, g, 1)
    nfac = []
    for d in raw_num_factors:
        if isinstance(d, tuple):
            nfac.append(d)
            continue
        if not d:
            return FieldElement.zero(system)
        canon, g, s = ring.normalize(d)
        if g != 1:
            cn, cd = _qmul(cn, cd, g, 1)
        if s is not None:
            num = ring.shift(num, s)
        if canon != one:
            nfac.append(_fkey(canon))
    fden = list(pre_den)
    for d in raw_den_factors:
        if not d:
            raise DivisionByZero("zero denominator factor")
        canon, g, s = ring.normalize(d)
        if g != 1:
            cn, cd = _qdiv(cn, cd, g, 1)
        if s is not None:
            num = ring.shift(num, s, -1)
        if canon != one:
            fden.append(_fkey(canon))
    nfac, fden = _cancel_pairs(tuple(nfac), tuple(fden))
    if fden:
        num, fden = _reduce(num, fden, ring)
    return FieldElement._raw(cn, cd, num, nfac, fden, system)


def _reduce(num, fden, ring):
    """Cancel the two-term denominator factors that divide num exactly.

    Only binomials are tried.  The paper's e_k and f_k coefficients divide
    by quantum brackets [a]_q = (q^a - q^-a)/(q - q^-1) alone, whose
    normalized numerators and denominators are binomials, and the
    singular-point functional cancels the X - Y content of those brackets,
    again a binomial division (_pdiv_x_minus_y).  A binomial goes through
    the one chain division, _updiv_binomial (via _pdiv_binomial for
    trivariate keys), which rejects M_lead - M_trail by its chain sums
    before any division.
    A wider factor, such as a classical x - y + m or a multiplied-out
    product, is carried in fden and never tried.  The value stays exact
    either way: equality cross-multiplies, and hashing reads only the
    content and the leading key, which reduction does not change.

    A factor key holds its two sorted items, (trail, tc), (lead, lc).  fden
    is sorted, so a repeated factor comes right after its first copy; when
    that copy did not divide, num has not changed since, and the repeat is
    not tried again."""
    out = []
    changed = False
    div = ring.div_binomial
    failed = None
    for k in fden:
        if not num or k == failed or len(k) != 2:
            out.append(k)
            continue
        (trail, tc), (lead, lc) = k
        q = div(num, lead, lc, trail, tc)
        if q is None:
            out.append(k)
            failed = k
        else:
            num = q
            changed = True
    if not changed:
        return num, fden
    return num, tuple(out)


# ---------------------------------------------------------------------------
# linear expressions in the singular variables (entry differences, weights)
# ---------------------------------------------------------------------------

class LinearExpr(NamedTuple):
    """const + cx*x + cy*y with integer cx, cy.  const is an int in quantum
    units of 1/scale (see bracket), a Rat classically.

    Differences of two tableau entries always have cx, cy in {-1, 0, 1};
    weight exponents may carry larger integer coefficients.
    """

    const: object
    cx: int
    cy: int

    def __add__(self, other):
        return LinearExpr(self.const + other.const, self.cx + other.cx, self.cy + other.cy)

    def __sub__(self, other):
        return LinearExpr(self.const - other.const, self.cx - other.cx, self.cy - other.cy)

    def __neg__(self):
        return LinearExpr(-self.const, -self.cx, -self.cy)


def linear_element(d: LinearExpr, system) -> FieldElement:
    """The expression itself as a field element (classical building block)."""
    if system == QUANTUM:
        raise ValueError("linear_element is a classical-system construction")
    cn, cd, num = _integral({(0, 0, 0): rat(d.const), (0, 1, 0): as_int(d.cx),
                             (0, 0, 1): as_int(d.cy)})
    if not num:
        return FieldElement.zero(system)
    return FieldElement._raw(cn, cd, num, (), (), system)


def q_power(d: LinearExpr, system) -> FieldElement:
    """Q^d as a monomial (quantum only)."""
    if system != QUANTUM:
        raise ValueError("q_power requires the quantum system")
    return FieldElement.monomial(system, 1, expq=d.const, expx=d.cx, expy=d.cy)


def bracket(d: LinearExpr, system=QUANTUM, scale=1) -> FieldElement:
    """Quantum bracket [d]_q = (Q^d - Q^-d)/(Q - Q^-1) of an entry difference.

    In the classical system the bracket of d is d itself.  A scale of D
    means exponents are expressed in units of 1/D (the relabeling
    Q -> Q^(1/D)): d.const is an int already scaled by the caller, and the
    reference denominator becomes Q^D - Q^-D.
    """
    if system == CLASSICAL:
        return linear_element(d, system)
    c, cx, cy = _qexp(d.const), as_int(d.cx), as_int(d.cy)
    num = _psub({(c, cx, cy): 1}, {(-c, -cx, -cy): 1})
    den = {(scale, 0, 0): 1, (-scale, 0, 0): -1}
    return _build(1, 1, num, [], [den], system)


class Coefficient(NamedTuple):
    """sign * prod([d] for d in num) / prod([d] for d in den), [d] the
    system's bracket (d itself classically), with num and den tuples of
    LinearExpr, entry differences in the caller's exponent units."""

    sign: int
    num: tuple
    den: tuple
    system: str


def _factor_values(coeff: Coefficient, c):
    """The pole rules of a Coefficient at x = y = c, for both systems:
    (sign, numerator values, denominator values) with every denominator
    factor vanishing at c cancelled; sign 0 if a numerator factor is zero.
    L = cx*x + cy*y + const is valued by A = const + (cx + cy)c and
    s = cx - cy: quantum (A, s), classical (b*A, b*s, b), b making ints.
    Raises ValueError unless |cx|, |cy| <= 1, DivisionByZero for a zero
    denominator factor and PoleAtEvaluation for a vanishing one with no
    proportional vanishing numerator factor L', then L' = +-L, [L']/[L] = +-1."""
    if coeff.system == QUANTUM:
        c = _qexp(c)

        def value(d):
            if d.cx * d.cx > 1 or d.cy * d.cy > 1:
                raise ValueError("a Coefficient factor needs |cx|, |cy| <= 1")
            return d, _qexp(d.const) + (d.cx + d.cy) * c, d.cx - d.cy
    else:
        pc, rc = _qsplit(c if isinstance(c, (int, Rat)) else rat(c))

        def value(d):
            if d.cx * d.cx > 1 or d.cy * d.cy > 1:
                raise ValueError("a Coefficient factor needs |cx|, |cy| <= 1")
            p, q = _qsplit(d.const)
            return d, p * rc + (d.cx + d.cy) * pc * q, (d.cx - d.cy) * q * rc, q * rc
    dens, nums = [value(d) for d in coeff.den], [value(d) for d in coeff.num]
    for v in dens:
        if not (v[1] or v[0].cx or v[0].cy):
            raise DivisionByZero("zero denominator factor")
    for v in nums:
        if not (v[1] or v[0].cx or v[0].cy):
            return 0, [], []
    sign, kept = coeff.sign, []
    for v in dens:
        if v[1]:
            kept.append(v[1:])
            continue
        d = v[0]
        m = next((m for m in nums if not m[1] and m[0].cx * d.cy == m[0].cy * d.cx), None)
        if m is None:
            raise PoleAtEvaluation("a denominator factor vanishes at the singular point "
                                   "and no numerator factor cancels it")
        nums.remove(m)
        sign *= (m[0].cx or m[0].cy) * (d.cx or d.cy)
    return sign, [v[1:] for v in nums], kept


def _bracket_product(values, derivative):
    """(value, 4 * derivative or {} unless asked) of a product of quantum
    factors [A]_q = (Q^A - Q^-A)/W, W = Q^D - Q^-D, with the derivative
    s(Q^A + Q^-A)/4 (dv_operator's prefactor cancels W): dicts, W left out."""
    v, dv = _UONE, {}
    for a, s in values:
        b = {a: 1, -a: -1} if a else {}
        if derivative:
            dv = _upmul(dv, b)
            if s:
                dv = _collect(_upmul(v, {a: s, -a: s} if a else {0: 2 * s}).items(), dv)
        v = _upmul(v, b)
    return v, dv


def _factor_functional(coeff: Coefficient, c, scale, derivative):
    """evaluate_at_singular (derivative false) or dv_operator (true) of a
    Coefficient: the quotient rule on its factor values, vanishing numerator
    factors included, builds only the asked value; a quantum one keeps each
    denominator bracket its own binomial, with |#num - #den| copies of W."""
    sign, nums, dens = _factor_values(coeff, c)
    if not sign:
        return FieldElement.zero(coeff.system)
    if coeff.system == CLASSICAL:
        out = []
        for values in (nums, dens):  # the product rule on ints
            v, dv, s = 1, 0, 1
            for a, e, b in values:
                v, dv, s = v * a, dv * a + v * e, s * b
            out += (v, dv, s)
        p, p1, bn, q, q1, bd = out
        n, d = (p1 * q - p * q1, 2 * bn * q * q) if derivative else (p, bn * q)
        if not n:
            return FieldElement.zero(CLASSICAL)
        return _scalar((sign * bd * n, 1), CLASSICAL) / _scalar((d, 1), CLASSICAL)
    w, bs = {scale: 1, -scale: -1}, [{b: 1, -b: -1} for b, _ in dens]
    p, p1 = _bracket_product(nums, derivative)
    e = len(dens) - len(nums) + derivative
    if derivative and p:
        q, q1 = _bracket_product(dens, True)
        p1, bs = _psub(_upmul(p1, q), _upmul(p, q1)), bs + bs
    return _build(sign, 4 if derivative else 1, p1 if derivative else p, [w] * e,
                  bs + [w] * -e, QUANTUM)


def q_pochhammer_factorial(m: int, system=QUANTUM, scale=1) -> FieldElement:
    """(m)!-analogue built from (t)_{q^-2} = (q^(-2t) - 1)/(q^-2 - 1).

    Returns the plain factorial m! in the classical system (the t -> t
    degeneration of each factor).
    """
    if m < 0:
        raise NegativeArgument(f"factorial of {m}")
    if system == CLASSICAL:
        v = 1
        for t in range(2, m + 1):
            v *= t
        return FieldElement.scalar(v, system)
    out = FieldElement.one(system)
    for t in range(2, m + 1):
        # (t)_{q^-2} = 1 + q^-2 + ... + q^(-2(t-1)), primitive as it stands
        terms = {(-2 * s * scale, 0, 0): 1 for s in range(t)}
        out = out * FieldElement._raw(1, 1, terms, (), (), system)
    return out


def _diff_terms(a, system):
    """The antisymmetric derivative of a trivariate int term dict in one
    pass: X d/dX - Y d/dY (quantum) or d/dx - d/dy (classical)."""
    if system == QUANTUM:
        return {k: c * (k[1] - k[2]) for k, c in a.items() if k[1] != k[2]}
    return _collect(chain.from_iterable(
        (((q, x - 1, y), c * x), ((q, x, y - 1), -c * y)) for (q, x, y), c in a.items()))


def tau_swap(f: FieldElement) -> FieldElement:
    """Exchange X and Y (classical: x and y)."""
    return _build(
        f.cn,
        f.cd,
        _pswap_xy(f.num),
        [_pswap_xy(dict(k)) for k in f.nfac],
        [_pswap_xy(dict(k)) for k in f.fden],
        f.system,
    )


def _eval_terms(terms, c, system):
    """Substitute X, Y -> Q^c (classical: x, y -> c) in a trivariate int
    term dict, as a univariate (content numerator, content denominator,
    primitive part) triple; (0, 1, {}) when the value is zero.

    A quantum term goes to the key q + (x + y)c.  A classical term is
    c^(x + y): with c = p/r every term is brought over r^max(x + y), and
    one division remains.  A negative power of x or of y at c = 0 is a
    pole, even where the total degree is not negative."""
    if system == QUANTUM:
        d = _collect((q + (x + y) * c, v) for (q, x, y), v in terms.items())
        if not d:
            return 0, 1, d
        g, d = _primitive(d)
        return g, 1, d
    if not terms:
        return 0, 1, {}
    p, r = int(c.numerator), int(c.denominator)
    if not p and any(x < 0 or y < 0 for _, x, y in terms):
        raise PoleAtEvaluation("a negative power of a variable evaluated at zero")
    lo = min(x + y for _, x, y in terms)
    hi = max(x + y for _, x, y in terms)
    s = sum(v * p ** (x + y - lo) * r ** (hi - x - y) for (_, x, y), v in terms.items())
    # value = s * p^lo * r^-hi
    num, den = s, 1
    for base, e in ((p, lo), (r, -hi)):
        if e >= 0:
            num *= base ** e
        else:
            den *= base ** -e
    if not num:
        return 0, 1, {}
    return (*_qreduce(num, den), _UONE)


def _diffval(d, c, system, scale):
    """The singular-point functional applied to a bare trivariate term
    dict, assuming it does not vanish identically: prefactor times the
    evaluated antisymmetric derivative, as a univariate (content
    numerator, content denominator, primitive part) triple."""
    cn, cd, dv = _eval_terms(_diff_terms(d, system), c, system)
    if not dv:
        return cn, cd, dv
    if system == QUANTUM:
        return (*_qmul(cn, cd, 1, 4), _upmul(dv, {scale: 1, -scale: -1}))
    return (*_qmul(cn, cd, 1, 2), dv)


def _split_xy_factor(d, c, system):
    """Split the X - Y content off one factor at x = y = c.

    Returns (order, value, rest) with d = (X - Y)^order * rest.  value is
    rest evaluated at the point, as an _eval_terms triple, or None when
    rest still vanishes there for a reason other than X - Y.  Each exact
    division by X - Y lowers the X-span of the nonzero factor by one, so
    the loop ends at any order."""
    order = 0
    while True:
        v = _eval_terms(d, c, system)
        if v[2]:
            return order, v, d
        q = _pdiv_x_minus_y(d)
        if q is None:
            return order, None, d
        order += 1
        d = q


def _cancel_xy(f, c):
    """Cancel the X - Y content of f's denominator factors against its
    numerator, factor by factor.

    X - Y is prime, so it divides the numerator product only through one of
    its parts (num or an nfac factor).  Returns (numerator dicts,
    [(denominator dict, value at the point)]) with f equal to its content
    times the product of the numerator dicts over the product of the
    denominator dicts; no denominator value is zero."""
    if _ring(f.num) is _UNI:
        raise TypeError("the singular-point functionals take trivariate elements")
    system = f.system
    nums = [f.num] + [dict(k) for k in f.nfac]
    dens = []
    for k in f.fden:
        order, v, rest = _split_xy_factor(dict(k), c, system)
        if v is None:
            raise PoleAtEvaluation(
                "denominator factor vanishes at the singular point and is "
                "not divisible by X - Y"
            )
        dens.append((rest, v))
        for _ in range(order):
            for i, part in enumerate(nums):
                q = _pdiv_x_minus_y(part)
                if q is not None:
                    nums[i] = q
                    break
            else:
                raise PoleAtEvaluation("pole at the singular point does not cancel")
    return nums, dens


def _build_values(cn, cd, num, num_vals, den_vals, system):
    """(cn / cd) * num * product(num_vals) / product(den_vals) for
    _eval_terms triples."""
    for vn, vd, _ in num_vals:
        cn, cd = _qmul(cn, cd, vn, vd)
    for vn, vd, _ in den_vals:
        cn, cd = _qdiv(cn, cd, vn, vd)
    return _build(cn, cd, num, [v for _, _, v in num_vals], [v for _, _, v in den_vals],
                  system)


def _element_functional(f, c, scale, derivative):
    """evaluate_at_singular (derivative false) or dv_operator (true) of a
    FieldElement.  The X - Y content of every denominator factor is first
    cancelled against the numerator factor by factor (_cancel_xy), which
    leaves a product of parts with no denominator vanishing at the point,
    and every numerator part is evaluated there.

    The value is the product of the part values, zero if a part vanishes.
    The derivative is the product rule on the parts: at most one numerator
    part may vanish, in which case only its derivative survives; with two
    or more vanishing parts it is zero; otherwise it is the value times
    the logarithmic derivative, the denominator's negated."""
    system = f.system
    c = _qexp(c) if system == QUANTUM else rat(c)
    if not f.num:
        return FieldElement.zero(system)
    nums, den_parts = _cancel_xy(f, c)
    den_vals = [v for _, v in den_parts]
    vanishing = None
    num_parts = []
    for d in nums:
        v = _eval_terms(d, c, system)
        if v[2]:
            num_parts.append((d, v))
        elif derivative and vanishing is None:
            vanishing = d
        else:
            return FieldElement.zero(system)
    num_vals = [v for _, v in num_parts]
    if not derivative:
        (vn, vd, num), rest = num_vals[0], num_vals[1:]
        return _build_values(*_qmul(f.cn, f.cd, vn, vd), num, rest, den_vals, system)
    if vanishing is not None:
        # only the vanishing factor's derivative survives the product rule
        on, od, out = _diffval(vanishing, c, system, scale)
        if not out:
            return FieldElement.zero(system)
        return _build_values(*_qmul(f.cn, f.cd, on, od), out, num_vals, den_vals, system)
    # logarithmic derivative over all factors, the denominator's negated
    parts = []
    for sign, group in ((1, num_parts), (-1, den_parts)):
        for d, (vn, vd, v) in group:
            dn, dd, dv = _diffval(d, c, system, scale)
            if dv:
                parts.append((_build(*_qdiv(sign * dn, dd, vn, vd), dv, [], [v], system), None))
    total = fe_sum(parts, system)
    if total.is_zero():
        return total
    return _build_values(f.cn, f.cd, _UONE, num_vals, den_vals, system) * total


def evaluate_at_singular(f, c, scale=1) -> FieldElement:
    """Substitute X -> Q^c and Y -> Q^c (classical: x, y -> c).

    A quantum c is an int in the units of f's Q exponents; a classical c
    is any rational.  X - Y content is cancelled exactly between the two
    sides before the substitution, to any order per factor.  A
    FieldElement is read by _element_functional; a Coefficient f is read
    on its factors (_factor_functional), building no polynomial in X, Y,
    and scale is its brackets' D (see bracket), unused for a FieldElement.
    The value is univariate."""
    functional = _factor_functional if isinstance(f, Coefficient) else _element_functional
    return functional(f, c, scale, False)


def dv_operator(f, c, scale=1) -> FieldElement:
    """The singular-point functional:

    quantum   ((Q - Q^-1)/4) (X d/dX - Y d/dY) f, then X, Y -> Q^c;
    classical (1/2)(d/dx - d/dy) f, then x, y -> c.

    The Euler form is the x-derivative of f(q^x, q^y): d/dx = ln q * X d/dX,
    which cancels the 1/ln q of the defining formula.  With exponents in
    units of 1/D (scale=D) the prefactor becomes (Q^D - Q^-D)/4 and c is the
    evaluation exponent in those units, an int; a classical c is any
    rational.

    The same two bodies as evaluate_at_singular's read f: the product rule
    on the parts left by X - Y cancellation (_element_functional), or on
    the factors of a Coefficient (_factor_functional).  The value is
    univariate.
    """
    functional = _factor_functional if isinstance(f, Coefficient) else _element_functional
    return functional(f, c, scale, True)


# ---------------------------------------------------------------------------
# canonical plain-text rendering
# ---------------------------------------------------------------------------

def _fmt_term(key, coeff, system):
    q, x, y = key
    powers = (("Q", q), ("X", x), ("Y", y)) if system == QUANTUM else (("x", x), ("y", y))
    return " * ".join([str(coeff)] + [f"{name}^{e}" for name, e in powers if e])


def format_terms(terms, system, scale=1):
    """The terms, each coefficient multiplied by scale, in decreasing order;
    a univariate exponent e renders as the key (e, 0, 0)."""
    if not terms:
        return "0"
    keys = sorted(terms, reverse=True)
    full = (lambda k: k) if _ring(terms) is _TRI else (lambda e: (e, 0, 0))
    return " + ".join(_fmt_term(full(k), scale * terms[k], system) for k in keys)


def format_element(f: FieldElement) -> str:
    num = f.expanded_num()
    if not f.fden:
        return format_terms(num, f.system, Rat(f.cn, f.cd))
    # the denominator is shown with leading coefficient 1
    den = f.den
    lc = den[max(den)]
    return (f"({format_terms(num, f.system, Rat(f.cn, f.cd * lc))}) / "
            f"({format_terms(den, f.system, Rat(1, lc))})")
