import operator
import random
from functools import reduce
from itertools import chain
from math import comb, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gtsingular import _rat
from gtsingular._rat import Rat, as_int, rat
from gtsingular.exactalg import (
    CLASSICAL,
    QUANTUM,
    DivisionByZero,
    FieldElement,
    LinearExpr,
    NegativeArgument,
    PoleAtEvaluation,
    bracket,
    dv_operator,
    evaluate_at_singular,
    fe_sum,
    linear_element,
    q_pochhammer_factorial,
    q_power,
    tau_swap,
    _collect,
    _fkey,
    _integral,
    _normalize_factor,
    _pdiv_binomial,
    _pmul,
    _sum,
    _times,
    _CHAIN_LIMIT,
    _build,
    _UNI,
    _UONE,
    _cancel_pairs,
    _diffval,
    _eval_terms,
    _reduce,
    _unormalize_factor,
    _updiv_binomial,
    _upmul,
    format_element,
)
from gtsingular.verify import pole_families, sample_smooth

from oracles import (
    counter_cancel_pairs,
    euler_derivative,
    evaluate_at,
    fraction_normalize,
    fraction_pdiv_exact,
    fraction_pmul,
    naive_collect,
    oracle_dv,
    oracle_long_division,
    pairwise_sum,
    partial_derivative,
    scalar_value,
    sum_of_products,
    terms_at,
)


def mono(coeff, eq=0, ex=0, ey=0, system=QUANTUM):
    return FieldElement.monomial(system, coeff, eq, ex, ey)


def Q(e=1):
    return mono(1, eq=e)


def X(e=1):
    return mono(1, ex=e)


def Y(e=1):
    return mono(1, ey=e)


ONE = FieldElement.one(QUANTUM)
ZERO = FieldElement.zero(QUANTUM)


def alone(elems):
    """Each element as an fe_sum factor pair (e, None), which fe_sum sums
    as e itself."""
    return [(e, None) for e in elems]

XY = LinearExpr(Rat(0), 1, -1)  # the difference x - y


def random_smooth(rng, system=QUANTUM, nterms=4, scale=1):
    """Random element smooth on X = Y: Laurent numerator over a denominator
    built from factors that do not vanish at X = Y = Q^c.  In units of
    1/scale (see bracket) the draw is the same, each Q exponent times
    scale."""
    num = ZERO if system == QUANTUM else FieldElement.zero(system)
    for _ in range(nterms):
        num = num + FieldElement.monomial(
            system,
            Rat(rng.randint(-4, 4)),
            scale * rng.randint(-3, 3) if system == QUANTUM else 0,
            rng.randint(-2, 2) if system == QUANTUM else rng.randint(0, 2),
            rng.randint(-2, 2) if system == QUANTUM else rng.randint(0, 2),
        )
    den = FieldElement.one(system)
    for _ in range(rng.randint(0, 2)):
        m = rng.choice([-2, -1, 1, 2, 3])
        den = den * bracket(LinearExpr(scale * m, 1, -1), system, scale)
    if num.is_zero():
        num = FieldElement.one(system)
    return num / den


class TestFieldArithmetic:
    def test_additive_inverse(self):
        a = Q(1) - Q(-1)
        b = Q(-1) - Q(1)
        assert (a + b).is_zero()

    def test_multiplicative_inverse(self):
        assert ((X() / Y()) * (Y() / X())).is_one()

    def test_cross_multiplication_identity(self):
        lhs = (X(2) - Y(2)) / (X() - Y())
        rhs = X() + Y()
        assert lhs == rhs

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            ONE / ZERO

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero, match="zero denominator"):
            FieldElement({0: 1}, {}, QUANTUM)

    def test_mixed_systems_rejected(self):
        with pytest.raises(ValueError):
            ONE + FieldElement.one(CLASSICAL)

    def test_hash_agrees_with_eq(self):
        # the double inverse keeps X - Y as a numerator factor, the plain
        # difference keeps it expanded: equal, so they must hash equal
        a = X() - Y()
        b = ONE / (ONE / (X() - Y()))
        assert a == b
        assert len({a, b}) == 1


small_rats = st.builds(
    Rat,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3),
)


def poly_elems(system=QUANTUM):
    def build(entries):
        out = FieldElement.zero(system)
        for c, eq, ex, ey in entries:
            out = out + FieldElement.monomial(
                system, c, eq if system == QUANTUM else 0, ex, ey
            )
        return out

    return st.lists(
        st.tuples(
            small_rats,
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2) if system == QUANTUM
            else st.integers(min_value=0, max_value=2),
            st.integers(min_value=-2, max_value=2) if system == QUANTUM
            else st.integers(min_value=0, max_value=2),
        ),
        max_size=4,
    ).map(build)


@settings(max_examples=60, deadline=None)
@given(poly_elems(), poly_elems(), poly_elems())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a
    assert a - a == FieldElement.zero(a.system)


@settings(max_examples=40, deadline=None)
@given(
    small_rats,
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
def test_bracket_odd(c, cx, cy):
    d = LinearExpr(c, cx, cy)
    assert bracket(-d, CLASSICAL) == -bracket(d, CLASSICAL)
    # quantum: in units of 1/6, where every small_rats value is integral
    d6 = LinearExpr(as_int(6 * c), cx, cy)
    assert bracket(-d6, QUANTUM, 6) == -bracket(d6, QUANTUM, 6)


def test_rat_parses_strings():
    assert rat("3/4") == Rat(3, 4)
    assert rat("-6/4") == Rat(-3, 2)
    assert rat("-2") == -2 and rat("-2").denominator == 1


class TestBracket:
    def test_two(self):
        assert bracket(LinearExpr(2, 0, 0)) == Q(1) + Q(-1)

    def test_zero(self):
        assert bracket(LinearExpr(0, 0, 0)).is_zero()

    def test_x_minus_y_vanishes_on_diagonal(self):
        assert evaluate_at_singular(bracket(XY), 3).is_zero()

    def test_classical_is_linear(self):
        d = LinearExpr(Rat(5, 2), 1, -1)
        assert bracket(d, CLASSICAL) == linear_element(d, CLASSICAL)


class TestPochhammerFactorial:
    def test_empty_product(self):
        assert q_pochhammer_factorial(0).is_one()
        assert q_pochhammer_factorial(1).is_one()

    def test_two(self):
        # (1)_{q^-2} * (2)_{q^-2} = 1 * (1 + q^-2)
        assert q_pochhammer_factorial(2) == ONE + Q(-2)

    def test_negative(self):
        with pytest.raises(NegativeArgument):
            q_pochhammer_factorial(-1)

    def test_classical(self):
        assert q_pochhammer_factorial(3, CLASSICAL) == FieldElement.scalar(6, CLASSICAL)


class TestEulerDerivative:
    def test_monomial_rule(self):
        f = mono(1, 0, 3, -1)
        assert euler_derivative(f, "x") == f.scale(3)

    def test_antisymmetric_combination(self):
        # (X dX - Y dY)(X/Y - Y/X) = 2(X/Y + Y/X), by expanding monomials
        f = X() / Y() - Y() / X()
        got = euler_derivative(f, "x") - euler_derivative(f, "y")
        assert got == (X() / Y() + Y() / X()).scale(2)

    def test_constant(self):
        assert euler_derivative(Q(5) + ONE, "x").is_zero()

    def test_requires_quantum(self):
        with pytest.raises(ValueError):
            euler_derivative(FieldElement.one(CLASSICAL), "x")


class TestTauSwap:
    def test_swap(self):
        assert tau_swap(X() / Y()) == Y() / X()

    def test_symmetric_fixed(self):
        f = X() * Y() + Q(2)
        assert tau_swap(f) == f

    def test_bracket_antisymmetry(self):
        b = bracket(XY)
        assert tau_swap(b) == -b


class TestEvaluation:
    def test_ratio_of_equal_powers(self):
        # the point 7/3 in units of 1/3
        assert evaluate_at_singular(X() / Y(), 7).is_one()

    def test_cancellation_before_substitution(self):
        f = (X() - Y()) / (X() - Y())
        assert evaluate_at_singular(f, 1).is_one()

    def test_substitution_values(self):
        # X^2 Y^-1 at the point 1/2, in units of 1/2: Q^(1/2) is Q^1
        f = X(2) * Y(-1)
        assert evaluate_at_singular(f, 1) == FieldElement.q_monomial(QUANTUM, 1, 1)

    def test_two_point(self):
        f = X() * Y()
        assert evaluate_at(f, 2, 3) == FieldElement.q_monomial(QUANTUM, 1, 5)

    def test_true_pole_raises(self):
        with pytest.raises(PoleAtEvaluation):
            evaluate_at_singular(ONE / (X() - Y()), 0)

    def test_collision_pole_raises(self):
        # 1/[x - 3]_q has a denominator vanishing at x = 3 that is not an
        # X - Y factor
        f = ONE / bracket(LinearExpr(Rat(-3), 1, 0))
        with pytest.raises(PoleAtEvaluation):
            evaluate_at_singular(f, 3)
        # 1/[1]_q = 1
        assert evaluate_at_singular(f, 4) == FieldElement.q_monomial(QUANTUM, 1)

    def test_classical_laurent_term_at_zero_is_a_pole(self):
        # a classical monomial denominator becomes a negative exponent
        x = FieldElement.monomial(CLASSICAL, 1, 0, 1, 0)
        y = FieldElement.monomial(CLASSICAL, 1, 0, 0, 1)
        one = FieldElement.one(CLASSICAL)
        for f in (one / x, x / y, (x + one) / (x * y)):
            for functional in (evaluate_at_singular, dv_operator):
                with pytest.raises(PoleAtEvaluation):
                    functional(f, 0)
        assert evaluate_at_singular(one / x, 2) == FieldElement.q_monomial(CLASSICAL, Rat(1, 2))
        assert dv_operator(one / x, 2) == FieldElement.q_monomial(CLASSICAL, Rat(-1, 8))

    def test_classical_evaluation(self):
        x = linear_element(LinearExpr(Rat(0), 1, 0), CLASSICAL)
        y = linear_element(LinearExpr(Rat(0), 0, 1), CLASSICAL)
        f = (x * x - y * y) / (x - y)
        assert evaluate_at_singular(f, 3) == FieldElement.q_monomial(CLASSICAL, 6)


class TestDvOperator:
    def test_normalizer(self):
        # the defining calibration: the functional sends [x-y]_q to 1
        # at the point 4/7, in units of 1/7
        assert dv_operator(bracket(XY, QUANTUM, 7), 4, 7).is_one()

    def test_classical_normalizer(self):
        assert dv_operator(bracket(XY, CLASSICAL), 5).is_one()

    def test_symmetric_vanishes(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_smooth(rng)
            sym = f + tau_swap(f)
            assert dv_operator(sym, 2).is_zero()

    def test_antisymmetry_under_tau(self):
        rng = random.Random(8)
        for _ in range(20):
            f = random_smooth(rng)
            assert dv_operator(tau_swap(f), 1) == -dv_operator(f, 1)

    def test_evaluation_identity(self):
        # ev(f) = dv([x-y]_q f) for smooth f
        rng = random.Random(9)
        for _ in range(20):
            f = random_smooth(rng)
            assert dv_operator(bracket(XY) * f, 2) == evaluate_at_singular(f, 2)

    def test_product_rule(self):
        rng = random.Random(10)
        for _ in range(20):
            f1 = random_smooth(rng)
            f2 = random_smooth(rng)
            c = Rat(rng.randint(-3, 3))
            lhs = dv_operator(f1 * f2, c)
            rhs = dv_operator(f1, c) * evaluate_at_singular(f2, c) + evaluate_at_singular(
                f1, c
            ) * dv_operator(f2, c)
            assert lhs == rhs

    def test_tau_inside_bracket_product(self):
        rng = random.Random(11)
        b = bracket(XY)
        for _ in range(20):
            f = random_smooth(rng)
            assert dv_operator(b * f, 3) == dv_operator(b * tau_swap(f), 3)

    def test_difference_quotient_identity(self):
        # h = (f - f^tau)/[x-y]_q is smooth and ev(h) = 2 dv(f)
        rng = random.Random(12)
        b = bracket(XY)
        for _ in range(20):
            f = random_smooth(rng)
            h = (f - tau_swap(f)) / b
            assert evaluate_at_singular(h, 1) == dv_operator(f, 1).scale(2)

    def test_symmetric_factor_identity(self):
        # dv(f) dv([x-y]_q g) = dv(fg) whenever g is symmetric
        rng = random.Random(13)
        b = bracket(XY)
        for _ in range(20):
            f = random_smooth(rng)
            g0 = random_smooth(rng)
            g = g0 + tau_swap(g0)
            lhs = dv_operator(f, 2) * dv_operator(b * g, 2)
            assert lhs == dv_operator(f * g, 2)

    def test_classical_matches_same_identities(self):
        rng = random.Random(14)
        b = bracket(XY, CLASSICAL)
        for _ in range(10):
            f = random_smooth(rng, system=CLASSICAL)
            assert dv_operator(b * f, 2) == evaluate_at_singular(f, 2)
            sym = f + tau_swap(f)
            assert dv_operator(sym, 2).is_zero()


class TestQPower:
    def test_monomial(self):
        assert q_power(LinearExpr(Rat(3), 1, 1), QUANTUM) == Q(3) * X() * Y()

    def test_classical_partial(self):
        x = linear_element(LinearExpr(Rat(2), 1, 0), CLASSICAL)
        assert partial_derivative(x * x, "x") == x.scale(2)


def vanishing_den(f, c):
    """Whether some denominator factor of f vanishes at x = y = c."""
    return any(
        evaluate_at(FieldElement(dict(k), None, f.system), c, c).is_zero()
        for k in f.fden
    )


SYSTEMS = pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])


class TestDvPoleInputs:
    """dv_operator against the expanded quotient rule on inputs with a
    denominator factor that vanishes at the point.  Each input is built as
    a product with 1/[x-y]: products cancel only identical factors, so the
    vanishing factor stays in the denominator (a quotient would divide it
    out of the numerator in the classical system)."""

    @SYSTEMS
    def test_difference_quotient(self, system):
        rng = random.Random(21)
        inv_b = FieldElement.one(system) / bracket(XY, system)
        for _ in range(8):
            f = random_smooth(rng, system)
            c = Rat(rng.randint(-3, 3))
            h = (f - tau_swap(f)) * inv_b
            assert vanishing_den(h, c)
            assert dv_operator(h, c) == oracle_dv(h, c)

    @SYSTEMS
    def test_pole_family_totals(self, system):
        # the points may be half-integers: quantum exponents in units of 1/2
        scale = 2 if system == QUANTUM else 1
        rng = random.Random(22)
        inv_b = FieldElement.one(system) / bracket(XY, system, scale)
        for _ in range(2):
            c = scale * Rat(rng.randint(-4, 4), rng.choice([1, 1, 2]))
            for name, fam, _ in pole_families(rng, system, c, scale):
                total = FieldElement.zero(system)
                for fm, hm in fam:
                    total = total + fm * hm
                total = total * inv_b
                assert vanishing_den(total, c), name
                assert dv_operator(total, c, scale) == oracle_dv(total, c, scale), name

    @SYSTEMS
    def test_squared_bracket_over_bracket(self, system):
        # half-integer points: quantum exponents in units of 1/2
        scale = 2 if system == QUANTUM else 1
        rng = random.Random(23)
        one = FieldElement.one(system)
        b = bracket(XY, system, scale)
        inv_b = one / b
        # a double inverse keeps [x-y]^2 as one numerator factor, and 1/[x-y]^2
        # has one denominator factor of second order in X - Y
        bb_factor = one / (one / (b * b))
        inv_bb = one / (b * b)
        for _ in range(4):
            f = random_smooth(rng, system, scale=scale)
            c = scale * Rat(rng.randint(-3, 3), 2)
            want = dv_operator(b * f, c, scale)
            for g in ((b * b * f) * inv_b, f * bb_factor * inv_b, (b * b * b * f) * inv_bb):
                assert vanishing_den(g, c)
                assert dv_operator(g, c, scale) == oracle_dv(g, c, scale) == want

    @SYSTEMS
    def test_x_minus_y_content_cancels_to_any_order(self, system):
        """(X - Y)^5 (X + Y) / (X - Y)^5 is X + Y: the one six-term
        denominator factor is (X - Y)^5, cancelled to order 5 against the
        numerator before the point is substituted."""
        xy5 = {(0, 5 - j, j): comb(5, j) * (-1) ** j for j in range(6)}
        f = FieldElement(_pmul(xy5, {(0, 1, 0): 1, (0, 0, 1): 1}), xy5, system)
        assert [len(k) for k in f.fden] == [6]
        ev = FieldElement.q_monomial(system, 2, 2) if system == QUANTUM else (
            FieldElement.q_monomial(system, 4))
        assert evaluate_at_singular(f, 2) == ev
        assert dv_operator(f, 2).is_zero()

    @SYSTEMS
    def test_uncancellable_pole_raises(self, system):
        b = bracket(XY, system)
        one = FieldElement.one(system)
        for f in (one / b, (one + b) / (b * b)):
            with pytest.raises(PoleAtEvaluation):
                dv_operator(f, 1)
            with pytest.raises(PoleAtEvaluation):
                oracle_dv(f, 1)


def random_factor(rng, system, binomial=False):
    """A normalized factor of 2-4 terms (2 when binomial): primitive with
    integer coefficients, a positive leading coefficient and zero minimal
    exponents.  Quantum factors have Q exponents in units of 1/6, so that
    they stand for thirds and halves; a third of the other classical ones
    are x - y + c."""
    if not binomial and system == CLASSICAL and rng.random() < 1 / 3:
        c = Rat(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        return {(0, 1, 0): Rat(1), (0, 0, 1): Rat(-1), (0, 0, 0): c}
    nterms = 2 if binomial else rng.randint(2, 4)
    terms = {}
    while len(terms) < nterms:
        q = as_int(6 * Rat(rng.randint(-3, 3), rng.choice([1, 2, 3]))) if system == QUANTUM else 0
        key = (q, rng.randint(0, 2), rng.randint(0, 2))
        terms[key] = Rat(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
    return _normalize_factor(_integral(terms)[2])[0]


def random_laurent(rng, system, nterms):
    out = {}
    for _ in range(nterms):
        q = as_int(6 * Rat(rng.randint(-4, 4), rng.choice([1, 2]))) if system == QUANTUM else 0
        key = (q, rng.randint(-2, 2), rng.randint(-2, 2))
        out[key] = rng.choice([-2, -1, 1, 3]) * rng.choice([1, 3])
    return out


@SYSTEMS
def test_pdiv_exact_against_long_division(system):
    """The chain division by a binomial returns the quotient of every
    product and rejects every perturbed product, as the step-bounded long
    division does."""
    rng = random.Random(31)
    for _ in range(150):
        f = random_factor(rng, system, binomial=True)
        (trail, tc), (lead, lc) = _fkey(f)
        g = random_laurent(rng, system, rng.randint(1, 5))
        a = _pmul(f, g)
        assert _pdiv_binomial(a, lead, lc, trail, tc) == oracle_long_division(a, f) == g
        # f has two terms, so it divides no monomial and a + c*m is no
        # multiple of f
        bad = dict(a)
        key = (3 * rng.randint(-4, 4) if system == QUANTUM else 0,
               rng.randint(-3, 4), rng.randint(-3, 4))
        bad[key] = bad.get(key, 0) + rng.choice([-1, 1, 2])
        bad = {k: v for k, v in bad.items() if v}
        assert _pdiv_binomial(bad, lead, lc, trail, tc) is None
        assert oracle_long_division(bad, f) is None


@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
def test_fe_sum_agrees_with_repeated_addition(system):
    # parts that share every factor take fe_sum's numerator-only branch;
    # a differently factored part sends the same sum down the general path
    rng = random.Random(17)
    for _ in range(10):
        base = sample_smooth(rng, system)
        shared = [
            FieldElement._raw(s.cn, s.cd, s.expanded_num(), base.nfac, base.fden, system)
            for s in (sample_smooth(rng, system) for _ in range(3))
        ]
        other = sample_smooth(rng, system)
        for parts in (shared, shared + [other]):
            expected = FieldElement.zero(system)
            for p in parts:
                expected = expected + p
            assert fe_sum(alone(parts), system) == expected
        assert fe_sum(alone(shared + [-p for p in shared]), system).is_zero()


def test_collect_against_naive_sum():
    """Per-key sums with zeros dropped, on top of an unmutated copy of into."""
    rng = random.Random(5)
    keys = [(q, x, 0) for q in (0, 1) for x in (-1, 0, 1)]
    for _ in range(300):
        into = {k: Rat(rng.choice([-2, -1, 1, 2])) for k in rng.sample(keys, rng.randint(0, 3))}
        before = dict(into)
        pairs = [(rng.choice(keys), Rat(rng.randint(-2, 2), rng.choice([1, 2])))
                 for _ in range(rng.randint(0, 12))]
        assert _collect(pairs, into) == naive_collect(pairs, into)
        assert into == before
    # a key that cancels to zero and then appears again, and a zero pair at
    # a new key
    k, j = keys[:2]
    assert _collect([(k, Rat(1)), (k, Rat(-1)), (j, Rat(0)), (k, Rat(2))]) == {k: 2}
    assert _collect([(k, Rat(-3))], {k: Rat(3), j: Rat(1)}) == {j: 1}


@pytest.mark.parametrize("form", ["trivariate", "univariate"])
def test_cancel_pairs_against_counter_difference(form):
    """The merge drops the factor keys shared by two multisets as Counter
    difference does, on unsorted inputs with repeated keys and empty sides."""
    rng = random.Random(7)
    if form == "trivariate":
        pool = [_fkey({(0, 0, 0): 1, (q, x, y): s}) for q, x, y, s in
                ((2, 0, 0, -1), (1, 1, 0, 1), (0, 1, 1, -1), (3, 0, 1, 1))]
    else:
        pool = [_fkey({0: 1, t: s}) for t, s in ((1, -1), (2, 1), (4, -1), (6, 1))]
    for _ in range(400):
        nfac = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        fden = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
        assert _cancel_pairs(nfac, fden) == counter_cancel_pairs(nfac, fden)
    a, b = sorted(pool[:2])
    assert _cancel_pairs((a, b, a), (a, a, a)) == ((b,), (a,))
    assert _cancel_pairs((), (b, a)) == ((), (a, b))
    assert _cancel_pairs((b, a), ()) == ((a, b), ())


@SYSTEMS
def test_times_against_repeated_pmul(system):
    rng = random.Random(41)
    for _ in range(40):
        t = random_laurent(rng, system, rng.randint(1, 4))
        f, g = random_factor(rng, system), random_factor(rng, system)
        expected = _pmul(_pmul(_pmul(t, f), g), f)
        assert _times(t, [_fkey(f), _fkey(g), _fkey(f)]) == expected
    assert _times(t, []) == t


def is_canonical_poly(d):
    """A stored polynomial: int coefficients with gcd 1 and a positive
    leading coefficient."""
    return (all(type(c) is int for c in d.values())
            and gcd(*d.values()) == 1 and d[max(d)] > 0)


def is_univariate(d):
    """Whether the nonempty term dict d is keyed by bare Q exponents."""
    return type(next(iter(d))) is not tuple


def min_exponents(d):
    """The minimal exponent of each variable of a nonempty term dict."""
    if is_univariate(d):
        return [min(d)]
    return [min(k[i] for k in d) for i in range(3)]


def is_canonical_content(n, d):
    """A content: an int numerator over a positive int denominator, coprime."""
    return type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1


def is_canonical_element(f):
    """The content of f is canonical, 0/1 for the zero element; every stored
    part of f is primitive, all parts share one key form, and every factor
    key also has zero minimal exponents."""
    if not is_canonical_content(f.cn, f.cd):
        return False
    if not f.num:
        return (f.cn, f.cd) == (0, 1)
    factors = [dict(k) for k in f.nfac + f.fden]
    return (f.cn != 0 and is_canonical_poly(f.num)
            and all(is_canonical_poly(d) for d in factors)
            and all(is_univariate(d) == is_univariate(f.num) for d in factors)
            and all(m == 0 for d in factors for m in min_exponents(d)))


def has_int_keys(f, univariate=False):
    """Every exponent in f's numerator and factors is an int: a bare Q
    exponent, or each of Q, X and Y in a trivariate key, which univariate
    rules out."""
    for d in [f.num] + [dict(k) for k in f.nfac + f.fden]:
        for k in d:
            if type(k) is tuple:
                if univariate or not all(type(e) is int for e in k):
                    return False
            elif type(k) is not int:
                return False
    return True


def scaled(c, d):
    return {k: c * v for k, v in d.items()}


# Term dicts with exact rational coefficients and negative exponents: the
# inputs of the Fraction-coefficient oracles.  Q exponents are in units of
# 1/6, so 3 and 4 stand for the exponents 1/2 and 2/3.
term_keys = st.tuples(
    st.sampled_from([0, 6, -12, 3, -9, 4]),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
nonzero_rats = st.builds(
    Rat,
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.integers(min_value=1, max_value=4),
)
rational_dicts = st.dictionaries(term_keys, nonzero_rats, min_size=1, max_size=5)
rational_binomials = st.dictionaries(term_keys, nonzero_rats, min_size=2, max_size=2)


@settings(max_examples=150, deadline=None)
@given(rational_dicts, rational_dicts)
def test_pmul_matches_fraction_oracle(a, b):
    """The product of the primitive parts is primitive (Gauss's lemma) and,
    times the two contents, is the Fraction-coefficient product."""
    (an, ad, pa), (bn, bd, pb) = _integral(a), _integral(b)
    assert is_canonical_content(an, ad) and is_canonical_content(bn, bd)
    got = _pmul(pa, pb)
    assert is_canonical_poly(got)
    assert scaled(Rat(an, ad) * Rat(bn, bd), got) == fraction_pmul(a, b)


@settings(max_examples=150, deadline=None)
@given(st.lists(rational_dicts, min_size=1, max_size=4), st.booleans())
def test_sum_matches_fraction_oracle(ds, cancel):
    """Contents rescaled to a common one, integer sums, one gcd pass."""
    if cancel:
        ds = ds + [{k: -c for k, c in ds[0].items()}]
    cn, cd, got = _sum([_integral(d) for d in ds])
    want = naive_collect(chain.from_iterable(d.items() for d in ds[1:]), ds[0])
    assert is_canonical_content(cn, cd)
    assert got or (cn, cd) == (0, 1)
    assert scaled(Rat(cn, cd), got) == want
    assert not got or is_canonical_poly(got)


@settings(max_examples=200, deadline=None)
@given(rational_binomials, rational_dicts,
       st.one_of(st.none(), st.tuples(term_keys, nonzero_rats)))
def test_pdiv_exact_matches_fraction_oracle(f, g, extra):
    """Integer chain division by the primitive binomial against the
    Fraction division by the monic one, on multiples (extra None) and on
    multiples plus a monomial, which no binomial divides."""
    old = fraction_normalize(f)
    canon = _normalize_factor(_integral(f)[2])[0]
    a = fraction_pmul(old, g)
    if extra is not None:
        a = naive_collect([extra], a)
    want = fraction_pdiv_exact(a, old)
    an, ad, pa = _integral(a)
    (trail, tc), (lead, lc) = _fkey(canon)
    got = _pdiv_binomial(pa, lead, lc, trail, tc)
    assert (want is None) == (extra is not None)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(type(c) is int for c in got.values())
        assert scaled(Rat(an, ad) * canon[max(canon)], got) == want == g


@settings(max_examples=60, deadline=None)
@given(poly_elems(), nonzero_rats, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_hash_agrees_with_eq_for_scalar_multiples(a, c, point, m):
    """Equal scalar multiples of an evaluated element are equal and hash
    alike; a multiple by c != 1 is neither equal nor hashed alike, since
    the hash reads the content."""
    f = evaluate_at_singular(a / bracket(LinearExpr(Rat(m), 1, -1)), point)
    assert is_canonical_element(f)
    back = f.scale(c).scale(1 / c)
    assert back == f and hash(back) == hash(f)
    assert -(-f) == f and hash(-(-f)) == hash(f)
    other = f.scale(c)
    assert (other == f) == (hash(other) == hash(f)) == (c == 1 or f.is_zero())


@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
def test_hash_reads_the_content(system):
    """Scalars with distinct contents hash apart, -1 and -2 included."""
    values = {Rat(p, q) for p in range(-4, 5) if p for q in (1, 2, 3)}
    assert len({hash(FieldElement.scalar(v, system)) for v in values}) == len(values)


def test_hash_reads_the_leading_key():
    """Monomials of one content hash apart by their exponent, in both key
    forms, and so do two binomials over one denominator."""
    assert len({hash(FieldElement.q_monomial(QUANTUM, 1, a)) for a in range(-5, 6)}) == 11
    assert len({hash(Q(a)) for a in range(-5, 6)}) == 11
    assert len({hash(X(a) * Y(-a)) for a in range(-5, 6)}) == 11
    den = {1: 1, 0: -1}
    assert hash(FieldElement({3: 1, 0: 1}, den, QUANTUM)) != hash(
        FieldElement({2: 1, 0: 1}, den, QUANTUM))


scalar_rats = st.one_of(st.just(Rat(0)), nonzero_rats)


@settings(max_examples=200, deadline=None)
@given(st.lists(scalar_rats, min_size=1, max_size=6), st.booleans())
@example([Rat(1, 2), Rat(3, 2), Rat(1, 2)], False)
@example([Rat(-2, 3), Rat(3, 4)], True)
def test_classical_scalar_contents_match_fraction_oracle(values, cancel):
    """Classical module-stage values are contents times {0: 1}: their
    products, quotients, negations, scalings, sums and comparisons agree
    with Fraction arithmetic, sums that cancel to zero and integral
    results included, and every result keeps a canonical content."""
    if cancel:
        values = values + [-v for v in values]
    elems = [FieldElement.q_monomial(CLASSICAL, v) for v in values]
    a, b, va, vb = elems[0], elems[-1], values[0], values[-1]
    cases = [(a * b, va * vb), (-a, -va), (a.scale(vb), va * vb),
             (fe_sum(alone(elems), CLASSICAL), sum(values, Rat(0)))]
    if vb:
        cases.append((a / b, va / vb))
    for got, want in cases:
        assert is_canonical_element(got) and scalar_value(got) == want
    assert (a == b) == (va == vb)
    assert va != vb or hash(a) == hash(b)


def general_path(e):
    """e with its numerator replaced by an equal but distinct {0: 1}, which
    * and fe_sum take through their general path."""
    return FieldElement._raw(e.cn, e.cd, {0: 1}, e.nfac, e.fden, e.system)


def parts_of(e):
    return e.cn, e.cd, e.num, e.nfac, e.fden, e.system


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QUANTUM, CLASSICAL]), st.lists(scalar_rats, min_size=1, max_size=6),
       st.booleans())
@example(CLASSICAL, [Rat(1, 2), Rat(-1, 2)], False)
@example(QUANTUM, [Rat(-3, 4), Rat(5)], True)
def test_scalar_fast_path_matches_general_path(system, values, cancel):
    """Products and fe_sum of factor-free one-monomial elements, whose
    numerator is the shared _UONE (the scalar fast path), build what the
    general path builds from the same values with an equal but distinct
    {0: 1}: sums that cancel to zero, zero parts and negative contents
    included.  A _UONE numerator over a denominator factor is no scalar and
    takes the general path."""
    if cancel:
        values = values + [-v for v in values]
    fast = [FieldElement.q_monomial(system, v) for v in values]
    assert all(e.num is _UONE for e in fast if e)
    slow = [general_path(e) if e else e for e in fast]
    over = fast[0] / FieldElement({2: 1, 0: -1}, None, system) if fast[0] else fast[0]
    assert not over or (over.num is _UONE and over.fden)
    for a, b, x, y in ((fast[0], fast[-1], slow[0], slow[-1]), (over, fast[-1], over, slow[-1])):
        assert parts_of(a * b) == parts_of(x * y)
        assert parts_of(b * a) == parts_of(y * x)
    for picks in (fast, fast + [over], fast[:1] + slow[1:]):
        got = fe_sum(alone(picks), system)
        want = fe_sum(alone(general_path(e) if e and e.num is _UONE else e for e in picks),
                      system)
        assert is_canonical_element(got) and parts_of(got) == parts_of(want)
    assert scalar_value(fe_sum(alone(fast), system)) == sum(values, Rat(0))


def test_scalar_fast_path_keeps_the_operand_errors():
    """Scalars of two systems still raise ValueError, and a product with a
    non-FieldElement operand TypeError."""
    q, c = FieldElement.q_monomial(QUANTUM, 2), FieldElement.q_monomial(CLASSICAL, 3)
    assert q.num is _UONE and c.num is _UONE
    with pytest.raises(ValueError, match="mixed number systems"):
        q * c
    for other in (3, Rat(1, 2), None):
        with pytest.raises(TypeError):
            c * other
    with pytest.raises(ValueError, match="mixed number systems"):
        fe_sum([(q, c)], QUANTUM)


def test_fe_sum_rejects_mixed_systems():
    """fe_sum raises the ValueError of + when a factor belongs to another
    system than the one it sums in: on the scalar path, on the path that
    builds the products, for a zero factor and for the second factor of a
    pair."""
    q, c = FieldElement.q_monomial(QUANTUM, 1, 3), FieldElement.q_monomial(CLASSICAL, 2)
    with pytest.raises(ValueError, match="mixed number systems"):
        q + c
    zero_c = FieldElement.zero(CLASSICAL)
    two_q = FieldElement.q_monomial(QUANTUM, 2)
    for pairs in ([(q, None), (c, None)], [(c, None), (q, None)], [(two_q, None), (c, None)],
                  [(c, None)], [(c, c)], [(two_q, None), (zero_c, None)],
                  [(q, None), (zero_c, None)], [(two_q, c)], [(q, two_q), (two_q, c)]):
        with pytest.raises(ValueError, match="mixed number systems"):
            fe_sum(pairs, QUANTUM)


@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
def test_zero_is_shared(system):
    """One zero element per system: a sum that cancels, a zero product
    and the zero constructor all return it."""
    zero = FieldElement.zero(system)
    assert FieldElement.zero(system) is zero and zero.system == system
    a = FieldElement.scalar(Rat(3, 2), system)
    b = bracket(XY, system) if system == QUANTUM else linear_element(XY, system)
    assert a + (-a) is zero and b - b is zero
    assert fe_sum([(a, b), (-a, b)], system) is zero
    assert fe_sum([], system) is zero and a * zero is zero


# canonical factors of each key form; a classical univariate value is a
# scalar and has none
SUM_FACTORS = {
    (QUANTUM, False): [{(0, 1, 0): 1, (0, 0, 1): -1}, {(2, 1, 0): 1, (0, 0, 1): -1},
                       {(2, 0, 0): 1, (0, 0, 0): -1}, {(0, 1, 0): 1, (0, 0, 1): 1, (1, 0, 0): 1}],
    (CLASSICAL, False): [{(0, 1, 0): 1, (0, 0, 1): -1}, {(0, 1, 0): 1, (0, 0, 0): 2},
                         {(0, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 3}],
    (QUANTUM, True): [{2: 1, 0: -1}, {3: 1, 0: -1}, {1: 1, 0: 1}, {2: 1, 1: 1, 0: 1}],
}


@st.composite
def sum_operands(draw, system, univariate):
    """An element of one key form: zero, a q_monomial (the scalar fast
    path when its exponent is 0) or a content times a numerator with
    numerator and denominator factors drawn from SUM_FACTORS."""
    v = draw(nonzero_rats)
    shape = draw(st.sampled_from(["zero", "monomial", "factored", "factored"]))
    if shape == "zero":
        return FieldElement.zero(system)
    if univariate and (shape == "monomial" or system == CLASSICAL):
        e = draw(st.integers(min_value=-3, max_value=3)) if system == QUANTUM else 0
        return FieldElement.q_monomial(system, v, e)
    if univariate:
        keys = st.integers(min_value=-3, max_value=3)
    else:
        exps = st.integers(min_value=-2 if system == QUANTUM else 0, max_value=2)
        keys = st.tuples(st.integers(min_value=-2, max_value=2) if system == QUANTUM
                         else st.just(0), exps, exps)
    num = draw(st.dictionaries(keys, st.integers(min_value=-3, max_value=3).filter(bool),
                               min_size=1, max_size=3))
    pool = st.sampled_from(SUM_FACTORS[system, univariate])
    nfac, fden = draw(st.lists(pool, max_size=2)), draw(st.lists(pool, max_size=2))
    return _build(1, 1, num, nfac, fden, system).scale(v)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([QUANTUM, CLASSICAL]), st.booleans(), st.booleans())
def test_add_matches_pairwise_oracle(data, system, univariate, cancel):
    """a + b, now fe_sum's group sum, builds what the pairwise algorithm
    it replaced builds: equal values, the same rendered text and the same
    parts, in both systems and key forms, zero operands included.  With
    cancel, b is -a with a's numerator factors multiplied out, so the sum
    cancels across two factorizations."""
    a = data.draw(sum_operands(system, univariate))
    if cancel:
        b = -FieldElement._raw(a.cn, a.cd, a.expanded_num(), (), a.fden, system)
    else:
        b = data.draw(sum_operands(system, univariate))
    got, want = a + b, pairwise_sum(a, b)
    assert got == want and str(got) == str(want)
    assert parts_of(got) == parts_of(want) and is_canonical_element(got)
    assert not cancel or got.is_zero()


def factor(system, shape, v, e):
    """A factor of the given shape and value v: the scalar v on the shared
    _UONE (the zero element for v = 0), v on an equal but distinct {0: 1},
    v over the binomial Q^2 - 1, or v * Q^e (e = 0 classically)."""
    a = FieldElement.q_monomial(system, v)
    if not a or shape == "scalar":
        return a
    if shape == "distinct":
        return general_path(a)
    if shape == "over":
        return a / FieldElement({2: 1, 0: -1}, None, system)
    return FieldElement.q_monomial(system, v, e if system == QUANTUM else 0)


factor_draws = st.tuples(st.sampled_from(["scalar", "distinct", "over", "power"]),
                         scalar_rats, st.integers(min_value=-3, max_value=3))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QUANTUM, CLASSICAL]),
       st.lists(st.tuples(factor_draws, st.none() | factor_draws), max_size=6),
       st.booleans())
@example(CLASSICAL, [(("scalar", Rat(1, 2), 0), None),
                     (("scalar", Rat(2, 3), 0), ("scalar", Rat(-3, 4), 0))], True)
@example(CLASSICAL, [(("scalar", Rat(0), 0), ("scalar", Rat(5), 0)),
                     (("scalar", Rat(3), 0), ("scalar", Rat(0), 0))], False)
@example(CLASSICAL, [(("scalar", Rat(1, 2), 0), ("scalar", Rat(5, 3), 0)),
                     (("distinct", Rat(-1, 4), 0), None),
                     (("scalar", Rat(7), 0), ("over", Rat(2, 5), 0))], False)
@example(QUANTUM, [(("scalar", Rat(1, 2), 0), ("scalar", Rat(3), 0)),
                   (("power", Rat(1), 2), ("over", Rat(-1, 3), 0))], False)
def test_fe_sum_of_factor_pairs_matches_sum_of_built_products(system, draws, cancel):
    """fe_sum on (a, b) factor pairs builds, part for part, what it builds
    from the products a * b themselves, and its value is the left fold of
    the products: b = None, zero factors, sums that cancel to zero, scalar
    pairs before the first non-scalar one (which sends every pair to the
    built products) and classical factors that are not _UONE included."""
    pairs = [(factor(system, *a), b and factor(system, *b)) for a, b in draws]
    if cancel:
        pairs += [(-a, b) for a, b in pairs]
    got = fe_sum(pairs, system)
    assert is_canonical_element(got)
    assert parts_of(got) == parts_of(sum_of_products(pairs, system))
    products = [a if b is None else a * b for a, b in pairs]
    assert got == reduce(operator.add, products, FieldElement.zero(system))
    assert not cancel or got.is_zero()


# ---------------------------------------------------------------------------
# the univariate form of the module stage against the trivariate primitives
# on the (e, 0, 0) embedding
# ---------------------------------------------------------------------------

def embed(d):
    """A univariate term dict as the trivariate dict of keys (e, 0, 0)."""
    return {(e, 0, 0): c for e, c in d.items()}


def embed_key(k):
    return tuple(sorted(((e, 0, 0), c) for e, c in k))


# Q exponents in units of 1/6, as term_keys
uni_exponents = st.sampled_from([0, 6, 12, 30, -6, -18, 3, -9, 4, 7])
nonzero_ints = st.integers(min_value=-6, max_value=6).filter(bool)
uni_dicts = st.dictionaries(uni_exponents, nonzero_ints, min_size=1, max_size=6)
uni_factors = st.dictionaries(uni_exponents, nonzero_ints, min_size=2, max_size=4)
uni_binomials = st.dictionaries(uni_exponents, nonzero_ints, min_size=2, max_size=2)
uni_wide_factors = st.dictionaries(uni_exponents, nonzero_ints, min_size=3, max_size=4)
uni_rational_dicts = st.dictionaries(uni_exponents, nonzero_rats, min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(uni_dicts, uni_dicts)
def test_upmul_matches_pmul_on_embedding(a, b):
    got = _upmul(a, b)
    assert embed(got) == _pmul(embed(a), embed(b))
    assert all(got.values())


@settings(max_examples=150, deadline=None)
@given(st.lists(uni_rational_dicts, min_size=1, max_size=4), st.booleans(), st.booleans())
def test_sum_of_univariate_parts_matches_embedding(ds, cancel, monomial):
    if monomial:
        # parts sharing one monomial, whose sum is a content sum
        k = next(iter(ds[0]))
        ds = [{k: next(iter(d.values()))} for d in ds]
    if cancel:
        ds = ds + [{k: -c for k, c in ds[0].items()}]
    cn, cd, got = _sum([_integral(d) for d in ds])
    tn, td, tgot = _sum([_integral(embed(d)) for d in ds])
    assert (cn, cd) == (tn, td) and embed(got) == tgot
    assert scaled(Rat(cn, cd), got) == naive_collect(
        chain.from_iterable(d.items() for d in ds[1:]), ds[0])
    assert not got or is_canonical_poly(got)
    assert is_canonical_content(cn, cd)


def test_reduce_skips_only_the_repeat_of_a_failed_factor():
    """A factor right after an identical copy that did not divide is not
    tried again, and a factor of three terms is never tried, even when it
    divides; every other binomial still is."""
    tried = []

    def div_binomial(num, lead, lc, trail, tc):
        tried.append(((trail, tc), (lead, lc)))
        return _updiv_binomial(num, lead, lc, trail, tc)

    ring = _UNI._replace(div_binomial=div_binomial)
    # Q^3 - 1, Q^2 + 1, Q^2 + Q + 1
    p, q, h = {3: 1, 0: -1}, {2: 1, 0: 1}, {2: 1, 1: 1, 0: 1}
    g = {5: 1, 0: 2}
    num = _times(g, map(_fkey, (q, h)), _upmul)
    fden = tuple(sorted(map(_fkey, (p, p, q, h))))
    got, rest = _reduce(num, fden, ring)
    assert got == _upmul(g, h) and rest == tuple(sorted(map(_fkey, (p, p, h))))
    assert sorted(tried) == sorted([_fkey(p), _fkey(q)])


@settings(max_examples=60, deadline=None)
@given(st.lists(uni_factors, min_size=1, max_size=2),
       st.lists(st.tuples(uni_dicts, st.integers(0, 1), nonzero_rats), min_size=2, max_size=8),
       st.booleans())
def test_fe_sum_with_repeated_denominators_matches_left_fold(dens, picks, cancel):
    """fe_sum adds the parts that share their factors first, and a group
    may cancel out; the sum equals adding the parts one at a time."""
    parts = [FieldElement(n, dens[i % len(dens)], QUANTUM).scale(c) for n, i, c in picks]
    if cancel:
        first = (parts[0].nfac, parts[0].fden)
        parts += [-p for p in parts if (p.nfac, p.fden) == first]
    got = fe_sum(alone(parts), QUANTUM)
    assert got == reduce(operator.add, parts)
    assert is_canonical_element(got) and is_univariate(got.num or {0: 1})


@settings(max_examples=150, deadline=None)
@given(uni_dicts)
def test_unormalize_factor_matches_embedding(d):
    canon, g, s = _unormalize_factor(d)
    tcanon, tg, ts = _normalize_factor(embed(d))
    assert embed(canon) == tcanon and g == tg
    assert (s is None and ts is None) or ts == (s, 0, 0)
    assert min(canon) == 0 and is_canonical_poly(canon)


@settings(max_examples=250, deadline=None)
@given(uni_binomials, uni_dicts, st.one_of(st.none(), st.tuples(uni_exponents, nonzero_ints)))
def test_updiv_exact_matches_embedding(f, g, extra):
    """The univariate chain division by a binomial against Laurent long
    division with exact rational coefficients on the embedding, on
    multiples (extra None) and on multiples plus a monomial, which no
    binomial divides."""
    canon = _unormalize_factor(f)[0]
    a = _upmul(canon, g)
    if extra is not None:
        a = _collect([extra], a)
    (trail, tc), (lead, lc) = _fkey(canon)
    got = _updiv_binomial(a, lead, lc, trail, tc)
    want = oracle_long_division({k: Rat(c) for k, c in embed(a).items()}, embed(canon))
    assert (got is None) == (want is None) == (extra is not None)
    if got is not None:
        assert embed(got) == want
        assert got == g


@settings(max_examples=80, deadline=None)
@given(uni_dicts, uni_factors, uni_dicts, uni_factors)
def test_univariate_arithmetic_matches_embedding(an, ad, bn, bd):
    """Every operation on univariate elements builds, key for key, what the
    trivariate primitives build on the embedding; equality and hashes
    agree between the forms and with each other."""
    ua, ub = FieldElement(an, ad, QUANTUM), FieldElement(bn, bd, QUANTUM)
    ta = FieldElement(embed(an), embed(ad), QUANTUM)
    tb = FieldElement(embed(bn), embed(bd), QUANTUM)

    def same(u, t):
        assert is_canonical_element(u) and is_univariate(u.num or {0: 1})
        assert (u.cn, u.cd, embed(u.num), tuple(map(embed_key, u.nfac)),
                tuple(map(embed_key, u.fden))) == (t.cn, t.cd, t.num, t.nfac, t.fden)
        ev = evaluate_at_singular(t, 0)
        assert ev == u and hash(ev) == hash(u)
        assert format_element(u) == format_element(t)

    same(ua, ta)
    for u, t in ((ua + ub, ta + tb), (ua - ub, ta - tb), (ua * ub, ta * tb),
                 (ua / ub, ta / tb),
                 (fe_sum(alone([ua, ub, -ua]), QUANTUM), fe_sum(alone([ta, tb, -ta]), QUANTUM))):
        same(u, t)
    assert (ua == ub) == (ta == tb)
    # equal elements hash alike, however they were built
    for x in (ua * ub / ub, -(-ua), ua.scale(Rat(3, 2)).scale(Rat(2, 3))):
        assert x == ua and hash(x) == hash(ua)


@settings(max_examples=100, deadline=None)
@given(uni_dicts, uni_wide_factors, nonzero_rats)
def test_hash_agrees_with_eq_when_reduction_is_skipped(n, f, c):
    """One value built twice, once without the factor f and once as n f / f,
    where f has three or four terms and so is never divided out: f stays
    in both numerator and denominator, and the two are equal and hash
    alike."""
    reduced = FieldElement(n, None, QUANTUM).scale(c)
    unreduced = FieldElement(_upmul(n, f), f, QUANTUM).scale(c)
    assert unreduced.fden and not reduced.fden
    assert unreduced == reduced and hash(unreduced) == hash(reduced)


# Factors of three and four terms that do not vanish at x = y = 1, quantum
# Q exponents in units of 1/6.
WIDE_FACTORS = {
    QUANTUM: [{(0, 0, 0): 1, (6, 1, 0): 1, (12, 0, 2): 1},
              {(0, 0, 0): 2, (6, 1, 0): -1, (0, 1, 1): 1, (3, 0, 2): 3}],
    CLASSICAL: [{(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 2},
                {(0, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 1, (0, 1, 1): 3}],
}
UNI_WIDE_FACTORS = [{12: 1, 6: 1, 0: 1}, {18: 2, 6: -1, 3: 1, 0: 3}]


@SYSTEMS
@pytest.mark.parametrize("width", [3, 4])
def test_wider_factor_is_carried_not_divided(system, width):
    """(g h)/h keeps h, a factor of three or four terms, in the
    denominator: the value is g's, with g's hash, and both singular-point
    functionals give g's values at a point where h does not vanish."""
    h = WIDE_FACTORS[system][width - 3]
    key = _fkey(_normalize_factor(h)[0])
    assert len(key) == width
    H = FieldElement(h, None, system)
    scale = 6 if system == QUANTUM else 1
    rng = random.Random(23)
    for _ in range(5):
        g = random_smooth(rng, system, scale=scale)
        f = (g * H) / H
        assert key in f.fden and key not in g.fden
        assert f == g and hash(f) == hash(g)
        assert evaluate_at_singular(f, scale) == evaluate_at_singular(g, scale)
        assert dv_operator(f, scale, scale) == dv_operator(g, scale, scale)


@pytest.mark.parametrize("h", UNI_WIDE_FACTORS, ids=["3", "4"])
def test_wider_univariate_factor_is_carried_not_divided(h):
    g = FieldElement({30: 1, 6: -2, 0: 3}, {24: 1, 0: -1}, QUANTUM)
    H = FieldElement(h, None, QUANTUM)
    f = (g * H) / H
    assert _fkey(_unormalize_factor(h)[0]) in f.fden
    assert f == g and hash(f) == hash(g)


@pytest.mark.parametrize("form", ["univariate", "trivariate"])
def test_chain_limit_gives_up_and_leaves_the_value_exact(form):
    """Q^(L+1) - 1 over Q - 1, and X^(L+1) - 1 over X - 1 through the packed
    trivariate path, with L = _CHAIN_LIMIT: the quotient exists, but its
    chain is longer than L, so the division gives up and the factor stays
    in the denominator.  The value still equals the reduced one, the
    geometric sum, and hashes like it."""
    L = _CHAIN_LIMIT
    if form == "univariate":
        def key(e):
            return e
        div = _updiv_binomial
    else:
        def key(e):
            return (0, e, 0)
        div = _pdiv_binomial
    num = {key(L + 1): 1, key(0): -1}
    assert div(num, key(1), 1, key(0), -1) is None
    unreduced = FieldElement(num, {key(1): 1, key(0): -1}, QUANTUM)
    reduced = FieldElement({key(e): 1 for e in range(L + 1)}, None, QUANTUM)
    assert unreduced.fden == (_fkey({key(1): 1, key(0): -1}),)
    assert not reduced.fden
    assert unreduced == reduced and hash(unreduced) == hash(reduced)


def test_mixing_the_two_forms_raises():
    t = Q(2) + ONE
    u = FieldElement({2: 1, 0: 1}, None, QUANTUM)
    assert u.num == {2: 1, 0: 1}
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: a == b):
        for a, b in ((t, u), (u, t)):
            with pytest.raises(TypeError, match="mixes"):
                op(a, b)
    with pytest.raises(TypeError, match="mixes"):
        fe_sum(alone([u, t]), QUANTUM)
    with pytest.raises(TypeError, match="mixes"):
        FieldElement({1: 1}, {(0, 0, 0): 1, (1, 0, 0): 1}, QUANTUM)
    for functional in (evaluate_at_singular, dv_operator):
        with pytest.raises(TypeError):
            functional(u, 1)
    # the zero element has no terms and belongs to both forms
    assert u + ZERO is u and (ZERO * u).is_zero() and ZERO != u


# ---------------------------------------------------------------------------
# the API edge: a quantum Q exponent or point is an int in units of 1/scale
# ---------------------------------------------------------------------------

QUANTUM_EDGES = {
    "monomial": lambda e: FieldElement.monomial(QUANTUM, 1, e, 1),
    "q_monomial": lambda e: FieldElement.q_monomial(QUANTUM, 1, e),
    "q_power": lambda e: q_power(LinearExpr(e, 1, 0), QUANTUM),
    "bracket": lambda e: bracket(LinearExpr(e, 1, -1)),
    "FieldElement": lambda e: FieldElement({(e, 1, 0): 1}, None, QUANTUM),
    "FieldElement-den": lambda e: FieldElement({0: 1}, {e: 1, 0: 1}, QUANTUM),
    "evaluate_at_singular": lambda e: evaluate_at_singular(X() / (X() + ONE), e),
    "dv_operator": lambda e: dv_operator(X() / (X() + ONE), e),
}


@pytest.mark.parametrize("value", [Rat(1, 2), 0.5, "1/2"], ids=["Rat", "float", "str"])
@pytest.mark.parametrize("edge", sorted(QUANTUM_EDGES))
def test_quantum_edge_rejects_non_integral_exponents(edge, value):
    with pytest.raises(ValueError, match="units of 1/scale"):
        QUANTUM_EDGES[edge](value)


@pytest.mark.parametrize("edge", sorted(QUANTUM_EDGES))
def test_quantum_edge_takes_integral_values_as_ints(edge, monkeypatch):
    """An integral Rat, float or string gives what the int gives, with int
    keys; an int passes without building a rational."""
    want = QUANTUM_EDGES[edge](3)
    for v in (Rat(3), 3.0, "3"):
        got = QUANTUM_EDGES[edge](v)
        assert got == want and has_int_keys(got)

    def no_rational(*args):
        raise AssertionError("an int exponent built a rational")

    monkeypatch.setattr(_rat, "rat", no_rational)
    assert QUANTUM_EDGES[edge](3) == want


# X and Y exponents, and the x, y coefficients of a LinearExpr, are ints
# in both systems
XY_EDGES = {
    "monomial-x": lambda s, e: FieldElement.monomial(s, 1, 0, e, 0),
    "monomial-y": lambda s, e: FieldElement.monomial(s, 1, 0, 1, e),
    "FieldElement-x": lambda s, e: FieldElement({(0, e, 0): 1}, None, s),
    "FieldElement-den-y": lambda s, e: FieldElement({(0, 0, 0): 1}, {(0, 0, e): 1, (0, 0, 0): 1}, s),
    "bracket-cx": lambda s, e: bracket(LinearExpr(0, e, -1), s),
    "bracket-cy": lambda s, e: bracket(LinearExpr(0, 1, e), s),
}


@pytest.mark.parametrize("value", [Rat(1, 2), 0.5, "1/2"], ids=["Rat", "float", "str"])
@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("edge", sorted(XY_EDGES))
def test_xy_edge_rejects_non_integral_values(edge, system, value):
    with pytest.raises(ValueError, match="not an integer"):
        XY_EDGES[edge](system, value)


@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("edge", sorted(XY_EDGES))
def test_xy_edge_takes_integral_values_as_ints(edge, system):
    want = XY_EDGES[edge](system, -1)
    for v in (Rat(-1), -1.0, "-1"):
        got = XY_EDGES[edge](system, v)
        assert got == want and has_int_keys(got)


def test_classical_functionals_take_rational_points():
    x = linear_element(LinearExpr(0, 1, 0), CLASSICAL)
    y = linear_element(LinearExpr(0, 0, 1), CLASSICAL)
    f = x * x * y / (x + y + FieldElement.one(CLASSICAL))
    # x^2 y / (x + y + 1) at x = y = 1/3 is (1/27) / (5/3) = 1/45, and
    # (1/2)(d/dx - d/dy) of it is (1/2)(2xy - x^2)/(x + y + 1) there = 1/30
    for c in (Rat(1, 3), "1/3"):
        assert evaluate_at_singular(f, c) == FieldElement.q_monomial(CLASSICAL, Rat(1, 45))
        assert dv_operator(f, c) == FieldElement.q_monomial(CLASSICAL, Rat(1, 30))
        assert dv_operator(f, c) == oracle_dv(f, c)


bracket_products = st.lists(st.sampled_from([-2, -1, 1, 2, 3]), max_size=2).map(
    lambda ms: reduce(operator.mul, (bracket(LinearExpr(m, 1, -1)) for m in ms), ONE))


@settings(max_examples=60, deadline=None)
@given(poly_elems(), poly_elems(), bracket_products, bracket_products,
       st.integers(min_value=-3, max_value=3))
def test_int_keyed_operands_give_int_keys(a, b, da, db, c):
    """Sums, products, quotients and fe_sum of int-keyed elements keep int
    keys in num, nfac and fden, and both functionals return univariate
    elements with int keys."""
    a, b = a / da, b * db
    values = [a + b, a - b, a * b, fe_sum(alone([a, b, a * b]), QUANTUM)]
    if b:
        values.append(a / b)
    for f in values:
        assert has_int_keys(f)
        try:
            ev, dv = evaluate_at_singular(f, c), dv_operator(f, c)
        except PoleAtEvaluation:
            continue
        assert has_int_keys(ev, univariate=True) and has_int_keys(dv, univariate=True)


laurent_int_dicts = st.dictionaries(term_keys, nonzero_ints, min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(laurent_int_dicts, st.sampled_from([QUANTUM, CLASSICAL]),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3))
@example({(0, 1, -1): 1}, CLASSICAL, 0, 1)
@example({(0, -1, 1): 2, (6, 1, 0): -1}, CLASSICAL, 0, 1)
@example({(0, 1, -1): 1, (0, -1, 1): -1}, QUANTUM, 0, 1)
def test_eval_terms_is_the_two_point_oracle_on_the_diagonal(d, system, p, r):
    """The one-point evaluation of a Laurent term dict is the oracle's
    term-by-term evaluation at (c, c): the same canonical triple's value,
    and a pole exactly when a classical x or y has a negative power at
    c = 0, whatever the total degree (x/y included)."""
    c = p if system == QUANTUM else Rat(p, r)
    pole = system == CLASSICAL and not c and any(x < 0 or y < 0 for _, x, y in d)
    if pole:
        with pytest.raises(PoleAtEvaluation):
            terms_at(d, c, c, system)
        with pytest.raises(PoleAtEvaluation):
            _eval_terms(d, c, system)
        return
    cn, cd, prim = _eval_terms(d, c, system)
    assert is_canonical_content(cn, cd)
    assert (cn, cd) == (0, 1) if not prim else is_canonical_poly(prim)
    assert {k: Rat(cn, cd) * v for k, v in prim.items()} == terms_at(d, c, c, system)


@SYSTEMS
def test_empty_derivative_is_the_zero_triple(system):
    """An empty term dict values to the zero triple, and so does the
    antisymmetric derivative of one free of X and Y (an empty derivative
    dict) or symmetric in them (empty in the quantum Euler form)."""
    c = 2 if system == QUANTUM else Rat(2, 3)
    assert _eval_terms({}, c, system) == (0, 1, {})
    for d in ({(6, 0, 0): 5}, {(0, 1, 1): 1, (3, 2, 2): -4}):
        assert _diffval(d, c, system, 1) == (0, 1, {})
