"""The factor path of the singular-point functionals against the element
path, in both systems.

An e/f coefficient crosses the evaluation boundary as a Coefficient, and
dv_operator and evaluate_at_singular take its (dv, ev) pieces from the
values and derivatives of its factors at x = y = c: classically the linear
factors themselves, in the quantum system their brackets [A]_q.  A generic
spec takes the same path, at any point.  The oracle is the path every
other value takes: the bracket quotient, oracles.element, through the same
two functions.  Values must be ==, and an input that raises must raise the
same exception type on both paths.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from gtsingular import action, exactalg, verify
from gtsingular._rat import Rat
from gtsingular.action import (
    ModuleSpec,
    act,
    expand_derivative,
    expand_normal,
    gen_e,
    gen_f,
)
from gtsingular.exactalg import (
    CLASSICAL,
    QUANTUM,
    Coefficient,
    DivisionByZero,
    FieldElement,
    LinearExpr,
    PoleAtEvaluation,
    bracket,
    dv_operator,
    evaluate_at_singular,
)
from gtsingular.tableaux import highest_weight_tableau, interlacing_relations
from gtsingular.verify import (
    check_compatibility,
    check_defining_relations,
    check_finite_dimensional,
)

from gated_specs import gated_corpus
from oracles import element
from test_action import generic_spec_n2, singular_spec_n3
from test_verify import g4_spec

XY = LinearExpr(0, 1, -1)
MODES = (CLASSICAL, QUANTUM)


def outcome(fn, *args):
    """fn(*args), or the type of the arithmetic error it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def element_pieces(coeff, c, tag, scale=1):
    """The oracle: (dv, ev) of the bracket quotient, times [x-y] under 'N'."""
    f = element(coeff, scale)
    if tag == "N":
        f = bracket(XY, coeff.system, scale) * f
    return dv_operator(f, c, scale), evaluate_at_singular(f, c)


def factor_pieces(coeff, c, tag, scale=1):
    if tag == "N":
        coeff = coeff._replace(num=coeff.num + (XY,))
    return dv_operator(coeff, c, scale), evaluate_at_singular(coeff, c, scale)


# --- every e/f piece a census of the action reaches on the corpora -------

FINDIM_WEIGHT = [5, 3, 1, 0]


def findim_spec(mode):
    n = len(FINDIM_WEIGHT)
    return ModuleSpec(highest_weight_tableau(FINDIM_WEIGHT), interlacing_relations(n),
                      mode=mode)


def corpus(mode):
    """(name, make, B), make() building the spec: the n=3 fixture at B=2,
    G4 at B=1, the gated n=4 corpus at B=1, and the generic specs: the
    finite-dimensional n=4 module over its whole basis and the generic n=2
    spec at B=2, in one system; quantum names end in -quantum.  Each test
    builds its spec, so no spec outlives its test with its caches."""
    tail = "-quantum" if mode == QUANTUM else ""
    yield f"n3{tail}", partial(singular_spec_n3, mode), 2
    yield f"G4{tail}", partial(g4_spec, mode), 1
    for i, (T, C, _) in enumerate(gated_corpus(4, 4, 0, (2, 3), 216, 1)):
        yield f"gated{i}{tail}", partial(ModuleSpec, T, C, mode=mode), 1
    lam = FINDIM_WEIGHT
    yield f"findim4{tail}", partial(findim_spec, mode), lam[0] - lam[-1] + len(lam)
    yield f"generic2{tail}", partial(generic_spec_n2, mode), 2


def census(spec, B):
    """Reach the e/f pieces that the relation and compatibility checks
    reach, without their residual sums: from every window vector, the
    moves of the words the relations apply (e f, f e, e e and f f, each
    letter any e_r resp. f_r, and the Serre words g_r g_r g_s, g_r g_s g_r
    and g_s g_r g_r for |r - s| = 1), and on a singular spec
    expand_normal and expand_derivative at both shifts of every tau-orbit
    in the window."""
    e = [gen_e(r) for r in range(1, spec.n)]
    f = [gen_f(r) for r in range(1, spec.n)]
    words = [(e, f), (f, e), (e, e), (f, f)]
    for r in range(1, spec.n - 1):
        for gen in (gen_e, gen_f):
            for a, b in (([gen(r)], [gen(r + 1)]), ([gen(r + 1)], [gen(r)])):
                words += [(a, a, b), (a, b, a), (b, a, a)]
    window = spec.window(B)
    for word in words:
        frontier = window
        for gens in word:
            frontier = {tgt for bv in frontier for g in gens for tgt in act(g, bv, spec).terms}
    if spec.is_generic():
        return
    for bv in window:
        for z in (bv.z, spec.tau(bv.z)):
            for g in e + f:
                expand_normal(spec, g, z)
                if z[spec.zi] != z[spec.zj]:
                    expand_derivative(spec, g, z)


def ef_keys(spec):
    """The cache keys of the e/f pieces spec has evaluated."""
    return {key for key in spec._piece_cache if key[0] in ("N", "D")}


@pytest.mark.parametrize("mode", MODES)
def test_census_reaches_every_piece_the_checks_reach(mode):
    checked, counted = singular_spec_n3(mode), singular_spec_n3(mode)
    check_defining_relations(checked, 2)
    check_compatibility(checked, 2)
    census(counted, 2)
    assert ef_keys(checked) and ef_keys(checked) <= ef_keys(counted)


@pytest.mark.parametrize("name, make, B", [pytest.param(*case, id=case[0])
                                           for mode in MODES for case in corpus(mode)])
def test_factor_path_matches_element_path_on_reached_pieces(monkeypatch, name, make, B):
    spec = make()
    reached = []
    real = ModuleSpec._evaluated

    def record(self, tag, f):
        got = real(self, tag, f)
        if isinstance(f, Coefficient):
            reached.append((tag, f, got))
        return got

    monkeypatch.setattr(ModuleSpec, "_evaluated", record)
    census(spec, B)
    monkeypatch.undo()
    assert reached
    for tag, coeff, got in reached:
        want = outcome(spec._evaluated, tag, element(coeff, spec.qscale))
        assert got == want, (name, tag, coeff)


def test_checks_build_no_trivariate_quotient(monkeypatch):
    """Quantum and classical check_finite_dimensional and the generic n=2
    relation check divide no trivariate binomial and build no bracket:
    every e/f coefficient crosses on its factors."""
    calls = []

    def refuse(name):
        def call(*args):
            calls.append(name)
            raise AssertionError(f"a call of {name}")
        return call

    monkeypatch.setattr(exactalg, "_TRI",
                        exactalg._TRI._replace(div_binomial=refuse("div_binomial")))
    for module in (exactalg, action, verify):
        monkeypatch.setattr(module, "bracket", refuse("bracket"))
    for mode in MODES:
        assert check_finite_dimensional(FINDIM_WEIGHT, mode)
        assert check_defining_relations(generic_spec_n2(mode), 1)
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
def test_relation_check_divides_no_trivariate_polynomial(monkeypatch, mode):
    spec = singular_spec_n3(mode)
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("a trivariate binomial division")

    monkeypatch.setattr(exactalg, "_TRI", exactalg._TRI._replace(div_binomial=refuse))
    assert check_defining_relations(spec, 1)
    assert calls == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", [(2, 0), (0, -2), (2, -2)])
def test_factor_path_takes_entry_differences_only(mode, shape):
    wide = LinearExpr(Rat(1) if mode == CLASSICAL else 1, *shape)
    for coeff in (Coefficient(1, (wide,), (), mode), Coefficient(1, (), (wide,), mode)):
        with pytest.raises(ValueError):
            dv_operator(coeff, 1)
        with pytest.raises(ValueError):
            evaluate_at_singular(coeff, 1)


# --- the rules, on hand-made products -------------------------------------

def classical(dv, ev):
    return FieldElement.q_monomial(CLASSICAL, dv), FieldElement.q_monomial(CLASSICAL, ev)


def quantum(dv, ev):
    """Univariate quantum values from (numerator, denominator) dicts."""
    return tuple(FieldElement(*v, system=QUANTUM) if isinstance(v, tuple)
                 else FieldElement.q_monomial(QUANTUM, v) for v in (dv, ev))


def qb(a):
    """The numerator of [a]_q = (Q^a - Q^-a)/(Q - Q^-1), scale 1."""
    return {a: 1, -a: -1}


W = qb(1)

# (name, sign, numerator, denominator, tag, classical want, quantum want):
# factors (const, cx, cy) at c = 1, where x - 1 and y - 1 vanish and x - y
# vanishes everywhere
RULES = [
    ("pole-does-not-cancel", 1, [(2, 0, 1)], [(-1, 1, 0)], "D",
     PoleAtEvaluation, PoleAtEvaluation),
    ("pole-does-not-cancel-N", 1, [], [(-1, 0, 1)], "N", PoleAtEvaluation, PoleAtEvaluation),
    ("zero-denominator", 1, [(0, 0, 0)], [(0, 0, 0)], "D", DivisionByZero, DivisionByZero),
    ("zero-numerator-over-pole", 1, [(0, 0, 0)], [(-1, 1, 0)], "D",
     classical(0, 0), quantum(0, 0)),
    # (x - y) / (y - x) = -1
    ("cancel-x-y", 1, [], [(0, -1, 1)], "N", classical(0, -1), quantum(0, -1)),
    # -(x - 1)(x + 1) / (1 - x) = x + 1: ev 2, dv 1/2; quantum [x + 1]_q:
    # ev [2]_q, dv (Q^2 + Q^-2)/4
    ("cancel-proportional", -1, [(-1, 1, 0), (1, 1, 0)], [(1, -1, 0)], "D",
     classical(Rat(1, 2), 2), quantum(({2: 1, -2: 1}, {0: 4}), (qb(2), W))),
    # (y - 1) * 3 / 2: ev 0, dv -3/4; quantum dv -(1/2)[3]_q/[2]_q
    ("one-vanishing", 1, [(-1, 0, 1), (3, 0, 0)], [(2, 0, 0)], "D",
     classical(Rat(-3, 4), 0), quantum(({3: -1, -3: 1}, {2: 2, -2: -2}), 0)),
    ("two-vanishing", 1, [(-1, 1, 0)], [(5, 0, 0)], "N", classical(0, 0), quantum(0, 0)),
    # (x + 1) / (y + 2) at 1: ev 2/3, dv (2/3)(1/4 + 1/6) = 5/18; quantum
    # ev [2]/[3], dv ((Q^2 + Q^-2)[3] + [2](Q^3 + Q^-3)) / (4 [3]^2)
    # = (Q^6 - Q^4 - Q^-4 + Q^-6) / (2 (Q^3 - Q^-3)^2)
    ("quotient-rule", 1, [(1, 1, 0)], [(2, 0, 1)], "D",
     classical(Rat(5, 18), Rat(2, 3)),
     quantum(({6: 1, 4: -1, -4: -1, -6: 1}, {6: 2, 0: -4, -6: 2}), (qb(2), qb(3)))),
]


def rule_coefficient(mode, sign, num, den):
    const = Rat if mode == CLASSICAL else int
    return Coefficient(sign, tuple(LinearExpr(const(k), cx, cy) for k, cx, cy in num),
                       tuple(LinearExpr(const(k), cx, cy) for k, cx, cy in den), mode)


def check_rule(mode, rule):
    _, sign, num, den, tag, want_classical, want_quantum = rule
    coeff = rule_coefficient(mode, sign, num, den)
    want = want_classical if mode == CLASSICAL else want_quantum
    assert outcome(factor_pieces, coeff, 1, tag) == want
    assert outcome(element_pieces, coeff, 1, tag) == want


@pytest.mark.parametrize("rule", RULES, ids=[r[0] for r in RULES])
def test_rules(rule):
    check_rule(CLASSICAL, rule)


@pytest.mark.parametrize("rule", RULES, ids=[r[0] for r in RULES])
def test_quantum_rules(rule):
    check_rule(QUANTUM, rule)


# --- random products of the factor shapes of entry differences ------------

SHAPES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def draw_factors(draw, c, constants, max_size):
    """Factors of the shapes (cx, cy) that entry differences take, each
    with a constant drawn from constants or with the constant that makes
    it vanish at x = y = c (identically zero for (0, 0))."""
    out = []
    for cx, cy in draw(st.lists(st.sampled_from(SHAPES), max_size=max_size)):
        const = -(cx + cy) * c if draw(st.booleans()) else draw(constants)
        out.append(LinearExpr(const, cx, cy))
    return tuple(out)


@st.composite
def products(draw):
    """(coefficient, point, tag): classical factors with rational
    constants."""
    c = Rat(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    constants = st.builds(Rat, st.integers(-4, 4), st.integers(1, 3))
    coeff = Coefficient(draw(st.sampled_from((1, -1))), draw_factors(draw, c, constants, 4),
                        draw_factors(draw, c, constants, 3), CLASSICAL)
    return coeff, c, draw(st.sampled_from("ND"))


def lin(const, cx=0, cy=0):
    return LinearExpr(Rat(const), cx, cy)


@settings(max_examples=200, deadline=None)
@given(products())
@example((Coefficient(1, (lin(3, 1),), (lin(Rat(1, 2), 1), lin(0, 1, -1)), CLASSICAL),
          Rat(-1, 2), "N"))
@example((Coefficient(-1, (lin(0, 1, -1),), (lin(0, 1, -1), lin(-2, 0, 1)), CLASSICAL),
          Rat(2), "D"))
@example((Coefficient(1, (lin(1, 0, 1), lin(-1, 1, 0)), (lin(0, -1, 1),), CLASSICAL),
          Rat(1), "D"))
def test_factor_path_matches_element_path_on_random_products(case):
    coeff, c, tag = case
    assert outcome(factor_pieces, coeff, c, tag) == outcome(element_pieces, coeff, c, tag)


@st.composite
def bracket_products(draw):
    """(coefficient, point, tag, scale): quantum bracket factors with int
    constants in units of 1/scale, at scales 1, 2 and 6."""
    scale = draw(st.sampled_from((1, 2, 6)))
    c = draw(st.integers(-3 * scale, 3 * scale))
    constants = st.integers(-4 * scale, 4 * scale)
    coeff = Coefficient(draw(st.sampled_from((1, -1))), draw_factors(draw, c, constants, 4),
                        draw_factors(draw, c, constants, 3), QUANTUM)
    return coeff, c, draw(st.sampled_from("ND")), scale


@settings(max_examples=200, deadline=None)
@given(bracket_products())
@example((Coefficient(1, (LinearExpr(3, 1, 0),), (LinearExpr(1, 1, 0), XY), QUANTUM),
          -1, "N", 2))
@example((Coefficient(-1, (XY,), (XY, LinearExpr(-12, 0, 1)), QUANTUM), 12, "D", 6))
@example((Coefficient(1, (LinearExpr(1, 0, 1), LinearExpr(-1, 1, 0)), (LinearExpr(0, -1, 1),),
                      QUANTUM), 1, "D", 1))
def test_bracket_factor_path_matches_element_path_on_random_products(case):
    coeff, c, tag, scale = case
    assert (outcome(factor_pieces, coeff, c, tag, scale)
            == outcome(element_pieces, coeff, c, tag, scale))
