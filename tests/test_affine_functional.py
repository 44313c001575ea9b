"""The classical factor path of ModuleSpec._evaluated against the element
path.

A classical e/f coefficient crosses the evaluation boundary as a
Coefficient, and affine_functional takes its (dv, ev) pieces from the
values and derivatives of its linear factors at x = y = c.  The oracle is
the path every other value takes: the bracket quotient, Coefficient.element,
through dv_operator and evaluate_at_singular.  Values must be ==, and an
input that raises must raise the same exception type on both paths.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from gtsingular._rat import Rat
from gtsingular.action import ModuleSpec
from gtsingular.exactalg import (
    CLASSICAL,
    Coefficient,
    DivisionByZero,
    FieldElement,
    LinearExpr,
    PoleAtEvaluation,
    affine_functional,
    bracket,
    dv_operator,
    evaluate_at_singular,
)
from gtsingular.verify import check_compatibility, check_defining_relations

from gated_specs import gated_corpus
from test_action import singular_spec_n3
from test_verify import g4_spec

XY = LinearExpr(0, 1, -1)


def outcome(fn, *args):
    """fn(*args), or the type of the arithmetic error it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


def element_pieces(coeff, c, tag):
    """The oracle: (dv, ev) of the bracket quotient, times [x-y] under 'N'."""
    f = coeff.element(CLASSICAL)
    if tag == "N":
        f = bracket(XY, CLASSICAL) * f
    return dv_operator(f, c), evaluate_at_singular(f, c)


def factor_pieces(coeff, c, tag):
    if tag == "N":
        coeff = coeff._replace(num=coeff.num + (XY,))
    return affine_functional(coeff, c)


# --- every e/f piece the checks reach on the classical corpora -----------

def classical_corpus():
    """(name, spec, B): the n=3 fixture at B=2, G4 at B=1 and the classical
    twins of the gated n=4 corpus at B=1."""
    yield "n3", singular_spec_n3(CLASSICAL), 2
    yield "G4", g4_spec(CLASSICAL), 1
    for i, (T, C, _) in enumerate(gated_corpus(4, 4, 0, (2, 3), 216, 1)):
        yield f"gated{i}", ModuleSpec(T, C, mode=CLASSICAL), 1


@pytest.mark.parametrize("name, spec, B",
                         [pytest.param(*case, id=case[0]) for case in classical_corpus()])
def test_factor_path_matches_element_path_on_reached_pieces(monkeypatch, name, spec, B):
    reached = []
    real = ModuleSpec._evaluated

    def record(self, tag, f):
        if isinstance(f, Coefficient):
            reached.append((tag, f))
        return real(self, tag, f)

    monkeypatch.setattr(ModuleSpec, "_evaluated", record)
    check_defining_relations(spec, B)
    check_compatibility(spec, B)
    monkeypatch.undo()
    assert reached
    for tag, coeff in reached:
        got = outcome(spec._evaluated, tag, coeff)
        want = outcome(spec._evaluated, tag, coeff.element(CLASSICAL, spec.qscale))
        assert got == want, (name, tag, coeff)


def test_classical_pieces_build_no_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("a classical e/f coefficient became an element")

    monkeypatch.setattr(Coefficient, "element", refuse)
    assert check_defining_relations(singular_spec_n3(CLASSICAL), 1)


# --- the rules, on hand-made products -------------------------------------

def lin(const, cx=0, cy=0):
    return LinearExpr(Rat(const), cx, cy)


def scalars(dv, ev):
    return FieldElement.q_monomial(CLASSICAL, dv), FieldElement.q_monomial(CLASSICAL, ev)


# at c = 1: x - 1 and y - 1 vanish, x - y vanishes everywhere
RULES = [
    ("pole-does-not-cancel", Coefficient(1, (lin(2, 0, 1),), (lin(-1, 1),)), "D",
     PoleAtEvaluation),
    ("pole-does-not-cancel-N", Coefficient(1, (), (lin(-1, 0, 1),)), "N", PoleAtEvaluation),
    ("zero-denominator", Coefficient(1, (lin(0),), (lin(0),)), "D", DivisionByZero),
    ("zero-numerator-over-pole", Coefficient(1, (lin(0),), (lin(-1, 1),)), "D",
     scalars(0, 0)),
    # (x - y) / (y - x) = -1
    ("cancel-x-y", Coefficient(1, (), (lin(0, -1, 1),)), "N", scalars(0, -1)),
    # -(x - 1)(x + 1) / (1 - x) = x + 1: ev 2, dv 1/2
    ("cancel-proportional", Coefficient(-1, (lin(-1, 1), lin(1, 1)), (lin(1, -1),)), "D",
     scalars(Rat(1, 2), 2)),
    # (y - 1) * 3 / 2: ev 0, dv -3/4
    ("one-vanishing", Coefficient(1, (lin(-1, 0, 1), lin(3)), (lin(2),)), "D",
     scalars(Rat(-3, 4), 0)),
    ("two-vanishing", Coefficient(1, (lin(-1, 1),), (lin(5),)), "N", scalars(0, 0)),
    # (x + 1) / (y + 2) at 1: ev 2/3, dv (2/3)(1/4 + 1/6) = 5/18
    ("quotient-rule", Coefficient(1, (lin(1, 1),), (lin(2, 0, 1),)), "D",
     scalars(Rat(5, 18), Rat(2, 3))),
]


@pytest.mark.parametrize("coeff, tag, want", [r[1:] for r in RULES],
                         ids=[r[0] for r in RULES])
def test_rules(coeff, tag, want):
    assert outcome(factor_pieces, coeff, 1, tag) == want
    assert outcome(element_pieces, coeff, 1, tag) == want


# --- random products of the factor shapes of entry differences ------------

SHAPES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


@st.composite
def products(draw):
    """(coefficient, point, tag): factors of the shapes (cx, cy) that entry
    differences take, each with a rational constant or with the constant
    that makes it vanish at x = y = c (identically zero for (0, 0))."""
    c = Rat(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))

    def factors(max_size):
        out = []
        for cx, cy in draw(st.lists(st.sampled_from(SHAPES), max_size=max_size)):
            if draw(st.booleans()):
                const = -(cx + cy) * c
            else:
                const = Rat(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
            out.append(LinearExpr(const, cx, cy))
        return tuple(out)

    coeff = Coefficient(draw(st.sampled_from((1, -1))), factors(4), factors(3))
    return coeff, c, draw(st.sampled_from("ND"))


@settings(max_examples=200, deadline=None)
@given(products())
@example((Coefficient(1, (lin(3, 1),), (lin(Rat(1, 2), 1), lin(0, 1, -1))), Rat(-1, 2), "N"))
@example((Coefficient(-1, (lin(0, 1, -1),), (lin(0, 1, -1), lin(-2, 0, 1))), Rat(2), "D"))
@example((Coefficient(1, (lin(1, 0, 1), lin(-1, 1, 0)), (lin(0, -1, 1),)), Rat(1), "D"))
def test_factor_path_matches_element_path_on_random_products(case):
    coeff, c, tag = case
    assert outcome(factor_pieces, coeff, c, tag) == outcome(element_pieces, coeff, c, tag)
