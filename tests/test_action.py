from math import lcm

import pytest

from gtsingular._rat import Rat
from gtsingular.exactalg import (
    CLASSICAL,
    QUANTUM,
    FieldElement,
    LinearExpr,
    bracket,
    evaluate_at_singular,
)
from gtsingular.tableaux import RelationSet, Tableau, interlacing_relations, highest_weight_tableau
from gtsingular.action import (
    DERIVATIVE,
    NORMAL,
    BasisVector,
    Fault,
    Generator,
    ModuleElement,
    ModuleSpec,
    act,
    expand_derivative,
    expand_normal,
    gen_e,
    gen_f,
    gen_qeps,
    gen_qh,
)

from oracles import (
    act_word,
    element,
    evaluate_at,
    scale_q_exponents,
    spec_bracket,
    weight_exponent,
    weight_shift,
)


def generic_spec_n2(mode=QUANTUM):
    T = Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]])
    return ModuleSpec(T, RelationSet(2, []), mode=mode)


def singular_spec_n3(mode=QUANTUM):
    T = Tableau(3, [[Rat(1, 7)], [0, 0], [Rat(5, 2), Rat(1, 3), Rat(9, 11)]])
    return ModuleSpec(T, RelationSet(3, []), mode=mode)


def one(spec):
    return FieldElement.q_monomial(spec.mode, 1)


class TestGenericAction:
    def test_e1_n2_single_term(self):
        spec = generic_spec_n2()
        b = BasisVector(NORMAL, (0,))
        got = act(gen_e(1), b, spec)
        l21, l22, l11 = Rat(1, 3), Rat(-1, 2), Rat(1, 5)
        expected = -(spec_bracket(spec, LinearExpr(l11 - l21, 0, 0))
                     * spec_bracket(spec, LinearExpr(l11 - l22, 0, 0)))
        assert got == ModuleElement({BasisVector(NORMAL, (1,)): expected})

    def test_f1_n2_unit_coefficient(self):
        spec = generic_spec_n2()
        b = BasisVector(NORMAL, (0,))
        got = act(gen_f(1), b, spec)
        den = bracket(LinearExpr(Rat(0), 0, 0))  # no same-row partner: empty product
        assert got == ModuleElement({BasisVector(NORMAL, (-1,)): one(spec)})

    def test_qeps1_weight(self):
        spec = generic_spec_n2()
        b = BasisVector(NORMAL, (0,))
        got = act(gen_qeps(1), b, spec)
        expected = FieldElement.q_monomial(QUANTUM, 1, (Rat(1, 5) + 1) * spec.qscale)
        assert got == ModuleElement({b: expected})

    def test_commutator_ef_is_weight_bracket(self):
        spec = generic_spec_n2()
        for z in [(0,), (1,), (-2,)]:
            b = BasisVector(NORMAL, z)
            v = ModuleElement.basis(b, spec.mode)
            lhs = act_word([gen_e(1), gen_f(1)], v, spec) - act_word(
                [gen_f(1), gen_e(1)], v, spec
            )
            a1 = weight_exponent(spec, 1, z)
            a2 = weight_exponent(spec, 2, z)
            rhs = v.scale(spec_bracket(spec, a1 - a2))
            assert lhs == rhs

    def test_act_word_empty_and_linear(self):
        spec = generic_spec_n2()
        b = BasisVector(NORMAL, (0,))
        v = ModuleElement.basis(b, spec.mode)
        assert act_word([], v, spec) == v
        c = FieldElement.q_monomial(QUANTUM, Rat(3, 2), 1)
        assert act_word([gen_e(1)], v.scale(c), spec) == act_word(
            [gen_e(1)], v, spec
        ).scale(c)

    def test_classical_commutator(self):
        spec = generic_spec_n2(CLASSICAL)
        b = BasisVector(NORMAL, (1,))
        v = ModuleElement.basis(b, spec.mode)
        lhs = act_word([gen_e(1), gen_f(1)], v, spec) - act_word(
            [gen_f(1), gen_e(1)], v, spec
        )
        rhs = act(gen_qh((1, -1)), b, spec)
        assert lhs == rhs


class TestGating:
    def test_highest_pattern_annihilated(self):
        spec = ModuleSpec(highest_weight_tableau([3, 0]), interlacing_relations(2))
        top = BasisVector(NORMAL, (0,))
        assert act(gen_e(1), top, spec).is_zero()

    def test_window_size(self):
        spec = ModuleSpec(highest_weight_tableau([3, 0]), interlacing_relations(2))
        assert len(spec.window(6)) == 4

    def test_action_stays_inside(self):
        spec = ModuleSpec(highest_weight_tableau([2, 1, 0]), interlacing_relations(3))
        basis = set(spec.window(4))
        assert len(basis) == 8
        for bv in basis:
            for g in [gen_e(1), gen_e(2), gen_f(1), gen_f(2)]:
                for tgt, _ in act(g, bv, spec):
                    assert tgt in basis


class TestGeneratorValidation:
    @pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
    def test_malformed_generators_are_rejected(self, mode):
        spec = singular_spec_n3(mode)
        bv = BasisVector(NORMAL, (0, 0, 0))
        for g in (Generator("x", 1), Generator("E", 1), gen_e(0), gen_f(3),
                  gen_qeps(0), gen_qeps(4), gen_qh((0, 0, 0, 1)), gen_qh((1, 0, 0, 0, -2))):
            with pytest.raises(ValueError):
                act(g, bv, spec)
            assert g not in {key[0] for key in spec._act_cache}

    @pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
    def test_short_and_zero_padded_weights_act_alike(self, mode):
        spec = singular_spec_n3(mode)
        bv = BasisVector(NORMAL, (0, 1, 0))
        want = act(gen_qeps(1), bv, spec)
        assert act(gen_qh((1,)), bv, spec) == want
        assert act(gen_qh((1, 0, 0, 0, 0)), bv, spec) == want

    @pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
    def test_qeps_shares_the_cache_entry_of_qh_eps(self, mode):
        """qeps_k and qh(eps_k) are one operator under one act cache key,
        whichever form acts first."""
        spec = singular_spec_n3(mode)
        for bv in (BasisVector(NORMAL, (0, 1, 0)), spec.basis_vector(DERIVATIVE, (0, 2, 0))):
            for k in (1, 2, 3):
                eps = gen_qh(tuple(int(t == k) for t in (1, 2, 3)))
                first, second = (eps, gen_qeps(k)) if k % 2 else (gen_qeps(k), eps)
                assert act(second, bv, spec) is act(first, bv, spec)
        assert {key[0].kind for key in spec._act_cache} == {"qh"}

    def test_non_integral_weights_and_shifts_are_rejected(self):
        # int() would truncate them to qh(0,1,0) and T[0,0,0]
        spec = singular_spec_n3()
        for v in (0.5, Rat(1, 2), "1/2"):
            with pytest.raises(ValueError):
                gen_qh((v, 1, 0))
        with pytest.raises(ValueError):
            spec.basis_vector(NORMAL, (0.4, 0, 0))
        assert gen_qh((1.0, Rat(1), "0")) == gen_qh((1, 1, 0))
        assert spec.basis_vector(NORMAL, (0.0, 0, 0)) == spec.basis_vector(NORMAL, (0, 0, 0))


class TestSpecValidation:
    def test_height_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different heights"):
            ModuleSpec(highest_weight_tableau([2, 1, 0]), RelationSet(2, []))

    def test_non_admissible_relation_set_rejected(self):
        T = Tableau(2, [[0], [-1, 1]])  # satisfies C, whose chain runs right to left
        C = RelationSet(2, [((2, 2), (1, 1), False), ((1, 1), (2, 1), True)])
        with pytest.raises(ValueError, match="not admissible"):
            ModuleSpec(T, C)

    def test_fault_must_be_a_fault(self):
        # a string used to build and then crash every spec check
        T = highest_weight_tableau([1, 0])
        with pytest.raises(TypeError, match="must be a Fault"):
            ModuleSpec(T, interlacing_relations(2), fault="x")
        assert ModuleSpec(T, interlacing_relations(2), fault=None).fault == Fault()

    def test_base_outside_the_relation_set_rejected(self):
        with pytest.raises(ValueError, match="base tableau does not satisfy"):
            ModuleSpec(Tableau(2, [[3], [1, 0]]), interlacing_relations(2))


class TestSingularPipeline:
    def test_derivative_expansion_needs_a_singular_spec_and_unfixed_shift(self):
        with pytest.raises(ValueError, match="no derivative vectors"):
            expand_derivative(generic_spec_n2(), gen_e(1), (0,))
        with pytest.raises(ValueError, match="tau-unfixed"):
            expand_derivative(singular_spec_n3(), gen_e(1), (0, 1, 1))

    def test_tau_fixed_derivative_is_zero(self):
        spec = singular_spec_n3()
        with pytest.raises(ValueError):
            spec.basis_vector(DERIVATIVE, (0, 0, 0))

    def test_unknown_basis_vector_kind_is_rejected(self):
        # an unknown kind used to be read as a derivative vector
        with pytest.raises(ValueError, match="unknown basis vector kind"):
            singular_spec_n3().basis_vector("foo", (0, 0, 1))

    def test_zero_classical_weight_leaves_no_term(self):
        spec = singular_spec_n3(CLASSICAL)
        for kind, z in ((NORMAL, (0, 0, 0)), (DERIVATIVE, (0, 1, 0))):
            assert act(gen_qh((0, 0, 0)), spec.basis_vector(kind, z), spec).terms == {}

    def test_normal_canonicalized(self):
        spec = singular_spec_n3()
        bv = spec.basis_vector(NORMAL, (0, 2, -1))
        assert bv.z == (0, -1, 2)

    def test_compatibility_normal(self):
        # the pipeline gives the same element from either representative
        spec = singular_spec_n3()
        gens = [gen_e(1), gen_e(2), gen_f(1), gen_f(2), gen_qeps(1), gen_qeps(2), gen_qeps(3)]
        for z in [(0, 0, 0), (1, 0, 1), (0, 1, -1), (2, -1, 0)]:
            tz = spec.tau(z)
            for g in gens:
                assert expand_normal(spec, g, z) == expand_normal(spec, g, tz), (g, z)

    def test_antisymmetry_derivative(self):
        spec = singular_spec_n3()
        gens = [gen_e(1), gen_e(2), gen_f(1), gen_f(2), gen_qeps(2)]
        for z in [(0, 1, 0), (0, 2, -1), (1, 0, 3)]:
            tz = spec.tau(z)
            for g in gens:
                lhs = expand_derivative(spec, g, z)
                rhs = expand_derivative(spec, g, tz)
                assert lhs == -rhs, (g, z)

    def test_pole_cancellation_on_diagonal(self):
        # tau-fixed shift: the singular-row coefficients have first-order
        # poles that the [x-y]_q factor cancels; the result is finite and
        # carries derivative components exactly at the singular columns
        spec = singular_spec_n3()
        b = BasisVector(NORMAL, (0, 1, 1))
        got = act(gen_e(2), b, spec)
        assert not got.is_zero()
        kinds = {bv.kind for bv in got.terms}
        assert kinds == {NORMAL, DERIVATIVE}

    def test_weight_on_derivative_is_scalar(self):
        spec = singular_spec_n3()
        b = spec.basis_vector(DERIVATIVE, (0, 2, 0))
        got = act(gen_qeps(2), b, spec)
        # exponent (x+2) + y - l11 + 2 at x = y = 0, with l11 = 1/7
        expected = FieldElement.q_monomial(QUANTUM, 1, (Rat(4) - Rat(1, 7)) * spec.qscale)
        assert got == ModuleElement({b: expected})

    def test_sum_that_cancels_every_term_is_zero(self):
        spec = singular_spec_n3()
        v = act(gen_e(2), BasisVector(NORMAL, (0, 1, 1)), spec)
        u = act(gen_f(1), BasisVector(NORMAL, (0, 0, 0)), spec)
        assert len(v.terms) > 1 and not u.is_zero()
        assert (v + (-v)).terms == {}
        assert (v - v).is_zero()
        assert ((v + u) - v).terms == u.terms

    @pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
    def test_weight_cache_matches_weight_exponents(self, mode):
        # weight_element is memoized by h and its integer shift, so every
        # translate that keeps the weighted row-sum differences shares one
        # value
        spec = singular_spec_n3(mode)
        hs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, -1), (0, 2, -1), (0, 0, 0)]
        c = spec.base.entry(spec.singular.row, spec.singular.i)
        window = spec.window(1)
        for bv in window:
            for h in hs:
                e = 0
                for k, hk in enumerate(h, start=1):
                    a = weight_exponent(spec, k, bv.z)
                    e += hk * (a.const + (a.cx + a.cy) * c)
                if mode == QUANTUM:
                    want = FieldElement.q_monomial(mode, 1, e * spec.qscale)
                else:
                    want = FieldElement.q_monomial(mode, e)
                assert spec.weight_element(h, bv.z) == want, (h, bv)
        cached = [key for key in spec._piece_cache if key[0] == "weight"]
        assert len(cached) == len({(h, weight_shift(spec, h, bv.z))
                                   for bv in window for h in hs})

    def test_mixed_output_from_derivative(self):
        spec = singular_spec_n3()
        b = spec.basis_vector(DERIVATIVE, (0, 1, 0))
        got = act(gen_e(2), b, spec)
        kinds = {bv.kind for bv in got.terms}
        assert NORMAL in kinds and DERIVATIVE in kinds


class TestGenericConsistency:
    def test_symbolic_two_point_evaluation_matches_direct(self):
        # same base except the designated pair; the symbolic coefficients of
        # the singular machinery evaluated at the generic pair values must
        # reproduce the direct generic coefficients
        a, b = Rat(4, 7), Rat(-3, 5)
        gen_base = Tableau(3, [[Rat(1, 7)], [a, b], [Rat(5, 2), Rat(1, 3), Rat(9, 11)]])
        gspec = ModuleSpec(gen_base, RelationSet(3, []))
        sspec = singular_spec_n3()
        # the two specs scale exponents differently; compare in units of
        # 1/D, which both scales divide and in which a and b are integral
        D = lcm(sspec.qscale, gspec.qscale)
        for z in [(0, 0, 0), (1, -1, 2), (0, 2, 0)]:
            for kind, k in [("e", 1), ("e", 2), ("f", 1), ("f", 2)]:
                for r in range(1, k + 1):
                    sym = evaluate_at(
                        scale_q_exponents(
                            element(sspec.raw_coeff(kind, k, r, z), sspec.qscale),
                            D // sspec.qscale,
                        ),
                        a * D,
                        b * D,
                    )
                    direct = scale_q_exponents(
                        evaluate_at_singular(
                            element(gspec.raw_coeff(kind, k, r, z), gspec.qscale), 0),
                        D // gspec.qscale,
                    )
                    assert sym == direct, (kind, k, r, z)
