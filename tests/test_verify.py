import itertools
import random
import time

import pytest

from gtsingular._rat import Rat
from gtsingular.exactalg import (
    CLASSICAL,
    QUANTUM,
    DivisionByZero,
    FieldElement,
    PoleAtEvaluation,
    dv_operator,
    evaluate_at_singular,
)
from gtsingular.tableaux import (
    Position,
    Relation,
    RelationSet,
    Tableau,
    highest_weight_tableau,
    interlacing_relations,
    maximal_relation_set,
)
from gtsingular import action, gtcenter, verify
from gtsingular.action import (
    DERIVATIVE,
    NORMAL,
    BasisVector,
    Fault,
    ModuleElement,
    ModuleSpec,
    act,
    gen_e,
    gen_f,
)
from gtsingular.verify import (
    check_appendix,
    check_compatibility,
    check_defining_relations,
    check_finite_dimensional,
    check_gamma,
    irreducibility_evidence,
)

from gated_specs import gated_corpus
from oracles import (
    act_word,
    oracle_window_connectivity,
    per_word_relation_instances,
    residual_cartan_instances,
    row_shifts,
    scale_q_exponents,
    translation_key,
)
from test_action import generic_spec_n2, singular_spec_n3
from test_gtcenter import generic_spec_n3
from test_exactalg import has_int_keys, is_canonical_element, vanishing_den


def g4_spec(mode=CLASSICAL, fault=None):
    """A gated singular n = 4 spec: the singular pair (2,1),(2,2) lies
    outside the support of an admissible set of four relations."""
    T = Tableau(4, [[Rat(1, 7)], [Rat(1, 2), Rat(1, 2)], [2, Rat(1, 5), Rat(1, 3)],
                    [3, 1, Rat(1, 3), Rat(-2, 3)]])

    def rel(lhs, rhs, strict):
        return Relation(Position(*lhs), Position(*rhs), strict)

    C = RelationSet(4, [rel((4, 1), (3, 1), False), rel((3, 1), (4, 2), True),
                        rel((4, 3), (3, 3), False), rel((3, 3), (4, 4), True)])
    return ModuleSpec(T, C, mode=mode, fault=fault)


def test_relations_generic_n2():
    rep = check_defining_relations(generic_spec_n2(), 2)
    assert rep, rep.render()


def test_relations_singular_n3_small():
    rep = check_defining_relations(singular_spec_n3(), 1)
    assert rep, rep.render()


def test_relations_classical_singular_small():
    rep = check_defining_relations(singular_spec_n3(CLASSICAL), 1)
    assert rep, rep.render()


def count_products_in_combine(monkeypatch, combine):
    """Count the factor pairs that reach combine and the FieldElement
    products built while it runs (its fe_sum included) during the relation
    check of the classical n=3 fixture at B=1, with combine standing for
    action.combine at every call site."""
    counts = {"pairs": 0, "mul": 0}
    inside = False
    mul = FieldElement.__mul__

    def counted_mul(self, other):
        counts["mul"] += inside
        return mul(self, other)

    def counted_combine(triples, spec):
        nonlocal inside
        triples = list(triples)
        counts["pairs"] += len(triples)
        inside = True
        try:
            return combine(triples, spec)
        finally:
            inside = False

    with monkeypatch.context() as patch:
        patch.setattr(FieldElement, "__mul__", counted_mul)
        patch.setattr(action, "combine", counted_combine)
        patch.setattr(verify, "combine", counted_combine)
        rep = check_defining_relations(singular_spec_n3(CLASSICAL), 1)
    assert rep, rep.render()
    return counts


def test_classical_relation_check_builds_few_products(monkeypatch):
    """A residual's parts reach combine as factor pairs, and combine sums a
    classical scalar pair without building its product: on the n=3
    fixture at B=1 no FieldElement product is built inside combine, whose
    fe_sum included.  A combine that builds each product first fails the
    same count."""
    combine = action.combine
    counts = count_products_in_combine(monkeypatch, combine)
    assert counts["pairs"] and not counts["mul"], counts

    def product_combine(triples, spec):
        return combine([(bv, a if b is None else a * b, None) for bv, a, b in triples],
                       spec)

    counts = count_products_in_combine(monkeypatch, product_combine)
    assert counts["pairs"] and counts["mul"], counts


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("fixture, B", [(generic_spec_n2, 1), (singular_spec_n3, 1), (g4_spec, 0)],
                         ids=["n2", "n3", "G4"])
def test_fused_residuals_match_per_word_residuals(fixture, B, mode):
    """Each residual summed in one pass equals the residual summed word by
    word, on every instance and window vector at B.  The sign flip makes
    many residuals nonzero, so their values are compared too; it leaves
    every Serre residual zero (Serre is cubic in e), which
    test_serre_inner_matches_word_oracle makes up for.  G4 brings the n = 4
    Serre pairs and [e_1, e_3] = 0."""
    clean = fixture(mode)
    spec = ModuleSpec(clean.base, clean.relations, mode=mode, fault=Fault(sign_flip=True))
    fused = verify._relation_instances(spec)
    oracle = per_word_relation_instances(spec)
    assert [label for label, _ in fused] == [label for label, _ in oracle]
    nonzero = 0
    for bv in spec.window(B):
        for (label, residual), (_, want) in zip(fused, oracle):
            got = residual(bv)
            assert got == want(bv), f"{label} on {bv!r}"
            nonzero += not got.is_zero()
    assert nonzero


CARTAN_CASES = pytest.mark.parametrize("fixture, mode, B", [
    (singular_spec_n3, QUANTUM, 1), (singular_spec_n3, CLASSICAL, 1),
    (generic_spec_n2, QUANTUM, 2), (generic_spec_n2, CLASSICAL, 2),
    (g4_spec, QUANTUM, 0), (g4_spec, CLASSICAL, 1),
], ids=["n3-quantum", "n3-classical", "n2-quantum", "n2-classical",
        "G4-quantum", "G4-classical"])


def graded_against_full_residuals(monkeypatch, spec, B):
    """Each Cartan instance of the relation table against its full residual
    on every window vector of spec at B: the two must be zero together,
    and the table must build a residual (call combine) exactly where the
    full one is nonzero, so every zero is read off the grading.  Returns
    the number of nonzero residuals."""
    reference = residual_cartan_instances(spec)
    graded = dict(verify._relation_instances(spec))
    built = []

    def counted_combine(triples, spec):
        built.append(None)
        return action.combine(triples, spec)

    nonzero = 0
    with monkeypatch.context() as patch:
        patch.setattr(verify, "combine", counted_combine)
        for bv in spec.window(B):
            for label, want in reference:
                full = want(bv)
                built.clear()
                got = graded[label](bv)
                assert got.is_zero() == full.is_zero(), f"{label} on {bv!r}"
                assert bool(built) == (not full.is_zero()), f"{label} on {bv!r}"
                nonzero += not full.is_zero()
    return nonzero


@pytest.mark.parametrize("fault", [None, Fault(sign_flip=True), Fault(drop_gate=True),
                                   Fault(gamma_prefactor=True)],
                         ids=["clean", "sign_flip", "drop_gate", "gamma_prefactor"])
@CARTAN_CASES
def test_graded_cartan_instances_match_full_residuals(monkeypatch, fixture, mode, B, fault):
    """No Fault touches a weight, so every Cartan residual is zero, with or
    without one, and the grading reads each zero without building it."""
    clean = fixture(mode)
    spec = ModuleSpec(clean.base, clean.relations, mode=mode, fault=fault)
    labels = [label for label, _ in residual_cartan_instances(spec)]
    table = [label for label, _ in verify._relation_instances(spec)]
    assert labels == table[:len(labels)]
    assert graded_against_full_residuals(monkeypatch, spec, B) == 0


def break_row_one_weights(monkeypatch):
    """Make every weight read its tableau's row 1 unshifted, so that the
    weight of a vector misses the shift e_1 and f_1 make."""
    real = ModuleSpec.weight_element
    monkeypatch.setattr(ModuleSpec, "weight_element",
                        lambda self, h, z: real(self, h, (0,) + tuple(z[1:])))


@CARTAN_CASES
def test_a_broken_weight_fails_graded_and_full_residuals_alike(monkeypatch, fixture, mode, B):
    """Under weights that miss row 1's shift, graded and full residuals
    still agree, some are nonzero, and the relation check renders the same
    report, the same first failing instance and vector and the same
    residual text, whether its Cartan instances are decided on their
    grading or on their full residuals."""
    with monkeypatch.context() as patch:
        break_row_one_weights(patch)
        assert graded_against_full_residuals(patch, fixture(mode), B)
    real_table = verify._relation_instances

    def full_table(spec):
        full = dict(residual_cartan_instances(spec))
        return [(label, full.get(label, residual)) for label, residual in real_table(spec)]

    reports = []
    for table in (real_table, full_table):
        with monkeypatch.context() as patch:
            break_row_one_weights(patch)
            patch.setattr(verify, "_relation_instances", table)
            reports.append(check_defining_relations(fixture(mode), B)._replace(seconds=0))
    graded, full = reports
    assert not graded.passed and graded.counterexample.startswith(("q^h e_1", "[h, e_1]"))
    assert graded.render() == full.render()


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("fixture, B", [(singular_spec_n3, 1), (g4_spec, 0)], ids=["n3", "G4"])
def test_serre_inner_matches_word_oracle(fixture, B, mode):
    """The memoized inner commutator of a Serre instance equals
    g_r g_s x - q g_s g_r x summed word by word, on every window vector x
    and every target x of g_r on one, for each pair |r - s| = 1 of e's and
    of f's.  These values are nonzero, unlike the Serre residuals of
    test_fused_residuals_match_per_word_residuals, and a second call
    returns the memoized element."""
    spec = fixture(mode)
    q = FieldElement.q_monomial(mode, 1, spec.qscale if mode == QUANTUM else 0)
    memo = {}
    for gen in (gen_e, gen_f):
        for r in range(1, spec.n):
            for s in (r - 1, r + 1):
                if not 1 <= s < spec.n:
                    continue
                gr, gs = gen(r), gen(s)
                xs = set()
                for bv in spec.window(B):
                    xs.add(bv)
                    xs.update(act(gr, bv, spec).terms)
                for x in sorted(xs):
                    v = ModuleElement.basis(x, mode)
                    want = act_word([gr, gs], v, spec) - act_word([gs, gr], v, spec).scale(q)
                    got = verify.serre_inner(memo, spec, gr, gs, x)
                    assert got == want and not got.is_zero(), f"[{gr!r}, {gs!r}]_q on {x!r}"
                    assert verify.serre_inner(memo, spec, gr, gs, x) is got
    assert memo


def _field_elements(value):
    """The field elements in a cached action or coefficient value: an
    element, a module element or a (dv, ev) pair."""
    if isinstance(value, FieldElement):
        return [value]
    if isinstance(value, ModuleElement):
        return list(value.terms.values())
    if isinstance(value, tuple):
        return [e for v in value for e in _field_elements(v)]
    raise TypeError(f"unexpected cached value {value!r}")


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
def test_cached_coefficients_keep_integer_primitive_parts(mode):
    """No silent fallback to rational term-dict coefficients or to (q, x, y)
    keys: after the relation and gamma checks every cached module-stage
    coefficient, singular and generic, has int primitive parts keyed by
    bare int Q exponents."""
    for spec in (singular_spec_n3(mode), generic_spec_n2(mode)):
        for check in (check_defining_relations, check_gamma):
            rep = check(spec, 0)
            assert rep, rep.render()
        cached = list(spec._act_cache.values()) + list(spec._piece_cache.values())
        elems = [e for v in cached for e in _field_elements(v)]
        assert len(elems) > (5 if spec.is_generic() else 50)
        assert all(is_canonical_element(e) and has_int_keys(e, univariate=True) for e in elems)


@pytest.mark.parametrize("lam", [[2, 1, 0], [1, 0, 0]])
@pytest.mark.parametrize("B", [1, 2])
def test_relations_classical_finite_dimensional(lam, B):
    # classical weights vanish on some of these vectors; a zero weight term
    # kept in an element once made this check fail on a correct module
    spec = ModuleSpec(highest_weight_tableau(lam), interlacing_relations(3), mode=CLASSICAL)
    rep = check_defining_relations(spec, B)
    assert rep, rep.render()


class _RaisingSpec(ModuleSpec):
    """A spec whose coefficient lookup divides by zero at one shift.  It
    raises in _pieces, the coefficient cache's entry point: the cache is
    keyed by entry differences, so a translate of an earlier shift never
    reaches raw_coeff."""

    def __init__(self, tableau, relations, bad_shift):
        super().__init__(tableau, relations)
        self.bad_shift = bad_shift

    def _pieces(self, tag, kind, k, r, z):
        if z == self.bad_shift:
            raise DivisionByZero("injected zero denominator")
        return super()._pieces(tag, kind, k, r, z)


def test_relations_division_by_zero_is_a_failed_report():
    T = Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]])
    # (2,) lies outside the B=1 window: only a relation instance reaches it,
    # from T[1] through f_1 e_1
    rep = check_defining_relations(_RaisingSpec(T, RelationSet(2, []), (2,)), 1)
    assert not rep.passed
    assert rep.counterexample.startswith("[e_1, f_1] commutator on T[1]: division by zero")
    # inside the window the closure sweep reaches it first
    rep = check_defining_relations(_RaisingSpec(T, RelationSet(2, []), (0,)), 1)
    assert not rep.passed
    assert rep.counterexample.startswith("closure on T[0]: division by zero")


@pytest.mark.parametrize("make", [
    lambda: singular_spec_n3(QUANTUM), lambda: singular_spec_n3(CLASSICAL),
    lambda: g4_spec(CLASSICAL), generic_spec_n3,
], ids=["n3-quantum", "n3-classical", "g4-classical", "generic-n3"])
def test_translation_keyed_caches_match_fresh_values(monkeypatch, make):
    # every _pieces and weight_element call of the relation and
    # compatibility checks at B=1 returns what an empty cache computes, and
    # no two raw_coeff calls read the same entry differences
    spec = make()
    calls, raw_keys, tag = {}, [], None
    pieces, raw_coeff, weight = (ModuleSpec._pieces, ModuleSpec.raw_coeff,
                                 ModuleSpec.weight_element)

    def record_pieces(self, *args):
        nonlocal tag
        # a coefficient reads rows k and k +- 1 only, so one call per
        # content of those rows stands for all of them
        _, kind, k, _, z = args
        other = k + 1 if kind == "e" else k - 1
        reads = args[:4] + (row_shifts(self, k, z), row_shifts(self, other, z))
        calls.setdefault(reads, (pieces, args))
        tag = args[0]
        return pieces(self, *args)

    def record_raw(self, kind, k, r, z):
        raw_keys.append(translation_key(self, tag, kind, k, r, z))
        return raw_coeff(self, kind, k, r, z)

    def record_weight(self, *args):
        calls[args] = (weight, args)
        return weight(self, *args)

    monkeypatch.setattr(ModuleSpec, "_pieces", record_pieces)
    monkeypatch.setattr(ModuleSpec, "raw_coeff", record_raw)
    monkeypatch.setattr(ModuleSpec, "weight_element", record_weight)
    assert check_defining_relations(spec, 1)
    assert spec.is_generic() or check_compatibility(spec, 1)
    monkeypatch.undo()
    assert raw_keys and len(set(raw_keys)) == len(raw_keys)
    assert {fn for fn, _ in calls.values()} == {pieces, weight}
    for fn, args in calls.values():
        cached = fn(spec, *args)
        cache, spec._piece_cache = spec._piece_cache, {}
        assert fn(spec, *args) == cached, args
        spec._piece_cache = cache


def _raise_at(monkeypatch, tag, exc):
    """Make every evaluation with the given _evaluated tag raise exc: the
    one boundary that both the e/f coefficients and the gamma values pass."""
    real = ModuleSpec._evaluated

    def evaluated(self, t, f):
        if t == tag:
            raise exc("injected")
        return real(self, t, f)

    monkeypatch.setattr(ModuleSpec, "_evaluated", evaluated)


@pytest.mark.parametrize("tag, expected", [
    ("N", "normal pipeline of e1 on T[-1,-1,-1]: division by zero: injected"),
    ("D", "derivative pipeline of e1 on DT[-1,-1,0]: division by zero: injected"),
], ids=["normal", "derivative"])
def test_compatibility_division_by_zero_is_a_failed_report(monkeypatch, tag, expected):
    _raise_at(monkeypatch, tag, DivisionByZero)
    rep = check_compatibility(singular_spec_n3(), 1)
    assert not rep.passed
    assert rep.counterexample == expected


def tau_asymmetric_pieces(monkeypatch, tag):
    """Double one piece of the tag-N (dv) or tag-D (ev) e-coefficients at
    the shifts with z_11 = 0 that are not canonical for that pipeline
    (normal: z_i > z_j, derivative: z_i < z_j), outside _pieces' cache, so
    each pipeline disagrees with its tau twin there."""
    real = ModuleSpec._pieces

    def pieces(self, t, kind, k, r, z):
        dv, ev = val = real(self, t, kind, k, r, z)
        zi, zj = z[self.zi], z[self.zj]
        if t != tag or kind != "e" or z[0] or (zi <= zj if tag == "N" else zi >= zj):
            return val
        return (dv.scale(2), ev) if tag == "N" else (dv, ev.scale(2))

    monkeypatch.setattr(ModuleSpec, "_pieces", pieces)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("tag, expected", [
    ("N", "normal pipeline differs across tau at z=(0, -1, 0), g=e1"),
    ("D", "derivative pipeline not antisymmetric at z=(0, -1, 0), g=e1"),
], ids=["normal", "derivative"])
def test_compatibility_walk_reports_the_first_failing_orbit(monkeypatch, tag, expected, mode, warm):
    """A tau-asymmetric pipeline fails on the counterexample a visit of
    every shift reported, whether or not the relation check has filled
    act's cache first (warm).  The expected strings are those of a walk
    that compared both representatives at every shift."""
    spec = singular_spec_n3(mode)
    tau_asymmetric_pieces(monkeypatch, tag)
    if warm:
        check_defining_relations(spec, 1)
    rep = check_compatibility(spec, 1)
    assert not rep.passed
    assert rep.counterexample == expected
    assert rep.summary == f"7 generators on 27 shifts ({mode})"


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
def test_compatibility_caches_canonical_vectors_only(mode):
    """The non-canonical side of each comparison is expanded, not read
    through act, so act's cache keeps canonical keys only."""
    spec = singular_spec_n3(mode)
    assert check_compatibility(spec, 1)
    canonical = {NORMAL: spec.canonical_normal,
                 DERIVATIVE: lambda z: spec.canonical_derivative(z)[0]}
    assert spec._act_cache
    assert all(bv == canonical[bv.kind](bv.z) for _, bv in spec._act_cache)


def generic_spec_n3_integral_gap(mode, top):
    """A generic n = 3 spec with C empty and an integral gap between rows 1
    and 2, l_11 - l_21 = 2 top - 1, off the support: the hypothesis fails."""
    T = Tableau(3, [[top], [1 - top, Rat(1, 3)], [Rat(1, 5), Rat(2, 7), Rat(3, 11)]])
    return ModuleSpec(T, RelationSet(3, []), mode=mode)


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("make", [
    singular_spec_n3,
    lambda mode: generic_spec_n3_integral_gap(mode, 1),
    lambda mode: generic_spec_n3_integral_gap(mode, 0),
], ids=["n3-singular", "generic-top-1", "generic-top-0"])
def test_two_search_connectivity_matches_all_pairs_oracle(make, B, mode):
    """The forward and reverse search agree with all-pairs reachability.
    At B=2 the generic specs read "no": with top entry 1 some interior
    vertex cannot reach back to the first, and with top entry 0 the first
    cannot reach some interior vertex."""
    spec = make(mode)
    evidence = "yes" if oracle_window_connectivity(spec, B) else "no"
    rep = irreducibility_evidence(spec, B)
    assert f"evidence={evidence} on" in rep.summary
    if B == 2 and spec.is_generic():
        assert evidence == "no"


def test_irreducibility_division_by_zero_is_a_failed_report(monkeypatch):
    _raise_at(monkeypatch, "N", DivisionByZero)
    rep = irreducibility_evidence(generic_spec_n2(), 1)
    assert not rep.passed
    assert rep.counterexample == "adjacency of e1 on T[-1]: division by zero: injected"
    assert rep.summary == (
        "hypothesis=holds, window connectivity evidence=unknown on 3 vectors"
    )


@pytest.mark.parametrize("tag, expected", [
    ("E", "character key on T[-1,-1,-1]: pole at the singular point: injected"),
    ("D", "central sweep on DT[-1,0,-1]: pole at the singular point: injected"),
], ids=["character-key", "sweep"])
def test_gamma_pole_is_a_failed_report(monkeypatch, tag, expected):
    # gamma values raise PoleAtEvaluation itself: only e/f coefficients are
    # wrapped as NonRealizable
    _raise_at(monkeypatch, tag, PoleAtEvaluation)
    rep = check_gamma(singular_spec_n3(), 1)
    assert not rep.passed
    assert rep.counterexample == expected
    assert rep.summary == "9 central generators on 27 vectors (quantum)"


def test_relations_pole_is_a_non_realizable_failure(monkeypatch):
    # an e/f coefficient with a pole at the singular point is wrapped as
    # NonRealizable, which the check reports with its step and vector
    _raise_at(monkeypatch, "N", PoleAtEvaluation)
    rep = check_defining_relations(singular_spec_n3(), 1)
    assert not rep.passed
    assert rep.counterexample == (
        "closure on T[-1,-1,-1]: non-realizable coefficient: coefficient e_1,1 "
        "at shift (-1, -1, -1) is not realizable: injected")


def _block(*members, moved=None):
    """A block_report row of the given members, moved by no c_mk - gamma_mk
    unless moved gives the indices per member, with every square zero."""
    none = ((),) * len(members)
    return gtcenter.BlockRow((), members, len(members), (), moved or none, none)


def _normal(*z):
    return BasisVector(NORMAL, z)


def _derivative(*z):
    return BasisVector(DERIVATIVE, z)


@pytest.mark.parametrize("rows, expected", [
    ([_block(_normal(0, 0, 0), _normal(0, 0, 1), _normal(1, 0, 0))],
     "block of dimension 3"),
    ([_block(_normal(0, 0, 0), _normal(0, 0, 1))],
     "dimension-2 block without a tableau/derivative pair"),
    ([_block(_normal(0, 0, 0)), _block(_normal(0, 0, 1))],
     "no dimension-2 block for tau-unfixed shifts"),
    ([_block(_normal(0, 0, 1), _derivative(0, 1, 0), moved=((), ((1, 1),)))],
     "(c-gamma) c_11 does not vanish on DT[0,1,0]"),
], ids=["dimension-3", "two-normals", "only-dimension-1", "outside-singular-row"])
def test_gamma_block_verdicts(monkeypatch, rows, expected):
    """The paper's block claims on the singular n=3 spec (singular row 2):
    blocks have dimension at most 2, a dimension-2 block pairs a tableau
    with its derivative tableau, a window with tau-unfixed shifts has one,
    and c_mk - gamma_mk moves a derivative vector only on the singular
    row.  Each row list breaks one claim and nothing checked before it."""
    monkeypatch.setattr(verify, "block_report", lambda spec, B, at=None: rows)
    rep = check_gamma(singular_spec_n3(), 1)
    assert not rep.passed
    assert rep.counterexample == expected


def test_compatibility_n3():
    rep = check_compatibility(singular_spec_n3(), 1)
    assert rep, rep.render()


def test_compatibility_needs_a_singular_spec():
    with pytest.raises(ValueError, match="singular spec"):
        check_compatibility(generic_spec_n2(), 1)


def test_appendix_quick():
    rep = check_appendix(QUANTUM, samples=10, seed=5)
    assert rep, rep.render()
    rep = check_appendix(CLASSICAL, samples=10, seed=5)
    assert rep, rep.render()


def _assert_exercises_poles(monkeypatch, system, seed):
    # the pole-family and difference-quotient inputs must keep their
    # vanishing denominator factor, so that pole cancellation is exercised
    seen = {}
    for name in ("dv_operator", "evaluate_at_singular"):
        def record(f, c, *rest, _fn=getattr(verify, name), _name=name):
            seen[_name] = seen.get(_name, False) or vanishing_den(f, c)
            return _fn(f, c, *rest)
        monkeypatch.setattr(verify, name, record)
    rep = check_appendix(system, samples=3, seed=seed)
    assert rep, rep.render()
    assert seen == {"dv_operator": True, "evaluate_at_singular": True}


def test_appendix_classical_exercises_poles(monkeypatch):
    _assert_exercises_poles(monkeypatch, CLASSICAL, 11)


def test_appendix_quantum_exercises_poles_in_units_of_one_half(monkeypatch):
    _assert_exercises_poles(monkeypatch, QUANTUM, 11)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_appendix_quantum_values_have_int_exponents(monkeypatch, seed):
    # check_appendix works in units of 1/2, so its half-integer points
    # leave no rational Q exponent in any functional value
    values = []
    for name in ("dv_operator", "evaluate_at_singular"):
        def record(*args, _fn=getattr(verify, name)):
            values.append(_fn(*args))
            return values[-1]
        monkeypatch.setattr(verify, name, record)
    rep = check_appendix(QUANTUM, samples=10, seed=seed)
    assert rep, rep.render()
    assert values and all(has_int_keys(v, univariate=True) for v in values)


@pytest.mark.parametrize("c", [Rat(-3, 2), Rat(1, 2), 0, 1, Rat(5, 2)], ids=str)
@pytest.mark.parametrize("seed", [0, 3])
def test_functionals_in_units_of_one_half_match_units_of_one(seed, c):
    # twin draws at scale 2 and 4 are the same element under Q -> Q^(1/2),
    # and at both the point c is integral
    f1 = verify.sample_smooth(random.Random(seed), QUANTUM, scale=2)
    f2 = verify.sample_smooth(random.Random(seed), QUANTUM, scale=4)
    half = Rat(1, 2)
    assert scale_q_exponents(dv_operator(f2, 4 * c, 4), half) == dv_operator(f1, 2 * c, 2)
    assert (scale_q_exponents(evaluate_at_singular(f2, 4 * c), half)
            == evaluate_at_singular(f1, 2 * c))
    pole1 = verify.pole_families(random.Random(seed), QUANTUM, 2 * c, 2)
    pole2 = verify.pole_families(random.Random(seed), QUANTUM, 4 * c, 4)
    for (_, fam1, _), (_, fam2, _) in zip(pole1, pole2):
        for (a1, b1), (a2, b2) in zip(fam1, fam2):
            for g1, g2 in ((a1, a2), (b1, b2)):
                assert (scale_q_exponents(dv_operator(g2, 4 * c, 4), half)
                        == dv_operator(g1, 2 * c, 2))
                assert (scale_q_exponents(evaluate_at_singular(g2, 4 * c), half)
                        == evaluate_at_singular(g1, 2 * c))


def test_classical_draws_take_scale_one_only():
    with pytest.raises(ValueError, match="scale"):
        verify.sample_smooth(random.Random(0), CLASSICAL, scale=2)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="'Quantum'"):
        check_appendix("Quantum", 2, 0)
    with pytest.raises(ValueError, match="'Quantum'"):
        generic_spec_n2(mode="Quantum")
    with pytest.raises(ValueError, match="'Quantum'"):
        check_finite_dimensional([2, 1, 0], "Quantum")


def test_gamma_generic_and_singular():
    rep = check_gamma(generic_spec_n2(), 2)
    assert rep, rep.render()
    rep = check_gamma(singular_spec_n3(), 1)
    assert rep, rep.render()


# Singular row 3, C = M(T).  On some derivative vectors only c_32 acts
# non-semisimply, because the third entry of the singular row is 0 at that
# shift: the Jordan claim holds per vector, not per index.
SINGULAR_ROW_3 = [
    [[Rat(-5, 3)], [Rat(-9, 5), Rat(-2, 3)], [Rat(5, 2), -1, Rat(3, 2)],
     [Rat(-12, 7), Rat(7, 3), Rat(-9, 5), 0]],
    [[Rat(16, 7)], [Rat(1, 2), Rat(-12, 7)], [Rat(1, 5), Rat(1, 5), 1],
     [Rat(1, 3), Rat(-2, 3), Rat(2, 7), Rat(3, 2)]],
]


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("rows", SINGULAR_ROW_3)
def test_gamma_singular_row_3(rows, mode):
    T = Tableau(4, rows)
    C, _ = maximal_relation_set(T)
    spec = ModuleSpec(T, C, mode=mode)
    assert spec.singular.row == 3
    rep = check_gamma(spec, 1)
    assert rep, rep.render()


def test_gamma_square_is_a_failed_report(monkeypatch):
    # a (c - gamma)^2 that does not vanish names the vector and the index
    real = gtcenter.act_central_element

    def not_nilpotent(m, k, elem, spec):
        return real(m, k, elem, spec) + elem

    monkeypatch.setattr(gtcenter, "act_central_element", not_nilpotent)
    rep = check_gamma(singular_spec_n3(CLASSICAL), 1)
    assert not rep.passed
    assert rep.counterexample == "(c-gamma)^2 c_22 does not vanish on DT[-1,0,-1]"


def test_gamma_semisimple_derivative_vector_fails(monkeypatch):
    # an action under which every central generator is diagonal breaks the
    # Jordan claim on the first derivative vector
    def diagonal(m, k, bv, spec):
        return ModuleElement({bv: gtcenter.gamma_evaluated(spec, m, k, bv.z)})

    monkeypatch.setattr(gtcenter, "act_central", diagonal)
    rep = check_gamma(singular_spec_n3(), 1)
    assert not rep.passed
    assert rep.counterexample == "every c_mk acts semisimply on DT[-1,0,-1]"


def test_relations_g4():
    rep = check_defining_relations(g4_spec(CLASSICAL), 1)
    assert rep, rep.render()
    assert rep.summary.startswith("50 relation instances on 162 basis vectors")
    rep = check_defining_relations(g4_spec(QUANTUM), 0)
    assert rep, rep.render()
    assert rep.summary.startswith("52 relation instances")


def test_finite_dimensional_small():
    rep = check_finite_dimensional([3, 0])
    assert rep, rep.render()
    rep = check_finite_dimensional([2, 1, 0], CLASSICAL)
    assert rep, rep.render()


def test_finite_dimensional_rejects_non_integral_weights():
    # int() would truncate (2.5, 1, 0) to the weight (2, 1, 0) and pass
    for lam in ([2.5, 1, 0], [Rat(5, 2), 1, 0]):
        with pytest.raises(ValueError):
            check_finite_dimensional(lam)


def test_finite_dimensional_rejects_an_empty_weight():
    with pytest.raises(ValueError, match="nonempty"):
        check_finite_dimensional([])


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("lam, dim", [([3, 1, 0, 0], 45), ([2, 1, 0, 0, 0], 40)])
def test_finite_dimensional_n4_n5(lam, dim, mode):
    rep = check_finite_dimensional(lam, mode)
    assert rep, rep.render()
    assert f"basis {dim}, Weyl {dim}" in rep.summary


def test_irreducibility_generic():
    rep = irreducibility_evidence(singular_spec_n3(), 2)
    assert rep, rep.render()


def test_irreducibility_hypothesis_fails_for_nonmaximal():
    # a base with an extra integral adjacent-row gap off the support
    T = Tableau(3, [[Rat(1, 7)], [0, 0], [2, Rat(1, 3), Rat(9, 11)]])
    spec = ModuleSpec(T, RelationSet(3, []))
    rep = irreducibility_evidence(spec, 2)
    assert not rep.passed


class TestMutations:
    def test_sign_flip_detected(self):
        T = Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]])
        spec = ModuleSpec(T, RelationSet(2, []), fault=Fault(sign_flip=True))
        rep = check_defining_relations(spec, 1)
        assert not rep.passed

    @pytest.mark.parametrize("spec, expected", [
        (lambda: ModuleSpec(Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]]),
                            RelationSet(2, []), fault=Fault(sign_flip=True)),
         "[e_1, f_1] commutator on T[-1]: residual "
         "((2 * Q^103 + -2 * Q^-43) / (1 * Q^60 + -1)) T[-1]"),
        (lambda: ModuleSpec(singular_spec_n3().base, RelationSet(3, []),
                            fault=Fault(sign_flip=True)),
         "[e_1, f_1] commutator on T[-1,-1,-1]: residual "
         "((2 * Q^792 + -2 * Q^132) / (1 * Q^924 + -1)) T[-1,-1,-1]"),
        (lambda: ModuleSpec(Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]]),
                            RelationSet(2, []), mode=CLASSICAL, fault=Fault(sign_flip=True)),
         "[e_1, f_1] commutator on T[-1]: residual (73/15) T[-1]"),
        (lambda: ModuleSpec(singular_spec_n3().base, RelationSet(3, []),
                            mode=CLASSICAL, fault=Fault(sign_flip=True)),
         "[e_1, f_1] commutator on T[-1,-1,-1]: residual (10/7) T[-1,-1,-1]"),
    ], ids=["n2", "n3-fixture", "n2-classical", "n3-fixture-classical"])
    def test_sign_flip_counterexample_rendering(self, spec, expected):
        # golden strings: the quantum ones were recorded while module-stage
        # values were still keyed by (q, x, y), the classical ones while
        # contents were still Rat values; both render byte-identically
        rep = check_defining_relations(spec(), 1)
        assert not rep.passed
        assert rep.counterexample == expected

    def test_dropped_gate_detected(self):
        # the basis is T[-3..0]; the gate only matters at T[-3], where the
        # ungated f_1 moves to T[-4], so the window must reach B = 3
        base, rels = highest_weight_tableau([3, 0]), interlacing_relations(2)
        spec = ModuleSpec(base, rels, fault=Fault(drop_gate=True))
        rep = check_defining_relations(spec, 3)
        assert not rep.passed
        assert rep.counterexample == "f1 leaves the basis from T[-3] to T[-4]"
        rep = check_defining_relations(ModuleSpec(base, rels), 3)
        assert rep, rep.render()

    @pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
    def test_dropped_gate_detected_n3(self, mode):
        base, rels = highest_weight_tableau([2, 1, 0]), interlacing_relations(3)
        spec = ModuleSpec(base, rels, mode=mode, fault=Fault(drop_gate=True))
        rep = check_defining_relations(spec, 1)
        assert not rep.passed
        assert " leaves the basis from " in rep.counterexample
        rep = check_defining_relations(ModuleSpec(base, rels, mode=mode), 1)
        assert rep, rep.render()

    def test_gamma_prefactor_detected(self):
        spec = singular_spec_n3()
        bad = ModuleSpec(spec.base, spec.relations, fault=Fault(gamma_prefactor=True))
        rep = check_gamma(bad, 1)
        assert not rep.passed

    @pytest.mark.parametrize("fault, check, expected", [
        (Fault(drop_gate=True), check_defining_relations,
         "f3 leaves the basis from T[-1,-1,-1,0,-1,0]"),
        (Fault(sign_flip=True), check_defining_relations,
         "[e_1, f_1] commutator on T[-1,-1,-1,0,-1,0]: residual"),
        (Fault(gamma_prefactor=True), check_gamma,
         "normal vector T[-1,-1,-1,0,-1,0] not an eigenvector of c_10"),
    ])
    def test_faults_detected_g4(self, fault, check, expected):
        rep = check(g4_spec(CLASSICAL, fault), 1)
        assert not rep.passed
        assert rep.counterexample.startswith(expected), rep.counterexample


def generated_n4():
    """Four gated n = 4 specs, singular rows 2 and 3 both present."""
    return gated_corpus(4, 4, 0, (2, 3), 216, 1)


@pytest.mark.parametrize("mode", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("index", range(4))
def test_generated_gated_n4_gamma_and_compatibility(index, mode):
    T, C, sp = generated_n4()[index]
    spec = ModuleSpec(T, C, mode=mode)
    assert C.relations and spec.singular == sp
    for check in (check_gamma, check_compatibility):
        rep = check(spec, 1)
        assert rep, rep.render()


def test_generated_corpus_covers_singular_rows_2_and_3():
    assert {sp.row for _, _, sp in generated_n4()} == {2, 3}


# The CheckReport contract: render(), repr, truth and equality as they were
# when CheckReport was a dataclass.
_CX = "f1 leaves the basis from T[-3] to T[-4]"
_HEAD = "compatibility: 12 generators on 125 shifts (classical)"


@pytest.mark.parametrize("passed, bound, seed, expected", [
    (True, None, None, f"[PASS] {_HEAD}  (0.12s)"),
    (True, None, 7, f"[PASS] {_HEAD}  (seed=7, 0.12s)"),
    (True, 2, None, f"[PASS] {_HEAD}  (bound=2, 0.12s)"),
    (True, 2, 7, f"[PASS] {_HEAD}  (bound=2, seed=7, 0.12s)"),
    (False, None, None, f"[FAIL] {_HEAD}  (0.12s)\n    counterexample: {_CX}"),
    (False, None, 7, f"[FAIL] {_HEAD}  (seed=7, 0.12s)\n    counterexample: {_CX}"),
    (False, 2, None, f"[FAIL] {_HEAD}  (bound=2, 0.12s)\n    counterexample: {_CX}"),
    (False, 2, 7, f"[FAIL] {_HEAD}  (bound=2, seed=7, 0.12s)\n    counterexample: {_CX}"),
])
def test_check_report_render_and_truth(passed, bound, seed, expected):
    rep = verify.CheckReport("compatibility", "12 generators on 125 shifts (classical)",
                             bound, passed, None if passed else _CX, 0.125, seed)
    assert rep.render() == expected
    assert bool(rep) is passed


def test_check_report_repr_equality_and_construction():
    six = verify.CheckReport("appendix-identities", "stub", None, False, "sample 0", 0.0)
    seven = verify.CheckReport("appendix-identities", "stub", None, False, "sample 0", 0.0, None)
    assert six.seed is None
    assert six == seven
    assert six != verify.CheckReport("appendix-identities", "stub", None, False, "sample 0", 0.0, 3)
    assert repr(verify.CheckReport("defining-relations", "s", 2, True, None, 0.004, 0)) == (
        "CheckReport(name='defining-relations', summary='s', bound=2, passed=True, "
        "counterexample=None, seconds=0.004, seed=0)"
    )
    assert repr(six) == (
        "CheckReport(name='appendix-identities', summary='stub', bound=None, passed=False, "
        "counterexample='sample 0', seconds=0.0, seed=None)"
    )


CHEAP_CHECKS = [
    (check_defining_relations, lambda: (generic_spec_n2(CLASSICAL), 1)),
    (check_compatibility, lambda: (singular_spec_n3(CLASSICAL), 0)),
    (check_gamma, lambda: (generic_spec_n2(CLASSICAL), 1)),
    (irreducibility_evidence, lambda: (generic_spec_n2(CLASSICAL), 1)),
    (check_appendix, lambda: (CLASSICAL, 1, 0)),
    (check_finite_dimensional, lambda: ([1, 0], CLASSICAL)),
]


@pytest.mark.parametrize("check, args", [pytest.param(*case, id=case[0].__name__)
                                         for case in CHEAP_CHECKS])
def test_report_seconds_survive_a_wall_clock_set_back(monkeypatch, check, args):
    # the wall clock jumps back an hour at every read; a report's seconds
    # come from a monotonic clock, so they stay nonnegative
    clock = itertools.count(0, -3600)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    assert check(*args()).seconds >= 0
