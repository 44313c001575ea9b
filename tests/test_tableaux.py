import random
from itertools import product

import pytest

from gtsingular._rat import Rat
from gtsingular.action import ModuleSpec
from gtsingular.exactalg import CLASSICAL
from gtsingular.tableaux import (
    MultiplySingular,
    Position,
    Relation,
    RelationSet,
    SingularPair,
    Tableau,
    detect_singular_pair,
    enumerate_window,
    highest_weight_tableau,
    implies,
    interlacing_relations,
    is_admissible,
    maximal_relation_set,
    normalized_singular_base,
    relation_universe,
    satisfies,
)

from gated_specs import gated_corpus
from oracles import (
    SizeLimit,
    chain_reachable,
    enumerate_admissible,
    in_basis,
    naive_components,
    oracle_admissible,
    oracle_patterns,
    oracle_weyl_dimension,
    oracle_window,
    shifted,
    succ_relation,
)

P = Position
R = Relation


def test_universe_sizes():
    assert len(relation_universe(2)) == 6
    assert len(relation_universe(3)) == 22
    assert len(set(relation_universe(3))) == 22


def test_relation_validation():
    with pytest.raises(ValueError):
        RelationSet(3, [R(P(2, 1), P(2, 2), False)])  # same-row weak below top
    RelationSet(3, [R(P(3, 1), P(3, 2), False)])  # top-row weak is fine
    with pytest.raises(ValueError):
        RelationSet(2, [R(P(2, 3), P(1, 1), False)])  # column outside the triangle


def test_equal_tuple_is_the_universe_relation():
    C = RelationSet(2, [((2, 1), (1, 1), False)])
    assert is_admissible(C)
    assert C == RelationSet(2, [R(P(2, 1), P(1, 1), False)])
    (rel,) = C.relations
    assert type(rel) is Relation and type(rel.lhs) is Position
    with pytest.raises(ValueError, match="not in the universe"):
        RelationSet(2, [((3, 1), (2, 1), False)])


def test_tableau_rows_must_have_lengths_1_to_n():
    for base in ([[0]], [[0], [1]], [[0, 1], [1, 2]]):
        with pytest.raises(ValueError, match="rows of lengths"):
            Tableau(2, base)


class TestSucc:
    def test_strict_through_chain(self):
        C = RelationSet(2, [R(P(2, 1), P(1, 1), False), R(P(1, 1), P(2, 2), True)])
        assert succ_relation(C, P(2, 1), P(2, 2)) == "strict"

    def test_empty(self):
        C = RelationSet(2, [R(P(2, 1), P(1, 1), False)])
        assert succ_relation(C, P(2, 1), P(2, 2)) == "none"

    def test_weak_chain(self):
        C = RelationSet(3, [R(P(3, 1), P(3, 2), False), R(P(3, 2), P(3, 3), False)])
        assert succ_relation(C, P(3, 1), P(3, 3)) == "weak"


def chain_orders(n, rels):
    """Every (p, q, strict) that a chain of rels from p to q forces."""
    cells = [P(r, c) for r in range(1, n + 1) for c in range(1, r + 1)]
    return {(p, q, s) for p in cells for s in (False, True)
            for q in chain_reachable(rels, p, want_strict=s)}


class TestClosureOracle:
    """The closures, components and implies of a RelationSet against chain
    search and naive component merging, on seeded subsets of the universe."""

    @pytest.mark.parametrize("n, cases", [(2, 40), (3, 60), (4, 40)])
    def test_closures_and_components(self, n, cases):
        rng = random.Random(500 + n)
        universe = relation_universe(n)
        cells = [P(r, c) for r in range(1, n + 1) for c in range(1, r + 1)]
        for _ in range(cases):
            keep = rng.choice((0.05, 0.15, 0.3, 0.6))
            rels = [rel for rel in universe if rng.random() < keep]
            C = RelationSet(n, rels)
            for p in cells:
                weak = chain_reachable(rels, p, want_strict=False)
                strict = chain_reachable(rels, p, want_strict=True)
                for q in cells:
                    want = "strict" if q in strict else "weak" if q in weak else "none"
                    assert succ_relation(C, p, q) == want, (rels, p, q)
            groups = {frozenset({rel.lhs for rel in g} | {rel.rhs for rel in g})
                      for g in naive_components(rels)}
            classes = {}
            for p in cells:
                if C.component_of(p) is not None:
                    classes.setdefault(C.component_of(p), set()).add(p)
            assert {frozenset(c) for c in classes.values()} == groups, rels
            assert C.support == frozenset().union(*groups)

    @pytest.mark.parametrize("n, cases", [(2, 40), (3, 60), (4, 40)])
    def test_implies_is_chain_inclusion(self, n, cases):
        rng = random.Random(600 + n)
        universe = relation_universe(n)
        seen = set()
        for _ in range(cases):
            rels = [rel for rel in universe if rng.random() < rng.choice((0.1, 0.3))]
            sub = [rel for rel in rels if rng.random() < 0.5]
            sup = rels + [rel for rel in universe if rng.random() < 0.1]
            other = [rel for rel in universe if rng.random() < 0.2]
            C = RelationSet(n, rels)
            for kind, drels in (("sub", sub), ("sup", sup), ("other", other)):
                D = RelationSet(n, drels)
                want = chain_orders(n, drels) <= chain_orders(n, rels)
                assert implies(C, D) == want, (kind, rels, drels)
                if kind == "sub":
                    assert want
                seen.add((kind, want))
        assert {("sup", True), ("sup", False), ("other", True), ("other", False)} <= seen


class TestAdmissible:
    def test_interlacing_set(self):
        for n in (2, 3, 4):
            assert is_admissible(interlacing_relations(n))

    def test_empty_set(self):
        assert is_admissible(RelationSet(3, []))

    def test_cross_rejected(self):
        # (k,i) >= (k-1,t) and (k-1,s) > (k,j) with i<j, s<t
        C = RelationSet(
            2, [R(P(2, 1), P(1, 1), False), R(P(1, 1), P(2, 2), True)]
        )
        assert is_admissible(C)  # s = t = 1 is not a cross
        C3 = RelationSet(
            3,
            [
                R(P(3, 1), P(2, 2), False),
                R(P(2, 1), P(3, 2), True),
                # bridge the row-2 support pair so only the cross can fail
                R(P(2, 1), P(1, 1), False),
                R(P(1, 1), P(2, 2), True),
                R(P(2, 1), P(3, 3), True),
                R(P(3, 2), P(2, 2), False),
            ],
        )
        rep = is_admissible(C3)
        assert not rep
        assert any(v[0] == "iii" for v in rep.violations)

    def test_wrong_order_chain_rejected(self):
        C = RelationSet(2, [R(P(2, 2), P(1, 1), False), R(P(1, 1), P(2, 1), True)])
        rep = is_admissible(C)
        assert not rep and any(v[0] in ("i", "ii") for v in rep.violations)

    def test_unbridged_pair_rejected(self):
        # both (2,1) and (2,2) in one component but no bridge
        C = RelationSet(
            3, [R(P(2, 1), P(3, 2), True), R(P(3, 2), P(2, 2), False)]
        )
        rep = is_admissible(C)
        assert not rep and any(v[0] == "iv" for v in rep.violations)

    def test_agrees_with_oracle_n2(self):
        universe = relation_universe(2)
        for mask in range(1 << len(universe)):
            rels = [universe[t] for t in range(len(universe)) if (mask >> t) & 1]
            lib = bool(is_admissible(RelationSet(2, rels)))
            assert lib == oracle_admissible(2, rels), f"mask {mask}"

    def test_agrees_with_oracle_n3_sample(self):
        universe = relation_universe(3)
        rng = random.Random(42)
        for _ in range(1500):
            mask = rng.randrange(1 << 22)
            rels = [universe[t] for t in range(22) if (mask >> t) & 1]
            lib = bool(is_admissible(RelationSet(3, rels)))
            assert lib == oracle_admissible(3, rels), f"mask {mask}"


def generic_tableau_n3():
    return Tableau(
        3,
        [
            [Rat(1, 7)],
            [Rat(1, 3), Rat(1, 5)],
            [Rat(3), Rat(1, 2), Rat(-2, 11)],
        ],
    )


class TestSatisfies:
    def test_dominant_integral_interlacing(self):
        T = highest_weight_tableau([4, 2, 0])
        assert satisfies(T, interlacing_relations(3))

    def test_violated_weak_relation(self):
        T = Tableau(2, [[1], [0, 5]])  # l21 - l11 = -1
        C = RelationSet(2, [R(P(2, 1), P(1, 1), False)])
        assert not satisfies(T, C)

    def test_generic_empty(self):
        assert satisfies(generic_tableau_n3(), RelationSet(3, []))

    def test_cross_component_integral_pair_rejected(self):
        # (2,1) and (2,2) integral but in different components
        C = RelationSet(
            3, [R(P(2, 1), P(1, 1), False), R(P(3, 1), P(2, 2), False)]
        )
        T = Tableau(3, [[0], [1, Rat(1, 2)], [Rat(3, 2), 9, Rat(1, 7)]])
        assert satisfies(T, C)
        T2 = Tableau(3, [[0], [1, 1], [2, 9, Rat(1, 7)]])
        assert not satisfies(T2, C)


class TestMaximal:
    def test_fully_generic(self):
        C, rep = maximal_relation_set(generic_tableau_n3())
        assert len(C) == 0 and rep

    def test_dominant_contains_interlacing(self):
        T = highest_weight_tableau([4, 2, 0])
        C, _ = maximal_relation_set(T)
        assert interlacing_relations(3).relations <= C.relations

    def test_single_top_row_relation(self):
        T = Tableau(2, [[Rat(1, 5)], [Rat(7, 3), Rat(1, 3)]])
        C, _ = maximal_relation_set(T)
        assert C.relations == {R(P(2, 1), P(2, 2), False)}

    def test_satisfies_its_maximal_set(self):
        rng = random.Random(3)
        primes = [2, 3, 5, 7, 11, 13]
        for _ in range(20):
            base = [
                [Rat(rng.randint(-9, 9), rng.choice(primes)) for _ in range(r)]
                for r in range(1, 4)
            ]
            T = Tableau(3, base)
            C, _ = maximal_relation_set(T)
            assert satisfies(T, C)
            # and the maximal set implies every set the tableau satisfies
            universe = relation_universe(3)
            sat = [rel for rel in universe if satisfies(T, RelationSet(3, [rel]))]
            for rel in sat:
                assert implies(C, RelationSet(3, [rel]))


class TestSingularDetection:
    def test_basic_pair(self):
        T = Tableau(3, [[Rat(1, 7)], [0, 0], [Rat(5, 2), Rat(1, 3), Rat(9, 11)]])
        sp = detect_singular_pair(T, RelationSet(3, []))
        assert sp == SingularPair(2, 1, 2)

    def test_generic(self):
        assert detect_singular_pair(generic_tableau_n3(), RelationSet(3, [])) is None

    def test_two_rows_multiply_singular(self):
        T = Tableau(
            4,
            [
                [Rat(1, 7)],
                [0, 0],
                [Rat(1, 3), Rat(1, 3), Rat(9, 11)],
                [1, Rat(5, 2), Rat(22, 7), Rat(-1, 5)],
            ],
        )
        with pytest.raises(MultiplySingular):
            detect_singular_pair(T, RelationSet(4, []))

    def test_top_row_pair_rejected(self):
        T = Tableau(2, [[Rat(1, 5)], [1, 0]])
        with pytest.raises(MultiplySingular):
            detect_singular_pair(T, RelationSet(2, []))

    def test_tableau_outside_the_relation_set_rejected(self):
        T = Tableau(2, [[1], [0, 5]])  # l21 - l11 = -1
        with pytest.raises(ValueError, match="does not satisfy"):
            detect_singular_pair(T, RelationSet(2, [R(P(2, 1), P(1, 1), False)]))

    def test_integral_gap_normalization(self):
        T = Tableau(3, [[Rat(1, 7)], [3, 0], [Rat(5, 2), Rat(1, 3), Rat(9, 11)]])
        sp = detect_singular_pair(T, RelationSet(3, []))
        assert sp == SingularPair(2, 1, 2)
        T2 = normalized_singular_base(T, sp)
        assert T2.entry(2, 1) == T2.entry(2, 2) == 0


class TestBasisWindow:
    def test_zero_shift(self):
        T = highest_weight_tableau([4, 2, 0])
        assert in_basis(T, interlacing_relations(3))

    def test_strict_violation(self):
        T = highest_weight_tableau([4, 2, 0])
        S = interlacing_relations(3)
        # push l11 one step below the strict bound
        z = [-3, 0, 0]
        assert not in_basis(shifted(T, z), S)

    def test_empty_always_in(self):
        T = generic_tableau_n3()
        C = RelationSet(3, [])
        for z in enumerate_window(C, T, 1):
            assert in_basis(shifted(T, z), C)

    def test_spec_in_basis_matches_relation_oracle(self):
        # ModuleSpec.in_basis reads the compiled shift_bounds; the oracle
        # tests every relation on the entries of the shifted tableau
        T, C, _ = gated_corpus(4, 4, 0, (2, 3), 216, 1)[0]
        specs = [ModuleSpec(highest_weight_tableau([2, 1, 0]), interlacing_relations(3)),
                 ModuleSpec(T, C, mode=CLASSICAL)]
        for spec in specs:
            inside = 0
            for z in product(range(-1, 2), repeat=spec.nfree):
                ok = in_basis(shifted(spec.base, z), spec.relations)
                assert spec.in_basis(z) == ok, z
                inside += ok
            assert 0 < inside < 3 ** spec.nfree

    def test_window_n2(self):
        T = Tableau(2, [[Rat(1, 3)], [0, Rat(1, 2)]])
        assert enumerate_window(RelationSet(2, []), T, 1) == [(-1,), (0,), (1,)]
        assert enumerate_window(RelationSet(2, []), T, 0) == [(0,)]

    def test_window_matches_pattern_oracle(self):
        for lam in ([3, 0], [2, 1, 0], [3, 1, 0], [3, 1, 0, 0], [2, 1, 0, 0, 0]):
            n = len(lam)
            T = highest_weight_tableau(lam)
            S = interlacing_relations(n)
            B = lam[0] - lam[-1] + n
            window = enumerate_window(S, T, B)
            pats = oracle_patterns(lam)
            assert len(window) == len(pats) == oracle_weyl_dimension(lam)
            # entry sets agree after undoing the coordinate shift
            got = set()
            for z in window:
                Tz = shifted(T, z)
                got.add(
                    tuple(
                        tuple(Tz.entry(r, c) + c - 1 for c in range(1, r + 1))
                        for r in range(n, 0, -1)
                    )
                )
            expected = {tuple(tuple(row) for row in p) for p in pats}
            assert got == expected


def random_window_case(rng, n):
    """A base with entries in Z + {0, 1/2, 1/3}, so some gaps are not
    integral, and either a random subset of the universe or a random
    thinning of the base's maximal relation set (whose windows are mostly
    non-empty)."""
    offsets = (0, 0, 0, Rat(1, 2), Rat(1, 3))
    base = [
        [Rat(rng.randint(-3, 3)) + rng.choice(offsets) for _ in range(r)]
        for r in range(1, n + 1)
    ]
    T = Tableau(n, base)
    if rng.random() < 0.5:
        p = rng.choice((0.05, 0.1, 0.2))
        rels = [rel for rel in relation_universe(n) if rng.random() < p]
    else:
        keep = rng.random()
        rels = [rel for rel in maximal_relation_set(T)[0].relations if rng.random() < keep]
    return RelationSet(n, rels), T


class TestWindowOracle:
    @pytest.mark.parametrize("n, max_bound, cases", [(2, 3, 60), (3, 3, 80), (4, 2, 15)])
    def test_random_cases(self, n, max_bound, cases):
        rng = random.Random(100 + n)
        nonempty = 0
        for _ in range(cases):
            C, T = random_window_case(rng, n)
            B = rng.randint(0, max_bound)
            got = enumerate_window(C, T, B)
            assert got == oracle_window(C, T, B), (C, T, B)
            nonempty += bool(got)
        assert 3 * nonempty >= cases

    def test_failing_top_row_relation(self):
        rel = R(P(2, 1), P(2, 2), False)
        for top in ([0, 1], [Rat(1, 2), 0]):  # gap -1, and a non-integral gap
            T = Tableau(2, [[0], top])
            assert enumerate_window(RelationSet(2, [rel]), T, 2) == []
            assert oracle_window(RelationSet(2, [rel]), T, 2) == []
        T = Tableau(2, [[0], [1, 0]])
        assert enumerate_window(RelationSet(2, [rel]), T, 1) == [(-1,), (0,), (1,)]

    def test_negative_bound_raises(self):
        T = highest_weight_tableau([2, 1, 0])
        with pytest.raises(ValueError):
            enumerate_window(interlacing_relations(3), T, -1)


class TestEnumerate:
    def test_n2_contains_basics(self):
        sets = enumerate_admissible(2)
        rels = {C.relations for C in sets}
        assert frozenset() in rels
        assert interlacing_relations(2).relations in rels
        assert len(rels) == len(sets)  # duplicate free
        for C in sets:
            assert is_admissible(C)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            enumerate_admissible(4)
