import json
from itertools import permutations
from pathlib import Path

import pytest

from gtsingular._rat import Rat
from gtsingular.exactalg import (
    CLASSICAL,
    QUANTUM,
    FieldElement,
    evaluate_at_singular,
    q_pochhammer_factorial,
    _fkey,
)
from gtsingular.tableaux import RelationSet, Tableau
from gtsingular.action import BasisVector, DERIVATIVE, NORMAL, ModuleElement, ModuleSpec
from gtsingular import gtcenter
from gtsingular.gtcenter import (
    act_central,
    act_central_element,
    block_report,
    character_key,
    eigen_index_set,
    gamma,
    gamma_evaluated,
)

from gated_specs import gated_corpus
from test_action import generic_spec_n2, singular_spec_n3


def oracle_gamma_quantum(row_values, k, scale=1):
    """Shuffle-sum oracle assembled from permutations filtered for
    monotonicity, entirely independent of the combinations-based path."""
    m = len(row_values)
    total = FieldElement.zero(QUANTUM)
    for tau in permutations(range(m)):
        if any(tau[t] > tau[t + 1] for t in range(k - 1)):
            continue
        if any(tau[t] > tau[t + 1] for t in range(k, m - 1)):
            continue
        e = sum(row_values[tau[t]] for t in range(k)) - sum(
            row_values[tau[t]] for t in range(k, m)
        )
        total = total + FieldElement.monomial(QUANTUM, 1, expq=e)
    pre = q_pochhammer_factorial(k, scale=scale) * q_pochhammer_factorial(
        m - k, scale=scale
    )
    shift = (Rat(k * (k + 1)) + Rat(m * (m - 3), 2)) * scale
    return pre * FieldElement.monomial(QUANTUM, 1, expq=shift) * total


def generic_spec_n3():
    T = Tableau(3, [[Rat(1, 7)], [Rat(4, 7), Rat(-3, 5)], [Rat(5, 2), Rat(1, 3), Rat(9, 11)]])
    return ModuleSpec(T, RelationSet(3, []))


class TestGamma:
    def test_gamma_11(self):
        spec = generic_spec_n2()
        got = gamma(spec, 1, 1)
        assert got == FieldElement.monomial(
            QUANTUM, 1, expq=(1 + Rat(1, 5)) * spec.qscale
        )

    def test_gamma_00_edge(self):
        spec = generic_spec_n2()
        assert gamma(spec, 0, 0).is_one()

    def test_matches_permutation_oracle(self):
        spec = generic_spec_n3()
        for z in [(0, 0, 0), (1, -2, 0)]:
            for m in range(1, 4):
                vals = [spec.entry_linear(m, c, z).const for c in range(1, m + 1)]
                for k in range(0, m + 1):
                    assert gamma(spec, m, k, z) == oracle_gamma_quantum(
                        vals, k, spec.qscale
                    ), (m, k)

    def test_indices_out_of_range_rejected(self):
        spec = generic_spec_n3()
        for m, k in ((4, 1), (2, 3), (1, -1)):
            with pytest.raises(ValueError, match="out of range"):
                gamma(spec, m, k)

    def test_row_swap_invariance(self):
        # swapping two row-m base entries leaves gamma unchanged
        T1 = Tableau(2, [[Rat(1, 5)], [Rat(1, 3), Rat(-1, 2)]])
        T2 = Tableau(2, [[Rat(1, 5)], [Rat(-1, 2), Rat(1, 3)]])
        s1 = ModuleSpec(T1, RelationSet(2, []))
        s2 = ModuleSpec(T2, RelationSet(2, []))
        for k in range(0, 3):
            assert gamma(s1, 2, k) == gamma(s2, 2, k)

    def test_symbolic_tau_symmetry(self):
        spec = singular_spec_n3()
        for z in [(0, 1, 0), (2, -1, 3)]:
            for k in range(0, 3):
                assert gamma_evaluated(spec, 2, k, z) == gamma_evaluated(
                    spec, 2, k, spec.tau(z)
                )


class TestCentralAction:
    def test_generic_eigenvector(self):
        spec = generic_spec_n3()
        for z in [(0, 0, 0), (1, 0, -1)]:
            bv = BasisVector(NORMAL, z)
            for m in range(1, 4):
                for k in range(0, m + 1):
                    got = act_central(m, k, bv, spec)
                    want = evaluate_at_singular(gamma(spec, m, k, z), 0)
                    assert got == ModuleElement({bv: want})

    def test_singular_normal_eigenvector(self):
        spec = singular_spec_n3()
        for z in [(0, 0, 0), (0, 1, -1), (2, 0, 3)]:
            bv = spec.basis_vector(NORMAL, z)
            for m in range(1, 4):
                for k in range(0, m + 1):
                    got = act_central(m, k, bv, spec)
                    assert got == ModuleElement(
                        {bv: gamma_evaluated(spec, m, k, bv.z)}
                    )

    def test_derivative_jordan_structure(self):
        spec = singular_spec_n3()
        m = 2  # the singular row
        bv = spec.basis_vector(DERIVATIVE, (0, 3, 1))
        eigen = eigen_index_set(spec, m)
        assert eigen == {0, 2}
        for k in range(0, m + 1):
            gval = gamma_evaluated(spec, m, k, bv.z)
            res = act_central(m, k, bv, spec) - ModuleElement({bv: gval})
            if k in eigen:
                assert res.is_zero(), k
            else:
                assert not res.is_zero(), k
                res2 = act_central_element(m, k, res, spec) - res.scale(gval)
                assert res2.is_zero(), k

    def test_other_rows_stay_diagonal(self):
        spec = singular_spec_n3()
        bv = spec.basis_vector(DERIVATIVE, (0, 2, -1))
        for m, k in [(1, 1), (3, 1), (3, 2), (3, 3)]:
            gval = gamma_evaluated(spec, m, k, bv.z)
            assert act_central(m, k, bv, spec) == ModuleElement({bv: gval})

    def test_classical_jordan_structure(self):
        spec = singular_spec_n3(CLASSICAL)
        m = 2
        bv = spec.basis_vector(DERIVATIVE, (0, 1, 0))
        eigen = eigen_index_set(spec, m)
        assert eigen == {0, 1}
        for k in range(0, m + 1):
            gval = gamma_evaluated(spec, m, k, bv.z)
            res = act_central(m, k, bv, spec) - ModuleElement({bv: gval})
            assert res.is_zero() == (k in eigen), k


class TestCharacterKeys:
    def test_pair_shares_key(self):
        spec = singular_spec_n3()
        zn = (0, 0, 1)
        zd = (0, 1, 0)
        assert character_key(spec.basis_vector(NORMAL, zn), spec) == character_key(
            spec.basis_vector(DERIVATIVE, zd), spec
        )

    def test_distinct_windows_distinct_keys(self):
        spec = singular_spec_n3()
        keys = set()
        for bv in spec.window(1):
            if bv.kind == NORMAL:
                keys.add(character_key(bv, spec))
        normals = [bv for bv in spec.window(1) if bv.kind == NORMAL]
        assert len(keys) == len(normals)


class TestBlocks:
    def test_generic_all_dimension_one(self):
        spec = generic_spec_n3()
        for row in block_report(spec, 1):
            assert row.dimension == 1
            assert row.jordan == ()

    def test_singular_block_structure(self):
        spec = singular_spec_n3()
        rows = block_report(spec, 1)
        assert all(row.dimension <= 2 for row in rows)
        paired = [row for row in rows if row.dimension == 2]
        fixed = [row for row in rows if row.dimension == 1]
        assert paired and fixed
        for row in paired:
            kinds = {bv.kind for bv in row.members}
            assert kinds == {NORMAL, DERIVATIVE}
            assert row.jordan  # some central generator has a size-2 cell
        for row in fixed:
            assert row.jordan == ()


GOLDEN_BLOCKS = Path(__file__).with_name("block_report_golden.json")


def golden_specs():
    """The specs of the golden block reports, by name: the n = 3 fixture at
    B = 1 in both systems, and the first generated gated n = 4 spec, whose
    singular pair lies in row 3 (classical, B = 1)."""
    T, C, sp = gated_corpus(4, 4, 0, (2, 3), 216, 1)[0]
    assert sp.row == 3
    return {
        "n3-quantum": singular_spec_n3(QUANTUM),
        "n3-classical": singular_spec_n3(CLASSICAL),
        "gated-row3-classical": ModuleSpec(T, C, mode=CLASSICAL),
    }


def block_rows(spec, B=1):
    """block_report as plain data: per row, the sorted member shifts, the
    jordan cells, and per member its kind, shift, moved and unsquared."""
    return [
        [sorted(list(bv.z) for bv in row.members), [list(c) for c in row.jordan],
         [[bv.kind, list(bv.z), [list(p) for p in moved], [list(p) for p in unsq]]
          for bv, moved, unsq in zip(row.members, row.moved, row.unsquared)]]
        for row in block_report(spec, B)
    ]


@pytest.mark.parametrize("name", ["n3-quantum", "n3-classical", "gated-row3-classical"])
def test_block_report_matches_golden(name):
    # recorded before the central action moved onto the shared evaluation
    # boundary and placement step of the generator action
    golden = json.loads(GOLDEN_BLOCKS.read_text())
    assert block_rows(golden_specs()[name]) == golden[name]


@pytest.mark.parametrize("name", ["n3-quantum", "n3-classical"])
def test_block_report_groups_unreduced_gammas_exactly(name, monkeypatch):
    """One member of a normal/derivative pair gets its gamma values as
    (g h)/h, with h of three terms, which is carried in the denominator and
    never divided out.  Grouping compares values exactly, so the member
    stays in its partner's block and the rows are the golden ones."""
    spec = golden_specs()[name]
    row = next(row for row in block_report(spec, 1) if row.dimension == 2)
    target, partner = row.members[1], row.members[0]
    assert target.z != partner.z
    H = FieldElement({2: 1, 1: 1, 0: 1}, None, spec.mode)
    reduced = gtcenter.gamma_evaluated

    def unreduced(spec, m, k, z):
        g = reduced(spec, m, k, z)
        return (g * H) / H if z == target.z else g

    monkeypatch.setattr(gtcenter, "gamma_evaluated", unreduced)
    values = character_key(target, spec)
    assert all(_fkey(H.num) in v.fden for v in values if v)
    assert values == character_key(partner, spec)
    golden = json.loads(GOLDEN_BLOCKS.read_text())
    assert block_rows(spec) == golden[name]


def test_quantum_character_keys_hash_apart():
    """The gamma values' hash reads their leading key as well as their
    content, so on the n = 3 fixture at B = 1 the quantum character keys
    have as many hashes as there are blocks."""
    spec = singular_spec_n3(QUANTUM)
    hashes = {
        hash(tuple(gamma_evaluated(spec, m, k, bv.z)
                   for m in range(1, spec.n + 1) for k in range(1, m + 1)))
        for bv in spec.window(1)
    }
    assert len(hashes) == len(block_report(spec, 1))
