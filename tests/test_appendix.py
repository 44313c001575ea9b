"""check_appendix as a whole: golden reports, plain and under mutated
functionals, and the count of functional values each call computes.

The golden holds check_appendix(mode, 2, seed) rendered with its seconds
masked, for seeds 0-11 in both systems, first with the library's dv and
ev, then with each mutation of MUTATIONS patched in as verify.dv_operator
or verify.evaluate_at_singular.  A mutation makes some identity fail, and
the report names the first one, so the golden pins which identity reads
which functional value.  A rewrite that compares a shared value with
itself, or feeds an identity the wrong value, changes a first failure.
Regenerate it, only on purpose, with

    PYTHONPATH=src:tests python tests/test_appendix.py
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from gtsingular import exactalg, verify
from gtsingular.exactalg import CLASSICAL, QUANTUM, FieldElement, PoleAtEvaluation

GOLDEN_APPENDIX = Path(__file__).with_name("appendix_golden.json")
SEEDS = range(12)


def _doubled_with_denominator(dv):
    def mutated(f, c, scale=1):
        value = dv(f, c, scale)
        return value.scale(2) if f.fden else value
    return mutated


def _negated_with_numerator_factor(ev):
    def mutated(f, c, scale=1):
        value = ev(f, c, scale)
        return -value if f.nfac else value
    return mutated


def _plus_one_with_two_denominators(dv):
    def mutated(f, c, scale=1):
        value = dv(f, c, scale)
        return value + FieldElement.q_monomial(f.system, 1) if len(f.fden) > 1 else value
    return mutated


def _doubled_when_x_leads(dv):
    # not tau-symmetric: the leading key of f^tau has X and Y swapped
    def mutated(f, c, scale=1):
        value = dv(f, c, scale)
        lead = max(f.num) if f.num else (0, 0, 0)
        return value.scale(2) if lead[1] > lead[2] else value
    return mutated


def _doubled_on_x_heavy_multiples_of_x_minus_y(dv):
    # [x-y] f vanishes on X = Y, and tau swaps its X and Y degrees, so
    # dv([x-y] f) and dv([x-y] f^tau) part
    def vanishes(f, c):
        try:
            return exactalg.evaluate_at_singular(f, c).is_zero()
        except PoleAtEvaluation:
            return False

    def mutated(f, c, scale=1):
        value = dv(f, c, scale)
        x_heavy = sum(k[1] for k in f.num) > sum(k[2] for k in f.num)
        return value.scale(2) if x_heavy and vanishes(f, c) else value
    return mutated


# name: (the verify function replaced, its mutation)
MUTATIONS = {
    "dv doubled with a denominator factor": ("dv_operator", _doubled_with_denominator),
    "ev negated with a numerator factor":
        ("evaluate_at_singular", _negated_with_numerator_factor),
    "dv plus one with two denominator factors":
        ("dv_operator", _plus_one_with_two_denominators),
    "dv doubled when X leads": ("dv_operator", _doubled_when_x_leads),
    "dv doubled on X-heavy multiples of [x-y]":
        ("dv_operator", _doubled_on_x_heavy_multiples_of_x_minus_y),
}


def renders():
    """The masked reports of every seed in both systems, in a fixed order."""
    return [verify.check_appendix(mode, 2, seed)._replace(seconds=0.0).render()
            for mode in (QUANTUM, CLASSICAL) for seed in SEEDS]


def mutated_renders(name, set_attr):
    """renders() with the named mutation installed by set_attr(verify,
    attr, fn); the caller restores the library function."""
    attr, mutate = MUTATIONS[name]
    set_attr(verify, attr, mutate(getattr(verify, attr)))
    return renders()


def golden():
    return json.loads(GOLDEN_APPENDIX.read_text())


def test_appendix_reports_match_golden():
    # recorded before check_appendix computed each functional value once
    # per sample
    assert renders() == golden()["none"]


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_mutated_appendix_reports_match_golden(name, monkeypatch):
    assert mutated_renders(name, monkeypatch.setattr) == golden()[name]


def test_golden_mutations_fail_at_several_identities():
    # the mutated runs pin several identities, not one
    firsts = Counter(
        line.split("counterexample: sample ")[1].split(": ", 1)[1]
        for name in MUTATIONS for line in golden()[name] if "counterexample" in line
    )
    assert len(firsts) >= 4, firsts


@pytest.mark.parametrize("system", [QUANTUM, CLASSICAL])
def test_appendix_computes_each_functional_value_once(system, monkeypatch):
    """Within one call, no dv_operator or evaluate_at_singular call repeats
    an (element object, point) pair.  The one repeat allowed is of
    _sample_invertible's invertibility probe, whose value is not kept."""
    seen = {"dv_operator": Counter(), "evaluate_at_singular": Counter()}
    kept = []  # holds every element, so that no id is reused
    probing = [False]
    for name in seen:
        def record(f, *rest, _fn=getattr(verify, name), _name=name):
            if not probing[0]:
                kept.append(f)
                seen[_name][(id(f),) + rest] += 1
            return _fn(f, *rest)
        monkeypatch.setattr(verify, name, record)

    def probe(*args, _fn=verify._sample_invertible):
        probing[0] = True
        try:
            return _fn(*args)
        finally:
            probing[0] = False

    monkeypatch.setattr(verify, "_sample_invertible", probe)
    rep = verify.check_appendix(system, 6, 0)
    assert rep, rep.render()
    for name, calls in seen.items():
        assert calls, name
        repeats = {key: n for key, n in calls.items() if n > 1}
        assert not repeats, (name, len(repeats))


if __name__ == "__main__":
    out = {"none": renders()}
    for name, (attr, _) in MUTATIONS.items():
        saved = getattr(verify, attr)
        try:
            out[name] = mutated_renders(name, setattr)
        finally:
            setattr(verify, attr, saved)
    GOLDEN_APPENDIX.write_text(json.dumps(out, indent=1) + "\n")
