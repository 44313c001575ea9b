"""Workloads of the gtsingular benchmark: seeded inputs and check lists.

A user of gtsingular waits for one thing, a PASS/FAIL verdict on a spec at
a bound.  Each workload is a fixed list of public ``gtsingular.verify``
checks run by one caller in a closed loop (the next check starts when the
previous one returns).  ``build`` makes the inputs from the benchmark seed
and constructs the ``ModuleSpec`` objects (this is set-up, timed as
``setup_s``); ``checks`` turns those inputs into the check calls whose wall
time is ``verdict_s``.  The program only ever sees the generated specs.

Why each workload exists, and which layers it exercises and bypasses, is
recorded in ``WHY`` and, per layer metric, in ``tracing.LAYERS``.
"""

import random
from math import gcd

# The fixture spec of the test suite: base rows [1/7], [0, 0] (the singular
# pair) and [5/2, 1/3, 9/11].  The lcm of the denominators is qscale = 462.
FIXTURE_DENOMINATORS = (7, 2, 3, 11)
FIXTURE_NUMERATORS = (1, 5, 1, 9)

# All three have B = lam[0] - lam[-1] + n = 5, so every choice scans the
# same (2*5+1)^6 = 1.77 M candidate shifts.
FINDIM_WEIGHTS = ([1, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 0])

# check_appendix draws its random elements itself, and their cost is
# heavy-tailed: one sample takes from 0.1 s to over 10 s, so no affordable
# number of seeded draws averages out.  The workload therefore runs this
# fixed corpus of one-sample draws (the first six, about 12 s) and ignores
# the benchmark seed.
APPENDIX_SEEDS = tuple(range(6))

WHY = {
    "relations-q3": (
        "check_defining_relations on the quantum singular n=3 spec at B=1: "
        "stresses the module stage (act, its caches, fe_sum in the Serre "
        "instances); tableaux does almost nothing"
    ),
    "appendix-q": (
        "check_appendix on six fixed trivariate (Q, X, Y) samples: stresses exactalg, "
        "chiefly dv_operator, and calls no action, tableaux or gtcenter code"
    ),
    "findim-q4": (
        "check_finite_dimensional at n=4, B=5: nearly all time is "
        "tableaux.enumerate_window over 1.77 M candidate shifts"
    ),
    "structure-c3": (
        "relations, compatibility, gamma and irreducibility at B=3 on one "
        "classical singular n=3 spec: rational coefficients, so division "
        "leads; the only workload that exercises gtcenter"
    ),
}


def singular_n3_numerators(seed):
    """Numerators of the non-singular base entries over the fixture's
    denominators.  Seed 0 is the fixture; other seeds draw each numerator
    coprime to its denominator.  Coprime numerators keep qscale at 462 and
    every difference of distinct entries non-integral, so the row-2 pair
    stays the only singular one.  Drawn entries lie in (-1, 1): over that
    range the arithmetic of relations-q3 varies by about 1% between seeds,
    against 6% when entries range over (-3, 3)."""
    if seed == 0:
        return FIXTURE_NUMERATORS
    rng = random.Random(seed)
    return tuple(
        rng.choice([p for p in range(1 - d, d) if gcd(p, d) == 1])
        for d in FIXTURE_DENOMINATORS
    )


def singular_spec_n3(seed, mode):
    from gtsingular import Rat
    from gtsingular.action import ModuleSpec
    from gtsingular.tableaux import RelationSet, Tableau

    a, b, c, d = (
        Rat(p, q) for p, q in zip(singular_n3_numerators(seed), FIXTURE_DENOMINATORS)
    )
    return ModuleSpec(Tableau(3, [[a], [0, 0], [b, c, d]]), RelationSet(3, []), mode=mode)


def build(name, seed):
    """Set-up: import gtsingular and build the workload's inputs."""
    from gtsingular import CLASSICAL, QUANTUM

    if name == "relations-q3":
        return {"spec": singular_spec_n3(seed, QUANTUM)}
    if name == "appendix-q":
        return {"system": QUANTUM}
    if name == "findim-q4":
        return {"lam": random.Random(seed).choice(FINDIM_WEIGHTS)}
    if name == "structure-c3":
        return {"spec": singular_spec_n3(seed, CLASSICAL)}
    raise ValueError(f"unknown workload {name!r}")


def checks(name, inputs):
    """The workload's check calls, in order, as (label, function, args)."""
    from gtsingular import verify

    if name == "relations-q3":
        return [("check_defining_relations", verify.check_defining_relations,
                 (inputs["spec"], 1))]
    if name == "appendix-q":
        return [("check_appendix", verify.check_appendix,
                 (inputs["system"], 1, s)) for s in APPENDIX_SEEDS]
    if name == "findim-q4":
        return [("check_finite_dimensional", verify.check_finite_dimensional,
                 (inputs["lam"],))]
    if name == "structure-c3":
        spec = inputs["spec"]
        return [
            (f.__name__, f, (spec, 3))
            for f in (
                verify.check_defining_relations,
                verify.check_compatibility,
                verify.check_gamma,
                verify.irreducibility_evidence,
            )
        ]
    raise ValueError(f"unknown workload {name!r}")
