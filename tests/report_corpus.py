"""Print the rendered reports of a fixed corpus, with the seconds masked.

The corpus is the four spec checks (relations, compatibility, gamma and
irreducibility) on the n=3 fixture at B=1 and B=2 and on the gated n=4
spec G4 at B=1, and the three checks a generic spec takes (all but
compatibility) on the generic n=2 spec at B=2 and a generic n=3 spec at
B=1, in both modes, unfaulted and under each Fault flag; then
check_finite_dimensional on three highest weights in both modes; then
check_appendix on 2 samples for seeds 0-11 in both modes: 174 reports.
Every report is rendered with its seconds set to zero, so the output of
two trees is compared with diff:

    PYTHONPATH=src python tests/report_corpus.py > reports.txt

Run it from the root of each tree.  It takes about 12 s on a 2-core
x86-64 box with CPython 3.11, most of it in the quantum relation checks;
the appendix reports take about 0.3 s of it.
"""

from gtsingular.action import Fault, ModuleSpec
from gtsingular.exactalg import CLASSICAL, QUANTUM
from gtsingular.verify import (
    check_appendix,
    check_compatibility,
    check_defining_relations,
    check_finite_dimensional,
    check_gamma,
    irreducibility_evidence,
)

from test_action import generic_spec_n2, singular_spec_n3
from test_gtcenter import generic_spec_n3
from test_verify import g4_spec

CHECKS = (check_defining_relations, check_compatibility, check_gamma,
          irreducibility_evidence)
FAULTS = (("none", Fault()), ("sign_flip", Fault(sign_flip=True)),
          ("drop_gate", Fault(drop_gate=True)),
          ("gamma_prefactor", Fault(gamma_prefactor=True)))
WEIGHTS = ([3, 0], [2, 1, 0], [5, 3, 1, 0])
APPENDIX_SEEDS = range(12)


def faulted(make):
    """make(mode), a fixture spec, rebuilt with a fault."""
    def build(mode, fault):
        base = make(mode)
        return ModuleSpec(base.base, base.relations, mode=mode, fault=fault)
    return build


SPECS = (("n3", faulted(singular_spec_n3), (1, 2)), ("G4", g4_spec, (1,)),
         ("generic2", faulted(generic_spec_n2), (2,)),
         ("generic3", faulted(lambda mode: generic_spec_n3()), (1,)))


def corpus():
    """(label, report) for every report of the corpus, in a fixed order."""
    for name, make, bounds in SPECS:
        for mode in (QUANTUM, CLASSICAL):
            for B in bounds:
                for fault_name, fault in FAULTS:
                    spec = make(mode, fault)
                    for check in CHECKS:
                        if check is check_compatibility and spec.is_generic():
                            continue
                        label = f"{name} {mode} B={B} fault={fault_name} {check.__name__}"
                        yield label, check(spec, B)
    for mode in (QUANTUM, CLASSICAL):
        for lam in WEIGHTS:
            yield f"findim {lam} {mode}", check_finite_dimensional(lam, mode)
    for mode in (QUANTUM, CLASSICAL):
        for seed in APPENDIX_SEEDS:
            yield f"appendix {mode} seed={seed}", check_appendix(mode, 2, seed)


def main():
    for label, rep in corpus():
        print(f"# {label}")
        print(rep._replace(seconds=0.0).render(), flush=True)


if __name__ == "__main__":
    main()
