"""The four spec checks as a whole: golden reports on the n=3 fixture.

The golden holds check_defining_relations, check_compatibility,
check_gamma and irreducibility_evidence on the n=3 fixture at B=1, in both
systems, unfaulted and under each Fault flag, rendered with the seconds
masked as tests/report_corpus.py renders them.  A fault makes some check
fail, and its report names the first counterexample, so a change to how a
residual or an action is summed that moves a value, or the order in which
failures are found, changes a line.  It was recorded before fe_sum took
the factor pairs of each part.  Regenerate it, only on purpose, with

    PYTHONPATH=src:tests python tests/test_spec_reports.py
"""

import json
from pathlib import Path

from gtsingular.exactalg import CLASSICAL, QUANTUM

from report_corpus import CHECKS, FAULTS, faulted
from test_action import singular_spec_n3

GOLDEN_SPEC_REPORTS = Path(__file__).with_name("spec_report_golden.json")


def renders():
    """{label: masked report} for every check, system and fault, in a fixed
    order."""
    out = {}
    for mode in (QUANTUM, CLASSICAL):
        for fault_name, fault in FAULTS:
            spec = faulted(singular_spec_n3)(mode, fault)
            for check in CHECKS:
                label = f"{mode} fault={fault_name} {check.__name__}"
                out[label] = check(spec, 1)._replace(seconds=0.0).render()
    return out


def test_spec_reports_match_golden():
    assert renders() == json.loads(GOLDEN_SPEC_REPORTS.read_text())


if __name__ == "__main__":
    GOLDEN_SPEC_REPORTS.write_text(json.dumps(renders(), indent=1) + "\n")
