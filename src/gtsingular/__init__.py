"""Exact Gelfand-Tsetlin machinery for quantum and classical gl(n).

Modules:

* exactalg  -- the exact coefficient field: rational functions in Q, X, Y
               before the singular point is evaluated, in Q alone after
* tableaux  -- tableaux, relation sets, admissibility, windows
* action    -- module specs, basis vectors and the gated generator action
* gtcenter  -- Gelfand-Tsetlin subalgebra action, character keys, blocks
* verify    -- executable identity suites
* cli       -- the ``gtsingular`` command (not imported here)

The top level exports the coefficient field and the singular-point
functional (``dv_operator``, ``evaluate_at_singular``).  The module
pipeline needs no general derivative and no two-point evaluation, so the
package has neither: the functional reads an element at the one point
x = y = c and takes only the antisymmetric derivative there.  The test
oracles in ``tests/oracles.py`` keep their own evaluation and derivatives.
"""

from .exactalg import (
    QUANTUM,
    CLASSICAL,
    FieldElement,
    LinearExpr,
    bracket,
    dv_operator,
    evaluate_at_singular,
    q_pochhammer_factorial,
    tau_swap,
    DivisionByZero,
    PoleAtEvaluation,
    NegativeArgument,
)
from ._rat import Rat, rat

__all__ = [
    "QUANTUM",
    "CLASSICAL",
    "FieldElement",
    "LinearExpr",
    "bracket",
    "dv_operator",
    "evaluate_at_singular",
    "q_pochhammer_factorial",
    "tau_swap",
    "DivisionByZero",
    "PoleAtEvaluation",
    "NegativeArgument",
    "Rat",
    "rat",
]
