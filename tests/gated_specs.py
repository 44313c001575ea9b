"""Seeded generator of gated singular specs, the paper's class of modules:
an admissible relation set C and one singular pair outside its support.

Every entry is drawn from one of a few integrality classes plus a small
integer, and one same-row pair below the top row is forced to an integral
gap.  C is the tableau's maximal relation set; a draw is kept when C is
nonempty and admissible and detect_singular_pair finds exactly one pair.
Small integer offsets keep many relations tight, so the windows stay small
enough for quantum checks in the test suite.
"""

import random
from functools import lru_cache

from gtsingular._rat import Rat
from gtsingular.tableaux import (
    MultiplySingular,
    Tableau,
    detect_singular_pair,
    enumerate_window,
    maximal_relation_set,
)

CLASSES = (Rat(0), Rat(1, 2), Rat(1, 3), Rat(2, 5), Rat(3, 7))


def draw_gated(rng, n):
    """One draw: (tableau, relation set, singular pair), or None when the
    draw is rejected."""
    rows = [[rng.choice(CLASSES) + rng.randint(-1, 1) for _ in range(k)]
            for k in range(1, n + 1)]
    k = rng.randint(2, n - 1)
    a, b = sorted(rng.sample(range(k), 2))
    rows[k - 1][b] = rows[k - 1][a] + rng.randint(-2, 2)
    T = Tableau(n, rows)
    C, report = maximal_relation_set(T)
    if not C.relations or not report:
        return None
    try:
        sp = detect_singular_pair(T, C)
    except MultiplySingular:
        return None
    return None if sp is None else (T, C, sp)


@lru_cache(maxsize=None)
def gated_corpus(n, count, seed, rows, max_window, B):
    """The first count kept draws of the seeded sequence whose window at B
    has at most max_window vectors, with a singular pair in each of rows
    among them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        got = draw_gated(rng, n)
        if got is None or len(enumerate_window(got[1], got[0], B)) > max_window:
            continue
        missing = set(rows) - {sp.row for _, _, sp in out}
        if len(out) < count - len(missing) or got[2].row in missing:
            out.append(got)
    return tuple(out)
