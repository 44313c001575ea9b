"""Gelfand-Tsetlin tableaux and admissible sets of entry relations.

A relation set is a subset of the universe R of adjacent-row inequalities
(i,j) >= (i-1,j') and (i-1,j') > (i,j), plus weak top-row relations
(n,i) >= (n,j).  Relation sets split into indecomposable components
(relations sharing a position are connected); admissibility is decided
component by component.  A RelationSet stores R's own relations and
builds its components and its reach closure in one closure pass.

A Tableau is its entries.  The tableaux of one orbit are a base tableau
moved by integer shifts z of its entries below the top row;
enumerate_window lists the shifts in a box whose tableaux lie in the
orbit basis of a relation set.
A tableau is generic when detect_singular_pair finds no singular pair
(it returns None) and singular when it finds one.
"""

from functools import cache
from itertools import product
from typing import NamedTuple

from ._rat import rat, is_integral, as_int


class MultiplySingular(ValueError):
    """More than one same-row integral pair outside the relation support."""


class Position(NamedTuple):
    row: int
    col: int

    def __repr__(self):
        return f"({self.row},{self.col})"


class Relation(NamedTuple):
    lhs: Position
    rhs: Position
    strict: bool

    def __repr__(self):
        op = ">" if self.strict else ">="
        return f"{self.lhs!r} {op} {self.rhs!r}"


class SingularPair(NamedTuple):
    row: int
    i: int
    j: int


def positions(n):
    return [Position(r, c) for r in range(1, n + 1) for c in range(1, r + 1)]


def z_index(row, col):
    return row * (row - 1) // 2 + col - 1


def relation_universe(n):
    """The universe R for height n: weak down, strict up, weak top-row."""
    rels = []
    for i in range(2, n + 1):
        for j in range(1, i + 1):
            for jp in range(1, i):
                rels.append(Relation(Position(i, j), Position(i - 1, jp), False))
    for i in range(2, n + 1):
        for j in range(1, i + 1):
            for jp in range(1, i):
                rels.append(Relation(Position(i - 1, jp), Position(i, j), True))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                rels.append(Relation(Position(n, i), Position(n, j), False))
    return rels


@cache
def _universe_table(n):
    """relation_universe(n) as a table from each relation to itself."""
    return {rel: rel for rel in relation_universe(n)}


class RelationSet:
    """A subset of the relation universe R of height n, with its components
    and reach closure, built once with the set.

    Each relation is looked up in R: a tuple equal to a relation of R is
    accepted and R's own Relation stored, anything else is a ValueError.
    The closures are bitsets over z_index positions from Warshall's pass
    (J. ACM 9, 1962): _reach[p] is what chains from p reach, _comp[p] is
    p's component (0 off the support).

    In R a weak relation goes down a row or stays in the top row, and a
    strict one climbs a row.  So every chain into a higher row, or between
    two entries of one row below the top row (it leaves the row, then
    climbs out of it or back), has a strict step, and _reach decides
    is_admissible's (i).  It decides implies(C, D) too: if C reaches all D
    does and a D-chain p..q has a strict step a > b, the C-chains p..a,
    a..b (it climbs a row, so it is strict) and b..q make a strict p..q."""

    __slots__ = ("n", "relations", "_comp", "_reach")

    def __init__(self, n, relations=()):
        if n < 1:
            raise ValueError(f"height must be at least 1, got {n}")
        universe, rels = _universe_table(n), set()
        for rel in relations:
            try:
                rels.add(universe[rel])
            except (KeyError, TypeError):  # TypeError: rel is unhashable
                raise ValueError(
                    f"relation {rel!r} is not in the universe for n={n}") from None
        self.n = n
        self.relations = frozenset(rels)
        self._build()

    def __eq__(self, other):
        return (
            isinstance(other, RelationSet)
            and self.n == other.n
            and self.relations == other.relations
        )

    def __hash__(self):
        return hash((self.n, self.relations))

    def __len__(self):
        return len(self.relations)

    def __repr__(self):
        rels = ", ".join(repr(r) for r in sorted(self.relations))
        return f"RelationSet(n={self.n}, {{{rels}}})"

    # -- components and closures ----------------------------------------------

    def _build(self):
        npos = self.n * (self.n + 1) // 2
        reach, comp = [0] * npos, [0] * npos
        for (lr, lc), (rr, rc), _ in self.relations:
            a, b = z_index(lr, lc), z_index(rr, rc)
            reach[a] |= 1 << b
            comp[a] |= 1 << a | 1 << b
            comp[b] |= 1 << a | 1 << b
        _close(reach)
        _close(comp)
        self._reach, self._comp = reach, comp

    @property
    def support(self):
        """All positions touched by some relation."""
        return frozenset(p for p in positions(self.n) if self._comp[z_index(*p)])

    def component_of(self, pos):
        """Component id of a position, or None if outside the support."""
        return self._comp[z_index(*pos)] or None

    def same_component(self, p, q):
        return bool(self._comp[z_index(*p)] >> z_index(*q) & 1)


def _close(adj):
    """Close a bitset adjacency list under transitivity, in place
    (Warshall's algorithm)."""
    for k in range(len(adj)):
        bit, row = 1 << k, adj[k]
        adj[:] = [r | row if r & bit else r for r in adj]


class AdmissibilityReport(NamedTuple):
    admissible: bool
    violations: tuple  # of (condition, description) pairs

    def __bool__(self):
        return self.admissible


def is_admissible(C: RelationSet) -> AdmissibilityReport:
    """Check the four admissibility conditions on every component:

    (i)   same-row chains below the top row (all strict) only run left to right;
    (ii)  weak top-row chains only run left to right;
    (iii) no cross (a weak down-bridge and a strict up-bridge that swap
          column order between adjacent rows);
    (iv)  every same-row support pair below the top row is bridged through
          a neighbouring row.
    """
    n = C.n
    violations = []
    rows = {k: [Position(k, c) for c in range(1, k + 1)] for k in range(1, n + 1)}

    # (i) and (ii): chain order within a row
    for p in positions(n):
        reach = C._reach[z_index(*p)]
        for q in rows[p.row]:
            if reach >> z_index(*q) & 1 and not p.col < q.col:
                label, kind = ("i", "strict") if p.row < n else ("ii", "top-row")
                violations.append(
                    (label, f"{kind} chain {p!r} -> {q!r} with non-increasing column"))

    # (iii) crosses inside one component
    weak_down = [r for r in C.relations if not r.strict and r.lhs.row == r.rhs.row + 1]
    strict_up = [r for r in C.relations if r.strict]
    for r1 in weak_down:
        for r2 in strict_up:
            if r1.lhs.row != r2.rhs.row:
                continue
            i, t = r1.lhs.col, r1.rhs.col
            s, j = r2.lhs.col, r2.rhs.col
            if i < j and s < t and C.same_component(r1.lhs, r2.lhs):
                violations.append(("iii", f"cross {{{r1!r}, {r2!r}}}"))

    # (iv) bridging of same-row support pairs below the top row
    rels = C.relations
    for k in range(1, n):
        row = rows[k]
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                pa, pb = row[a], row[b]
                if not C.same_component(pa, pb):
                    continue
                if not _bridged(rels, k, pa.col, pb.col) and not _bridged(
                    rels, k, pb.col, pa.col
                ):
                    violations.append(("iv", f"pair {pa!r}, {pb!r} not bridged"))

    return AdmissibilityReport(not violations, tuple(violations))


def _bridged(rels, k, i, j):
    """Bridging alternatives for an ordered same-row pair (k,i), (k,j)."""
    down_ok = any(
        Relation(Position(k, i), Position(k + 1, s), True) in rels
        and Relation(Position(k + 1, s), Position(k, j), False) in rels
        for s in range(1, k + 2)
    )
    if down_ok and k > 1:
        up_ok = any(
            Relation(Position(k, i), Position(k - 1, t), False) in rels
            and Relation(Position(k - 1, t), Position(k, j), True) in rels
            for t in range(1, k)
        )
        if up_ok:
            return True
    for s in range(1, k + 2):
        if Relation(Position(k, i), Position(k + 1, s), True) not in rels:
            continue
        for t in range(s + 1, k + 2):
            if Relation(Position(k + 1, t), Position(k, j), False) in rels:
                return True
    return False


def implies(C: RelationSet, D: RelationSet) -> bool:
    """C implies D: every chain order forced by D is forced by C.  C
    reaches wherever D does, and then each strict D-chain has a strict
    C-chain with the same ends (see RelationSet)."""
    return not any(d & ~c for c, d in zip(C._reach, D._reach))


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------

class Tableau:
    """Triangular array of exact rationals: base[r-1][c-1] is the entry in
    row r, column c.  A tableau of the orbit at an integer shift z is the
    pair (base tableau, z) of a ModuleSpec, not a Tableau of its own."""

    __slots__ = ("n", "base")

    def __init__(self, n, base):
        if n < 1:
            raise ValueError(f"height must be at least 1, got {n}")
        if len(base) != n or any(len(base[r]) != r + 1 for r in range(n)):
            raise ValueError("base must have rows of lengths 1..n")
        self.n = n
        self.base = tuple(tuple(rat(v) for v in row) for row in base)

    def entry(self, row, col):
        return self.base[row - 1][col - 1]

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.n == other.n and self.base == other.base

    def __hash__(self):
        return hash((self.n, self.base))

    def __repr__(self):
        rows = []
        for r in range(self.n, 0, -1):
            rows.append(" ".join(str(self.entry(r, c)) for c in range(1, r + 1)))
        return "Tableau[" + " | ".join(rows) + "]"


def _relation_holds(T, rel):
    d = T.entry(*rel.lhs) - T.entry(*rel.rhs)
    if not is_integral(d):
        return False
    return d > 0 if rel.strict else d >= 0


def satisfies(T: Tableau, C: RelationSet) -> bool:
    """All relations hold with integral differences of the right sign, and
    same-row integral differences between support positions stay inside a
    single component.  Integral pairs entirely outside the support are not
    ruled out here; they are classified by detect_singular_pair."""
    for rel in C.relations:
        if not _relation_holds(T, rel):
            return False
    for k, a, b in _integral_row_pairs(T):
        pa, pb = Position(k, a), Position(k, b)
        ca, cb = C.component_of(pa), C.component_of(pb)
        if ca is None and cb is None:
            continue
        if ca != cb or ca is None:
            return False
    return True


def _integral_row_pairs(T):
    out = []
    for k in range(1, T.n + 1):
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                if is_integral(T.entry(k, a) - T.entry(k, b)):
                    out.append((k, a, b))
    return out


def maximal_relation_set(T: Tableau):
    """All universe relations satisfied by T, with its admissibility report."""
    rels = [rel for rel in relation_universe(T.n) if _relation_holds(T, rel)]
    C = RelationSet(T.n, rels)
    return C, is_admissible(C)


def detect_singular_pair(T: Tableau, C: RelationSet):
    """The unique same-row integral pair outside the relation support, None
    for a generic tableau (no such pair), or MultiplySingular beyond one."""
    if not satisfies(T, C):
        raise ValueError("tableau does not satisfy the relation set")
    exceptional = []
    for k, a, b in _integral_row_pairs(T):
        pa, pb = Position(k, a), Position(k, b)
        if C.component_of(pa) is None and C.component_of(pb) is None:
            exceptional.append((k, a, b))
    if not exceptional:
        return None
    if len(exceptional) > 1:
        raise MultiplySingular(f"integral pairs {exceptional} outside the support")
    k, a, b = exceptional[0]
    if k == T.n:
        raise MultiplySingular("integral top-row pair outside the support")
    return SingularPair(k, a, b)


def normalized_singular_base(T: Tableau, sp: SingularPair) -> Tableau:
    """The base with the two singular entries made equal (the integer gap is
    absorbed into the orbit)."""
    d = T.base[sp.row - 1][sp.i - 1] - T.base[sp.row - 1][sp.j - 1]
    if not is_integral(d):
        raise ValueError("singular pair does not have an integral gap")
    rows = [list(r) for r in T.base]
    rows[sp.row - 1][sp.i - 1] = rows[sp.row - 1][sp.j - 1]
    return Tableau(T.n, rows)


def shift_bounds(C: RelationSet, T: Tableau):
    """C compiled at the base T, once for every shift: triples (l, r, need),
    each meaning z[l] - z[r] >= need for the shift z extended by a 0 at
    index n(n-1)/2, the unshifted top row.  None when no shift satisfies C
    (a non-integral base gap, or a top-row relation the base breaks: those
    compare unshifted entries, so they hold for every shift or for none)."""
    n = T.n
    top = n * (n - 1) // 2
    out = []
    for (lr, lc), (rr, rc), strict in C.relations:
        gap = T.base[lr - 1][lc - 1] - T.base[rr - 1][rc - 1]
        if not is_integral(gap):
            return None
        need = int(strict) - as_int(gap)
        if lr == rr == n:
            if need > 0:
                return None
            continue
        out.append((z_index(lr, lc) if lr < n else top,
                    z_index(rr, rc) if rr < n else top, need))
    return out


def enumerate_window(C: RelationSet, T: Tableau, B: int):
    """All shift vectors z with max-norm at most B whose tableau lies in the
    orbit basis, in lexicographic order.

    The relations of C come from relation_universe(n), as RelationSet
    checks.  So every triple of
    shift_bounds relates an entry to one of the row above it, and the lower
    row's entry has the smaller index: it bounds z[pos] from below or above
    by z[src] plus a constant.  So the rows are filled from n-1 down to 1.
    Each entry ranges over [-B, B] cut by its bounds against the rows
    already fixed, the entries of one row are independent, and an empty
    range prunes the branch, so the (2B+1)^(n(n-1)/2) box is never scanned.
    """
    if B < 0:
        raise ValueError("window bound must be nonnegative")
    bounds = shift_bounds(C, T)
    if bounds is None:
        return []
    n = T.n
    nfree = n * (n - 1) // 2
    lower = [[] for _ in range(nfree)]
    upper = [[] for _ in range(nfree)]
    for l, r, need in bounds:
        if l < r:
            lower[l].append((r, need))  # z[l] >= z[r] + need
        else:
            upper[r].append((l, -need))  # z[r] <= z[l] - need
    z = [0] * (nfree + 1)
    out = []

    def fill(row):
        if row == 0:
            out.append(tuple(z[:nfree]))
            return
        start = z_index(row, 1)
        ranges = []
        for p in range(start, start + row):
            lo = max([-B] + [z[src] + c for src, c in lower[p]])
            hi = min([B] + [z[src] + c for src, c in upper[p]])
            if lo > hi:
                return
            ranges.append(range(lo, hi + 1))
        for entries in product(*ranges):
            z[start:start + row] = entries
            fill(row - 1)

    fill(n - 1)
    out.sort()
    return out


def interlacing_relations(n) -> RelationSet:
    """The standard interlacing set: (i+1,j) >= (i,j) > (i+1,j+1)."""
    rels = []
    for i in range(1, n):
        for j in range(1, i + 1):
            rels.append(Relation(Position(i + 1, j), Position(i, j), False))
            rels.append(Relation(Position(i, j), Position(i + 1, j + 1), True))
    return RelationSet(n, rels)


def highest_weight_tableau(lam) -> Tableau:
    """Base tableau of the finite-dimensional module with dominant integral
    highest weight lam, in the shifted coordinates v_{ki} = lam_i - i + 1
    that turn interlacing into the relation set of interlacing_relations."""
    lam = [as_int(v) for v in lam]
    n = len(lam)
    if not n:
        raise ValueError("highest weight must be nonempty")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("highest weight must be weakly decreasing")
    base = [[lam[i] - i for i in range(r)] for r in range(1, n + 1)]
    return Tableau(n, base)

