"""Independent brute-force oracles used by the test suite.

These deliberately reimplement definitions in the most literal way
(explicit chain search, naive component merging, nested pattern loops) so
they share no code with the library paths they check.  The exception is
the singular-point functional oracle: it checks the factor-wise product
rule of dv_operator against the expanded quotient rule, and it shares
``evaluate_at_singular``, whose X - Y cancellation the expanded form
needs, with the library; the derivatives it expands are its own
(``term_euler``, ``term_partial``).  The bracket quotient of an e/f
Coefficient, built with the library's bracket and field arithmetic, is
the reference the Coefficient path of those functionals is compared
against.  The two-point evaluation ``evaluate_at`` values every term on
its own, in Rat arithmetic classically, and shares only the field
arithmetic that multiplies the values; at x = y = c it is the oracle of
the library's one-point ``_eval_terms``.

The Fraction-coefficient term-dict product and exact division are the
library's arithmetic from before its coefficients became integers with one
rational content per element; they check the integer-content primitives.
The Fraction value of a classical scalar checks the int-pair contents,
and the Counter difference of two factor multisets checks their merge.
The sum of built products is fe_sum as its callers used it before it
took factor pairs: every product a * b is built with * first.  The
pairwise sum is FieldElement.__add__ as it was before every sum became
fe_sum's; it shares the term-dict sum _sum and _build_raw with the
library, so it checks how the two operands' factors are grouped and
united, and with them the factorization that decides rendered text.

The per-word relation residuals are the relation check as it was before
each residual was summed in one pass: every letter of every word acts
through act_element, each word is summed on its own and its scalar scales
the summed word, and the words are added with ModuleElement +.  The
full-residual Cartan instances are the relation check's Cartan instances
as they were before they were decided on their grading: every residual is
built and summed, and none is read off the weight exponents.

The exhaustive enumeration of admissible sets, the chain order of two
positions, the entries of a tableau moved by a flat shift vector
(``shifted``) and orbit membership read off the entries are tableaux
helpers that only tests call; the last is the oracle of
ModuleSpec.in_basis.  The helpers below the oracles (exact
derivatives, two-point evaluation, relabeling Q, the bracket of an entry
difference in a spec's units, words of generators, weight exponents, what
a cached coefficient or weight reads) are used by tests only.  Traced
library functions are reached through their modules, so this module holds
no reference that a tracer would have to rebind.
"""

from collections import Counter, deque
from itertools import product

from gtsingular import action, exactalg, tableaux
from gtsingular._rat import Rat, as_int, is_integral, rat
from gtsingular.exactalg import (
    _PONE,
    CLASSICAL,
    QUANTUM,
    FieldElement,
    LinearExpr,
    PoleAtEvaluation,
    _build,
    _build_raw,
    _collect,
    _pmul,
    _psub,
    _sum,
    _times,
)
from gtsingular.tableaux import (
    Position,
    Relation,
    RelationSet,
    relation_universe,
    z_index,
)


def naive_collect(pairs, into):
    """Sum every coefficient per key (into included), then drop the zeros."""
    sums = dict(into)
    for k, c in pairs:
        sums[k] = sums.get(k, 0) + c
    return {k: c for k, c in sums.items() if c}


def naive_components(rels):
    """Split a relation list into groups connected through shared positions."""
    groups = [({rel.lhs, rel.rhs}, [rel]) for rel in rels]
    merged = True
    while merged:
        merged = False
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                if groups[a][0] & groups[b][0]:
                    pa, ra = groups[a]
                    pb, rb = groups[b]
                    groups[a] = (pa | pb, ra + rb)
                    del groups[b]
                    merged = True
                    break
            if merged:
                break
    return [g[1] for g in groups]


def chain_reachable(rels, start, want_strict):
    """Positions reachable from start along chains of one or more relations;
    if want_strict, only targets reached through at least one strict step."""
    seen = set()
    work = deque([(start, False)])
    while work:
        pos, got = work.popleft()
        for rel in rels:
            if rel.lhs == pos:
                nxt = (rel.rhs, got or rel.strict)
                if nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
    result = set()
    for pos, got in seen:
        if want_strict and not got:
            continue
        result.add(pos)
    return result


def oracle_component_admissible(n, rels):
    support = set()
    for rel in rels:
        support.add(rel.lhs)
        support.add(rel.rhs)

    # (i) strict same-row chains must run left to right
    for p in support:
        for q in chain_reachable(rels, p, want_strict=True):
            if p.row == q.row and not p.col < q.col:
                return False
    # (ii) weak top-row chains must run left to right
    for p in support:
        if p.row != n:
            continue
        for q in chain_reachable(rels, p, want_strict=False):
            if q.row == n and not p.col < q.col:
                return False
    # (iii) no cross
    for r1 in rels:
        for r2 in rels:
            if r1.strict or not r2.strict:
                continue
            if r1.lhs.row != r1.rhs.row + 1 or r1.lhs.row != r2.rhs.row:
                continue
            i, t = r1.lhs.col, r1.rhs.col
            s, j = r2.lhs.col, r2.rhs.col
            if i < j and s < t:
                return False
    # (iv) same-row pairs below the top row must be bridged
    for k in range(1, n):
        cols = sorted({p.col for p in support if p.row == k})
        for x in range(len(cols)):
            for y in range(x + 1, len(cols)):
                a, b = cols[x], cols[y]
                if not (
                    oracle_bridged(rels, k, a, b, n)
                    or oracle_bridged(rels, k, b, a, n)
                ):
                    return False
    return True


def oracle_bridged(rels, k, i, j, n):
    relset = set(rels)
    for s in range(1, k + 2):
        down1 = Relation(Position(k, i), Position(k + 1, s), True) in relset
        down2 = Relation(Position(k + 1, s), Position(k, j), False) in relset
        if down1 and down2:
            for t in range(1, k):
                up1 = Relation(Position(k, i), Position(k - 1, t), False) in relset
                up2 = Relation(Position(k - 1, t), Position(k, j), True) in relset
                if up1 and up2:
                    return True
    for s in range(1, k + 2):
        for t in range(s + 1, k + 2):
            if (
                Relation(Position(k, i), Position(k + 1, s), True) in relset
                and Relation(Position(k + 1, t), Position(k, j), False) in relset
            ):
                return True
    return False


def oracle_admissible(n, rels):
    return all(
        oracle_component_admissible(n, comp) for comp in naive_components(list(rels))
    )


# ---------------------------------------------------------------------------
# relation-set helpers only the tests use
# ---------------------------------------------------------------------------

class SizeLimit(ValueError):
    """Exhaustive enumeration is only supported for n <= 3."""


def enumerate_admissible(n: int):
    """Every admissible subset of the universe, for n <= 3."""
    if n > 3:
        raise SizeLimit("exhaustive enumeration is limited to n <= 3")
    universe = relation_universe(n)
    m = len(universe)
    out = []
    for mask in range(1 << m):
        rels = [universe[t] for t in range(m) if (mask >> t) & 1]
        C = RelationSet(n, rels)
        if tableaux.is_admissible(C):
            out.append(C)
    return out


def reaches(C: RelationSet, p: Position, r: Position) -> bool:
    """Whether some chain of C runs from p to r, read from C's reach
    closure."""
    return bool(C._reach[z_index(p.row, p.col)] >> z_index(r.row, r.col) & 1)


# ---------------------------------------------------------------------------
# window oracle
# ---------------------------------------------------------------------------

def shifted(T, z):
    """The tableau of the entries of T moved by the flat vector z
    (row-major over the positions below the top row)."""
    rows, k = [], 0
    for r in range(1, T.n):
        rows.append([v + d for v, d in zip(T.base[r - 1], z[k:k + r])])
        k += r
    return tableaux.Tableau(T.n, rows + [T.base[T.n - 1]])


def in_basis(T, C):
    """Orbit membership under C, read off the entries: every relation
    (l, r, strict) has an integral l - r that is positive when strict and
    nonnegative otherwise."""
    for rel in C.relations:
        d = T.entry(*rel.lhs) - T.entry(*rel.rhs)
        if not is_integral(d) or d < int(rel.strict):
            return False
    return True


def oracle_window(C, T, B):
    """All shift vectors z with max-norm at most B whose tableau lies in the
    orbit basis, in lexicographic order: every candidate of the
    (2B+1)^(n(n-1)/2) box, filtered by every relation."""
    if B < 0:
        raise ValueError("window bound must be nonnegative")
    n = T.n
    nfree = n * (n - 1) // 2
    compiled = [
        (rel.lhs.row, rel.lhs.col, rel.rhs.row, rel.rhs.col, rel.strict)
        for rel in C.relations
    ]
    base = T.base
    out = []
    rng = range(-B, B + 1)
    for z in product(rng, repeat=nfree):
        ok = True
        for lr, lc, rr, rc, strict in compiled:
            lv = base[lr - 1][lc - 1] + (z[z_index(lr, lc)] if lr < n else 0)
            rv = base[rr - 1][rc - 1] + (z[z_index(rr, rc)] if rr < n else 0)
            d = lv - rv
            if not is_integral(d) or (d <= 0 if strict else d < 0):
                ok = False
                break
        if ok:
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# finite-dimensional pattern oracles
# ---------------------------------------------------------------------------

def oracle_patterns(lam):
    """All interlacing integer patterns with the given top row, enumerated
    by nested range products in highest-weight coordinates."""
    n = len(lam)
    result = [[tuple(lam)]]
    for _ in range(n - 1):
        nxt = []
        for p in result:
            top = p[-1]
            k = len(top) - 1
            ranges = [range(top[j + 1], top[j] + 1) for j in range(k)]
            for row in product(*ranges):
                nxt.append(p + [row])
        result = nxt
    return result


def oracle_weyl_dimension(lam):
    """Product formula for the dimension of the highest-weight module."""
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


# ---------------------------------------------------------------------------
# singular-point functional oracle
# ---------------------------------------------------------------------------

def element(coeff, scale=1):
    """The bracket quotient of an e/f Coefficient as a trivariate element,
    one division per bracket so every denominator factor is a binomial:
    the reference its factor path is compared against."""
    out = FieldElement.one(coeff.system)
    for d in coeff.num:
        out = out * exactalg.bracket(d, coeff.system, scale)
    for d in coeff.den:
        out = out / exactalg.bracket(d, coeff.system, scale)
    return -out if coeff.sign < 0 else out


def oracle_dv(f, c, scale=1):
    """The singular-point functional by its definition: the quotient rule
    on the expanded form (one numerator over the squared denominator), then
    evaluation at x = y = c.

    quantum   (Q^D - Q^-D)/4 * ev(X d/dX f - Y d/dY f)
    classical 1/2 * ev(d/dx f - d/dy f)
    """
    if f.system == QUANTUM:
        diff = euler_derivative(f, "x") - euler_derivative(f, "y")
        pre = FieldElement({scale: Rat(1), -scale: Rat(-1)}, None, QUANTUM).scale(Rat(1, 4))
    else:
        diff = partial_derivative(f, "x") - partial_derivative(f, "y")
        pre = FieldElement({0: Rat(1, 2)}, None, f.system)
    return pre * exactalg.evaluate_at_singular(diff, c)


# ---------------------------------------------------------------------------
# exact division oracle
# ---------------------------------------------------------------------------

def oracle_long_division(a, f):
    """Laurent long division of the term dict a by the term dict f, taking
    leading terms in lex order, for at most 4*len(a) + 64 steps: the
    quotient if the remainder empties, else None.  The remainder of a
    non-divisor never empties, so it always runs to the step bound."""
    lead = max(f)
    rem = dict(a)
    quo = {}
    for _ in range(4 * len(a) + 64):
        if not rem:
            return quo
        k = max(rem)
        shift = (k[0] - lead[0], k[1] - lead[1], k[2] - lead[2])
        c = rem.pop(k) / f[lead]
        quo[shift] = quo.get(shift, 0) + c
        if not quo[shift]:
            del quo[shift]
        for fk, fc in f.items():
            if fk == lead:
                continue
            kk = (fk[0] + shift[0], fk[1] + shift[1], fk[2] + shift[2])
            rem[kk] = rem.get(kk, 0) - c * fc
            if not rem[kk]:
                del rem[kk]
    return None if rem else quo


# ---------------------------------------------------------------------------
# Fraction-coefficient term dicts: the exact arithmetic before coefficients
# became integers with one content per element
# ---------------------------------------------------------------------------

def fraction_pmul(a, b):
    """Product of two term dicts with exact rational coefficients."""
    return naive_collect(
        (((q1 + q2, x1 + x2, y1 + y2), c1 * c2)
         for (q1, x1, y1), c1 in a.items() for (q2, x2, y2), c2 in b.items()),
        {},
    )


def fraction_normalize(d):
    """A factor scaled to leading coefficient 1 and shifted to zero minimal
    exponents, the canonical form of Fraction-coefficient factors."""
    mins = [min(k[i] for k in d) for i in range(3)]
    lc = d[max(d)]
    return {(q - mins[0], x - mins[1], y - mins[2]): c / lc
            for (q, x, y), c in d.items()}


def fraction_pdiv_exact(a, f):
    """Exact division of a Fraction-coefficient term dict a by a binomial f
    in fraction_normalize form, or None, with the library's chain-length
    cap: chain sums, then chain-by-chain division."""
    if len(f) != 2:
        raise ValueError("only binomials are divided")
    (trail, tc), (lead, lc) = sorted(f.items())
    step = tuple(lead[i] - trail[i] for i in range(3))
    i = 1 if step[1] else 2 if step[2] else 0

    def param(k):
        return k[i] // step[i]

    chains = {}
    for k, c in a.items():
        t = param(k)
        cid = (k[0] - t * step[0], k[1] - t * step[1], k[2] - t * step[2])
        chains.setdefault(cid, {})[t] = c
    if lc == 1 and tc == -1 and any(sum(d.values()) for d in chains.values()):
        return None
    quo = {}
    for cid, d in chains.items():
        tmax, tmin = max(d), min(d)
        if tmax - tmin > 10000:
            return None
        for t in range(tmax, tmin - 1, -1):
            c = d.pop(t, 0)
            if not c:
                continue
            qc = c / lc
            quo[(cid[0] + t * step[0] - lead[0],
                 cid[1] + t * step[1] - lead[1],
                 cid[2] + t * step[2] - lead[2])] = qc
            d[t - 1] = d.get(t - 1, 0) - qc * tc
        if any(d.values()):
            return None
    return quo


def counter_cancel_pairs(nfac, fden):
    """Drop the factor keys shared by two multisets, by Counter difference:
    the library's factor cancellation before it became one merge over the
    two sorted multisets."""
    if not nfac or not fden:
        return tuple(sorted(nfac)), tuple(sorted(fden))
    cn, cd = Counter(nfac), Counter(fden)
    common = cn & cd
    if not common:
        return tuple(sorted(nfac)), tuple(sorted(fden))
    return (
        tuple(sorted((cn - common).elements())),
        tuple(sorted((cd - common).elements())),
    )


def sum_of_products(pairs, system):
    """The sum of the products a * b of (a, b) factor pairs, b = None
    standing for 1: each product is built with * and enters fe_sum as a
    pair of its own, so no scalar pair is summed on its factors."""
    return exactalg.fe_sum([(a if b is None else a * b, None) for a, b in pairs], system)


def pairwise_sum(a, b):
    """a + b by the pairwise algorithm: operands with the same factors add
    their numerators; otherwise the shared numerator factors stay factored,
    the denominator is the union of the two multisets, and each numerator
    is multiplied out only against what it is missing."""
    ring = a._check(b)
    if ring is None:
        return a if a.num else b
    if a.fden == b.fden and a.nfac == b.nfac:
        cn, cd, num = _sum([(a.cn, a.cd, a.num), (b.cn, b.cd, b.num)])
        if not num:
            return FieldElement.zero(a.system)
        return _build_raw(cn, cd, num, a.nfac, a.fden, a.system, ring)
    na, nb = Counter(a.nfac), Counter(b.nfac)
    common_n = na & nb
    da, db = Counter(a.fden), Counter(b.fden)
    common_d = da & db
    left = _times(a.num, ((na - common_n) + (db - common_d)).elements(), ring.mul)
    right = _times(b.num, ((nb - common_n) + (da - common_d)).elements(), ring.mul)
    cn, cd, num = _sum([(a.cn, a.cd, left), (b.cn, b.cd, right)])
    if not num:
        return FieldElement.zero(a.system)
    fden = tuple(sorted((da | db).elements()))
    return _build_raw(cn, cd, num, tuple(sorted(common_n.elements())), fden, a.system, ring)


# ---------------------------------------------------------------------------
# test-only helpers
# ---------------------------------------------------------------------------

def scalar_value(f):
    """The Fraction value of a classical module-stage scalar, content times
    {0: 1}: the oracle that content arithmetic is checked against."""
    if not f.num:
        return Rat(0)
    if f.num != {0: 1} or f.nfac or f.fden:
        raise ValueError("not a classical module-stage scalar")
    return Rat(f.cn, f.cd)


def term_euler(a, var):
    """X d/dX (var='x') or Y d/dY (var='y') of a trivariate term dict."""
    i = 1 if var == "x" else 2
    return {k: c * k[i] for k, c in a.items() if k[i]}


def term_partial(a, var):
    """d/dx (var='x') or d/dy (var='y') of a classical trivariate term dict."""
    out = {}
    for (q, x, y), c in a.items():
        e = x if var == "x" else y
        if e:
            out[(q, x - 1, y) if var == "x" else (q, x, y - 1)] = c * e
    return out


def euler_derivative(f, var):
    """X d/dX (var='x') or Y d/dY (var='y'), by the exact quotient rule."""
    if f.system != QUANTUM:
        raise ValueError("euler_derivative requires the quantum system")
    return _quotient_rule(f, lambda a: term_euler(a, var))


def partial_derivative(f, var):
    """d/dx or d/dy in the classical system, by the exact quotient rule."""
    if f.system != CLASSICAL:
        raise ValueError("partial_derivative requires the classical system")
    return _quotient_rule(f, lambda a: term_partial(a, var))


def _quotient_rule(f, deriv):
    n = f.expanded_num()
    facs = [dict(k) for k in f.fden]
    dpoly = dict(_PONE)
    for d in facs:
        dpoly = _pmul(dpoly, d)
    ddash = {}
    for i, d in enumerate(facs):
        term = deriv(d)
        for j, other in enumerate(facs):
            if j != i:
                term = _pmul(term, other)
        ddash = _collect(term.items(), ddash)
    num = _psub(_pmul(deriv(n), dpoly), _pmul(n, ddash))
    return _build(f.cn, f.cd, num, [], [], f.system, pre_den=f.fden + f.fden)


def terms_at(d, cx, cy, system):
    """The trivariate term dict d at X -> Q^cx, Y -> Q^cy (classical:
    x -> cx, y -> cy), term by term, as a univariate dict: int
    coefficients in the quantum system, Rat ones classically, where every
    term lands on the exponent 0.  Raises PoleAtEvaluation for a negative
    power of a variable valued 0."""
    out = {}
    for (q, x, y), c in d.items():
        if system == QUANTUM:
            k, v = q + x * cx + y * cy, c
        else:
            if (x < 0 and not cx) or (y < 0 and not cy):
                raise PoleAtEvaluation("a negative power of a variable valued 0")
            k, v = 0, c * cx ** x * cy ** y
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def evaluate_at(f, cx, cy):
    """Two-point substitution X -> Q^cx, Y -> Q^cy (classical x, y values),
    a univariate element: the product of the values of f's parts over the
    product of its denominator factors' values.  Quantum points are ints
    in the caller's units."""
    if f.system == QUANTUM:
        cx, cy = as_int(cx), as_int(cy)
    else:
        cx, cy = rat(cx), rat(cy)
    out = FieldElement.q_monomial(f.system, Rat(f.cn, f.cd))
    for d in [f.num] + [dict(k) for k in f.nfac]:
        out = out * FieldElement(terms_at(d, cx, cy, f.system), None, f.system)
    for k in f.fden:
        v = terms_at(dict(k), cx, cy, f.system)
        if not v:
            raise PoleAtEvaluation("denominator vanishes at the evaluation point")
        out = out / FieldElement(v, None, f.system)
    return out


def scale_q_exponents(f, factor):
    """Relabel Q -> Q^factor in an element of either key form: multiply
    every Q-exponent by an exact rational, moving the element between two
    exponent units.  Raises ValueError when an exponent would not be an
    int."""
    factor = rat(factor)

    def stretch(d):
        return {(as_int(k[0] * factor), k[1], k[2]) if type(k) is tuple
                else as_int(k * factor): c for k, c in d.items()}

    return _build(
        f.cn,
        f.cd,
        stretch(f.num),
        [stretch(dict(k)) for k in f.nfac],
        [stretch(dict(k)) for k in f.fden],
        f.system,
    )


def spec_bracket(spec, d):
    """The bracket of an unscaled entry difference d free of X and Y, in
    the units of spec, as a univariate value."""
    f = exactalg.bracket(d._replace(const=d.const * spec.qscale), spec.mode, spec.qscale)
    return exactalg.evaluate_at_singular(f, 0)


def act_word(word, elem, spec):
    """Apply a product of generators, leftmost factor acting last."""
    for g in reversed(list(word)):
        elem = action.act_element(g, elem, spec)
    return elem


def oracle_window_connectivity(spec, B):
    """The window-connectivity evidence of irreducibility_evidence by
    all-pairs reachability, as that check first decided it: on the graph
    of nonzero e_r, f_r moves inside the window, one search from the first
    interior vertex (every shift entry at most B - 1 in size, or any
    vertex when none is), then one search from every other interior
    vertex back to it.  True when the interior is strongly connected."""
    window = spec.window(B)
    index = {bv: t for t, bv in enumerate(window)}
    gens = [g(r) for g in (action.gen_e, action.gen_f) for r in range(1, spec.n)]
    adj = [[] for _ in window]
    for bv, t in index.items():
        for g in gens:
            for tgt, coeff in action.act(g, bv, spec):
                u = index.get(tgt)
                if u is not None and not coeff.is_zero():
                    adj[t].append(u)

    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    interior = [t for bv, t in index.items() if all(abs(v) <= B - 1 for v in bv.z)]
    interior = interior or list(range(len(window)))
    if not reach(interior[0]).issuperset(interior):
        return False
    return all(interior[0] in reach(t) for t in interior[1:])


def weight_exponent(spec, k, z):
    """a_k = sum(row k) - sum(row k-1) + k at shift z, as an exact unscaled
    linear expression in the entries."""
    a = LinearExpr(k * spec.qscale, 0, 0)
    for c in range(1, k + 1):
        a = a + spec.entry_linear(k, c, z)
    for c in range(1, k):
        a = a - spec.entry_linear(k - 1, c, z)
    if spec.qscale == 1:
        return a
    return LinearExpr(rat(a.const, spec.qscale), a.cx, a.cy)


def row_shifts(spec, row, z):
    """The shifts of row `row` of z; the top row n has none."""
    return tuple(z[z_index(row, s)] for s in range(1, row + 1)) if row < spec.n else ()


def weight_shift(spec, h, z):
    """sum_k h_k (sum z_row k - sum z_row k-1): the integer by which the
    weight exponent of h at shift z exceeds its value at shift 0, in
    units of 1/qscale."""
    return sum(hk * (sum(row_shifts(spec, k, z)) - sum(row_shifts(spec, k - 1, z)))
               for k, hk in enumerate(h, start=1))


def translation_key(spec, tag, kind, k, r, z):
    """What the e_k/f_k coefficient moving column r reads at shift z: the
    differences z_kr - z_ks over row k and z_kr - z_(other,s) over the row
    other = k +- 1, or z_kr itself when other is the unshifted top row."""
    other = k + 1 if kind == "e" else k - 1
    zkr = z[z_index(k, r)]
    near = tuple(zkr - v for v in row_shifts(spec, k, z))
    far = zkr if other == spec.n else tuple(zkr - v for v in row_shifts(spec, other, z))
    return tag, kind, k, r, near, far


def per_word_relation_instances(spec):
    """The (label, residual function) pairs of verify._relation_instances,
    in the same order, with every residual summed word by word."""
    n, qs, mode = spec.n, spec.qscale, spec.mode
    e, f, qh = action.gen_e, action.gen_f, action.gen_qh
    eps = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    hmix = tuple(1 if t == 0 else (-1 if t == n - 1 else 0) for t in range(n))
    weights = eps + [hmix]
    instances = []

    def add(label, parts):
        def residual(b):
            out = action.ModuleElement()
            for el in parts(b):
                out = out + el
            return out
        instances.append((label, residual))

    def word(b, *gens):
        return act_word(gens, action.ModuleElement.basis(b, mode), spec)

    def commutator(b, g1, g2):
        return [word(b, g1, g2), -word(b, g2, g1)]

    def neg(h):
        return tuple(-t for t in h)

    if mode == QUANTUM:
        add("q^0 = 1", lambda b: [word(b, qh((0,) * n)),
                                  -action.ModuleElement.basis(b, mode)])
        for h in (eps[0], eps[n - 1]):
            hsum = tuple(a + c for a, c in zip(h, hmix))
            add(f"q^h q^h' = q^(h+h'), h={h}, h'={hmix}",
                lambda b, h=h, hsum=hsum: [word(b, qh(hmix), qh(h)),
                                           -word(b, qh(hsum))])
        meet_label = "q^h {g} q^-h = q^<h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return [word(b, qh(h), g, qh(neg(h)))]

        def weight_scalar(c):
            return FieldElement.q_monomial(mode, 1, c * qs)

        inv = FieldElement({0: 1}, {qs: 1, -qs: -1}, mode)

        def cartan_part(b, alpha):
            return [-word(b, qh(alpha)).scale(inv), word(b, qh(neg(alpha))).scale(inv)]

        serre_coeff = FieldElement({qs: 1, -qs: 1}, None, mode)
    else:
        add(f"[h, h'] = 0, h={eps[0]}, h'={hmix}",
            lambda b: commutator(b, qh(eps[0]), qh(hmix)))
        meet_label = "[h, {g}] = <h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return commutator(b, qh(h), g)

        def weight_scalar(c):
            return FieldElement.q_monomial(mode, c)

        def cartan_part(b, alpha):
            return [-word(b, qh(alpha))]

        serre_coeff = FieldElement.q_monomial(mode, 2)

    for h in weights:
        for r in range(1, n):
            for kind, gen, sgn in (("e", e, 1), ("f", f, -1)):
                g, c = gen(r), weight_scalar(sgn * (h[r - 1] - h[r]))
                add(meet_label.format(g=f"{kind}_{r}", r=r, h=h),
                    lambda b, h=h, g=g, c=c: meet(b, h, g) + [-word(b, g).scale(c)])
    for r in range(1, n):
        alpha = tuple(1 if t == r else (-1 if t == r + 1 else 0) for t in range(1, n + 1))
        for s in range(1, n):
            add(f"[e_{r}, f_{s}] commutator",
                lambda b, r=r, s=s, alpha=alpha: commutator(b, e(r), f(s))
                + (cartan_part(b, alpha) if r == s else []))
    for kind, gen in (("e", e), ("f", f)):
        for r in range(1, n):
            for s in range(1, n):
                gr, gs = gen(r), gen(s)
                if abs(r - s) == 1:
                    add(f"Serre {kind}_{r}{kind}_{s}",
                        lambda b, gr=gr, gs=gs: [word(b, gr, gr, gs),
                                                 -word(b, gr, gs, gr).scale(serre_coeff),
                                                 word(b, gs, gr, gr)])
                elif s - r > 1:
                    add(f"[{kind}_{r}, {kind}_{s}] = 0",
                        lambda b, gr=gr, gs=gs: commutator(b, gr, gs))
    return instances


def residual_cartan_instances(spec):
    """The Cartan instances of verify._relation_instances, in the same
    order and under the same labels, each residual built in full: the
    words' unsummed triples summed by one combine, as the relation check
    built every Cartan residual before it decided them on their grading."""
    n, qs, mode = spec.n, spec.qscale, spec.mode
    qh = action.gen_qh
    eps = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    hmix = tuple(1 if t == 0 else (-1 if t == n - 1 else 0) for t in range(n))
    minus = FieldElement.q_monomial(mode, -1)
    instances = []

    def add(label, parts):
        instances.append((label, lambda b: action.combine(parts(b), spec)))

    def word(b, *gens, c=None):
        outer, inner = gens[0], gens[1:]
        if inner:
            elem = action.act(inner[-1], b, spec)
            for g in reversed(inner[:-1]):
                elem = action.act_element(g, elem, spec)
            src = elem.terms if c is None else {bv: v * c for bv, v in elem.terms.items()}
        else:
            src = {b: c}
        return [(tgt, coeff, cb)
                for bv, cb in src.items()
                for tgt, coeff in action.act(outer, bv, spec).terms.items()]

    def neg(h):
        return tuple(-t for t in h)

    if mode == QUANTUM:
        add("q^0 = 1", lambda b: word(b, qh((0,) * n)) + [(b, minus, None)])
        for h in (eps[0], eps[n - 1]):
            hsum = tuple(a + c for a, c in zip(h, hmix))
            add(f"q^h q^h' = q^(h+h'), h={h}, h'={hmix}",
                lambda b, h=h, hsum=hsum: word(b, qh(hmix), qh(h))
                + word(b, qh(hsum), c=minus))
        label = "q^h {g} q^-h = q^<h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return word(b, qh(h), g, qh(neg(h)))

        def weight_scalar(k):
            return FieldElement.q_monomial(mode, 1, k * qs)
    else:
        add(f"[h, h'] = 0, h={eps[0]}, h'={hmix}",
            lambda b: word(b, qh(eps[0]), qh(hmix)) + word(b, qh(hmix), qh(eps[0]), c=minus))
        label = "[h, {g}] = <h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return word(b, qh(h), g) + word(b, g, qh(h), c=minus)

        def weight_scalar(k):
            return FieldElement.q_monomial(mode, k)

    for h in eps + [hmix]:
        for r in range(1, n):
            for kind, gen, sgn in (("e", action.gen_e, 1), ("f", action.gen_f, -1)):
                g, c = gen(r), -weight_scalar(sgn * (h[r - 1] - h[r]))
                add(label.format(g=f"{kind}_{r}", r=r, h=h),
                    lambda b, h=h, g=g, c=c: meet(b, h, g) + word(b, g, c=c))
    return instances
