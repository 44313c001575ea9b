"""Executable identity suites.

Each check sweeps a finite window of starting basis vectors but never
truncates the action itself, so every reported residual is exact: a pass
means the residual element is identically zero, a failure carries the
first counterexample.  The relation and finite-dimensional checks also
check closure: no generator moves a window vector out of the basis.
"""

import random
import time
from dataclasses import dataclass
from typing import Optional

from ._rat import Rat
from .exactalg import (
    CLASSICAL,
    QUANTUM,
    DivisionByZero,
    FieldElement,
    LinearExpr,
    bracket,
    dv_operator,
    evaluate_at_singular,
    tau_swap,
)
from .tableaux import (
    enumerate_window,
    highest_weight_tableau,
    interlacing_relations,
    maximal_relation_set,
    implies,
)
from .action import (
    DERIVATIVE,
    NORMAL,
    BasisVector,
    ModuleElement,
    ModuleSpec,
    NonRealizable,
    act,
    act_element,
    combine,
    expand_derivative,
    expand_normal,
    gen_e,
    gen_f,
    gen_qeps,
    gen_qh,
)
from .gtcenter import (
    act_central,
    act_central_element,
    block_report,
    eigen_index_set,
    gamma_evaluated,
)


@dataclass
class CheckReport:
    name: str
    summary: str
    bound: Optional[int]
    passed: bool
    counterexample: Optional[str]
    seconds: float
    seed: Optional[int] = None

    def __bool__(self):
        return self.passed

    def render(self):
        status = "PASS" if self.passed else "FAIL"
        head = f"[{status}] {self.name}: {self.summary}"
        tail = []
        if self.bound is not None:
            tail.append(f"bound={self.bound}")
        if self.seed is not None:
            tail.append(f"seed={self.seed}")
        tail.append(f"{self.seconds:.2f}s")
        out = head + "  (" + ", ".join(tail) + ")"
        if self.counterexample:
            out += f"\n    counterexample: {self.counterexample}"
        return out


def _finish(name, summary, bound, failure, t0, seed=None):
    return CheckReport(
        name, summary, bound, failure is None, failure, time.time() - t0, seed
    )


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _sample_weights(n):
    eps = [tuple(1 if t == k else 0 for t in range(n)) for k in range(n)]
    mixed = tuple(1 if t == 0 else (-1 if t == n - 1 else 0) for t in range(n))
    return eps + [mixed]


def _quantum_relation_instances(spec):
    """(label, residual function) pairs covering the defining relations."""
    n = spec.n
    qs = spec.qscale
    weights = _sample_weights(n)
    inv = FieldElement(
        {(0, 0, 0): Rat(1)}, {(qs, 0, 0): Rat(1), (-qs, 0, 0): Rat(-1)}, QUANTUM
    )
    instances = []

    def scalar_q(e):
        return FieldElement.monomial(QUANTUM, 1, expq=e * qs)

    zero_h = tuple(0 for _ in range(n))

    def unit_rel(b, v):
        return act(gen_qh(zero_h), b, spec) - v

    instances.append(("q^0 = 1", unit_rel))

    for h1, h2 in [(weights[0], weights[-1]), (weights[n - 1], weights[-1])]:
        hsum = tuple(a + b for a, b in zip(h1, h2))

        def prod_rel(b, v, h1=h1, h2=h2, hsum=hsum):
            lhs = act(gen_qh(h1), b, spec)
            lhs = act_element(gen_qh(h2), lhs, spec)
            return lhs - act(gen_qh(hsum), b, spec)

        instances.append((f"q^h q^h' = q^(h+h'), h={h1}, h'={h2}", prod_rel))

    for h in weights:
        for r in range(1, n):
            for kind, gen, sgn in (("e", gen_e, 1), ("f", gen_f, -1)):
                pair = sgn * spec.pairing_alpha(h, r)

                def weight_rel(b, v, h=h, r=r, gen=gen, pair=pair):
                    mh = tuple(-t for t in h)
                    lhs = act(gen_qh(mh), b, spec)
                    lhs = act_element(gen(r), lhs, spec)
                    lhs = act_element(gen_qh(h), lhs, spec)
                    rhs = act(gen(r), b, spec).scale(scalar_q(pair))
                    return combine([lhs, -rhs], spec)

                instances.append(
                    (f"q^h {kind}_{r} q^-h = q^<h,a_{r}> {kind}_{r}, h={h}", weight_rel)
                )

    for r in range(1, n):
        for s in range(1, n):

            def ef_rel(b, v, r=r, s=s):
                parts = [
                    act_element(gen_e(r), act(gen_f(s), b, spec), spec),
                    -act_element(gen_f(s), act(gen_e(r), b, spec), spec),
                ]
                if r == s:
                    alpha = tuple(
                        1 if t == r else (-1 if t == r + 1 else 0)
                        for t in range(1, n + 1)
                    )
                    malpha = tuple(-t for t in alpha)
                    parts.append(-act(gen_qh(alpha), b, spec).scale(inv))
                    parts.append(act(gen_qh(malpha), b, spec).scale(inv))
                return combine(parts, spec)

            instances.append((f"[e_{r}, f_{s}] commutator", ef_rel))

    qcoeff = FieldElement(
        {(qs, 0, 0): Rat(1), (-qs, 0, 0): Rat(1)}, {(0, 0, 0): Rat(1)}, QUANTUM
    )
    return instances + _serre_and_distant_instances(spec, qcoeff)


def _classical_relation_instances(spec):
    n = spec.n
    weights = _sample_weights(n)
    instances = []

    for h1, h2 in [(weights[0], weights[-1])]:

        def cartan_commute(b, v, h1=h1, h2=h2):
            lhs = act_element(gen_qh(h1), act(gen_qh(h2), b, spec), spec)
            rhs = act_element(gen_qh(h2), act(gen_qh(h1), b, spec), spec)
            return lhs - rhs

        instances.append((f"[h, h'] = 0, h={h1}, h'={h2}", cartan_commute))

    for h in weights:
        for r in range(1, n):
            for kind, gen, sgn in (("e", gen_e, 1), ("f", gen_f, -1)):
                pair = sgn * spec.pairing_alpha(h, r)

                def weight_rel(b, v, h=h, r=r, gen=gen, pair=pair):
                    lhs = act_element(gen_qh(h), act(gen(r), b, spec), spec) - act_element(
                        gen(r), act(gen_qh(h), b, spec), spec
                    )
                    rhs = act(gen(r), b, spec).scale(
                        FieldElement.scalar(pair, CLASSICAL)
                    )
                    return lhs - rhs

                instances.append((f"[h, {kind}_{r}] = <h,a_{r}> {kind}_{r}, h={h}", weight_rel))

    for r in range(1, n):
        for s in range(1, n):

            def ef_rel(b, v, r=r, s=s):
                lhs = act_element(gen_e(r), act(gen_f(s), b, spec), spec) - act_element(
                    gen_f(s), act(gen_e(r), b, spec), spec
                )
                if r != s:
                    return lhs
                alpha = tuple(
                    1 if t == r else (-1 if t == r + 1 else 0) for t in range(1, n + 1)
                )
                return lhs - act(gen_qh(alpha), b, spec)

            instances.append((f"[e_{r}, f_{s}] commutator", ef_rel))

    two = FieldElement.scalar(2, CLASSICAL)
    return instances + _serre_and_distant_instances(spec, two)


def _serre_and_distant_instances(spec, serre_coeff):
    """The Serre relations, with the system's middle coefficient ([2]_q or
    2), and the commutation of distant e's and of distant f's."""
    n = spec.n
    instances = []
    for gen, kind in ((gen_e, "e"), (gen_f, "f")):
        for r in range(1, n):
            for s in range(1, n):
                if abs(r - s) == 1:

                    def serre(b, v, r=r, s=s, gen=gen):
                        A = act(gen(r), b, spec)
                        B = act(gen(s), b, spec)
                        t1 = act_element(gen(r), act_element(gen(r), B, spec), spec)
                        t2 = act_element(gen(r), act_element(gen(s), A, spec), spec)
                        t3 = act_element(gen(s), act_element(gen(r), A, spec), spec)
                        return combine([t1, -t2.scale(serre_coeff), t3], spec)

                    instances.append((f"Serre {kind}_{r}{kind}_{s}", serre))
                elif r < s and s - r > 1:

                    def distant(b, v, r=r, s=s, gen=gen):
                        return combine(
                            [
                                act_element(gen(r), act(gen(s), b, spec), spec),
                                -act_element(gen(s), act(gen(r), b, spec), spec),
                            ],
                            spec,
                        )

                    instances.append((f"[{kind}_{r}, {kind}_{s}] = 0", distant))
    return instances


def _leaves_basis(spec: ModuleSpec, bv: BasisVector, inside):
    """The first move of some e_r or f_r from bv to a target that is not
    ``inside``, as a counterexample, or None."""
    for r in range(1, spec.n):
        for g in (gen_e(r), gen_f(r)):
            for tgt in act(g, bv, spec).terms:
                if not inside(tgt):
                    return f"{g!r} leaves the basis from {bv!r} to {tgt!r}"
    return None


def check_defining_relations(spec: ModuleSpec, B: int) -> CheckReport:
    """The action on the window stays inside the basis, and every defining
    relation annihilates every window basis vector.

    Closure is checked first, on the whole window: the tableau formulas
    satisfy the relations with or without the gate, so only closure tells
    the module from the ungated action.  A coefficient that cannot be
    computed (non-realizable, or a division by zero) fails the check with
    the relation or move and the basis vector where it arose.
    """
    t0 = time.time()
    window = spec.window(B)
    instances = (
        _quantum_relation_instances(spec)
        if spec.mode == QUANTUM
        else _classical_relation_instances(spec)
    )
    summary = (
        f"{len(instances)} relation instances on {len(window)} basis vectors "
        f"({spec.mode}, n={spec.n}, "
        f"{'generic' if spec.is_generic() else 'singular ' + str(tuple(spec.singular))})"
    )
    where = None

    def first_failure():
        nonlocal where
        for bv in window:
            where = f"closure on {bv!r}"
            failure = _leaves_basis(spec, bv, lambda tgt: spec.in_basis(tgt.z))
            if failure:
                return failure
        for bv in window:
            v = ModuleElement.basis(bv, spec.mode)
            for label, residual in instances:
                where = f"{label} on {bv!r}"
                res = residual(bv, v)
                if not res.is_zero():
                    return f"{where}: residual {res!r}"
        return None

    try:
        failure = first_failure()
    except NonRealizable as exc:
        failure = f"{where}: non-realizable coefficient: {exc}"
    except DivisionByZero as exc:
        failure = f"{where}: division by zero: {exc}"
    return _finish("defining-relations", summary, B, failure, t0)


def check_compatibility(spec: ModuleSpec, B: int) -> CheckReport:
    """The pipeline is well defined: both shift representatives give the
    same element on normal tableaux, and opposite elements on derivative
    tableaux."""
    t0 = time.time()
    if spec.is_generic():
        raise ValueError("compatibility checks need a singular spec")
    gens = [gen_e(r) for r in range(1, spec.n)] + [gen_f(r) for r in range(1, spec.n)]
    gens += [gen_qeps(k) for k in range(1, spec.n + 1)]
    shifts = enumerate_window(spec.relations, spec.base, B)
    summary = f"{len(gens)} generators on {len(shifts)} shifts ({spec.mode})"
    failure = None
    for z in shifts:
        tz = spec.tau(z)
        for g in gens:
            lhs = expand_normal(spec, g, z)
            rhs = expand_normal(spec, g, tz)
            if lhs != rhs:
                failure = f"normal pipeline differs across tau at z={z}, g={g!r}"
                break
            if z != tz:
                lhs = expand_derivative(spec, g, z)
                rhs = expand_derivative(spec, g, tz)
                if lhs != -rhs:
                    failure = f"derivative pipeline not antisymmetric at z={z}, g={g!r}"
                    break
        if failure:
            break
    return _finish("compatibility", summary, B, failure, t0)


# ---------------------------------------------------------------------------
# functional identities on random smooth elements
# ---------------------------------------------------------------------------

def sample_smooth(rng, system=QUANTUM, nterms=4):
    """Random element smooth on X = Y: Laurent numerator over a product of
    bracket factors with nonzero constant offset."""
    num = FieldElement.zero(system)
    for _ in range(nterms):
        if system == QUANTUM:
            term = FieldElement.monomial(
                system,
                Rat(rng.randint(-4, 4)),
                rng.randint(-3, 3),
                rng.randint(-2, 2),
                rng.randint(-2, 2),
            )
        else:
            term = FieldElement.monomial(
                system, Rat(rng.randint(-4, 4)), 0, rng.randint(0, 2), rng.randint(0, 2)
            )
        num = num + term
    if num.is_zero():
        num = FieldElement.one(system)
    den = FieldElement.one(system)
    for _ in range(rng.randint(0, 2)):
        m = rng.choice([-2, -1, 1, 2, 3])
        den = den * bracket(LinearExpr(Rat(m), 1, -1), system)
    return num / den


def _sample_invertible(rng, system, c):
    while True:
        f = sample_smooth(rng, system)
        if not evaluate_at_singular(f, c).is_zero():
            return f


def pole_families(rng, system, c):
    """The pole-bearing families of check_appendix, as (name, [(f_m, h_m)],
    whether the ev identity is checked).  The identities concern the total
    sum f_m h_m / [x-y], that is sum f_m g_m with g_m = h_m/[x-y], whose
    terms have a first-order pole on X = Y."""
    # weak family: f = (a, a^tau), h = (h1, -h1^tau); the twisted sum is
    # symmetric, so its dv vanishes while the sum itself does not.
    a = sample_smooth(rng, system)
    h1 = _sample_invertible(rng, system, c)
    weak = [(a, h1), (tau_swap(a), -tau_swap(h1))]
    # strong family: the twisted sum vanishes identically.
    bden = _sample_invertible(rng, system, c)
    w = -(tau_swap(a) * h1) / tau_swap(bden)
    strong = [(a, h1), (bden, w)]
    return [("weak", weak, False), ("strong", strong, True)]


def check_appendix(system=QUANTUM, samples=100, seed=20240901) -> CheckReport:
    """Identities of the singular-point functional on seeded random smooth
    elements, plus constructed families with first-order poles on X = Y.
    Raises ValueError when samples < 1: a check of no samples shows
    nothing."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.time()
    rng = random.Random(seed)
    b = bracket(LinearExpr(Rat(0), 1, -1), system)
    # multiply by 1/[x-y] rather than divide by [x-y]: a quotient divides the
    # classical binomial x - y out of the numerator, leaving no pole on X = Y
    inv_b = FieldElement.one(system) / b
    failure = None
    summary = f"functional identities on {samples} samples ({system})"
    for trial in range(samples):
        c = Rat(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        f = sample_smooth(rng, system)
        g = sample_smooth(rng, system)
        fs = f + tau_swap(f)
        checks = []
        checks.append(("dv(f^tau) = -dv(f)", dv_operator(tau_swap(f), c) == -dv_operator(f, c)))
        checks.append(("dv(sym) = 0", dv_operator(fs, c).is_zero()))
        h = (f - tau_swap(f)) * inv_b
        checks.append(
            ("ev((f-f^tau)/[x-y]) = 2 dv(f)",
             evaluate_at_singular(h, c) == dv_operator(f, c).scale(2))
        )
        checks.append(
            ("ev(f) = dv([x-y] f)",
             evaluate_at_singular(f, c) == dv_operator(b * f, c))
        )
        prod_lhs = dv_operator(f * g, c)
        prod_rhs = dv_operator(f, c) * evaluate_at_singular(g, c) + evaluate_at_singular(
            f, c
        ) * dv_operator(g, c)
        checks.append(("product rule", prod_lhs == prod_rhs))
        checks.append(
            ("dv([x-y]f) = dv([x-y]f^tau)",
             dv_operator(b * f, c) == dv_operator(b * tau_swap(f), c))
        )
        gs = g + tau_swap(g)
        checks.append(
            ("dv(f) dv([x-y]g) = dv(fg) for symmetric g",
             dv_operator(f, c) * dv_operator(b * gs, c) == dv_operator(f * gs, c))
        )

        for name, fam, test_ev in pole_families(rng, system, c):
            lhs_i = FieldElement.zero(system)
            lhs_ii = FieldElement.zero(system)
            total = FieldElement.zero(system)
            for fm, hm in fam:
                lhs_i = lhs_i + dv_operator(fm, c) * dv_operator(hm, c)
                lhs_ii = lhs_ii + dv_operator(fm, c) * evaluate_at_singular(hm, c)
                total = total + fm * hm
            total = total * inv_b
            checks.append(
                (f"pole family ({name}) dv identity",
                 lhs_i.scale(2) == dv_operator(total, c))
            )
            if test_ev:
                checks.append(
                    (f"pole family ({name}) ev identity",
                     lhs_ii.scale(2) == evaluate_at_singular(total, c))
                )

        for label, ok in checks:
            if not ok:
                failure = f"sample {trial}: {label}"
                break
        if failure:
            break
    return _finish("appendix-identities", summary, None, failure, t0, seed)


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin structure
# ---------------------------------------------------------------------------

def check_gamma(spec: ModuleSpec, B: int) -> CheckReport:
    """Eigenvalue equations on normal vectors, the size-two Jordan structure
    on derivative vectors, block dimensions and key separation."""
    t0 = time.time()
    window = spec.window(B)
    pairs = [(m, k) for m in range(1, spec.n + 1) for k in range(0, m + 1)]
    summary = f"{len(pairs)} central generators on {len(window)} vectors ({spec.mode})"
    failure = None

    for bv in window:
        for m, k in pairs:
            gval = gamma_evaluated(spec, m, k, bv.z)
            res = act_central(m, k, bv, spec) - ModuleElement({bv: gval})
            if bv.kind == NORMAL:
                if not res.is_zero():
                    failure = f"normal vector {bv!r} not an eigenvector of c_{m}{k}"
                    break
            else:
                sing_row = spec.singular.row
                should_vanish = m != sing_row or k in eigen_index_set(spec, m)
                if should_vanish and not res.is_zero():
                    failure = f"(c-gamma) c_{m}{k} does not vanish on {bv!r}"
                    break
                if not should_vanish and res.is_zero():
                    failure = f"(c-gamma) c_{m}{k} unexpectedly vanishes on {bv!r}"
                    break
                res2 = act_central_element(m, k, res, spec) - res.scale(gval)
                if not res2.is_zero():
                    failure = f"(c-gamma)^2 c_{m}{k} does not vanish on {bv!r}"
                    break
        if failure:
            break

    if failure is None:
        rows = block_report(spec, B)
        seen_two = False
        for row in rows:
            if row.dimension > 2:
                failure = f"block of dimension {row.dimension}"
                break
            if row.dimension == 2:
                seen_two = True
                kinds = {bv.kind for bv in row.members}
                if kinds != {NORMAL, DERIVATIVE}:
                    failure = f"dimension-2 block without a tableau/derivative pair"
                    break
        if failure is None and not spec.is_generic() and B >= 1 and not seen_two:
            failure = "no dimension-2 block for tau-unfixed shifts"
        if failure is None and spec.is_generic():
            if any(row.dimension != 1 for row in rows):
                failure = "generic spec with a block of dimension > 1"
    return _finish("gamma-structure", summary, B, failure, t0)


def check_finite_dimensional(lam, mode=QUANTUM) -> CheckReport:
    """Basis count against the pattern count and the Weyl product, and
    closure of the generator action inside the finite basis."""
    t0 = time.time()
    lam = [int(v) for v in lam]
    n = len(lam)
    spec = ModuleSpec(highest_weight_tableau(lam), interlacing_relations(n), mode=mode)
    B = lam[0] - lam[-1] + n
    window = spec.window(B)
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    weyl = num // den
    summary = f"highest weight {tuple(lam)}: basis {len(window)}, Weyl {weyl} ({mode})"
    failure = None
    if len(window) != weyl:
        failure = f"basis size {len(window)} != Weyl dimension {weyl}"
    if failure is None:
        basis = set(window)
        for bv in window:
            failure = _leaves_basis(spec, bv, basis.__contains__)
            if failure:
                break
    if failure is None:
        top = BasisVector(NORMAL, (0,) * spec.nfree)
        for r in range(1, n):
            if not act(gen_e(r), top, spec).is_zero():
                failure = f"e_{r} does not annihilate the highest pattern"
                break
    return _finish("finite-dimensional", summary, None, failure, t0)


def irreducibility_evidence(spec: ModuleSpec, B: int) -> CheckReport:
    """Exact irreducibility hypothesis (maximality plus non-integral gaps
    off the support) and, separately, window-reachability evidence."""
    t0 = time.time()
    M, _ = maximal_relation_set(spec.base)
    hypothesis = implies(spec.relations, M)
    support = spec.relations.support
    if hypothesis:
        for r in range(2, spec.n + 1):
            for s in range(1, r + 1):
                for tcol in range(1, r):
                    a = (r, s)
                    b = (r - 1, tcol)
                    if all(p in support for p in (a, b)):
                        continue
                    d = spec.base.entry(*a) - spec.base.entry(*b)
                    if d.denominator == 1:
                        hypothesis = False
                        break
                if not hypothesis:
                    break
            if not hypothesis:
                break

    window = spec.window(B)
    index = {bv: t for t, bv in enumerate(window)}
    gens = [gen_e(r) for r in range(1, spec.n)] + [gen_f(r) for r in range(1, spec.n)]
    adj = [[] for _ in window]
    for bv, t in index.items():
        for g in gens:
            for tgt, coeff in act(g, bv, spec):
                u = index.get(tgt)
                if u is not None and not coeff.is_zero():
                    adj[t].append(u)

    def reach(start):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    interior = [
        t for bv, t in index.items() if all(abs(v) <= B - 1 for v in bv.z)
    ] or list(range(len(window)))
    base_reach = reach(interior[0])
    connected = all(t in base_reach for t in interior)
    if connected:
        for t in interior[1:]:
            if interior[0] not in reach(t):
                connected = False
                break

    summary = (
        f"hypothesis={'holds' if hypothesis else 'fails'}, window connectivity "
        f"evidence={'yes' if connected else 'no'} on {len(window)} vectors"
    )
    failure = None if hypothesis and connected else summary
    return _finish("irreducibility-evidence", summary, B, failure, t0)


SUITES = (
    "relations",
    "compatibility",
    "appendix",
    "gamma",
    "findim",
    "irreducible",
)


def run_suite(spec: ModuleSpec, suite: str, B: int, seed=20240901, samples=100):
    if suite == "relations":
        return [check_defining_relations(spec, B)]
    if suite == "compatibility":
        return [check_compatibility(spec, B)]
    if suite == "appendix":
        return [check_appendix(spec.mode, samples=samples, seed=seed)]
    if suite == "gamma":
        return [check_gamma(spec, B)]
    if suite == "findim":
        if spec.n <= 3:
            lam = [4, 2, 0][: spec.n]
        elif spec.n == 4:
            lam = [5, 3, 1, 0]
        else:
            lam = [2, 1] + [0] * (spec.n - 2)
        return [check_finite_dimensional(lam, spec.mode)]
    if suite == "irreducible":
        return [irreducibility_evidence(spec, B)]
    if suite == "all":
        out = [check_defining_relations(spec, B)]
        if not spec.is_generic():
            out.append(check_compatibility(spec, B))
        out.append(check_appendix(spec.mode, samples=samples, seed=seed))
        out.append(check_gamma(spec, B))
        out.append(irreducibility_evidence(spec, B))
        return out
    raise ValueError(f"unknown suite {suite!r}")
