"""Executable identity suites.

Each check sweeps a finite window of starting basis vectors but never
truncates the action itself, so every reported residual is exact: a pass
means the residual element is identically zero, a failure carries the
first counterexample.  A Cartan relation instance (one built from weight
generators alone, or from weights and one e_r or f_r) passes on its
grading, an integer identity of weight exponents that implies a zero
residual; only where that identity fails is the residual built.  The
relation and finite-dimensional checks also check closure: no generator
moves a window vector out of the basis.  No
spec check crashes on a coefficient it cannot compute: _guarded turns the
error into a failure naming the step and the basis vector.
"""

import random
import time
from typing import NamedTuple, Optional

from ._rat import Rat, as_int, is_integral
from .exactalg import (
    CLASSICAL,
    QUANTUM,
    DivisionByZero,
    FieldElement,
    LinearExpr,
    PoleAtEvaluation,
    bracket,
    dv_operator,
    evaluate_at_singular,
    fe_sum,
    tau_swap,
)
from .tableaux import (
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
from .gtcenter import block_report, eigen_index_set


class CheckReport(NamedTuple):
    """The outcome of one check; true exactly when it passed.

    A NamedTuple, like the package's other records, rather than a
    dataclass: importing gtsingular should not load dataclasses and, with
    it, inspect.  So a report is immutable, hashable and iterable, though
    nothing mutates, hashes or iterates one."""

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
        name, summary, bound, failure is None, failure, time.perf_counter() - t0, seed
    )


def _guarded(sweep):
    """Run a check's sweep, so that no arithmetic error crashes the check.

    sweep(at) returns the failure or None, and calls at(step, bv) as it
    starts each check step on a basis vector bv.  A coefficient that cannot
    be computed (non-realizable, a division by zero, or a pole at the
    singular point) becomes the failure, named by the last step and vector.
    """
    where = None

    def at(step, bv):
        nonlocal where
        where = step, bv

    try:
        return sweep(at)
    except NonRealizable as exc:
        error = f"non-realizable coefficient: {exc}"
    except DivisionByZero as exc:
        error = f"division by zero: {exc}"
    except PoleAtEvaluation as exc:
        error = f"pole at the singular point: {exc}"
    step, bv = where
    return f"{step} on {bv!r}: {error}"


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _sample_weights(n):
    eps = [tuple(1 if t == k else 0 for t in range(n)) for k in range(n)]
    mixed = tuple(1 if t == 0 else (-1 if t == n - 1 else 0) for t in range(n))
    return eps + [mixed]


def _relation_instances(spec):
    """(label, residual function) pairs covering the defining relations.

    The weight, [e_r, f_s], Serre and distant-commutation instances are
    built once for both systems.  The systems differ in four places only,
    all set in the branch below: the Cartan identities (q^0 = 1 and
    q^h q^h' = q^(h+h') against [h, h'] = 0), how h meets a generator g
    (the conjugation q^h g q^-h against the commutator [h, g], with the
    grading that decides it), the Cartan part of [e_r, f_r] and the q of
    the Serre relations (q = 1 classically).

    A residual is a list of unsummed (basis vector, a, b) triples, the
    product a * b on its vector (b = None stands for 1), summed once by
    combine with one fe_sum per basis vector, so a classical scalar
    product is never built as an element.  Each word's inner letters act
    through act_element; its outermost letter's coefficient is a and the
    coefficient it acts on, times the word's scalar (a sign, a weight or
    1/(q - q^-1)), is b, so no word is summed and reduced on its own
    before the residual is.

    A Cartan instance is first decided on its grading.  A weight generator
    q^h (h classically) acts on a basis vector v as a scalar, W_h(v) v, and
    diagonal reads W_h(v) from act as the ints of a monomial
    (cn / cd) Q^e, or as 0 when act gives 0.  With g b = sum_t c_t t over
    the targets t of act(g, b) and k = +-<h, alpha_r> (+ for e_r, - for
    f_r), the residuals are
        q^h g q^-h b - Q^(qs k) g b = sum_t c_t (W_h(t) W_-h(b) - Q^(qs k)) t,
        [h, g] b - k g b            = sum_t c_t (w_h(t) - w_h(b) - k) t,
        q^0 b - b                   = (W_0(b) - 1) b,
        q^h' q^h b - q^(h+h') b     = (W_h'(b) W_h(b) - W_(h+h')(b)) b,
        [h, h'] b                   = (w_h(b) w_h'(b) - w_h'(b) w_h(b)) b = 0,
    since q^-h b = W_-h(b) b and q^h t = W_h(t) t.  So when every read
    succeeds and each bracket vanishes, checked on ints (content pairs
    cross-multiplied, exponents added), the residual is zero and the
    instance returns the zero element without building it.  Each c_t is a
    nonzero coefficient of act(g, b), so a bracket is nonzero exactly where
    the residual is.  A failed read or bracket computes the residual in
    full as above, so no verdict rests on the grading alone, and a failure
    names the same instance, vector and residual.

    A Serre instance (|r - s| = 1) is checked in its nested q-commutator
    form
        g_r^2 g_s - [2]_q g_r g_s g_r + g_s g_r^2 = [g_r, [g_r, g_s]_q]_{q^-1},
    that is residual(b) = g_r u(b) - q^-1 u(g_r b) with the inner
    commutator u(x) = g_r g_s x - q g_s g_r x of serre_inner.  Each u(x) is
    summed and reduced once and kept in a memo that lives as long as this
    relation table, so for one check call; it then serves b and every b'
    whose g_r-image contains x.  The outer letter g_r on u(b), and the
    terms of u(g_r b) times g_r's coefficients, stay unsummed triples like
    any outer letter: summing g_r u(b) on its own would add one more sum
    and reduction per instance and vector, where the residual's one
    combine sums all of them together.  The triples of u(g_r b) pair each
    coefficient of u(g_r b) with -q^-1 times g_r's coefficient.
    """
    n, qs, mode = spec.n, spec.qscale, spec.mode
    weights = _sample_weights(n)
    minus = FieldElement.q_monomial(mode, -1)
    instances = []

    def add(label, parts, graded=None):
        def residual(b):
            if graded is not None and graded(b):
                return ModuleElement()
            return combine(parts(b), spec)
        instances.append((label, residual))

    def word(b, *gens, c=None):
        """c (default 1) times the product of gens on the basis vector b,
        rightmost first, as unsummed triples."""
        outer, inner = gens[0], gens[1:]
        if inner:
            elem = act(inner[-1], b, spec)
            for g in reversed(inner[:-1]):
                elem = act_element(g, elem, spec)
            src = elem.terms if c is None else {bv: v * c for bv, v in elem.terms.items()}
        else:
            src = {b: c}
        return [(tgt, coeff, cb)
                for bv, cb in src.items()
                for tgt, coeff in act(outer, bv, spec).terms.items()]

    def commutator(b, g1, g2):
        return word(b, g1, g2) + word(b, g2, g1, c=minus)

    def qh(h):
        """The weight generators q^h and q^-h, built once for the table."""
        return gen_qh(h), gen_qh(tuple(-t for t in h))

    def diagonal(gh, v):
        """(cn, cd, e) when the weight generator gh acts on v as
        (cn / cd) Q^e times v, (0, 1, 0) when it acts as 0, else None."""
        terms = act(gh, v, spec).terms
        if not terms:
            return 0, 1, 0
        c = terms.get(v)
        return c.as_q_monomial() if c is not None and len(terms) == 1 else None

    def graded_meet(b, gt, gb, g, k):
        """shifted(the weight of gt at t, the weight of gb at b, k) on
        every target t of g b."""
        wb = diagonal(gb, b)
        if wb is None:
            return False
        for t in act(g, b, spec).terms:
            wt = diagonal(gt, t)
            if wt is None or not shifted(wt, wb, k):
                return False
        return True

    h0, hmix = weights[0], weights[-1]
    if mode == QUANTUM:
        q0 = gen_qh((0,) * n)
        add("q^0 = 1", lambda b, q0=q0: word(b, q0) + [(b, minus, None)],
            lambda b, q0=q0: diagonal(q0, b) == (1, 1, 0))

        def graded_sum(b, gh, gm, gs):
            """W_h(b) W_h'(b) = W_(h+h')(b)."""
            wh, wm, ws = diagonal(gh, b), diagonal(gm, b), diagonal(gs, b)
            return (None not in (wh, wm, ws) and wh[2] + wm[2] == ws[2]
                    and wh[0] * wm[0] * ws[1] == ws[0] * wh[1] * wm[1])

        for h in (h0, weights[n - 1]):
            gens = gen_qh(h), gen_qh(hmix), gen_qh(tuple(a + c for a, c in zip(h, hmix)))
            add(f"q^h q^h' = q^(h+h'), h={h}, h'={hmix}",
                lambda b, gh=gens: word(b, gh[1], gh[0]) + word(b, gh[2], c=minus),
                lambda b, gh=gens: graded_sum(b, *gh))
        meet_label = "q^h {g} q^-h = q^<h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return word(b, h[0], g, h[1])

        on_b = 1  # the weight read on b is q^-h's

        def shifted(wt, wb, k):
            """W_h(t) W_-h(b) = Q^(qs k)."""
            return wt[2] + wb[2] == qs * k and wt[0] * wb[0] == wt[1] * wb[1]

        def weight_scalar(c):
            return FieldElement.q_monomial(QUANTUM, 1, c * qs)

        # 1/(q - q^-1): [e_r, f_r] = (q^alpha - q^-alpha)/(q - q^-1)
        inv = FieldElement({0: 1}, {qs: 1, -qs: -1}, QUANTUM)

        def cartan_part(b, alpha):
            return word(b, alpha[0], c=-inv) + word(b, alpha[1], c=inv)

        # -q^-1: the outer q-commutator's scalar
        outer_coeff = FieldElement.q_monomial(QUANTUM, -1, -qs)
    else:
        gens = gen_qh(h0), gen_qh(hmix)
        add(f"[h, h'] = 0, h={h0}, h'={hmix}", lambda b, gh=gens: commutator(b, *gh),
            lambda b, gh=gens: None not in (diagonal(gh[0], b), diagonal(gh[1], b)))
        meet_label = "[h, {g}] = <h,a_{r}> {g}, h={h}"

        def meet(b, h, g):
            return commutator(b, h[0], g)

        on_b = 0  # the weight read on b is h's

        def shifted(wt, wb, k):
            """w_h(t) - w_h(b) = k, both scalars."""
            (tn, td, te), (bn, bd, be) = wt, wb
            return not (te or be) and tn * bd - bn * td == k * td * bd

        def weight_scalar(c):
            return FieldElement.q_monomial(CLASSICAL, c)

        def cartan_part(b, alpha):
            return word(b, alpha[0], c=minus)

        outer_coeff = minus

    for h in weights:
        gh = qh(h)
        for r in range(1, n):
            for kind, gen, sgn in (("e", gen_e, 1), ("f", gen_f, -1)):
                g, k = gen(r), sgn * spec.pairing_alpha(h, r)
                add(meet_label.format(g=f"{kind}_{r}", r=r, h=h),
                    lambda b, gh=gh, g=g, c=-weight_scalar(k):
                        meet(b, gh, g) + word(b, g, c=c),
                    lambda b, gh=gh, g=g, k=k: graded_meet(b, gh[0], gh[on_b], g, k))

    for r in range(1, n):
        alpha = qh(tuple(1 if t == r else (-1 if t == r + 1 else 0) for t in range(1, n + 1)))
        for s in range(1, n):
            add(f"[e_{r}, f_{s}] commutator",
                lambda b, r=r, s=s, alpha=alpha: commutator(b, gen_e(r), gen_f(s))
                + (cartan_part(b, alpha) if r == s else []))

    memo = {}

    def serre(b, gr, gs):
        """g_r u(b) - q^-1 u(g_r b) as unsummed triples."""
        triples = [(tgt, coeff, c)
                   for bv, c in serre_inner(memo, spec, gr, gs, b).terms.items()
                   for tgt, coeff in act(gr, bv, spec).terms.items()]
        for x, cx in act(gr, b, spec).terms.items():
            c = cx * outer_coeff
            triples += [(tgt, cu, c)
                        for tgt, cu in serre_inner(memo, spec, gr, gs, x).terms.items()]
        return triples

    for kind, gen in (("e", gen_e), ("f", gen_f)):
        for r in range(1, n):
            for s in range(1, n):
                gr, gs = gen(r), gen(s)
                if abs(r - s) == 1:
                    add(f"Serre {kind}_{r}{kind}_{s}",
                        lambda b, gr=gr, gs=gs: serre(b, gr, gs))
                elif s - r > 1:
                    add(f"[{kind}_{r}, {kind}_{s}] = 0",
                        lambda b, gr=gr, gs=gs: commutator(b, gr, gs))
    return instances


def serre_inner(memo, spec, gr, gs, x):
    """The inner q-commutator [g_r, g_s]_q x = g_r g_s x - q g_s g_r x
    (q = 1 classically) of the Serre relation, as a summed module element:
    one act_element sum over both words, -q folded into the coefficients
    of the inner letter of g_s g_r x, so each part reaches combine as two
    factors: an outer letter's coefficient and an inner one.  It is
    computed once per (g_r, g_s, x) and kept in memo."""
    key = gr, gs, x
    u = memo.get(key)
    if u is None:
        minus_q = FieldElement.q_monomial(
            spec.mode, -1, spec.qscale if spec.mode == QUANTUM else 0)
        u = memo[key] = act_element(gr, act(gs, x, spec), spec,
                                    (gs, act(gr, x, spec).scale(minus_q)))
    return u


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
    computed fails the check with the relation or move and the basis vector
    where it arose (see _guarded).
    """
    t0 = time.perf_counter()
    window = spec.window(B)
    instances = _relation_instances(spec)
    summary = (
        f"{len(instances)} relation instances on {len(window)} basis vectors "
        f"({spec.mode}, n={spec.n}, "
        f"{'generic' if spec.is_generic() else 'singular ' + str(tuple(spec.singular))})"
    )

    def sweep(at):
        for bv in window:
            at("closure", bv)
            failure = _leaves_basis(spec, bv, lambda tgt: spec.in_basis(tgt.z))
            if failure:
                return failure
        for bv in window:
            for label, residual in instances:
                at(label, bv)
                res = residual(bv)
                if not res.is_zero():
                    return f"{label} on {bv!r}: residual {res!r}"
        return None

    return _finish("defining-relations", summary, B, _guarded(sweep), t0)


def check_compatibility(spec: ModuleSpec, B: int) -> CheckReport:
    """The pipeline is well defined: both shift representatives give the
    same element on normal tableaux, and opposite elements on derivative
    tableaux.  A coefficient that cannot be computed fails the check with
    the generator and the tableau where it arose.

    z and tau z make the same two comparisons, so each tau-orbit is visited
    once, at its first shift z in window order, and a tau-fixed shift is
    only expanded.  A side whose shift is canonical for its pipeline comes
    from act's cache, which the relation check fills; the other is
    expanded.  The z side is evaluated before the tau z side, so a failure
    names the step, z, g and error that a visit of every shift names."""
    t0 = time.perf_counter()
    if spec.is_generic():
        raise ValueError("compatibility checks need a singular spec")
    gens = [gen_e(r) for r in range(1, spec.n)] + [gen_f(r) for r in range(1, spec.n)]
    gens += [gen_qeps(k) for k in range(1, spec.n + 1)]
    shifts = [bv.z for bv in spec.window(B)]
    summary = f"{len(gens)} generators on {len(shifts)} shifts ({spec.mode})"

    steps = [(g, f"normal pipeline of {g!r}", f"derivative pipeline of {g!r}")
             for g in gens]
    zi, zj = spec.zi, spec.zj

    def normal(g, z):
        if z[zi] <= z[zj]:
            return act(g, BasisVector(NORMAL, z), spec)
        return expand_normal(spec, g, z)

    def derivative(g, z):
        if z[zi] > z[zj]:
            return act(g, BasisVector(DERIVATIVE, z), spec)
        return expand_derivative(spec, g, z)

    def sweep(at):
        visited = set()
        for z in shifts:
            tz = spec.tau(z)
            if tz in visited:
                continue
            visited.add(z)
            for g, normal_step, derivative_step in steps:
                at(normal_step, BasisVector(NORMAL, z))
                if z == tz:
                    normal(g, z)
                    continue
                if normal(g, z) != normal(g, tz):
                    return f"normal pipeline differs across tau at z={z}, g={g!r}"
                at(derivative_step, BasisVector(DERIVATIVE, z))
                if derivative(g, z) != -derivative(g, tz):
                    return f"derivative pipeline not antisymmetric at z={z}, g={g!r}"
        return None

    return _finish("compatibility", summary, B, _guarded(sweep), t0)


# ---------------------------------------------------------------------------
# functional identities on random smooth elements
# ---------------------------------------------------------------------------

# the number of monomials sample_smooth draws for a numerator
_SMOOTH_TERMS = 4


def sample_smooth(rng, system=QUANTUM, scale=1):
    """Random element smooth on X = Y: Laurent numerator over a product of
    bracket factors with nonzero constant offset.  In units of 1/scale (see
    bracket) the draw is the same, each Q exponent times scale."""
    if system == CLASSICAL and scale != 1:
        raise ValueError(f"the classical system takes scale 1, got {scale}")
    low = -2 if system == QUANTUM else 0
    terms = []
    for _ in range(_SMOOTH_TERMS):
        c = Rat(rng.randint(-4, 4))
        q = scale * rng.randint(-3, 3) if system == QUANTUM else 0
        terms.append((FieldElement.monomial(system, c, q, rng.randint(low, 2),
                                            rng.randint(low, 2)), None))
    num = fe_sum(terms, system)
    if num.is_zero():
        num = FieldElement.one(system)
    den = FieldElement.one(system)
    for _ in range(rng.randint(0, 2)):
        m = rng.choice([-2, -1, 1, 2, 3])
        den = den * bracket(LinearExpr(Rat(scale * m), 1, -1), system, scale)
    return num / den


def _sample_invertible(rng, system, c, scale=1):
    while True:
        f = sample_smooth(rng, system, scale=scale)
        if not evaluate_at_singular(f, c).is_zero():
            return f


def pole_families(rng, system, c, scale=1):
    """The pole-bearing families of check_appendix, as (name, [(f_m, h_m)],
    whether the ev identity is checked), at the point c in units of 1/scale.
    The identities concern the total sum f_m h_m / [x-y], that is sum f_m g_m
    with g_m = h_m/[x-y], whose terms have a first-order pole on X = Y."""
    # weak family: f = (a, a^tau), h = (h1, -h1^tau); the twisted sum is
    # symmetric, so its dv vanishes while the sum itself does not.
    a = sample_smooth(rng, system, scale=scale)
    h1 = _sample_invertible(rng, system, c, scale)
    a_tau = tau_swap(a)
    weak = [(a, h1), (a_tau, -tau_swap(h1))]
    # strong family: the twisted sum vanishes identically.
    bden = _sample_invertible(rng, system, c, scale)
    w = -(a_tau * h1) / tau_swap(bden)
    strong = [(a, h1), (bden, w)]
    return [("weak", weak, False), ("strong", strong, True)]


def check_appendix(system=QUANTUM, samples=100, seed=20240901) -> CheckReport:
    """Identities of the singular-point functional on seeded random smooth
    elements, plus constructed families with first-order poles on X = Y.
    Quantum exponents are in units of 1/2 (scale 2), so the half-integer
    points are integral: Q -> Q^(1/2) is an injective ring map, so each
    identity holds exactly when it does in units of 1, on the same draws.
    Each functional value is computed once per sample and shared by every
    identity that reads it.  Raises ValueError for an unknown system, or
    when samples < 1."""
    if system not in (QUANTUM, CLASSICAL):
        raise ValueError(f"unknown mode {system!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    t0 = time.perf_counter()
    rng = random.Random(seed)
    scale = 2 if system == QUANTUM else 1
    b = bracket(LinearExpr(Rat(0), 1, -1), system, scale)
    # multiply by 1/[x-y] rather than divide by [x-y]: a quotient divides the
    # classical binomial x - y out of the numerator, leaving no pole on X = Y
    inv_b = FieldElement.one(system) / b
    failure = None
    summary = f"functional identities on {samples} samples ({system})"
    for trial in range(samples):
        c = scale * Rat(rng.randint(-4, 4), rng.choice([1, 1, 2]))
        f = sample_smooth(rng, system, scale=scale)
        g = sample_smooth(rng, system, scale=scale)
        f_tau, gs = tau_swap(f), g + tau_swap(g)
        dv_f, ev_f = dv_operator(f, c, scale), evaluate_at_singular(f, c)
        dv_g, ev_g = dv_operator(g, c, scale), evaluate_at_singular(g, c)
        dv_bf = dv_operator(b * f, c, scale)
        checks = [
            ("dv(f^tau) = -dv(f)", dv_operator(f_tau, c, scale) == -dv_f),
            ("dv(sym) = 0", dv_operator(f + f_tau, c, scale).is_zero()),
            ("ev((f-f^tau)/[x-y]) = 2 dv(f)",
             evaluate_at_singular((f - f_tau) * inv_b, c) == dv_f.scale(2)),
            ("ev(f) = dv([x-y] f)", ev_f == dv_bf),
            ("product rule",
             dv_operator(f * g, c, scale) == fe_sum([(dv_f, ev_g), (ev_f, dv_g)], system)),
            ("dv([x-y]f) = dv([x-y]f^tau)", dv_bf == dv_operator(b * f_tau, c, scale)),
            ("dv(f) dv([x-y]g) = dv(fg) for symmetric g",
             dv_f * dv_operator(b * gs, c, scale) == dv_operator(f * gs, c, scale)),
        ]

        # both families open with the pair (a, h1): its dv values are shared
        pair_dv = {}
        for name, fam, test_ev in pole_families(rng, system, c, scale):
            dvs = []
            for fm, hm in fam:
                key = id(fm), id(hm)
                if key not in pair_dv:
                    pair_dv[key] = dv_operator(fm, c, scale), dv_operator(hm, c, scale)
                dvs.append(pair_dv[key])
            total = fe_sum(fam, system) * inv_b
            checks.append(
                (f"pole family ({name}) dv identity",
                 fe_sum(dvs, system).scale(2) == dv_operator(total, c, scale))
            )
            if test_ev:
                lhs_ii = fe_sum([(dv_fm, evaluate_at_singular(hm, c))
                                 for (dv_fm, _), (_, hm) in zip(dvs, fam)], system)
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

def _gamma_failure(spec, B, rows):
    """The first violation in block_report's rows, or None.

    Normal vectors are eigenvectors of every c_mk.  On a derivative vector
    of the singular row m, c_mk - gamma_mk vanishes for k in
    eigen_index_set and on every other row, and some (m, k) acts
    non-semisimply: that is the Jordan claim, while a single c_mk may still
    act semisimply at special shifts.  Every square (c - gamma)^2 vanishes.
    """
    for row in rows:
        for bv, moved, unsquared in zip(row.members, row.moved, row.unsquared):
            if bv.kind == NORMAL and moved:
                m, k = moved[0]
                return f"normal vector {bv!r} not an eigenvector of c_{m}{k}"
            if bv.kind == DERIVATIVE:
                for m, k in moved:
                    if m != spec.singular.row or k in eigen_index_set(spec, m):
                        return f"(c-gamma) c_{m}{k} does not vanish on {bv!r}"
                if not moved:
                    return f"every c_mk acts semisimply on {bv!r}"
            if unsquared:
                m, k = unsquared[0]
                return f"(c-gamma)^2 c_{m}{k} does not vanish on {bv!r}"
        if row.dimension > 2:
            return f"block of dimension {row.dimension}"
        if row.dimension == 2 and {bv.kind for bv in row.members} != {NORMAL, DERIVATIVE}:
            return "dimension-2 block without a tableau/derivative pair"
    if not spec.is_generic() and B >= 1 and all(row.dimension == 1 for row in rows):
        return "no dimension-2 block for tau-unfixed shifts"
    return None


def check_gamma(spec: ModuleSpec, B: int) -> CheckReport:
    """Eigenvalue equations on normal vectors, the size-two Jordan structure
    on derivative vectors, block dimensions and key separation, read from
    block_report's single sweep of the central generators.  A gamma value
    that cannot be computed fails the check with the sweep step and the
    basis vector where it arose."""
    t0 = time.perf_counter()
    npairs = sum(m + 1 for m in range(1, spec.n + 1))
    rows = []

    def sweep(at):
        rows.extend(block_report(spec, B, at))
        return _gamma_failure(spec, B, rows)

    failure = _guarded(sweep)
    nvec = sum(row.dimension for row in rows) if rows else len(spec.window(B))
    summary = f"{npairs} central generators on {nvec} vectors ({spec.mode})"
    return _finish("gamma-structure", summary, B, failure, t0)


def check_finite_dimensional(lam, mode=QUANTUM) -> CheckReport:
    """Basis count against the pattern count and the Weyl product, and
    closure of the generator action inside the finite basis."""
    t0 = time.perf_counter()
    lam = [as_int(v) for v in lam]
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
    off the support) and, separately, window-reachability evidence: the
    window's interior (shift entries at most B - 1 in size, or the whole
    window when none is) is strongly connected by nonzero e_r, f_r moves
    inside the window, which one search on the moves and one on the
    reversed moves from an interior vertex decide (M. Sharir, Comput.
    Math. Appl. 7, 1981).  A coefficient that cannot be computed fails the
    check with the generator and the basis vector where it arose, and
    leaves the evidence unknown."""
    t0 = time.perf_counter()
    M, _ = maximal_relation_set(spec.base)
    support = spec.relations.support
    entry = spec.base.entry
    hypothesis = implies(spec.relations, M) and not any(
        is_integral(entry(r, s) - entry(r - 1, t))
        for r in range(2, spec.n + 1)
        for s in range(1, r + 1)
        for t in range(1, r)
        if not ((r, s) in support and (r - 1, t) in support)
    )

    window = spec.window(B)
    index = {bv: t for t, bv in enumerate(window)}
    gens = [gen_e(r) for r in range(1, spec.n)] + [gen_f(r) for r in range(1, spec.n)]
    adj = [[] for _ in window]
    radj = [[] for _ in window]

    def sweep(at):
        for bv, t in index.items():
            for g in gens:
                at(f"adjacency of {g!r}", bv)
                for tgt, coeff in act(g, bv, spec):
                    u = index.get(tgt)
                    if u is not None and not coeff.is_zero():
                        adj[t].append(u)
                        radj[u].append(t)
        return None

    def reach(start, edges):
        seen = {start}
        stack = [start]
        while stack:
            for u in edges[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    failure = _guarded(sweep)
    evidence = "unknown"
    if failure is None:
        interior = [
            t for bv, t in index.items() if all(abs(v) <= B - 1 for v in bv.z)
        ] or list(range(len(window)))
        start = interior[0]
        forward, backward = reach(start, adj), reach(start, radj)
        connected = all(t in forward and t in backward for t in interior)
        evidence = "yes" if connected else "no"

    summary = (
        f"hypothesis={'holds' if hypothesis else 'fails'}, window connectivity "
        f"evidence={evidence} on {len(window)} vectors"
    )
    if failure is None and not (hypothesis and evidence == "yes"):
        failure = summary
    return _finish("irreducibility-evidence", summary, B, failure, t0)
