"""Module structure on tableau orbits: the gated generator action.

A ModuleSpec fixes the height n, an admissible relation set, a base
tableau and the number system.  Every generator, e_k, f_k, the weights and
the central c_mk of gtcenter, acts by one recipe.  Its coefficient on the
tableau at shift z is computed symbolically, with the singular entries
kept as X = q^x, Y = q^y.  It then crosses the one evaluation boundary,
ModuleSpec._evaluated, as a (dv, ev) pair:

* on a singular spec a normal input multiplies it by [x-y]_q first, and
  the singular-point functional splits it into dv and ev;
* a generic spec, the same construction with no singular pair and so no
  derivative half, takes the value at any point as dv and 0 as ev.

An e/f coefficient is a Coefficient of entry differences.  It crosses as
its factors: dv_operator and evaluate_at_singular read it in both systems
with no polynomial in X, Y built, [x-y]_q appended as one more factor for
a normal input.

The one placement step, place, puts each (target shift, piece) pair on the
basis: dv on the canonical normal vector of the target and ev on its
canonical derivative vector.  Weights are symmetric in x and y and keep
the shift, so a weight's value goes straight onto the input's own vector,
with no functional and no placement step.

Derivative tableaux are antisymmetric under the transposition tau of the
singular pair; vectors are stored in canonical form (normal: z_i <= z_j,
derivative: z_i > z_j, and derivative vectors with z_i = z_j are zero).
"""

from math import gcd as _gcd
from typing import NamedTuple

from ._rat import as_int
from .exactalg import (
    CLASSICAL,
    QUANTUM,
    Coefficient,
    FieldElement,
    LinearExpr,
    PoleAtEvaluation,
    _collect,
    bracket,
    dv_operator,
    evaluate_at_singular,
    fe_sum,
)
from .tableaux import (
    RelationSet,
    Tableau,
    detect_singular_pair,
    enumerate_window,
    is_admissible,
    normalized_singular_base,
    satisfies,
    shift_bounds,
    z_index,
)

NORMAL = "T"
DERIVATIVE = "DT"
_XY = LinearExpr(0, 1, -1)


class NonRealizable(RuntimeError):
    """A gated coefficient has an uncancellable pole at the singular point."""


class Fault(NamedTuple):
    """Deliberate defects for mutation self-tests of the verification suites.

    ``drop_gate`` keeps every tableau-formula term, whether or not its
    target satisfies the relations.  The ungated formulas still satisfy the
    defining relations, and inside the basis the gated and ungated terms
    agree, so the fault shows only as a move out of the basis: a check sees
    it only when its window reaches a boundary vector of the basis from
    which some generator has a nonzero term pointing outside.
    """

    sign_flip: bool = False
    drop_gate: bool = False
    gamma_prefactor: bool = False


class BasisVector(NamedTuple):
    kind: str
    z: tuple

    def __repr__(self):
        body = ",".join(str(v) for v in self.z)
        name = "T" if self.kind == NORMAL else "DT"
        return f"{name}[{body}]"


class Generator(NamedTuple):
    kind: str  # 'e', 'f', 'qeps' or 'qh'
    index: int = 0
    h: tuple = ()

    def __repr__(self):
        if self.kind == "qh":
            return f"qh({','.join(str(v) for v in self.h)})"
        return f"{self.kind}{self.index}"


def gen_e(k):
    return Generator("e", k)


def gen_f(k):
    return Generator("f", k)


def gen_qeps(k):
    return Generator("qeps", k)


def gen_qh(h):
    return Generator("qh", 0, tuple(as_int(v) for v in h))


class ModuleElement:
    """Finite combination of canonical basis vectors with univariate field
    coefficients (values of the evaluated module stage)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()} if terms else {}

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return ModuleElement._raw(_collect(other.terms.items(), self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ModuleElement._raw({k: -v for k, v in self.terms.items()})

    def scale(self, c: FieldElement):
        if c.is_zero():
            return ModuleElement._raw({})
        return ModuleElement._raw({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[k] == v for k, v in self.terms.items())

    def coefficient(self, bv):
        return self.terms.get(bv)

    def __iter__(self):
        return iter(sorted(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({v}) {k!r}" for k, v in sorted(self.terms.items()))

    @classmethod
    def _raw(cls, terms):
        e = object.__new__(cls)
        e.terms = terms
        return e

    @classmethod
    def basis(cls, bv, system):
        return cls._raw({bv: FieldElement.q_monomial(system, 1)})


def _zadd(z, idx, step):
    out = list(z)
    out[idx] += step
    return tuple(out)


class ModuleSpec:
    """Immutable description of one tableau module, with the caches that
    make exhaustive verification sweeps affordable.

    The tableau of the module at an integer shift z is the pair (spec, z):
    the entries of base moved by z below the top row.  singular is the
    singular pair of base, or None on a generic spec."""

    def __init__(self, tableau: Tableau, relations: RelationSet, mode=QUANTUM,
                 fault: Fault = None):
        if mode not in (QUANTUM, CLASSICAL):
            raise ValueError(f"unknown mode {mode!r}")
        if fault is not None and not isinstance(fault, Fault):
            raise TypeError(f"fault must be a Fault or None, got {fault!r}")
        if tableau.n != relations.n:
            raise ValueError("tableau and relation set have different heights")
        rep = is_admissible(relations)
        if not rep:
            raise ValueError(f"relation set is not admissible: {rep.violations}")
        if not satisfies(tableau, relations):
            raise ValueError("base tableau does not satisfy the relation set")
        sp = detect_singular_pair(tableau, relations)
        if sp is not None:
            tableau = normalized_singular_base(tableau, sp)
        self.n = tableau.n
        self.base = tableau
        self.relations = relations
        self.mode = mode
        self.singular = sp
        self.fault = fault or Fault()
        self.nfree = self.n * (self.n - 1) // 2
        # Q-exponents are kept integral by working in units of 1/D, where D
        # clears every base-entry denominator (the relabeling Q -> Q^(1/D));
        # classical entries are plain values, so no scaling there
        if mode == QUANTUM:
            d = 1
            for row in tableau.base:
                for v in row:
                    d = d * v.denominator // _gcd(d, int(v.denominator))
            self.qscale = d
            self._sbase = tuple(tuple(int(v * d) for v in row) for row in tableau.base)
        else:
            self.qscale = 1
            self._sbase = tableau.base
        if sp is not None:
            self.zi = z_index(sp.row, sp.i)
            self.zj = z_index(sp.row, sp.j)
            self.eval_scaled = self._sbase[sp.row - 1][sp.i - 1]
            self._xy = bracket(_XY, mode, self.qscale)
        else:
            self.zi = self.zj = None
            self.eval_scaled = None
        self._bounds = shift_bounds(relations, tableau)
        self._row_start = [r * (r - 1) // 2 for r in range(self.n + 1)]
        self._piece_cache = {}
        self._act_cache = {}

    # -- symbolic entries ----------------------------------------------------

    def is_generic(self):
        return self.singular is None

    def entry_linear(self, row, col, z) -> LinearExpr:
        """Entry of the working tableau at shift z, with quantum constants
        pre-scaled by qscale: the singular pair stays symbolic (x resp. y
        plus its shift), everything else is concrete."""
        scale = self.qscale
        if self.singular is not None and row == self.singular.row:
            if col == self.singular.i:
                return LinearExpr(z[self.zi] * scale, 1, 0)
            if col == self.singular.j:
                return LinearExpr(z[self.zj] * scale, 0, 1)
        v = self._sbase[row - 1][col - 1]
        if row < self.n:
            v = v + z[z_index(row, col)] * scale
        return LinearExpr(v, 0, 0)

    def tau(self, z):
        if self.singular is None:
            return z
        out = list(z)
        out[self.zi], out[self.zj] = out[self.zj], out[self.zi]
        return tuple(out)

    # -- basis bookkeeping ----------------------------------------------------

    def in_basis(self, z) -> bool:
        ext = z + (0,)
        return all(ext[l] - ext[r] >= need for l, r, need in self._bounds)

    def canonical_normal(self, z) -> BasisVector:
        if self.singular is not None and z[self.zi] > z[self.zj]:
            z = self.tau(z)
        return BasisVector(NORMAL, tuple(z))

    def canonical_derivative(self, z):
        """Canonical key and sign for a derivative tableau, or (None, 0)."""
        zi, zj = z[self.zi], z[self.zj]
        if zi == zj:
            return None, 0
        if zi > zj:
            return BasisVector(DERIVATIVE, tuple(z)), 1
        return BasisVector(DERIVATIVE, self.tau(z)), -1

    def basis_vector(self, kind, z) -> BasisVector:
        if kind not in (NORMAL, DERIVATIVE):
            raise ValueError(f"unknown basis vector kind {kind!r}")
        z = tuple(as_int(v) for v in z)
        if len(z) != self.nfree:
            raise ValueError(f"shift vector must have length {self.nfree}")
        if not self.in_basis(z):
            raise ValueError(f"shift {z} lies outside the orbit basis")
        if kind == NORMAL:
            return self.canonical_normal(z)
        if self.singular is None:
            raise ValueError("generic modules have no derivative vectors")
        bv, sign = self.canonical_derivative(z)
        if bv is None:
            raise ValueError("derivative vector with a tau-fixed shift is zero")
        return bv

    def window(self, B):
        """Canonical basis vectors whose shifts lie in the max-norm box."""
        out = []
        for z in enumerate_window(self.relations, self.base, B):
            if self.singular is None or z[self.zi] <= z[self.zj]:
                out.append(BasisVector(NORMAL, z))
            else:
                out.append(BasisVector(DERIVATIVE, z))
        return out

    # -- coefficients ----------------------------------------------------------

    def _row_slice(self, row, z):
        """The shifts of row 0 <= row <= n of z; rows 0 and n have none."""
        s = self._row_start[row]
        return z[s:s + row]

    def raw_coeff(self, kind, k, r, z) -> Coefficient:
        """Unevaluated tableau-formula coefficient for e_k (kind 'e') or f_k
        (kind 'f') moving column r, at shift z, as its entry differences:
        symbolic in x, y when the singular row is involved."""
        entry = self.entry_linear
        lkr = entry(k, r, z)
        other = k + 1 if kind == "e" else k - 1
        return Coefficient(
            -1 if kind == "e" and not self.fault.sign_flip else 1,
            tuple(lkr - entry(other, s, z) for s in range(1, other + 1)),
            tuple(lkr - entry(k, s, z) for s in range(1, k + 1) if s != r),
            self.mode,
        )

    def _evaluated(self, tag, f) -> FieldElement:
        """The one evaluation boundary of the module stage: a symbolic value
        f (a raw_coeff Coefficient or a gamma_mk element) moved past the
        singular point.

        tag 'N': (dv, ev) of [x-y]_q * f, the pieces of a normal input;
        tag 'D': (dv, ev) of f, the pieces of a derivative input;
        tag 'E': f evaluated at the singular point.

        A Coefficient crosses on its factors, at scale qscale, x - y
        appended as a factor under 'N'.  On a generic spec no entry is
        symbolic, so f evaluated at any point is its value: the pieces are
        (value, 0), and tag 'E' gives the value.
        """
        if self.singular is None:
            v = evaluate_at_singular(f, 0, self.qscale)
            return v if tag == "E" else (v, FieldElement.zero(self.mode))
        c = self.eval_scaled
        if tag == "E":
            return evaluate_at_singular(f, c, self.qscale)
        if tag == "N":
            if isinstance(f, Coefficient):
                f = f._replace(num=f.num + (_XY,))
            else:
                f = self._xy * f
        return dv_operator(f, c, self.qscale), evaluate_at_singular(f, c, self.qscale)

    def _pieces(self, tag, kind, k, r, z):
        """_evaluated(tag, raw_coeff(kind, k, r, z)), memoized by the shift
        differences z_kr - z_ks over row k and z_kr - z_(other,s) over row
        other = k +- 1 (z_kr itself when other is the unshifted top row n).
        Exact: over the fixed base these integers fix every entry difference
        raw_coeff reads, singular X, Y parts included, so translates share."""
        other = k + 1 if kind == "e" else k - 1
        row = self._row_slice(k, z)
        zkr = row[r - 1]
        far = zkr if other == self.n else tuple(zkr - v for v in self._row_slice(other, z))
        key = (tag, kind, k, r, tuple(zkr - v for v in row), far)
        hit = self._piece_cache.get(key)
        if hit is not None:
            return hit
        try:
            val = self._evaluated(tag, self.raw_coeff(kind, k, r, z))
        except PoleAtEvaluation as exc:
            raise NonRealizable(
                f"coefficient {kind}_{k},{r} at shift {z} is not realizable: {exc}"
            ) from exc
        self._piece_cache[key] = val
        return val

    # -- weights ---------------------------------------------------------------

    def weight_element(self, h, z) -> FieldElement:
        """q^(sum h_k a_k) in the quantum system, the scalar sum h_k a_k in
        the classical system, a_k = sum(row k) - sum(row k-1) + k: the
        Cartan element h acting on the tableau at shift z, univariate.  On
        a singular spec it is evaluated at the singular point, which the
        normalized base holds in both singular cells (weights have equal x
        and y coefficients, so they are tau-symmetric).  The exponent is
        its value over the base, a constant of h, plus qscale times the
        integer sum_k h_k (sum z_row k - sum z_row k-1), which is the memo
        key."""
        ks = [k for k, coeff in enumerate(h, start=1) if coeff]
        rs = self._row_slice
        shift = sum(h[k - 1] * (sum(rs(k, z)) - sum(rs(k - 1, z))) for k in ks)
        key = ("weight", h, shift)
        hit = self._piece_cache.get(key)
        if hit is not None:
            return hit
        sb, qs = self._sbase, self.qscale
        const = qs * shift + sum(
            h[k - 1] * (sum(sb[k - 1]) - (sum(sb[k - 2]) if k > 1 else 0) + k * qs)
            for k in ks)
        if self.mode == QUANTUM:
            val = FieldElement.q_monomial(QUANTUM, 1, const)
        else:
            val = FieldElement.q_monomial(CLASSICAL, const)
        self._piece_cache[key] = val
        return val

    def pairing_alpha(self, h, r) -> int:
        """<h, alpha_r> = h_r - h_{r+1} for the weight commutation relations."""
        hr = h[r - 1] if r - 1 < len(h) else 0
        hr1 = h[r] if r < len(h) else 0
        return hr - hr1


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

def place(spec: ModuleSpec, targets) -> ModuleElement:
    """The one placement step: (target shift, (dv, ev) piece) pairs as a
    module element.  dv goes on the canonical normal vector of the target
    and ev, with the sign of the canonical representative, on its
    canonical derivative vector; a generic spec's ev is always 0."""
    pairs = []
    for w, (dvp, evp) in targets:
        if dvp:
            pairs.append((spec.canonical_normal(w), dvp))
        if evp:
            bv, sign = spec.canonical_derivative(w)
            if bv is not None:
                pairs.append((bv, evp if sign > 0 else -evp))
    return ModuleElement._raw(_collect(pairs))


def _weight(g: Generator, n):
    """The weight of a weight generator: h for qh(h), eps_k of length n for
    qeps_k."""
    return g.h if g.kind == "qh" else tuple(int(t == g.index) for t in range(1, n + 1))


def _expand(spec: ModuleSpec, tag, g: Generator, z) -> ModuleElement:
    """g on the tableau at shift z, for the _evaluated tag of the input
    kind.  e_k and f_k move column r to each gated target with the pieces
    of its coefficient.  A weight W stays at z; it is symmetric in x and y,
    so dv([x-y] W) = ev(W) and dv(W) = 0: W goes onto the canonical normal
    vector of z for a normal input, and with the sign of the canonical
    representative onto its derivative vector for a derivative input."""
    k = g.index
    if g.kind in ("qeps", "qh"):
        val = spec.weight_element(_weight(g, spec.n), z)
        if tag == "N":
            bv, sign = spec.canonical_normal(z), 1
        else:
            bv, sign = spec.canonical_derivative(z)
        return ModuleElement._raw({bv: val if sign > 0 else -val} if val else {})
    step = 1 if g.kind == "e" else -1
    start = spec._row_start[k]
    targets = []
    for r in range(1, k + 1):
        w = _zadd(z, start + r - 1, step)
        if spec.fault.drop_gate or spec.in_basis(w):
            targets.append((w, spec._pieces(tag, g.kind, k, r, z)))
    return place(spec, targets)


def expand_normal(spec: ModuleSpec, g: Generator, z) -> ModuleElement:
    """Pipeline for a normal tableau from the given shift representative:
    expand g symbolically, multiply by [x-y]_q, split through the
    singular-point functional, then place the pieces.  On a generic spec
    the tableau is the basis vector itself and each piece is (value, 0)."""
    return _expand(spec, "N", g, z)


def expand_derivative(spec: ModuleSpec, g: Generator, z) -> ModuleElement:
    """Pipeline for a derivative tableau from the given representative
    (requires a singular spec and a tau-unfixed shift): push g T(v+z)
    through the functional."""
    if spec.is_generic():
        raise ValueError("generic modules have no derivative vectors")
    if z[spec.zi] == z[spec.zj]:
        raise ValueError("derivative expansion needs a tau-unfixed shift")
    return _expand(spec, "D", g, z)


_ACT_CACHE_LIMIT = 400000


def _check_generator(g: Generator, n):
    """Raise ValueError unless g is a generator of U_q(gl_n): e_k or f_k
    with 1 <= k < n, qeps_k with 1 <= k <= n, or qh(h) with no nonzero
    entry past n (a shorter h is read as zero-padded)."""
    if g.kind in ("e", "f"):
        if not 1 <= g.index <= n - 1:
            raise ValueError(f"generator index {g.index} out of range")
    elif g.kind == "qeps":
        if not 1 <= g.index <= n:
            raise ValueError(f"weight index {g.index} out of range")
    elif g.kind == "qh":
        if any(g.h[n:]):
            raise ValueError(f"weight {g.h} has a nonzero entry past n = {n}")
    else:
        raise ValueError(f"unknown generator kind {g.kind!r}")


def act(g: Generator, bv: BasisVector, spec: ModuleSpec) -> ModuleElement:
    """Action of one generator on one canonical basis vector, normal or
    derivative, by the one pipeline of its kind.  The cache holds checked
    generators only, so a hit needs no check.  qeps_k is checked, then
    keyed as qh(eps_k), the same operator, so both forms share one cache
    entry."""
    if g.kind == "qeps":
        _check_generator(g, spec.n)
        g = Generator("qh", 0, _weight(g, spec.n))
    key = (g, bv)
    cache = spec._act_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    _check_generator(g, spec.n)
    if bv.kind == NORMAL:
        out = expand_normal(spec, g, bv.z)
    else:
        out = expand_derivative(spec, g, bv.z)
    if len(cache) < _ACT_CACHE_LIMIT:
        cache[key] = out
    return out


def combine(triples, spec: ModuleSpec) -> ModuleElement:
    """Sum (basis vector, a, b) triples, each the product a * b on its
    vector (b = None stands for 1), with one fe_sum pass per basis vector:
    a relation residual, or the terms of an action, assembled without
    summing any part of it first or building a scalar product."""
    buckets = {}
    for bv, a, b in triples:
        buckets.setdefault(bv, []).append((a, b))
    out = {}
    for bv, parts in buckets.items():
        v = fe_sum(parts, spec.mode)
        if v:
            out[bv] = v
    return ModuleElement._raw(out)


def act_element(g: Generator, elem: ModuleElement, spec: ModuleSpec, *more) -> ModuleElement:
    """g on a module element: every term of g on each basis vector of elem,
    paired with that vector's coefficient and summed by combine.  Each
    further (generator, element) pair in more adds its terms to the same
    sum, so a sum of words is reduced once."""
    return combine(
        ((tgt, coeff, c)
         for gen, e in ((g, elem),) + more
         for bv, c in e.terms.items()
         for tgt, coeff in act(gen, bv, spec).terms.items()),
        spec,
    )
