"""Action of the Gelfand-Tsetlin subalgebra.

The central generator c_mk of the level-m subalgebra acts on a generic
tableau as multiplication by the shuffle sum

    gamma_mk(L) = (k)!(m-k)!_{q^-2} q^(k(k+1)+m(m-3)/2)
                  sum_tau q^(l_{m,tau(1)}+...+l_{m,tau(k)}
                            - l_{m,tau(k+1)}-...-l_{m,tau(m)})

over (k, m-k)-shuffles, a symmetric function of the row-m entries.  c_mk
acts by the generators' recipe (see action): gamma_mk at the tableau,
with the singular pair symbolic, crosses ModuleSpec._evaluated and the
pieces go through action.place.  On derivative vectors it picks up a
nilpotent part whenever gamma is not symmetric in x and y, producing
Jordan cells of size two.

The classical generators are normalized as the elementary symmetric
polynomials e_k of the row entries (the coefficients of a Capelli-style
characteristic polynomial); only the grouping and Jordan structure of the
resulting character data is used, never the absolute normalization.
"""

from itertools import combinations
from typing import NamedTuple

from .exactalg import (
    QUANTUM,
    FieldElement,
    LinearExpr,
    fe_sum,
    linear_element,
    q_pochhammer_factorial,
    q_power,
)
from .action import (
    NORMAL,
    BasisVector,
    ModuleElement,
    ModuleSpec,
    combine,
    place,
)


def _gamma_symbolic(spec: ModuleSpec, m: int, k: int, z, faulted=False) -> FieldElement:
    """gamma_mk at base+z with the singular entries kept symbolic."""
    if not 0 <= k <= m <= spec.n:
        raise ValueError(f"gamma indices (m,k)=({m},{k}) out of range")
    mode = spec.mode
    entries = [spec.entry_linear(m, c, z) for c in range(1, m + 1)]
    if mode == QUANTUM:
        parts = []
        idx = range(m)
        for plus in combinations(idx, k):
            plus_set = set(plus)
            e = LinearExpr(0, 0, 0)
            for t in idx:
                e = e + entries[t] if t in plus_set else e - entries[t]
            parts.append((q_power(e, mode), None))
        pre = q_pochhammer_factorial(k, mode, spec.qscale) * q_pochhammer_factorial(
            m - k, mode, spec.qscale
        )
        shift = (k * (k + 1) + (m * (m - 3)) // 2) * spec.qscale
        out = pre * FieldElement.monomial(mode, 1, expq=shift) * fe_sum(parts, mode)
    else:
        parts = []
        for subset in combinations(range(m), k):
            prod = FieldElement.one(mode)
            for t in subset:
                prod = prod * linear_element(entries[t], mode)
            parts.append((prod, None))
        out = fe_sum(parts, mode)
    if faulted:
        if mode == QUANTUM:
            out = out * FieldElement.monomial(mode, 1, expq=spec.qscale)
        else:
            out = out.scale(2)
    return out


def gamma(spec: ModuleSpec, m: int, k: int, z=None) -> FieldElement:
    """The multiplication scalar of c_mk, symbolic in X, Y when row m
    carries the singular pair."""
    if z is None:
        z = (0,) * spec.nfree
    return _gamma_symbolic(spec, m, k, z)


def _gamma_piece(spec: ModuleSpec, tag, m: int, k: int, z, faulted):
    """spec._evaluated(tag, gamma_mk at shift z), memoized by the row-m
    shifts."""
    key = ("gamma", tag, m, k, spec._row_slice(m, z), faulted)
    hit = spec._piece_cache.get(key)
    if hit is None:
        hit = spec._evaluated(tag, _gamma_symbolic(spec, m, k, z, faulted))
        spec._piece_cache[key] = hit
    return hit


def gamma_evaluated(spec: ModuleSpec, m: int, k: int, z) -> FieldElement:
    """gamma_mk at shift z as a univariate value, evaluated at the
    singular point."""
    return _gamma_piece(spec, "E", m, k, z, False)


def act_central(m: int, k: int, bv: BasisVector, spec: ModuleSpec) -> ModuleElement:
    """c_mk on a canonical basis vector: multiplication by gamma_mk, through
    the same evaluation boundary and placement step as the generators."""
    tag = "N" if bv.kind == NORMAL else "D"
    piece = _gamma_piece(spec, tag, m, k, bv.z, spec.fault.gamma_prefactor)
    return place(spec, [(bv.z, piece)])


def act_central_element(m: int, k: int, elem: ModuleElement, spec: ModuleSpec) -> ModuleElement:
    """c_mk on a module element: each term of c_mk on a basis vector of
    elem, paired with that vector's coefficient and summed by combine."""
    return combine(((tgt, coeff, c)
                    for bv, c in elem.terms.items()
                    for tgt, coeff in act_central(m, k, bv, spec).terms.items()), spec)


def eigen_index_set(spec: ModuleSpec, m: int):
    """Indices k for which gamma_mk stays symmetric in x, y for every shift,
    so derivative vectors on the singular row remain honest eigenvectors.

    Quantum shuffles: the all-plus and all-minus sums, k in {0, m}.
    Classical elementary symmetric polynomials: e_0 and the linear e_1.
    """
    if spec.mode == QUANTUM:
        return {0, m}
    return {0, 1}


def character_key(bv: BasisVector, spec: ModuleSpec):
    """The tuple of evaluated gamma values over all (m, k), k >= 1; equal
    for the normal/derivative pair attached to one tau-orbit of shifts.
    Keys compare by the values' exact == and hash, so a value left
    unreduced keys like its reduced form."""
    return tuple(
        gamma_evaluated(spec, m, k, bv.z)
        for m in range(1, spec.n + 1)
        for k in range(1, m + 1)
    )


class BlockRow(NamedTuple):
    key: tuple  # the members' character_key: gamma values, FieldElements
    members: tuple
    dimension: int
    jordan: tuple  # ((m, k, size) for indices with a size-2 cell)
    moved: tuple  # per member, the (m, k) with (c_mk - gamma_mk) bv != 0
    unsquared: tuple  # per member, the (m, k) with (c_mk - gamma_mk)^2 bv != 0


def _sweep(bv: BasisVector, spec: ModuleSpec):
    """The (m, k), k = 0..m, whose c_mk - gamma_mk moves bv, and those among
    them whose square does not annihilate it.  c_mk bv == gamma_mk bv
    exactly when their difference is zero, since neither stores a zero
    coefficient, so the difference is built only when bv moves."""
    moved = []
    unsquared = []
    for m in range(1, spec.n + 1):
        for k in range(0, m + 1):
            gval = gamma_evaluated(spec, m, k, bv.z)
            image, eigen = act_central(m, k, bv, spec), ModuleElement({bv: gval})
            if image != eigen:
                res = image - eigen
                moved.append((m, k))
                res2 = act_central_element(m, k, res, spec) - res.scale(gval)
                if not res2.is_zero():
                    unsquared.append((m, k))
    return tuple(moved), tuple(unsquared)


def block_report(spec: ModuleSpec, B: int, at=None):
    """Group the window basis by character key, with the exact equality of
    the gamma values, and apply every c_mk - gamma_mk (k = 0..m), and its
    square where it does not vanish, to every member: the one sweep of the
    central generators over the window.  An index has a size-2 cell on a
    block when it moves some member and its square annihilates every
    member.  at, when given, is called as at(step, bv) as each step of the
    sweep starts on a basis vector."""
    blocks = {}
    for bv in spec.window(B):
        if at:
            at("character key", bv)
        blocks.setdefault(character_key(bv, spec), []).append(bv)
    out = []
    for key, members in blocks.items():
        sweeps = []
        for bv in members:
            if at:
                at("central sweep", bv)
            sweeps.append(_sweep(bv, spec))
        moved, unsquared = zip(*sweeps)
        cells = set().union(*moved) - set().union(*unsquared)
        jordan = tuple((m, k, 2) for m, k in sorted(cells))
        out.append(BlockRow(key, tuple(members), len(members), jordan, moved, unsquared))
    out.sort(key=lambda row: tuple(sorted(b.z for b in row.members)))
    return out
