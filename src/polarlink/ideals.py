"""Groebner bases, Mora standard bases, and derived ideal operations.

Global orders get reduced Groebner bases via Buchberger's algorithm with
the product and chain criteria; local orders get standard bases via Mora's
tangent-cone algorithm (weak normal form with ecart-based selection).
On top of those sit normal form, quotient, intersection (tag variable plus
elimination), saturation, Krull dimension of the leading ideal, and the
local colength that realizes intersection numbers at the origin.

Saturation I : J^infinity is one Rabinowitsch elimination with one tag
per generator of J outside I, which is exact, so it needs no certificate
and no fallback.

Everything is exact, and every call computes its basis afresh: the module
keeps no state between calls.  Reductions run fraction-free on integer
coefficients: a polynomial being reduced is a dict {monomial: int} plus a
heap of (-key, monomial) over its terms (stale entries are skipped when
popped), and a remainder is the Fraction remainder times a tracked
positive integer scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import add

from .orders import (
    GLOBAL,
    LOCAL,
    check_degree,
    elimination,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .poly import INFINITE, Polynomial


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal; zero generators are never stored."""

    gens: tuple
    nvars: int

    def __init__(self, gens, nvars=None):
        gens = tuple(g for g in gens if not g.is_zero())
        if nvars is None:
            if not gens:
                raise ValueError("cannot infer variable count of the zero ideal")
            nvars = gens[0].nvars
        if any(g.nvars != nvars for g in gens):
            raise ValueError("generators live in different rings")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "nvars", nvars)

    def is_zero(self):
        return not self.gens

    def to_str(self, varnames):
        return "; ".join(g.to_str(varnames) for g in self.gens) if self.gens else "0"


@dataclass(frozen=True)
class StandardBasis:
    """A computed basis tagged by its monomial order.

    For global orders the basis is the reduced Groebner basis (unique for
    the ideal and order); for local orders it is a minimal Mora standard
    basis of the localization at the origin.
    """

    ideal: Ideal
    order: object
    basis: tuple
    reduced: bool

    def leading_monomials(self):
        return tuple(g.leading_monomial(self.order) for g in self.basis)

    def to_str(self, varnames):
        return "; ".join(g.to_str(varnames) for g in self.basis) if self.basis else "0"


# --- division ---------------------------------------------------------


def _working(terms, order):
    """A term dict as (h, heap, scale), with integer coefficients."""
    scale = lcm(*(c.denominator for c in terms.values()))
    h = {m: c.numerator * (scale // c.denominator) for m, c in terms.items()}
    heap = [(-order.key(m), m) for m in h]
    heapify(heap)
    return h, heap, scale


def _reducer(terms, order):
    """A nonzero term dict, up to a scalar, as (lm, -key(lm), lc, tail,
    spread): tail lists (-key, monomial, coeff) for the other terms, and
    spread is the largest term degree minus deg(lm), the ecart under a
    local order."""
    h, heap, _ = _working(terms, order)
    nk, lm = heap[0]
    tail = [(k, m, h[m]) for k, m in heap[1:]]
    return lm, nk, h[lm], tail, max(map(mono_deg, h)) - mono_deg(lm)


def _reduce_step(h, heap, hm, nk, reducer, rem):
    """Cancel the term hm (nk = -key(hm)) as h <- a*h - b*z^(hm-lm)*g with
    a = lc/gcd(hc, lc) > 0, scaling the remainder rem by a too.  Returns the
    factor by which h and rem grew: a, or a/c after dividing out their
    content c, which keeps the integers from swelling over many steps."""
    lm, nlk, lc, tail, spread = reducer
    check_degree(mono_deg(hm) + spread)  # bounds every new term's degree
    hc = h.pop(hm)
    d = gcd(hc, lc) if lc > 0 else -gcd(hc, lc)
    a, b = lc // d, hc // d
    if a != 1:
        for part in (h, rem):
            for m in part:
                part[m] *= a
    shift = mono_div(hm, lm)
    off = nk - nlk
    for ngk, gm, gc in tail:
        m = tuple(map(add, gm, shift))
        c = h.get(m)
        if c is None:
            h[m] = -b * gc
            heappush(heap, (ngk + off, m))
        else:
            c -= b * gc
            if c:
                h[m] = c
            else:
                del h[m]
    c = gcd(*h.values(), *rem.values()) if a != 1 else 1
    if c <= 1:
        return a
    for part in (h, rem):
        for m in part:
            part[m] //= c
    return Fraction(a, c)


def _normal_form(h, heap, scale, reducers, order):
    """Division remainder and its scale: the full remainder under a global
    order, Mora's weak normal form under a local one.

    Under a local order the reducer of least ecart is used, and one whose
    ecart exceeds the current ecart pushes a snapshot of the intermediate
    result into the working set; that is what guarantees termination.
    """
    local = not order.is_global
    T = list(reducers)
    rem = {}
    while heap:
        nk, hm = heappop(heap)
        if hm not in h:
            continue
        best = None
        for r in T:
            if mono_divides(r[0], hm) and (best is None or r[4] < best[4]):
                best = r
                if not local:
                    break
        if best is None:
            if local:
                return h, scale
            rem[hm] = h.pop(hm)
            continue
        if local:
            h_ecart = max(map(mono_deg, h)) - mono_deg(hm)
            if best[4] > h_ecart:
                tail = {m: k for k, m in heap if m in h and m != hm}
                T.append((hm, nk, h[hm], [(k, m, h[m]) for m, k in tail.items()], h_ecart))
        scale *= _reduce_step(h, heap, hm, nk, best, rem)
    return rem, scale


def _spoly(ri, rj, big, order):
    """The S-polynomial of two reducers with lcm big, as (h, heap, scale)
    up to a scalar: the monomial big reduced by each, subtracted."""
    nk, c = -order.key(big), lcm(ri[2], rj[2])
    h, heap = {big: c}, []
    _reduce_step(h, heap, big, nk, ri, {})
    h[big] = -c
    _reduce_step(h, heap, big, nk, rj, {})
    return h, heap, 1


def _is_unit_element(p, order):
    # Under a local order any nonzero constant term makes p a local unit.
    if order.is_global:
        return not p.is_zero() and p.is_constant()
    return p.constant_term() != 0


# --- basis computation ------------------------------------------------


def _standard_basis_raw(gens, order, nvars):
    """Buchberger / Mora pair loop; returns an unreduced basis list of
    elements primitive under order.  Pairs are taken by (deg lcm, i, j);
    pending holds those not yet taken."""
    G = list(dict.fromkeys(g.primitive(order) for g in gens if not g.is_zero()))
    if not G:
        return []
    one = [Polynomial.constant(nvars, 1)]
    if any(_is_unit_element(g, order) for g in G):
        return one

    reducers, pairs, pending = [], [], set()

    def add_element(g):
        t = len(reducers)
        reducers.append(_reducer(g.terms, order))
        for k in range(t):
            heappush(pairs, (mono_deg(mono_lcm(reducers[k][0], reducers[t][0])), k, t))
            pending.add((k, t))

    for g in G:
        add_element(g)
    while pairs:
        _, i, j = heappop(pairs)
        pending.discard((i, j))
        lmi, lmj = reducers[i][0], reducers[j][0]
        big = mono_lcm(lmi, lmj)
        if order.is_global and big == mono_mul(lmi, lmj):
            continue  # product criterion: coprime leading monomials
        if any(
            k not in (i, j)
            and mono_divides(reducers[k][0], big)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue  # chain criterion
        h = _normal_form(*_spoly(reducers[i], reducers[j], big, order), reducers, order)[0]
        if not h:
            continue
        hp = Polynomial(nvars, h).primitive(order)
        if _is_unit_element(hp, order):
            return one
        G.append(hp)
        add_element(hp)
    return G


def _minimalize(G, order):
    """Drop basis elements whose leading monomial another one divides; the
    rest sorted by leading monomial."""
    kept = {}
    for g in sorted(G, key=lambda g: order.key(g.leading_monomial(order))):
        m = g.leading_monomial(order)
        if not any(mono_divides(x, m) for x in kept):
            kept[m] = g
    return list(kept.values())


def _reduce_global(G, order, nvars):
    """Minimal basis of the primitive elements G, tails fully reduced,
    primitive scaling, sorted by leading monomial."""
    kept = _minimalize(G, order)
    reducers = [_reducer(g.terms, order) for g in kept]
    out = []
    for i, g in enumerate(kept):
        others = reducers[:i] + reducers[i + 1 :]
        if others:
            rem = _normal_form(*_working(g.terms, order), others, order)[0]
            g = Polynomial(nvars, rem).primitive(order)
            reducers[i] = _reducer(g.terms, order)
        out.append(g)
    return tuple(out)


def groebner_basis(I, order=GLOBAL):
    """Reduced Groebner basis of I under a global order."""
    if not order.is_global:
        raise ValueError("groebner_basis requires a global order")
    raw = _standard_basis_raw(I.gens, order, I.nvars)
    return StandardBasis(I, order, _reduce_global(raw, order, I.nvars), True)


def mora_standard_basis(I, order=LOCAL):
    """Minimal Mora standard basis of I in the local ring at the origin."""
    if order.is_global:
        raise ValueError("mora_standard_basis requires a local order")
    raw = _standard_basis_raw(I.gens, order, I.nvars)
    return StandardBasis(I, order, tuple(_minimalize(raw, order)), False)


def normal_form(p, sb):
    """Division remainder of p by sb under sb's order.

    Zero iff p lies in the ideal; for local orders this is the Mora weak
    normal form and membership is membership in the localization.
    """
    if not sb.basis:
        return p
    reducers = [_reducer(g.terms, sb.order) for g in sb.basis]
    rem, scale = _normal_form(*_working(p.terms, sb.order), reducers, sb.order)
    return Polynomial(p.nvars, {m: Fraction(c, scale) for m, c in rem.items()})


def is_member(p, I):
    return normal_form(p, groebner_basis(I)).is_zero()


# --- quotient, intersection, saturation --------------------------------


def exact_divide(p, g):
    """Quotient p/g when g divides p exactly; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm = g.leading_monomial(GLOBAL)
    q = {}
    h = dict(p.terms)
    while h:
        hm = GLOBAL.max(h)
        if not mono_divides(lm, hm):
            raise ArithmeticError("polynomial division is not exact")
        shift = mono_div(hm, lm)
        q[shift] = factor = h[hm] / g.terms[lm]
        for gm, gc in g.terms.items():
            m = mono_mul(gm, shift)
            c = h.get(m, 0) - factor * gc
            if c:
                h[m] = c
            else:
                del h[m]
    return Polynomial(p.nvars, q)


def intersect(I, J):
    """I intersect J via the tag construction t*I + (1-t)*J, eliminating t."""
    if I.nvars != J.nvars:
        raise ValueError("ideals live in different rings")
    n = I.nvars
    if I.is_zero() or J.is_zero():
        return Ideal((), n)
    t = Polynomial.variable(n + 1, 0)
    one_minus_t = Polynomial.constant(n + 1, 1) - t
    tagged = [t * f.prepend_variable() for f in I.gens]
    tagged += [one_minus_t * g.prepend_variable() for g in J.gens]
    return _eliminate_tags(tagged, 1, n)


def _eliminate_tags(gens, r, n):
    """The ideal of gens (in r tag variables followed by n more) intersected
    with the ring without the tags: the tag-free part of an elimination
    basis."""
    order = elimination(r)
    basis = _reduce_global(_standard_basis_raw(gens, order, n + r), order, n + r)
    kept = [
        Polynomial(n, {m[r:]: c for m, c in g.terms.items()})
        for g in basis
        if not any(any(m[:r]) for m in g.terms)
    ]
    return Ideal(kept, n)


def ideal_quotient(I, J):
    """I : J, via single-generator quotients (I ∩ (g))/g intersected."""
    if J.is_zero():
        raise ValueError("quotient by the zero ideal")
    n = I.nvars
    if I.is_zero():
        return I
    gb = groebner_basis(I)
    parts = []
    for g in J.gens:
        if normal_form(g, gb).is_zero():
            continue  # g in I, so I : (g) is the whole ring
        meet = intersect(I, Ideal((g,), n))
        parts.append(Ideal(tuple(exact_divide(h, g) for h in meet.gens), n))
    if not parts:
        return Ideal((Polynomial.constant(n, 1),), n)
    return reduce(intersect, parts)


def saturate(I, J):
    """I : J^infinity and its saturation exponent.

    The exponent is the least m with I : J^m = I : J^infinity, that is the
    least m with J^m * (I : J^infinity) contained in I; it is 0 exactly
    when I is already saturated.  The returned ideal is generated by its
    reduced Groebner basis: the tag-free part of the elimination's reduced
    basis, which already is that basis (the elimination order restricted
    to tag-free monomials is degrevlex, with the same primitive scaling and
    sort).

    Method (Greuel-Pfister, section 1.8): let h_1..h_r be the generators of
    J outside I.  The others lie in I, so J^m + I = (h)^m + I for every m
    and I : J^infinity = I : (h)^infinity = S, the ideal
    I + (1 - t_1*h_1 - ... - t_r*h_r) with the tags t_i eliminated.  S is
    exact: if (h)^m * p lies in I, then p = p * (sum t_i*h_i)^m lies in S;
    if p lies in S, setting t_i = 1/h_i and the other tags to 0 shows that
    p is zero in Q[z]/I localized at h_i, for each i.  When r = 0, J lies in
    I and S is the unit ideal.  The exponent is then the least m with
    (h)^m * S inside I: the remainders modulo I of generators of
    (h)^m * S are multiplied by each h_i until none is left, which ends
    because S is the saturation.  There is no certificate and no fallback.
    """
    if J.is_zero():
        raise ValueError("saturation by the zero ideal")
    n = I.nvars
    gb = groebner_basis(I)
    reducers = [_reducer(g.terms, GLOBAL) for g in gb.basis]

    def remainder(p):
        return _normal_form(*_working(p.terms, GLOBAL), reducers, GLOBAL)[0]

    def remainders(polys):
        return [Polynomial(n, rem) for rem in map(remainder, polys) if rem]

    hs = [h for h in J.gens if remainder(h)]
    r = len(hs)
    pad = (0,) * r
    tag = {pad + (0,) * n: 1}
    for i, h in enumerate(hs):
        t_i = pad[:i] + (1,) + pad[i + 1 :]
        tag.update({t_i + m: -c for m, c in h.terms.items()})
    lifted = [Polynomial(n + r, {pad + m: c for m, c in f.terms.items()}) for f in I.gens]
    S = _eliminate_tags(lifted + [Polynomial(n + r, tag)], r, n)
    pending, exponent = remainders(S.gens), 0
    while pending:
        pending = remainders([h * p for h in hs for p in pending])
        exponent += 1
    return S, exponent


# --- dimension and colength ---------------------------------------------


def dimension(sb):
    """Krull dimension of the leading-term ideal via maximal independent
    variable sets; -1 for the unit ideal.  Under a local order this is the
    local dimension at the origin (components of a monomial variety are
    coordinate subspaces through 0)."""
    nv = sb.ideal.nvars
    if not sb.basis:
        return nv
    lms = {g.leading_monomial(sb.order) for g in sb.basis}
    if any(mono_deg(m) == 0 for m in lms):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    for size in range(nv, -1, -1):
        for S in combinations(range(nv), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    raise AssertionError("unreachable: empty set is always independent")


def standard_monomials(sb):
    """Monomials outside the leading-term ideal; requires dimension <= 0."""
    lms = [g.leading_monomial(sb.order) for g in sb.basis]
    nv = sb.ideal.nvars
    origin = (0,) * nv
    if any(mono_deg(m) == 0 for m in lms):
        return []
    out = []
    queue = [origin]
    seen = {origin}
    while queue:
        m = queue.pop()
        if any(mono_divides(lm, m) for lm in lms):
            continue
        out.append(m)
        for i in range(nv):
            nxt = tuple(e + 1 if j == i else e for j, e in enumerate(m))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def local_colength(I):
    """Vector-space dimension of the local ring at the origin modulo I;
    INFINITE when the quotient has positive local dimension."""
    return INFINITE if I.is_zero() else colength(mora_standard_basis(I))


def colength(sb):
    """local_colength of sb's ideal, read from its Mora standard basis sb."""
    d = dimension(sb)
    if d == -1:
        return 0
    if d > 0:
        return INFINITE
    return len(standard_monomials(sb))
