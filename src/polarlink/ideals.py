"""Groebner bases, Mora standard bases, and derived ideal operations.

Global orders get reduced Groebner bases via Buchberger's algorithm with
the product and chain criteria; local orders get standard bases via Mora's
tangent-cone algorithm (weak normal form with ecart-based selection).
On top of those sit normal form, quotient, intersection (tag variable plus
elimination), saturation, Krull dimension of the leading ideal, and the
local colength that realizes intersection numbers at the origin.

Saturation is one Rabinowitsch elimination by a fixed combination of the
generators, certified by exact membership tests; the quotient loop is kept
as the fallback when certification fails.

Everything is exact; bases are cached per (ideal, order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .orders import (
    GLOBAL,
    LOCAL,
    elimination,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .poly import INFINITE, Polynomial

_F0 = Fraction(0)


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


def _reducer_entries(basis, order):
    return [
        (g.leading_monomial(order), g.leading_coefficient(order), g.terms)
        for g in basis
    ]


def _cancel_lead(h, hm, hc, lm, lc, gterms):
    """In place: h -= (hc/lc) * z^(hm-lm) * g; the hm term cancels."""
    del h[hm]
    shift = mono_div(hm, lm)
    factor = hc / lc
    for gm, gc in gterms.items():
        if gm == lm:
            continue
        m = mono_mul(gm, shift)
        c = h.get(m, _F0) - factor * gc
        if c:
            h[m] = c
        elif m in h:
            del h[m]


def _normal_form_global(pterms, reducers, order):
    """Full division remainder under a global order, as a term dict."""
    h = dict(pterms)
    remainder = {}
    keyf = order.key
    while h:
        hm = max(h, key=keyf)
        hc = h[hm]
        for lm, lc, gterms in reducers:
            if mono_divides(lm, hm):
                _cancel_lead(h, hm, hc, lm, lc, gterms)
                break
        else:
            remainder[hm] = hc
            del h[hm]
    return remainder


def _ecart(terms, lead):
    return max(mono_deg(m) for m in terms) - mono_deg(lead)


def _mora_normal_form(pterms, reducers, order):
    """Mora weak normal form under a local order, as a term dict.

    Reducers whose ecart exceeds the current ecart push a snapshot of the
    intermediate result into the working set; that is what guarantees
    termination on polynomial input.
    """
    T = [(lm, lc, gterms, _ecart(gterms, lm)) for lm, lc, gterms in reducers]
    h = dict(pterms)
    keyf = order.key
    while h:
        hm = max(h, key=keyf)
        best = None
        for entry in T:
            if mono_divides(entry[0], hm) and (best is None or entry[3] < best[3]):
                best = entry
        if best is None:
            break
        h_ecart = _ecart(h, hm)
        if best[3] > h_ecart:
            T.append((hm, h[hm], dict(h), h_ecart))
        _cancel_lead(h, hm, h[hm], best[0], best[1], best[2])
    return h


def _spoly(f, g, order):
    lmf = f.leading_monomial(order)
    lmg = g.leading_monomial(order)
    big = mono_lcm(lmf, lmg)
    a = f.mul_term(mono_div(big, lmf), 1 / f.terms[lmf])
    b = g.mul_term(mono_div(big, lmg), 1 / g.terms[lmg])
    return a - b


def _is_unit_element(p, order):
    # Under a local order any nonzero constant term makes p a local unit.
    if order.is_global:
        return not p.is_zero() and p.is_constant()
    return p.constant_term() != 0


# --- basis computation ------------------------------------------------


def _standard_basis_raw(gens, order, nvars):
    """Buchberger / Mora pair loop; returns an unreduced basis list."""
    G = []
    seen = set()
    for g in gens:
        if g.is_zero():
            continue
        p = g.primitive(order)
        if p not in seen:
            seen.add(p)
            G.append(p)
    if not G:
        return []
    one = [Polynomial.constant(nvars, 1)]
    if any(_is_unit_element(g, order) for g in G):
        return one

    nf = _normal_form_global if order.is_global else _mora_normal_form
    lm = [g.leading_monomial(order) for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(ij):
        i, j = ij
        return (mono_deg(mono_lcm(lm[i], lm[j])), i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        big = mono_lcm(lm[i], lm[j])
        if order.is_global and big == mono_mul(lm[i], lm[j]):
            continue  # product criterion: coprime leading monomials
        skip = False
        for k in range(len(G)):
            if k in (i, j) or not mono_divides(lm[k], big):
                continue
            if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                skip = True  # chain criterion
                break
        if skip:
            continue
        s = _spoly(G[i], G[j], order)
        if s.is_zero():
            continue
        reducers = _reducer_entries(G, order)
        h = nf(s.terms, reducers, order)
        if not h:
            continue
        hp = Polynomial(nvars, h).primitive(order)
        if _is_unit_element(hp, order):
            return one
        t = len(G)
        G.append(hp)
        lm.append(hp.leading_monomial(order))
        pairs.update((k, t) for k in range(t))
    return G


def _minimalize(G, order):
    """Drop basis elements whose leading monomial another one divides."""
    ranked = sorted(G, key=lambda g: order.key(g.leading_monomial(order)))
    kept = []
    kept_lms = []
    for g in ranked:
        m = g.leading_monomial(order)
        if not any(mono_divides(x, m) for x in kept_lms):
            kept.append(g)
            kept_lms.append(m)
    return kept


def _reduce_global(G, order, nvars):
    """Minimal basis, tails fully reduced, primitive scaling, sorted."""
    kept = _minimalize(G, order)
    out = list(kept)
    for i in range(len(out)):
        others = [out[k] for k in range(len(out)) if k != i]
        if not others:
            continue
        reducers = _reducer_entries(others, order)
        rem = _normal_form_global(out[i].terms, reducers, order)
        out[i] = Polynomial(nvars, rem)
    out = [g.primitive(order) for g in out if not g.is_zero()]
    out.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(out)


_BASIS_CACHE = {}


def groebner_basis(I, order=GLOBAL):
    """Reduced Groebner basis of I under a global order; cached."""
    if not order.is_global:
        raise ValueError("groebner_basis requires a global order")
    key = (I, order)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit
    raw = _standard_basis_raw(I.gens, order, I.nvars)
    basis = _reduce_global(raw, order, I.nvars)
    sb = StandardBasis(I, order, basis, True)
    _BASIS_CACHE[key] = sb
    return sb


def mora_standard_basis(I, order=LOCAL):
    """Minimal Mora standard basis of I in the local ring at the origin."""
    if order.is_global:
        raise ValueError("mora_standard_basis requires a local order")
    key = (I, order)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit
    raw = _standard_basis_raw(I.gens, order, I.nvars)
    kept = _minimalize(raw, order)
    basis = tuple(
        sorted(
            (g.primitive(order) for g in kept),
            key=lambda g: order.key(g.leading_monomial(order)),
        )
    )
    sb = StandardBasis(I, order, basis, False)
    _BASIS_CACHE[key] = sb
    return sb


def normal_form(p, sb):
    """Division remainder of p by sb under sb's order.

    Zero iff p lies in the ideal; for local orders this is the Mora weak
    normal form and membership is membership in the localization.
    """
    if not sb.basis:
        return p
    reducers = _reducer_entries(sb.basis, sb.order)
    if sb.order.is_global:
        rem = _normal_form_global(p.terms, reducers, sb.order)
    else:
        rem = _mora_normal_form(p.terms, reducers, sb.order)
    return Polynomial(p.nvars, rem)


def is_member(p, I, order=GLOBAL):
    return normal_form(p, groebner_basis(I, order)).is_zero()


# --- quotient, intersection, saturation --------------------------------


def exact_divide(p, g, order=GLOBAL):
    """Quotient p/g when g divides p exactly; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm = g.leading_monomial(order)
    lc = g.terms[lm]
    q = {}
    h = dict(p.terms)
    keyf = order.key
    while h:
        hm = max(h, key=keyf)
        if not mono_divides(lm, hm):
            raise ArithmeticError("polynomial division is not exact")
        hc = h[hm]
        q[mono_div(hm, lm)] = hc / lc
        _cancel_lead(h, hm, hc, lm, lc, g.terms)
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
    return _eliminate_tag(tagged, n)


def _eliminate_tag(gens, n):
    """The ideal of gens (in a tag variable t plus n more) intersected with
    the ring without t: the t-free part of an elimination basis."""
    order = elimination(1)
    raw = _standard_basis_raw(gens, order, n + 1)
    basis = _reduce_global(raw, order, n + 1)
    kept = [
        g.drop_first_variable()
        for g in basis
        if all(m[0] == 0 for m in g.terms)
    ]
    return Ideal(kept, n)


def ideal_quotient(I, J, order=GLOBAL):
    """I : J, via single-generator quotients (I ∩ (g))/g intersected."""
    if J.is_zero():
        raise ValueError("quotient by the zero ideal")
    n = I.nvars
    if I.is_zero():
        return I
    gb = groebner_basis(I, order)
    parts = []
    for g in J.gens:
        if normal_form(g, gb).is_zero():
            continue  # g in I, so I : (g) is the whole ring
        meet = intersect(I, Ideal((g,), n))
        parts.append(Ideal(tuple(exact_divide(h, g, order) for h in meet.gens), n))
    if not parts:
        return Ideal((Polynomial.constant(n, 1),), n)
    acc = parts[0]
    for part in parts[1:]:
        acc = intersect(acc, part)
    return acc


def canonical(I, order=GLOBAL):
    """The ideal regenerated by its reduced Groebner basis."""
    return Ideal(groebner_basis(I, order).basis, I.nvars)


# Largest exponent the elimination result is certified against before the
# quotient loop takes over; no workload has shown an exponent above 2.
_CERTIFY_MAX_EXPONENT = 3


def saturate(I, J, order=GLOBAL):
    """I : J^infinity and its saturation exponent.

    The exponent is the least m with I : J^m = I : J^infinity, that is the
    least m with J^m * (I : J^infinity) contained in I; it is 0 exactly
    when I is already saturated.  The returned ideal is generated by its
    reduced Groebner basis under order.

    Method (Greuel-Pfister, section 1.8): S = I : g^infinity for the fixed
    combination g = sum (i+1) * J_i, from one elimination of t in
    I + (1 - t*g).  As g lies in J, S contains I : J^infinity; the least
    m <= _CERTIFY_MAX_EXPONENT with J^m * S inside I proves equality and is
    the exponent.  When no such m exists (g is a zero divisor on a
    component J does not contain, or the exponent is larger) the quotient
    loop decides.
    """
    if J.is_zero():
        raise ValueError("saturation by the zero ideal")
    n = I.nvars
    g = Polynomial.zero(n)
    for i, h in enumerate(J.gens):
        g = g + h.scale(i + 1)
    t = Polynomial.variable(n + 1, 0)
    one_minus_tg = Polynomial.constant(n + 1, 1) - t * g.prepend_variable()
    gens = [f.prepend_variable() for f in I.gens] + [one_minus_tg]
    S = canonical(_eliminate_tag(gens, n), order)
    exponent = _certified_exponent(I, S, J, order)
    if exponent is None:
        return _saturate_by_quotients(I, J, order)
    return S, exponent


def _certified_exponent(I, S, J, order):
    """Least m <= _CERTIFY_MAX_EXPONENT with J^m * S inside I, else None.

    S contains I, so m = 0 exactly when the reduced bases agree.  Beyond
    that, pending holds the nonzero remainders modulo I of generators of
    J^m * S; multiplying them by each generator of J gives those of
    J^(m+1) * S.
    """
    gb = groebner_basis(I, order)
    if S.gens == gb.basis:
        return 0
    reducers = _reducer_entries(gb.basis, order)

    def remainders(polys):
        rems = (_normal_form_global(p.terms, reducers, order) for p in polys)
        return [Polynomial(I.nvars, r) for r in rems if r]

    pending = remainders(S.gens)
    for m in range(1, _CERTIFY_MAX_EXPONENT + 1):
        pending = remainders([j * p for j in J.gens for p in pending])
        if not pending:
            return m
    return None


def _saturate_by_quotients(I, J, order=GLOBAL):
    """I : J^infinity by repeated quotients, with the number of quotient
    steps until stability; the fallback of saturate and its test oracle.

    Stability is detected by equality of reduced Groebner bases, which are
    canonical for (ideal, order).
    """
    current = canonical(I, order)
    exponent = 0
    while True:
        nxt = canonical(ideal_quotient(current, J, order), order)
        if nxt.gens == current.gens:
            return current, exponent
        current = nxt
        exponent += 1


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
    if I.is_zero():
        return INFINITE
    sb = mora_standard_basis(I)
    d = dimension(sb)
    if d == -1:
        return 0
    if d > 0:
        return INFINITE
    return len(standard_monomials(sb))
