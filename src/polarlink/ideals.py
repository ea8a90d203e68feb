"""Groebner bases, local standard bases, and derived ideal operations.

One pair loop builds every basis: Buchberger's algorithm with the product
and chain criteria, taking pairs by sugar (Giovini, Mora, Niesi, Robbiano,
Traverso, ISSAC 1991), under global orders only.  It gives Groebner bases,
and the elimination orders serve saturation's tags and the homogenizing
variable of Lazard's method.
On top of those sit saturation (tag variables plus elimination), and the
Krull dimension and local colength at the origin, which realize the
critical-locus dimension and the intersection numbers.  Both are read from
the leads of a standard basis in the local ring alone (Greuel-Pfister,
section 1.7), and those leads come by one route: a Groebner basis of the
homogenized generators (Lazard, EUROCAL 1983), whose leads are all that
``mora_standard_basis`` returns.

Saturation I : J^infinity is one Rabinowitsch elimination with one tag
per generator of J outside I, which is exact, so it needs no certificate
and no fallback.  The elimination starts from the minimal basis of I that
saturation builds anyway, and forms no pair within it.

Everything is exact, and every call computes its basis afresh: the module
keeps no state between calls.  The engine works on integer coefficients
only and has one representation of a basis element, and so of every
reducer: the tuple (lm, -key(lm), lc, tail, spread) over a primitive
integer term dict: coprime coefficients, lc > 0 under the order (see
``_element``).  Fractions are met at two places only.  On the way in, each
generator's Fraction coefficients are scaled to integers once
(``integer_terms``, from ``poly``, like the product ``mul_terms``); on the
way out, results leave the engine as ``saturate``'s ideal, whose elements
become Polynomials once, and as the leads of ``mora_standard_basis``.  A
polynomial being reduced is one dict {monomial: int}, its irreducible
terms included, and a heap of (-key, monomial) over its terms (stale ones
are skipped when popped), fraction-free: its remainder is the Fraction
remainder times a positive factor.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .poly import Polynomial, integer_terms, mul_terms


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal; zero generators are never stored."""

    gens: tuple
    nvars: int

    def __init__(self, gens, nvars):
        gens = tuple(g for g in gens if not g.is_zero())
        if any(g.nvars != nvars for g in gens):
            raise ValueError("generators live in different rings")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "nvars", nvars)


# --- elements and division ---------------------------------------------


def _element(h, order):
    """The nonzero integer term dict h, divided by its content and signed so
    that lc > 0, as the element (lm, -key(lm), lc, tail, spread): tail is
    the tuple of (-key, monomial, coeff) over the other terms, sorted, so
    that equal elements are equal tuples, and spread is the largest term
    degree minus deg(lm), which bounds the degree of the terms that a
    reduction by the element creates."""
    (nk, lm), *rest = sorted((-order.key(m), m) for m in h)
    c = gcd(*h.values()) if h[lm] > 0 else -gcd(*h.values())
    tail = tuple((k, m, h[m] // c) for k, m in rest)
    return lm, nk, h[lm] // c, tail, max(map(mono_deg, h)) - mono_deg(lm)


def _terms(g):
    """The term dict of the element g."""
    return {g[0]: g[2], **{m: c for _, m, c in g[3]}}


def _heap(h, order):
    """A heap of (-key, monomial) over the terms of h."""
    heap = [(-order.key(m), m) for m in h]
    heapify(heap)
    return heap


def _reduce_step(h, heap, hm, nk, reducer):
    """Cancel the term hm (nk = -key(hm)) as h <- a*h - b*z^(hm-lm)*g, g an
    element, with a = lc/gcd(hc, lc) > 0, then divide out the content of h,
    which keeps the integers from swelling over many steps.  As -key is
    linear, each shifted tail term's -key is its own plus nk - (-key(lm))."""
    lm, nlk, lc, tail, spread = reducer
    check_degree(mono_deg(hm) + spread)  # bounds every new term's degree
    hc = h.pop(hm)
    d = gcd(hc, lc)
    a, b = lc // d, hc // d
    if a != 1:
        for m in h:
            h[m] *= a
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
    if a != 1 and (c := gcd(*h.values())) > 1:
        for m in h:
            h[m] //= c


def _normal_form(h, heap, reducers):
    """Full division remainder of the integer term dict h under a global
    order, up to a positive factor, computed in h, whose heap is consumed:
    each term is reduced by the first reducer whose lead divides it.  An
    irreducible term stays in h, and no step creates a term above the one
    it cancels, so the loop ends as the order is a well-order."""
    while heap:
        nk, hm = heappop(heap)
        if hm not in h:
            continue
        for r in reducers:
            if mono_divides(r[0], hm):
                _reduce_step(h, heap, hm, nk, r)
                break
    return h


def _spoly(gi, gj, big, order):
    """The S-polynomial of two elements with lcm big, as (h, heap) up to a
    scalar: the monomial big reduced by each, subtracted."""
    nk, c = -order.key(big), lcm(gi[2], gj[2])
    h, heap = {big: c}, []
    _reduce_step(h, heap, big, nk, gi)
    h[big] = -c
    _reduce_step(h, heap, big, nk, gj)
    return h, heap


# --- basis computation ------------------------------------------------


def _standard_basis_raw(gens, order, settled=0):
    """Buchberger's pair loop over the nonzero integer term dicts gens under
    a global order; returns an unreduced list of elements, a Groebner basis
    of the ideal they generate.  A basis holding an element whose lm has
    degree 0 is the unit ideal.  pending holds the pairs not yet taken.
    The first settled of gens are distinct elements of a Groebner basis
    under the order of the ideal they generate; no pair between two of
    them is formed, as every such S-polynomial reduces to zero by them
    (``saturate``).

    Pairs are taken by (sugar, deg lcm, i, j).  The sugar of an input
    element is its largest term degree, that of a pair the larger of
    sugar_i + deg lcm - deg lm_i over its two elements, and that of a new
    element the larger of its pair's sugar and its own largest term degree:
    the degree each would have, were the input homogenized.  Under an order
    that is not degree-compatible, such as the elimination orders, deg lcm
    says little about the degrees a pair produces, and sugar keeps
    low-degree work first."""
    G = list(dict.fromkeys(_element(g, order) for g in gens))
    if not G:
        return []
    origin = (0,) * len(G[0][0])
    one = [_element({origin: 1}, order)]
    if any(g[0] == origin for g in G):
        return one

    pairs, pending = [], set()
    sugar = [mono_deg(g[0]) + g[4] for g in G]

    def add_pairs(t):
        for k in range(t):
            d = mono_deg(mono_lcm(G[k][0], G[t][0]))
            s = d + max(sugar[k] - mono_deg(G[k][0]), sugar[t] - mono_deg(G[t][0]))
            heappush(pairs, (s, d, k, t))
            pending.add((k, t))

    for t in range(settled, len(G)):
        add_pairs(t)
    while pairs:
        s, _, i, j = heappop(pairs)
        pending.discard((i, j))
        lmi, lmj = G[i][0], G[j][0]
        big = mono_lcm(lmi, lmj)
        if big == mono_mul(lmi, lmj):
            continue  # product criterion: coprime leading monomials
        if any(
            k not in (i, j)
            and mono_divides(G[k][0], big)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(G))
        ):
            continue  # chain criterion
        h = _normal_form(*_spoly(G[i], G[j], big, order), G)
        if not h:
            continue
        g = _element(h, order)
        if g[0] == origin:
            return one
        G.append(g)
        sugar.append(max(s, mono_deg(g[0]) + g[4]))
        add_pairs(len(G) - 1)
    return G


def _minimalize(G):
    """Drop elements whose leading monomial another one divides; the rest
    sorted by the degree of the leading monomial, then by the order (for
    degrevlex, by the order alone).  Degree first puts every divisor of a
    lead before it, under the local order too, where a divisor is larger."""
    kept = {}
    for g in sorted(G, key=lambda g: (mono_deg(g[0]), -g[1])):
        if not any(mono_divides(m, g[0]) for m in kept):
            kept[g[0]] = g
    return list(kept.values())


def mora_standard_basis(I):
    """The leads of a minimal standard basis of I in the local ring O at the
    origin, sorted by degree, then by the local order: they minimally
    generate the leading ideal L(I*O).  The name is the object's, not the
    algorithm's: the leads come from Lazard's homogenization (Lazard,
    EUROCAL 1983; Greuel-Pfister, section 1.7).

    Each generator g of degree d becomes sum c_a * s^(d-|a|) * z^a, with s
    a new first variable, and Buchberger's loop runs on them under
    ``elimination(1)``; the z-parts of its leads are returned.  Why that is
    exact:

    * every polynomial the loop builds from homogeneous input is
      homogeneous (S-polynomials and reduction steps of homogeneous
      polynomials are homogeneous);
    * under ``elimination(1)`` the lead of a homogeneous polynomial is its
      term with the highest power of s, which is its term of lowest
      z-degree with the degrevlex tie-break: exactly the local lead of its
      dehomogenization (s = 1);
    * take f in I with f = sum a_i * g_i.  Then s^k * f^h lies in the
      ideal of the g_i^h for some k, so a lead of the basis divides
      s^j * z^alpha, z^alpha the local lead of f; and each dehomogenized
      basis element lies in I;
    * hence the z-parts of the leads generate L(I) = L(I*O), a unit of O
      having lead 1.

    Buchberger's loop ends under any global well-order, so this route
    needs no ecart."""
    gens = [(integer_terms(g), g.total_degree()) for g in I.gens]
    raw = _standard_basis_raw([{(d - mono_deg(m),) + m: c for m, c in h.items()} for h, d in gens], elimination(1))
    # Each lead's z-part as a one-term element, which _minimalize sorts.
    return tuple(g[0] for g in _minimalize(_element({g[0][1:]: 1}, LOCAL) for g in raw))


# --- saturation ---------------------------------------------------------


def saturate(I, J):
    """I : J^infinity and its saturation exponent.

    The exponent is the least m with I : J^m = I : J^infinity, that is the
    least m with J^m * (I : J^infinity) contained in I; it is 0 exactly
    when I is already saturated.  The returned ideal is generated by a
    minimal degrevlex Groebner basis of it, as sorted by ``_minimalize``.

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
    because S is the saturation.  Each round keeps one remainder of each
    class of proportional ones, its primitive form: the remainder is
    linear, and so is multiplication by h_i, so the products of a dropped
    remainder lie in I exactly when those of the kept one do, and the
    least m is the same.  There is no certificate and no fallback.

    gb is a minimal degrevlex basis of I: a full remainder modulo any
    Groebner basis is unique up to a scalar.  Lifted with zero tag
    exponents, gb is settled in the elimination (``_standard_basis_raw``):
    the S-polynomial of two of its elements is tag-free, where the order is
    degrevlex.  An element is tag-free when its lm is, and only tag-free
    leads divide tag-free monomials, so the tag-free elements form a
    Groebner basis of S.
    """
    n = I.nvars
    gb = _minimalize(_standard_basis_raw(map(integer_terms, I.gens), GLOBAL))

    def remainders(polys):
        """The distinct nonzero remainders modulo I of the integer term
        dicts polys, up to a scalar: one primitive term dict per class of
        proportional ones."""
        rems = (_normal_form(dict(p), _heap(p, GLOBAL), gb) for p in polys)
        return [_terms(g) for g in dict.fromkeys(_element(rem, GLOBAL) for rem in rems if rem)]

    hs = [h for h in map(integer_terms, J.gens) if remainders([h])]
    r = len(hs)
    pad = (0,) * r
    tag = {pad + (0,) * n: 1}
    for i, h in enumerate(hs):
        t_i = pad[:i] + (1,) + pad[i + 1 :]
        tag.update({t_i + m: -c for m, c in h.items()})
    lifted = [{pad + m: c for m, c in _terms(g).items()} for g in gb]
    raw = _standard_basis_raw(lifted + [tag], elimination(r), settled=len(lifted))
    free = _minimalize(g for g in raw if not any(g[0][:r]))
    kept = [{m[r:]: c for m, c in _terms(g).items()} for g in free]
    pending, exponent = remainders(kept), 0
    while pending:
        pending = remainders([mul_terms(h, p) for h in hs for p in pending])
        exponent += 1
    return Ideal([Polynomial(n, g) for g in kept], n), exponent


# --- dimension and colength ---------------------------------------------


def dimension(lms, nvars):
    """Krull dimension of the ideal that the monomials lms generate in
    nvars variables, via maximal independent variable sets; -1 for the
    unit ideal.  For the leads of a local standard basis this is the local
    dimension at the origin (components of a monomial variety are
    coordinate subspaces through 0)."""
    if any(mono_deg(m) == 0 for m in lms):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    raise AssertionError("unreachable: empty set is always independent")


def _staircase(lms, nvars):
    """The number of monomials in nvars variables that no monomial of lms
    divides; None if there are infinitely many.  Cut at each exponent of
    the last variable that a lead has: between two such exponents the
    monomials left in the other variables do not change."""
    if nvars == 0:
        return 0 if lms else 1
    powers = [m[-1] for m in lms if not any(m[:-1])]
    if not powers:
        return None
    end = min(powers)
    steps = sorted({0, *(m[-1] for m in lms if m[-1] < end)})
    count = 0
    for lo, hi in zip(steps, steps[1:] + [end]):
        inner = _staircase([m[:-1] for m in lms if m[-1] <= lo], nvars - 1)
        if inner is None:
            return None
        count += inner * (hi - lo)
    return count


def local_colength(I):
    """Vector-space dimension of the local ring O at the origin modulo I;
    None when the quotient has positive local dimension.

    The monomials outside the leads of I*O (``mora_standard_basis``) form a
    basis of O/I*O (Greuel-Pfister, section 1.7), so the colength is their
    count, None exactly when there are infinitely many (``_staircase``).

    Before any basis, fewer generators than variables, all vanishing at 0,
    give None at once: by Krull's height theorem every minimal prime of
    I*O then has height at most the number of generators, less than v, the
    number of variables, so I*O is not m-primary."""
    if len(I.gens) < I.nvars and not any(g.constant_term() for g in I.gens):
        return None
    return _staircase(mora_standard_basis(I), I.nvars)
