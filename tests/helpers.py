"""Shared strategies and small builders for the test suite."""

import signal
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations

from hypothesis import strategies as st

from polarlink.ideals import (
    Ideal,
    _element,
    _minimalize,
    _normal_form,
    _standard_basis_raw,
    _terms,
    local_colength,
    saturate,
)
from polarlink.oracle import _echelon_pivots, monomials_of_degree
from polarlink.orders import GLOBAL, LOCAL, elimination, mono_div, mono_divides, mono_mul
from polarlink.parse import parse_polynomial
from polarlink.polar import (
    CoordinateFrame,
    check_excluded,
    gamma_profile,
    jacobian_ideal,
    milnor_number,
    plane_cut,
    polar_ideal,
)
from polarlink.poly import Polynomial, integer_terms

V2 = ["x", "y"]
V3 = ["x", "y", "z"]


def p2(text):
    return parse_polynomial(text, V2)


def p3(text):
    return parse_polynomial(text, V3)


def rationals():
    return st.builds(
        Fraction, st.integers(-30, 30), st.integers(1, 7)
    )


def monomials(nvars, max_exp=3):
    return st.tuples(*([st.integers(0, max_exp)] * nvars))


def polynomials(nvars=2, max_terms=5, max_exp=3):
    return st.dictionaries(
        monomials(nvars, max_exp), rationals(), max_size=max_terms
    ).map(lambda d: Polynomial(nvars, d))


def nonzero_polynomials(nvars=2, max_terms=5, max_exp=3):
    return polynomials(nvars, max_terms, max_exp).filter(
        lambda p: not p.is_zero()
    )


def reference_key(order, mono):
    """An order's comparison tuple, written out from its definition:
    (degree, -last exponent, ..., -first exponent), the degree negated for
    the local order, and for an elimination order that of the eliminated
    block followed by that of the rest."""

    def block(m):
        return (sum(m),) + tuple(-e for e in reversed(m))

    if order.kind == "elim":
        return block(mono[: order.n_elim]) + block(mono[order.n_elim :])
    key = block(mono)
    return (-key[0],) + key[1:] if order.kind == "negdegrevlex" else key


def _reduce_global(G, order):
    """Minimal basis of the elements G, tails fully reduced, sorted as by
    ``_minimalize``: the interreduction behind ``reduced_basis``.  The
    package reduces no basis this way; saturation ends at a minimal one."""
    kept = _minimalize(G)
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        if others:
            heap = [(g[1], g[0]), *(t[:2] for t in g[3])]  # sorted, so a heap
            kept[i] = _element(_normal_form(_terms(g), heap, others), order)
    return kept


def reduced_basis(I, order=GLOBAL):
    """The reduced Groebner basis of I under a global order, as Polynomials
    with coprime integer coefficients and a positive leading one."""
    raw = _standard_basis_raw(map(integer_terms, I.gens), order)
    return tuple(Polynomial(I.nvars, _terms(g)) for g in _reduce_global(raw, order))


def identity_frame(nvars):
    return CoordinateFrame(tuple(tuple(int(i == j) for j in range(nvars)) for i in range(nvars)))


def gated_profile(f, trials=5, seed=0, bound=10):
    """gamma_profile of f with the s that the gate reads, as a report
    computes it."""
    _, s = check_excluded(f)
    return gamma_profile(f, s, trials, seed, bound)


def gamma_in_frame(f, frame, k):
    """The polar multiplicity gamma^k of f measured in one frame: the
    local colength of the polar ideal's cut, None where it is not finite."""
    return local_colength(plane_cut(polar_ideal(f, frame, k)))


def frame_polar_ideal(f, frame, k):
    """The k-th polar ideal of f built in the frame's coordinates: the
    partials of fM = frame.restrict(f, 0), f in the whole frame, along
    z_k..z_n saturated by the Jacobian ideal of fM.  Returns (ideal,
    saturation exponent, fM).  The profile computed it so before it
    saturated in the coordinates of f; kept as a test oracle for
    polar.polar_ideal."""
    fM = frame.restrict(f, 0)
    gens = [fM.partial_derivative(i) for i in range(k, f.nvars)]
    sat, exponent = saturate(Ideal(gens, f.nvars), jacobian_ideal(fM))
    return sat, exponent, fM


def saturating_per_trial(f, frames):
    """per_trial of f over frames, every k in every frame read from the
    saturated polar ideal: the multiplicity of its cut, None where the cut
    is not finite.  The profile computed it so before it read gamma^k above
    the critical dimension from sections; kept as a test oracle for
    polar.section_multiplicities."""
    return tuple(
        tuple(gamma_in_frame(f, fr, k) for k in range(1, f.nvars)) for fr in frames
    )


def sections_by_restriction(f, frame, s):
    """gamma^k of f in the frame for k = s + 1, ..., n, each the Milnor
    number of f restricted to the plane H_k by a substitution of its own,
    frame.restrict(f, k), None where it is not finite.  The profile read
    each section so before it read all of a frame's from one restriction;
    kept as a test oracle for polar.section_multiplicities."""
    return tuple(milnor_number(frame.restrict(f, k)) for k in range(s + 1, f.nvars))


def macaulay_leads(I, top):
    """The minimal local leads of the multiples of I's generators truncated
    below the degree top: the pivots of one echelon form of the rows
    z^u*g cut below top, each led by its lowest-degree term (``LOCAL``),
    without those another pivot divides, sorted by degree, then by the
    local order.  They generate L(I*O + m^top), so L(I*O) where m^top lies
    in I*O.  A test oracle for ``ideals.mora_standard_basis`` that shares
    no code with the engine."""
    below = [u for d in range(top) for u in monomials_of_degree(I.nvars, d)]
    rows = (
        {mono_mul(m, u): c for m, c in g.items() if sum(m) + sum(u) < top}
        for g in map(integer_terms, I.gens)
        for u in below
    )
    pivots = _echelon_pivots(filter(None, rows), {u: LOCAL.key(u) for u in below})
    kept = []
    for m in sorted(pivots, key=lambda m: (sum(m), LOCAL.key(m))):
        if not any(mono_divides(lm, m) for lm in kept):
            kept.append(m)
    return tuple(kept)


def record_calls(monkeypatch, module, name):
    """Replace module.name by a spy; returns the list it fills with the
    (args, result) of every call."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spy)
    return calls


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run for seconds: a
    stalled loop then fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fraction_remainder(p, basis, order):
    """Remainder of p on division by basis under a global order: the
    textbook division loop (Cox-Little-O'Shea, section 2.3) in Fraction
    arithmetic, with leading terms chosen by reference_key.  A test oracle
    for the engine's ``_normal_form``."""
    leads = [(max(g.terms, key=lambda m: reference_key(order, m)), g) for g in basis]
    h = dict(p.terms)
    remainder = {}
    while h:
        hm = max(h, key=lambda m: reference_key(order, m))
        hc = h.pop(hm)
        for lm, g in leads:
            if all(x <= y for x, y in zip(lm, hm)):
                factor = hc / g.terms[lm]
                shift = tuple(y - x for x, y in zip(lm, hm))
                for gm, gc in g.terms.items():
                    if gm != lm:
                        m = tuple(x + y for x, y in zip(gm, shift))
                        h[m] = h.get(m, 0) - factor * gc
                        if not h[m]:
                            del h[m]
                break
        else:
            remainder[hm] = hc
    return Polynomial(p.nvars, remainder)


def fraction_det(matrix):
    """Determinant of a square matrix by Gaussian elimination in Fraction
    arithmetic.  A test oracle for poly.det, which eliminates on integers."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    prod = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        prod *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return sign * prod


def reference_substitution(f, matrix):
    """f(M z) expanded term by term, the sum over the terms c*z^e of f of
    c * prod_i (row_i . z)^e_i, with Polynomial +, * and ** only.  A test
    oracle for substitute_linear."""
    n = f.nvars
    forms = []
    for row in matrix:
        form = Polynomial(n, {})
        for j, c in enumerate(row):
            form = form + Polynomial.constant(n, c) * Polynomial.variable(n, j)
        forms.append(form)
    out = Polynomial(n, {})
    for mono, c in f.terms.items():
        term = Polynomial.constant(n, c)
        for form, e in zip(forms, mono):
            term = term * form**e
        out = out + term
    return out


def substitute_zero(p, indices):
    """p with the listed variables set to 0 and dropped from the ring: the
    quotient by the coordinate ideal (z_i : i in indices), as a polynomial
    in the remaining variables.  A test oracle for CoordinateFrame.restrict,
    which never expands the variables it drops."""
    drop = set(indices)
    keep = [i for i in range(p.nvars) if i not in drop]
    return Polynomial(
        len(keep),
        {tuple(m[i] for i in keep): c for m, c in p.terms.items() if not any(m[i] for i in drop)},
    )


def fraction_echelon_pivots(rows, key):
    """Leading monomials of an echelon form of the row space, each mapped to
    its pivot row scaled to lead coefficient 1: Gaussian elimination in
    Fraction arithmetic, leads chosen by key.  A test oracle for the
    oracle's integer elimination."""
    pivots = {}
    for row in rows:
        row = {m: Fraction(c) for m, c in row.items()}
        while row:
            lead = max(row, key=key.__getitem__)
            piv = pivots.get(lead)
            if piv is None:
                c = row[lead]
                pivots[lead] = {m: v / c for m, v in row.items()}
                break
            factor = row[lead]
            for m, v in piv.items():
                c = row.get(m, 0) - factor * v
                if c:
                    row[m] = c
                elif m in row:
                    del row[m]
    return pivots


def monomials_below(nvars, cap):
    """All exponent tuples with total degree strictly below cap."""
    return [m for d in range(cap) for m in monomials_of_degree(nvars, d)]


def truncated_colength_by_two_eliminations(I, cap):
    """(value, stable, cap) of the truncated colength from two degrevlex
    eliminations, one of the truncated multiples below cap and one of those
    below cap + 1, with the zero ideal as its own case.  Stable means that
    the two counts agree and that no survivor has degree cap - 1.  The
    truncated colength the oracle used before its Nakayama certificate,
    kept as a test oracle for its counts and its caps."""

    def survivors(cap):
        below = monomials_below(I.nvars, cap)
        rows = []
        for g in map(integer_terms, I.gens):
            for u in monomials_below(I.nvars, cap - min(map(sum, g))):
                shifted = {tuple(a + b for a, b in zip(m, u)): c for m, c in g.items()}
                row = {m: c for m, c in shifted.items() if sum(m) < cap}
                if row:
                    rows.append(row)
        pivots = _echelon_pivots(rows, {m: GLOBAL.key(m) for m in below})
        return [m for m in below if m not in pivots]

    if not I.gens:
        return len(monomials_below(I.nvars, cap)), False, cap
    here, nxt = survivors(cap), survivors(cap + 1)
    stable = len(here) == len(nxt) and all(sum(m) < cap - 1 for m in here)
    return len(here), stable, cap


def stable_colength_by_doubling(I, start_cap, hard_cap):
    """(value, stable, cap) of truncated_colength_by_two_eliminations at
    start_cap, the cap doubled until it is stable or reaches hard_cap: the
    oracle's certificate before the Nakayama criterion, kept as a test
    oracle."""
    cap = min(max(2, start_cap), hard_cap)
    while True:
        value, stable, cap = truncated_colength_by_two_eliminations(I, cap)
        if stable or cap >= hard_cap:
            return value, stable, cap
        cap = min(2 * cap, hard_cap)


def tag_free_part(tagged, r):
    """Generators of the ideal tagged, in r tag variables followed by the
    others, intersected with the ring without the tags: the tag-free
    elements of its whole reduced elimination basis, the tags dropped.  A
    test oracle for the engine's tag elimination."""
    n = tagged.nvars - r
    return tuple(
        Polynomial(n, {m[r:]: c for m, c in g.terms.items()})
        for g in reduced_basis(tagged, elimination(r))
        if not any(any(m[:r]) for m in g.terms)
    )


def tagged(f, tags):
    """f times the monomial tags in the tag variables put before its own."""
    return Polynomial(len(tags) + f.nvars, {tags + m: c for m, c in f.terms.items()})


def is_member(p, I):
    """Whether p lies in I: its remainder by the reduced Groebner basis."""
    return fraction_remainder(p, reduced_basis(I), GLOBAL).is_zero()


def exact_divide(p, g):
    """Quotient p/g when g divides p exactly, by long division under
    degrevlex; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lm = max(g.terms, key=GLOBAL.key)
    q = Polynomial(p.nvars, {})
    while not p.is_zero():
        hm = max(p.terms, key=GLOBAL.key)
        if not mono_divides(lm, hm):
            raise ArithmeticError("polynomial division is not exact")
        term = Polynomial(p.nvars, {mono_div(hm, lm): p.terms[hm] / g.terms[lm]})
        q, p = q + term, p - term * g
    return q


def intersect(I, J):
    """I intersect J as the tag-free part of t*I + (1-t)*J (Cox-Little-
    O'Shea, section 4.3)."""
    n = I.nvars
    if not I.gens or not J.gens:
        return Ideal((), n)
    one, t = Polynomial.constant(n + 1, 1), Polynomial.variable(n + 1, 0)
    both = [tagged(f, (1,)) for f in I.gens] + [(one - t) * tagged(g, (0,)) for g in J.gens]
    return Ideal(tag_free_part(Ideal(both, n + 1), 1), n)


def ideal_quotient(I, J):
    """I : J, via single-generator quotients (I intersect (g))/g, intersected."""
    if not J.gens:
        raise ValueError("quotient by the zero ideal")
    n = I.nvars
    if not I.gens:
        return I
    gb = reduced_basis(I)
    parts = []
    for g in J.gens:
        if fraction_remainder(g, gb, GLOBAL).is_zero():
            continue  # g in I, so I : (g) is the whole ring
        meet = intersect(I, Ideal((g,), n))
        parts.append(Ideal(tuple(exact_divide(h, g) for h in meet.gens), n))
    if not parts:
        return Ideal((Polynomial.constant(n, 1),), n)
    return reduce(intersect, parts)


def canonical(I):
    """The ideal regenerated by its reduced Groebner basis."""
    return Ideal(reduced_basis(I), I.nvars)


def saturate_by_quotients(I, J):
    """I : J^infinity by repeated quotients, with the number of quotient
    steps until stability: the textbook loop, a test oracle for saturate,
    on the quotient, intersection and division helpers above.

    Stability is detected by equality of reduced Groebner bases, which are
    canonical for the ideal under degrevlex.
    """
    current = canonical(I)
    exponent = 0
    while True:
        nxt = canonical(ideal_quotient(current, J))
        if nxt.gens == current.gens:
            return current, exponent
        current = nxt
        exponent += 1


def subset_ranks(forms, varnames):
    """(|S|, rk S) for every subset S of the linear forms, each typed in
    the variables varnames, rk S the rank of the forms in S, found by exact
    Fraction elimination."""
    rows = [parse_polynomial(text, varnames).terms for text in forms]
    assert all(sum(m) == 1 for row in rows for m in row), forms
    key = {m: m for row in rows for m in row}
    for size in range(len(rows) + 1):
        for subset in combinations(rows, size):
            yield size, len(fraction_echelon_pivots(subset, key))


def arrangement_link_betti(forms, varnames):
    """Reduced Betti numbers b~^0..b~^(2n-1) of the link K of the central
    arrangement of the hyperplanes forms = 0, each form a linear form typed
    in the n + 1 variables varnames.  By Orlik and Solomon the complement
    M of the arrangement has Poincare polynomial
    pi(A, t) = sum over subsets S of the forms of (-1)^(|S| - rk S) t^(rk S),
    with rk S the rank of the forms in S (subset_ranks).  M retracts onto
    the complement of K in S^(2n+1), so by Alexander duality
    b~^i(K) = b~_(2n-i)(M).  A test oracle for the feasibility audit, which
    shares no code with it."""
    n = len(varnames) - 1
    poincare = [0] * (2 * n + 1)
    for size, rank in subset_ranks(forms, varnames):
        poincare[rank] += (-1) ** (size - rank)
    poincare[0] -= 1
    return tuple(poincare[2 * n - i] for i in range(2 * n))


def arrangement_polar_degrees(forms, varnames):
    """The polar multiplicities gamma^0..gamma^(n+1) of the central
    arrangement of the hyperplanes forms = 0 in the n + 1 variables
    varnames, with no frame.  Its product f is homogeneous, so gamma^k is
    the degree of the projective polar variety, the projective degree
    mu^(n+1-k) of the gradient map of f.  By Huh ("Milnor numbers of
    projective hypersurfaces and the chromatic polynomial of graphs",
    J. AMS 25, 2012) chi_A(t)/(t - 1) = sum_i (-1)^i mu^i t^(n-i), with the
    characteristic polynomial chi_A(t) = sum over subsets S of the forms of
    (-1)^|S| t^(n+1-rk S) (subset_ranks).  mu^0 = 1 is gamma^(n+1).  A test
    oracle for gamma_profile that is exact on both sides: a gamma read too
    high fails it as well as one read too low."""
    n = len(varnames) - 1
    chi = [0] * (n + 2)  # chi[j] is the coefficient of t^j
    for size, rank in subset_ranks(forms, varnames):
        chi[n + 1 - rank] += (-1) ** size
    mu, carry = [], 0
    for i, c in enumerate(reversed(chi[1:])):  # divide by t - 1, from t^n down
        carry += c
        mu.append((-1) ** i * carry)
    assert carry + chi[0] == 0, forms  # t = 1 is a root of chi_A
    return (0,) + tuple(reversed(mu))
