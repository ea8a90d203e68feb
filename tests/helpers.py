"""Shared strategies and small builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from polarlink.ideals import Ideal, groebner_basis, ideal_quotient
from polarlink.parse import parse_polynomial
from polarlink.poly import Polynomial

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


def fraction_remainder(p, basis, order):
    """Remainder of p on division by basis under a global order: the
    textbook division loop (Cox-Little-O'Shea, section 2.3) in Fraction
    arithmetic, with leading terms chosen by reference_key.  A test oracle
    for normal_form."""
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


def reference_substitution(f, matrix):
    """f(M z) expanded term by term, the sum over the terms c*z^e of f of
    c * prod_i (row_i . z)^e_i, with Polynomial +, * and ** only.  A test
    oracle for substitute_linear."""
    n = f.nvars
    forms = []
    for row in matrix:
        form = Polynomial.zero(n)
        for j, c in enumerate(row):
            form = form + Polynomial.constant(n, c) * Polynomial.variable(n, j)
        forms.append(form)
    out = Polynomial.zero(n)
    for mono, c in f.terms.items():
        term = Polynomial.constant(n, c)
        for form, e in zip(forms, mono):
            term = term * form**e
        out = out + term
    return out


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


def canonical(I):
    """The ideal regenerated by its reduced Groebner basis."""
    return Ideal(groebner_basis(I).basis, I.nvars)


def saturate_by_quotients(I, J):
    """I : J^infinity by repeated quotients, with the number of quotient
    steps until stability: the textbook loop, a test oracle for saturate.

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
