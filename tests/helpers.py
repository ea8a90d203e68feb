"""Shared strategies and small builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

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
