"""Monomial orders and exponent-tuple helpers.

A monomial is a tuple of non-negative integers, one exponent per variable.
Two public orders are provided:

* ``GLOBAL`` (degrevlex): a well-order, total degree first, ties broken so
  that the last variable is cheapest.
* ``LOCAL`` (negdegrevlex): ranks lower total degree larger, so leading
  terms pick out the tangent cone at the origin; same tie-break.

Elimination orders are internal plumbing, with the first ``n_elim``
variables dominating: they eliminate saturation's tags, and with one
variable they serve the homogenizing variable s of Lazard's local
standard basis, where the lead of a homogeneous polynomial is its term
with the most s, so of lowest degree in the rest.

An order's key is one integer, its comparison tuple packed in radix
``DEGREE_LIMIT`` = 2^16: a linear form, so key(a*b) = key(a) + key(b),
exact below total degree 2^16 (``key`` raises DegreeLimitError beyond).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub

from .errors import DegreeLimitError

DEGREE_LIMIT = 1 << 16


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(a, b):
    """Exponent vector of a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


mono_deg = sum  # total degree


def check_degree(deg):
    if deg >= DEGREE_LIMIT:
        raise DegreeLimitError(f"monomial degree {deg} reaches the limit {DEGREE_LIMIT}")


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order, usable as a sort key via :meth:`key`.

    kind is one of 'degrevlex', 'negdegrevlex', 'elim'.  For 'elim' the
    first n_elim exponents are compared (degrevlex among themselves) before
    the remaining block, which makes it an elimination order for the tag
    variables, or for the homogenizing one.
    """

    kind: str
    n_elim: int = 0

    def key(self, mono):
        """Sort key; larger key means larger monomial.  Packs (degree, -last
        exponent, ..., -first exponent), the degree negated for
        'negdegrevlex'; for 'elim', the eliminated block's tuple, then the
        rest's.  All entries but the first lie in (-limit, limit)."""
        deg = sum(mono)
        check_degree(deg)
        if self.kind == "elim":
            head, mono = mono[: self.n_elim], mono[self.n_elim :]
            key = head_deg = sum(head)
            for e in reversed(head):
                key = key * DEGREE_LIMIT - e
            key = key * DEGREE_LIMIT + deg - head_deg
        else:
            key = -deg if self.kind == "negdegrevlex" else deg
        for e in reversed(mono):
            key = key * DEGREE_LIMIT - e
        return key


GLOBAL = MonomialOrder("degrevlex")
LOCAL = MonomialOrder("negdegrevlex")


def elimination(n_elim):
    """Order eliminating the first n_elim variables (internal use)."""
    return MonomialOrder("elim", n_elim)
