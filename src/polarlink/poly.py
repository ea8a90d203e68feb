"""Exact multivariate polynomials over the rationals.

Coefficients are :class:`fractions.Fraction`, which is the package's
rational type at every API: always reduced, positive denominator, no
rounding ever.  Fractions stay at that boundary: bulk arithmetic runs on
integer term dicts {monomial: int}, with two shared helpers here.
``integer_terms`` scales a polynomial to integer coefficients once, and
``mul_terms`` multiplies two term dicts; it is also the body of
``Polynomial.__mul__``.  The engine (``ideals``), the oracle (``oracle``)
and ``substitute_linear`` compute on integer term dicts from these
helpers, and Fractions are built only for the coefficients of the
polynomials they return.  ``det`` eliminates on integers too.
A polynomial stores a finite map from exponent tuples to nonzero
coefficients; the zero polynomial stores nothing.  Values are immutable
after construction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .orders import GLOBAL, mono_deg


class Polynomial:
    """Immutable sparse polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars, terms):
        """Build from a {exponent tuple: coefficient} map.

        Zero coefficients are dropped so the stored form is canonical.
        """
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff:
                clean[tuple(mono)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # --- constructors -------------------------------------------------

    @staticmethod
    def constant(nvars, value):
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {mono: Fraction(1)})

    # --- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        return max(map(mono_deg, self.terms), default=-1)

    def order_of_vanishing(self):
        """Minimal total degree of a term; None for zero."""
        return min(map(mono_deg, self.terms), default=None)

    # --- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return Polynomial(self.nvars, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - coeff
        return Polynomial(self.nvars, out)

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        return Polynomial(self.nvars, mul_terms(self.terms, other.terms))

    def __pow__(self, e):
        if e < 0 or e != int(e):
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.nvars, 1)
        base = self
        e = int(e)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    # --- calculus and substitution --------------------------------------

    def partial_derivative(self, i):
        """Exact formal derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} out of range for nvars={self.nvars}")
        out = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            m = list(mono)
            m[i] = e - 1
            out[tuple(m)] = coeff * e
        return Polynomial(self.nvars, out)

    def substitute_linear(self, matrix):
        """Compose with the linear map given by matrix.

        Variable i is replaced by the linear form with coefficients
        matrix[i] in as many new variables as the rows have entries, i.e.
        the result is p(M z).  The matrix has one row per variable and rows
        of equal length.  Square and invertible, as a CoordinateFrame's
        matrix is, it is a change of coordinates, which preserves degree
        and order of vanishing; it is not checked here.  Columns k..n of
        such a matrix restrict p to the plane z_0 = ... = z_(k-1) = 0 of
        the new coordinates: the change of coordinates with z_0..z_(k-1)
        set to 0 and dropped, without expanding them.  p is scaled to
        integers once and the powers of each row's form are expanded once,
        so an integer matrix keeps the whole expansion in integers;
        rational entries stay exact.
        """
        width = len(matrix[0]) if matrix else 0
        if len(matrix) != self.nvars or any(len(row) != width for row in matrix):
            raise ValueError("matrix must have one row per variable, all of one length")
        one = (0,) * width
        powers = []
        for i, row in enumerate(matrix):
            form = {one[:j] + (1,) + one[j + 1 :]: c for j, c in enumerate(row) if c}
            power = [{one: 1}]
            for _ in range(max((m[i] for m in self.terms), default=0)):
                power.append(mul_terms(power[-1], form))
            powers.append(power)
        out = {}
        for mono, coeff in integer_terms(self).items():
            term = {one: coeff}
            for power, e in zip(powers, mono):
                if e:
                    term = mul_terms(term, power[e])
            for m, c in term.items():
                out[m] = out.get(m, 0) + c
        scale = lcm(*(c.denominator for c in self.terms.values()))
        return Polynomial(width, {m: Fraction(c, scale) for m, c in out.items()})

    # --- printing ------------------------------------------------------

    def to_str(self, varnames):
        """Canonical text form, degrevlex-descending, re-parseable."""
        if len(varnames) != self.nvars:
            raise ValueError("variable name count mismatch")
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in sorted(self.terms.items(), key=lambda t: -GLOBAL.key(t[0])):
            factors = []
            for name, e in zip(varnames, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        names = [f"z{i}" for i in range(self.nvars)]
        return f"Polynomial({self.to_str(names)})"


def integer_terms(p):
    """The term dict of the polynomial p times the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return {m: c.numerator * (scale // c.denominator) for m, c in p.terms.items()}


def mul_terms(f, g):
    """The product of two term dicts, zero terms dropped."""
    out = {}
    for fm, fc in f.items():
        for gm, gc in g.items():
            m = tuple(map(add, fm, gm))
            out[m] = out.get(m, 0) + fc * gc
    return {m: c for m, c in out.items() if c}


def det(matrix):
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination: after step k every entry left is a k+1 by
    k+1 minor, so each division by the previous pivot is exact."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1
