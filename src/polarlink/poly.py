"""Exact multivariate polynomials over the rationals.

Coefficients are :class:`fractions.Fraction`, which is the package's
rational type at every API: always reduced, positive denominator, no
rounding ever.  The engine (``ideals``) scales each generator to integer
coefficients once, keeps its basis elements as primitive integer term
dicts, and turns only its results back into polynomials, so scalar
normalization lives there, not here.
A polynomial stores a finite map from exponent tuples to nonzero
coefficients; the zero polynomial stores nothing.  Values are immutable
after construction and safe to share between workers.
"""

from __future__ import annotations

from fractions import Fraction

from .orders import GLOBAL, mono_deg, mono_mul

Rational = Fraction

INFINITE = "infinite"


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
    def zero(nvars):
        return Polynomial(nvars, {})

    @staticmethod
    def constant(nvars, value):
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars, i):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {mono: Fraction(1)})

    @staticmethod
    def linear_form(nvars, coeffs):
        """The form sum(coeffs[j] * z_j)."""
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                mono = tuple(1 if k == j else 0 for k in range(nvars))
                terms[mono] = Fraction(c)
        return Polynomial(nvars, terms)

    # --- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(mono_deg(m) == 0 for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        return max(map(mono_deg, self.terms), default=-1)

    def order_of_vanishing(self):
        """Minimal total degree of a term; INFINITE for zero."""
        return min(map(mono_deg, self.terms), default=INFINITE)

    def leading_monomial(self, order):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return order.max(self.terms)

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
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, Fraction(0)) + ca * cb
        return Polynomial(self.nvars, out)

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

    def scale(self, c):
        c = Fraction(c)
        return Polynomial(self.nvars, {m: co * c for m, co in self.terms.items()})

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
        """Compose with the linear change of coordinates given by matrix.

        Variable i is replaced by the linear form with coefficients
        matrix[i], i.e. the result is p(M z).  The matrix must be square of
        size nvars and invertible, so degree and order of vanishing are
        preserved.
        """
        n = self.nvars
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix size must match the variable count")
        if det(matrix) == 0:
            raise ValueError("matrix is singular")
        forms = [Polynomial.linear_form(n, row) for row in matrix]
        powers = [{0: Polynomial.constant(n, 1)} for _ in range(n)]

        def form_power(i, e):
            cache = powers[i]
            if e not in cache:
                top = max(cache)
                acc = cache[top]
                for k in range(top + 1, e + 1):
                    acc = acc * forms[i]
                    cache[k] = acc
            return cache[e]

        result = Polynomial.zero(n)
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(n, coeff)
            for i, e in enumerate(mono):
                if e:
                    term = term * form_power(i, e)
            result = result + term
        return result

    def substitute_zero(self, indices):
        """Set the listed variables to 0 and drop them from the ring.

        Realizes the quotient by the coordinate ideal (z_i : i in indices)
        as a polynomial in the remaining variables.
        """
        drop = set(indices)
        keep = [i for i in range(self.nvars) if i not in drop]
        out = {}
        for mono, coeff in self.terms.items():
            if any(mono[i] for i in drop):
                continue
            m = tuple(mono[i] for i in keep)
            out[m] = out.get(m, Fraction(0)) + coeff
        return Polynomial(len(keep), out)

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


def det(matrix):
    """Exact determinant by fraction-free-ish Gaussian elimination."""
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


def invert(matrix):
    """Exact inverse of a square matrix over the rationals."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]
