"""Recursive-descent parser for polynomial expressions.

Grammar (implicit multiplication is not supported):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | var | '(' expr ')'

Rational literals are ``123`` or ``123/456`` with no spaces around the
slash.  Variable names are ASCII identifiers and must appear in the
caller's variable list.  A single leading sign before the first term of an
expression is accepted as a convenience extension.  Any character outside
ASCII, a Unicode digit or letter too, is refused with its position.
"""

from __future__ import annotations

from fractions import Fraction
from string import ascii_letters, digits, whitespace

from .errors import ParseError
from .orders import check_degree
from .poly import Polynomial

_SYMBOLS = "+-*^()"
_NAME_START = ascii_letters + "_"
_NAME_CHARS = _NAME_START + digits

COEFFICIENT_DIGITS = 4300  # Python's default limit for printing an int
COEFFICIENT_LIMIT = 10**COEFFICIENT_DIGITS  # the least int with one digit more


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in NUM/NAME/SYM/END."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in whitespace:
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("SYM", ch, i))
            i += 1
            continue
        if ch in digits:
            start = i
            while i < n and text[i] in digits:
                i += 1
            if i < n and text[i] == "/":
                j = i + 1
                if j < n and text[j] in digits:
                    i = j
                    while i < n and text[i] in digits:
                        i += 1
                    tokens.append(("NUM", text[start:i], start))
                    continue
                raise ParseError("malformed rational literal", i)
            tokens.append(("NUM", text[start:i], start))
            continue
        if ch in _NAME_START:
            start = i
            while i < n and text[i] in _NAME_CHARS:
                i += 1
            tokens.append(("NAME", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, varnames):
        self.tokens = tokens
        self.pos = 0
        self.varnames = list(varnames)
        self.index = {name: i for i, name in enumerate(self.varnames)}
        self.nvars = len(self.varnames)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, value, position = self.peek()
        if kind == "SYM" and value == sym:
            return self.advance()
        raise ParseError(f"expected {sym!r}", position)

    def parse_expr(self):
        kind, value, _ = self.peek()
        sign = 1
        if kind == "SYM" and value in "+-":
            self.advance()
            if value == "-":
                sign = -1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "SYM" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "SYM" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "SYM" and value == "^":
            self.advance()
            kind, value, position = self.peek()
            if kind != "NUM" or "/" in value:
                raise ParseError("exponent must be a non-negative integer literal", position)
            self.advance()
            e = int(value)
            check_degree(base.total_degree() * e)  # before expanding the power
            # The lex-largest term of base^e has coefficient c^e, past 10^((b-1)e/4) for a b-bit c.
            c = base.terms[max(base.terms)] if base.terms else 0
            b = max(c.numerator.bit_length(), c.denominator.bit_length())
            if (b - 1) * e > 4 * COEFFICIENT_DIGITS:
                raise ValueError(f"a coefficient needs more than {COEFFICIENT_DIGITS} decimal digits")
            return base ** e
        return base

    def parse_base(self):
        kind, value, position = self.advance()
        if kind == "NUM":
            if any(len(digits) > COEFFICIENT_DIGITS for digits in value.split("/")):
                raise ValueError(f"a coefficient needs more than {COEFFICIENT_DIGITS} decimal digits")
            try:
                coeff = Fraction(value)
            except ZeroDivisionError:
                raise ParseError("zero denominator in rational literal", position)
            return Polynomial.constant(self.nvars, coeff)
        if kind == "NAME":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}", position)
            return Polynomial.variable(self.nvars, self.index[value])
        if kind == "SYM" and value == "(":
            inner = self.parse_expr()
            self.expect_sym(")")
            return inner
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", position)


def parse_polynomial(text, varnames):
    """Parse an expression into a canonical expanded Polynomial.

    Raises ParseError (with position) on any syntax problem, character
    outside ASCII, unknown variable, variable name that is not an ASCII
    identifier, or non-integer exponent; DegreeLimitError when the total
    degree reaches orders.DEGREE_LIMIT, which no engine order can rank; and
    ValueError when a coefficient's numerator or denominator needs more
    than COEFFICIENT_DIGITS digits.  A power is checked for both before it
    expands, so (x+y)^70000 and 2^16000000 are refused at once; one below
    the limits expands in full.
    """
    names = list(varnames)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name", 0)
    for name in names:
        if not (name.isascii() and name.isidentifier()):
            raise ParseError(f"variable name {name!r} is not an ASCII identifier", 0)
    parser = _Parser(_tokenize(text), names)
    result = parser.parse_expr()
    kind, value, position = parser.peek()
    if kind != "END":
        raise ParseError(f"unexpected token {value!r}", position)
    check_degree(result.total_degree())
    if any(
        abs(c.numerator) >= COEFFICIENT_LIMIT or c.denominator >= COEFFICIENT_LIMIT
        for c in result.terms.values()
    ):
        raise ValueError(f"a coefficient needs more than {COEFFICIENT_DIGITS} decimal digits")
    return result
