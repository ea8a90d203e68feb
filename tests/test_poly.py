"""Exact polynomial kernel: ring axioms, calculus, substitution, printing."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    V2,
    V3,
    fraction_det,
    identity_frame,
    nonzero_polynomials,
    p2,
    p3,
    polynomials,
    substitute_zero,
)
from polarlink.orders import GLOBAL, LOCAL
from polarlink.parse import parse_polynomial
from polarlink.poly import Polynomial, det


def test_zero_polynomial_basics():
    z = Polynomial(2, {})
    assert z.is_zero()
    assert z.total_degree() == -1
    assert z.order_of_vanishing() is None
    assert z + z == z
    assert z * p2("x+y") == z


def test_constructor_drops_zero_coefficients():
    q = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert q == p2("2*y")
    assert (1, 0) not in q.terms


def test_immutability():
    f = p2("x+y")
    with pytest.raises(AttributeError):
        f.nvars = 3


def test_square_of_binomial():
    assert p2("(x+y)^2") == p2("x^2 + 2*x*y + y^2")


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        p2("x") ** -1


def test_degree_and_order():
    f = p2("x^2*y + y^3 + x")
    assert f.total_degree() == 3
    assert f.order_of_vanishing() == 1
    assert f.constant_term() == 0


def test_leading_monomials_global_vs_local():
    f = p2("x^2 + y^3")
    assert max(f.terms, key=GLOBAL.key) == (0, 3)
    assert max(f.terms, key=LOCAL.key) == (2, 0)


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial(a.nvars, {})


@given(polynomials(), polynomials())
def test_leibniz_rule(a, b):
    for i in range(a.nvars):
        lhs = (a * b).partial_derivative(i)
        rhs = a.partial_derivative(i) * b + a * b.partial_derivative(i)
        assert lhs == rhs


@given(nonzero_polynomials(), nonzero_polynomials())
def test_degree_is_additive(a, b):
    prod = a * b
    assert prod.total_degree() == a.total_degree() + b.total_degree()
    assert prod.order_of_vanishing() == a.order_of_vanishing() + b.order_of_vanishing()


@given(nonzero_polynomials(), nonzero_polynomials())
def test_leading_monomial_is_multiplicative(a, b):
    for order in (GLOBAL, LOCAL):
        la = max(a.terms, key=order.key)
        lb = max(b.terms, key=order.key)
        lab = max((a * b).terms, key=order.key)
        assert lab == tuple(x + y for x, y in zip(la, lb))


def test_substitute_linear_known_value():
    f = p2("x*y")
    # x -> x + 2y, y -> x - y
    g = f.substitute_linear([[1, 2], [1, -1]])
    assert g == p2("x^2 + x*y - 2*y^2")


@given(nonzero_polynomials(nvars=3, max_terms=4, max_exp=2))
def test_substitute_linear_roundtrip(f):
    m = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    back = [[Fraction(c, 3) for c in row] for row in [[1, -2, 2], [1, 1, -1], [-1, 2, 1]]]
    assert f.substitute_linear(m).substitute_linear(back) == f


def test_substitute_zero_drops_variables():
    # The reference that frame restrictions are checked against, and the
    # identity frame's restriction, which it must agree with.
    f = p3("x^2 + y^2*z + z^3")
    g = substitute_zero(f, [0])
    assert g.nvars == 2
    assert g == parse_polynomial("y^2*z + z^3", ["y", "z"]) == identity_frame(3).restrict(f, 1)
    assert substitute_zero(f, [0, 1]) == parse_polynomial("z^3", ["z"]) == identity_frame(3).restrict(f, 2)


def test_substitute_zero_can_kill_everything():
    f = p2("x*y")
    assert substitute_zero(f, [0]).is_zero()
    assert identity_frame(2).restrict(f, 1).is_zero()


@given(nonzero_polynomials(nvars=2, max_terms=6))
def test_to_str_parse_roundtrip(f):
    assert parse_polynomial(f.to_str(V2), V2) == f


def test_to_str_examples():
    assert p2("y^3 - 3*x^2*y - 1/2").to_str(V2) == "-3*x^2*y + y^3 - 1/2"
    assert Polynomial(2, {}).to_str(V2) == "0"
    assert Polynomial.constant(2, Fraction(-1, 3)).to_str(V2) == "-1/3"


def test_det_and_invert():
    m = [[2, 1, 0], [0, 1, 0], [1, 0, 1]]
    assert det(m) == 2


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 5 by 5; in about half of those of size
    at least 2 the last row is a combination of two others, so singular."""
    n = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


@given(integer_matrices())
def test_det_is_the_fraction_determinant(m):
    assert det(m) == fraction_det(m)
    assert type(det(m)) is int
