"""Monomial order semantics: degrevlex, its local mirror, elimination blocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import monomials, reference_key
from polarlink.errors import DegreeLimitError
from polarlink.orders import (
    DEGREE_LIMIT,
    GLOBAL,
    LOCAL,
    elimination,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def test_degrevlex_examples():
    # degree first; ties broken against the *last* variable with more weight
    assert GLOBAL.key((2, 0)) > GLOBAL.key((0, 1))
    assert GLOBAL.key((1, 0)) > GLOBAL.key((0, 1))
    assert GLOBAL.key((1, 1, 0)) > GLOBAL.key((1, 0, 1))
    assert GLOBAL.key((0, 2, 0)) > GLOBAL.key((1, 0, 1))


def test_local_order_prefers_low_degree():
    assert LOCAL.key((1, 0)) > LOCAL.key((0, 2))
    assert LOCAL.key((0, 0)) > LOCAL.key((1, 0))
    # within a degree it agrees with the global tie-break
    assert LOCAL.key((1, 1, 0)) > LOCAL.key((1, 0, 1))


def test_elimination_blocks_tag_first():
    order = elimination(1)
    # any power of the tag beats anything tag-free
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((2, 0, 0)) > order.key((1, 9, 9))


@given(monomials(3), monomials(3), monomials(3))
def test_orders_respect_multiplication(a, b, c):
    for order in (GLOBAL, LOCAL, elimination(1)):
        if order.key(a) > order.key(b):
            assert order.key(mono_mul(a, c)) > order.key(mono_mul(b, c))


@given(monomials(3), monomials(3))
def test_divisibility_helpers_agree(a, b):
    prod = mono_mul(a, b)
    assert mono_divides(a, prod)
    assert mono_div(prod, a) == b
    lcm = mono_lcm(a, b)
    assert mono_divides(a, lcm) and mono_divides(b, lcm)


@given(monomials(4))
def test_one_divides_everything(m):
    assert mono_divides((0, 0, 0, 0), m)


ORDERS = (GLOBAL, LOCAL, elimination(1))

# Exponents small and large; five of the large ones stay below the limit.
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, (DEGREE_LIMIT - 1) // 5))


def pairs_of_monomials(exponents):
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.tuples(*[exponents] * n), st.tuples(*[exponents] * n))
    )


@given(pairs_of_monomials(EXPONENTS))
def test_packed_key_is_the_order(pair):
    a, b = pair
    for order in ORDERS:
        assert (order.key(a) > order.key(b)) == (reference_key(order, a) > reference_key(order, b))
        assert (order.key(a) == order.key(b)) == (a == b)


@given(pairs_of_monomials(st.integers(0, (DEGREE_LIMIT - 1) // 10)))
def test_packed_key_is_linear(pair):
    a, b = pair
    for order in ORDERS:
        assert order.key(mono_mul(a, b)) == order.key(a) + order.key(b)


def test_packed_key_at_the_degree_limit():
    top = DEGREE_LIMIT - 1
    monos = [(top, 0, 0), (0, top, 0), (0, 0, top), (top - 1, 0, 1), (1, top - 1, 0), (0, 1, 0)]
    for order in ORDERS:
        by_key = sorted(monos, key=order.key)
        assert by_key == sorted(monos, key=lambda m: reference_key(order, m))
    assert elimination(1).key((1, 0, 0)) > elimination(1).key((0, top, 0))


@pytest.mark.parametrize("mono", [(DEGREE_LIMIT, 0), (DEGREE_LIMIT // 2, DEGREE_LIMIT // 2)])
def test_packed_key_refuses_monomials_past_the_limit(mono):
    for order in ORDERS:
        with pytest.raises(DegreeLimitError):
            order.key(mono)
