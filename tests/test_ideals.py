"""Groebner and local standard-basis engine: frozen small cases plus
structural properties."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    V2,
    _reduce_global,
    canonical,
    exact_divide,
    fraction_remainder,
    ideal_quotient,
    intersect,
    is_member,
    macaulay_leads,
    monomials_below,
    nonzero_polynomials,
    p2,
    p3,
    polynomials,
    record_calls,
    reduced_basis,
    saturate_by_quotients,
    tag_free_part,
    tagged,
    time_limit,
)
from polarlink import ideals
from polarlink.ideals import (
    Ideal,
    _element,
    _heap,
    _minimalize,
    _normal_form,
    _staircase,
    _standard_basis_raw,
    _terms,
    dimension,
    local_colength,
    mora_standard_basis,
    saturate,
)
from polarlink.errors import DegreeLimitError
from polarlink.oracle import stable_colength
from polarlink.orders import DEGREE_LIMIT, GLOBAL, elimination, mono_deg, mono_divides
from polarlink.parse import parse_polynomial
from polarlink.polar import CoordinateFrame, jacobian_ideal, polar_ideal, sample_frames
from polarlink.poly import Polynomial, integer_terms
from polarlink.report import RunConfig, run_compute


def ideal2(*texts):
    return Ideal(tuple(p2(t) for t in texts), 2)


def ideal3(*texts):
    return Ideal(tuple(p3(t) for t in texts), 3)


def engine_basis(I, order):
    """The engine's unreduced basis of I under a global order, as its
    elements."""
    return _standard_basis_raw(map(integer_terms, I.gens), order)


def elements(polys, order):
    return [_element(integer_terms(g), order) for g in polys]


def remainder(p, G, order=GLOBAL):
    """The engine's remainder of p by the elements G under a global order,
    an integer term dict up to a positive factor."""
    h = integer_terms(p)
    return _normal_form(h, _heap(h, order), G)


def global_leads(I):
    return tuple(max(g.terms, key=GLOBAL.key) for g in reduced_basis(I))


# --- construction -------------------------------------------------------


def test_ideal_drops_zero_generators():
    I = Ideal((p2("0"), p2("x")), 2)
    assert I.gens == (p2("x"),)


def test_ideal_rejects_mixed_rings():
    with pytest.raises(ValueError):
        Ideal((p2("x"), p3("z")), 2)


def test_zero_ideal_needs_explicit_nvars():
    assert not Ideal((), 2).gens


# --- Groebner bases -----------------------------------------------------


def test_gb_already_reduced():
    assert reduced_basis(ideal2("x", "y")) == (p2("y"), p2("x"))


def test_gb_elimination_consequences():
    I = ideal2("x^2 - y", "x^3")
    gb = reduced_basis(I)
    assert [g.to_str(V2) for g in gb] == ["y^2", "x*y", "x^2 - y"]
    assert not remainder(p2("x^3"), elements(gb, GLOBAL))
    assert is_member(p2("x*y"), I)
    assert dimension(global_leads(I), 2) == 0


def test_gb_of_zero_ideal():
    assert reduced_basis(Ideal((), 2)) == ()


def test_gb_unit_ideal():
    I = ideal2("x", "x+1")
    assert reduced_basis(I) == (Polynomial.constant(2, 1),)
    assert dimension(global_leads(I), 2) == -1


def test_gb_unique_across_generator_orderings():
    a = reduced_basis(ideal2("x^2+y", "x*y+1", "y^3-2"))
    b = reduced_basis(ideal2("y^3-2", "x*y+1", "x^2+y"))
    c = reduced_basis(ideal2("x*y+1", "y^3-2", "x^2+y"))
    assert a == b == c


def _spoly_for_test(f, g, order):
    from polarlink.orders import mono_div, mono_lcm

    lf, lg = max(f.terms, key=order.key), max(g.terms, key=order.key)
    lcm = mono_lcm(lf, lg)
    a = Polynomial(f.nvars, {mono_div(lcm, lf): 1 / f.terms[lf]})
    b = Polynomial(g.nvars, {mono_div(lcm, lg): 1 / g.terms[lg]})
    return a * f - b * g


def assert_primitive(basis, order):
    """Every element has integer coefficients with gcd 1 and a positive
    leading coefficient under order."""
    for g in basis:
        assert all(c.denominator == 1 for c in g.terms.values())
        assert gcd(*(c.numerator for c in g.terms.values())) == 1
        assert g.terms[max(g.terms, key=order.key)] > 0


@settings(max_examples=25)
@given(st.lists(nonzero_polynomials(nvars=2, max_terms=3, max_exp=2), min_size=1, max_size=3))
def test_buchberger_criterion(gens):
    I = Ideal(tuple(gens), 2)
    basis = reduced_basis(I)
    assert_primitive(basis, GLOBAL)
    G = elements(basis, GLOBAL)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _spoly_for_test(basis[i], basis[j], GLOBAL)
            assert not remainder(s, G)


def assert_groebner_by_fraction_division(basis, gens, order):
    """basis is a Groebner basis of an ideal holding gens, checked with the
    Fraction division loop of the helpers, which shares no code with the
    engine's pair queue or reduction: every generator and every
    S-polynomial reduces to zero."""
    for g in gens:
        assert fraction_remainder(g, basis, order).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = _spoly_for_test(basis[i], basis[j], order)
            assert fraction_remainder(s, basis, order).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.lists(nonzero_polynomials(nvars=3, max_terms=3, max_exp=2), min_size=1, max_size=3))
def test_the_reduced_basis_passes_buchberger_by_fraction_division(gens):
    I = Ideal(tuple(gens), 3)
    assert_groebner_by_fraction_division(reduced_basis(I), I.gens, GLOBAL)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(nonzero_polynomials(nvars=2, max_terms=3, max_exp=2), min_size=1, max_size=2),
    st.lists(nonzero_polynomials(nvars=2, max_terms=2, max_exp=2), min_size=1, max_size=2),
    st.data(),
)
def test_a_seeded_elimination_basis_passes_buchberger_by_fraction_division(gens, hs, data):
    # A minimal degrevlex basis of I, as saturate builds it, lifted with
    # zero tag exponents, is the settled prefix: no pair within it is
    # formed.  The rest are a Rabinowitsch polynomial in r = len(hs) tags
    # and a random polynomial in the tags and the variables.
    r = len(hs)
    order = elimination(r)
    gb = [Polynomial(2, _terms(g)) for g in _minimalize(engine_basis(Ideal(tuple(gens), 2), GLOBAL))]
    rabinowitsch = Polynomial.constant(r + 2, 1)
    for i, h in enumerate(hs):
        rabinowitsch = rabinowitsch - tagged(h, tuple(int(j == i) for j in range(r)))
    extra = data.draw(nonzero_polynomials(nvars=r + 2, max_terms=2, max_exp=1))
    inputs = [tagged(g, (0,) * r) for g in gb] + [rabinowitsch, extra]
    raw = _standard_basis_raw(map(integer_terms, inputs), order, settled=len(gb))
    basis = [Polynomial(r + 2, _terms(g)) for g in _reduce_global(raw, order)]
    assert_groebner_by_fraction_division(basis, inputs, order)


@settings(max_examples=25)
@given(
    st.lists(nonzero_polynomials(nvars=2, max_terms=3, max_exp=2), min_size=1, max_size=2),
    nonzero_polynomials(nvars=2, max_terms=3, max_exp=2),
)
def test_membership_agrees_with_tag_elimination(gens, p):
    I = Ideal(tuple(gens), 2)
    direct = is_member(p, I)
    # I cap (p) carries the same answer and is computed by tag elimination
    via_tag = is_member(p, intersect(I, Ideal((p,), 2)))
    assert direct == via_tag


# --- normal forms -------------------------------------------------------


def test_normal_form_member_is_zero():
    assert not remainder(p2("x^2"), engine_basis(ideal2("x", "y"), GLOBAL))


def test_normal_form_constant_remainder():
    assert remainder(p2("x+1"), engine_basis(ideal2("x"), GLOBAL)) == {(0, 0): 1}


@settings(max_examples=40)
@given(
    st.lists(nonzero_polynomials(nvars=3, max_terms=3, max_exp=2), min_size=1, max_size=2),
    polynomials(nvars=3, max_terms=6, max_exp=3),
    st.lists(st.builds(Fraction, st.integers(2, 9), st.integers(1, 9)), min_size=3, max_size=3),
)
def test_normal_form_is_the_exact_fraction_remainder(gens, p, scales):
    # Fractional dividends and generators, at most two generators in three
    # variables so the ideal is rarely the unit ideal; the reduced basis is
    # also rescaled by fractions with numerators of at least 2, so the
    # reference divides by leading coefficients that are not 1.  The
    # engine's remainder is the reference's times a positive factor.
    gb = reduced_basis(Ideal(tuple(gens), 3))
    scaled = tuple(g * Polynomial.constant(3, c) for g, c in zip(gb, scales * len(gb)))
    for basis in (gb, scaled):
        want = fraction_remainder(p, basis, GLOBAL)
        got = remainder(p, elements(basis, GLOBAL))
        assert got.keys() == want.terms.keys()
        if got:
            m = next(iter(got))
            factor = Polynomial.constant(3, got[m] / want.terms[m])
            assert factor.constant_term() > 0 and Polynomial(3, got) == want * factor


def test_mora_reduction_refuses_terms_past_the_degree_limit():
    # Homogenized, x + y^(L-2) is s^(L-3)*x + y^(L-2), led by s^(L-3)*x;
    # its S-polynomial with x^3 has the lcm s^(L-3)*x^3, of degree L,
    # beyond what the packed keys can order.
    y_power = p2("y") ** (DEGREE_LIMIT - 2)
    with pytest.raises(DegreeLimitError):
        mora_standard_basis(Ideal((p2("x") + y_power, p2("x^3")), 2))


def test_normal_form_against_empty_basis():
    assert remainder(p2("x+y"), []) == {(1, 0): 1, (0, 1): 1}


# --- local standard bases -----------------------------------------------


def test_mora_unit_multiple_of_variable():
    assert mora_standard_basis(ideal2("x + x^2")) == ((1, 0),)
    assert local_colength(ideal2("x + x^2", "y")) == 1


def test_mora_cusp_jacobian_like_ideal():
    lms = mora_standard_basis(ideal2("y^2", "x^2+y^3"))
    assert set(lms) == {(0, 2), (2, 0)}
    outside = [m for m in monomials_below(2, 6) if not any(mono_divides(lm, m) for lm in lms)]
    assert sorted(outside) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_mora_single_variable():
    assert mora_standard_basis(ideal2("x")) == ((1, 0),)


def test_mora_leads_are_minimal():
    # Under the local order a divisor of a lead is larger than the lead:
    # x divides x^2 and x*y, and only the leads of least degree generate.
    assert mora_standard_basis(ideal2("x^2", "x + y^5")) == ((1, 0), (0, 10))
    assert mora_standard_basis(ideal2("x^2+y^3", "x*y", "x + y^4")) == ((1, 0), (0, 3))


def test_mora_detects_local_unit():
    assert mora_standard_basis(ideal2("1 + x")) == ((0, 0),)


# --- the quotient loop's pieces, and saturation --------------------------


def test_exact_divide():
    assert exact_divide(p2("x^2*y + x*y^2"), p2("x*y")) == p2("x + y")
    with pytest.raises(ArithmeticError):
        exact_divide(p2("x^2 + y"), p2("x"))


def test_intersection_principal():
    K = intersect(ideal2("x"), ideal2("y"))
    assert canonical(K).gens == (p2("x*y"),)


def test_quotient_monomial_case():
    Q = ideal_quotient(ideal2("x^2", "x*y"), ideal2("x"))
    assert canonical(Q).gens == canonical(ideal2("x", "y")).gens


def test_quotient_by_nonzerodivisor():
    Q = ideal_quotient(ideal2("x"), ideal2("y"))
    assert canonical(Q).gens == (p2("x"),)


def test_quotient_by_unit_ideal_is_identity():
    I = ideal2("x^2", "x*y")
    Q = ideal_quotient(I, ideal2("1"))
    assert canonical(Q).gens == canonical(I).gens


def test_quotient_by_zero_ideal_rejected():
    with pytest.raises(ValueError):
        ideal_quotient(ideal2("x"), Ideal((), 2))


def test_saturation_classic():
    sat, e = saturate(ideal2("x^2", "x*y"), ideal2("x", "y"))
    assert canonical(sat).gens == (p2("x"),)
    assert e == 1


def test_saturation_by_the_zero_ideal_is_the_unit_ideal():
    # I : (0)^infinity is the whole ring, reached at exponent 1 unless I is
    # already the unit ideal.
    sat, e = saturate(ideal2("x^2", "x*y"), Ideal((), 2))
    assert (canonical(sat).gens, e) == ((p2("1"),), 1)
    assert saturate(ideal2("1"), Ideal((), 2)) == (ideal2("1"), 0)


def test_saturation_strips_a_factor():
    sat, e = saturate(ideal2("x*y"), ideal2("x"))
    assert canonical(sat).gens == (p2("y"),)
    assert e == 1


def test_saturation_by_unit_is_noop():
    I = ideal2("x^2", "y")
    sat, e = saturate(I, ideal2("1"))
    assert canonical(sat).gens == canonical(I).gens
    assert e == 0


def test_saturation_of_two_lines_by_the_origin_is_a_noop():
    # Neither line of I is the origin, so I is saturated by J = (x, y);
    # x + 2y, a fixed combination of J's generators, divides I.
    I = ideal2("x^2 + 2*x*y")
    sat, e = saturate(I, ideal2("x", "y"))
    assert canonical(sat).gens == canonical(I).gens
    assert e == 0


def test_saturation_by_an_ideal_inside_i_is_the_unit_ideal():
    sat, e = saturate(ideal2("x^2", "y"), ideal2("x^2", "x*y"))
    assert canonical(sat).gens == (Polynomial.constant(2, 1),)
    assert e == 1


def test_saturation_of_the_unit_ideal_has_exponent_zero():
    sat, e = saturate(ideal2("1"), ideal2("x", "y"))
    assert canonical(sat).gens == (Polynomial.constant(2, 1),)
    assert e == 0


def test_saturation_of_the_zero_ideal_is_the_zero_ideal():
    # polar_ideal saturates a zero partial ideal like any other.
    assert saturate(Ideal((), 2), ideal2("x", "y")) == (Ideal((), 2), 0)


@pytest.mark.parametrize("text", ["x*y*(x+y)", "x*y*(x+y)*(x-y)"])
def test_polar_saturations_of_line_arrangements_match_the_quotient_loop(text):
    # At frame seed 2 these polar ideals are saturated by two or three
    # Jacobian generators outside the ideal at once.
    f = p3(text)
    outside = set()
    for frame in sample_frames(3, 5, seed=2):
        fM = frame.restrict(f, 0)
        J = jacobian_ideal(fM)
        for k in (1, 2):
            I = Ideal([fM.partial_derivative(i) for i in range(k, 3)], 3)
            sat, e = saturate(I, J)
            loop_sat, loop_e = saturate_by_quotients(I, J)
            assert (canonical(sat).gens, e) == (loop_sat.gens, loop_e)
            outside.add(sum(not is_member(h, I) for h in J.gens))
    assert max(outside) >= 2


ideal_gens = st.lists(
    nonzero_polynomials(nvars=2, max_terms=2, max_exp=2), min_size=1, max_size=2
)
saturator_gens = st.lists(
    nonzero_polynomials(nvars=2, max_terms=2, max_exp=2), min_size=1, max_size=3
)


@settings(max_examples=25)
@given(ideal_gens, saturator_gens)
def test_saturation_matches_the_quotient_loop(gens, jgens):
    I = Ideal(tuple(gens), 2)
    J = Ideal(tuple(jgens), 2)
    sat, e = saturate(I, J)
    loop_sat, loop_e = saturate_by_quotients(I, J)
    assert canonical(sat).gens == loop_sat.gens
    assert e == loop_e
    assert_primitive(sat.gens, GLOBAL)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(nonzero_polynomials(nvars=3, max_terms=2, max_exp=2), min_size=1, max_size=2),
    st.lists(nonzero_polynomials(nvars=3, max_terms=2, max_exp=1), min_size=2, max_size=3),
)
def test_saturation_by_several_tags_in_three_variables_matches_the_quotient_loop(gens, jgens):
    I = Ideal(tuple(gens), 3)
    J = Ideal(tuple(jgens), 3)
    assume(sum(not is_member(h, I) for h in J.gens) >= 2)
    sat, e = saturate(I, J)
    loop_sat, loop_e = saturate_by_quotients(I, J)
    assert (canonical(sat).gens, e) == (loop_sat.gens, loop_e)


@pytest.mark.parametrize(
    "gens, jgens, exponent",
    [
        (("x^3+x^3*y", "x*y*z"), ("x^2+x*y", "x*z", "x*z+x"), 3),
        (("x^2*z^2+x^3", "x+y", "y^3+z^2"), ("x*z+z", "y+y^2"), 4),
        (("y*z^3+x*z", "y*z^3+x^2"), ("z", "x"), 4),
    ],
)
def test_the_saturation_exponent_waits_for_every_distinct_remainder(gens, jgens, exponent):
    # In each of these the first remainder of a round leaves I a round
    # before another one does, so an exponent read from one remainder per
    # round would be too small.
    I, J = ideal3(*gens), ideal3(*jgens)
    sat, e = saturate(I, J)
    assert (canonical(sat).gens, e) == (saturate_by_quotients(I, J)[0].gens, exponent)


def test_saturations_of_four_planes_form_few_s_polynomials(monkeypatch):
    # x*y*z*w at frame seed 0 saturates 18 polar ideals; the tag
    # elimination starts from the basis of I and takes pairs by sugar.
    # Pairs by degree from the generators of I formed 462.  Saturated in
    # the frame's coordinates, where x*y*z*w is a dense quartic, they
    # formed 225; in the coordinates of f they form 215.  The gate's basis
    # of the homogenized Jacobian ideal, under elimination(1), forms 3 more,
    # and Lazard's bases behind the local colengths of the sections and
    # cuts 27: every basis is built under a global order.
    formed = record_calls(monkeypatch, ideals, "_spoly")
    run_compute(RunConfig("x*y*z*w", ("x", "y", "z", "w"), seed=0))
    assert len(formed) == 245


@pytest.mark.parametrize("text", ["x^3+y^4+z^2", "x^3+x*y^3+z^2"])
def test_every_reducer_is_an_element(monkeypatch, text):
    # Every reducer is a basis element: its tail a tuple sorted by -key
    # after its lead, lc > 0, primitive, and spread the largest term degree
    # less that of its lead.
    steps = record_calls(monkeypatch, ideals, "_reduce_step")
    run_compute(RunConfig(text, ("x", "y", "z"), seed=0))
    assert steps
    for args, _ in steps:
        lm, nlk, lc, tail, spread = args[4]
        assert type(tail) is tuple and list(tail) == sorted(tail)
        assert all(nlk < k for k, _, _ in tail)
        assert lc > 0 and gcd(lc, *(c for _, _, c in tail)) == 1
        assert spread == max(mono_deg(m) for m in (lm, *(m for _, m, _ in tail))) - mono_deg(lm)


@settings(max_examples=20)
@given(ideal_gens, saturator_gens)
def test_quotient_and_saturation_grow(gens, jgens):
    I = Ideal(tuple(gens), 2)
    J = Ideal(tuple(jgens), 2)
    Q = ideal_quotient(I, J)
    S, _ = saturate(I, J)
    for h in I.gens:
        assert is_member(h, Q)
    for h in Q.gens:
        assert is_member(h, S)


def whole_elimination_saturation(I, J):
    """The generators of I : J^infinity that the tag-free part of the whole
    reduced elimination basis of I + (1 - sum t_i*h_i) gives, h_i the
    generators of J outside I."""
    hs = [h for h in J.gens if not is_member(h, I)]
    r = len(hs)
    rabinowitsch = Polynomial.constant(r + 2, 1)
    for i, h in enumerate(hs):
        rabinowitsch = rabinowitsch - tagged(h, tuple(int(j == i) for j in range(r)))
    lifted = [tagged(f, (0,) * r) for f in I.gens] + [rabinowitsch]
    return tag_free_part(Ideal(lifted, r + 2), r)


@given(ideal_gens, saturator_gens)
def test_saturation_meets_the_whole_elimination_basis(gens, jgens):
    I, J = Ideal(tuple(gens), 2), Ideal(tuple(jgens), 2)
    assert canonical(saturate(I, J)[0]).gens == whole_elimination_saturation(I, J)


@settings(max_examples=30, deadline=None)
@given(ideal_gens, saturator_gens)
@example([p2("x+y"), p2("x^2+y")], [p2("x")])
def test_saturation_returns_a_minimal_groebner_basis(gens, jgens):
    # No basis is interreduced: the generators are a Groebner basis of the
    # saturation whose leads divide no other lead, not its reduced basis.
    # In the example that basis is (y+1, x+y), and the reduced one (y+1, x-1).
    I, J = Ideal(tuple(gens), 2), Ideal(tuple(jgens), 2)
    sat = saturate(I, J)[0]
    expected = whole_elimination_saturation(I, J)
    assert_groebner_by_fraction_division(sat.gens, expected, GLOBAL)
    leads = [max(g.terms, key=GLOBAL.key) for g in sat.gens]
    for i, lm in enumerate(leads):
        assert not any(mono_divides(m, lm) for m in leads[:i] + leads[i + 1 :])
    assert canonical(sat).gens == expected


# --- dimension and colength ----------------------------------------------


def test_dimension_point():
    assert dimension(mora_standard_basis(ideal2("x", "y")), 2) == 0


def test_dimension_curve():
    assert dimension(mora_standard_basis(ideal2("x*y")), 2) == 1


def test_dimension_unit():
    assert dimension(mora_standard_basis(ideal2("1")), 2) == -1


def test_dimension_zero_ideal_is_ambient():
    assert dimension(mora_standard_basis(Ideal((), 3)), 3) == 3


INVERTIBLE = [
    [[1, 1], [0, 1]],
    [[2, 1], [1, 1]],
    [[1, -2], [3, -5]],
    [[0, 1], [1, 0]],
]


@settings(max_examples=20)
@given(
    st.lists(nonzero_polynomials(nvars=2, max_terms=3, max_exp=2), min_size=1, max_size=2),
    st.sampled_from(INVERTIBLE),
)
def test_dimension_invariant_under_linear_change(gens, m):
    I = Ideal(tuple(gens), 2)
    moved = Ideal(tuple(g.substitute_linear(m) for g in gens), 2)
    assert dimension(global_leads(I), 2) == dimension(global_leads(moved), 2)
    assert dimension(mora_standard_basis(I), 2) == dimension(mora_standard_basis(moved), 2)


def test_colength_monomial():
    assert local_colength(ideal2("x", "y^2")) == 2


def test_colength_cusp_like():
    assert local_colength(ideal2("y^2", "x^2+y^3")) == 4


def test_colength_positive_dimension_is_infinite():
    assert local_colength(ideal2("x*y")) is None
    assert local_colength(Ideal((), 2)) is None


def test_colength_unit():
    assert local_colength(ideal2("1 + y")) == 0


def test_colength_sees_local_units():
    # x - x^2 differs from x by a local unit, so the quotient is a point
    assert local_colength(ideal2("x - x^2", "y")) == 1


@pytest.mark.parametrize("text", ["x^2*y^2+z^2*w", "x*y*z*w"])
def test_a_jacobian_ideal_that_is_not_m_primary_is_infinite_in_dense_coordinates(text):
    # In a random frame Mora's uncut loop ran past 60 s on the first;
    # Lazard's leads miss a pure power of some variable, so their staircase
    # is infinite.
    (frame,) = sample_frames(4, 1, 0)
    J = jacobian_ideal(frame.restrict(parse_polynomial(text, ("x", "y", "z", "w")), 0))
    with time_limit(10):
        assert local_colength(J) is None


def test_a_teissier_meet_with_fewer_generators_than_variables_is_infinite_at_once(monkeypatch):
    # The meet of this f's second polar ideal in the frame with f has two
    # generators in three variables: a loop under the local order cut at
    # a degree ran past 90 s at the cut 32.  Krull's height theorem settles
    # it before any basis is built.
    f = p3("12/5*x^2*y^3*z^2 + 1/7*x^2*y*z^3 + 3/7*y^3*z")
    pol = polar_ideal(f, CoordinateFrame(((0, 1, -2), (2, 2, 2), (1, -1, 1))), 2)
    meet = Ideal(pol.ideal.gens + (f,), 3)
    assert len(meet.gens) < meet.nvars
    loops = record_calls(monkeypatch, ideals, "_standard_basis_raw")
    with time_limit(5):
        assert local_colength(meet) is None
    assert loops == []


def vanishing_at_zero(nvars):
    return polynomials(nvars, max_terms=3, max_exp=2).map(
        lambda p: Polynomial(nvars, {m: c for m, c in p.terms.items() if any(m)})
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(vanishing_at_zero(n), max_size=n - 1).map(lambda gens: Ideal(gens, n))
    )
)
def test_fewer_generators_than_variables_all_vanishing_at_0_are_never_m_primary(I):
    # Krull: every minimal prime of I*O has height at most the number of
    # generators, below the number of variables.  The truncation oracle
    # can never certify such an ideal, so it agrees.
    assert local_colength(I) is None
    assert stable_colength(I, 2, 8).stable is False


# --- the highest corner -------------------------------------------------


@pytest.mark.parametrize(
    "lms, nvars",
    [
        ([(2, 0), (0, 3)], 2),
        ([(3, 0), (1, 1), (0, 4)], 2),
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 3),
        ([(1, 0, 0), (0, 3, 0), (0, 1, 1), (0, 0, 5)], 3),
        ([(0, 0)], 2),
    ],
)
def test_staircase_counts_the_monomials_outside_the_leads(lms, nvars):
    outside = [m for m in monomials_below(nvars, 12) if not any(mono_divides(lm, m) for lm in lms)]
    assert _staircase(lms, nvars) == len(outside)


def test_staircase_of_leads_that_miss_a_pure_power_is_infinite():
    assert _staircase([(2, 0), (1, 1)], 2) is None
    assert _staircase([(0, 0, 1), (1, 1, 0)], 3) is None
    assert _staircase([], 2) is None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
    )
)
@example((2, [(0, 0)]))
@example((3, [(0, 0, 0), (1, 0, 0)]))
def test_staircase_is_none_exactly_where_the_leads_have_positive_dimension(case):
    # So the gate reads mu from the staircase of its leads for every s, the
    # unit ideal (dimension -1, staircase 0) included.
    nvars, lms = case
    assert (_staircase(lms, nvars) is None) == (dimension(lms, nvars) >= 1)


def m_primary_ideals():
    """Ideals with a pure power z_i^a_i per variable, plus terms of higher
    degree, as a generator each, and up to two more random generators:
    every z_i^a_i lies in the leading ideal, so the ideal is m-primary (or
    the unit ideal)."""

    def build(n):
        powers = st.lists(st.integers(1, 3), min_size=n, max_size=n)
        tails = st.lists(polynomials(nvars=n, max_terms=3, max_exp=2), min_size=n, max_size=n)
        extra = st.lists(nonzero_polynomials(nvars=n, max_terms=3, max_exp=2), max_size=2)
        return st.tuples(powers, tails, extra).map(lambda t: _m_primary(n, *t))

    return st.integers(2, 3).flatmap(build)


def _m_primary(n, powers, tails, extra):
    gens = []
    for i, (a, tail) in enumerate(zip(powers, tails)):
        power = tuple(a if j == i else 0 for j in range(n))
        higher = {m: c for m, c in tail.terms.items() if sum(m) > a}
        gens.append(Polynomial(n, {power: 1, **higher}))
    return Ideal(tuple(gens) + tuple(extra), n)


@settings(max_examples=40, deadline=None)
@given(m_primary_ideals())
def test_local_colength_meets_one_cut_and_the_truncation_oracle(I):
    # The oracle certifies m^c in I*O for some c <= 16 from the multiples
    # of the generators cut below one degree, and counts what they leave.
    r = stable_colength(I, 4, hard_cap=16)
    assert r.stable
    assert local_colength(I) == r.value


@settings(max_examples=40, deadline=None)
@given(m_primary_ideals())
def test_lazards_leads_are_the_macaulay_pivots_below_degree_17(I):
    # Lazard's route and the Macaulay matrix share no code path: one is a
    # Groebner basis of the homogenized generators, the other an echelon
    # form of the truncated multiples of the generators.  The pure powers
    # z_i^a_i, a_i <= 3, put the corner at 7 or below, so every minimal
    # lead of I*O lies below degree 17.
    assert mora_standard_basis(I) == macaulay_leads(I, 17)


def test_a_local_colength_builds_one_basis(monkeypatch):
    # x^2+y^4+z^5 and its slice by z_0 = 0 in the first frame at seed 0:
    # each colength reads the leads of one Groebner basis of the
    # homogenized generators, and never restarts from the generators at a
    # larger degree.
    f = p3("x^2+y^4+z^5")
    (frame,) = sample_frames(3, 1, seed=0)
    for g, mu in ((f, 12), (frame.restrict(f, 1), 3)):
        with monkeypatch.context() as patch:
            loops = record_calls(patch, ideals, "_standard_basis_raw")
            assert local_colength(jacobian_ideal(g)) == mu
        assert len(loops) == 1
