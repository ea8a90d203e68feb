"""The truncated-colength oracle and the other independent cross-checks.

These are the trust anchors for the standard-basis engine, so they get
their own frozen cases before anything downstream relies on them.
"""

import types
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    V2,
    fraction_echelon_pivots,
    identity_frame,
    nonzero_polynomials,
    p2,
    p3,
    truncated_colength_by_two_eliminations,
)
from polarlink import oracle
from polarlink.errors import NonIsolated
from polarlink.ideals import Ideal, local_colength
from polarlink.oracle import (
    bezout_gamma,
    default_cap,
    monomials_below,
    stable_colength,
    teissier_check,
    truncated_colength,
    verdict,
)
from polarlink.polar import (
    CoordinateFrame,
    jacobian_ideal,
    milnor_number,
    polar_ideal,
    sample_frames,
)
from polarlink.orders import GLOBAL
from polarlink.poly import INFINITE, integer_terms
from polarlink.report import RunConfig, run_compute


def ideal2(*texts):
    return Ideal(tuple(p2(t) for t in texts), 2)


def test_monomials_below_counts():
    assert len(monomials_below(1, 5)) == 5
    assert len(monomials_below(2, 4)) == 10
    assert len(monomials_below(3, 3)) == 10
    assert monomials_below(2, 0) == []


def test_truncated_simple_point():
    r = truncated_colength(ideal2("x", "y^2"), 4)
    assert (r.value, r.stable) == (2, True)


def test_truncated_cusp_pair():
    r = truncated_colength(ideal2("y^2", "x^2+y^3"), 6)
    assert (r.value, r.stable) == (4, True)


def test_truncated_positive_dimensional_never_stabilizes():
    r = truncated_colength(ideal2("x*y"), 4)
    assert not r.stable
    r2 = truncated_colength(ideal2("x*y"), 8)
    assert not r2.stable
    assert r2.value > r.value


def test_truncated_cap_too_small_is_unstable():
    # the ideal has colength 4 but cap 2 sees too little
    r = truncated_colength(ideal2("y^2", "x^2+y^3"), 2)
    assert not r.stable


def test_stable_colength_doubles_until_stable():
    r = stable_colength(ideal2("y^2", "x^2+y^3"), 2)
    assert r.stable
    assert r.value == 4
    assert r.cap > 2


def test_truncated_unit_ideal():
    r = truncated_colength(ideal2("1 + x"), 4)
    assert (r.value, r.stable) == (0, True)


def test_truncated_zero_ideal():
    for nvars, cap in product(range(1, 4), range(1, 9)):
        zero = Ideal((), nvars)
        r = truncated_colength(zero, cap)
        assert not r.stable
        assert (r.value, r.stable, r.cap) == truncated_colength_by_two_eliminations(zero, cap)


def test_truncated_rational_generators():
    r = truncated_colength(ideal2("1/2*x^2+3/4*y^3", "2/3*y^2"), 6)
    assert (r.value, r.stable, r.cap) == (4, True, 6)


@given(st.lists(nonzero_polynomials(nvars=2, max_terms=5, max_exp=2), min_size=1, max_size=8))
def test_integer_elimination_meets_the_fraction_pivots(gens):
    rows = [integer_terms(g) for g in gens]
    key = {m: GLOBAL.key(m) for row in rows for m in row}
    pivots = oracle._echelon_pivots(rows, key)
    reference = fraction_echelon_pivots([g.terms for g in gens], key)
    assert pivots.keys() == reference.keys()
    for lead, row in pivots.items():
        assert {m: Fraction(c, row[lead]) for m, c in row.items()} == reference[lead]


ideals_in_one_to_three_variables = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        nonzero_polynomials(nvars=n, max_terms=3, max_exp=2), max_size=3
    ).map(lambda gens: Ideal(tuple(gens), n))
)


@settings(max_examples=200)
@given(ideals_in_one_to_three_variables, st.integers(1, 8))
def test_one_elimination_meets_the_two_eliminations(I, cap):
    r = truncated_colength(I, cap)
    assert (r.value, r.stable, r.cap) == truncated_colength_by_two_eliminations(I, cap)


def test_each_truncated_colength_runs_one_elimination(monkeypatch):
    echelon, calls = oracle._echelon_pivots, []

    def counting(rows, key):
        calls.append(key)
        return echelon(rows, key)

    monkeypatch.setattr(oracle, "_echelon_pivots", counting)
    ideals = (ideal2("y^2", "x^2+y^3"), ideal2("x*y"), Ideal((), 2))
    for I, cap in product(ideals, (1, 4, 9)):
        truncated_colength(I, cap)
    assert len(calls) == 9


def test_the_truncated_colength_uses_nothing_from_the_engine():
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    found = [
        f"{fn.__name__}: {name}"
        for fn in (truncated_colength, oracle._survivors, oracle._echelon_pivots)
        for name in names(fn.__code__)
        if getattr(getattr(oracle, name, None), "__module__", None) == "polarlink.ideals"
    ]
    assert found == []


@settings(max_examples=20)
@given(st.lists(nonzero_polynomials(nvars=2, max_terms=3, max_exp=2), min_size=1, max_size=3))
def test_oracle_matches_engine_when_stable(gens):
    I = Ideal(tuple(gens), 2)
    r = stable_colength(I, 8, hard_cap=16)
    engine = local_colength(I)
    if r.stable:
        assert engine == r.value
    else:
        assert engine is INFINITE


def test_bezout_table():
    assert bezout_gamma(2, 3, 0) == 0
    assert bezout_gamma(2, 3, 1) == 4
    assert bezout_gamma(2, 3, 2) == 2
    assert bezout_gamma(2, 3, 3) == 1
    assert bezout_gamma(1, 2, 1) == 1
    assert bezout_gamma(3, 2, 2) == 1
    with pytest.raises(ValueError):
        bezout_gamma(2, 3, 5)


def test_default_cap_scales_with_degree():
    assert default_cap(p2("x*y")) == 8
    assert default_cap(p2("x^4+y^4")) == 12


def test_verdict_passes_iff_equal():
    assert verdict("t", 3, 3).passed
    assert not verdict("t", 3, 4).passed


def test_teissier_cusp_identity_frame():
    f = p2("x^2+y^3")
    pol = polar_ideal(f, identity_frame(2), 1, jacobian_ideal(f))
    v = teissier_check(pol, milnor_number(f))
    assert v.passed
    assert (v.expected, v.actual) == (4, 4)


def test_teissier_cusp_generic_frames():
    f = p2("x^2+y^3")
    for fr in sample_frames(2, 3, seed=7):
        fM = fr.transform(f)
        v = teissier_check(polar_ideal(fM, fr, 1, jacobian_ideal(fM)), milnor_number(f))
        assert v.passed
        assert v.actual == 3  # mu 2 plus generic slice mu 1


def test_teissier_rejects_nonisolated():
    f = p3("y^2 - x^2*z")
    pol = polar_ideal(f, identity_frame(3), 1, jacobian_ideal(f))
    with pytest.raises(NonIsolated):
        teissier_check(pol, milnor_number(f))


def test_teissier_check_reuses_the_transformed_polynomial(monkeypatch):
    # gamma_profile transforms f once per frame; the Teissier check reads
    # that polynomial from the polar ideal instead of transforming again.
    calls = []
    transform = CoordinateFrame.transform

    def counting(frame, p):
        calls.append(frame)
        return transform(frame, p)

    monkeypatch.setattr(CoordinateFrame, "transform", counting)
    cfg = RunConfig("x^2+y^2+z^3", ("x", "y", "z"))
    doc, code = run_compute(cfg)
    assert code == 0
    assert len(calls) == cfg.trials == 5


def test_teissier_rejects_degenerate_frame():
    # the identity frame slices xy along one of its own branches
    f = p2("x*y")
    pol = polar_ideal(f, identity_frame(2), 1, jacobian_ideal(f))
    with pytest.raises(NonIsolated):
        teissier_check(pol, milnor_number(f))


# Isolated surfaces whose Teissier check used to stall in Mora's loop at
# frame seed 0, with the Teissier value mu + mu' there.
STALLING_SURFACES = {
    "x^2*y+y^4+z^2": 7,
    "x^2*y+y^5+z^2": 8,
    "x^3+y^4+z^2": 8,
    "x^3+x*y^3+z^2": 9,
    "x^3+y^5+z^2": 10,
    "x^2+y^4+z^4": 12,
    "x^2+y^4+z^5": 15,
    "x^3+y^4+z^4": 24,
}


@pytest.mark.parametrize("text, value", STALLING_SURFACES.items())
def test_surfaces_that_stalled_the_teissier_check_complete(text, value):
    doc, code = run_compute(RunConfig(text, ("x", "y", "z"), seed=0))
    assert code == 0
    assert doc["oracles"]["all_passed"] is True
    (teissier,) = [v for v in doc["oracles"]["verdicts"] if v["name"] == "teissier_polar_against_slice"]
    assert teissier["expected"] == teissier["actual"] == value


def test_the_slice_that_stalled_the_milnor_number_is_three():
    # x^2+y^4+z^5 cut by z_0 = 0 in the first frame at seed 0: the Milnor
    # number took seconds in Mora's uncut loop.
    (frame,) = sample_frames(3, 1, seed=0)
    fM = frame.transform(p3("x^2+y^4+z^5"))
    assert milnor_number(fM.substitute_zero([0])) == 3


def test_teissier_counts_the_meet_with_finite_colength(monkeypatch):
    # The meet is finite once mu and mu' are, so the check never asks
    # Mora's loop whether it is.
    monkeypatch.setattr(oracle, "local_colength", None)
    f = p3("x^2+y^4+z^5")
    for fr in sample_frames(3, 2, seed=0):
        fM = fr.transform(f)
        v = teissier_check(polar_ideal(fM, fr, 1, jacobian_ideal(fM)), milnor_number(f))
        assert v.passed
