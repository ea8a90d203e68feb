"""The colength oracle and the other independent cross-checks.

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
    gated_profile,
    identity_frame,
    monomials_below,
    nonzero_polynomials,
    p2,
    p3,
    record_calls,
    stable_colength_by_doubling,
    truncated_colength_by_two_eliminations,
)
from polarlink import ideals, oracle
from polarlink.ideals import Ideal, local_colength
from polarlink.oracle import (
    bezout_gamma,
    default_cap,
    monomials_of_degree,
    stable_colength,
    teissier_check,
    verdict,
)
from polarlink.polar import (
    CoordinateFrame,
    milnor_number,
    polar_ideal,
    sample_frames,
)
from polarlink.orders import GLOBAL
from polarlink.poly import Polynomial, integer_terms
from polarlink.report import RunConfig, run_compute


def ideal2(*texts):
    return Ideal(tuple(p2(t) for t in texts), 2)


def test_monomials_below_counts():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert [len(monomials_of_degree(3, d)) for d in range(4)] == [1, 3, 6, 10]
    assert len(monomials_below(1, 5)) == 5
    assert len(monomials_below(2, 4)) == 10
    assert len(monomials_below(3, 3)) == 10
    assert monomials_below(2, 0) == []


def test_truncated_simple_point():
    I = ideal2("x", "y^2")
    assert oracle._counts(I, 4) == [0, 1, 2, 2, 2]
    r = stable_colength(I, 4)
    assert (r.value, r.stable, r.cap) == (2, True, 4)


def test_truncated_cusp_pair():
    I = ideal2("y^2", "x^2+y^3")
    assert oracle._counts(I, 6) == [0, 1, 3, 4, 4, 4, 4]
    r = stable_colength(I, 6)
    assert (r.value, r.stable) == (4, True)


def test_truncated_positive_dimensional_never_stabilizes():
    counts = oracle._counts(ideal2("x*y"), 8)
    assert all(a < b for a, b in zip(counts, counts[1:]))
    r = stable_colength(ideal2("x*y"), 4, hard_cap=8)
    assert (r.value, r.stable, r.cap) == (counts[8], False, 8)


def test_truncated_cap_too_small_is_unstable():
    # the ideal has colength 4, first certified at c = 3, beyond the hard cap
    r = stable_colength(ideal2("y^2", "x^2+y^3"), 2, hard_cap=2)
    assert (r.value, r.stable, r.cap) == (3, False, 2)


def test_stable_colength_doubles_until_stable():
    r = stable_colength(ideal2("y^2", "x^2+y^3"), 2)
    assert (r.value, r.stable, r.cap) == (4, True, 4)


def test_x_squared_is_certified_at_the_start_cap():
    # count(2) = count(3) = 2 certifies at c = 2 by Nakayama; the survivor x
    # of degree 1 on the top boundary of cap 2 does not defer it to cap 4.
    r = stable_colength(Ideal((Polynomial(1, {(2,): Fraction(1)}),), 1), 2)
    assert (r.value, r.stable, r.cap) == (2, True, 2)


def test_truncated_unit_ideal():
    assert oracle._counts(ideal2("1 + x"), 4) == [0] * 5
    r = stable_colength(ideal2("1 + x"), 4)
    assert (r.value, r.stable) == (0, True)


def test_truncated_zero_ideal():
    for nvars, cap in product(range(1, 4), range(1, 9)):
        zero = Ideal((), nvars)
        counts = oracle._counts(zero, cap)
        assert counts == [len(monomials_below(nvars, c)) for c in range(cap + 1)]
        r = stable_colength(zero, 2, hard_cap=cap)
        assert (r.value, r.stable, r.cap) == stable_colength_by_doubling(zero, 2, cap)


@settings(max_examples=30)
@given(
    st.lists(nonzero_polynomials(nvars=3, max_terms=3, max_exp=2), max_size=3),
    st.integers(1, 6),
)
def test_the_elimination_size_bound_counts_what_it_would_build(gens, top):
    # The bound meets the larger of the rows built and the monomials below
    # top exactly; one less refuses the elimination before any monomial is
    # listed.
    I = Ideal(tuple(gens), 3)
    with pytest.MonkeyPatch.context() as mp:
        pivots = record_calls(mp, oracle, "_echelon_pivots")
        oracle._counts(I, top)
        size = max(len(pivots[0][0][0]), len(monomials_below(3, top)))
        mp.setattr(oracle, "ELIMINATION_SIZE", size)
        oracle._counts(I, top)
        mp.setattr(oracle, "ELIMINATION_SIZE", size - 1)
        listed = record_calls(mp, oracle, "monomials_of_degree")
        with pytest.raises(ValueError, match=f"below degree {top} passes {size - 1} rows or monomials"):
            oracle._counts(I, top)
        assert listed == []


def test_truncated_rational_generators():
    r = stable_colength(ideal2("1/2*x^2+3/4*y^3", "2/3*y^2"), 6)
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
def test_one_elimination_meets_the_two_eliminations(I, top):
    counts = oracle._counts(I, top)
    for c in range(1, top + 1):
        assert counts[c] == truncated_colength_by_two_eliminations(I, c)[0]


@settings(max_examples=200)
@given(ideals_in_one_to_three_variables, st.integers(1, 6), st.integers(1, 8))
def test_the_certificate_meets_the_doubling_reference(I, start, hard_cap):
    # Where the reference is stable, so is the certificate, with the same
    # value and a cap no larger.  It is stable where the reference is not
    # only when the least c is hard_cap, where the boundary clause fails.
    r = stable_colength(I, start, hard_cap)
    value, stable, cap = stable_colength_by_doubling(I, start, hard_cap)
    assert r.value == value
    assert r.cap <= cap
    if stable:
        assert r.stable
    elif r.stable:
        assert r.cap == hard_cap


def test_each_truncated_colength_runs_one_elimination(monkeypatch):
    # One elimination gives every count below top; the certificate runs one
    # for each top it tries, 2, 4, 8, ... up to the hard cap.
    echelon, calls = oracle._echelon_pivots, []

    def counting(rows, key):
        calls.append(key)
        return echelon(rows, key)

    monkeypatch.setattr(oracle, "_echelon_pivots", counting)
    ideals = (ideal2("y^2", "x^2+y^3"), ideal2("x*y"), Ideal((), 2))
    for I, top in product(ideals, (1, 4, 9)):
        oracle._counts(I, top)
    assert len(calls) == 9
    calls.clear()
    for I in ideals:
        stable_colength(I, 2, hard_cap=16)
    assert len(calls) == 2 + 4 + 4


def test_the_truncated_colength_uses_nothing_from_the_engine():
    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from names(const)

    found = [
        f"{fn.__name__}: {name}"
        for fn in (stable_colength, oracle._counts, oracle._echelon_pivots)
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
        assert engine is None


def test_bezout_table():
    assert bezout_gamma(2, 3, 0) == 0
    assert bezout_gamma(2, 3, 1) == 4
    assert bezout_gamma(2, 3, 2) == 2
    assert bezout_gamma(2, 3, 3) == 1
    assert bezout_gamma(1, 2, 1) == 1
    assert bezout_gamma(3, 2, 2) == 1


def test_default_cap_scales_with_degree():
    assert default_cap(p2("x*y")) == 8
    assert default_cap(p2("x^4+y^4")) == 12


def test_verdict_passes_iff_equal():
    assert verdict("t", 3, 3)["passed"]
    assert not verdict("t", 3, 4)["passed"]


def slice_mu(f, frame):
    """The Milnor number of f cut by the frame's plane z_0 = 0, which
    teissier_check takes from its caller."""
    return milnor_number(frame.restrict(f, 1))


def test_teissier_cusp_identity_frame():
    f = p2("x^2+y^3")
    pol = polar_ideal(f, identity_frame(2), 1)
    v = teissier_check(pol, milnor_number(f), slice_mu(f, identity_frame(2)))
    assert v["passed"]
    assert (v["expected"], v["actual"]) == (4, 4)


def test_teissier_cusp_generic_frames():
    f = p2("x^2+y^3")
    for fr in sample_frames(2, 3, seed=7):
        v = teissier_check(polar_ideal(f, fr, 1), milnor_number(f), slice_mu(f, fr))
        assert v["passed"]
        assert v["actual"] == 3  # mu 2 plus generic slice mu 1


def test_teissier_rejects_nonisolated():
    # mu is not finite, so no frame is usable: the witness frame of k = 1
    # has its polar ideal, but the report carries no Teissier verdict.
    f = p3("y^2 - x^2*z")
    assert milnor_number(f) is None
    prof = gated_profile(f, trials=5, seed=0)
    assert prof.s == 1
    assert prof.polar_ideals[0].frame is prof.frames[prof.witness[0]]
    doc, code = run_compute(RunConfig("y^2 - x^2*z", ("x", "y", "z")))
    assert code == 0
    assert "teissier_polar_against_slice" not in [v["name"] for v in doc["oracles"]["verdicts"]]


def test_teissier_check_reuses_the_transformed_polynomial(monkeypatch):
    # gamma_profile restricts f to the plane H_(s+1) of each frame once,
    # and reads every section of the frame from it; the Teissier check
    # meets the polar ideal with f in the coordinates of f and restricts f
    # to no frame.
    restricted = record_calls(monkeypatch, CoordinateFrame, "restrict")
    cfg = RunConfig("x^2+y^2+z^3", ("x", "y", "z"))
    doc, code = run_compute(cfg)
    assert (code, doc["s"]) == (0, 0)
    sections = [(frame.matrix, k) for (frame, p, k), _ in restricted if p == p3(cfg.poly_text)]
    assert sections == [(tuple(map(tuple, m)), 1) for m in doc["stability"]["frames"]]


def test_teissier_rejects_degenerate_frame():
    # The identity frame slices xy along one of its own branches, so its
    # slice is not isolated and the frame is unusable.  At frame seed 4 and
    # bound 1 the first frame, ((-1, 0), (-1, 1)), maps x to -x, so f is 0
    # on z_0 = 0 too: it reads None, and the check runs in the witness frame
    # of k = 1, the next one.
    f = p2("x*y")
    assert slice_mu(f, identity_frame(2)) is None
    prof = gated_profile(f, trials=5, seed=4, bound=1)
    assert prof.per_trial[0] == (None,)
    assert prof.witness[0] == 1
    v = teissier_check(prof.polar_ideals[0], milnor_number(f), slice_mu(f, prof.frames[1]))
    assert (v["passed"], v["expected"]) == (True, 2)
    doc, code = run_compute(RunConfig("x*y", ("x", "y"), seed=4, bound=1))
    (teissier,) = [v for v in doc["oracles"]["verdicts"] if v["name"] == "teissier_polar_against_slice"]
    assert (teissier["passed"], teissier["expected"]) == (True, 2)


def test_teissier_reads_the_witness_frame_of_k1():
    # At frame seed 4 and bound 2, frame 0 of the cusp slices it with
    # Milnor number 2, above the generic 1; the check runs in the witness
    # frame, where its slice is generic.
    doc, code = run_compute(RunConfig("x^2+y^3", ("x", "y"), seed=4, bound=2))
    assert code == 0
    assert doc["stability"]["per_trial"][0] == [2]
    (teissier,) = [v for v in doc["oracles"]["verdicts"] if v["name"] == "teissier_polar_against_slice"]
    assert (teissier["passed"], teissier["expected"], teissier["context"]) == (True, 3, "mu=2, mu_slice=1")


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
    assert slice_mu(p3("x^2+y^4+z^5"), frame) == 3


def test_teissier_counts_the_meet_with_one_lazard_basis(monkeypatch):
    # The meet is finite once mu and mu' are, and the check counts it from
    # the leads of one Groebner basis of its homogenized generators.
    f = p3("x^2+y^4+z^5")
    for fr in sample_frames(3, 2, seed=0):
        pol = polar_ideal(f, fr, 1)
        mu, mu_slice = milnor_number(f), slice_mu(f, fr)
        with monkeypatch.context() as patch:
            leads = record_calls(patch, ideals, "mora_standard_basis")
            loops = record_calls(patch, ideals, "_standard_basis_raw")
            v = teissier_check(pol, mu, mu_slice)
        assert v["passed"]
        assert len(leads) == len(loops) == 1
