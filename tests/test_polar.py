"""Polar ideals, frames, and the sampled multiplicity profiles."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    canonical,
    frame_polar_ideal,
    gamma_in_frame,
    gated_profile,
    identity_frame,
    p2,
    p3,
    polynomials,
    record_calls,
    reference_substitution,
    saturating_per_trial,
    sections_by_restriction,
    substitute_zero,
    time_limit,
)
from polarlink import oracle, polar, poly, report
from polarlink.parse import parse_polynomial
from polarlink.errors import EXIT_EXCLUDED, EXIT_INPUT_ERROR, EXIT_UNSTABLE, ExcludedCaseError, NoValidFrame
from polarlink.ideals import Ideal, dimension, local_colength, mora_standard_basis
from polarlink.polar import (
    CoordinateFrame,
    check_excluded,
    decide,
    gamma_profile,
    jacobian_ideal,
    milnor_number,
    plane_cut,
    polar_ideal,
    sample_frames,
    section_multiplicities,
)
from polarlink.poly import Polynomial, det
from polarlink.report import RunConfig, bundled_corpus_path, run_compute
from test_report_bytes import FOUR_VARIABLE_SHA256, load_workloads


def test_jacobian_gens():
    J = jacobian_ideal(p3("y^2 - x^2*z"))
    assert set(J.gens) == {p3("-2*x*z"), p3("2*y"), p3("-x^2")}
    assert jacobian_ideal(p2("x*y")).gens == (p2("y"), p2("x"))


def critical_dimension(f):
    """The local dimension s of the critical locus, as the gate reads it."""
    return dimension(mora_standard_basis(jacobian_ideal(f)), f.nvars)


def test_critical_dimension_isolated():
    assert critical_dimension(p3("x^2+y^2+z^2")) == 0


def test_critical_dimension_curve():
    assert critical_dimension(p3("y^2 - x^2*z")) == 1


def test_critical_dimension_nonreduced_line():
    assert critical_dimension(p2("x^2")) == 1


def test_critical_dimension_smooth_origin_is_excluded():
    with pytest.raises(ExcludedCaseError) as err:
        check_excluded(p2("x + y^2"))
    assert "smooth" in err.value.reason


def test_milnor_numbers():
    assert milnor_number(p2("x^2+y^3")) == 2
    assert milnor_number(p2("x^2+y^2")) == 1
    assert milnor_number(p3("y^2 - x^2*z")) is None
    assert milnor_number(p3("x^3+y^3+z^3")) == 8


def test_milnor_smooth_point_is_zero():
    assert milnor_number(p2("x + x^2*y")) == 0


def test_the_five_variable_slice_that_stalled_has_milnor_number_four():
    # The uncut loop spent 21-50 s per frame on this slice.
    (frame,) = sample_frames(5, 1, 0)
    f = parse_polynomial("x^3+y^3+z^3+w^2+v^2", ("x", "y", "z", "w", "v"))
    with time_limit(10):
        assert milnor_number(frame.restrict(f, 1)) == 4


# --- frames ---------------------------------------------------------------


def test_frame_rejects_singular_matrix():
    with pytest.raises(ValueError):
        CoordinateFrame(((1, 2), (2, 4)))


def test_sample_frames_deterministic():
    a = sample_frames(3, 4, seed=11)
    b = sample_frames(3, 4, seed=11)
    assert [f.matrix for f in a] == [f.matrix for f in b]
    assert all(abs(e) <= 10 for f in a for row in f.matrix for e in row)


def test_sample_frames_bound_respected():
    frames = sample_frames(2, 5, seed=3, bound=2)
    assert all(abs(e) <= 2 for f in frames for row in f.matrix for e in row)


def test_frame_transform_is_substitution():
    # Restricted to no plane, k = 0, a frame substitutes f(Mz).
    fr = CoordinateFrame(((1, 2), (1, -1)))
    assert fr.restrict(p2("x*y"), 0) == p2("x^2 + x*y - 2*y^2")


@given(polynomials(nvars=3, max_terms=5, max_exp=3), st.integers(0, 10**6))
def test_frame_transform_matches_the_term_by_term_expansion(f, seed):
    (frame,) = sample_frames(3, 1, seed)
    assert frame.restrict(f, 0) == reference_substitution(f, frame.matrix)


@given(
    polynomials(nvars=3, max_terms=5, max_exp=3),
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_columns_of_a_frame_restrict_to_its_plane(f, seed, bound, k):
    # Columns k..n of an invertible M substitute f into the plane
    # z_0 = ... = z_(k-1) = 0 of the frame: the change of coordinates,
    # expanded term by term, followed by setting those variables to 0.
    (frame,) = sample_frames(3, 1, seed, bound)
    cut = substitute_zero(reference_substitution(f, frame.matrix), range(k))
    assert f.substitute_linear(tuple(row[k:] for row in frame.matrix)) == cut
    assert frame.restrict(f, k) == cut


def test_substitute_linear_needs_one_row_per_variable():
    with pytest.raises(ValueError):
        p3("x*y*z").substitute_linear(((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        p2("x*y").substitute_linear(((1, 0), (0,)))


def test_each_frame_determinant_is_computed_once(monkeypatch):
    # a frame checks its matrix when built; sampling and substitution
    # do not check it again
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return det(matrix)

    monkeypatch.setattr(polar, "det", counting)
    monkeypatch.setattr(poly, "det", counting)
    sample_frames(3, 5, 3)
    gated_profile(p3("x*y*z"), trials=5, seed=3)
    assert len(calls) == 10


# --- polar ideals ----------------------------------------------------------


def test_polar_sphere_identity_frame():
    f = p3("x^2+y^2+z^2")
    pol = polar_ideal(f, identity_frame(3), 1)
    assert canonical(pol.ideal).gens == (p3("z"), p3("y"))
    assert pol.saturation_exponent == 0


def test_polar_two_lines_generic_frame():
    # the polar line must differ from the critical locus (the origin here,
    # so any line through 0 qualifies) and be principal
    fr = CoordinateFrame(((1, 2), (1, -1)))
    pol = polar_ideal(p2("x*y"), fr, 1)
    basis = canonical(pol.ideal).gens
    assert len(basis) == 1
    assert basis[0].total_degree() == 1


def test_polar_whitney_k2_is_principal_quadric():
    fr = CoordinateFrame(((1, 1, 2), (0, 1, 1), (1, 0, 2)))
    pol = polar_ideal(p3("y^2 - x^2*z"), fr, 2)
    basis = canonical(pol.ideal).gens
    assert len(basis) == 1
    assert basis[0].total_degree() == 2


def assert_polar_ideal_matches_the_frame_route(f, frame, k):
    """The polar ideal built in the coordinates of f, moved into the frame,
    is the one built in the frame, with the same saturation exponent and
    cut colength.  For k = 1, where the Teissier check would use the frame
    (the Milnor numbers of f and of its slice finite), the meets with f
    agree too."""
    pol = polar_ideal(f, frame, k)
    ref, exponent, fM = frame_polar_ideal(f, frame, k)
    moved = Ideal([frame.restrict(g, 0) for g in pol.ideal.gens], f.nvars)
    assert canonical(moved).gens == canonical(ref).gens
    assert pol.saturation_exponent == exponent
    ref_cut = Ideal([substitute_zero(g, range(k)) for g in ref.gens], f.nvars - k)
    assert local_colength(plane_cut(pol)) == local_colength(ref_cut)
    if k == 1 and None not in (milnor_number(f), milnor_number(substitute_zero(fM, [0]))):
        meet = local_colength(Ideal(pol.ideal.gens + (f,), f.nvars))
        assert meet == local_colength(Ideal(ref.gens + (fM,), f.nvars))


def germs(nvars):
    """A few random terms, half the time on top of pure powers
    z_0^a_0 + ... + z_n^a_n, which make isolated germs common."""
    powers = st.tuples(*[st.integers(2, 4)] * nvars).map(
        lambda a: Polynomial(nvars, {tuple(e * (j == i) for j in range(nvars)): 1 for i, e in enumerate(a)})
    )
    terms = polynomials(nvars, max_terms=3, max_exp=3)
    return st.tuples(terms, st.none() | powers).map(lambda t: t[0] if t[1] is None else t[0] + t[1])


@settings(max_examples=30)
@given(
    st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(germs(n), st.integers(1, n - 1))),
    st.integers(0, 10**6),
    st.integers(1, 3),
)
def test_the_polar_ideal_is_the_frame_route_moved_by_the_frame(case, seed, bound):
    f, k = case
    (frame,) = sample_frames(f.nvars, 1, seed, bound)
    with time_limit(30):
        assert_polar_ideal_matches_the_frame_route(f, frame, k)


@pytest.mark.parametrize(
    "text, varnames",
    [
        ("y^2-x^2*z", ("x", "y", "z")),
        ("x*y*z", ("x", "y", "z")),
        ("x*y*z*w", ("x", "y", "z", "w")),
    ],
)
def test_polar_ideals_at_frame_seed_0_match_the_frame_route(text, varnames):
    f = parse_polynomial(text, varnames)
    for frame in sample_frames(f.nvars, 5, seed=0):
        for k in range(1, f.nvars):
            assert_polar_ideal_matches_the_frame_route(f, frame, k)


def test_gamma_k_sphere():
    f = p3("x^2+y^2+z^2")
    fr = sample_frames(3, 1, seed=5)[0]
    assert gamma_in_frame(f, fr, 1) == 1
    assert gamma_in_frame(f, fr, 2) == 1


def test_gamma_k_bad_frame_flagged():
    # in the identity frame the first polar ideal of x^2 (as a 2-variable
    # germ) is zero: d/dy kills everything, so the frame must be rejected
    assert gamma_in_frame(p2("x^2"), identity_frame(2), 1) is None


def test_an_infinite_cut_is_none_and_builds_no_basis_of_the_polar_ideal(monkeypatch):
    # In the identity frame the first polar ideal of x*y*z is (x), the
    # plane x = 0 of dimension 2; that of the two lines x*y is (x) too, now
    # the line x = 0 itself, which the cut x = 0 contains.  Both cuts are
    # infinite, and no basis is built to tell the two cases apart.
    built = []

    def spy(I):
        built.append(I)
        return mora_standard_basis(I)

    monkeypatch.setattr(polar, "mora_standard_basis", spy)
    assert gamma_in_frame(p3("x*y*z"), identity_frame(3), 1) is None
    assert gamma_in_frame(p2("x*y"), identity_frame(2), 1) is None
    assert built == []


def test_a_finite_cut_builds_no_basis_of_the_polar_ideal(monkeypatch):
    built = []

    def spy(I):
        built.append(I)
        return mora_standard_basis(I)

    monkeypatch.setattr(polar, "mora_standard_basis", spy)
    f = p3("x^3+y^3+z^3")
    assert [gamma_in_frame(f, identity_frame(3), k) for k in (1, 2)] == [4, 2]
    assert built == []


@pytest.mark.parametrize("text, s", [("x*y+z^2*w", 1), ("x^2*y^2+z^2*w", 2)])
def test_the_gate_reads_s_of_a_dense_nonisolated_input(text, s):
    # Typed in a random frame, each ran past 20 s at the gate in Mora's
    # uncut loop; Lazard's homogenized basis reads s, and mu with it.
    (frame,) = sample_frames(4, 1, 0)
    f = frame.restrict(parse_polynomial(text, ("x", "y", "z", "w")), 0)
    with time_limit(10):
        assert check_excluded(f) == (None, s)


def test_the_critical_dimension_of_a_dense_curve_singularity_is_one():
    # (x^2-y^3)^2+z^7 typed in a random frame: s ran past 20 s in Mora's
    # uncut loop.
    (frame,) = sample_frames(3, 1, 99)
    with time_limit(5):
        assert critical_dimension(frame.restrict(p3("(x^2-y^3)^2+z^7"), 0)) == 1


def test_a_profile_in_dense_coordinates_matches_the_adapted_one():
    # x^2+y^4+z^5 written in a bound-5 frame: the uncut basis of its
    # Jacobian ideal ran past 60 s.
    (frame,) = sample_frames(3, 1, 0, 5)
    g = frame.restrict(p3("x^2+y^4+z^5"), 0)
    with time_limit(10):
        mu, s = check_excluded(g)
        prof = gamma_profile(g, s)
    assert (s, mu, prof.gamma, prof.stable) == (0, 12, (0, 3, 1, 1), True)


def test_the_gate_builds_one_lazard_basis_and_the_profile_none(monkeypatch):
    # The gate reads mu and s from the leads of one Lazard basis of the
    # Jacobian ideal, isolated or not; the profile builds no such basis.
    built = record_calls(monkeypatch, polar, "mora_standard_basis")
    for text, gate in (("x^3+y^3+z^3", (8, 0)), ("y^2 - x^2*z", (None, 1))):
        f = p3(text)
        assert check_excluded(f) == gate
        gamma_profile(f, gate[1], trials=1)
        assert [args for args, _ in built] == [(jacobian_ideal(f),)]
        built.clear()


def gate_inputs(monkeypatch):
    """{(poly, vars, trials, bound): frame seeds} over the requests of the
    three workloads at workload seed 1, the eight hard surfaces at the
    isolated frame seed and the four-variable inputs whose report bytes are
    pinned, at frame seed 0."""
    workloads = load_workloads(monkeypatch)
    inputs = {}
    for name in workloads.WORKLOADS:
        for req in workloads.build(name, 1):
            inputs.setdefault((req.poly, req.varnames, req.trials, req.bound), set()).add(req.seed)
    for text in workloads.HARD_SURFACES:
        inputs.setdefault((text, workloads.V3, 5, 10), set()).add(workloads.ISOLATED_FRAME_SEED)
    for text in FOUR_VARIABLE_SHA256:
        inputs.setdefault((text, ("x", "y", "z", "w"), 5, 10), set()).add(0)
    return inputs


def test_the_sections_of_a_frame_are_the_milnor_numbers_of_its_planes(monkeypatch):
    # Each input at its own frame seeds and at frame seeds 0-2: every
    # gamma^k above s read from one restriction of f is the Milnor number
    # of f restricted to H_k on its own, None where that is not finite.
    inputs = gate_inputs(monkeypatch)
    assert len(inputs) == 54
    for (text, varnames, trials, bound), seeds in inputs.items():
        f = parse_polynomial(text, varnames)
        _, s = check_excluded(f)
        for seed in seeds | {0, 1, 2}:
            for fr in sample_frames(f.nvars, trials, seed, bound):
                assert tuple(section_multiplicities(f, fr, s)) == sections_by_restriction(f, fr, s), (text, fr.matrix)


def test_the_gate_reads_mu_as_the_colength_of_the_jacobian_ideal(monkeypatch):
    # mu is the count below the Lazard leads where s = 0 and None
    # elsewhere, as typed and in a dense frame.
    for text, varnames, _, _ in gate_inputs(monkeypatch):
        f = parse_polynomial(text, varnames)
        for g in (f, sample_frames(f.nvars, 1, 99)[0].restrict(f, 0)):
            mu, s = check_excluded(g)
            assert mu == local_colength(jacobian_ideal(g)), text
            assert (mu is None) == (s > 0), text


@pytest.mark.parametrize("text, varnames", [("(x^2-y^3)^2+z^7", ("x", "y", "z")), ("x*y+z^2*w", ("x", "y", "z", "w"))])
def test_a_dense_critical_curve_is_gated_at_once(text, varnames):
    # Typed in a dense frame, each took seconds at the gate while the cut
    # loop proved mu not finite; the Lazard leads give s = 1, and mu with it.
    f = sample_frames(len(varnames), 1, 99)[0].restrict(parse_polynomial(text, varnames), 0)
    with time_limit(0.5):
        assert check_excluded(f) == (None, 1)


def test_a_curve_request_counts_only_its_teissier_meet(monkeypatch):
    # gamma^1 of a plane curve is read from the order of f on the line H_1
    # and mu from the gate's Lazard basis, so the one local colength of the
    # request is the Teissier meet.
    modules = {"polar": polar, "oracle": oracle, "report": report}
    counted = {name: record_calls(monkeypatch, module, "local_colength") for name, module in modules.items()}
    doc, code = run_compute(RunConfig("x^4+y^5", ("x", "y"), seed=0))
    assert code == 0
    assert {name: len(calls) for name, calls in counted.items()} == {"polar": 0, "oracle": 1, "report": 0}


@pytest.mark.parametrize("text", ["x^3+y^3+z^3", "y^2 - x^2*z"])
def test_a_surface_request_restricts_f_once_a_frame(monkeypatch, text):
    restricted = record_calls(monkeypatch, CoordinateFrame, "restrict")
    doc, code = run_compute(RunConfig(text, ("x", "y", "z"), seed=0))
    assert code == 0
    f = p3(text)
    sections = [(frame.matrix, k) for (frame, p, k), _ in restricted if p == f]
    assert sections == [(tuple(map(tuple, m)), doc["s"] + 1) for m in doc["stability"]["frames"]]


def test_gamma_profile_two_lines():
    prof = gated_profile(p2("x*y"), trials=5, seed=0)
    assert prof.gamma == (0, 1, 1)
    assert prof.mult == 2
    assert prof.s == 0
    assert prof.stable


def test_gamma_profile_fermat_cubic():
    prof = gated_profile(p3("x^3+y^3+z^3"), trials=5, seed=0)
    assert prof.gamma == (0, 4, 2, 1)
    assert prof.stable
    assert prof.agreement == (5, 5)


def test_gamma_profile_quadric_any_seed():
    for seed in (0, 1):
        prof = gated_profile(p3("x^2+y^2+z^2"), trials=3, seed=seed)
        assert prof.gamma == (0, 1, 1, 1)


def test_gamma_profile_single_trial():
    prof = gated_profile(p2("x^2+y^3"), trials=1, seed=2)
    assert prof.gamma == (0, 1, 1)
    assert len(prof.frames) == prof.threshold == 1


def test_gamma_profile_whitney():
    prof = gated_profile(p3("y^2 - x^2*z"), trials=5, seed=0)
    assert prof.gamma == (0, 1, 1, 1)
    assert prof.s == 1


def test_gamma_profile_excluded_cases():
    with pytest.raises(ExcludedCaseError, match="locally constant"):
        check_excluded(p2("0"))
    with pytest.raises(ExcludedCaseError, match=r"f\(0\) != 0"):
        check_excluded(p2("x + 1"))
    with pytest.raises(ExcludedCaseError, match="smooth"):
        check_excluded(p2("x"))


def test_gamma_profile_witness_frames_attain_minimum():
    prof = gated_profile(p3("x*y*z"), trials=5, seed=0)
    assert prof.gamma == (0, 1, 2, 1)
    for k in range(1, prof.n + 1):
        t = prof.witness[k - 1]
        assert prof.per_trial[t][k - 1] == prof.gamma[k]


@pytest.mark.parametrize("text", ["x^3+y^3+z^3", "y^2 - x^2*z"])
def test_gamma_profile_substitutes_no_whole_frame(monkeypatch, text):
    # Sections (s = 0) and cuts of polar ideals (s = 1) enter a frame cut
    # by its plane H_k, k >= 1: no substitution expands every column.
    substituted = record_calls(monkeypatch, Polynomial, "substitute_linear")
    f = p3(text)
    gated_profile(f, trials=5, seed=0)
    assert substituted
    assert all(len(args[1][0]) < f.nvars for args, _ in substituted)


@pytest.mark.parametrize("text", ["x^3+y^3+z^3", "y^2 - x^2*z", "x*y*z"])
def test_gamma_profile_keeps_one_polar_ideal_per_k_at_its_witness_frame(text):
    prof = gated_profile(p3(text), trials=5, seed=0)
    assert len(prof.polar_ideals) == prof.n
    for k, pol in enumerate(prof.polar_ideals, start=1):
        assert pol.k == k
        assert pol.frame is prof.frames[prof.witness[k - 1]]


def test_gamma_profile_carries_s_and_threshold():
    # mu and s come from the gate, which reads them once; the profile
    # keeps s, and the report takes mu from the gate.
    f = p3("x^3+y^3+z^3")
    mu, s = check_excluded(f)
    assert (mu, s) == (milnor_number(f), 0)
    prof = gamma_profile(f, s, trials=5, seed=0)
    assert (prof.s, prof.threshold) == (s, 3)
    assert check_excluded(p3("y^2 - x^2*z"))[0] is None


# decide on hand-written readings: per_trial[t][k-1] is gamma^k in frame t,
# None where frame t is invalid for k.
@pytest.mark.parametrize(
    "per_trial, mult, decided",
    [
        # Two values held by two trials each: the minimum wins, and its
        # witness is the first trial that reads it.
        (((3, 1), (2, 1), (3, 1), (2, 1)), 2, ((0, 2, 1, 1), (2, 4), (1, 0), 2, True)),
        # Agreement counts the valid readings of the minimum alone.
        (((None, 1), (2, 1), (2, None), (None, 1), (2, 1)), 2, ((0, 2, 1, 1), (3, 4), (1, 0), 3, True)),
        # 4 trials need 2 agreeing, not 3.
        (((1, 1), (1, 1), (2, 1), (2, 1)), 2, ((0, 1, 1, 1), (2, 4), (0, 0), 2, True)),
        (((1, 1), (2, 1), (2, 1), (2, 1)), 2, ((0, 1, 1, 1), (1, 4), (0, 0), 2, False)),
        (((4, 2),), 3, ((0, 4, 2, 1), (1, 1), (0, 0), 1, True)),
    ],
    ids=["tie", "invalid-readings", "even-stable", "even-unstable", "single-trial"],
)
def test_decide_takes_the_least_valid_reading(per_trial, mult, decided):
    assert decide(per_trial, mult) == decided


@pytest.mark.parametrize(
    "per_trial, message",
    [
        (((None, 1), (None, 1), (None, 1)), r"^no valid frame for k=1 after 3 trials$"),
        (((1, 2), (1, 3)), r"^no frame for k=2 after 2 trials has its line H_2 off the tangent cone$"),
    ],
    ids=["no-valid-reading", "gamma-n-above-mult-minus-1"],
)
def test_decide_refuses_a_k_that_no_frame_reads_right(per_trial, message):
    with pytest.raises(NoValidFrame, match=message):
        decide(per_trial, 2)


# Germs that are not reduced at the origin: each has s = n.
NON_REDUCED = (
    ("x^2", ("x", "y")),
    ("x^2*y", ("x", "y")),
    ("x^3+x^2*y", ("x", "y")),
    ("x^2*(1+y)", ("x", "y")),
    ("(x^2-y^3)^2", ("x", "y")),
    ("x^2*y", ("x", "y", "z")),
    ("(x+y)^2*z", ("x", "y", "z")),
    ("x^2*(y^2-z^3)", ("x", "y", "z")),
    ("(x^2+y^2+z^2)^2", ("x", "y", "z")),
)


@pytest.mark.parametrize("text, varnames", NON_REDUCED)
def test_a_non_reduced_germ_is_refused_before_any_frame(monkeypatch, text, varnames):
    built = record_calls(monkeypatch, CoordinateFrame, "__post_init__")
    doc, code = run_compute(RunConfig(text, varnames))
    assert code == EXIT_EXCLUDED
    assert doc["error"] == {"kind": "excluded", "reason": "f is not reduced at the origin"}
    assert built == []


def test_a_reduced_germ_with_a_square_in_it_is_admitted():
    # (x^2-y^3)^2 is not reduced, but adding z^7 makes it so: s = 1 < n = 2.
    assert check_excluded(p3("(x^2-y^3)^2+z^7")) == (None, 1)


def test_a_frame_line_in_the_tangent_cone_is_a_sampling_failure():
    # At frame seed 4 and bound 1 the only frame's line H_1 lies in the
    # tangent cone x^2 = 0 of the cusp, so gamma^1 reads 2, not mult - 1 = 1.
    doc, code = run_compute(RunConfig("x^2+y^3", ("x", "y"), trials=1, seed=4, bound=1))
    assert code == EXIT_UNSTABLE
    assert doc["error"]["kind"] == "engine"
    assert "tangent cone" in doc["error"]["reason"]


def test_profile_needs_two_variables():
    doc, code = run_compute(RunConfig("x^2", ("x",), trials=1))
    assert code == EXIT_INPUT_ERROR
    assert doc["error"] == {"kind": "input", "reason": "need at least two variables"}


# The corpus inputs, and inputs of the benchmark's workloads whose
# saturating profile takes milliseconds a frame: isolated curves and
# surfaces, and nonisolated surfaces and a threefold with s = 1.
with open(bundled_corpus_path(), encoding="utf-8") as _fh:
    SECTION_INPUTS = tuple((e["poly"], tuple(e["vars"])) for e in map(json.loads, _fh))
SECTION_INPUTS += tuple(
    (text, ("x", "y", "z"))
    for text in (
        "x^2+y^2+z^4",
        "x^2*y+y^3+z^2",
        "x^2*y+y^4+z^2",
        "x^3+x*y^3+z^2",
        "(x^2-y^2)*z",
        "x*y*(x+y)",
        "x*y*(x+y)*(x-y)",
        "x*y",
        "x*y*z*(x+y+z)",
    )
) + (
    ("x^2*y+y^5", ("x", "y")),
    ("x^3+x*y^3", ("x", "y")),
    ("x*y*(x+y)*(x-y)*(x+2*y)", ("x", "y")),
    ("x*y+z^2*w", ("x", "y", "z", "w")),
)


@given(st.sampled_from(SECTION_INPUTS), st.integers(0, 2**32), st.sampled_from((1, 2)))
def test_sections_above_the_critical_dimension_read_the_saturated_cut(case, seed, bound):
    # A small bound makes degenerate frames common.  For s = 0 the section
    # and the saturated cut agree everywhere, None included; for s >= 1
    # they agree wherever the section's Milnor number is finite.
    f = parse_polynomial(*case)
    s = critical_dimension(f)
    frames = sample_frames(f.nvars, 2, seed, bound)
    for fr, row in zip(frames, saturating_per_trial(f, frames)):
        for k, section in enumerate(section_multiplicities(f, fr, s), start=s + 1):
            if s == 0 or section is not None:
                assert section == row[k - 1], (case, fr.matrix, k)


@given(st.sampled_from(SECTION_INPUTS), st.lists(st.integers(-3, 3), min_size=16, max_size=16))
def test_the_sections_of_a_random_frame_are_the_milnor_numbers_of_its_planes(case, entries):
    f = parse_polynomial(*case)
    width = f.nvars
    matrix = tuple(tuple(entries[i * width : (i + 1) * width]) for i in range(width))
    assume(det(matrix) != 0)
    fr = CoordinateFrame(matrix)
    s = critical_dimension(f)
    assert tuple(section_multiplicities(f, fr, s)) == sections_by_restriction(f, fr, s)


def test_the_fermat_cubic_saturates_only_at_its_witness_frames(monkeypatch):
    # s = 0, so every gamma^k comes from a section, and a polar ideal is
    # built once for each k at its witness frame, frame 0.  The Teissier
    # check runs in frame 0 too and reads the k = 1 ideal built there.
    saturations = record_calls(monkeypatch, polar, "saturate")
    built = record_calls(monkeypatch, polar, "polar_ideal")
    checked = record_calls(monkeypatch, report, "teissier_check")
    doc, code = run_compute(RunConfig("x^3+y^3+z^3", ("x", "y", "z"), seed=0))
    assert code == 0
    assert doc["stability"]["witness_trials"] == [0, 0]
    assert len(saturations) == doc["n"] == 2
    first_frame = doc["stability"]["frames"][0]
    assert [(list(map(list, args[1].matrix)), args[2]) for args, _ in built] == [
        (first_frame, 1),
        (first_frame, 2),
    ]
    (((teissier_pol, mu, mu_slice), _),) = checked
    assert teissier_pol is built[0][1]
    assert (mu, mu_slice) == (8, doc["stability"]["per_trial"][0][0]) == (8, 4)
