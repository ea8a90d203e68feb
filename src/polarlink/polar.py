"""Polar ideals of a hypersurface singularity and their local multiplicities.

For f vanishing at the origin of C^(n+1), the k-th polar ideal in a frame
M is the saturation of (d(f o M)/dz_k, ..., d(f o M)/dz_n) by the full
Jacobian ideal of f o M.  It is built in the coordinates of f, where a
sparse f stays sparse: the frame enters only through the derivatives of f
along the columns of M, which generate it (see polar_ideal), and through
the plane H_k = {z_0 = ... = z_(k-1) = 0} of the frame that cuts it (see
plane_cut).  The local colength of that cut is the polar multiplicity.
Above the critical dimension s, which the gate check_excluded reads, that
is for k > s, the multiplicity in a frame is the Milnor number of f cut
by H_k (see gamma_profile), read for every such k of a frame from one
restriction of f, to H_(s+1) (see section_multiplicities).  The profile
samples random integer frames, reads each (read_frame), keeps per k the
minimum over the frames valid for k (decide), and builds a polar ideal
above s only at the witness frame of each k.  A polynomial enters a frame
one way only, cut by H_k (CoordinateFrame.restrict): f once a frame for
its sections, each generator of a polar ideal for its cut.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ExcludedCaseError, NoValidFrame
from .ideals import Ideal, _staircase, dimension, local_colength, mora_standard_basis, saturate
from .poly import Polynomial, det


@dataclass(frozen=True)
class CoordinateFrame:
    """Invertible integer change of coordinates z_i -> sum_j m[i][j] z_j."""

    matrix: tuple

    def __post_init__(self):
        if det(self.matrix) == 0:
            raise ValueError("frame matrix is singular")

    def restrict(self, p, k):
        """p(Mz) restricted to the plane z_0 = ... = z_(k-1) = 0 of the
        frame, in z_k..z_n: p substituted by the columns k..n of M =
        matrix, so the columns that the plane sets to 0 are never
        expanded.  k = 0 gives p(Mz), the whole change of coordinates."""
        return p.substitute_linear(tuple(row[k:] for row in self.matrix))


def sample_frames(nvars, count, seed, bound=10):
    """count invertible frames with entries drawn uniformly from [-bound, bound].

    Draws are sequential from random.Random(seed) and singular draws are
    discarded, so results only depend on (nvars, seed, bound) and the
    position in the stream.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    rng = random.Random(seed)
    frames = []
    while len(frames) < count:
        rows = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(nvars))
            for _ in range(nvars)
        )
        try:
            frames.append(CoordinateFrame(rows))
        except ValueError:
            pass  # a singular draw
    return frames


def jacobian_ideal(f):
    """Ideal of all first partials; the zero ideal for a constant f."""
    gens = [f.partial_derivative(i) for i in range(f.nvars)]
    return Ideal(gens, f.nvars)


def milnor_number(g):
    """Local colength of the Jacobian ideal of g, given g(0) = 0; None
    when the singularity at the origin is not isolated, as for g = 0."""
    return local_colength(jacobian_ideal(g))


@dataclass(frozen=True)
class PolarIdeal:
    """The k-th polar ideal of f in frame, held in the coordinates of f:
    its image under z -> frame.matrix * z is the polar ideal in the frame
    (see polar_ideal).  plane_cut and teissier_check read f and frame."""

    ideal: Ideal
    saturation_exponent: int
    k: int
    f: object
    frame: CoordinateFrame


def polar_ideal(f, frame, k):
    """k-th polar ideal of f in the given frame (1 <= k <= n), in the
    coordinates of f: I' : A^infinity, with I' = (d_k, ..., d_n) and
    A = (d_0, ..., d_(k-1)), where d_j = sum_i M[i][j] * df/dz_i is the
    derivative of f along column j of M = frame.matrix.

    Why this is the polar ideal of the frame.  Let phi(p)(z) = p(Mz), an
    automorphism of the polynomial ring and of the local ring at 0, as M
    is invertible and fixes the origin.  By the chain rule
    d(f o M)/dz_j = phi(d_j), so the polar ideal of the frame, the partials
    of f o M for j >= k saturated by all of them, is phi of (I' : J^infinity)
    with J = I' + A.  Saturating by A instead of J changes nothing: J^m
    lies in A^m + I' and A^m in J^m, so for every m, I' : J^m = I' : A^m.
    The saturation exponent is thus the same, and phi carries ideal,
    quotients and exponent over exactly.
    """
    partials = [f.partial_derivative(i) for i in range(f.nvars)]
    d = []
    for column in zip(*frame.matrix):
        terms = {}
        for c, p in zip(column, partials):
            if c:
                for m, v in p.terms.items():
                    terms[m] = terms.get(m, 0) + c * v
        d.append(Polynomial(f.nvars, terms))
    sat, exponent = saturate(Ideal(d[k:], f.nvars), Ideal(d[:k], f.nvars))
    return PolarIdeal(sat, exponent, k, f, frame)


def section_multiplicities(f, frame, s):
    """gamma^k in the frame for k = s + 1, ..., n in turn, each None when
    invalid (see read_frame), all read from one restriction of f,
    g = frame.restrict(f, s + 1), in z_(s+1)..z_n.  f cut by H_k is g with
    z_(s+1), ..., z_(k-1) set to 0, the terms of g free of them, and for
    k < n gamma^k is its Milnor number.  On the line H_n it is a
    polynomial in z_n alone, of Milnor number its order minus 1, so
    gamma^n is read from the pure powers of z_n in g, with no colength:
    None when g has none, the line lying in V(f).  A generator, so that a
    caller that needs only gamma^(s+1) computes no other section."""
    g = frame.restrict(f, s + 1)
    for drop in range(g.nvars - 1):  # k = s + 1 + drop < n
        section = {m[drop:]: c for m, c in g.terms.items() if not any(m[:drop])}
        yield milnor_number(Polynomial(g.nvars - drop, section))
    line = [m[-1] for m in g.terms if not any(m[:-1])]
    yield min(line) - 1 if line else None


def plane_cut(pol):
    """The polar ideal of the frame cut by its plane z_0 = ... = z_(k-1) =
    0, as an ideal in the remaining variables z_k..z_n of the frame: each
    generator g of pol.ideal, held in the coordinates of f, evaluated at
    M[:, k..n] * (z_k, ..., z_n), M = pol.frame.matrix.  That is
    phi(g) = g(Mz) with z_0, ..., z_(k-1) set to 0, so the cut ideal is the
    frame's polar ideal plus (z_0, ..., z_(k-1)), read in z_k..z_n."""
    k = pol.k
    return Ideal([pol.frame.restrict(g, k) for g in pol.ideal.gens], pol.f.nvars - k)


@dataclass(frozen=True)
class GammaProfile:
    """Polar multiplicities gamma^0..gamma^(n+1) with sampling diagnostics.

    per_trial[t][k-1] is the value gamma^k read in frame t, or None if the
    frame is invalid for k there (see read_frame).  witness[k-1] is the
    first trial index attaining the reported minimum and agreement[k-1] how
    many trials did.  polar_ideals[k-1] is the k-th polar ideal at the
    witness frame of k, frames[witness[k-1]]: for k <= s the one that gave
    gamma^k there, for k > s the only one built for k.  The report's checks
    read these ideals instead of building them again.
    s comes from the gate, check_excluded; threshold is the agreement
    every k needs.
    """

    n: int
    gamma: tuple
    mult: int
    s: int
    threshold: int
    stable: bool
    per_trial: tuple
    agreement: tuple
    witness: tuple
    frames: tuple
    polar_ideals: tuple


def check_excluded(f):
    """Judge the standing assumptions on f and return (mu, s): its Milnor
    number and the dimension of its critical locus at the origin, both
    read from the leads of one local standard basis of the Jacobian ideal
    J (``mora_standard_basis``, by Lazard's homogenization).  s is the
    dimension of the monomial ideal they generate; for s = 0 the leads
    leave finitely many monomials outside, and mu, the colength of J*O, is
    their count; for s >= 1 there are infinitely many, and mu is None
    (``_staircase`` is None exactly when the leads have positive
    dimension).

    For f(0) = 0 in n + 1 variables, f is reduced at 0 exactly when
    s <= n - 1.  If g^2 divides f with g(0) = 0, df vanishes on V(g), so
    s = n.  Conversely f is constant on each connected component of Crit f
    near 0 (curve selection lemma), so a component of Crit f of dimension n
    is a component V(g) of V(f); f and df vanish on it, so g^2 divides f.
    """
    if f.is_zero():
        raise ExcludedCaseError("f is locally constant")
    if f.constant_term() != 0:
        raise ExcludedCaseError("f(0) != 0")
    if f.order_of_vanishing() == 1:
        raise ExcludedCaseError("origin is a smooth point of V(f)")
    lms = mora_standard_basis(jacobian_ideal(f))
    s = dimension(lms, f.nvars)
    if s == f.nvars - 1:
        raise ExcludedCaseError("f is not reduced at the origin")
    return _staircase(lms, f.nvars), s


def read_frame(f, frame, s):
    """Read one frame: its gamma^1..gamma^n and its polar ideals for k <= s.

    For k <= s gamma^k is the multiplicity of the polar ideal
    polar_ideal(f, frame, k): the local colength of its cut by H_k
    (plane_cut), 0 when the polar variety misses the origin.  A finite cut
    is a proper one: the polar ideal is (df/dz_k, ..., df/dz_n) :
    J^infinity, so by Krull's height theorem every component of its germ
    has dimension at least k, and a cut by k hyperplanes of finite
    colength forces dimension k.  For k > s gamma^k is the Milnor number
    of f cut by H_k, all read from one restriction of f
    (section_multiplicities).  None marks a frame invalid for k, and means
      - for k <= s, that the cut of the polar ideal is not finite;
      - for s < k < n, that mu(f|H_k) is not finite;
      - for k = n, that the line H_n lies in V(f).
    """
    pols = tuple(polar_ideal(f, frame, k) for k in range(1, s + 1))
    cuts = tuple(local_colength(plane_cut(pol)) for pol in pols)
    return cuts + tuple(section_multiplicities(f, frame, s)), pols


def decide(per_trial, mult):
    """The minimum rule on the readings per_trial[t][k-1] of the frames t.

    Per k, gamma^k is the least valid (not None) reading, agreement[k-1]
    counts the frames that read it and witness[k-1] is the first of them.
    The profile is stable when every k has at least threshold =
    ceil(trials/2) agreeing frames.  Returns (gamma, agreement, witness,
    threshold, stable), gamma with gamma^0 = 0 and gamma^(n+1) = 1.

    Raises NoValidFrame where a k has no valid reading, and where the least
    gamma^n is not mult - 1, mult the order of f at 0.  gamma^n in a frame
    is the order of f on the line H_n minus 1: at least mult - 1, with
    equality exactly when the line misses the tangent cone, so a minimum
    above it is a sampling failure.
    """
    trials = len(per_trial)
    gamma, agreement, witness = [0], [], []
    for k, column in enumerate(zip(*per_trial), start=1):
        valid = [v for v in column if v is not None]
        if not valid:
            raise NoValidFrame(f"no valid frame for k={k} after {trials} trials")
        gamma.append(min(valid))
        agreement.append(column.count(gamma[k]))
        witness.append(column.index(gamma[k]))
    n = len(witness)
    if gamma[n] != mult - 1:
        raise NoValidFrame(
            f"no frame for k={n} after {trials} trials has its line H_{n} off the tangent cone"
        )
    threshold = (trials + 1) // 2
    stable = all(a >= threshold for a in agreement)
    return tuple(gamma) + (1,), tuple(agreement), tuple(witness), threshold, stable


def gamma_profile(f, s, trials=5, seed=0, bound=10):
    """Sample polar multiplicities of f over `trials` random frames: draw
    the frames, read each (read_frame), decide gamma by the minimum rule
    (decide), then build the polar ideal of each k at its witness frame.
    The caller has run the gate of report.build_report, whose
    check_excluded gave s.

    For k <= s (s = dim Crit f at 0) gamma^k in a frame is the multiplicity
    of the saturated polar ideal.  For k > s it is the Milnor number of f
    restricted to H_k = {z_0 = ... = z_(k-1) = 0}, and no ideal is needed
    (Teissier's mu* sequence in generic frames: Teissier, "Cycles
    evanescents, sections planes et conditions de Whitney", Asterisque 7-8,
    1973).  Let I = (df/dz_k, ..., df/dz_n) in the frame, O the local ring
    at 0 and J the Jacobian ideal, and suppose mu(f|H_k) is finite.
    I + (z_0, ..., z_(k-1)) is the Jacobian ideal of f|H_k, so V(I) has
    dimension at most k at 0, and at least k by Krull, as I has n + 1 - k
    generators.  So I*O is a complete intersection: unmixed (Macaulay),
    with every associated prime of dimension k.  V(J) has dimension s < k,
    so no associated prime contains J, (I : J^infinity)*O = I*O, and the
    cut by H_k has colength mu(f|H_k).  For s = 0 the converse holds too:
    where mu(f|H_k) is not finite, V(I) cut by H_k holds a curve through 0,
    which meets V(J) = {0} only at 0 and so lies in V(I : J^infinity); the
    cut is not finite either.  For s >= 1 such a frame is invalid for k, as
    the prepolar condition asks (ROADMAP item 10).  As f is reduced, s < n.
    """
    mult = f.order_of_vanishing()
    frames = tuple(sample_frames(f.nvars, trials, seed, bound))
    per_trial, by_frame = zip(*(read_frame(f, fr, s) for fr in frames))
    gamma, agreement, witness, threshold, stable = decide(per_trial, mult)
    # Above s, the report reads a polar ideal only at the witness frame of k.
    polar_ideals = tuple(
        by_frame[t][k - 1] if k <= s else polar_ideal(f, frames[t], k)
        for k, t in enumerate(witness, start=1)
    )
    return GammaProfile(
        n=f.nvars - 1,
        gamma=gamma,
        mult=mult,
        s=s,
        threshold=threshold,
        stable=stable,
        per_trial=per_trial,
        agreement=agreement,
        witness=witness,
        frames=frames,
        polar_ideals=polar_ideals,
    )
