"""Polar ideals of a hypersurface singularity and their local multiplicities.

For f vanishing at the origin of C^(n+1), the k-th polar ideal is the
saturation of (df/dz_k, ..., df/dz_n) by the full Jacobian ideal, computed
after a linear change of coordinates.  Its local colength against the plane
H_k = {z_0 = ... = z_(k-1) = 0} is the polar multiplicity; the profile
samples random integer frames and keeps, per k, the minimum over the frames
where the cut is finite.  Above the critical dimension s, which the gate
check_excluded reads, that is for k > s, the multiplicity in a frame is
the Milnor number of f cut by H_k (see gamma_profile), so the profile
builds a polar ideal there only at the witness frame of each k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ExcludedCaseError, NoValidFrame
from .ideals import Ideal, dimension, local_colength, mora_standard_basis, saturate
from .poly import INFINITE, det


@dataclass(frozen=True)
class CoordinateFrame:
    """Invertible integer change of coordinates z_i -> sum_j m[i][j] z_j."""

    matrix: tuple

    def __post_init__(self):
        if det(self.matrix) == 0:
            raise ValueError("frame matrix is singular")

    def transform(self, p):
        return p.substitute_linear(self.matrix)


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
    """Local colength of the Jacobian ideal of g, given g(0) = 0; INFINITE
    when the singularity at the origin is not isolated, as for g = 0."""
    return local_colength(jacobian_ideal(g))


@dataclass(frozen=True)
class PolarIdeal:
    """The k-th polar ideal in a frame, with fM = frame.transform(f), the
    polynomial it was built from."""

    ideal: Ideal
    saturation_exponent: int
    k: int
    fM: object


# frame is unused; perfbench/tracer.py reads it (ROADMAP item 5)
def polar_ideal(fM, frame, k, jacobian):
    """k-th polar ideal of f in the given frame, from fM = frame.transform(f)
    and jacobian = jacobian_ideal(fM), both built once per frame.

    Generated by the partials of fM with respect to z_k..z_n (1 <= k <= n),
    saturated by the full Jacobian ideal to remove the critical locus.
    """
    n = fM.nvars - 1
    gens = [fM.partial_derivative(i) for i in range(k, n + 1)]
    sat, exponent = saturate(Ideal(gens, fM.nvars), jacobian)
    return PolarIdeal(sat, exponent, k, fM)


def polar_multiplicity(pol):
    """Local multiplicity of a polar ideal for index k = pol.k: the local
    colength of its cut by the plane z_0 = ... = z_(k-1) = 0, 0 when the
    polar variety misses the origin, or None when the cut is not finite.

    A finite cut is a proper one: the polar ideal is (df/dz_k, ...,
    df/dz_n) : J^infinity, so by Krull's height theorem every component of
    its germ has dimension at least k, and a cut by k hyperplanes of finite
    colength forces dimension k.
    """
    c = local_colength(plane_cut(pol))
    return None if c is INFINITE else c


def section_multiplicity(fM, k):
    """gamma^k in a frame for k > s, from fM = frame.transform(f): the
    Milnor number of fM cut by the plane z_0 = ... = z_(k-1) = 0, or None
    when it is INFINITE (see gamma_profile)."""
    mu = milnor_number(fM.substitute_zero(range(k)))
    return None if mu is INFINITE else mu


def plane_cut(pol):
    """The polar ideal cut by the plane z_0 = ... = z_(k-1) = 0, as an
    ideal in the remaining variables z_k..z_n."""
    k = pol.k
    return Ideal([g.substitute_zero(range(k)) for g in pol.ideal.gens], pol.ideal.nvars - k)


@dataclass(frozen=True)
class GammaProfile:
    """Polar multiplicities gamma^0..gamma^(n+1) with sampling diagnostics.

    per_trial[t][k-1] is the value gamma^k measured in frame t, or None if
    the frame is invalid for k there: for k <= s the cut of the polar ideal
    is not finite, for k > s the Milnor number of the section is INFINITE.
    witness[k-1] is the first trial index attaining the reported minimum and
    agreement[k-1] how many trials did.  polar_ideals[t][k-1] is the k-th
    polar ideal of frame t where one was built, and None elsewhere.  It is
    built in every frame for k <= s, where it gives gamma^k, and for k > s
    only at the witness frame of k; later checks read these ideals instead
    of building them again.  mu (INFINITE unless s = 0) and s come from the
    gate, check_excluded; threshold is the agreement every k needs.
    """

    n: int
    gamma: tuple
    mult: int
    s: int
    mu: object
    threshold: int
    stable: bool
    per_trial: tuple
    agreement: tuple
    witness: tuple
    frames: tuple
    polar_ideals: tuple

    def witness_polar_ideal(self, k):
        return self.polar_ideals[self.witness[k - 1]][k - 1]


def check_excluded(f):
    """Judge the standing assumptions on f and return (mu, s): its Milnor
    number and the dimension of its critical locus at the origin, s read
    from the uncut Mora basis of the Jacobian ideal only where mu is INFINITE.

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
    mu = milnor_number(f)
    s = 0 if mu is not INFINITE else dimension(mora_standard_basis(jacobian_ideal(f)), f.nvars)
    if s == f.nvars - 1:
        raise ExcludedCaseError("f is not reduced at the origin")
    return mu, s


def gamma_profile(f, mu, s, trials=5, seed=0, bound=10):
    """Sample polar multiplicities of f over `trials` random frames.

    The reported gamma^k is the minimum over valid frames; the profile is
    stable when for every k at least ceil(trials/2) frames agree on that
    minimum.  gamma^0 = 0 and gamma^(n+1) = 1 by convention.  The caller
    has run the gate of report.build_report, whose check_excluded gave mu, s.

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
    where mu(f|H_k) is INFINITE, V(I) cut by H_k holds a curve through 0,
    which meets V(J) = {0} only at 0 and so lies in V(I : J^infinity); the
    cut is not finite either.  For s >= 1 such a frame is invalid for k, as
    the prepolar condition asks (ROADMAP item 10).

    As f is reduced, s < n, and gamma^n in a frame is the order of f on the
    line H_n minus 1: at least mult(f) - 1, with equality exactly when the
    line misses the tangent cone.  A minimum above it is a sampling failure.
    """
    n = f.nvars - 1
    mult = f.order_of_vanishing()
    frames = tuple(sample_frames(f.nvars, trials, seed, bound))
    transformed = tuple(fr.transform(f) for fr in frames)

    per_trial = []
    polar_ideals = []
    for fr, fM in zip(frames, transformed):
        pols = [None] * n
        if s:
            jacobian = jacobian_ideal(fM)
            for k in range(1, s + 1):
                pols[k - 1] = polar_ideal(fM, fr, k, jacobian)
        per_trial.append(
            tuple(
                polar_multiplicity(pol) if k <= s else section_multiplicity(fM, k)
                for k, pol in enumerate(pols, start=1)
            )
        )
        polar_ideals.append(pols)
    per_trial = tuple(per_trial)

    gamma = [0] * (n + 2)
    gamma[n + 1] = 1
    agreement = []
    witness = []
    for k in range(1, n + 1):
        vals = [row[k - 1] for row in per_trial if row[k - 1] is not None]
        if not vals:
            raise NoValidFrame(
                f"no valid frame for k={k} after {trials} trials"
            )
        best = min(vals)
        gamma[k] = best
        hits = [t for t, row in enumerate(per_trial) if row[k - 1] == best]
        agreement.append(len(hits))
        witness.append(hits[0])
    if gamma[n] != mult - 1:
        raise NoValidFrame(
            f"no frame for k={n} after {trials} trials has its line H_{n} off the tangent cone"
        )

    # Above s, the report reads a polar ideal only at the witness frame of k.
    for k in range(s + 1, n + 1):
        t = witness[k - 1]
        fM = transformed[t]
        polar_ideals[t][k - 1] = polar_ideal(fM, frames[t], k, jacobian_ideal(fM))

    threshold = (trials + 1) // 2
    stable = all(a >= threshold for a in agreement)
    return GammaProfile(
        n=n,
        gamma=tuple(gamma),
        mult=mult,
        s=s,
        mu=mu,
        threshold=threshold,
        stable=stable,
        per_trial=per_trial,
        agreement=tuple(agreement),
        witness=tuple(witness),
        frames=frames,
        polar_ideals=tuple(map(tuple, polar_ideals)),
    )
