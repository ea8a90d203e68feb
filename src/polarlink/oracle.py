"""Independent cross-checks for the polar engine.

The main tool is a truncated colength: inside the finite-dimensional space
of polynomials of degree below a cap D it spans all truncated multiples of
the generators and counts, by exact Gaussian elimination, the monomials
that survive.  For an ideal of finite local colength the count stabilizes
once D is large enough, so agreement of two consecutive caps together with
an empty top boundary certifies the value; one elimination at D + 1 that
ranks the monomials of degree D lowest gives both counts.  The rows are
integer term dicts: each generator is scaled to integers once by
``poly.integer_terms`` and the elimination is fraction-free.  None of this
shares code with the standard-basis machinery (``ideals``), only the
polynomial kernel (``poly``); that is the point.

Also here: the closed-form polar multiplicities of Fermat polynomials, the
Teissier sum check mu + mu' for the first polar curve, and the audit of the
boundary identities a gamma profile must satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add

from .errors import ImproperIntersection, NonIsolated
from .ideals import Ideal, finite_colength
from .ideals import local_colength  # unused; perfbench/tracer.py rebinds it (ROADMAP item 5)
from .orders import GLOBAL, mono_deg
from .poly import INFINITE, integer_terms
from .polar import milnor_number
from .polar import polar_ideal  # unused; perfbench/tracer.py rebinds it (ROADMAP item 5)

HARD_DEGREE_CAP = 40


@dataclass(frozen=True)
class OracleVerdict:
    """One named comparison; passed is True exactly when the sides agree."""

    name: str
    expected: object
    actual: object
    passed: bool
    context: str = ""


def verdict(name, expected, actual, context=""):
    return OracleVerdict(name, expected, actual, expected == actual, context)


@dataclass(frozen=True)
class TruncatedColength:
    value: int
    stable: bool
    cap: int


def monomials_below(nvars, cap):
    """All exponent tuples with total degree strictly below cap."""
    if cap <= 0:
        return []
    out = []
    mono = [0] * nvars

    def rec(i, budget):
        if i == nvars - 1:
            for e in range(budget + 1):
                mono[i] = e
                out.append(tuple(mono))
            mono[i] = 0
            return
        for e in range(budget + 1):
            mono[i] = e
            rec(i + 1, budget - e)
        mono[i] = 0

    rec(0, cap - 1)
    return out


def _echelon_pivots(rows, key):
    """Leading monomials of an echelon form of the row space of the integer
    term dicts rows, leads chosen by key, which maps each monomial of the
    rows to a sort key.  A row is reduced by the pivot with its lead as
    a*row - b*pivot, a and b the two lead coefficients divided by their
    gcd, and then divided by its content, so it stays proportional to the
    row of a Fraction elimination and meets the same pivots."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row, key=key.__getitem__)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            d = gcd(piv[lead], row[lead])
            a, b = piv[lead] // d, row[lead] // d
            if a != 1:
                row = {m: a * v for m, v in row.items()}
            for m, v in piv.items():
                c = row.get(m, 0) - b * v
                if c:
                    row[m] = c
                else:
                    del row[m]
            c = gcd(*row.values())
            if c > 1:
                row = {m: v // c for m, v in row.items()}
    return pivots


def _survivors(I, cap):
    """The monomials of degree < cap that survive the truncated multiples
    below cap, and the number that survive those below cap + 1.  One
    elimination below cap + 1, degree-cap monomials ranked lowest and
    degrevlex otherwise, gives both: a row without a counterpart below cap
    has only degree-cap terms, so the pivots of degree < cap are the
    degrevlex pivots below cap.  The multipliers are the monomials below
    cap + 1, taken by degree: for each degree the part of a generator that
    stays at or below cap is cut once."""
    below = monomials_below(I.nvars, cap + 1)
    key = {m: (mono_deg(m) < cap, GLOBAL.key(m)) for m in below}
    by_degree = [[] for _ in range(cap + 1)]
    for u in below:
        by_degree[mono_deg(u)].append(u)
    rows = []
    for g in map(integer_terms, I.gens):
        for du, us in enumerate(by_degree):
            part = [(gm, gc) for gm, gc in g.items() if mono_deg(gm) + du <= cap]
            if not part:
                break
            rows.extend({tuple(map(add, gm, u)): gc for gm, gc in part} for u in us)
    pivots = _echelon_pivots(rows, key)
    here = [m for m in below if mono_deg(m) < cap and m not in pivots]
    return here, len(below) - len(pivots)


def truncated_colength(I, cap):
    """Colength estimate from degree-truncated linear algebra.

    Stable means the count at cap and cap+1 agree and no surviving monomial
    sits on the top boundary (degree cap-1); in that case the value is the
    exact local colength.  Both counts come from one elimination; the zero
    ideal has no rows, so its count grows with the cap and never stabilizes.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    here, nxt = _survivors(I, cap)
    boundary_clear = all(mono_deg(m) < cap - 1 for m in here)
    return TruncatedColength(len(here), len(here) == nxt and boundary_clear, cap)


def stable_colength(I, start_cap, hard_cap=HARD_DEGREE_CAP):
    """Run the truncated colength, doubling the cap until it stabilizes or
    the hard cap is reached."""
    cap = max(2, start_cap)
    cap = min(cap, hard_cap)
    while True:
        r = truncated_colength(I, cap)
        if r.stable or cap >= hard_cap:
            return r
        cap = min(2 * cap, hard_cap)


def default_cap(f):
    """Starting cap used when auditing ideals derived from f."""
    return 2 * max(f.total_degree(), 1) + 4


def bezout_gamma(n, d, k):
    """Polar multiplicity of the Fermat polynomial sum z_i^d in n+1
    variables: (d-1)^(n+1-k)."""
    if not 0 <= k <= n + 1:
        raise ValueError("k out of range")
    if k == 0:
        return 0
    return (d - 1) ** (n + 1 - k)


def teissier_check(pol, mu):
    """Intersection number of the first polar curve with V(f) versus the
    sum of the Milnor numbers of f and its slice by z_0 = 0 in the frame.

    pol is the first polar ideal of f (k = 1) in the frame to check, as
    polar.polar_ideal builds it, which carries f in that frame too, and
    mu = milnor_number(f), which the caller has already computed.  The
    frame must be usable: f needs an isolated singularity and the slice
    must keep one too; NonIsolated flags unusable frames, and
    ImproperIntersection a zero polar ideal.

    The polar curve then cuts V(f) in finite colength, so the meet is
    counted by ideals.finite_colength.  By curve selection, take an arc
    gamma(t) through 0 in V(meet).  The meet contains d_1 f, ..., d_n f
    and f, so on the arc d/dt f(gamma) = d_0 f(gamma) * gamma_0' = 0.
    Either d_0 f vanishes on the arc, which then lies in Crit(f), or
    gamma_0 is constant 0 and the arc lies in Crit(f restricted to
    z_0 = 0).  Both are the origin alone, as mu and mu' are finite, so the
    arc is constant and V(meet) is the origin.
    """
    if mu is INFINITE:
        raise NonIsolated("f does not have an isolated singularity")
    fM = pol.fM
    sliced = fM.substitute_zero([0])
    mu_slice = milnor_number(sliced)
    if mu_slice is INFINITE:
        raise NonIsolated("the hyperplane slice in this frame is not isolated")
    if pol.ideal.is_zero():
        raise ImproperIntersection("first polar ideal is zero in this frame")
    lhs = finite_colength(Ideal(pol.ideal.gens + (fM,), fM.nvars))
    return verdict(
        "teissier_polar_against_slice",
        mu + mu_slice,
        lhs,
        context=f"mu={mu}, mu_slice={mu_slice}",
    )


def gamma_identity_audit(profile):
    """The three boundary identities every profile must satisfy."""
    g = profile.gamma
    n = profile.n
    return [
        verdict("gamma_0_is_zero", 0, g[0]),
        verdict("gamma_top_is_one", 1, g[n + 1]),
        verdict("gamma_n_is_mult_minus_one", profile.mult - 1, g[n]),
    ]
