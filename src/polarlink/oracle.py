"""Independent cross-checks for the polar engine.

The main tool is a colength certified by Nakayama's lemma.  Let count(c) =
dim Q[z]/(I + m^c), m the maximal ideal at the origin: the number of
monomials of degree below c that survive the truncated multiples of the
generators below c, counted by exact Gaussian elimination.  If count(c) =
count(c + 1), then m^c lies in I*O + m^(c+1), hence in I*O by Nakayama (O
the local ring), and count(c) is the local colength (Greuel-Pfister,
section 1.7).  One elimination below a degree top, each row led by its
lowest-degree term, gives count(c) for every c <= top at once: a
Macaulay-matrix standard basis (Lazard 1983).  The rows are integer term
dicts: each generator is scaled to integers once by
``poly.integer_terms`` and the elimination is fraction-free.  None of this
shares code with the standard-basis machinery (``ideals``), only the
polynomial kernel (``poly``) and the monomial orders (``orders``); that is
the point.

Also here: the closed-form polar multiplicities of Fermat polynomials, the
Teissier sum check mu + mu' for the first polar curve, and the audit of the
boundary identities a gamma profile must satisfy.  These two return their
verdicts as the {name, expected, actual, passed, context} objects that the
report's oracles block lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, gcd
from operator import add

from .ideals import Ideal, local_colength
from .orders import LOCAL, mono_deg
from .poly import integer_terms
from .polar import milnor_number  # unused; perfbench/tracer.py rebinds it (ROADMAP item 5)
from .polar import polar_ideal  # unused; perfbench/tracer.py rebinds it (ROADMAP item 5)

HARD_DEGREE_CAP = 40
# Rows or monomials of one elimination: 1.22 M monomials, (x) in five
# variables below degree 41, take 0.85 GB, so this allows about 1.4 GB.
ELIMINATION_SIZE = 2 * 10**6


def verdict(name, expected, actual, context=""):
    """One named comparison, as the report's oracles block lists it;
    passed is True exactly when the sides agree."""
    return {"name": name, "expected": expected, "actual": actual, "passed": expected == actual, "context": context}


@dataclass(frozen=True)
class TruncatedColength:
    value: int
    stable: bool
    cap: int


def monomials_of_degree(nvars, d):
    """All exponent tuples in nvars variables of total degree d, the first
    exponent rising slowest."""
    if nvars == 1:
        return [(d,)]
    return [(e,) + m for e in range(d + 1) for m in monomials_of_degree(nvars - 1, d - e)]


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


def _counts(I, top):
    """count(c) = dim Q[z]/(I + m^c) for c = 0, ..., top, from one
    elimination of the truncated multiples below top, each row led by its
    lowest-degree term (``LOCAL``).  The rows of degree < c span the
    multiples below c, and an echelon row whose lead has degree >= c has no
    term below c, so the pivots of degree < c are those of the image below
    c: count(c) is the number of monomials of degree < c minus that of the
    pivots.  The multipliers are the monomials below top, taken by degree:
    for each degree the part of a generator that stays below top is cut
    once, so a generator of least term degree d has C(top - 1 - d + n, n)
    rows in n variables.  More than ELIMINATION_SIZE rows, or monomials
    below top, are refused by a ValueError before any is built."""
    n = I.nvars
    lows = (min(map(mono_deg, g.terms)) for g in I.gens)
    size = sum(comb(top - 1 - d + n, n) for d in lows if d < top)
    if max(size, comb(top - 1 + n, n)) > ELIMINATION_SIZE:
        raise ValueError(f"an oracle elimination below degree {top} passes {ELIMINATION_SIZE} rows or monomials")
    by_degree = [monomials_of_degree(n, d) for d in range(top)]
    rows = []
    for g in map(integer_terms, I.gens):
        for du, us in enumerate(by_degree):
            part = [(gm, gc) for gm, gc in g.items() if mono_deg(gm) + du < top]
            if not part:
                break
            rows.extend({tuple(map(add, gm, u)): gc for gm, gc in part} for u in us)
    fresh = [len(us) for us in by_degree]
    key = {m: LOCAL.key(m) for us in by_degree for m in us}
    for m in _echelon_pivots(rows, key):
        fresh[mono_deg(m)] -= 1
    return list(accumulate(fresh, initial=0))


def stable_colength(I, start_cap, hard_cap=HARD_DEGREE_CAP):
    """The local colength of I at the origin, certified by Nakayama.

    If count(c) = count(c + 1), then m^c lies in I*O + m^(c+1), so in I*O
    by Nakayama (O the local ring at the origin), and count(c) is the
    colength.  The counts come from one elimination below top + 1, for
    top = 2, 4, 8, ... up to hard_cap, until the least such c <= top is
    found.  cap reports where a cap doubled from start_cap reaches c: the
    first of s, 2s, 4s, ... (s = max(2, start_cap)), clipped at hard_cap,
    that is at least c.  Without a certificate the result is
    (count(hard_cap), False, hard_cap); the zero ideal's counts grow with
    c, so it is never stable.
    """
    top = min(2, hard_cap)
    while True:
        counts = _counts(I, top + 1)
        for c in range(1, top + 1):
            if counts[c] == counts[c + 1]:
                cap = min(max(2, start_cap), hard_cap)
                while cap < c:
                    cap = min(2 * cap, hard_cap)
                return TruncatedColength(counts[c], True, cap)
        if top >= hard_cap:
            return TruncatedColength(counts[hard_cap], False, hard_cap)
        top = min(2 * top, hard_cap)


def default_cap(f):
    """Starting cap used when auditing ideals derived from f."""
    return 2 * max(f.total_degree(), 1) + 4


def bezout_gamma(n, d, k):
    """Polar multiplicity of the Fermat polynomial sum z_i^d in n+1
    variables: (d-1)^(n+1-k)."""
    if k == 0:
        return 0
    return (d - 1) ** (n + 1 - k)


def teissier_check(pol, mu, mu_slice):
    """Intersection number of the first polar curve with V(f) versus the
    sum of the Milnor numbers of f and its slice by z_0 = 0 in the frame.

    pol is the first polar ideal of f (k = 1) in the frame to check, as
    polar.polar_ideal builds it: held in the coordinates of f, with f and
    the frame M.  mu = milnor_number(f) and mu_slice, the Milnor number of
    f o M with z_0 = 0, come from the caller, which uses the check only
    where both are finite: a frame where the slice is not isolated is
    unusable.  The meet is taken in the coordinates of f: with
    phi(p)(z) = p(Mz), the frame's polar ideal is phi(pol.ideal) and
    f o M = phi(f), and phi is an automorphism of the local ring at 0, so
    dim O/(phi(pol.ideal) + (f o M)) = dim O/(pol.ideal + (f)).

    The polar ideal is not zero: it contains the derivatives d_1, ..., d_n
    of f along the columns 1..n of M, so were it zero, f o M would be a
    polynomial in z_0 alone, with Jacobian ideal (d(f o M)/dz_0), and mu
    not finite.  The polar curve then cuts V(f) in finite colength, so the
    meet is counted by ideals.local_colength.  In the frame, by curve
    selection, take an arc gamma(t) through 0 in V(meet).  The meet
    contains the partials of f o M along z_1, ..., z_n and f o M, so on the
    arc d/dt (f o M)(gamma) = d(f o M)/dz_0 (gamma) * gamma_0' = 0.  Either
    d(f o M)/dz_0 vanishes on the arc, which then lies in Crit(f o M), or
    gamma_0 is constant 0 and the arc lies in the critical locus of the
    slice z_0 = 0.  Both are the origin alone, as mu and mu_slice are
    finite, so the arc is constant and V(meet) is the origin.
    """
    f = pol.f
    lhs = local_colength(Ideal(pol.ideal.gens + (f,), f.nvars))
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
