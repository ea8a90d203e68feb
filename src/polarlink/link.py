"""From polar multiplicities to the real link.

The chain-level data is a complex whose term k has rank
lambda^k = gamma^k + gamma^(k+1) and computes reduced cohomology of the
link in degree n+k-1.  Alternating partial sums of the lambda ranks
telescope back to single gamma values, and comparing them against a
hypothesized vector of reduced Betti numbers gives two families of
Morse-type upper bounds, one per end of the complex.

The builders return the report's JSON values themselves: chain_complex,
telescope_table, morse_bounds and n1_exact_sequence the blocks of the same
names in docs/report_schema.md, betti_feasibility and components_force_s
the {name, passed, detail} objects of the feasibility block.
"""

from __future__ import annotations

from dataclasses import dataclass


def lambda_from_gamma(profile):
    """The ranks lambda^0..lambda^n of the link complex."""
    g = profile.gamma
    return tuple(g[k] + g[k + 1] for k in range(profile.n + 1))


def chain_complex(lam):
    """Term ranks and the cohomology degree each term computes."""
    n = len(lam) - 1
    return {"ranks": list(lam), "cohomology_degrees": [n + k - 1 for k in range(n + 1)]}


def telescope_table(profile, lam):
    """At every depth p, the two alternating partial sums of lambda beside
    the gamma values they telescope to.  They agree by construction, as
    lambda is built from gamma; nothing is checked here."""
    g = profile.gamma
    n = profile.n
    return [
        {
            "p": p,
            "from_bottom": sum((-1) ** k * lam[k] for k in range(p + 1)),
            "from_bottom_expected": (-1) ** p * g[p + 1],
            "from_top": sum((-1) ** k * lam[n - k] for k in range(p + 1)),
            "from_top_expected": 1 + (-1) ** p * g[n - p],
        }
        for p in range(n + 1)
    ]


@dataclass(frozen=True)
class BettiVector:
    """Hypothesized reduced Betti numbers b~^0..b~^(2n-1) of the link,
    optionally with the number of connected components of the germ."""

    values: tuple
    components: object = None

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("Betti numbers must be non-negative")


def morse_bounds(profile, betti=None):
    """Both families of link inequalities for p = 0..n.

    Family 1 runs from the bottom of the complex with right side
    gamma^(p+1), read from gamma, which the alternating sums of lambda
    telescope to (telescope_table); family 2 from the top with right side
    (-1)^p + gamma^(n-p).  terms lists [sign, degree] pairs of the left
    side; lhs and satisfied are None unless betti is given.
    """
    n = profile.n
    g = profile.gamma
    out = []
    for p in range(n + 1):
        for family, degrees, rhs in (
            (1, [n + k - 1 for k in range(p + 1)], g[p + 1]),
            (2, [2 * n - k - 1 for k in range(p + 1)], (-1) ** p + g[n - p]),
        ):
            terms = [[(-1) ** (p + k), d] for k, d in enumerate(degrees)]
            lhs = None if betti is None else sum(sign * betti.values[d] for sign, d in terms)
            satisfied = None if lhs is None else lhs <= rhs
            out.append({"family": family, "p": p, "terms": terms, "rhs": rhs, "lhs": lhs, "satisfied": satisfied})
    return out


def allowed_degrees(n, s):
    """Degrees in 0..2n-1 where the reduced cohomology may be nonzero:
    0 and 2n-1 always, plus the window n-1..n+s."""
    top = 2 * n - 1
    out = {0, top}
    for k in range(n - 1, min(n + s, top) + 1):
        out.add(k)
    return tuple(sorted(out))


def betti_feasibility(betti, profile, bounds):
    """Audit a Betti hypothesis against everything the profile forces.

    Checks the vanishing window, both families of Morse bounds at every p
    (bounds, as morse_bounds fills them for betti), the reduced Euler
    characteristic, and the component count when given.
    All at the level of ranks; a clean pass does not certify the vector is
    realized by the actual link.
    """
    n = profile.n
    window = allowed_degrees(n, profile.s)
    bad = [k for k, v in enumerate(betti.values) if v != 0 and k not in window]
    detail = f"allowed degrees {list(window)}" + (f", nonzero outside at {bad}" if bad else "")
    checks = [{"name": "vanishing_window", "passed": not bad, "detail": detail}]
    for b in bounds:
        checks.append(
            {
                "name": f"morse_family{b['family']}_p{b['p']}",
                "passed": bool(b["satisfied"]),
                "detail": f"lhs {b['lhs']} <= rhs {b['rhs']}",
            }
        )

    euler = sum((-1) ** k * v for k, v in enumerate(betti.values))
    checks.append(
        {
            "name": "reduced_euler_characteristic",
            "passed": euler == -1,
            "detail": f"alternating sum {euler}, required -1",
        }
    )

    if betti.components is not None:
        c = betti.components
        top = betti.values[2 * n - 1]
        checks.append(
            {
                "name": "components_equal_top_betti",
                "passed": top == c,
                "detail": f"b~^{2 * n - 1} = {top}, components = {c}",
            }
        )
        if c != 1:
            checks.append(components_force_s(c, profile))
    return checks


def components_force_s(components, profile):
    """A germ with more than one component has s = n - 1."""
    n = profile.n
    return {
        "name": "multiple_components_force_s",
        "passed": profile.s == n - 1,
        "detail": f"components {components} != 1 requires s = n-1 = {n - 1}, s = {profile.s}",
    }


def n1_exact_sequence(profile, betti=None):
    """The n=1 four-term sequence pinning the link of a plane curve.

    ranks is [b~^0, mult-1, mult, b~^1] with None placeholders when no
    Betti input was supplied; exactness forces b~^1 - b~^0 = 1 and the
    injection forces b~^0 <= mult-1, the two checks made when it was."""
    mult = profile.mult
    if betti is None:
        return {"ranks": [None, mult - 1, mult, None], "checks": []}
    b0, b1 = betti.values
    checks = [
        {
            "name": "difference_is_one",
            "passed": b1 - b0 == 1,
            "detail": f"b~^1 - b~^0 = {b1 - b0}, exactness requires 1",
        },
        {
            "name": "injection_bound",
            "passed": b0 <= mult - 1,
            "detail": f"b~^0 = {b0} must not exceed mult-1 = {mult - 1}",
        },
    ]
    return {"ranks": [b0, mult - 1, mult, b1], "checks": checks}
