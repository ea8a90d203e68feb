"""From polar multiplicities to the real link.

The chain-level data is a complex whose term k has rank
lambda^k = gamma^k + gamma^(k+1) and computes reduced cohomology of the
link in degree n+k-1.  Alternating partial sums of the lambda ranks
telescope back to single gamma values, and comparing them against a
hypothesized vector of reduced Betti numbers gives two families of
Morse-type upper bounds, one per end of the complex.
"""

from __future__ import annotations

from dataclasses import dataclass


def lambda_from_gamma(profile):
    """The ranks lambda^0..lambda^n of the link complex."""
    g = profile.gamma
    return tuple(g[k] + g[k + 1] for k in range(profile.n + 1))


@dataclass(frozen=True)
class ChainComplexSpec:
    """Term ranks and the cohomology degree each term computes."""

    ranks: tuple
    degrees: tuple


def chain_complex(lam):
    n = len(lam) - 1
    return ChainComplexSpec(lam, tuple(n + k - 1 for k in range(n + 1)))


@dataclass(frozen=True)
class TelescopeRow:
    p: int
    from_bottom: int
    from_bottom_expected: int
    from_top: int
    from_top_expected: int


def telescope_table(profile, lam):
    """At every depth p, the two alternating partial sums of lambda beside
    the gamma values they telescope to.  They agree by construction, as
    lambda is built from gamma; nothing is checked here."""
    g = profile.gamma
    n = profile.n
    return tuple(
        TelescopeRow(
            p,
            sum((-1) ** k * lam[k] for k in range(p + 1)),
            (-1) ** p * g[p + 1],
            sum((-1) ** k * lam[n - k] for k in range(p + 1)),
            1 + (-1) ** p * g[n - p],
        )
        for p in range(n + 1)
    )


@dataclass(frozen=True)
class BettiVector:
    """Hypothesized reduced Betti numbers b~^0..b~^(2n-1) of the link,
    optionally with the number of connected components of the germ."""

    values: tuple
    components: object = None

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("Betti numbers must be non-negative")


@dataclass(frozen=True)
class MorseBound:
    """One inequality.  family 1 runs from the bottom of the complex with
    right side gamma^(p+1); family 2 from the top with right side
    (-1)^p + gamma^(n-p).  terms lists (sign, degree) pairs of the left
    side; lhs and satisfied are filled only when Betti input is present."""

    family: int
    p: int
    terms: tuple
    rhs: int
    lhs: object = None
    satisfied: object = None


def morse_bounds(profile, betti=None):
    """Both families of link inequalities for p = 0..n.

    The right-hand sides are read from gamma, which the alternating sums
    of lambda telescope to (telescope_table).
    """
    n = profile.n
    g = profile.gamma
    out = []
    for p in range(n + 1):
        terms1 = tuple(((-1) ** (p + k), n + k - 1) for k in range(p + 1))
        out.append(_fill(MorseBound(1, p, terms1, g[p + 1]), betti))
        terms2 = tuple(((-1) ** (p + k), 2 * n - k - 1) for k in range(p + 1))
        out.append(_fill(MorseBound(2, p, terms2, (-1) ** p + g[n - p]), betti))
    return tuple(out)


def _fill(bound, betti):
    if betti is None:
        return bound
    lhs = sum(sign * betti.values[deg] for sign, deg in bound.terms)
    return MorseBound(
        bound.family, bound.p, bound.terms, bound.rhs, lhs, lhs <= bound.rhs
    )


def allowed_degrees(n, s):
    """Degrees in 0..2n-1 where the reduced cohomology may be nonzero:
    0 and 2n-1 always, plus the window n-1..n+s."""
    top = 2 * n - 1
    out = {0, top}
    for k in range(n - 1, min(n + s, top) + 1):
        out.add(k)
    return tuple(sorted(out))


@dataclass(frozen=True)
class FeasibilityCheck:
    name: str
    passed: bool
    detail: str


def betti_feasibility(betti, profile, bounds):
    """Audit a Betti hypothesis against everything the profile forces.

    Checks the vanishing window, both families of Morse bounds at every p
    (bounds, as morse_bounds fills them for betti), the reduced Euler
    characteristic, and the component count when given.
    All at the level of ranks; a clean pass does not certify the vector is
    realized by the actual link.
    """
    n = profile.n
    checks = []

    window = allowed_degrees(n, profile.s)
    bad = [
        k for k, v in enumerate(betti.values) if v != 0 and k not in window
    ]
    checks.append(
        FeasibilityCheck(
            "vanishing_window",
            not bad,
            f"allowed degrees {list(window)}"
            + (f", nonzero outside at {bad}" if bad else ""),
        )
    )

    for b in bounds:
        checks.append(
            FeasibilityCheck(
                f"morse_family{b.family}_p{b.p}",
                bool(b.satisfied),
                f"lhs {b.lhs} <= rhs {b.rhs}",
            )
        )

    euler = sum((-1) ** k * v for k, v in enumerate(betti.values))
    checks.append(
        FeasibilityCheck(
            "reduced_euler_characteristic",
            euler == -1,
            f"alternating sum {euler}, required -1",
        )
    )

    if betti.components is not None:
        c = betti.components
        top = betti.values[2 * n - 1]
        checks.append(
            FeasibilityCheck(
                "components_equal_top_betti",
                top == c,
                f"b~^{2 * n - 1} = {top}, components = {c}",
            )
        )
        if c != 1:
            checks.append(components_force_s(c, profile))
    return tuple(checks)


def components_force_s(components, profile):
    """A germ with more than one component has s = n - 1."""
    n = profile.n
    return FeasibilityCheck(
        "multiple_components_force_s",
        profile.s == n - 1,
        f"components {components} != 1 requires s = n-1 = {n - 1}, s = {profile.s}",
    )


@dataclass(frozen=True)
class N1Sequence:
    """The n=1 four-term sequence pinning the link of a plane curve.

    ranks is (b~^0, mult-1, mult, b~^1) with None placeholders when no
    Betti input was supplied; exactness forces b~^1 - b~^0 = 1 and the
    injection forces b~^0 <= mult-1."""

    ranks: tuple
    checks: tuple


def n1_exact_sequence(profile, betti=None):
    mult = profile.mult
    b0 = betti.values[0] if betti is not None else None
    b1 = betti.values[1] if betti is not None else None
    checks = []
    if betti is not None:
        checks.append(
            FeasibilityCheck(
                "difference_is_one",
                b1 - b0 == 1,
                f"b~^1 - b~^0 = {b1 - b0}, exactness requires 1",
            )
        )
        checks.append(
            FeasibilityCheck(
                "injection_bound",
                b0 <= mult - 1,
                f"b~^0 = {b0} must not exceed mult-1 = {mult - 1}",
            )
        )
    return N1Sequence((b0, mult - 1, mult, b1), tuple(checks))
