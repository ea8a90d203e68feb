"""Request generators for the three benchmark workloads.

Every workload is a finite list of requests built from the workload seed.
A run sends the list PASSES times, each pass in a fresh interpreter, so two
runs of one workload do the same amount of work and hit the same
failure-prone inputs the same number of times.  Requests marked `once` are
sent in the first pass only: they stall until the deadline or take several
seconds, and one sample of them is enough to keep them in view.  Frame
seeds are fixed per input: both the cost of a request and whether its
profile is stable depend on them, so drawing them from the workload seed
would make the work and the failure count differ from run to run.  The
workload seed varies the order, the stalling isolated surface and the Betti
hypotheses.  The program must be importable: the Fermat closed form comes
from polarlink.oracle.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from polarlink.oracle import bezout_gamma

V2 = ("x", "y")
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Request:
    """One run_compute call plus what the generator knows about its answer.

    expect_gamma is a closed form the report must reproduce; true_betti
    marks a Betti hypothesis that is the link's actual reduced Betti vector,
    which the feasibility audit must accept.
    """

    family: str
    poly: str
    varnames: tuple
    seed: int = 0
    trials: int = 5
    bound: int = 10
    betti: tuple | None = None
    components: int | None = None
    expect_gamma: tuple | None = None
    true_betti: bool = False
    once: bool = False

    def engine_key(self):
        """Inputs of the polar engine; the Betti hypothesis is not among them."""
        return (self.poly, self.varnames, self.trials, self.seed, self.bound)

    def key(self):
        return self.engine_key() + (self.betti, self.components)


def curve_gamma(mult):
    return (0, mult - 1, 1)


# --- isolated -----------------------------------------------------------

_LINES = ("x", "y", "(x+y)", "(x-y)", "(x+2*y)", "(2*x+y)")


def plane_curves():
    """(family, poly, mult, branches) for every plane curve the workload uses."""
    out = []
    for a in range(2, 7):
        for b in range(a, 7):
            out.append(("brieskorn-curve", f"x^{a}+y^{b}", a, math.gcd(a, b)))
    for d in range(2, 7):
        out.append(("line-arrangement", "*".join(_LINES[:d]), d, d))
    # D_k: y*(x^2 + y^(k-2)) has 3 branches for even k, 2 for odd k.
    for k in range(4, 8):
        out.append(("D-curve", f"x^2*y+y^{k - 1}", 3, 3 if k % 2 == 0 else 2))
    # E6 = x^3+y^4 and E8 = x^3+y^5 are already Brieskorn curves.
    out.append(("E-curve", "x^3+x*y^3", 3, 2))
    return out


# Frame seed of every isolated request but UNSTABLE_CURVE.
ISOLATED_FRAME_SEED = 0

# Isolated surfaces whose Teissier check runs far past the deadline (D5,
# D6, E6, E7, E8 and three Brieskorn-Pham surfaces with mixed exponents) at
# ISOLATED_FRAME_SEED.  At some other frame seeds the check finishes (D5 at
# seed 7 in about 7 s).
HARD_SURFACES = (
    "x^2*y+y^4+z^2",
    "x^2*y+y^5+z^2",
    "x^3+y^4+z^2",
    "x^3+x*y^3+z^2",
    "x^3+y^5+z^2",
    "x^2+y^4+z^4",
    "x^2+y^4+z^5",
    "x^3+y^4+z^4",
)

# Isolated surfaces and threefolds whose report completes (A1-A3, D4 and a
# Brieskorn-Pham surface), with the Fermat degree where the closed form
# applies.  The ones that take a second or more (x^4+y^4+z^4, x^2+y^3+z^3,
# A4) are left out, so that a pass stays short enough to be repeated.
COMPLETING = (
    ("A-surface", "x^2+y^2+z^2", V3, 2),
    ("A-surface", "x^2+y^2+z^3", V3, None),
    ("A-surface", "x^2+y^2+z^4", V3, None),
    ("D-surface", "x^2*y+y^3+z^2", V3, None),
    ("brieskorn-surface", "x^3+y^3+z^3", V3, 3),
    ("threefold", "x^2+y^2+z^2+w^2", V4, 2),
)


def fermat_gamma(varnames, d):
    return tuple(bezout_gamma(len(varnames) - 1, d, k) for k in range(len(varnames) + 1))


# Plane curves are stable at frame seeds 0-9, but not at all seeds: this one
# reports an unstable profile.  It is in every pass so that the isolated
# workload keeps that defect in view.
UNSTABLE_CURVE = Request(
    "line-arrangement",
    "*".join(_LINES),
    V2,
    seed=56,
    betti=(5, 6),
    components=6,
    expect_gamma=curve_gamma(6),
    true_betti=True,
)


def isolated(seed):
    rng = random.Random(seed)
    hard = Request("hard-surface", rng.choice(HARD_SURFACES), V3, seed=ISOLATED_FRAME_SEED, once=True)
    reqs = [hard, UNSTABLE_CURVE]
    for family, poly, varnames, d in COMPLETING:
        reqs.append(
            Request(
                family,
                poly,
                varnames,
                seed=ISOLATED_FRAME_SEED,
                expect_gamma=fermat_gamma(varnames, d) if d else None,
            )
        )
    for family, poly, mult, r in plane_curves():
        reqs.append(
            Request(
                family,
                poly,
                V2,
                seed=ISOLATED_FRAME_SEED,
                betti=(r - 1, r),
                components=r,
                expect_gamma=curve_gamma(mult),
                true_betti=True,
            )
        )
    rng.shuffle(reqs)
    return reqs


# --- nonisolated ----------------------------------------------------------

# (family, poly, vars, frame seeds, once).  The unstable profiles (exit 2)
# at these seeds are x*y*z*w at 0, x*y*z at 3, (x^2-y^2)*z at 2,
# y^2-x^2*z at 5 and x*y*z*(x+y+z) at 3.  The two inputs in four variables
# take 4-7 s each and are sent in the first pass only.
NONISOLATED = (
    ("whitney", "y^2-x^2*z", V3, (0, 5), False),
    ("cylinder", "(x^2-y^2)*z", V3, (0, 1, 2), False),
    ("pinch", "x^2*y+z^2", V3, (0,), False),
    ("line-arrangement", "x*y*(x+y)", V3, (0, 1, 2, 3, 4), False),
    ("line-arrangement", "x*y*(x+y)*(x-y)", V3, (0, 1, 2), False),
    ("line-arrangement", "x*y", V3, (0, 1), False),
    ("plane-arrangement", "x*y*z", V3, (0, 1, 3), False),
    ("plane-arrangement", "x*y*z*(x+y+z)", V3, (3,), False),
    ("plane-arrangement", "x*y*z*w", V4, (0,), True),
    ("pinch", "x*y+z^2*w", V4, (0,), True),
)


def nonisolated(seed):
    rng = random.Random(seed)
    reqs = [
        Request(family, poly, varnames, seed=s, once=once)
        for family, poly, varnames, seeds, once in NONISOLATED
        for s in seeds
    ]
    rng.shuffle(reqs)
    return reqs


# --- betti-audit ----------------------------------------------------------

# Fast inputs with a known reduced Betti vector and component count.  Two
# curves (~0.03 s a request), A1 (~0.08 s) and two slower surfaces (~0.35 s)
# in equal numbers put the median in the middle of the A1 requests rather
# than on the gap between the curves and the surfaces.
AUDITED = (
    ("x^2+y^3", V2, (0, 1), 1),
    ("x^3+y^3", V2, (2, 3), 3),
    ("x^2+y^2+z^2", V3, (0, 0, 0, 1), 1),
    ("x^2+y^2+z^3", V3, (0, 0, 0, 1), 1),
    ("x^3+y^3+z^3", V3, (0, 2, 2, 1), 1),
)
HYPOTHESES = 8
AUDIT_FRAME_SEED = 0


def _perturbations(betti, components):
    """Wrong hypotheses near the true one: one Betti number or the
    component count moved by one or two, every Betti number raised by one,
    or two Betti numbers swapped."""
    out = {(tuple(b + 1 for b in betti), components)}
    for i, b in enumerate(betti):
        for step in (-2, -1, 1, 2):
            if b + step >= 0:
                moved = betti[:i] + (b + step,) + betti[i + 1 :]
                out.add((moved, components))
    for step in (-2, -1, 1, 2):
        if components + step >= 1:
            out.add((betti, components + step))
    for i in range(len(betti)):
        for j in range(i + 1, len(betti)):
            if betti[i] != betti[j]:
                swapped = list(betti)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                out.add((tuple(swapped), components))
    return sorted(out)


def betti_audit(seed):
    rng = random.Random(seed)
    reqs = []
    for poly, varnames, betti, components in AUDITED:
        wrong = rng.sample(_perturbations(betti, components), HYPOTHESES - 1)
        hypotheses = [(betti, components, True)]
        hypotheses += [(b, c, False) for b, c in wrong]
        for b, c, true in hypotheses:
            reqs.append(
                Request(
                    "betti-audit",
                    poly,
                    varnames,
                    seed=AUDIT_FRAME_SEED,
                    betti=b,
                    components=c,
                    expect_gamma=fermat_gamma(varnames, 3) if poly == "x^3+y^3+z^3" else None,
                    true_betti=true,
                )
            )
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {
    "isolated": isolated,
    "nonisolated": nonisolated,
    "betti-audit": betti_audit,
}

# Per-request deadline in seconds: several times the slowest request of the
# workload that completes on the reference host under load (README.md).
DEADLINE_S = {"isolated": 8.0, "nonisolated": 20.0, "betti-audit": 12.0}

# Passes per run.  Each pass is sized to take 6-8 s on the reference host,
# so that the passes fit the benchmark's window with room for a slow host.
PASSES = {"isolated": 4, "nonisolated": 3, "betti-audit": 4}


def build(workload, seed):
    return WORKLOADS[workload](seed)
