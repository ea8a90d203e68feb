"""Polar multiplicities of hypersurface germs and rank bounds for the
cohomology of their real links."""

from .errors import (
    EXIT_EXCLUDED,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_UNSTABLE,
    DegreeLimitError,
    ExcludedCaseError,
    NoValidFrame,
    ParseError,
    PolarlinkError,
)
from .ideals import (
    Ideal,
    dimension,
    local_colength,
    mora_standard_basis,
    saturate,
)
from .link import (
    BettiVector,
    allowed_degrees,
    betti_feasibility,
    chain_complex,
    lambda_from_gamma,
    morse_bounds,
    n1_exact_sequence,
    telescope_table,
)
from .oracle import (
    TruncatedColength,
    bezout_gamma,
    gamma_identity_audit,
    stable_colength,
    teissier_check,
)
from .orders import DEGREE_LIMIT, GLOBAL, LOCAL, MonomialOrder, elimination
from .parse import parse_polynomial
from .polar import (
    CoordinateFrame,
    GammaProfile,
    gamma_profile,
    jacobian_ideal,
    milnor_number,
    polar_ideal,
    sample_frames,
)
from .poly import Polynomial

__version__ = "0.1.0"
