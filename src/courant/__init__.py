"""Exact symbolic verification of split-form regular Courant algebroids.

Everything is computed over multivariate polynomials with rational
coefficients, so every structural statement in the library is an exact,
decidable identity: no tolerances, no floating point.
"""

from .poly import Poly, PolyParseError, parse_poly
from .fiber import QuadLieAlgebra, abelian, su2
from .geometry import (
    FConnection,
    FForm,
    GConnection,
    GValuedForm,
    Patch,
    leafwise_d,
    pontryagin_form,
    validate_connection,
)
from .ample import (
    AForm,
    ASection,
    QuadAlgebroid,
    aform_to_str,
    ce_differential,
)
from .dorfman import Quintuple, Section, monomials, naive_differential, naive_matches_ce
from .charform import (
    CharPair,
    Hoist,
    build_from_pair,
    characteristic_pair_of,
    check_coherent,
    e_connection_form,
    find_hoist,
    hoist_data,
    standard_three_form,
)
from .morphism import (
    IsoData,
    apply_iso,
    central_shift_iso,
    coboundary_identity_check,
    hoist_shift_iso,
    intertwining_report,
    omega_shift_iso,
    phi_form,
    psi_form,
    pullback_aform,
    transport,
    validate_iso,
)
from .report import CheckRecord, Report, Witness

__all__ = [
    "AForm",
    "ASection",
    "CharPair",
    "CheckRecord",
    "FConnection",
    "FForm",
    "GConnection",
    "GValuedForm",
    "Hoist",
    "IsoData",
    "Patch",
    "Poly",
    "PolyParseError",
    "QuadAlgebroid",
    "QuadLieAlgebra",
    "Quintuple",
    "Report",
    "Section",
    "Witness",
    "abelian",
    "aform_to_str",
    "apply_iso",
    "build_from_pair",
    "ce_differential",
    "central_shift_iso",
    "characteristic_pair_of",
    "check_coherent",
    "coboundary_identity_check",
    "e_connection_form",
    "find_hoist",
    "hoist_data",
    "hoist_shift_iso",
    "intertwining_report",
    "leafwise_d",
    "monomials",
    "naive_differential",
    "naive_matches_ce",
    "omega_shift_iso",
    "parse_poly",
    "phi_form",
    "pontryagin_form",
    "psi_form",
    "pullback_aform",
    "standard_three_form",
    "su2",
    "transport",
    "validate_connection",
    "validate_iso",
]

__version__ = "0.1.0"
