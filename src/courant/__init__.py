"""Exact symbolic verification of split-form regular Courant algebroids.

Everything is computed over multivariate polynomials with rational
coefficients, so every structural statement in the library is an exact,
decidable identity: no tolerances, no floating point.

Import cost.  Compiling the package is most of what a short command
costs, so the two command layers, ``charform`` (the characteristic
3-form and coherent pairs) and ``morphism`` (isomorphisms and
transport), are lazy: ``_register_lazy`` puts their module objects in
``sys.modules`` and on this package at once, and their code runs on the
first attribute access.  ``check``, ``axioms`` and ``pontryagin`` then
never compile them: the records a config's ``[iso]`` and ``[hoist]``
blocks parse to, ``IsoData`` and ``Hoist``, live in the eager layers.
The package names the lazy layers define are served by ``__getattr__``
through ``_LAZY_EXPORTS``.  Three rules keep this sound:

* a future command layer registers the same way, with its names in
  ``_LAZY_EXPORTS``;
* the eager layers (``poly``, ``fiber``, ``linalg``, ``geometry``,
  ``ample``, ``dorfman``, ``report``) never import a lazy one at module
  level, or every command would compile it again;
* ``importlib.util.LazyLoader`` is not thread-safe before Python 3.12,
  which is fine for the single-threaded CLI.
"""

import importlib.util
import sys


def _register_lazy(name: str):
    """The module ``name``, in ``sys.modules`` now, executed on first use."""
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


charform = _register_lazy(__name__ + ".charform")
morphism = _register_lazy(__name__ + ".morphism")

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
    Hoist,
    QuadAlgebroid,
    aform_to_str,
    ce_differential,
)
from .dorfman import IsoData, Quintuple, Section, monomials, naive_differential, naive_matches_ce
from .report import CheckRecord, Report, Witness

# Package name -> the lazy layer that defines it.
_LAZY_EXPORTS = {
    **dict.fromkeys(
        (
            "CharPair",
            "build_from_pair",
            "characteristic_pair_of",
            "check_coherent",
            "e_connection_form",
            "find_hoist",
            "hoist_data",
            "standard_three_form",
        ),
        charform,
    ),
    **dict.fromkeys(
        (
            "apply_iso",
            "central_shift_iso",
            "coboundary_identity_check",
            "hoist_shift_iso",
            "intertwining_report",
            "omega_shift_iso",
            "phi_form",
            "psi_form",
            "pullback_aform",
            "transport",
            "validate_iso",
        ),
        morphism,
    ),
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(module, name)


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
