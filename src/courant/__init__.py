"""Exact symbolic verification of split-form regular Courant algebroids.

Everything is computed over multivariate polynomials with rational
coefficients, so every structural statement in the library is an exact,
decidable identity: no tolerances, no floating point.

Import cost.  Compiling the package is most of what a short command
costs, so every layer that some command does not run is lazy:
``linalg`` (exact elimination and polynomial matrices), ``axioms`` (the
axiom check), ``charform`` (the Chern-Weil form and coherent pairs) and
``morphism`` (isomorphisms and transport).  ``_register_lazy`` puts
their module objects in ``sys.modules`` and on this package at once,
and their code runs on the first attribute access.  So ``charform``,
``naive`` and ``pontryagin`` compile none of them, ``check`` and
``axioms`` only ``axioms`` and ``linalg``, and ``shift`` and
``transport`` only ``morphism`` and ``linalg``: the records a config's
``[iso]`` and ``[hoist]`` blocks parse to, ``IsoData`` and ``Hoist``,
live in the eager layers, as do ``standard_three_form`` and
``hoist_data``.  The package names each export once: the eager ones in
the import block, the lazy ones in ``_LAZY_EXPORTS`` (served by
``__getattr__``).  It exports only what the demos, the README and
``bench/make_pool.py`` use; the rest is imported from its module.
Three rules keep this sound:

* a later lazy layer registers the same way, and lists its exports in
  ``_LAZY_EXPORTS`` only;
* every module binds a lazy layer as a module object (``from . import
  linalg``, then ``linalg.solve(...)``), never a name from it (``from
  .linalg import solve``), since binding a name runs the layer at
  import; ``tests/test_lazy_layers.py`` checks this;
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


linalg = _register_lazy(__name__ + ".linalg")
axioms = _register_lazy(__name__ + ".axioms")
charform = _register_lazy(__name__ + ".charform")
morphism = _register_lazy(__name__ + ".morphism")

from .poly import Poly
from .fiber import QuadLieAlgebra, abelian, su2
from .geometry import FConnection, FForm, GConnection, GValuedForm, Patch, leafwise_d, pontryagin_form
from .ample import Hoist, QuadAlgebroid, ce_differential
from .dorfman import IsoData, Quintuple, standard_three_form

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
            "phi_form",
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


__version__ = "0.1.0"
