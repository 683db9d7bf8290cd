"""Exact-rational toolkit for window categories over symmetric quivers.

Weight-lattice combinatorics for products of general linear groups attached
to a quiver with a cut: polytope membership and r-invariants (a
permutohedron prefix-sum form for one-vertex quivers, exact simplex LP for
the rest and as the test oracle), iterated cocharacter decompositions of
dominant weights, partition index sets with a semiorthogonal-style order,
window counting with a PBW-type recursion, and an exact shuffle product
with a two-parameter kernel.  All arithmetic is in Fraction / exact
symbolics; no floats.

`import hallwin` loads no submodule: each public name below is imported
from its submodule on first use, and each CLI command imports only the
layers it runs.
"""

import importlib
from fractions import Fraction as _Fraction

_SUBMODULE_NAMES = {
    "quiver_weights": """Quiver Weight jordan doubled_jordan tripled_jordan builtin_quiver
        rep_weights adjoint_weights cut_weights rho nu tau pair n_lambda N_positive
        adjoint_positive omega_weight compositions composition_cocharacter cochar_classes
        block_decompose""",
    "polytope": "WPolytope",
    "standard_form": """StandardForm Node decompose partition_of tree_of_partition
        slope_to_tree chi_A delta_Ai omega_shift""",
    "index_sets": """Truncation EnumResult window_generators enum_V enum_U enum_S enum_T
        compare partition_refines""",
    "pbw": """BijectionReport window_count window_count_table sym_count primitive_dims
        verify_bijection""",
    "lp": "",
    "shuffle": "",
}
# public name -> the submodule that defines it; a submodule's own name maps
# to itself
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items()
              for name in [module] + names.split()}

__all__ = sorted(_SUBMODULE)


def _rational(v) -> _Fraction:
    """v as a Fraction, a Fraction itself returned as it is.  A float is
    refused: it is a binary fraction, not the decimal it prints as, so it
    has no place in exact arithmetic.  It lives here, in the package every
    module loads, so that the weight layer and the kernel share it without
    loading each other."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; give an int, a Fraction or a string "
                        "such as '1/10'")
    return v if type(v) is _Fraction else _Fraction(v)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
