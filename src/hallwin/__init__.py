"""Exact-rational toolkit for window categories over symmetric quivers.

Weight-lattice combinatorics for products of general linear groups attached
to a quiver with a cut: polytope membership and r-invariants (a
permutohedron prefix-sum form for one-vertex quivers, exact simplex LP for
the rest and as the test oracle), iterated cocharacter decompositions of
dominant weights, partition index sets with a semiorthogonal-style order,
window counting with a PBW-type recursion, and an exact shuffle product
with a two-parameter kernel.  All arithmetic is in Fraction / exact
symbolics; no floats.
"""

from .quiver_weights import (
    Quiver,
    Weight,
    jordan,
    doubled_jordan,
    tripled_jordan,
    builtin_quiver,
    rep_weights,
    adjoint_weights,
    cut_weights,
    rho,
    nu,
    tau,
    pair,
    n_lambda,
    N_positive,
    adjoint_positive,
    omega_weight,
    compositions,
    composition_cocharacter,
    cochar_classes,
    block_decompose,
)
from .polytope import WPolytope
from .standard_form import (
    StandardForm,
    Node,
    decompose,
    partition_of,
    tree_of_partition,
    slope_to_tree,
    chi_A,
    delta_Ai,
    omega_shift,
)
from .index_sets import (
    Truncation,
    EnumResult,
    window_generators,
    enum_V,
    enum_U,
    enum_S,
    enum_T,
    compare,
    partition_refines,
)
from .pbw import (
    BijectionReport,
    window_count,
    window_count_table,
    sym_count,
    primitive_dims,
    verify_bijection,
)


def __getattr__(name):
    # the shuffle layer is imported on first use; it loads sympy itself only
    # where an element's sympy `expr` is read
    if name == "shuffle":
        import importlib
        return importlib.import_module(".shuffle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["shuffle"])
