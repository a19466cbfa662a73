"""Stationary distributions of finite Markov chains.

The central construction: the unnormalized stationary weights of a
row-stochastic matrix ``P`` are the ``n`` principal minors of ``I - P``.
Everything here either computes those weights (exactly, in rational
arithmetic, or in float), cross-checks them against independent methods,
or analyzes the reducible case where they all vanish.
"""

from .matrix_core import (
    EXACT,
    FLOAT,
    StochasticMatrix,
    adjugate,
    as_float_array,
    clear_denominators,
    determinant,
    identity_matrix,
    int_determinant,
    is_z_matrix,
    matrix_mode,
    minor,
    principal_minor,
)
from .equilibrium import (
    EquilibriumResult,
    closed_form_2,
    closed_form_3,
    closed_form_4,
    closed_form_5,
    equilibrium_polytope,
    matrix_from_bands,
    minor_weights,
    relative_probability,
    stationary,
    verify_equilibrium,
)
from .reducibility import (
    DecompositionReport,
    communicating_classes,
    is_irreducible,
)
from .graph_walk import (
    Graph,
    GraphEquilibrium,
    ZeroOutDegreeError,
    degree_vector,
    graph_stationary,
    walk_matrix,
)
from .oracle import (
    PowerMethodReport,
    SingularSystemError,
    linear_solve_stationary,
    perturb,
    power_method,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "StochasticMatrix",
    "adjugate",
    "as_float_array",
    "clear_denominators",
    "determinant",
    "identity_matrix",
    "int_determinant",
    "is_z_matrix",
    "matrix_mode",
    "minor",
    "principal_minor",
    "EquilibriumResult",
    "closed_form_2",
    "closed_form_3",
    "closed_form_4",
    "closed_form_5",
    "matrix_from_bands",
    "minor_weights",
    "relative_probability",
    "stationary",
    "verify_equilibrium",
    "DecompositionReport",
    "communicating_classes",
    "equilibrium_polytope",
    "is_irreducible",
    "Graph",
    "GraphEquilibrium",
    "ZeroOutDegreeError",
    "degree_vector",
    "graph_stationary",
    "walk_matrix",
    "PowerMethodReport",
    "SingularSystemError",
    "linear_solve_stationary",
    "perturb",
    "power_method",
]
