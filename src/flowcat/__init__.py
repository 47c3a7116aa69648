"""Exact arithmetic for flow polytopes of complete-graph-like multigraphs:
composition-sum volumes and point counts, Kostant partition functions,
constant-term evaluation, Gamma-product closed forms, and face enumeration
via Tesler tableaux."""

from .closedform import (
    GammaHalfValue,
    catalan,
    catalan_polytope_volume,
    cry_product,
    gamma_half,
    morris_closed,
    morris_polytope_volume,
    syt_staircase,
    tesler_family_volume,
    tesler_unit_volume,
)
from .compositions import binomial, multinomial, weak_compositions
from .core import (
    Multigraph,
    complete_graph,
    degree_offsets,
    kostant,
    morris_graph,
    tesler_graph,
)
from .ctengine import (
    CTIntegrand,
    catalan_polytope_ct,
    constant_term,
    morris_ct,
    reduction_identity_sides,
    tesler_ct,
    verify_reduction_bijection,
)
from .faces import (
    DecreasingForest,
    TeslerTableau,
    catalan_polytope_vertices,
    f_vector,
    forest_to_tableau,
    tableau_dimension,
    tableau_to_forest,
    vertex_count_formula,
    vertex_tableaux,
)
from .lidskii import (
    EhrhartPolynomial,
    NotFullDimensionalError,
    ehrhart_polynomial,
    lidskii_points,
    lidskii_volume,
    ps_volume,
)

__version__ = "0.1.0"

__all__ = [
    "CTIntegrand",
    "DecreasingForest",
    "EhrhartPolynomial",
    "GammaHalfValue",
    "Multigraph",
    "NotFullDimensionalError",
    "TeslerTableau",
    "binomial",
    "catalan",
    "catalan_polytope_ct",
    "catalan_polytope_vertices",
    "catalan_polytope_volume",
    "complete_graph",
    "constant_term",
    "cry_product",
    "degree_offsets",
    "ehrhart_polynomial",
    "f_vector",
    "forest_to_tableau",
    "gamma_half",
    "kostant",
    "lidskii_points",
    "lidskii_volume",
    "morris_closed",
    "morris_ct",
    "morris_graph",
    "morris_polytope_volume",
    "multinomial",
    "ps_volume",
    "reduction_identity_sides",
    "syt_staircase",
    "tableau_dimension",
    "tableau_to_forest",
    "tesler_ct",
    "tesler_family_volume",
    "tesler_graph",
    "tesler_unit_volume",
    "vertex_count_formula",
    "vertex_tableaux",
    "verify_reduction_bijection",
    "weak_compositions",
]
