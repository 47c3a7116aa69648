"""Exact arithmetic for flow polytopes of complete-graph-like multigraphs:
composition-sum volumes and point counts, Kostant partition functions,
constant-term evaluation, Gamma-product closed forms, and face enumeration
via Tesler tableaux.

Each engine module is registered lazily: it is in `sys.modules` and bound
here from the start, but its code runs on first attribute access.  So a CLI
query executes only the modules of the route it runs, and a public name runs
its module when it is first looked up on the package.
"""

import importlib.util
import sys

# public name -> the engine module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "closedform": "catalan catalan_polytope_volume cry_product morris_closed "
                      "syt_staircase tesler_family_volume tesler_unit_volume",
        "compositions": "weak_compositions",
        "core": "Multigraph complete_graph degree_offsets kostant morris_graph "
                "tesler_graph",
        "ctengine": "CTIntegrand catalan_polytope_ct constant_term morris_ct "
                    "reduction_identity tesler_ct",
        "faces": "catalan_polytope_vertices count_vertex_tableaux f_vector "
                 "tableau_dimension tableau_to_forest vertex_count_formula vertex_tableaux",
        "lidskii": "EhrhartPolynomial binomial ehrhart_polynomial lidskii_points "
                   "lidskii_volume ps_volume",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"
__all__ = sorted(_EXPORTS)


def _register_lazily(*modules: str) -> None:
    for module in modules:
        spec = importlib.util.find_spec(f"{__name__}.{module}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        lazy = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = lazy
        spec.loader.exec_module(lazy)
        globals()[module] = lazy


_register_lazily("compositions", "core", "closedform", "ctengine", "expansion", "faces",
                 "lidskii", "verify")


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
