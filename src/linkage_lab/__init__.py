"""Exact computational workbench for linkage of graded modules.

Modules are finitely presented graded modules over standard graded
quotients k[x_1..x_n]/I, held as explicit presentations with twist
bookkeeping.  The package computes transposes, syzygies, the linkage
operator, Ext/Tor, and homological invariants (depth, dimension,
G-dimension relative to a semidualizing module, Serre-type depth
conditions, Auslander-class membership), and mechanically checks a
battery of linkage theorems on concrete instances, reporting exact or
bounded evidence for every claim.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.  A module is imported
# the first time one of its names is read (PEP 562), so a script pays
# only for the layers it uses: `import linkage_lab` imports no submodule.
_EXPORTS = {
    "config": ("INFINITY", "default_bound"),
    "corpus": ("classical_rings", "corpus_pool", "generate_corpus",
               "maximal_ideal"),
    "dsl": ("DslError", "parse", "pretty_print"),
    "errors": ("BudgetError", "HomogeneityError", "InapplicableError"),
    "fields": ("GF", "QQ", "field_from_name"),
    "homops": ("dual", "ext", "ext_vanishes", "hom_module",
               "is_nth_cosyzygy_witness", "lambda_module", "syzygy",
               "tensor", "tor", "transpose", "transpose_wrt",
               "universal_pushforward"),
    "invariants": ("canonical_module", "depth", "gc_dim", "grade_module",
                   "in_auslander_class", "is_cm", "is_mcm",
                   "is_semidualizing", "krull_dim",
                   "local_cohomology_degrees", "reduced_grade",
                   "ring_depth", "ring_dim", "ring_is_cm",
                   "ring_is_gorenstein", "serre_tilde"),
    "isomorphism": ("is_isomorphic",),
    "linkage": ("is_horizontally_linked", "is_self_linked",
                "linked_by_ideal", "stable_part"),
    "modules": ("ModulePresentation", "cyclic_module", "direct_sum",
                "free_module", "from_matrix", "minimalize", "twist_module",
                "zero_module"),
    "resolutions": ("betti", "minimal_free_resolution"),
    "rings": ("GradedRing", "make_ring"),
    "runner": ("RunConfig", "execute", "report_json", "report_text"),
    "theorems": ("TheoremId", "TheoremReport", "check", "default_instances",
                 "run_suite", "special_instances"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = [*_MODULE_OF, "__version__"]
