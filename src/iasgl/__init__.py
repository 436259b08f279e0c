"""Integer additive set-graceful labeling of graphs.

Sumset arithmetic over finite sets of non-negative integers, subset
classification over a ground set, the labeling verification ladder,
pruned backtracking existence search, constructive realisations, and a
desk-scale harness that re-checks the structural results behind it all.

The names below are exported lazily (PEP 562): importing the package
loads no layer, and the first use of a name loads only its module.
"""

__version__ = "0.1.0"

#: Exported name -> the module that defines it.
_EXPORTS = {
    "Graph": "graphs",
    "enumerate_free_trees": "graphs",
    "generate": "graphs",
    "pendant_vertices": "graphs",
    "GateReport": "labeling",
    "Labeling": "labeling",
    "Violation": "labeling",
    "graceful_targets": "labeling",
    "induced_edge_label": "labeling",
    "structural_gate": "labeling",
    "verify_iasgl": "labeling",
    "verify_iasi": "labeling",
    "verify_iasl": "labeling",
    "verify_ladder": "labeling",
    "RealisationResult": "realisation",
    "build_realisation": "realisation",
    "SearchConfig": "search",
    "SearchOutcome": "search",
    "SearchStats": "search",
    "SearchStatus": "search",
    "search_iasgl": "search",
    "sweep_ground_sets": "search",
    "Classification": "sets",
    "GroundSet": "sets",
    "IntegerSet": "sets",
    "SummandMode": "sets",
    "ZERO_SET": "sets",
    "classify_ground_set": "sets",
    "enumerate_canonical_ground_sets": "sets",
    "enumerate_nonempty_subsets": "sets",
    "sumset": "sets",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        # Not an export; a submodule such as ``io`` is then found by the
        # import system itself.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
