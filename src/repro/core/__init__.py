"""The gprof post-processing core: the paper's primary contribution.

Public surface:

* :class:`~repro.core.symbols.Symbol`, :class:`~repro.core.symbols.SymbolTable`
* :class:`~repro.core.arcs.RawArc`, :class:`~repro.core.arcs.Arc`,
  :class:`~repro.core.arcs.ArcSet`
* :class:`~repro.core.histogram.Histogram`
* :class:`~repro.core.callgraph.CallGraph`
* :func:`~repro.core.cycles.number_graph` and friends
* :func:`~repro.core.propagate.propagate`
* :class:`~repro.core.profiledata.ProfileData`,
  :func:`~repro.core.profiledata.merge_profiles`
* :func:`~repro.core.analysis.analyze`, :class:`~repro.core.analysis.Profile`
"""

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisOptions",
    "Arc",
    "ArcSet",
    "ArcShare",
    "Baseline",
    "CallGraph",
    "CoverageReport",
    "Cycle",
    "DEFAULT_PROFRATE",
    "FlatEntry",
    "GraphEntry",
    "Histogram",
    "NumberedGraph",
    "Profile",
    "ProfileData",
    "Propagation",
    "ProfileDelta",
    "RawArc",
    "RelativeLine",
    "Rule",
    "SPONTANEOUS",
    "Symbol",
    "SymbolTable",
    "Violation",
    "analyze",
    "check_baseline",
    "compare_profiles",
    "coverage",
    "format_coverage",
    "format_delta",
    "profile_to_dict",
    "save_profile_json",
    "merge_profiles",
    "number_graph",
    "paper_numbering",
    "propagate",
    "strongly_connected_components",
    "sum_histograms",
    "symbolize_arcs",
    "verify_topological",
]

lazy_exports(__name__, {
    ".analysis": (
        "AnalysisOptions", "FlatEntry", "GraphEntry", "Profile",
        "RelativeLine", "analyze",
    ),
    ".arcs": ("Arc", "ArcSet", "RawArc", "symbolize_arcs"),
    ".callgraph": ("CallGraph",),
    ".compare": ("ProfileDelta", "compare_profiles", "format_delta"),
    ".coverage": ("CoverageReport", "coverage", "format_coverage"),
    ".export": ("profile_to_dict", "save_profile_json"),
    ".regress": ("Baseline", "Rule", "Violation", "check_baseline"),
    ".cycles": (
        "Cycle", "NumberedGraph", "number_graph", "paper_numbering",
        "strongly_connected_components", "verify_topological",
    ),
    ".histogram": ("DEFAULT_PROFRATE", "Histogram", "sum_histograms"),
    ".profiledata": ("ProfileData", "merge_profiles"),
    ".propagate": ("ArcShare", "Propagation", "propagate"),
    ".symbols": ("SPONTANEOUS", "Symbol", "SymbolTable"),
})
