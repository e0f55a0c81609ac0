"""repro — a faithful reproduction of gprof, the call graph execution
profiler (Graham, Kessler & McKusick, SIGPLAN 1982).

The package is organised exactly like the system the paper describes:

* :mod:`repro.machine` — a small virtual machine standing in for the
  VAX executables of the original: programs with real program counters,
  a clock-tick PC sampler, and an ``mcount`` monitoring routine.
* :mod:`repro.pyprof` — a native Python frontend gathering the same
  data (arcs + samples) for ordinary Python programs.
* :mod:`repro.gmon` — the condensed on-disk profile format.
* :mod:`repro.core` — the post-processor: call graph assembly, cycle
  discovery (Tarjan), topological time propagation, static-arc
  augmentation, filtering, multi-run merging.
* :mod:`repro.report` — the flat profile and the Figure 4 call-graph
  listing.
* :mod:`repro.baseline` — the ``prof(1)`` flat-only baseline gprof was
  built to improve on.
* :mod:`repro.kernel` — a simulated time-sharing kernel workload with a
  ``kgmon``-style live control interface.
* :mod:`repro.resilience` — crash-safe persistence: atomic writes,
  periodic checkpoint flushing, the salvaging reader's
  :class:`SalvageReport`, and a fault-injection harness.

Quickstart::

    from repro import pyprof, analyze, format_graph_profile

    with pyprof.Profiler() as p:
        my_program()
    profile = analyze(p.profile_data(), p.symbol_table())
    print(format_graph_profile(profile))
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AnalysisOptions",
    "Arc",
    "CallGraph",
    "FaultInjector",
    "Histogram",
    "InjectedFault",
    "Profile",
    "ProfileData",
    "RawArc",
    "SalvageReport",
    "Symbol",
    "SymbolTable",
    "analyze",
    "format_flat_profile",
    "format_graph_profile",
    "merge_profiles",
    "read_gmon",
    "salvage_gmon",
    "write_gmon",
    "__version__",
]

lazy_exports(__name__, {
    "repro.core": (
        "AnalysisOptions", "Arc", "CallGraph", "Histogram", "Profile",
        "ProfileData", "RawArc", "Symbol", "SymbolTable", "analyze",
        "merge_profiles",
    ),
    "repro.gmon": ("read_gmon", "salvage_gmon", "write_gmon"),
    "repro.report": ("format_flat_profile", "format_graph_profile"),
    "repro.resilience": ("FaultInjector", "InjectedFault", "SalvageReport"),
})
