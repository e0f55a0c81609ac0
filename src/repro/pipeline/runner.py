"""Walk the §4 stages, trace them, memoize them.

:func:`run_analysis` is what ``repro.core.analyze`` delegates to.  It
runs :data:`~repro.pipeline.stages.STAGES` through the shared
:func:`~repro.pipeline.trace.run_stages`; with neither ``trace`` nor
``cache`` its output is byte-identical to the pre-refactor monolith
(the golden gate under ``tests/golden/`` enforces this).

Caching works on *groups* of contiguous stages.  Each
:class:`CacheGroup` covers the run of stages whose combined output is
one expensive intermediate: a cache entry holds the state fields the
group's stages ``provide``, and its key is a blake2b digest of exactly
the inputs those stages consume — computable *before* any of them run:

=============  =====================  =================  ==============
kind           covers                 holds              keyed by
=============  =====================  =================  ==============
``arcs``       symbolize, exclude     symbolized, arcs   symbols, raw arcs,
                                                         keep_unknown, excluded
``self_times`` apportion              spans, self_times  symbols, histogram,
                                                         excluded
``numbered``   build-graph, augment,  graph, removed,    arcs key, self_times
               break-cycles, number   numbered           key, graph-editing
                                                         options
``prop``       propagate              prop               numbered key,
                                                         self_times key
``profile``    assemble               profile            prop key, input
                                                         warnings
=============  =====================  =================  ==============

Later keys fold in earlier ones, so the chain covers every input
transitively and a fully-warm run touches nothing but the digests.
Cache records carry the covered stages' warnings and trace records so
warm runs replay both: the profile a warm run returns is
indistinguishable from a cold one (modulo the ``cached`` markers in
the trace).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.pipeline.cache import (
    AnalysisCache,
    combine,
    digest_histogram,
    digest_layout,
    digest_raw_arcs,
    digest_symbols,
    digest_warnings,
)
from repro.pipeline.stages import STAGE_BY_NAME, PipelineState
from repro.pipeline.trace import PipelineTrace, run_stages


@dataclass(frozen=True)
class CacheGroup:
    """A contiguous run of stages memoized as one unit."""

    kind: str
    stages: tuple[str, ...]

    @property
    def provides(self) -> tuple[str, ...]:
        """The state fields the group's stages write, in stage order —
        what a cache entry holds and a hit restores."""
        return tuple(dict.fromkeys(
            field for name in self.stages
            for field in STAGE_BY_NAME[name].provides
        ))


#: The cache groups, in stage order; together they partition STAGES.
GROUPS: tuple[CacheGroup, ...] = (
    CacheGroup("arcs", ("symbolize", "exclude")),
    CacheGroup("self_times", ("apportion",)),
    CacheGroup(
        "numbered", ("build-graph", "augment", "break-cycles", "number")
    ),
    CacheGroup("prop", ("propagate",)),
    CacheGroup("profile", ("assemble",)),
)

_SEP = ";;"


def compute_keys(state: PipelineState) -> dict[str, str]:
    """Content-addressed keys for every cache group, input digests only.

    Every key folds in the keys of the groups it depends on, so each
    covers its stages' inputs transitively.  Sequences keep their given
    order (see :func:`repro.pipeline.cache.digest_options`).
    """
    data, options = state.data, state.options
    sym = digest_symbols(state.symbols)
    hist = digest_histogram(data.histogram)
    arcs_key = combine(
        "arcs",
        sym,
        digest_raw_arcs(data),
        "ku1" if options.keep_unknown else "ku0",
        *options.excluded,
    )
    self_times_key = combine("self_times", sym, hist, *options.excluded)
    # Spans depend only on the geometry (layout x symbols), never the
    # counts, so their key deliberately omits the histogram digest —
    # that is what lets every same-layout profile share one entry.
    spans_key = combine("spans", sym, digest_layout(data.histogram))
    numbered_key = combine(
        "numbered",
        arcs_key,
        self_times_key,
        "ab1" if options.auto_break_cycles else "ab0",
        str(options.max_removed_arcs),
        *(name for pair in options.static_arcs for name in pair),
        _SEP,
        *(name for pair in options.deleted_arcs for name in pair),
    )
    prop_key = combine("prop", numbered_key, self_times_key)
    profile_key = combine("profile", prop_key, digest_warnings(data))
    return {
        "arcs": arcs_key,
        "spans": spans_key,
        "self_times": self_times_key,
        "numbered": numbered_key,
        "prop": prop_key,
        "profile": profile_key,
    }


def run_analysis(
    data,
    symbols,
    options,
    *,
    trace: PipelineTrace | None = None,
    cache: AnalysisCache | None = None,
):
    """Run the full §4 pipeline; return the assembled Profile.

    Arguments:
        data: the merged :class:`~repro.core.profiledata.ProfileData`.
        symbols: the executable's symbol table.
        options: the :class:`~repro.core.analysis.AnalysisOptions`.
        trace: optional :class:`PipelineTrace` to fill with per-stage
            wall time and counters (cached stages appear with their
            recorded counters and ``cached=True``).
        cache: optional :class:`AnalysisCache` memoizing intermediates
            across calls.  Cached values are shared and must be treated
            as immutable by callers.
    """
    state = PipelineState(data, symbols, options, warnings=list(data.warnings))
    keys = compute_keys(state) if cache is not None else None
    if cache is not None:
        # Seed the geometry spans if a same-layout analysis already
        # built them.  This is a sub-stage memo, not a cache group: a
        # hit only skips the geometry walk inside ``apportion``, never
        # a whole stage, so it deliberately stays out of the trace's
        # cache_hits/cache_misses accounting.
        cached_spans = cache.get("spans", keys["spans"])
        if cached_spans is not None:
            state.spans = cached_spans
    provided: set[str] = set()
    for group in GROUPS:
        fields = group.provides
        if cache is not None:
            record = cache.get(group.kind, keys[group.kind])
            if record is not None:
                values, warnings, records = record
                for name, value in zip(fields, values):
                    setattr(state, name, value)
                provided.update(fields)
                state.warnings.extend(warnings)
                if trace is not None:
                    trace.cache_hits += 1
                    trace.stages.extend(
                        replace(r, seconds=0.0, counters=dict(r.counters),
                                cached=True)
                        for r in records
                    )
                continue
            if trace is not None:
                trace.cache_misses += 1
        mark = len(state.warnings)
        records = run_stages(
            [STAGE_BY_NAME[name] for name in group.stages], state, provided
        )
        if trace is not None:
            trace.stages.extend(records)
        if cache is not None:
            cache.put(
                group.kind,
                keys[group.kind],
                (
                    tuple(getattr(state, name) for name in fields),
                    state.warnings[mark:],
                    records,
                ),
            )
            if group.kind == "self_times" and state.spans is not None:
                cache.put("spans", keys["spans"], state.spans)
    return state.profile
