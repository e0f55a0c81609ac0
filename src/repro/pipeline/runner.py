"""The pass-manager: walk the §4 stages, trace them, memoize them.

:func:`run_analysis` is what ``repro.core.analyze`` now delegates to.
With neither ``trace`` nor ``cache`` it is a plain walk over
:data:`~repro.pipeline.stages.STAGES` and produces output byte-identical
to the pre-refactor monolith (the golden gate under ``tests/golden/``
enforces this).

Caching works on *groups* of contiguous stages.  Each
:class:`CacheGroup` covers the run of stages whose combined output is
one expensive intermediate, and its key is a blake2b digest of exactly
the inputs those stages consume — computable *before* any of them run:

=============  ==========================================  =================
kind           covers                                       keyed by
=============  ==========================================  =================
``arcs``       symbolize, exclude                           symbols, raw arcs,
                                                            keep_unknown, excluded
``self_times`` apportion                                    symbols, histogram,
                                                            excluded
``numbered``   build-graph, augment, break-cycles, number   arcs key, self_times
                                                            key, graph-editing
                                                            options
``prop``       propagate                                    numbered key,
                                                            self_times key
``profile``    assemble                                     prop key, input
                                                            warnings
=============  ==========================================  =================

Later keys fold in earlier ones, so the chain covers every input
transitively and a fully-warm run touches nothing but the digests.
Cache records carry the covered stages' warnings and counters so warm
runs replay both: the profile a warm run returns is indistinguishable
from a cold one (module the ``cached`` markers in the trace).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.pipeline.cache import (
    AnalysisCache,
    combine,
    digest_histogram,
    digest_layout,
    digest_raw_arcs,
    digest_symbols,
    digest_warnings,
)
from repro.pipeline.stages import STAGES, PipelineState, Stage
from repro.pipeline.trace import PipelineTrace, StageTrace


@dataclass(frozen=True)
class CacheGroup:
    """A contiguous run of stages memoized as one unit."""

    kind: str
    stages: tuple[str, ...]
    #: Extract the (treat-as-immutable) value to store after a cold run.
    capture: Callable[[PipelineState], object]
    #: Write a cached value back onto the state, skipping the stages.
    restore: Callable[[PipelineState, object], None]


def _restore_arcs(state: PipelineState, value) -> None:
    state.symbolized, state.arcs = value


def _restore_self_times(state: PipelineState, value) -> None:
    state.self_times = value


def _restore_numbered(state: PipelineState, value) -> None:
    state.graph, state.removed, state.numbered = value


def _restore_prop(state: PipelineState, value) -> None:
    state.prop = value


def _restore_profile(state: PipelineState, value) -> None:
    state.profile = value


#: The cache groups, in stage order; together they partition STAGES.
GROUPS: tuple[CacheGroup, ...] = (
    CacheGroup(
        "arcs",
        ("symbolize", "exclude"),
        lambda s: (s.symbolized, s.arcs),
        _restore_arcs,
    ),
    CacheGroup(
        "self_times",
        ("apportion",),
        lambda s: s.self_times,
        _restore_self_times,
    ),
    CacheGroup(
        "numbered",
        ("build-graph", "augment", "break-cycles", "number"),
        lambda s: (s.graph, s.removed, s.numbered),
        _restore_numbered,
    ),
    CacheGroup(
        "prop",
        ("propagate",),
        lambda s: s.prop,
        _restore_prop,
    ),
    CacheGroup(
        "profile",
        ("assemble",),
        lambda s: s.profile,
        _restore_profile,
    ),
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


def _run_stage(
    stage: Stage, state: PipelineState, trace: PipelineTrace | None
) -> tuple[str, dict[str, int], str]:
    """Run one stage, timed and counted; return its journal record:
    name, counters and the kernel backend that served it ("" if none).
    """
    counters: dict[str, int] = {}
    start = time.perf_counter()
    stage.run(state, counters)
    backend = state.backends.get(stage.name, "")
    if trace is not None:
        trace.add(
            StageTrace(
                stage.name, time.perf_counter() - start, counters,
                backend=backend,
            )
        )
    return stage.name, counters, backend


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
    stage_by_name = {s.name: s for s in STAGES}
    if cache is not None:
        # Seed the geometry spans if a same-layout analysis already
        # built them.  This is a sub-stage memo, not a cache group: a
        # hit only skips the geometry walk inside ``apportion``, never
        # a whole stage, so it deliberately stays out of the trace's
        # cache_hits/cache_misses accounting.
        cached_spans = cache.get("spans", keys["spans"])
        if cached_spans is not None:
            state.spans = cached_spans
    for group in GROUPS:
        if cache is not None:
            record = cache.get(group.kind, keys[group.kind])
            if record is not None:
                value, warnings, journal = record
                group.restore(state, value)
                state.warnings.extend(warnings)
                if trace is not None:
                    trace.cache_hits += 1
                    for name, counters, backend in journal:
                        trace.add(
                            StageTrace(
                                name, 0.0, dict(counters), cached=True,
                                backend=backend,
                            )
                        )
                continue
            if trace is not None:
                trace.cache_misses += 1
        mark = len(state.warnings)
        journal = [
            _run_stage(stage_by_name[name], state, trace)
            for name in group.stages
        ]
        if cache is not None:
            cache.put(
                group.kind,
                keys[group.kind],
                (group.capture(state), state.warnings[mark:], journal),
            )
            if group.kind == "self_times" and state.spans is not None:
                cache.put("spans", keys["spans"], state.spans)
    return state.profile
