"""Stage-isolation tests: each §4 pass honors its output contract.

Every stage gets a crafted :class:`PipelineState` and is run alone (or
up to its prerequisites); the assertions pin the contract the runner
and the cache rely on — including the §4 ordering constraint that
static augmentation precedes topological numbering.
"""

from __future__ import annotations

import pytest

from repro.core import AnalysisOptions, analyze
from repro.core.arcs import RawArc
from repro.pipeline import (
    GROUPS,
    STAGE_BY_NAME,
    STAGES,
    AnalysisCache,
    PipelineState,
    PipelineTrace,
    compute_keys,
    run_analysis,
)
from repro.pipeline.cache import (
    digest_histogram,
    digest_options,
    digest_raw_arcs,
    digest_symbols,
)

from tests.helpers import make_symbols, profile_data


def make_state(symbols, data, options=None) -> PipelineState:
    options = options or AnalysisOptions()
    return PipelineState(symbols=symbols, data=data, options=options,
                         warnings=list(data.warnings))


def run_until(state: PipelineState, last: str) -> None:
    """Run stages from the start through ``last`` (inclusive)."""
    for stage in STAGES:
        stage.run(state, {})
        if stage.name == last:
            return
    raise AssertionError(f"no stage named {last}")


@pytest.fixture()
def simple():
    symbols = make_symbols("main", "work", "leaf")
    data = profile_data(
        symbols,
        [("<spontaneous>", "main", 1), ("main", "work", 5),
         ("work", "leaf", 10)],
        ticks={"main": 2, "work": 6, "leaf": 2},
    )
    return symbols, data


# -- registry coherence ----------------------------------------------------


def test_registry_names_are_unique_and_ordered():
    names = [s.name for s in STAGES]
    assert len(names) == len(set(names))
    assert names == [
        "symbolize", "exclude", "apportion", "build-graph", "augment",
        "break-cycles", "number", "propagate", "assemble",
    ]
    assert set(STAGE_BY_NAME) == set(names)


def test_registry_dependencies_are_satisfied_in_order():
    """Every stage's ``requires`` is provided by an earlier stage."""
    provided: set[str] = set()
    for stage in STAGES:
        missing = set(stage.requires) - provided
        assert not missing, f"{stage.name} requires unprovided {missing}"
        provided |= set(stage.provides)


def test_augment_precedes_numbering():
    """§4: static arcs can complete cycles, so augmentation must come
    before topological numbering (and numbering before propagation)."""
    names = [s.name for s in STAGES]
    assert names.index("augment") < names.index("number")
    assert names.index("number") < names.index("propagate")


def test_cache_groups_partition_the_stage_list():
    covered = [name for group in GROUPS for name in group.stages]
    assert covered == [s.name for s in STAGES]


# -- individual stage contracts --------------------------------------------


def test_symbolize_resolves_arcs(simple):
    symbols, data = simple
    state = make_state(symbols, data)
    counters: dict[str, int] = {}
    STAGE_BY_NAME["symbolize"].run(state, counters)
    pairs = {(a.caller, a.callee) for a in state.symbolized}
    assert ("main", "work") in pairs and ("work", "leaf") in pairs
    assert counters["raw_arcs"] == 3
    assert counters["unknown_dropped"] == 0


def test_symbolize_warns_on_unknown_callees(simple):
    symbols, data = simple
    data.arcs.append(RawArc(4, 10_000_000, 3))  # callee outside the image
    state = make_state(symbols, data)
    counters: dict[str, int] = {}
    STAGE_BY_NAME["symbolize"].run(state, counters)
    assert counters["unknown_dropped"] == 1
    assert any("matches no symbol" in w for w in state.warnings)


def test_exclude_drops_arcs_touching_excluded_routines(simple):
    symbols, data = simple
    state = make_state(symbols, data, AnalysisOptions(excluded=["leaf"]))
    run_until(state, "exclude")
    names = {a.caller for a in state.arcs} | {a.callee for a in state.arcs}
    assert "leaf" not in names


def test_exclude_warns_on_unmatched_names(simple):
    """Satellite: a typo'd -E name must not be silently ignored."""
    symbols, data = simple
    state = make_state(
        symbols, data, AnalysisOptions(excluded=["no_such_routine"])
    )
    counters: dict[str, int] = {}
    STAGE_BY_NAME["symbolize"].run(state, {})
    STAGE_BY_NAME["exclude"].run(state, counters)
    assert counters["unmatched_names"] == 1
    assert any("no_such_routine" in w for w in state.warnings)
    # ...and the warning reaches the assembled profile.
    profile = analyze(
        data, symbols, AnalysisOptions(excluded=["no_such_routine"])
    )
    assert any("no_such_routine" in w for w in profile.warnings)
    assert profile.degraded


def test_exclude_accepts_valid_names_silently(simple):
    symbols, data = simple
    profile = analyze(data, symbols, AnalysisOptions(excluded=["leaf"]))
    assert not any("leaf" in w for w in profile.warnings)


def test_apportion_excludes_and_counts(simple):
    symbols, data = simple
    state = make_state(symbols, data, AnalysisOptions(excluded=["work"]))
    counters: dict[str, int] = {}
    STAGE_BY_NAME["apportion"].run(state, counters)
    assert "work" not in state.self_times
    assert counters["routines_sampled"] == len(state.self_times)
    assert state.self_times["main"] > 0


def test_build_graph_includes_sampled_only_routines(simple):
    symbols, data = simple
    state = make_state(symbols, data)
    run_until(state, "build-graph")
    assert set(state.graph.nodes()) >= {"main", "work", "leaf"}


def test_augment_adds_static_arcs_before_numbering(simple):
    symbols, data = simple
    state = make_state(
        symbols, data, AnalysisOptions(static_arcs=[("leaf", "main")])
    )
    run_until(state, "number")
    # The static back-edge completes a cycle spanning all three
    # routines; numbering after augmentation must see it.
    assert len(state.numbered.cycles) == 1
    assert set(state.numbered.cycles[0].members) == {"main", "work", "leaf"}


def test_break_cycles_warns_on_unmatched_deleted_arcs(simple):
    """Satellite: deleting an arc the graph never had is reported."""
    symbols, data = simple
    state = make_state(
        symbols, data, AnalysisOptions(deleted_arcs=[("leaf", "main")])
    )
    counters: dict[str, int] = {}
    run_until(state, "build-graph")
    STAGE_BY_NAME["augment"].run(state, {})
    STAGE_BY_NAME["break-cycles"].run(state, counters)
    assert counters["unmatched_requests"] == 1
    assert counters["removed_explicit"] == 0
    assert any("leaf/main" in w for w in state.warnings)
    profile = analyze(
        data, symbols, AnalysisOptions(deleted_arcs=[("leaf", "main")])
    )
    assert any("leaf/main" in w for w in profile.warnings)


def test_break_cycles_removes_matching_arcs_silently(simple):
    symbols, data = simple
    profile = analyze(
        data, symbols, AnalysisOptions(deleted_arcs=[("work", "leaf")])
    )
    assert [(r.caller, r.callee) for r in profile.removed_arcs] == [
        ("work", "leaf")
    ]
    assert not any("work/leaf" in w for w in profile.warnings)


def test_propagate_and_assemble_contracts(simple):
    symbols, data = simple
    state = make_state(symbols, data)
    run_until(state, "assemble")
    assert state.prop.total_program_time > 0
    assert state.profile is not None
    assert state.profile.total_seconds == state.prop.total_program_time
    assert state.profile.warnings == state.warnings


# -- digests and cache keys -------------------------------------------------


def test_digest_symbols_is_content_addressed():
    a = make_symbols("main", "work")
    b = make_symbols("main", "work")
    c = make_symbols("main", "other")
    assert digest_symbols(a) == digest_symbols(b)
    assert digest_symbols(a) != digest_symbols(c)
    # Memoized on the instance after the first computation.
    assert a._pipeline_digest == digest_symbols(a)


def test_digest_covers_every_input(simple):
    symbols, data = simple
    base = digest_raw_arcs(data)
    data.arcs[-1] = RawArc(
        data.arcs[-1].from_pc, data.arcs[-1].self_pc,
        data.arcs[-1].count + 1,
    )
    assert digest_raw_arcs(data) != base

    hist_base = digest_histogram(data.histogram)
    data.histogram.counts[0] += 1
    assert digest_histogram(data.histogram) != hist_base


def test_digest_options_is_order_sensitive():
    """Arc/exclusion order can break presentation ties, so option
    sequences are digested in the order given, not sorted."""
    a = AnalysisOptions(excluded=["x", "y"])
    b = AnalysisOptions(excluded=["y", "x"])
    assert digest_options(a) != digest_options(b)


def test_compute_keys_change_with_their_inputs(simple):
    symbols, data = simple
    base = compute_keys(make_state(symbols, data))
    assert set(base) == {
        "arcs", "spans", "self_times", "numbered", "prop", "profile",
    }

    excl = compute_keys(
        make_state(symbols, data, AnalysisOptions(excluded=["leaf"]))
    )
    assert excl["arcs"] != base["arcs"]
    assert excl["profile"] != base["profile"]

    # deleted_arcs leaves the early groups' keys alone (partial reuse).
    deleted = compute_keys(
        make_state(
            symbols, data, AnalysisOptions(deleted_arcs=[("work", "leaf")])
        )
    )
    assert deleted["arcs"] == base["arcs"]
    assert deleted["self_times"] == base["self_times"]
    assert deleted["numbered"] != base["numbered"]
    assert deleted["profile"] != base["profile"]


def test_cache_lru_eviction_and_stats():
    cache = AnalysisCache(max_entries=2)
    cache.put("arcs", "k1", 1)
    cache.put("arcs", "k2", 2)
    assert cache.get("arcs", "k1") == 1  # refresh k1
    cache.put("arcs", "k3", 3)  # evicts k2
    assert cache.get("arcs", "k2") is None
    assert cache.get("arcs", "k1") == 1
    assert cache.get("arcs", "k3") == 3
    assert cache.stats() == {"entries": 2, "hits": 3, "misses": 1}


def test_partial_cache_reuse_on_option_edit(simple):
    """Changing deleted_arcs hits the early groups, re-runs the rest."""
    symbols, data = simple
    cache = AnalysisCache()
    run_analysis(data, symbols, AnalysisOptions(), cache=cache)
    trace = PipelineTrace()
    run_analysis(
        data, symbols, AnalysisOptions(deleted_arcs=[("work", "leaf")]),
        trace=trace, cache=cache,
    )
    cached = {s.name for s in trace.stages if s.cached}
    recomputed = {s.name for s in trace.stages if not s.cached}
    assert cached == {"symbolize", "exclude", "apportion"}
    assert recomputed == {
        "build-graph", "augment", "break-cycles", "number", "propagate",
        "assemble",
    }


def test_warm_run_replays_warnings(simple):
    """Cached groups must re-emit the warnings the cold run collected."""
    symbols, data = simple
    options = AnalysisOptions(excluded=["no_such_routine"])
    cache = AnalysisCache()
    cold = run_analysis(data, symbols, options, cache=cache)
    warm = run_analysis(data, symbols, options, cache=cache)
    assert warm.warnings == cold.warnings
    assert any("no_such_routine" in w for w in warm.warnings)


def test_warm_run_sets_the_same_state_fields_as_cold(simple, monkeypatch):
    """A cache hit restores every field its group's stages provide: the
    warm state holds the very values the cold run computed."""
    import repro.pipeline.runner as runner

    states: list[PipelineState] = []

    class Recorded(PipelineState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(runner, "PipelineState", Recorded)
    symbols, data = simple
    cache = AnalysisCache()
    trace = PipelineTrace()
    run_analysis(data, symbols, AnalysisOptions(), cache=cache)
    run_analysis(data, symbols, AnalysisOptions(), trace=trace, cache=cache)
    cold, warm = states
    assert trace.cache_hits == len(GROUPS) and trace.cache_misses == 0
    for group in GROUPS:
        assert group.provides, group.kind
        for name in group.provides:
            assert getattr(cold, name) is not None, (group.kind, name)
            assert getattr(warm, name) is getattr(cold, name), (
                group.kind, name,
            )
    assert warm.warnings == cold.warnings
