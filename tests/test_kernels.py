"""Unit tests for repro.core.kernels: selection, folds, spans, plans.

The backend contract is *exactness*, not closeness: every backend's
bucket/arc folds must equal the python reference integer-for-integer,
and the float kernels must produce bit-identical dicts.  The
cross-backend property sweep lives in ``test_kernels_equivalence``;
these tests pin the mechanics — selection precedence, the overflow
demotion paths, error shapes, memoization — with hand-built inputs.
"""

from __future__ import annotations

import pickle
import struct

import pytest

from repro.core import kernels
from repro.core.cycles import number_graph
from repro.core.kernels import arcs as karcs
from repro.core.kernels import buckets as kbuckets
from repro.core.kernels import prop as kprop
from repro.core.kernels.buckets import _LANE_LIMIT
from repro.core.kernels.spans import build_spans, spans_for
from repro.errors import KernelBackendError
from repro.fleet import ProfileAccumulator

from tests.helpers import graph_from_edges, make_symbols

BACKENDS = kernels.available_backends()


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate every test from ambient backend selection state."""
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    kernels.set_default_backend(None)
    yield
    kernels.set_default_backend(None)


def pack_buckets(counts) -> bytes:
    return struct.pack(f"<{len(counts)}I", *counts)


def pack_arcs(triples) -> bytes:
    return b"".join(struct.pack("<QQI", f, s, c) for f, s, c in triples)


# -- backend selection -------------------------------------------------------


class TestSelection:
    def test_registry_contents(self):
        assert BACKENDS[0] == "python"
        assert "array" in BACKENDS
        if kernels.HAVE_NUMPY:
            assert "numpy" in BACKENDS

    def test_auto_never_picks_python(self):
        assert kernels.get_backend("auto").name != "python"
        assert kernels.get_backend().name != "python"

    def test_auto_switches_at_each_crossover(self):
        assert set(kernels.CROSSOVERS) == {"fold", "apportion", "propagate"}
        assert kernels.CROSSOVERS["apportion"] is None  # numpy never wins
        for kernel, crossover in kernels.CROSSOVERS.items():
            at = crossover if crossover is not None else 1 << 40
            below = kernels.get_backend("auto", kernel, at - 1)
            above = kernels.get_backend("auto", kernel, at)
            assert below.name == "array", kernel
            wins = kernels.HAVE_NUMPY and crossover is not None
            assert above.name == ("numpy" if wins else "array"), kernel
            assert kernels.get_backend(None, kernel, at).name == above.name
        assert kernels.default_backend_name() == "auto"

    def test_explicit_selection_ignores_size(self, monkeypatch):
        for size in (0, 1 << 40):
            for name in ("python", "array"):
                assert kernels.get_backend(name, "fold", size).name == name
        monkeypatch.setenv(kernels.ENV_VAR, "array")
        assert kernels.get_backend(None, "fold", 1 << 40).name == "array"
        if kernels.HAVE_NUMPY:
            kernels.set_default_backend("numpy")
            assert kernels.get_backend(None, "fold", 1).name == "numpy"
            assert kernels.default_backend_name() == "numpy"

    def test_broken_numpy_falls_back_to_array(self, monkeypatch):
        import sys

        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy is not installed")
        monkeypatch.setattr(kernels, "_REGISTRY", dict(kernels._REGISTRY))
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        assert kernels.get_backend("auto", "fold", 1 << 40).name == "array"
        assert "numpy" not in kernels.available_backends()
        with pytest.raises(KernelBackendError):
            kernels.get_backend("numpy")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        assert kernels.get_backend().name == "python"

    def test_forced_outranks_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "python")
        kernels.set_default_backend("array")
        assert kernels.get_backend().name == "array"
        kernels.set_default_backend(None)
        assert kernels.get_backend().name == "python"

    def test_explicit_name_outranks_everything(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "array")
        kernels.set_default_backend("array")
        assert kernels.get_backend("python").name == "python"

    def test_unknown_name_raises(self):
        with pytest.raises(KernelBackendError):
            kernels.get_backend("fortran")
        with pytest.raises(KernelBackendError):
            kernels.set_default_backend("fortran")
        # the failed set must not install anything
        assert kernels.get_backend().name != "python"

    def test_names_are_normalized(self):
        assert kernels.get_backend(" Python ").name == "python"


# -- bucket accumulators -----------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestBuckets:
    def make(self, backend):
        return kernels.get_backend(backend).bucket_acc()

    def test_blob_and_seq_folds_agree_with_reference(self, backend):
        vectors = [
            [0, 1, 2, 3, 4],
            [5, 0, 0, 0, 1],
            [0xFFFFFFFF, 0xFFFFFFFF, 0, 1, 2],
        ]
        acc = self.make(backend)
        ref = kbuckets.BucketAccumulator()
        for i, v in enumerate(vectors):
            if i % 2:
                acc.fold_seq(v)
                ref.fold_seq(v)
            else:
                acc.fold_blob(pack_buckets(v))
                ref.fold_blob(pack_buckets(v))
        assert acc.to_list() == ref.to_list()
        assert acc.total() == ref.total()

    def test_empty_accumulator(self, backend):
        acc = self.make(backend)
        assert acc.empty
        assert acc.to_list() == []
        assert acc.total() == 0

    def test_zero_bucket_layout(self, backend):
        acc = self.make(backend)
        acc.fold_seq([])
        assert not acc.empty
        assert acc.to_list() == []

    def test_length_mismatch_raises(self, backend):
        acc = self.make(backend).fold_seq([1, 2, 3])
        with pytest.raises(KernelBackendError):
            acc.fold_seq([1, 2])
        with pytest.raises(KernelBackendError):
            acc.fold_blob(pack_buckets([1, 2, 3, 4]))

    def test_cross_backend_fold(self, backend):
        for other_name in BACKENDS:
            other = kernels.get_backend(other_name).bucket_acc()
            other.fold_blob(pack_buckets([1, 2, 3]))
            acc = self.make(backend).fold_seq([10, 20, 30])
            acc.fold(other)
            assert acc.to_list() == [11, 22, 33]

    def test_fold_of_empty_is_identity(self, backend):
        acc = self.make(backend).fold_seq([7, 8])
        acc.fold(self.make(backend))
        assert acc.to_list() == [7, 8]

    def test_saturated_blob_storm(self, backend):
        """Many maximally-saturated wire inputs stay exact."""
        blob = pack_buckets([0xFFFFFFFF, 1, 0])
        acc = self.make(backend)
        for _ in range(50):
            acc.fold_blob(blob)
        assert acc.to_list() == [50 * 0xFFFFFFFF, 50, 0]

    def test_huge_seq_counts_demote_exactly(self, backend):
        """Counts near the u64 lane limit force the exact path."""
        big = _LANE_LIMIT - 1
        acc = self.make(backend)
        acc.fold_seq([big, 1])
        acc.fold_seq([big, 2])
        acc.fold_blob(pack_buckets([5, 5]))
        assert acc.to_list() == [2 * big + 5, 8]

    def test_demotion_mid_stream(self, backend):
        """Small folds, then an over-limit one, then small again."""
        acc = self.make(backend)
        acc.fold_seq([1, 2])
        acc.fold_seq([_LANE_LIMIT, 0])
        acc.fold_seq([3, 4])
        assert acc.to_list() == [_LANE_LIMIT + 4, 6]


# -- arc tables --------------------------------------------------------------

TRIPLES = [
    (0x1000, 0x2000, 3),
    (0x1004, 0x2000, 2),
    (0x1000, 0x2000, 5),  # duplicate pair, must condense
    (0xFFFFFFFFFFFF, 0x10, 0xFFFFFFFF),
]


@pytest.mark.parametrize("backend", BACKENDS)
class TestArcs:
    def make(self, backend):
        return kernels.get_backend(backend).arc_table()

    def test_blob_fold_condenses(self, backend):
        t = self.make(backend).fold_blob(pack_arcs(TRIPLES))
        assert t.as_dict() == {
            (0x1000, 0x2000): 8,
            (0x1004, 0x2000): 2,
            (0xFFFFFFFFFFFF, 0x10): 0xFFFFFFFF,
        }
        assert len(t) == 3
        assert t.total_count() == 8 + 2 + 0xFFFFFFFF

    def test_items_fold_matches_blob_fold(self, backend):
        a = self.make(backend).fold_blob(pack_arcs(TRIPLES))
        b = self.make(backend).fold_items(TRIPLES)
        assert a.as_dict() == b.as_dict()

    def test_sorted_items_order(self, backend):
        t = self.make(backend).fold_items(TRIPLES)
        keys = [k for k, _ in t.sorted_items()]
        assert keys == sorted(keys)

    def test_empty_blob(self, backend):
        t = self.make(backend).fold_blob(b"")
        assert len(t) == 0
        assert t.as_dict() == {}

    def test_incremental_blobs_accumulate(self, backend):
        t = self.make(backend)
        t.fold_blob(pack_arcs([(1, 2, 3)]))
        t.fold_blob(pack_arcs([(1, 2, 4), (9, 9, 1)]))
        assert t.as_dict() == {(1, 2): 7, (9, 9): 1}

    def test_read_then_write_then_read(self, backend):
        """Reading (which condenses) must not lose later folds."""
        t = self.make(backend)
        t.fold_blob(pack_arcs([(1, 2, 3)]))
        assert t.as_dict() == {(1, 2): 3}
        t.fold_blob(pack_arcs([(1, 2, 10)]))
        assert t.as_dict() == {(1, 2): 13}

    def test_cross_backend_fold(self, backend):
        for other_name in BACKENDS:
            other = kernels.get_backend(other_name).arc_table()
            other.fold_blob(pack_arcs([(1, 2, 3), (4, 5, 6)]))
            t = self.make(backend).fold_items([(1, 2, 1)])
            t.fold(other)
            assert t.as_dict() == {(1, 2): 4, (4, 5): 6}


# -- apportionment spans -----------------------------------------------------


class TestSpans:
    def test_backends_agree_bitwise(self):
        symbols = make_symbols("a", "b", "c", "d")
        # 7 buckets over 400 addresses: every symbol has fractional edges
        spans = build_spans(0, 400, 7, symbols)
        counts = [3, 0, 5, 7, 11, 2, 9]
        results = {
            name: kernels.get_backend(name).apportion(spans, counts, 0.01)
            for name in BACKENDS
        }
        ref = results["python"]
        assert ref  # the layout must actually produce times
        for name, res in results.items():
            assert res == ref, name

    def test_empty_counts_give_empty_times(self):
        symbols = make_symbols("a")
        spans = build_spans(0, 100, 4, symbols)
        for name in BACKENDS:
            assert kernels.get_backend(name).apportion(spans, [0] * 4, 0.01) == {}

    def test_zero_bucket_layout_has_no_entries(self):
        spans = build_spans(0, 100, 0, make_symbols("a"))
        assert spans.entries == []

    def test_out_of_range_symbols_skipped(self):
        symbols = make_symbols("a", "b")  # [0,100) and [100,200)
        spans = build_spans(100, 200, 4, symbols)
        assert [name for name, _ in spans.entries] == ["b"]

    def test_spans_for_memoizes_per_layout(self):
        symbols = make_symbols("a", "b")
        s1 = spans_for(symbols, 0, 200, 8)
        s2 = spans_for(symbols, 0, 200, 8)
        s3 = spans_for(symbols, 0, 200, 16)
        assert s1 is s2
        assert s3 is not s1 and s3.nbuckets == 16

    def test_numpy_overflow_guard_falls_back(self):
        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy not available")
        from repro.core.kernels.spans import apportion_numpy

        symbols = make_symbols("a", "b")
        spans = build_spans(0, 200, 8, symbols)
        counts = [1 << 62] * 8  # peak * n overflows u64
        ref = kernels.get_backend("python").apportion(spans, counts, 0.01)
        assert apportion_numpy(spans, counts, 0.01) == ref


# -- propagation plans -------------------------------------------------------


def numbered_chain():
    return number_graph(
        graph_from_edges(("main", "work", 4), ("work", "leaf", 8))
    )


class TestPropPlan:
    def test_plan_memoized_until_graph_changes(self):
        numbered = numbered_chain()
        p1 = kprop.plan_for(numbered)
        assert kprop.plan_for(numbered) is p1
        from repro.core.callgraph import Arc

        numbered.graph.add_arc(Arc("main", "leaf", 1))
        p2 = kprop.plan_for(numbered)
        assert p2 is not p1
        assert p2.fingerprint == numbered.graph.num_arcs()

    def test_scalar_and_vector_solves_agree_bitwise(self):
        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy not available")
        # wide fan-in so the vector path crosses _VECTOR_MIN_ARCS
        edges = [(f"c{i}", "hub", i + 1) for i in range(40)]
        edges += [("hub", "leaf", 3)]
        numbered = number_graph(graph_from_edges(*edges))
        plan = kprop.plan_for(numbered)
        self_times = {f"c{i}": 0.25 * i for i in range(40)}
        self_times.update(hub=7.5, leaf=2.25)
        scalar = kprop.solve(plan, self_times, vector=False)
        vector = kprop.solve(plan, self_times, vector=True)
        assert scalar == vector  # dataclass equality: bitwise columns

    def test_solve_skips_uncalled_representatives(self):
        numbered = number_graph(graph_from_edges(("main", "leaf", 0)))
        plan = kprop.plan_for(numbered)
        sol = kprop.solve(plan, {"main": 1.0, "leaf": 2.0}, vector=False)
        # leaf was never called: no time flows up to main
        main_idx = plan.order.index(plan.order[-1])
        assert sol.total_program_time == 3.0
        assert all(ct == 0.0 for ct in sol.child_time)
        assert main_idx >= 0


# -- accumulator integration -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestAccumulatorBackend:
    def test_backend_name_surfaces(self, backend):
        assert ProfileAccumulator(backend).backend_name == backend

    def test_accumulator_pickles(self, backend):
        acc = ProfileAccumulator(backend, timed=True)
        acc.add_raw(
            __import__("repro.gmon", fromlist=["parse_gmon_raw"]).parse_gmon_raw(
                make_wire_profile()
            )
        )
        clone = pickle.loads(pickle.dumps(acc))
        assert clone.backend_name == backend
        assert clone.result() == acc.result()

    def test_timed_split_counts_inputs(self, backend):
        acc = ProfileAccumulator(backend, timed=True)
        acc.add(make_wire_profile())
        acc.add(make_wire_profile())
        assert acc.timings["inputs"] == 2
        assert acc.timings["bytes"] == 2 * len(make_wire_profile())
        assert acc.timings["parse_seconds"] >= 0.0
        assert acc.timings["fold_seconds"] >= 0.0


def test_auto_accumulator_names_the_backend_that_folds():
    """Under auto the fold backend follows the first input's bucket
    count; ``backend_name`` (what ``serve`` stats and ``repro-merge
    --stats`` report) names it."""
    from repro.core import Histogram, ProfileData
    from repro.gmon import dumps_gmon

    def wire(nbuckets: int) -> bytes:
        hist = Histogram(0, 4 * nbuckets, [1] * nbuckets, 100)
        return dumps_gmon(ProfileData(hist, []))

    crossover = kernels.CROSSOVERS["fold"]
    small = ProfileAccumulator().add(wire(crossover - 1))
    assert small.backend_name == "array"
    large = ProfileAccumulator().add(wire(crossover))
    assert large.backend_name == ("numpy" if kernels.HAVE_NUMPY else "array")
    merged = ProfileAccumulator().merge_from(large)
    assert merged.backend_name == large.backend_name


def make_wire_profile() -> bytes:
    from repro.core import Histogram, ProfileData, RawArc
    from repro.gmon import dumps_gmon

    hist = Histogram(0, 400, [1, 0, 2, 0], 100)
    return dumps_gmon(
        ProfileData(hist, [RawArc(8, 100, 3)], runs=1, comment="t")
    )
