"""Tests for the Python profiler frontend (arcs, timing, lifecycle)."""

import sys
import threading

import pytest

from repro.core import analyze
from repro.errors import ProfilerError
from repro.gmon import read_gmon, write_gmon
from repro.pyprof import Profiler, profile_call


# -- toy workload ---------------------------------------------------------------

def leaf(n):
    total = 0
    for i in range(n):
        total += i
    return total


def middle():
    return leaf(400) + leaf(400)


def top():
    s = 0
    for _ in range(5):
        s += middle()
    return s + leaf(10)


def recurse(n):
    if n <= 0:
        return 0
    return 1 + recurse(n - 1)


def ping(n):
    return 0 if n <= 0 else pong(n - 1)


def pong(n):
    return ping(n - 1)


class FakeClock:
    """Advances one second per reading: exact-mode tests become exact."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def analyzed(func, *args, **profiler_kw):
    result, data, syms = profile_call(func, *args, **profiler_kw)
    return result, analyze(data, syms)


class TestArcs:
    def test_call_counts(self):
        _, profile = analyzed(top)
        entry = profile.entry("middle")
        assert entry.ncalls == 5
        parents = {p.name: p.count for p in entry.parents}
        assert parents == {"top": 5}

    def test_multiple_callers_split(self):
        _, profile = analyzed(top)
        entry = profile.entry("leaf")
        parents = {p.name: p.count for p in entry.parents}
        assert parents == {"middle": 10, "top": 1}
        assert entry.ncalls == 11

    def test_entry_function_is_spontaneous(self):
        # profile_call's own frame is profiler-internal, so the profiled
        # function's caller is unknown — exactly a spontaneous arc.
        _, profile = analyzed(top)
        entry = profile.entry("top")
        assert entry.ncalls == 1
        assert entry.parents[0].name is None

    def test_self_recursion(self):
        _, profile = analyzed(recurse, 10)
        entry = profile.entry("recurse")
        assert entry.ncalls == 1
        assert entry.self_calls == 10
        assert profile.numbered.cycles == []

    def test_mutual_recursion_forms_cycle(self):
        _, profile = analyzed(ping, 9)
        assert len(profile.numbered.cycles) == 1
        members = set(profile.numbered.cycles[0].members)
        assert members == {"ping", "pong"}

    def test_builtin_calls_recorded(self):
        def uses_builtins():
            return sum([1, 2, 3]) + len("abcd")

        _, profile = analyzed(uses_builtins)
        entry = next(
            e for e in profile.graph_entries if e.name.endswith("uses_builtins")
        )
        children = {c.name for c in entry.children}
        assert "<sum>" in children
        assert "<len>" in children


class TestExactTiming:
    def test_fake_clock_attribution(self):
        # With a clock advancing 1s per event, a leaf call's body is
        # exactly the one interval between its call and return events.
        def quiet_leaf():
            pass

        def caller():
            quiet_leaf()
            quiet_leaf()

        profiler = Profiler(clock=FakeClock())
        with profiler:
            caller()
        data = profiler.profile_data()
        syms = profiler.symbol_table()
        profile = analyze(data, syms)
        leaf_entry = profile.entry("TestExactTiming.test_fake_clock_attribution.<locals>.quiet_leaf")
        assert leaf_entry.self_seconds == pytest.approx(2.0)
        assert leaf_entry.ncalls == 2

    def test_real_clock_finds_the_hot_function(self):
        _, profile = analyzed(top)
        flat = profile.flat_entries
        hot = [f.name for f in flat[:2]]
        assert "leaf" in hot  # the loops live in leaf

    def test_descendant_time_flows_up(self):
        # The profiled entry point inherits (almost) all program time;
        # a little is billed to the frames that were live at enable time.
        _, profile = analyzed(top)
        entry = profile.entry("top")
        assert entry.percent > 70.0
        assert entry.child_seconds > entry.self_seconds


class TestSampledModes:
    def _busy(self, ms=60):
        import time

        def spin():
            deadline = time.process_time() + ms / 1000.0
            x = 0
            while time.process_time() < deadline:
                x += 1
            return x

        return spin

    def test_signal_mode_samples_cpu_time(self):
        spin = self._busy()
        profiler = Profiler(mode="signal", interval=0.002)
        with profiler:
            spin()
        data = profiler.profile_data()
        assert data.total_ticks >= 10
        profile = analyze(data, profiler.symbol_table())
        spin_entry = next(
            e for e in profile.graph_entries if "spin" in e.name
        )
        assert spin_entry.percent > 60.0

    def test_thread_mode_samples(self):
        spin = self._busy()
        profiler = Profiler(mode="thread", interval=0.002)
        with profiler:
            spin()
        data = profiler.profile_data()
        assert data.total_ticks >= 5

    def test_arc_counts_identical_across_modes(self):
        for mode in ("exact", "thread"):
            _, data, syms = profile_call(top, mode=mode)
            profile = analyze(data, syms)
            assert profile.entry("middle").ncalls == 5


class TestLifecycle:
    def test_double_enable_rejected(self):
        p = Profiler()
        p.enable()
        try:
            with pytest.raises(ProfilerError, match="already enabled"):
                p.enable()
        finally:
            p.disable()

    def test_failed_start_leaves_profiler_disabled(self):
        # SIGPROF sampling can only start on the main thread; a failed
        # enable() must leave nothing half-started, so a retry fails
        # for the same reason rather than "already enabled".
        p = Profiler(mode="signal")
        attempts = []

        def enable_twice():
            for _ in range(2):
                with pytest.raises(ProfilerError) as excinfo:
                    p.enable()
                attempts.append((str(excinfo.value), sys.getprofile()))

        worker = threading.Thread(target=enable_twice)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(attempts) == 2
        for message, hook in attempts:
            assert "main thread" in message
            assert hook is None

    def test_extract_while_enabled_rejected(self):
        p = Profiler()
        p.enable()
        try:
            with pytest.raises(ProfilerError, match="disable"):
                p.profile_data()
        finally:
            p.disable()

    def test_extract_without_ever_enabling_rejected(self):
        with pytest.raises(ProfilerError, match="never enabled"):
            Profiler().profile_data()

    def test_disable_is_idempotent(self):
        p = Profiler()
        p.enable()
        p.disable()
        p.disable()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProfilerError, match="unknown mode"):
            Profiler(mode="psychic")

    def test_exception_in_block_still_disables(self):
        p = Profiler()
        with pytest.raises(ValueError):
            with p:
                raise ValueError("boom")
        # profiler must be disabled and extractable
        assert p.profile_data() is not None


class TestMultiWindow:
    def test_enable_disable_accumulates(self):
        # The moncontrol workflow at the Python level: several windows
        # on one profiler accumulate arcs and time.
        p = Profiler()
        with p:
            top()
        first = p.profile_data().total_calls
        p.enable()
        top()
        p.disable()
        second = p.profile_data()
        assert second.total_calls > first
        profile = analyze(second, p.symbol_table())
        assert profile.entry("middle").ncalls == 10  # 5 per window

    def test_unknown_callee_kept_on_request(self):
        # keep_unknown surfaces arcs whose callee has no symbol — here
        # we truncate the symbol table to force the situation.
        from repro.core import AnalysisOptions, SymbolTable

        _, data, syms = profile_call(top)
        keep = [s for s in syms if s.name in ("top", "middle")]
        truncated = SymbolTable(keep)
        profile = analyze(
            data, truncated, AnalysisOptions(keep_unknown=True)
        )
        unknowns = [
            e.name for e in profile.graph_entries
            if e.name.startswith("<unknown:0x")
        ]
        assert unknowns  # leaf & friends resolved to unknown callees


class TestGmonInterop:
    def test_pyprof_data_roundtrips_through_gmon(self, tmp_path):
        _, data, syms = profile_call(top)
        gmon = tmp_path / "gmon.out"
        symf = tmp_path / "gmon.syms"
        write_gmon(data, gmon)
        syms.save(symf)
        from repro.core.symbols import SymbolTable

        profile = analyze(read_gmon(gmon), SymbolTable.load(symf))
        assert profile.entry("middle").ncalls == 5
