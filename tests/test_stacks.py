"""Tests for the call-stack sampling extension (repro.stacks)."""

import functools
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProfilerError, ReproError
from repro.machine import CPU, assemble
from repro.machine.programs import even_odd, fib, skewed
from repro.pyprof import AddressSpace, Profiler, Sampler, SampleStore
from repro.stacks import (
    PyStackSampler,
    StackProfile,
    analyze_stacks,
    format_call_tree,
    format_hot_paths,
    read_folded,
    write_folded,
)
from repro.stacks.analysis import _distinct_edges
from repro.stacks.report import format_stack_flat
from repro.stacks.vm import VMStackMonitor, run_stack_profiled
from repro.machine.monitor import MonitorConfig


class TestStackProfile:
    def test_record_and_totals(self):
        p = StackProfile(profrate=100)
        p.record(["main", "f"])
        p.record(("main", "f"))
        p.record(("main", "g"))
        assert p.total_ticks == 3
        assert p.total_seconds == pytest.approx(0.03)
        assert len(p) == 2
        assert p.routines() == {"main", "f", "g"}

    def test_empty_stack_ignored(self):
        p = StackProfile()
        p.record([])
        assert p.total_ticks == 0

    def test_merge(self):
        a, b = StackProfile(50), StackProfile(50)
        a.record(("m", "f"))
        b.record(("m", "f"))
        b.record(("m",))
        merged = a.merge(b)
        assert merged.samples[("m", "f")] == 2
        assert merged.total_ticks == 3

    def test_merge_rate_mismatch(self):
        with pytest.raises(ReproError):
            StackProfile(50).merge(StackProfile(60))

    def test_bad_profrate(self):
        with pytest.raises(ReproError):
            StackProfile(0)


class TestFoldedFormat:
    def test_roundtrip(self, tmp_path):
        p = StackProfile(profrate=250)
        p.record(("main", "a", "b"))
        p.record(("main", "a", "b"))
        p.record(("main", "c"))
        path = tmp_path / "out.folded"
        write_folded(p, path)
        back = read_folded(path)
        assert back.profrate == 250
        assert back.samples == p.samples

    def test_reads_plain_flamegraph_files(self, tmp_path):
        path = tmp_path / "plain.folded"
        path.write_text("main;a;b 7\nmain;c 3\n")
        p = read_folded(path)
        assert p.samples[("main", "a", "b")] == 7
        assert p.profrate == 100  # default

    def test_malformed_count(self, tmp_path):
        path = tmp_path / "bad.folded"
        path.write_text("main;a notanumber\n")
        with pytest.raises(ReproError, match="bad sample count"):
            read_folded(path)

    def test_negative_count(self, tmp_path):
        path = tmp_path / "bad.folded"
        path.write_text("main;a -3\n")
        with pytest.raises(ReproError, match="negative"):
            read_folded(path)


class TestAnalysis:
    def test_exclusive_is_leaf_only(self):
        p = StackProfile(100)
        p.record(("m", "a"))
        p.record(("m", "a", "b"))
        an = analyze_stacks(p)
        assert an.exclusive["a"] == 1
        assert an.exclusive["b"] == 1
        assert an.exclusive["m"] == 0

    def test_inclusive_counts_once_per_sample(self):
        # Recursion: a appears twice in the stack but owns the tick once.
        p = StackProfile(100)
        p.record(("m", "a", "b", "a"))
        an = analyze_stacks(p)
        assert an.inclusive["a"] == 1
        assert an.inclusive["m"] == 1
        assert an.inclusive_percent("a") == pytest.approx(100.0)

    def test_distinct_edges_dedup_recursion(self):
        assert _distinct_edges(("a", "b", "a", "b")) == {("a", "b"), ("b", "a")}

    def test_caller_shares_follow_observed_time(self):
        p = StackProfile(100)
        for _ in range(3):
            p.record(("m", "p1", "work"))
        p.record(("m", "p2", "work"))
        an = analyze_stacks(p)
        shares = an.caller_shares("work")
        assert shares["p1"] == pytest.approx(0.75)
        assert shares["p2"] == pytest.approx(0.25)

    def test_caller_shares_of_root_empty(self):
        p = StackProfile(100)
        p.record(("m",))
        assert analyze_stacks(p).caller_shares("m") == {}

    def test_flat_rows_sorted(self):
        p = StackProfile(100)
        for _ in range(5):
            p.record(("m", "hot"))
        p.record(("m", "cold"))
        rows = analyze_stacks(p).flat_rows()
        assert rows[0][0] == "hot"


class TestVMStackSampling:
    def test_no_compiler_support_needed(self):
        # The executable has no mcount prologues at all.
        cpu, sp = run_stack_profiled(fib(10), cycles_per_tick=5)
        assert sp.total_ticks > 0
        assert not cpu.exe.profiled

    def test_recursion_inclusive_exact(self):
        cpu, sp = run_stack_profiled(fib(12), cycles_per_tick=5)
        an = analyze_stacks(sp)
        # fib is on the stack in essentially every sample, and never
        # counted twice despite deep self-recursion.
        assert an.inclusive["fib"] <= sp.total_ticks
        assert an.inclusive_percent("fib") > 90.0

    def test_cycle_needs_no_collapsing(self):
        cpu, sp = run_stack_profiled(even_odd(30), cycles_per_tick=3)
        an = analyze_stacks(sp)
        assert an.inclusive_percent("main") == pytest.approx(100.0)
        assert an.inclusive["even"] <= sp.total_ticks
        assert an.inclusive["odd"] <= sp.total_ticks

    def test_skew_attribution_fixed(self):
        # The pitfall classic gprof keeps (99/1) is gone: shares follow
        # observed time, near the 50/50 ground truth.
        cpu, sp = run_stack_profiled(skewed(), cycles_per_tick=7)
        shares = analyze_stacks(sp).caller_shares("work_n")
        assert 0.3 < shares["dear_caller"] < 0.6
        assert 0.4 < shares["cheap_caller"] < 0.7

    def test_stride_backs_off_overhead(self):
        # "The additional overhead of gathering the call stack can be
        # hidden by backing off the frequency."
        def walk_cost(stride):
            exe = assemble(fib(13), profile=False)
            mon = VMStackMonitor(
                MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10),
                stride=stride,
            )
            cpu = CPU(exe, mon)
            mon.bind(cpu)
            cpu.run()
            return mon.stack_walk_cycles, mon.stack_profile.total_ticks

    # strides 1 and 8: ~8x fewer samples, ~8x less walk overhead
        cost1, n1 = walk_cost(1)
        cost8, n8 = walk_cost(8)
        assert n8 < n1 / 4
        assert cost8 < cost1 / 4

    def test_overhead_never_sampled(self):
        # Stack-walk cycles shift the profiling clock, so the sampled
        # tick count matches an unmonitored run's cycle count.
        exe = assemble(fib(10), profile=False)
        mon = VMStackMonitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=5)
        )
        cpu = CPU(exe, mon)
        mon.bind(cpu)
        cpu.run()
        plain = CPU(assemble(fib(10), profile=False)).run()
        program_cycles = cpu.cycles - mon.stack_walk_cycles
        assert program_cycles == plain.cycles
        assert mon.histogram.total_ticks == plain.cycles // 5

    def test_tiny_tick_interval_terminates(self):
        # Regression: walk cost > tick interval must not loop forever.
        cpu, sp = run_stack_profiled(even_odd(20), cycles_per_tick=1)
        assert cpu.halted

    def test_bad_stride(self):
        exe = assemble(fib(5), profile=False)
        with pytest.raises(ValueError):
            VMStackMonitor(MonitorConfig(0, exe.high_pc), stride=0)

    def test_reset_clears_stacks(self):
        exe = assemble(fib(10), profile=False)
        mon = VMStackMonitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=5)
        )
        cpu = CPU(exe, mon)
        mon.bind(cpu)
        cpu.run(max_instructions=200)
        assert mon.stack_profile.total_ticks > 0
        mon.reset()
        assert mon.stack_profile.total_ticks == 0


class TestPyStackSampler:
    def _spin(self, ms=50):
        import time

        def hot_leaf(deadline):
            x = 0
            while time.process_time() < deadline:
                x += 1
            return x

        def entry():
            return hot_leaf(time.process_time() + ms / 1000.0)

        return entry

    def test_signal_mode_collects_stacks(self):
        entry = self._spin()
        with PyStackSampler(interval=0.002, mode="signal") as sampler:
            entry()
        assert sampler.profile.total_ticks >= 5
        an = analyze_stacks(sampler.profile)
        leaf = next(n for n in sampler.profile.routines() if "hot_leaf" in n)
        assert an.inclusive_percent(leaf) > 50.0
        # the caller context is present in the sampled stacks
        entry_name = next(
            n for n in sampler.profile.routines() if n.endswith("entry")
        )
        assert an.inclusive[entry_name] > 0

    def test_thread_mode_collects_stacks(self):
        entry = self._spin()
        with PyStackSampler(interval=0.002, mode="thread") as sampler:
            entry()
        assert sampler.profile.total_ticks >= 3

    def _samplers(self):
        """Both sinks of the one profiling clock, in both modes."""
        for mode in ("signal", "thread"):
            yield PyStackSampler(interval=0.002, mode=mode)
            store = SampleStore(AddressSpace())
            yield Sampler(store.sample_frame, interval=0.002, mode=mode)

    def test_double_start_rejected(self):
        for sampler in self._samplers():
            sampler.start()
            try:
                with pytest.raises(ProfilerError, match="already active"):
                    sampler.start()
            finally:
                sampler.stop()

    def test_stop_idempotent(self):
        for sampler in self._samplers():
            sampler.start()
            sampler.stop()
            sampler.stop()
            assert not sampler.active

    def test_previous_handler_restored(self):
        def previous(signum, frame):
            pass

        saved = signal.signal(signal.SIGPROF, previous)
        try:
            for sampler in self._samplers():
                with sampler:
                    pass
                assert signal.getsignal(signal.SIGPROF) is previous
        finally:
            signal.signal(signal.SIGPROF, saved)

    def test_bad_args(self):
        store = SampleStore(AddressSpace())
        for make in (PyStackSampler, functools.partial(Sampler, store.sample_frame)):
            with pytest.raises(ProfilerError):
                make(interval=0)
            with pytest.raises(ProfilerError):
                make(mode="quantum")
        # the Profiler builds its sampler up front, so it rejects them too
        for mode in ("signal", "thread"):
            with pytest.raises(ProfilerError):
                Profiler(mode=mode, interval=0)


class TestReports:
    def _profile(self):
        p = StackProfile(100)
        for _ in range(6):
            p.record(("main", "a", "leaf"))
        for _ in range(3):
            p.record(("main", "b", "leaf"))
        p.record(("main",))
        return p

    def test_call_tree_structure(self):
        text = format_call_tree(self._profile(), min_percent=0.0)
        assert "main" in text
        main_line = next(l for l in text.splitlines() if "main" in l)
        assert "100.0%" in main_line
        # children indented under main
        assert "  60.0%" in text

    def test_call_tree_prunes(self):
        text = format_call_tree(self._profile(), min_percent=50.0)
        assert "b" not in [l.split()[-1] for l in text.splitlines()[1:]]

    def test_hot_paths(self):
        text = format_hot_paths(self._profile(), top=2)
        assert "main -> a -> leaf" in text
        assert text.count("%") == 2

    def test_stack_flat_exact_inclusive(self):
        text = format_stack_flat(self._profile())
        leaf_row = next(l for l in text.splitlines() if l.endswith("leaf"))
        assert "90.0" in leaf_row  # 9/10 samples have leaf on the stack

    def test_empty_profiles(self):
        empty = StackProfile()
        assert "no stack samples" in format_call_tree(empty)
        assert "no stack samples" in format_hot_paths(empty)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["m", "a", "b", "c"]), min_size=1, max_size=6
            ),
            st.integers(1, 50),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_inclusive_bounded_by_total(samples):
    """Property: no routine's inclusive ticks exceed total ticks, and
    exclusive sums to the total exactly."""
    p = StackProfile(100)
    for stack, count in samples:
        for _ in range(count):
            p.record(stack)
    an = analyze_stacks(p)
    assert sum(an.exclusive.values()) == p.total_ticks
    for name in p.routines():
        assert an.inclusive[name] <= p.total_ticks
        assert an.exclusive[name] <= an.inclusive[name]


@settings(max_examples=30)
@given(
    st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["m", "a", "b"]), min_size=1, max_size=5
            ),
            st.integers(1, 20),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_folded_roundtrip_property(tmp_path_factory, samples):
    """Property: folded write → read is the identity."""
    p = StackProfile(77)
    for stack, count in samples:
        p.samples[tuple(stack)] += count
    path = tmp_path_factory.mktemp("folded") / "p.folded"
    write_folded(p, path)
    back = read_folded(path)
    assert back.samples == p.samples
    assert back.profrate == 77
