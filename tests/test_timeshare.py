"""Tests for the §3.2 measurement argument on a time-shared machine.

The time-sharing machine is the SMP machine with one CPU under the
``rr`` policy; the processes competing for it are copies of the
measured program.
"""

import pytest

from repro.core import analyze
from repro.machine import assemble
from repro.machine.smp import ElapsedTimeProfiler, SMPMachine

MEASURED = """
.func main
    PUSH 20
    STORE 0
loop:
    CALL step_work
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func step_work
    WORK 100
    RET
.end
"""


def time_shared(nprocs, quantum=150):
    """``nprocs`` copies of the measured program sharing one CPU."""
    exe = assemble(MEASURED, name="measured", profile=True)
    return SMPMachine(
        exe,
        ncpus=1,
        nprocs=nprocs,
        policy="rr",
        quantum=quantum,
        cycles_per_tick=10,
    )


class TestMachine:
    def test_round_robin_interleaves(self):
        machine = time_shared(2, quantum=200).run()
        assert machine.halted
        assert machine.context_switches > 2
        # one CPU: the wall clock is the sum of the process clocks
        assert machine.wall_cycles == sum(p.cpu.cycles for p in machine.procs)

    def test_solo_process_wall_equals_process_time(self):
        machine = time_shared(1, quantum=100).run()
        assert machine.wall_cycles == machine.procs[0].cpu.cycles

    def test_wall_budget(self):
        machine = time_shared(1, quantum=100).run(max_wall_cycles=500)
        assert not machine.halted
        assert machine.wall_cycles >= 500


class TestElapsedVsSampled:
    """The §3.2 experiment: elapsed-time measurement breaks under
    time-slicing; PC sampling does not."""

    def _run(self, nprocs):
        machine = time_shared(nprocs)
        measured = machine.procs[0]
        elapsed = ElapsedTimeProfiler(measured.wall_clock)
        measured.cpu.tracer = elapsed
        machine.run()
        return machine, elapsed

    def test_elapsed_time_inflated_by_time_slicing(self):
        _, alone = self._run(1)
        _, shared = self._run(2)
        # sharing the machine inflates measured entry-to-exit time
        assert shared.mean_wall("step_work") > alone.mean_wall("step_work") * 1.2

    def test_sampling_unaffected_by_time_slicing(self):
        alone, _ = self._run(1)
        shared, _ = self._run(2)
        solo = alone.merged_profile().histogram.counts
        merged = shared.merged_profile().histogram.counts
        # each process's clock only advances while it runs, so every
        # copy samples exactly the solo histogram, bucket by bucket.
        assert sum(solo) > 0
        assert merged == [2 * c for c in solo]

    def test_sampled_profile_analyzes_normally_when_shared(self):
        machine, _ = self._run(2)
        profile = analyze(machine.merged_profile(), machine.exe.symbol_table())
        assert profile.entry("step_work").ncalls == 2 * 20
        assert profile.entry("main").percent == pytest.approx(100.0, abs=1.0)
