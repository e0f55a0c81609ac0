"""T-TIMESHARE — §3.2: why sampling beats elapsed-time measurement.

"One method measures the execution time of a routine by measuring the
elapsed time from routine entry to routine exit.  Unfortunately, time
measurement is complicated on time-sharing systems by the time-slicing
of the program.  A second method samples the value of the program
counter... particularly suited to time-sharing systems."

Shape reproduced: running the measured program beside N copies of
itself on a one-CPU round-robin machine (``SMPMachine`` with
``ncpus=1``, ``policy="rr"``),

* the elapsed-time profiler's per-activation figure for the measured
  routine inflates with the competitors' share of the machine (≈2x
  with one competitor, ≈Nx with N), while
* the PC-sampling histogram does not move: each process's clock only
  advances while it runs, so the merged histogram of 1+N copies is
  exactly 1+N times a solo run's, bucket by bucket.
"""

from repro.machine import assemble
from repro.machine.smp import ElapsedTimeProfiler, SMPMachine

from benchmarks.conftest import report

MEASURED = """
.func main
    PUSH 25
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
    WORK 120
    RET
.end
"""

def run_machine(n_competitors: int):
    """Run the measured program beside ``n_competitors`` copies of itself."""
    exe = assemble(MEASURED, name="measured", profile=True)
    machine = SMPMachine(
        exe,
        ncpus=1,
        nprocs=1 + n_competitors,
        policy="rr",
        quantum=150,
        cycles_per_tick=10,
    )
    measured = machine.procs[0]
    elapsed = ElapsedTimeProfiler(measured.wall_clock)
    measured.cpu.tracer = elapsed
    machine.run()
    return exe, machine.merged_profile().histogram, elapsed


def test_elapsed_inflates_with_load(benchmark):
    results = {}
    for n in (0, 1, 3):
        _, _, elapsed = run_machine(n)
        results[n] = elapsed.mean_wall("step_work")
    rows = [
        (f"{n} competitors", f"{results[n]:.0f} wall cycles",
         f"{results[n] / results[0]:.2f}x")
        for n in (0, 1, 3)
    ]
    report("Elapsed-time method: mean wall time of step_work",
           rows, header=("load", "measured", "inflation"))
    benchmark(lambda: run_machine(1))
    assert results[1] > results[0] * 1.2
    assert results[3] > results[1]


def test_sampling_immune_to_load(benchmark):
    histograms = {}
    profiles = {}
    for n in (0, 1, 3):
        exe, histogram, _ = run_machine(n)
        histograms[n] = histogram.counts
        profiles[n] = histogram.assign_samples(exe.symbol_table())
    rows = [
        (f"{n} competitors",
         f"{profiles[n].get('step_work', 0) / (1 + n):.3f}s",
         f"{profiles[n].get('main', 0) / (1 + n):.3f}s")
        for n in (0, 1, 3)
    ]
    report("Sampling method: step_work / main self time per process",
           rows, header=("load", "step_work", "main"))
    benchmark(lambda: run_machine(0))
    # exact multiples of the solo histogram across machine loads
    assert sum(histograms[0]) > 0
    for n in (1, 3):
        assert histograms[n] == [(1 + n) * c for c in histograms[0]]
