"""Differential tests: the fast interpreter is observably identical to
the reference interpreter.

The fast engine (predecode + threaded dispatch + batched clocks) is
only admissible because nothing can tell it apart from the reference
``if``/``elif`` interpreter: same cycle clock, same histogram buckets,
same arc counts and mcount statistics, byte-identical ``gmon.out``,
same error messages at the same machine states.  This suite pins that
over the whole canned corpus, targeted edge cases (interrupt delivery,
mid-WORK tick crossings, mid-run kgmon control), and
hypothesis-generated random programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_executable
from repro.errors import MachineError
from repro.gmon import dumps_gmon
from repro.machine import CPU, ENGINES, FastCPU, Monitor, MonitorConfig, assemble, make_cpu
from repro.machine.cpu import InterruptSource
from repro.machine.fastcpu import OP_DEFER, OP_OFFEND, predecode
from repro.machine.programs import PROGRAMS


def machine_state(cpu):
    """Every observable of a finished (or faulted) machine."""
    return {
        "pc": cpu.pc,
        "cycles": cpu.cycles,
        "instructions": cpu.instructions_executed,
        "stack": list(cpu.stack),
        "frames": [
            (f.return_addr, list(f.locals), f.interrupted)
            for f in cpu.frames
        ],
        "globals": list(cpu.globals),
        "counters": list(cpu.counters),
        "output": list(cpu.output),
        "halted": cpu.halted,
        "irqs": cpu.interrupts_delivered,
    }


def monitor_state(mon):
    """Every observable of the profiling data and its statistics."""
    if mon is None:
        return None
    return {
        "hist": list(mon.histogram.counts),
        "arcs": mon.arc_table.arcs(),
        "lookups": mon.stats.lookups,
        "probes": mon.stats.probes,
        "collisions": mon.stats.collisions,
        "spontaneous": mon.stats.spontaneous,
        "dropped": mon.ticks_dropped,
        "gmon": dumps_gmon(mon.snapshot()),
    }


def run_both(
    source,
    profile=True,
    cycles_per_tick=100,
    scale=1.0,
    interrupts=(),
    max_instructions=None,
    max_cycles=None,
):
    """Run ``source`` on both engines; return per-engine observations."""
    results = {}
    for engine in ENGINES:
        exe = assemble(source, profile=profile)
        mon = Monitor(
            MonitorConfig(
                exe.low_pc,
                exe.high_pc,
                scale=scale,
                cycles_per_tick=cycles_per_tick,
            )
        )
        irqs = [InterruptSource(*spec) for spec in interrupts]
        cpu = make_cpu(exe, mon, interrupts=irqs, engine=engine)
        error = None
        try:
            cpu.run(max_instructions=max_instructions, max_cycles=max_cycles)
        except MachineError as exc:
            error = str(exc)
        results[engine] = (machine_state(cpu), monitor_state(mon), error)
    return results


def assert_identical(results):
    assert results["fast"] == results["reference"]


# --------------------------------------------------------------------------
# The canned corpus, across profiling geometries.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_canned_corpus_identical(name):
    source = PROGRAMS[name]()
    for profile in (True, False):
        for cycles_per_tick in (1, 7, 100):
            assert_identical(
                run_both(source, profile=profile, cycles_per_tick=cycles_per_tick)
            )


@pytest.mark.parametrize("name", ["fib", "dispatch", "codegen"])
def test_canned_corpus_identical_coarse_scale(name):
    """A non-unit scale exercises the shift/mask bucket cache."""
    assert_identical(run_both(PROGRAMS[name](), scale=0.5))
    assert_identical(run_both(PROGRAMS[name](), scale=0.3))


# --------------------------------------------------------------------------
# Interrupts, budgets, and mid-WORK tick crossings.
# --------------------------------------------------------------------------

IRQ_PROGRAM = """
.func main
    PUSH 150
    STORE 0
loop:
    WORK 13
    LOAD 0
    PUSH 1
    SUB
    STORE 0
    LOAD 0
    JNZ loop
    HALT
.end

.func isr
    WORK 3
    RET
.end
"""


@pytest.mark.parametrize("period,phase", [(37, None), (100, 0), (250, 5), (53, 1)])
def test_interrupt_delivery_identical(period, phase):
    assert_identical(
        run_both(IRQ_PROGRAM, interrupts=[("isr", period, phase)])
    )


def test_two_interrupt_sources_identical():
    assert_identical(
        run_both(
            IRQ_PROGRAM,
            cycles_per_tick=50,
            interrupts=[("isr", 37, None), ("isr", 53, 10)],
        )
    )


def test_interrupt_storm_identical():
    """Deliveries due every cycle: the machine livelocks in the handler
    by design; both engines must livelock identically under a budget."""
    assert_identical(
        run_both(
            IRQ_PROGRAM,
            interrupts=[("isr", 1, 0)],
            max_instructions=2500,
        )
    )


def test_mid_work_tick_crossing_identical():
    """WORK operands straddling tick boundaries in every phase."""
    lines = ["PUSH 0", "POP"]
    for w in (1, 7, 99, 100, 101, 250, 0):
        lines.append(f"WORK {w}")
    body = "\n ".join(lines)
    source = f".func main\n {body}\n HALT\n.end\n"
    for cycles_per_tick in (1, 3, 100):
        assert_identical(run_both(source, cycles_per_tick=cycles_per_tick))


@pytest.mark.parametrize("max_instructions", [0, 1, 17, 500])
def test_instruction_budget_identical(max_instructions):
    assert_identical(
        run_both(PROGRAMS["fib"](8), max_instructions=max_instructions)
    )


@pytest.mark.parametrize("max_cycles", [0, 1, 100, 777, 5000])
def test_cycle_budget_identical(max_cycles):
    assert_identical(run_both(PROGRAMS["fib"](8), max_cycles=max_cycles))


def test_budget_resume_identical():
    """Slice-wise execution (the kgmon pattern) converges identically."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["codegen"](), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        slices = 0
        while not cpu.halted:
            cpu.run(max_instructions=97)
            slices += 1
        states[engine] = (machine_state(cpu), monitor_state(mon), slices)
    assert states["fast"] == states["reference"]


def test_moncontrol_and_reset_mid_run_identical():
    """kgmon-style control between slices: off/on and reset must leave
    both engines with the same profile (the mcount fast path must not
    serve stale chain heads across a reset)."""
    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["dispatch"](60), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.run(max_instructions=400)
        mon.moncontrol(False)
        cpu.run(max_instructions=400)
        mon.moncontrol(True)
        mon.reset()
        cpu.run()
        states[engine] = (machine_state(cpu), monitor_state(mon))
    assert states["fast"] == states["reference"]


# --------------------------------------------------------------------------
# Faulting programs: same error text, same final machine state.
# --------------------------------------------------------------------------

FAULTS = [
    ".func main\n PUSH 1\n PUSH 0\n DIV\n HALT\n.end\n",
    ".func main\n PUSH 1\n PUSH 0\n MOD\n HALT\n.end\n",
    ".func main\n POP\n HALT\n.end\n",
    ".func main\n PUSH 1\n ADD\n HALT\n.end\n",
    ".func main\n GLOAD 3\n HALT\n.end\n",
    ".globals 2\n.func main\n PUSH 5\n PUSH 9\n GSTOREI\n HALT\n.end\n",
    ".func main\n PUSH 3\n CALLI\n HALT\n.end\n",
    ".func main\n PUSH 4000\n CALLI\n HALT\n.end\n",
    ".func main\n WORK -5\n HALT\n.end\n",
    ".func main\n NOP\n NOP\n NOP\n.end\n",  # falls off the text segment
    ".func main\n CALL main\n HALT\n.end\n",  # frame overflow
]


@pytest.mark.parametrize("source", FAULTS)
def test_faults_identical(source, monkeypatch):
    # Runaway recursion overflows the same way at any frame bound; a
    # small one makes both engines hit it after 1000 calls, not 100 000.
    monkeypatch.setattr(CPU, "MAX_FRAMES", 1000)
    for profile in (True, False):
        for cycles_per_tick in (1, 100):
            results = run_both(
                source, profile=profile, cycles_per_tick=cycles_per_tick
            )
            assert results["fast"][2] is not None  # the fault fired
            assert_identical(results)


# --------------------------------------------------------------------------
# Predecode mechanics.
# --------------------------------------------------------------------------


def test_predecode_cached_on_executable():
    exe = assemble(PROGRAMS["fib"]())
    pre = predecode(exe)
    assert predecode(exe) is pre
    assert exe.predecoded() is pre
    assert pre.length == len(exe.instructions)
    # sentinel guards the fall-off-the-end address
    assert pre.ops[-1] == OP_OFFEND


def test_predecode_invalidated_by_rebinding_text():
    exe = assemble(PROGRAMS["fib"]())
    pre = predecode(exe)
    exe.instructions = list(exe.instructions)
    assert predecode(exe) is not pre


def test_predecode_defers_unsafe_operands():
    from repro.machine.executable import Executable, Function
    from repro.machine.isa import Instruction, Op

    exe = Executable(
        name="weird",
        instructions=[
            Instruction(Op.JMP, 6),        # misaligned target
            Instruction(Op.JZ, -4),        # negative target
            Instruction(Op.CALL, 4000),    # out-of-range target
            Instruction(Op.LOAD, -1),      # negative local slot
            Instruction(Op.WORK, -2),      # negative WORK operand
            Instruction(Op.WORK, None),    # missing operand
            Instruction(Op.JMP, 0),        # valid: resolved to an index
            Instruction(Op.HALT),
        ],
        functions=[Function("main", 0, 32)],
    )
    pre = predecode(exe)
    assert pre.ops[:6] == [OP_DEFER] * 6
    assert pre.ops[6] != OP_DEFER
    assert pre.args[6] == 0  # address 0 -> instruction index 0


def test_deferred_negative_local_slot_matches_reference():
    from repro.machine.executable import Executable, Function
    from repro.machine.isa import Instruction, Op

    def build():
        return Executable(
            name="neg",
            instructions=[Instruction(Op.LOAD, -3), Instruction(Op.HALT)],
            functions=[Function("main", 0, 8)],
        )

    errors = {}
    for engine, cls in ENGINES.items():
        cpu = cls(build())
        with pytest.raises(MachineError) as exc:
            cpu.run()
        errors[engine] = (str(exc.value), machine_state(cpu))
    assert errors["fast"] == errors["reference"]
    assert "negative local slot" in errors["fast"][0]


def test_fast_engine_registry():
    assert ENGINES["fast"] is FastCPU
    assert ENGINES["reference"] is CPU
    with pytest.raises(MachineError):
        make_cpu(assemble(PROGRAMS["fib"]()), engine="warp")


def test_tracer_falls_back_to_reference_semantics():
    """A tracer must observe reference-exact call/return sequences."""

    class Recorder:
        def __init__(self):
            self.events = []

        def on_call(self, cpu, target):
            self.events.append(("call", target, cpu.cycles))

        def on_return(self, cpu):
            self.events.append(("ret", cpu.pc, cpu.cycles))

    events = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["even_odd"](12), profile=True)
        mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=10))
        cpu = make_cpu(exe, mon, engine=engine)
        cpu.tracer = Recorder()
        cpu.run()
        events[engine] = (cpu.tracer.events, machine_state(cpu), monitor_state(mon))
    assert events["fast"] == events["reference"]


# --------------------------------------------------------------------------
# Stack sampling (VMStackMonitor) rides the careful path.
# --------------------------------------------------------------------------


def test_stack_monitor_identical():
    from repro.stacks.vm import VMStackMonitor

    states = {}
    for engine in ENGINES:
        exe = assemble(PROGRAMS["deep"](), profile=False)
        mon = VMStackMonitor(
            MonitorConfig(exe.low_pc, exe.high_pc, cycles_per_tick=25),
            stride=2,
        )
        cpu = make_cpu(exe, mon, engine=engine)
        mon.bind(cpu)
        cpu.run()
        states[engine] = (
            machine_state(cpu),
            monitor_state(mon),
            dict(mon.stack_profile.samples),
            mon.stack_walk_cycles,
        )
    assert states["fast"] == states["reference"]


# --------------------------------------------------------------------------
# repro-check is engine-agnostic: predecode leaves lint results alone.
# --------------------------------------------------------------------------


def test_check_passes_ignore_predecode_cache():
    """GP2xx lint passes see the same program before and after the fast
    engine has predecoded (and run) it."""
    source = PROGRAMS["netcycle"]()
    exe = assemble(source, profile=True)
    before = check_executable(exe)
    # run on the fast engine: attaches the predecode cache to the image
    mon = Monitor(MonitorConfig(exe.low_pc, exe.high_pc))
    FastCPU(exe, mon).run()
    assert getattr(exe, "_predecoded", None) is not None
    after = check_executable(exe)
    assert after.diagnostics == before.diagnostics
    # and an untouched reference-engine image lints identically
    fresh = assemble(source, profile=True)
    assert check_executable(fresh).diagnostics == before.diagnostics


# --------------------------------------------------------------------------
# Hypothesis: random structured programs, random profiling geometry.
# --------------------------------------------------------------------------


@st.composite
def structured_programs(draw):
    """A terminating multi-function program with calls, loops, indirect
    dispatch, arithmetic, and WORK — the constructs whose interaction
    with ticks and events the fast engine restructures."""
    n_funcs = draw(st.integers(2, 5))
    names = [f"fn{i}" for i in range(n_funcs)]
    funcs = []
    for i in range(n_funcs):
        body = []
        loop_count = draw(st.integers(1, 6))
        body += [f"PUSH {loop_count}", "STORE 0", "loop:"]
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(
                st.sampled_from(["work", "arith", "call", "calli", "global"])
            )
            if kind == "work":
                body.append(f"WORK {draw(st.integers(0, 120))}")
            elif kind == "arith":
                body += [
                    f"PUSH {draw(st.integers(-50, 50))}",
                    f"PUSH {draw(st.integers(1, 50))}",
                    draw(st.sampled_from(["ADD", "SUB", "MUL", "DIV", "MOD"])),
                    "POP",
                ]
            elif kind == "call" and i + 1 < n_funcs:
                body.append(f"CALL {draw(st.sampled_from(names[i + 1:]))}")
            elif kind == "calli" and i + 1 < n_funcs:
                body.append(f"PUSH &{draw(st.sampled_from(names[i + 1:]))}")
                body.append("CALLI")
            else:
                body += [f"PUSH {draw(st.integers(-9, 9))}", "GSTORE 0", "GLOAD 0", "POP"]
        body += ["LOAD 0", "PUSH 1", "SUB", "STORE 0", "LOAD 0", "JNZ loop"]
        if i == 0:
            body.append("GLOAD 0")
            body.append("OUT")
            body.append("HALT")
        else:
            body.append("RET")
        funcs.append(
            f".func {'main' if i == 0 else names[i]}\n "
            + "\n ".join(body)
            + "\n.end\n"
        )
    return ".globals 1\n" + "".join(funcs)


@settings(max_examples=60, deadline=None)
@given(
    structured_programs(),
    st.booleans(),
    st.sampled_from([1, 3, 7, 100]),
    st.sampled_from([1.0, 0.5]),
)
def test_random_programs_identical(source, profile, cycles_per_tick, scale):
    assert_identical(
        run_both(
            source,
            profile=profile,
            cycles_per_tick=cycles_per_tick,
            scale=scale,
            max_instructions=30_000,
        )
    )


@settings(max_examples=30, deadline=None)
@given(
    structured_programs(),
    st.integers(11, 400),
    st.sampled_from([None, 0, 3]),
)
def test_random_programs_with_interrupts_identical(source, period, phase):
    source = source + "\n.func hyp_isr\n WORK 2\n RET\n.end\n"
    assert_identical(
        run_both(
            source,
            cycles_per_tick=10,
            interrupts=[("hyp_isr", period, phase)],
            max_instructions=30_000,
        )
    )
