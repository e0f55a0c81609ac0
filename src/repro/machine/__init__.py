"""The VM substrate: programs with real program counters to profile.

High-level helpers:

* :func:`run_profiled` — assemble with monitoring prologues, execute
  with a sampling monitor attached, return (cpu, profile data).
* :func:`run_unprofiled` — the control: same program, no profiling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.profiledata import ProfileData
    from repro.machine.cpu import CPU

__all__ = [
    "ArcBuffer",
    "ArcTable",
    "ArcTableStats",
    "BlockCount",
    "CPU",
    "CPUShard",
    "ENGINES",
    "FastCPU",
    "GlobalLockMonitor",
    "SMPMachine",
    "ShardedMonitor",
    "SliceScheduler",
    "reduce_shards",
    "block_counts",
    "format_block_counts",
    "Executable",
    "Frame",
    "Function",
    "INSTRUCTION_SIZE",
    "Instruction",
    "InterruptSource",
    "Monitor",
    "MonitorConfig",
    "Op",
    "assemble",
    "make_cpu",
    "predecode",
    "run_profiled",
    "run_unprofiled",
    "static_arcs",
    "static_call_graph",
]

lazy_exports(__name__, {
    ".assembler": ("assemble",),
    ".blockcounts": ("BlockCount", "block_counts", "format_block_counts"),
    ".cpu": ("CPU", "Frame", "InterruptSource"),
    ".crawl": ("static_arcs", "static_call_graph"),
    ".executable": ("Executable", "Function"),
    ".fastcpu": ("ENGINES", "FastCPU", "make_cpu", "predecode"),
    ".isa": ("INSTRUCTION_SIZE", "Instruction", "Op"),
    ".mcount": ("ArcBuffer", "ArcTable", "ArcTableStats"),
    ".monitor": ("Monitor", "MonitorConfig"),
    ".smp": (
        "CPUShard", "GlobalLockMonitor", "SMPMachine", "ShardedMonitor",
        "SliceScheduler", "reduce_shards",
    ),
})


def run_profiled(
    source: str,
    name: str = "a.out",
    cycles_per_tick: int = 100,
    scale: float = 1.0,
    profrate: int = 60,
    max_instructions: int | None = None,
    engine: str = "fast",
) -> tuple[CPU, ProfileData]:
    """Assemble ``source`` with profiling, run it, condense the data.

    The one-call equivalent of "compile with the profiling option, run,
    and pick up gmon.out".  Returns the finished CPU (for cycle counts
    and program output) and the condensed :class:`ProfileData`.
    ``engine`` selects the interpreter: the predecoded fast engine (the
    default) or the ``"reference"`` baseline — both produce identical
    profiles.
    """
    from repro.machine.assembler import assemble
    from repro.machine.fastcpu import make_cpu
    from repro.machine.monitor import Monitor, MonitorConfig

    exe = assemble(source, name=name, profile=True)
    monitor = Monitor(
        MonitorConfig(
            exe.low_pc,
            exe.high_pc,
            scale=scale,
            cycles_per_tick=cycles_per_tick,
            profrate=profrate,
        )
    )
    cpu = make_cpu(exe, monitor, engine=engine)
    cpu.run(max_instructions=max_instructions)
    return cpu, monitor.mcleanup(comment=name)


def run_unprofiled(
    source: str,
    name: str = "a.out",
    max_instructions: int | None = None,
    engine: str = "fast",
) -> CPU:
    """Assemble ``source`` without profiling and run it (the control
    case for overhead measurements)."""
    from repro.machine.assembler import assemble
    from repro.machine.fastcpu import make_cpu

    exe = assemble(source, name=name, profile=False)
    cpu = make_cpu(exe, engine=engine)
    cpu.run(max_instructions=max_instructions)
    return cpu
