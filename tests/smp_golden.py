"""Frozen SMP fixtures: merged-profile digests and the bias curve.

Two fixtures under ``tests/golden/``:

* ``smp_corpus_n4.json`` — for every canned program, the blake2b
  digest of the merged ``gmon`` bytes from a 4-CPU, 4-process run
  (rr, seed 0).  Because the merge is schedule-independent, this one
  digest per program pins the profile for *every* CPU count, seed,
  and policy — the equivalence suite checks exactly that.

* ``smp_bias.json`` — the §3.2 elapsed-time over-report ratio as the
  machine grows to N ∈ {1, 2, 4, 8} CPUs (skew scheduling), plus the
  per-process sampled tick count, which must not move at all.

Regenerating is a conscious act::

    PYTHONPATH=src python -m tests.smp_golden --update

(only legitimate after a deliberate, reviewed change to the machine's
cost model or the gmon wire format.)
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.gmon import dumps_gmon
from repro.machine import assemble
from repro.machine.programs import PROGRAMS
from repro.machine.smp import ElapsedTimeProfiler, SMPMachine

#: Where the frozen fixtures live.
GOLDEN_DIR = Path(__file__).parent / "golden"

CORPUS_PATH = GOLDEN_DIR / "smp_corpus_n4.json"
BIAS_PATH = GOLDEN_DIR / "smp_bias.json"

#: The canonical geometry the corpus digests are taken at.  Any other
#: (ncpus, seed, policy) must reproduce the same bytes.
CORPUS_NCPUS = 4
CORPUS_NPROCS = 4

#: CPU counts the bias curve is measured at (M = N processes each).
BIAS_NCPUS = (1, 2, 4, 8)
BIAS_PROGRAM = "dispatch"
BIAS_QUANTUM = 400
BIAS_SEED = 7


def merged_gmon_bytes(
    name: str,
    ncpus: int = CORPUS_NCPUS,
    nprocs: int = CORPUS_NPROCS,
    policy: str = "rr",
    seed: int = 0,
    quantum: int = 500,
    engine: str = "fast",
) -> bytes:
    """One canned program's merged profile bytes under a schedule."""
    exe = assemble(PROGRAMS[name](), name=name, profile=True)
    machine = SMPMachine(
        exe,
        ncpus=ncpus,
        nprocs=nprocs,
        policy=policy,
        seed=seed,
        quantum=quantum,
        engine=engine,
        cycles_per_tick=25,
    )
    machine.run()
    return dumps_gmon(machine.merged_profile(comment=name))


def corpus_digest(name: str, **kw) -> str:
    return hashlib.blake2b(merged_gmon_bytes(name, **kw), digest_size=16).hexdigest()


def compute_corpus() -> dict[str, str]:
    """Digest every canned program at the canonical geometry."""
    return {name: corpus_digest(name) for name in sorted(PROGRAMS)}


def bias_run(ncpus: int) -> dict:
    """The §3.2 experiment at one machine width.

    N processes of the same program on N CPUs under skew scheduling
    (random per-slice quanta): the wall clock advances at the *slowest*
    CPU's pace each round, so wall-clock entry-to-exit timing inflates
    with machine width while each process's own sampled profile is
    untouched.  Returns the summed elapsed-time measurement, the true
    (cycle-clock) inclusive time, and per-process tick counts.
    """
    exe = assemble(PROGRAMS[BIAS_PROGRAM](), name=BIAS_PROGRAM, profile=True)
    machine = SMPMachine(
        exe,
        ncpus=ncpus,
        nprocs=ncpus,
        policy="skew",
        seed=BIAS_SEED,
        quantum=BIAS_QUANTUM,
        cycles_per_tick=25,
    )
    profilers = []
    for proc in machine.procs:
        profiler = ElapsedTimeProfiler(clock=proc.wall_clock)
        proc.cpu.tracer = profiler
        profilers.append(profiler)
    machine.run()
    elapsed = sum(
        sum(p.inclusive_wall.values()) for p in profilers
    )
    true_cycles = sum(p.cpu.cycles for p in machine.procs)
    return {
        "ncpus": ncpus,
        "elapsed_wall": elapsed,
        "true_cycles": true_cycles,
        "over_report": round(elapsed / true_cycles, 6),
        "merged_ticks": machine.total_ticks(),
        "merged_calls": machine.total_calls(),
        "wall_cycles": machine.wall_cycles,
    }


def compute_bias() -> dict:
    """The full bias curve across machine widths."""
    runs = [bias_run(n) for n in BIAS_NCPUS]
    return {
        "program": BIAS_PROGRAM,
        "policy": "skew",
        "seed": BIAS_SEED,
        "quantum": BIAS_QUANTUM,
        "runs": runs,
    }


def load_corpus() -> dict[str, str]:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def load_bias() -> dict:
    return json.loads(BIAS_PATH.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--update" not in argv:
        print("refusing to overwrite fixtures without --update", file=sys.stderr)
        return 2
    GOLDEN_DIR.mkdir(exist_ok=True)
    corpus = compute_corpus()
    CORPUS_PATH.write_text(
        json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"froze {CORPUS_PATH} ({len(corpus)} programs)")
    bias = compute_bias()
    BIAS_PATH.write_text(
        json.dumps(bias, indent=2) + "\n", encoding="utf-8"
    )
    ratios = [r["over_report"] for r in bias["runs"]]
    print(f"froze {BIAS_PATH} (over-report {ratios})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
