"""Seeded input generators for the four workloads.

Everything the program under test reads is made here from the run's
``--seed``: the same seed gives byte-identical inputs.  The gmon files
are written with ``struct`` straight from the documented wire format
(``repro.gmon.format``), so the generator does not depend on the
writer it is benchmarking.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field

#: Address units per synthetic routine.
SPAN = 16

#: The shared big-profile layout (``big-listing`` and ``serve-mixed``).
LAYOUT = {"routines": 2000, "arcs_per_routine": 4, "buckets": 4096}

#: Planted strongly-connected blocks: several small cycles and one
#: large one (the paper's networking-stack shape), never one giant SCC.
SMALL_CYCLES = (2, 2, 3, 3, 4, 4, 5, 5)
LARGE_CYCLE = 60

#: Callers of routine ``i`` are drawn from the ``CALLER_WINDOW``
#: routines below it, so fan-out stays local.
CALLER_WINDOW = 200

#: Share of the graph's arcs that one ``big-listing`` file records.
LISTING_ARC_SHARE = 0.5
#: Share of the graph's arcs that one ``serve-mixed`` upload records.
UPLOAD_ARC_SHARE = 0.1
#: Distinct upload templates per ``serve-mixed`` run.
UPLOAD_TEMPLATES = 32

PROFRATE = 60
MAGIC = b"gmon\x01\x00"

#: The five Rel programs of the ``pgo`` workload, sized so each runs
#: roughly 120k-230k baseline cycles.
PGO_PROGRAMS = (
    ("sieve", {"limit": 3000}),
    ("classify", {"rounds": 5000}),
    ("abstraction", {"iterations": 800}),
    ("gcd_chain", {"rounds": 1000}),
    ("fib", {"n": 18}),
)

#: Listing variants frozen in ``tests/golden`` per canned VM program.
VM_VARIANTS = ("default", "static")


@dataclass
class CallGraph:
    """A synthetic program: routine names plus its (caller, callee) arcs."""

    names: list[str]
    arcs: list[tuple[int, int]]
    cycles: list[list[int]] = field(default_factory=list)

    @property
    def high_pc(self) -> int:
        return len(self.names) * SPAN

    def shape(self) -> dict:
        return {
            "routines": len(self.names),
            "arcs": len(self.arcs),
            "buckets": LAYOUT["buckets"],
            "cycles": len(self.cycles),
            "cycle_members": sum(len(c) for c in self.cycles),
            "largest_cycle": max(len(c) for c in self.cycles),
        }

    def symbols_json(self) -> str:
        """The graph's symbol table in ``SymbolTable.save`` form."""
        return json.dumps(
            {
                "symbols": [
                    {"address": i * SPAN, "name": name, "end": (i + 1) * SPAN}
                    for i, name in enumerate(self.names)
                ]
            },
            indent=1,
        )


def call_graph(seed: int) -> CallGraph:
    """The shared layout's call graph, with planted cycles.

    Ordinary arcs go from a lower to a higher routine index, so they
    form a DAG.  Each planted cycle is a block of consecutive indices
    chained forward and closed by one back arc; since every other arc
    points forward, the block is exactly one SCC and blocks never merge.
    """
    rng = random.Random(seed)
    n = LAYOUT["routines"]
    names = ["main"] + [f"fn{i:05d}" for i in range(1, n)]
    pairs: set[tuple[int, int]] = set()
    for callee in range(1, n):
        low = max(0, callee - CALLER_WINDOW)
        for _ in range(LAYOUT["arcs_per_routine"]):
            pairs.add((rng.randrange(low, callee), callee))
    sizes = list(SMALL_CYCLES) + [LARGE_CYCLE]
    rng.shuffle(sizes)
    # Disjoint blocks at seeded offsets inside equal slices of the index
    # range (routine 0, main, is never a member).
    slice_len = (n - 1) // len(sizes)
    cycles = []
    for k, size in enumerate(sizes):
        start = 1 + k * slice_len + rng.randrange(slice_len - size)
        block = list(range(start, start + size))
        for a, b in zip(block, block[1:]):
            pairs.add((a, b))
        pairs.add((block[-1], block[0]))
        cycles.append(block)
    return CallGraph(names, sorted(pairs), cycles)


def gmon_blob(graph: CallGraph, rng: random.Random, arc_share: float,
              comment: str) -> bytes:
    """One gmon file over ``graph``'s layout with seeded counts."""
    nbuckets = LAYOUT["buckets"]
    counts = [
        rng.randrange(1, 9) if rng.random() < 0.3 else 0
        for _ in range(nbuckets)
    ]
    arcs = [
        (caller * SPAN + 1 + callee % (SPAN - 2), callee * SPAN,
         rng.randrange(1, 100))
        for caller, callee in graph.arcs
        if rng.random() < arc_share
    ]
    text = comment.encode()
    return b"".join([
        MAGIC,
        struct.pack("<H", len(text)),
        text,
        struct.pack("<IQQII", 1, 0, graph.high_pc, nbuckets, PROFRATE),
        struct.pack(f"<{nbuckets}I", *counts),
        struct.pack("<I", len(arcs)),
        b"".join(struct.pack("<QQI", *arc) for arc in arcs),
    ])


def listing_files(graph: CallGraph, seed: int, nfiles: int) -> list[bytes]:
    """The ``big-listing`` inputs: ``nfiles`` runs of one program."""
    rng = random.Random(seed ^ 0x5EED)
    return [
        gmon_blob(graph, rng, LISTING_ARC_SHARE, f"run-{i:03d}")
        for i in range(nfiles)
    ]


class Uploads:
    """Distinct ``serve-mixed`` upload bodies, made cheaply on demand.

    A few seeded templates are generated once; upload ``i`` of tenant
    ``t`` is a template with three bucket counts raised by amounts that
    encode ``(t, i)``, so no two bodies are equal (the agent's content
    key would otherwise deduplicate them).
    """

    BUMPED = (5, 1000, 3000)

    def __init__(self, graph: CallGraph, seed: int) -> None:
        rng = random.Random(seed ^ 0xA6E7)
        self.templates = [
            gmon_blob(graph, rng, UPLOAD_ARC_SHARE, "upload")
            for _ in range(UPLOAD_TEMPLATES)
        ]
        self.bucket0 = len(MAGIC) + 2 + len(b"upload") + struct.calcsize(
            "<IQQII"
        )

    def body(self, tenant: int, index: int) -> bytes:
        blob = bytearray(self.templates[index % len(self.templates)])
        bumps = (index % 251 + 1, index // 251 % 251 + 1, tenant + 1)
        for bucket, bump in zip(self.BUMPED, bumps):
            offset = self.bucket0 + 4 * bucket
            (count,) = struct.unpack_from("<I", blob, offset)
            struct.pack_into("<I", blob, offset, count + bump)
        return bytes(blob)


def vm_pairs(seed: int, programs) -> list[tuple[str, str]]:
    """A seeded order over every (canned program, listing variant) pair."""
    pairs = [(p, v) for p in sorted(programs) for v in VM_VARIANTS]
    random.Random(seed).shuffle(pairs)
    return pairs


def pgo_order(seed: int) -> list[tuple[str, dict]]:
    """The five PGO programs, rotated by the seed."""
    k = seed % len(PGO_PROGRAMS)
    return list(PGO_PROGRAMS[k:] + PGO_PROGRAMS[:k])
