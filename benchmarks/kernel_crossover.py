"""Where ``auto`` should hand each kernel to numpy: the crossover sweep.

``REPRO_KERNELS=auto`` serves a kernel call from numpy only when its
vector is at least that kernel's crossover length
(:data:`repro.core.kernels.CROSSOVERS`); shorter calls stay on the
stdlib ``array`` backend and never pay numpy's import.  This script
measures those lengths: for each kernel it times one call, warm and
best of N, on ``array`` and on ``numpy`` across a sweep of vector
lengths, and reports the first length from which numpy is at least as
fast at every longer length of the sweep.

One call is what a one-shot ``repro-gprof`` run makes:

* ``fold``: one gmon input (``n`` buckets, ``n/2`` arc records over
  ``n`` call sites) folded into fresh accumulators and read back;
* ``apportion``: one ``n``-bucket histogram charged to ``n/8``
  routines;
* ``propagate``: one solve of a fresh plan with ``n`` arcs (the
  hub-heavy T-KERN graph shape, scaled).

Usage::

    python -m benchmarks.kernel_crossover [--repeats 9]
"""

from __future__ import annotations

import argparse
import random
import struct
import time

from repro.core import kernels
from repro.core.callgraph import Arc, CallGraph
from repro.core.cycles import number_graph
from repro.core.kernels import prop as kprop
from repro.core.kernels.spans import build_spans
from repro.core.symbols import Symbol, SymbolTable

SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)
SEED = 20240817


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fold_call(n: int, rng: random.Random):
    sites = [(rng.randrange(0, 4 * n, 4), rng.randrange(0, 4 * n, 4))
             for _ in range(n)]
    buckets = struct.pack(f"<{n}I", *(rng.randrange(4) for _ in range(n)))
    arcs = b"".join(
        struct.pack("<QQI", *rng.choice(sites), rng.randrange(1, 10))
        for _ in range(n // 2)
    )

    def call(backend: kernels.Backend):
        acc, table = backend.bucket_acc(), backend.arc_table()
        acc.fold_blob(buckets)
        table.fold_blob(arcs)
        return acc.to_list(), table.as_dict()

    return call


def apportion_call(n: int, rng: random.Random):
    nsyms = max(n // 8, 2)
    edges = [0] + sorted(rng.sample(range(4, 4 * n, 4), nsyms - 1)) + [4 * n]
    symbols = SymbolTable(Symbol(edges[i], f"f{i}", edges[i + 1])
                          for i in range(nsyms))
    spans = build_spans(0, 4 * n, n, symbols)
    counts = [rng.randrange(8) for _ in range(n)]
    return lambda backend: backend.apportion(spans, counts, 0.01)


def propagate_call(n: int, rng: random.Random):
    hubs = [f"hub{i}" for i in range(max(n // 256, 2))]
    graph = CallGraph()
    for i in range(n // len(hubs)):
        for hub in hubs:
            graph.add_arc(Arc(f"c{i}", hub, rng.randrange(1, 50)))
    plan = kprop.build_plan(number_graph(graph))
    self_times = {name: rng.random() for name in plan.routines}

    def call(backend: kernels.Backend):
        # a one-shot run solves a plan once: its numpy set-up counts
        plan.__dict__.pop("_np_columns", None)
        plan.__dict__.pop("_np_work", None)
        return kprop.solve(plan, self_times, backend.vector_propagate)

    return call


KERNELS = {"fold": fold_call, "apportion": apportion_call,
           "propagate": propagate_call}


def crossover(rows: list[tuple[int, float, float]]) -> int | None:
    """First size from which numpy is at least as fast at every size."""
    found = None
    for n, array_s, numpy_s in reversed(rows):
        if numpy_s > array_s:
            break
        found = n
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    opts = parser.parse_args(argv)
    array = kernels.get_backend("array")
    numpy = kernels.get_backend("numpy")  # raises when numpy is absent
    for name, make in KERNELS.items():
        rows = []
        for n in SIZES:
            call = make(n, random.Random(SEED + n))
            call(numpy)  # warm: imports, plan columns, caches
            rows.append((n, _best(lambda: call(array), opts.repeats),
                         _best(lambda: call(numpy), opts.repeats)))
            print(f"{name:<10} n={n:>6}  array {rows[-1][1] * 1e3:8.3f} ms"
                  f"  numpy {rows[-1][2] * 1e3:8.3f} ms"
                  f"  x{rows[-1][1] / rows[-1][2]:5.2f}", flush=True)
        print(f"{name:<10} crossover: {crossover(rows) or 'never'}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
