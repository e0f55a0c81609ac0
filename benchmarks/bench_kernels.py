"""T-KERN runner: per-kernel backend throughput + the byte-identity gate.

Times the four bulk kernels of :mod:`repro.core.kernels` — bucket
folding, arc condensing, span apportionment, and §4 propagation — on
every available backend against the python reference, at fleet scale
(1000 wire inputs for the fold kernels, a 64k-bucket layout for
apportionment).

Two numbers matter:

* **speedup**: best non-python backend vs the reference, per kernel
  (the acceptance bar is ≥3x on at least two kernels);
* **identical**: every backend's result compared *exactly* (integer
  lists, arc dicts, float dicts, solve columns) plus one end-to-end
  check that a merged fleet re-serializes to byte-identical ``gmon``
  bytes on every backend.  Any mismatch makes the driver exit 2.

Usage::

    python -m benchmarks.emit_bench --suite kernels [--quick]
"""

from __future__ import annotations

import os
import platform
import random
import struct
import time

from repro.core import Symbol, SymbolTable
from repro.core import kernels
from repro.core.callgraph import Arc, CallGraph
from repro.core.cycles import number_graph
from repro.core.kernels import prop as kprop
from repro.core.kernels.spans import build_spans
from repro.fleet import ProfileAccumulator
from repro.gmon import dumps_gmon

FULL = {
    "inputs": 1000, "nbuckets": 2000, "narcs": 400, "arc_sites": 600,
    "ap_buckets": 65536, "ap_symbols": 600, "ap_inputs": 20,
    "prop_callers": 1000, "prop_hubs": 30, "prop_leaves": 200,
    "prop_solves": 50,
    "repeats": 3,
}
QUICK = {
    "inputs": 60, "nbuckets": 256, "narcs": 40, "arc_sites": 60,
    "ap_buckets": 4096, "ap_symbols": 64, "ap_inputs": 4,
    "prop_callers": 60, "prop_hubs": 4, "prop_leaves": 10,
    "prop_solves": 5,
    "repeats": 1,
}

SEED = 20240817


def _timed(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _row(kernel: str, workload: dict, runs: dict, results: dict,
         reference: str = "python") -> tuple[dict, bool]:
    """Assemble one report row; equality is exact, never approximate."""
    ref = results[reference]
    identical = all(res == ref for res in results.values())
    ref_s = runs[reference]
    row = {
        "kernel": kernel,
        "workload": workload,
        "backends": {
            name: {
                "seconds": round(sec, 6),
                "speedup_vs_python": round(ref_s / sec, 2) if sec else None,
            }
            for name, sec in runs.items()
        },
        "best_speedup": round(
            max(ref_s / sec for name, sec in runs.items()
                if name != reference),
            2,
        ),
        "identical": identical,
    }
    return row, identical


# -- kernel workloads --------------------------------------------------------


def bench_bucket_fold(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED)
    nbuckets, inputs = cfg["nbuckets"], cfg["inputs"]
    blobs = [
        struct.pack(
            f"<{nbuckets}I",
            *(rng.randrange(4) for _ in range(nbuckets)),
        )
        for _ in range(inputs)
    ]

    def fold(backend: str):
        acc = kernels.get_backend(backend).bucket_acc()
        for blob in blobs:
            acc.fold_blob(blob)
        return acc.to_list()

    runs, results = {}, {}
    for name in kernels.available_backends():
        runs[name], results[name] = _timed(
            lambda name=name: fold(name), cfg["repeats"]
        )
    return _row(
        "bucket_fold",
        {"inputs": inputs, "nbuckets": nbuckets},
        runs, results,
    )


def bench_arc_fold(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED + 1)
    high = cfg["nbuckets"] * 4
    sites = [
        (rng.randrange(0, high, 4), rng.randrange(0, high, 4))
        for _ in range(cfg["arc_sites"])
    ]
    blobs = []
    for _ in range(cfg["inputs"]):
        blobs.append(
            b"".join(
                struct.pack(
                    "<QQI", *rng.choice(sites), rng.randrange(1, 10)
                )
                for _ in range(cfg["narcs"])
            )
        )

    def fold(backend: str):
        table = kernels.get_backend(backend).arc_table()
        for blob in blobs:
            table.fold_blob(blob)
        return sorted(table.as_dict().items())

    runs, results = {}, {}
    reference = kernels.get_backend("python").arc_table
    for name in kernels.available_backends():
        if name != "python" and kernels.get_backend(name).arc_table is reference:
            # array shares the reference table; report it as such
            runs[name], results[name] = runs["python"], results["python"]
            continue
        runs[name], results[name] = _timed(
            lambda name=name: fold(name), cfg["repeats"]
        )
    return _row(
        "arc_fold",
        {"inputs": cfg["inputs"], "records_per_input": cfg["narcs"],
         "distinct_sites": cfg["arc_sites"]},
        runs, results,
    )


def bench_apportion(cfg: dict) -> tuple[dict, bool]:
    rng = random.Random(SEED + 2)
    nbuckets, nsyms = cfg["ap_buckets"], cfg["ap_symbols"]
    high = nbuckets * 4
    # symbols of irregular width covering the range: plenty of
    # fractional edges, long interior runs
    bounds = sorted(rng.sample(range(4, high, 4), nsyms - 1))
    edges = [0] + bounds + [high]
    symbols = SymbolTable(
        Symbol(edges[i], f"f{i}", edges[i + 1]) for i in range(nsyms)
    )
    spans = build_spans(0, high, nbuckets, symbols)
    vectors = [
        [rng.randrange(8) for _ in range(nbuckets)]
        for _ in range(cfg["ap_inputs"])
    ]
    sec_per_tick = 1.0 / 100.0

    def apportion(backend: str):
        fn = kernels.get_backend(backend).apportion
        out = []
        for counts in vectors:
            out.append(sorted(fn(spans, counts, sec_per_tick).items()))
        return out

    runs, results = {}, {}
    for name in kernels.available_backends():
        runs[name], results[name] = _timed(
            lambda name=name: apportion(name), cfg["repeats"]
        )
    return _row(
        "apportion",
        {"nbuckets": nbuckets, "symbols": nsyms,
         "inputs": cfg["ap_inputs"]},
        runs, results,
    )


def bench_propagate(cfg: dict) -> tuple[dict, bool]:
    # The gprof shape that makes propagation expensive: a few hot
    # shared routines (hubs) called from very many sites, so each hub
    # representative pushes time up thousands of incoming arcs.
    rng = random.Random(SEED + 3)
    graph = CallGraph()
    callers = [f"c{i}" for i in range(cfg["prop_callers"])]
    hubs = [f"hub{i}" for i in range(cfg["prop_hubs"])]
    leaves = [f"leaf{i}" for i in range(cfg["prop_leaves"])]
    for caller in callers:
        for hub in hubs:
            graph.add_arc(Arc(caller, hub, rng.randrange(1, 50)))
    for leaf in leaves:
        for hub in rng.sample(hubs, min(6, len(hubs))):
            graph.add_arc(Arc(hub, leaf, rng.randrange(1, 20)))
    numbered = number_graph(graph)
    plan = kprop.build_plan(numbered)
    self_times = {
        name: rng.random() * 5.0
        for name in callers + hubs + leaves
    }
    nsolves = cfg["prop_solves"]

    def solve(vector: bool):
        out = None
        for _ in range(nsolves):
            out = kprop.solve(plan, self_times, vector)
        return out

    runs, results = {}, {}
    runs["python"], results["python"] = _timed(
        lambda: solve(False), cfg["repeats"]
    )
    # array shares the scalar data path; report it as such
    runs["array"], results["array"] = runs["python"], results["python"]
    if "numpy" in kernels.available_backends():
        runs["numpy"], results["numpy"] = _timed(
            lambda: solve(True), cfg["repeats"]
        )
    return _row(
        "propagate",
        {"routines": len(plan.routines),
         "arcs": len(plan.arc_count), "solves": nsolves},
        runs, results,
    )


def check_end_to_end_bytes(cfg: dict) -> bool:
    """Merged-fleet wire bytes must not depend on the backend."""
    rng = random.Random(SEED + 4)
    nbuckets = cfg["nbuckets"]
    high = nbuckets * 4
    from repro.core import Histogram, ProfileData, RawArc

    blobs = []
    for i in range(min(cfg["inputs"], 100)):
        counts = [rng.randrange(4) for _ in range(nbuckets)]
        arcs = [
            RawArc(rng.randrange(0, high, 4), rng.randrange(0, high, 4),
                   rng.randrange(1, 10))
            for _ in range(cfg["narcs"])
        ]
        blobs.append(
            dumps_gmon(ProfileData(Histogram(0, high, counts, 60), arcs))
        )
    outputs = set()
    for name in kernels.available_backends():
        acc = ProfileAccumulator(name)
        for blob in blobs:
            acc.add(blob)
        outputs.add(dumps_gmon(acc.result()))
    return len(outputs) == 1


def run_kernels(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    # numpy is imported on first use: import it (if usable) before
    # timing, so the rows time the kernels, not the import
    kernels.get_backend("auto", kernel="fold",
                        size=kernels.CROSSOVERS["fold"])
    rows = []
    identical_everywhere = True
    for bench in (bench_bucket_fold, bench_arc_fold, bench_apportion,
                  bench_propagate):
        row, identical = bench(cfg)
        identical_everywhere &= identical
        rows.append(row)
        backends = "  ".join(
            f"{name} {info['speedup_vs_python']}x"
            for name, info in row["backends"].items()
            if name != "python"
        )
        print(
            f"  {row['kernel']:<12} python "
            f"{row['backends']['python']['seconds'] * 1000:8.1f} ms"
            f"  {backends}  identical={identical}"
        )
    wire_identical = check_end_to_end_bytes(cfg)
    identical_everywhere &= wire_identical
    print(f"  end-to-end merged gmon bytes identical={wire_identical}")
    fast_kernels = sum(1 for r in rows if r["best_speedup"] >= 3.0)
    report = {
        "benchmark": "T-KERN bulk-kernel backends",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "backends": list(kernels.available_backends()),
        "seed": SEED,
        "rows": rows,
        "wire_identical": wire_identical,
        "kernels_at_or_above_3x": fast_kernels,
    }
    return report, identical_everywhere


if __name__ == "__main__":  # pragma: no cover
    import json
    import sys

    report, ok = run_kernels("--quick" in sys.argv)
    print(json.dumps(report, indent=2))
    sys.exit(0 if ok else 2)
