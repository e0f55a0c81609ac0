"""The perf-trajectory runner: measure one suite, write its BENCH_*.json.

Eight suites, one per subsystem, each both a measurement and a
byte-identity gate (``--suite``, default ``fleet``):

=========  ===============  ===========================================
suite      report           exits 2 when
=========  ===============  ===========================================
fleet      T-FLEET          the parallel ``tree_reduce`` sum differs
                            from the sequential pairwise fold
vm         T-VM             the fast engine's gmon differs from the
                            reference engine's
pipeline   T-PIPE           a cached analysis renders a different
                            listing than the uncached pipeline
check      T-FLOW           a flow report or predicted profile differs
                            across runs or on cache replay
serve      T-SERVE          the recovered merged profile differs from
                            the offline merge of the uploads
smp        T-SMP            the merged SMP profile depends on the CPU
                            count, schedule or sharding
kernels    T-KERN           a kernel backend disagrees with the python
                            reference
pgo        T-PGO            a PGO'd program diverges, its assembly is
                            not deterministic, or fewer than 3 programs
                            got faster
=========  ===============  ===========================================

The fleet suite lives here: for fleets of 10/100/1000 synthetic gmon
files it times the legacy pairwise fold, the :mod:`repro.fleet`
tree-reduction driver at its default worker count, and the same driver
forced onto 2 workers.  The other suites live in
``benchmarks/bench_<suite>.py`` and are imported only when selected.

Usage::

    python -m benchmarks.emit_bench [--suite NAME] [--quick] [--out FILE]

``--quick`` shrinks every corpus for CI smoke runs; the committed
``BENCH_*.json`` files come from full runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.core import Histogram, ProfileData, RawArc, merge_profiles
from repro.gmon import dumps_gmon, read_gmon, write_gmon
from repro.fleet import tree_reduce

#: Synthetic corpus shape: dense enough that bucket summing and arc
#: condensing both matter, small enough that a 1000-file fleet builds
#: in seconds.
FULL = {"sizes": (10, 100, 1000), "nbuckets": 2000, "narcs": 400,
        "arc_sites": 600, "repeats": 3}
QUICK = {"sizes": (10, 50), "nbuckets": 200, "narcs": 40,
         "arc_sites": 60, "repeats": 1}


def build_corpus(root: Path, n: int, nbuckets: int, narcs: int,
                 arc_sites: int, seed: int = 1234) -> list[str]:
    """Write ``n`` synthetic, mutually-compatible gmon files."""
    rng = random.Random(seed)
    high = nbuckets * 4
    sites = [
        (rng.randrange(0, high, 4), rng.randrange(0, high, 4))
        for _ in range(arc_sites)
    ]
    paths = []
    for i in range(n):
        counts = [rng.randrange(4) for _ in range(nbuckets)]
        arcs = [
            RawArc(*rng.choice(sites), rng.randrange(1, 10))
            for _ in range(narcs)
        ]
        data = ProfileData(
            Histogram(0, high, counts, 60), arcs, comment=f"synth-{i:04d}"
        )
        path = root / f"gmon_{i:04d}.out"
        write_gmon(data, path)
        paths.append(str(path))
    return paths


def legacy_pairwise_fold(paths: list[str]) -> ProfileData:
    """The pre-fleet shape: parse everything, fold profiles pairwise."""
    return functools.reduce(
        lambda acc, path: merge_profiles([acc, read_gmon(path)]),
        paths[1:],
        read_gmon(paths[0]),
    )


def timed(fn, repeats: int):
    """(best wall-clock seconds, last result) over ``repeats`` runs."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(quick: bool) -> tuple[dict, bool]:
    cfg = QUICK if quick else FULL
    rows = []
    identical_everywhere = True
    with tempfile.TemporaryDirectory(prefix="bench_fleet_") as tmp:
        for n in cfg["sizes"]:
            root = Path(tmp) / f"fleet_{n}"
            root.mkdir()
            paths = build_corpus(
                root, n, cfg["nbuckets"], cfg["narcs"], cfg["arc_sites"]
            )
            legacy_s, legacy_data = timed(
                lambda: legacy_pairwise_fold(paths), cfg["repeats"]
            )
            driver_s, driver_data = timed(
                lambda: tree_reduce(paths), cfg["repeats"]
            )
            parallel_s, parallel_data = timed(
                lambda: tree_reduce(paths, jobs=2), cfg["repeats"]
            )
            legacy_bytes = dumps_gmon(legacy_data)
            identical = (
                dumps_gmon(driver_data) == legacy_bytes
                and dumps_gmon(parallel_data) == legacy_bytes
            )
            identical_everywhere &= identical
            row = {
                "files": n,
                "legacy_seconds": round(legacy_s, 6),
                "driver_seconds": round(driver_s, 6),
                "parallel_seconds": round(parallel_s, 6),
                "legacy_profiles_per_sec": round(n / legacy_s, 1),
                "driver_profiles_per_sec": round(n / driver_s, 1),
                "parallel_profiles_per_sec": round(n / parallel_s, 1),
                "speedup_driver_vs_legacy": round(legacy_s / driver_s, 2),
                "byte_identical": identical,
            }
            rows.append(row)
            print(
                f"  {n:>5} files: legacy {row['legacy_profiles_per_sec']:>9} p/s"
                f"  driver {row['driver_profiles_per_sec']:>9} p/s"
                f"  ({row['speedup_driver_vs_legacy']}x)"
                f"  identical={identical}"
            )
    report = {
        "benchmark": "T-FLEET merge throughput",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "corpus": {
            "nbuckets": cfg["nbuckets"],
            "narcs": cfg["narcs"],
            "arc_sites": cfg["arc_sites"],
            "seed": 1234,
            "repeats": cfg["repeats"],
        },
        "rows": rows,
    }
    return report, identical_everywhere


#: suite name -> (banner, default output file, runner, mismatch message).
#: Every runner returns ``(report_dict, byte_identical)`` and the driver
#: turns a False flag into exit status 2 — the CI identity gate.
SUITES = {
    "fleet": (
        "T-FLEET",
        "BENCH_fleet.json",
        run,
        "parallel output differs from sequential",
    ),
    "vm": (
        "T-VM",
        "BENCH_vm.json",
        None,  # resolved lazily to avoid importing the VM for fleet runs
        "fast-engine gmon differs from reference engine",
    ),
    "pipeline": (
        "T-PIPE",
        "BENCH_pipeline.json",
        None,  # resolved lazily, same pattern as vm
        "cached analysis listing differs from uncached",
    ),
    "check": (
        "T-FLOW",
        "BENCH_check.json",
        None,  # resolved lazily, same pattern as vm
        "flow report or predicted profile differs across runs or "
        "cache replay",
    ),
    "serve": (
        "T-SERVE",
        "BENCH_serve.json",
        None,  # resolved lazily, same pattern as vm
        "recovered merged profile differs from the offline merge of "
        "the uploaded inputs",
    ),
    "smp": (
        "T-SMP",
        "BENCH_smp.json",
        None,  # resolved lazily, same pattern as vm
        "merged SMP profile depends on the CPU count, schedule, or "
        "sharding layout",
    ),
    "kernels": (
        "T-KERN",
        "BENCH_kernels.json",
        None,  # resolved lazily, same pattern as vm
        "kernel backends disagree (per-kernel results or merged gmon "
        "bytes differ from the python reference)",
    ),
    "pgo": (
        "T-PGO",
        "BENCH_pgo.json",
        None,  # resolved lazily, same pattern as vm
        "PGO gate violated: behaviour diverged, assembly is not "
        "byte-deterministic, or fewer than 3 programs got faster",
    ),
}


def _suite_runner(name: str):
    if name == "vm":
        from benchmarks.bench_vm import run_vm

        return run_vm
    if name == "pipeline":
        from benchmarks.bench_pipeline import run_pipeline

        return run_pipeline
    if name == "check":
        from benchmarks.bench_check import run_check

        return run_check
    if name == "serve":
        from benchmarks.bench_serve import run_serve

        return run_serve
    if name == "smp":
        from benchmarks.bench_smp import run_smp

        return run_smp
    if name == "kernels":
        from benchmarks.bench_kernels import run_kernels

        return run_kernels
    if name == "pgo":
        from benchmarks.bench_pgo import run_pgo_suite

        return run_pgo_suite
    return SUITES[name][2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="emit_bench",
        description="measure a perf-trajectory suite, write its BENCH_*.json",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="fleet",
                        help="which trajectory to measure (default: fleet)")
    parser.add_argument("--quick", action="store_true",
                        help="small corpora for CI smoke runs")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="where to write the JSON report "
                             "(default: the suite's BENCH_*.json)")
    opts = parser.parse_args(argv)
    banner, default_out, _, mismatch = SUITES[opts.suite]
    out = opts.out or default_out
    print(f"== {banner} ({'quick' if opts.quick else 'full'}) ==")
    report, identical = _suite_runner(opts.suite)(opts.quick)
    Path(out).write_text(json.dumps(report, indent=2) + "\n",
                         encoding="utf-8")
    print(f"report written to {out}")
    if not identical:
        print(f"emit_bench: FATAL: {mismatch}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
