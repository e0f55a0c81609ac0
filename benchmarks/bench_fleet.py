"""T-FLEET — fleet-scale merging: the streaming driver vs the old fold.

The paper merged a handful of runs; the production target merges
thousands of ``gmon.out`` files per program.  This benchmark pits the
:mod:`repro.fleet` streaming merge driver against the legacy
pairwise ``merge_profiles`` fold on the same synthetic fleet, and
asserts the two contracts the subsystem lives by:

* **byte-identity** — driver output written as ``gmon.sum`` is
  identical to the sequential fold's;
* **throughput** — the driver is strictly faster than the pairwise
  fold (the committed BENCH_fleet.json records 4-7x on fleets of
  10-1000 files; here we only assert direction, not magnitude, to
  stay robust on loaded CI machines).

``benchmarks/emit_bench.py`` is the standalone runner that measures
the full 10/100/1000 trajectory and writes BENCH_fleet.json.
"""

import functools

import pytest

from repro.core import merge_profiles
from repro.fleet import ProfileAccumulator, tree_reduce
from repro.gmon import dumps_gmon, read_gmon

from benchmarks.conftest import report
from benchmarks.emit_bench import build_corpus, legacy_pairwise_fold

FLEET_SIZE = 80


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet_bench")
    return build_corpus(root, FLEET_SIZE, nbuckets=400, narcs=80,
                        arc_sites=120)


def test_driver_merge_throughput(benchmark, fleet):
    merged = benchmark(tree_reduce, fleet)
    assert merged.runs == FLEET_SIZE
    assert dumps_gmon(merged) == dumps_gmon(legacy_pairwise_fold(fleet))


def test_legacy_fold_baseline(benchmark, fleet):
    """The shape being escaped: every step re-merges the running sum."""
    merged = benchmark(legacy_pairwise_fold, fleet)
    assert merged.runs == FLEET_SIZE


def test_streaming_accumulator_throughput(benchmark, fleet):
    def stream():
        acc = ProfileAccumulator()
        for path in fleet:
            acc.add(path)
        return acc.result()

    merged = benchmark(stream)
    assert merged.runs == FLEET_SIZE


def test_driver_beats_the_pairwise_fold(fleet):
    """Directional check, every pytest run (magnitudes in BENCH_fleet.json)."""
    import time

    def best_of(fn, k=3):
        best = float("inf")
        for _ in range(k):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    legacy = best_of(lambda: legacy_pairwise_fold(fleet))
    driver = best_of(lambda: tree_reduce(fleet))
    report(
        "Fleet merge, 80 files: pairwise fold vs streaming driver",
        [
            ("pairwise fold", f"{FLEET_SIZE / legacy:,.0f} p/s"),
            ("fleet driver", f"{FLEET_SIZE / driver:,.0f} p/s"),
            ("speedup", f"{legacy / driver:.2f}x"),
        ],
        header=("merge path", "throughput"),
    )
    assert driver < legacy


def test_batch_merge_profiles_matches_driver(fleet):
    """The rewritten one-shot merge_profiles is the same algebra."""
    batch = merge_profiles([read_gmon(p) for p in fleet])
    assert dumps_gmon(batch) == dumps_gmon(tree_reduce(fleet))


def test_fold_in_any_grouping_is_byte_identical(fleet):
    """Associativity at benchmark scale: 8-chunk tree == flat fold."""
    chunk = FLEET_SIZE // 8
    groups = [fleet[i:i + chunk] for i in range(0, FLEET_SIZE, chunk)]
    tree = functools.reduce(
        lambda a, b: merge_profiles([a, b]),
        (merge_profiles([read_gmon(p) for p in g]) for g in groups),
    )
    assert dumps_gmon(tree) == dumps_gmon(tree_reduce(fleet))
