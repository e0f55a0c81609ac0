"""Tier-1 tests for the fleet aggregation subsystem.

Two halves:

* the paper's multi-run claim — "N short runs recover a long run's
  per-call estimate" — checked on every pytest run, not only under
  pytest-benchmark (it used to live solely in ``bench_merge.py``);
* the :mod:`repro.fleet` driver: input expansion, header precheck,
  tree reduction determinism (byte-identical output for any worker
  count), salvage propagation, and the ``repro-merge`` /
  ``repro-gprof --sum`` CLIs.
"""

from __future__ import annotations

import random

import pytest

from repro.core import analyze, merge_profiles
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.core.arcs import RawArc
from repro.errors import GmonFormatError, MergeError
from repro.fleet import (
    HeaderCache,
    HeaderKey,
    ProfileAccumulator,
    expand_inputs,
    merge_paths,
    precheck_headers,
    tree_reduce,
)
from repro.gmon import dumps_gmon, peek_gmon_header, read_gmon, write_gmon
from repro.machine import assemble, run_profiled

#: A very short-running program: one call to a small routine (the
#: motivating case for summing — one run gathers almost no samples).
SHORT = """
.func main
    CALL quick
    HALT
.end

.func quick
    WORK 37
    RET
.end
"""


def _synthetic_fleet(tmp_path, n, seed=11, nbuckets=64, narcs=12,
                     comment="run"):
    rng = random.Random(seed)
    paths = []
    for i in range(n):
        hist = Histogram(0, nbuckets * 8,
                         [rng.randrange(6) for _ in range(nbuckets)], 60)
        arcs = [
            RawArc(rng.randrange(0, nbuckets * 8, 4),
                   rng.randrange(0, nbuckets * 8, 4),
                   rng.randrange(1, 7))
            for _ in range(narcs)
        ]
        path = tmp_path / f"gmon_{i:04d}.out"
        write_gmon(ProfileData(hist, arcs, comment=f"{comment}-{i:04d}"), path)
        paths.append(str(path))
    return paths


# -- the paper's claim, as a regression test -------------------------------------


class TestAccumulationShape:
    def test_twenty_short_runs_recover_the_short_routine(self):
        symbols = assemble(SHORT, profile=True).symbol_table()
        single = run_profiled(SHORT, name="short", cycles_per_tick=25)[1]
        runs = [
            run_profiled(SHORT, name="short", cycles_per_tick=25)[1]
            for _ in range(20)
        ]
        merged = merge_profiles(runs)
        single_quick = analyze(single, symbols).entry("quick")
        merged_quick = analyze(merged, symbols).entry("quick")
        assert merged.runs == 20
        assert merged_quick.ncalls == 20
        assert merged.total_ticks == pytest.approx(
            20 * single.total_ticks, abs=20
        )
        # the merged profile accumulates measurable time for 'quick'
        assert merged_quick.self_seconds > single_quick.self_seconds

    def test_summed_short_runs_match_long_run_split(self):
        from repro.machine.programs import abstraction

        src = abstraction(iterations=8)
        symbols = assemble(src, profile=True).symbol_table()
        shorts = [
            run_profiled(src, name="short", cycles_per_tick=11)[1]
            for _ in range(10)
        ]
        merged_profile = analyze(merge_profiles(shorts), symbols)
        long_profile = analyze(
            run_profiled(abstraction(iterations=80), name="long",
                         cycles_per_tick=11)[1],
            symbols,
        )
        for name in ("write", "format1", "format2"):
            assert merged_profile.entry(name).percent == pytest.approx(
                long_profile.entry(name).percent, abs=3.0
            )


# -- input expansion --------------------------------------------------------------


class TestExpandInputs:
    def test_plain_files_keep_their_order(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 3)
        assert expand_inputs([paths[2], paths[0]]) == [paths[2], paths[0]]

    def test_directory_is_sorted(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 4)
        (tmp_path / ".hidden").write_bytes(b"junk")
        assert expand_inputs([str(tmp_path)]) == sorted(paths)

    def test_glob_is_sorted(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 4)
        assert expand_inputs([str(tmp_path / "gmon_*.out")]) == sorted(paths)

    def test_empty_glob_is_an_error(self, tmp_path):
        with pytest.raises(MergeError, match="matched no files"):
            expand_inputs([str(tmp_path / "nope_*.out")])

    def test_empty_directory_is_an_error(self, tmp_path):
        empty = tmp_path / "void"
        empty.mkdir()
        with pytest.raises(MergeError, match="no profile files"):
            expand_inputs([str(empty)])


# -- header precheck --------------------------------------------------------------


class TestHeaderPrecheck:
    def test_peek_matches_full_parse(self, tmp_path):
        path = _synthetic_fleet(tmp_path, 1)[0]
        header = peek_gmon_header(path)
        data = read_gmon(path)
        assert HeaderKey.of(header) == HeaderKey(
            data.histogram.low_pc, data.histogram.high_pc,
            data.histogram.num_buckets, data.histogram.profrate,
        )
        assert header.comment == data.comment

    def test_incompatible_file_fails_early_and_structured(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 3)
        odd = tmp_path / "odd.out"
        write_gmon(ProfileData(Histogram(0, 1024, [0] * 64, 100), []), odd)
        with pytest.raises(MergeError) as excinfo:
            tree_reduce(paths + [str(odd)])
        assert excinfo.value.path == str(odd)
        assert isinstance(excinfo.value.expected, HeaderKey)
        assert isinstance(excinfo.value.actual, HeaderKey)
        assert excinfo.value.actual.profrate == 100

    def test_skip_mode_merges_the_rest(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 3)
        odd = tmp_path / "odd.out"
        write_gmon(ProfileData(Histogram(0, 1024, [0] * 64, 100), []), odd)
        merged = tree_reduce(paths + [str(odd)], on_incompatible="skip")
        assert dumps_gmon(merged) != b""
        assert any("skipped" in w for w in merged.warnings)
        clean = tree_reduce(paths)
        assert merged.runs == clean.runs
        assert merged.histogram.counts == clean.histogram.counts

    def test_header_cache_hits_on_unchanged_files(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 5)
        cache = HeaderCache()
        precheck_headers(paths, cache=cache)
        assert cache.misses == 5 and cache.hits == 0
        precheck_headers(paths, cache=cache)
        assert cache.hits == 5


# -- the tree-reduction driver ----------------------------------------------------


class TestTreeReduce:
    def test_matches_the_sequential_fold_byte_for_byte(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 30)
        sequential = merge_profiles([read_gmon(p) for p in paths])
        assert dumps_gmon(tree_reduce(paths, jobs=1)) == dumps_gmon(sequential)

    def test_worker_count_never_changes_the_bytes(self, tmp_path, monkeypatch):
        import repro.fleet.reduce as reduce_mod

        monkeypatch.setattr(reduce_mod, "MIN_FILES_PER_WORKER", 1)
        paths = _synthetic_fleet(tmp_path, 17)
        reference = dumps_gmon(tree_reduce(paths, jobs=1))
        for jobs in (2, 3):
            assert dumps_gmon(tree_reduce(paths, jobs=jobs)) == reference

    def test_workers_inherit_numpy_from_the_parent(self, tmp_path):
        """Under ``auto`` the parent settles the fold backend before the
        pool forks: on a layout at the fold crossover every worker
        starts with numpy already imported, and the sum is byte-identical
        to the in-process merge.  Each worker's hook leaves a marker, so
        the test fails if the check never ran."""
        import multiprocessing
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.core import kernels

        if not kernels.HAVE_NUMPY:
            pytest.skip("numpy is not installed")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the parent's modules only by fork")
        paths = _synthetic_fleet(
            tmp_path, 8, nbuckets=kernels.CROSSOVERS["fold"]
        )
        out = tmp_path / "parallel.sum"
        markers = tmp_path / "markers"
        markers.mkdir()
        code = (
            "import os, sys\n"
            "import repro.fleet.reduce as reduce_mod\n"
            "from repro.gmon import write_gmon\n"
            "def hook(chunk):\n"
            "    assert 'numpy' in sys.modules, 'worker lacks numpy'\n"
            f"    open(os.path.join({str(markers)!r}, str(os.getpid())),"
            " 'w').close()\n"
            "reduce_mod._chunk_fault_hook = hook\n"
            "reduce_mod.MIN_FILES_PER_WORKER = 1\n"
            "assert 'numpy' not in sys.modules\n"
            f"merged = reduce_mod.tree_reduce({paths!r}, jobs=2)\n"
            f"write_gmon(merged, {str(out)!r})\n"
        )
        env = dict(os.environ)
        env.pop("REPRO_KERNELS", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert any(markers.iterdir()), "no worker ran the check"
        reference = dumps_gmon(tree_reduce(paths, jobs=1))
        assert out.read_bytes() == reference

    def test_merge_paths_expands_globs_and_directories(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 6)
        reference = dumps_gmon(tree_reduce(sorted(paths), jobs=1))
        via_glob = merge_paths([str(tmp_path / "gmon_*.out")], jobs=1)
        via_dir = merge_paths([str(tmp_path)], jobs=1)
        assert dumps_gmon(via_glob) == reference
        assert dumps_gmon(via_dir) == reference

    def test_zero_inputs_raise(self):
        with pytest.raises(MergeError, match="zero profiles"):
            tree_reduce([])

    def test_salvaged_input_merges_with_warnings(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 4)
        blob = (tmp_path / "gmon_0000.out").read_bytes()
        torn = tmp_path / "gmon_0000.out"
        torn.write_bytes(blob[:-10])  # tear inside the arc table
        with pytest.raises(GmonFormatError):
            tree_reduce(paths, jobs=1)
        merged = tree_reduce(paths, jobs=1, salvage=True)
        assert merged.degraded
        assert any(
            "arc table truncated" in w and str(torn) in w
            for w in merged.warnings
        )
        assert merged.runs == 4

    def test_runs_zero_checkpoint_clamped_with_warning(self, tmp_path):
        good = _synthetic_fleet(tmp_path, 1)
        chk = tmp_path / "checkpoint.out"
        data = read_gmon(good[0]).copy()
        data.runs = 0
        write_gmon(data, chk)
        merged = tree_reduce(good + [str(chk)], jobs=1)
        assert merged.runs == 2  # 1 + clamped 1
        assert any("runs == 0" in w for w in merged.warnings)

    def test_runs_sum_across_checkpoints(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 2)
        a = read_gmon(paths[0]).copy()
        a.runs = 3
        write_gmon(a, paths[0])
        b = read_gmon(paths[1]).copy()
        b.runs = 4
        write_gmon(b, paths[1])
        assert tree_reduce(paths, jobs=1).runs == 7


# -- the accumulator directly -----------------------------------------------------


class TestProfileAccumulator:
    def test_streaming_matches_batch(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 8)
        acc = ProfileAccumulator()
        for p in paths:
            acc.add(p)
        assert not acc.empty
        assert acc.profiles_added == 8
        batch = merge_profiles([read_gmon(p) for p in paths])
        assert dumps_gmon(acc.result()) == dumps_gmon(batch)
        assert acc.total_ticks == batch.total_ticks
        assert acc.distinct_arcs == len(batch.arcs)

    def test_add_accepts_bytes_and_profiles(self, tmp_path):
        paths = _synthetic_fleet(tmp_path, 3)
        reference = merge_profiles([read_gmon(p) for p in paths])
        acc = ProfileAccumulator()
        acc.add(paths[0])
        with open(paths[1], "rb") as f:
            acc.add(f.read())
        acc.add(read_gmon(paths[2]))
        assert dumps_gmon(acc.result()) == dumps_gmon(reference)

    def test_inputs_are_never_mutated(self, tmp_path):
        path = _synthetic_fleet(tmp_path, 1)[0]
        data = read_gmon(path)
        before = dumps_gmon(data)
        acc = ProfileAccumulator()
        acc.add_profile(data)
        result = acc.result()
        result.histogram.counts[0] += 5
        result.arcs.append(RawArc(0, 0, 1))
        result.warnings.append("scribble")
        assert dumps_gmon(data) == before


# -- the CLIs ---------------------------------------------------------------------


class TestMergeCli:
    def test_merge_and_read_back(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main

        paths = _synthetic_fleet(tmp_path, 10)
        out = tmp_path / "gmon.sum"
        assert merge_main(
            ["-o", str(out), str(tmp_path / "gmon_*.out"), "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "summed 10 profile(s)" in captured.out
        assert "10 input(s) merged" in captured.err
        summed = read_gmon(out)
        reference = merge_profiles([read_gmon(p) for p in sorted(paths)])
        assert out.read_bytes() == dumps_gmon(reference)
        assert summed.runs == 10

    def test_incompatible_input_fails_with_path(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main

        _synthetic_fleet(tmp_path, 2)
        odd = tmp_path / "odd.out"
        write_gmon(ProfileData(Histogram(0, 8, [0], 100), []), odd)
        assert merge_main(["-o", str(tmp_path / "s"), str(tmp_path)]) == 1
        assert "odd.out" in capsys.readouterr().err

    def test_salvage_flag_recovers_torn_file(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main

        paths = _synthetic_fleet(tmp_path, 3)
        blob = (tmp_path / "gmon_0001.out").read_bytes()
        (tmp_path / "gmon_0001.out").write_bytes(blob[:-7])
        out = tmp_path / "gmon.sum"
        assert merge_main(["-o", str(out), "--salvage", str(tmp_path)]) == 0
        assert "salvage" in capsys.readouterr().err
        assert read_gmon(out).runs == 3

    def test_bad_jobs_rejected(self, capsys):
        from repro.cli.merge_cli import main as merge_main

        assert merge_main(["--jobs", "0", "whatever"]) == 2

    def test_stats_report_backend_and_phase_split(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main

        _synthetic_fleet(tmp_path, 5)
        out = tmp_path / "gmon.sum"
        assert merge_main(
            ["-o", str(out), str(tmp_path / "gmon_*.out"),
             "--stats", "--kernels", "python"]
        ) == 0
        err = capsys.readouterr().err
        assert "kernel backend python" in err
        assert "parse" in err and "fold" in err
        assert "5 wire input(s)" in err

    def test_kernels_flag_never_changes_the_bytes(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main
        from repro.core import kernels

        _synthetic_fleet(tmp_path, 6)
        outputs = set()
        for backend in kernels.available_backends():
            out = tmp_path / f"sum.{backend}"
            assert merge_main(
                ["-o", str(out), str(tmp_path / "gmon_*.out"),
                 "--kernels", backend, "-q"]
            ) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    def test_unknown_kernels_backend_is_an_error(self, tmp_path, capsys):
        from repro.cli.merge_cli import main as merge_main

        _synthetic_fleet(tmp_path, 2)
        assert merge_main(
            ["-o", str(tmp_path / "s"), str(tmp_path), "--kernels", "cuda"]
        ) == 1
        assert "unknown kernel backend" in capsys.readouterr().err


class TestGprofSum:
    def test_sum_accepts_globs(self, tmp_path, capsys):
        from repro.cli.gprof_cli import main as gprof_main
        from repro.machine.programs import abstraction

        src = abstraction(iterations=4)
        exe = assemble(src, name="abs", profile=True)
        image = tmp_path / "abs.vmexe"
        exe.save(image)
        for i in range(3):
            write_gmon(run_profiled(src, name="abs")[1],
                       tmp_path / f"run{i}.gmon")
        out = tmp_path / "gmon.sum"
        assert gprof_main(
            [str(image), str(tmp_path / "run*.gmon"), "--sum", str(out)]
        ) == 0
        assert "summed 3 profile(s)" in capsys.readouterr().out
        assert read_gmon(out).runs == 3
