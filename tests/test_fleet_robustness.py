"""Fleet-merge robustness: damaged inputs and lying filesystems.

* a strict merge fails loudly on an unparsable file;
* a salvage-mode merge gives exactly what salvaging every file and
  summing the recovered profiles gives — same bytes, same warnings —
  over clean, ``runs == 0``, trailing-byte, bad-comment, truncated and
  bit-flipped inputs (the fast path must only ever take clean files);
* ``expand_inputs`` must survive symlink cycles under ``**`` globs
  (one physical file merges once, whatever path shapes the glob
  reaches it through) and must order matches deterministically.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import MergeError
from repro.fleet import ProfileAccumulator, expand_inputs, tree_reduce
from repro.gmon import dumps_gmon, parse_gmon, salvage_gmon_bytes, write_gmon
from repro.gmon.format import MAGIC

from tests.corrupt_corpus import mutants, valid_blob
from tests.helpers import make_symbols, profile_data

SYMS = make_symbols("main", "work")


def build_fleet(tmp_path, n):
    """``n`` distinct single-run profiles on disk."""
    paths = []
    for i in range(n):
        data = profile_data(SYMS, [("main", "work", i + 1)], {"main": i % 3})
        path = tmp_path / f"gmon.{i:03d}"
        write_gmon(data, path)
        paths.append(str(path))
    return paths


def test_real_parse_errors_still_propagate(tmp_path):
    """A strict merge of a fleet with one unparsable file fails loudly."""
    paths = build_fleet(tmp_path, 64)
    with open(paths[10], "wb") as f:
        f.write(b"gmon\x01\x00garbage")
    from repro.errors import GmonFormatError, MergeError

    with pytest.raises((GmonFormatError, MergeError)):
        tree_reduce(paths)


def _salvage_reference(paths):
    """Salvage every file on its own, then sum the recovered profiles."""
    acc = ProfileAccumulator()
    for path in paths:
        with open(path, "rb") as f:
            data, _report = salvage_gmon_bytes(f.read(), source=path)
        acc.add_profile(data, source=path)
    return acc.result()


def _outcome(merge, paths):
    """(gmon bytes, warnings) of a merge, or the MergeError it raised."""
    try:
        data = merge(paths)
    except MergeError as exc:
        return str(exc)
    return dumps_gmon(data), data.warnings


def test_salvage_merge_matches_per_file_salvage(tmp_path):
    """Salvage-mode ``tree_reduce`` equals salvaging each file and
    summing: same bytes, same warnings, same layout errors."""
    blob = valid_blob("fib")
    other = parse_gmon(blob).copy()
    other.comment = "fib again"
    zero_runs = parse_gmon(blob).copy()
    zero_runs.runs = 0
    comment_at = len(MAGIC) + 2  # after the comment length field
    inputs = [
        ("runs0", dumps_gmon(zero_runs)),
        ("trailing", blob + b"\0\0\0"),
        ("badutf8", blob[:comment_at] + b"\xff" + blob[comment_at + 1:]),
    ]
    inputs += [(tag, m) for tag, _trunc, m in mutants(blob, 60, stride=17)]
    clean = [tmp_path / "clean.a", tmp_path / "clean.b"]
    clean[0].write_bytes(blob)
    clean[1].write_bytes(dumps_gmon(other))
    clean = [str(p) for p in clean]

    def salvage_merge(paths):
        return tree_reduce(paths, salvage=True, precheck=False)

    mergeable = []
    for tag, mutated in inputs:
        path = tmp_path / f"fib.{tag}"
        path.write_bytes(mutated)
        fleet = [clean[0], str(path), clean[1]]
        want = _outcome(_salvage_reference, fleet)
        assert _outcome(salvage_merge, fleet) == want, tag
        if not isinstance(want, str):
            mergeable.append(str(path))
    # one long fleet of clean and damaged files: warnings keep their order
    assert len(mergeable) > 40
    fleet = clean + mergeable
    want = _outcome(_salvage_reference, fleet)
    assert _outcome(lambda p: tree_reduce(p, salvage=True), fleet) == want
    assert 0 < len(want[1]) < len(mergeable)


class TestExpandInputs:
    def test_symlink_cycle_merges_each_file_once(self, tmp_path):
        fleet = tmp_path / "fleet"
        sub = fleet / "a"
        sub.mkdir(parents=True)
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        write_gmon(data, sub / "gmon.0")
        write_gmon(data, fleet / "gmon.1")
        try:
            os.symlink("..", sub / "loop")
        except OSError:
            pytest.skip("filesystem refuses symlinks")
        paths = expand_inputs([str(fleet / "**" / "gmon.*")])
        # the cycle makes the glob see each file through many path
        # shapes; expansion must keep exactly the two physical files
        assert len(paths) == 2
        assert [os.path.basename(p) for p in paths] == ["gmon.0", "gmon.1"]
        merged = tree_reduce(paths)
        assert merged.runs == 2  # not 40+ phantom copies

    def test_recursive_glob_deterministic_order(self, tmp_path):
        names = ["b/gmon.2", "a/gmon.9", "a/gmon.10", "c/gmon.1"]
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        for name in names:
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            write_gmon(data, path)
        pattern = str(tmp_path / "**" / "gmon.*")
        first = expand_inputs([pattern])
        assert first == expand_inputs([pattern])  # stable across calls
        assert first == sorted(first)  # lexicographic, not enumeration order

    def test_plain_glob_still_sorted(self, tmp_path):
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        for i in (3, 1, 2):
            write_gmon(data, tmp_path / f"gmon.{i}")
        paths = expand_inputs([str(tmp_path / "gmon.*")])
        assert [os.path.basename(p) for p in paths] == [
            "gmon.1", "gmon.2", "gmon.3",
        ]

    def test_duplicate_hardlinks_under_recursive_glob(self, tmp_path):
        data = profile_data(SYMS, [("main", "work", 1)], {"main": 1})
        target = tmp_path / "sub" / "gmon.a"
        target.parent.mkdir()
        write_gmon(data, target)
        try:
            os.link(target, tmp_path / "sub" / "gmon.b")
        except OSError:
            pytest.skip("filesystem refuses hard links")
        paths = expand_inputs([str(tmp_path / "**" / "gmon.*")])
        # same inode, two names: the lexicographically first name wins
        assert [os.path.basename(p) for p in paths] == ["gmon.a"]
