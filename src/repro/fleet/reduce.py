"""The tree-reduction merge driver: thousands of gmon files, bounded memory.

Topology: the input paths are split into contiguous chunks (in input
order); each worker streams one chunk through its own
:class:`~repro.fleet.ProfileAccumulator` (memory per worker is one
bucket array plus one arc table, regardless of chunk length); the
partial accumulators are folded in **chunk order** into the final sum.
That order rule is the whole determinism story — workers may finish in
any order on any number of processes, but the reduction always folds
partial[0], partial[1], ... — so the resulting ``gmon.sum`` is
byte-identical whether the merge ran on 1 process or 16, and identical
to the legacy sequential ``merge_profiles([read_gmon(p) ...])``.

Before any bucket data is parsed, a header precheck
(:mod:`repro.fleet.headers`) peeks every file's fixed-size prefix and
either fails fast with a structured :class:`~repro.errors.MergeError`
naming the first incompatible path, or — with
``on_incompatible="skip"`` — drops mismatches with a warning on the
merged result.

Salvage mode (``salvage=True``) reads every input through the
salvaging parser instead: corrupt files contribute their recovered
prefix and their degradation warnings propagate into the merged
``ProfileData.warnings``.
"""

from __future__ import annotations

import glob
import os
from pathlib import Path
from typing import Sequence

from repro.core import kernels
from repro.core.profiledata import ProfileData
from repro.errors import GmonFormatError, MergeError
from repro.gmon.format import peek_gmon_header, salvage_gmon_bytes

from repro.fleet.accumulator import ProfileAccumulator
from repro.fleet.headers import HeaderCache, HeaderKey

#: Below this many inputs, process overhead dwarfs the merge itself and
#: the driver stays in-process even when ``jobs`` allows more.
MIN_FILES_PER_WORKER = 32

#: Seconds a partial merge may take before the driver gives up on its
#: worker and re-merges the chunk sequentially (see :func:`tree_reduce`).
DEFAULT_WORKER_TIMEOUT = 300.0

#: Test seam: when set, every worker calls this with its chunk's paths
#: before merging — the regression suite uses it to make a worker
#: ``os._exit`` or hang, in the spirit of
#: :class:`repro.resilience.FaultInjector`.  Propagates to workers via
#: the ``fork`` start method.
_chunk_fault_hook = None


def _dedup_by_inode(matches: list[str]) -> list[str]:
    """Collapse paths that name the same physical file, deterministically.

    Recursive globs can reach one file through many paths when a
    symlink cycle is present (``a/loop -> ..`` makes ``a/loop/a/f``,
    ``a/loop/a/loop/a/f``, ... all resolve to ``a/f`` until the kernel's
    ELOOP limit); merging the same samples dozens of times would be
    silently wrong.  Paths are visited in sorted order and the first
    name for each ``(st_dev, st_ino)`` wins, so the result is a pure
    function of the directory contents, never of enumeration order.
    """
    seen: set[tuple[int, int]] = set()
    kept: list[str] = []
    for p in sorted(matches):
        try:
            st = os.stat(p)
            key = (st.st_dev, st.st_ino)
        except OSError:
            kept.append(p)  # surfaces as the usual error at read time
            continue
        if key in seen:
            continue
        seen.add(key)
        kept.append(p)
    return kept


def expand_inputs(specs: Sequence[str]) -> list[str]:
    """Expand files, glob patterns, and directories into a path list.

    * a path to a regular file is kept as-is (missing files surface as
      the usual ``OSError`` at read time, keeping error messages
      stable);
    * a directory contributes every non-hidden regular file directly
      inside it, sorted by name;
    * a glob pattern (``*``, ``?``, ``[``, including ``**``)
      contributes its matches sorted by name; a pattern matching
      nothing is an error — a typo should not silently merge fewer
      runs.  Recursive (``**``) matches that reach the same physical
      file through several paths — a symlink cycle — are merged once,
      under the lexicographically first name.

    The expansion preserves the order of ``specs``; within one
    directory or glob the order is lexicographic (sorted here, not
    taken from filesystem enumeration), so the same fleet always merges
    in the same order (the determinism contract depends on it).
    """
    paths: list[str] = []
    for spec in specs:
        spec = os.fspath(spec)
        if os.path.isdir(spec):
            entries = sorted(
                e.path
                for e in os.scandir(spec)
                if e.is_file() and not e.name.startswith(".")
            )
            if not entries:
                raise MergeError("directory holds no profile files", path=spec)
            paths.extend(entries)
        elif glob.has_magic(spec):
            matches = [p for p in glob.glob(spec, recursive=True)
                       if os.path.isfile(p)]
            if "**" in spec:
                matches = _dedup_by_inode(matches)
            if not matches:
                raise MergeError("glob pattern matched no files", path=spec)
            paths.extend(sorted(matches))
        else:
            paths.append(spec)
    return paths


def precheck_headers(
    paths: Sequence[str],
    cache: HeaderCache | None = None,
    on_incompatible: str = "error",
    salvage: bool = False,
) -> tuple[list[str], list[str]]:
    """Peek every header; return (mergeable paths, skip warnings).

    With ``on_incompatible="error"`` the first layout mismatch raises a
    structured :class:`MergeError` (path + expected/actual HeaderKey);
    with ``"skip"`` mismatching files are dropped and described in the
    returned warnings.  In salvage mode files whose very header is
    unreadable are left in the list — the salvaging parser deals with
    them — instead of failing the precheck.
    """
    if on_incompatible not in ("error", "skip"):
        raise ValueError(f"unknown on_incompatible {on_incompatible!r}")
    if cache is None:  # NB: an empty HeaderCache is falsy (it has __len__)
        cache = HeaderCache()
    expected: HeaderKey | None = None
    keep: list[str] = []
    warnings: list[str] = []
    for path in paths:
        try:
            key = HeaderKey.of(cache.peek(path))
        except GmonFormatError:
            if salvage:
                # the salvaging reader will recover what it can
                keep.append(os.fspath(path))
                continue
            raise
        if expected is None:
            expected = key
        elif key != expected:
            if on_incompatible == "error":
                raise MergeError(
                    f"histogram layout {key.describe()} is incompatible "
                    f"with the fleet layout {expected.describe()}",
                    path=os.fspath(path),
                    expected=expected,
                    actual=key,
                )
            warnings.append(
                f"{os.fspath(path)}: skipped (layout {key.digest()} != "
                f"fleet layout {expected.digest()})"
            )
            continue
        keep.append(os.fspath(path))
    return keep, warnings


def _merge_chunk(
    args: tuple[list[str], bool, bool, str | None]
) -> ProfileAccumulator:
    """Worker body: stream one chunk of paths into a fresh accumulator."""
    paths, salvage, timed, backend = args
    if _chunk_fault_hook is not None:
        _chunk_fault_hook(paths)
    acc = ProfileAccumulator(backend, timed=timed)
    for path in paths:
        if salvage:
            with open(path, "rb") as f:
                data, _report = salvage_gmon_bytes(f.read(), source=str(path))
            acc.add_profile(data, source=str(path))
        else:
            acc.add(path)
    return acc


def _fold_backend(path: str) -> str | None:
    """The kernel backend that folds inputs laid out like ``path``.

    Resolving it imports numpy when the bucket count calls for it.
    None when the header is unreadable (salvage mode): each worker then
    settles the backend from its own first input.
    """
    try:
        nbuckets = peek_gmon_header(path).nbuckets
    except (GmonFormatError, OSError):
        return None
    return kernels.get_backend(kernel="fold", size=nbuckets).name


def _chunked(paths: list[str], nchunks: int) -> list[list[str]]:
    """Split ``paths`` into ``nchunks`` contiguous, near-equal chunks."""
    nchunks = max(min(nchunks, len(paths)), 1)
    size, extra = divmod(len(paths), nchunks)
    chunks, start = [], 0
    for i in range(nchunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(paths[start:end])
        start = end
    return chunks


def tree_reduce(
    paths: Sequence[str],
    jobs: int | None = None,
    salvage: bool = False,
    precheck: bool = True,
    on_incompatible: str = "error",
    cache: HeaderCache | None = None,
    worker_timeout: float | None = None,
    stats_out: dict | None = None,
) -> ProfileData:
    """Merge many gmon files into one ProfileData, possibly in parallel.

    Arguments:
        paths: gmon files, in merge order (use :func:`expand_inputs`
            to turn globs/directories into such a list).
        jobs: worker processes; None picks ``os.cpu_count()``; 1 (or a
            fleet too small to split) merges in-process.
        salvage: read inputs through the salvaging parser; corrupt
            files contribute their recovered prefix plus warnings.
        precheck: peek all headers first and fail (or skip) early.
        on_incompatible: ``"error"`` (default) or ``"skip"``.
        worker_timeout: seconds to wait for each worker's partial
            before declaring it crashed or hung (default
            :data:`DEFAULT_WORKER_TIMEOUT`).  A chunk whose worker
            never answers — killed, ``os._exit``, wedged — is
            re-merged sequentially in-process with a warning on the
            result, so a dying worker can neither hang the merge nor
            lose its chunk.
        stats_out: optional dict to fill with merge telemetry — the
            kernel backend name plus the fleet-wide parse vs fold
            wall-time split (``repro-merge --stats`` surfaces it).
            Passing one turns on timed accumulators everywhere; with
            workers the per-chunk splits ride home on the partials and
            sum, so the split covers the whole fleet.

    Returns data equal to ``merge_profiles([read_gmon(p) for p in
    paths])`` — byte-identical after :func:`~repro.gmon.write_gmon` —
    for every worker count, including runs where workers crashed.
    """
    paths = [os.fspath(p) for p in paths]
    if not paths:
        raise MergeError("cannot merge zero profiles")
    skip_warnings: list[str] = []
    if precheck:
        paths, skip_warnings = precheck_headers(
            paths, cache=cache, on_incompatible=on_incompatible,
            salvage=salvage,
        )
        if not paths:
            raise MergeError(
                "no mergeable profiles left after the header precheck"
            )
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, max(len(paths) // MIN_FILES_PER_WORKER, 1))
    timed = stats_out is not None
    fallback_warnings: list[str] = []
    if jobs <= 1:
        acc = _merge_chunk((paths, salvage, timed, None))
    else:
        import multiprocessing

        # Settle the fold backend before the pool forks, so every
        # worker inherits numpy when the layout calls for it instead of
        # importing it on its own.
        backend = _fold_backend(paths[0])

        if worker_timeout is None:
            worker_timeout = DEFAULT_WORKER_TIMEOUT
        # ~4 chunks per worker keeps the pool busy even when some
        # chunks hit slower storage; results are collected per chunk so
        # one dead worker costs one bounded wait, not a hang.
        chunks = _chunked(paths, jobs * 4)
        partials: list[ProfileAccumulator | None] = [None] * len(chunks)
        failed: list[int] = []
        with multiprocessing.Pool(jobs) as pool:
            pending = [
                pool.apply_async(
                    _merge_chunk, ((c, salvage, timed, backend),)
                )
                for c in chunks
            ]
            for i, res in enumerate(pending):
                try:
                    partials[i] = res.get(worker_timeout)
                except multiprocessing.TimeoutError:
                    # The worker crashed (its task is lost forever) or
                    # is wedged; either way the chunk is re-merged
                    # below and the pool is torn down on context exit
                    # (terminate, bounded), not joined indefinitely.
                    failed.append(i)
        for i in failed:
            fallback_warnings.append(
                f"merge worker for chunk {i + 1}/{len(chunks)} "
                f"({len(chunks[i])} file(s)) did not answer within "
                f"{worker_timeout:g}s (crashed or hung); chunk re-merged "
                "sequentially in-process"
            )
            partials[i] = _merge_chunk((chunks[i], salvage, timed, backend))
        acc = ProfileAccumulator(backend, timed=timed)
        for partial in partials:  # chunk order == input order: deterministic
            acc.merge_from(partial)
    data = acc.result()
    if stats_out is not None:
        stats_out["kernel_backend"] = acc.backend_name
        stats_out.update(acc.timings or {})
    if skip_warnings:
        data.warnings.extend(skip_warnings)
    if fallback_warnings:
        data.warnings.extend(fallback_warnings)
    return data


def merge_paths(
    specs: Sequence[str],
    jobs: int | None = None,
    salvage: bool = False,
    on_incompatible: str = "error",
) -> ProfileData:
    """Convenience front door: expand specs, then :func:`tree_reduce`."""
    return tree_reduce(
        expand_inputs(specs), jobs=jobs, salvage=salvage,
        on_incompatible=on_incompatible,
    )


def write_sum(data: ProfileData, path) -> Path:
    """Write the merged data as ``gmon.sum`` (atomic, like any gmon)."""
    from repro.gmon.format import write_gmon

    write_gmon(data, path)
    return Path(os.fspath(path))
