"""ProfileAccumulator: the streaming heart of fleet-scale merging.

The paper's multi-run accumulation ("the profile data for several
executions of a program can be combined by the post-processing") was a
handful of ``gmon.out`` files on one disk.  At fleet scale it is
thousands of files per program, and the shape of the old code — parse
every file into ``Histogram``/``RawArc`` objects, then fold pairs of
:class:`~repro.core.profiledata.ProfileData` — pays for object
construction and re-condensing over and over.

The accumulator keeps exactly one bucket accumulator and one
``(from_pc, self_pc) -> count`` table for the whole merge — both are
:mod:`repro.core.kernels` objects, so the per-input arithmetic runs on
the selected backend (python reference / stdlib array / numpy) — and
adds each input into them:

* ``add(path)`` parses the file in wire form
  (:func:`repro.gmon.parse_gmon_raw`) and sums straight out of the
  packed bytes — no ``RawArc``/``Histogram``/``ProfileData`` objects,
  and with the fast backends not even per-bucket ints, are ever built
  for the input;
* ``add(profile)`` accepts an already-materialized
  :class:`~repro.core.profiledata.ProfileData` (e.g. a salvaged one);
* ``merge_from(other)`` combines two partial accumulators, which is
  what the tree-reduction driver (:mod:`repro.fleet.reduce`) does with
  the partial sums coming back from worker processes.  Partials from
  different backends combine through the canonical representations.

``result()`` materializes a ProfileData that is *equal to* — and after
:func:`~repro.gmon.write_gmon`, *byte-identical to* — what
``merge_profiles([read_gmon(p) for p in paths])`` would have produced
for the same inputs in the same order, **for every kernel backend**.
That equivalence is the merge-algebra contract the property suites
(``test_merge_properties``, ``test_kernels_equivalence``) pin down.

Incompatible inputs raise a structured
:class:`~repro.errors.MergeError` carrying the offending path and both
header layouts.  An accumulator that was never fed anything raises the
same ``"cannot merge zero profiles"`` error the legacy API raised for
an empty sequence — the empty accumulator is the merge identity, not a
profile.

``ProfileAccumulator(timed=True)`` additionally splits wall time into
parse vs fold (``repro-merge --stats`` surfaces the split); the
timings ride along through ``merge_from`` so the tree reduction can
report fleet-wide throughput per phase.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Union

from repro.core import kernels
from repro.core.arcs import RawArc
from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.errors import MergeError
from repro.gmon.format import RawGmon, RUNS_ZERO_WARNING, parse_gmon_raw

from repro.fleet.headers import HeaderKey

Addable = Union[ProfileData, RawGmon, str, os.PathLike, bytes]


def _new_timings() -> dict:
    return {"parse_seconds": 0.0, "fold_seconds": 0.0, "inputs": 0,
            "bytes": 0}


class ProfileAccumulator:
    """An incremental, single-table sum of many profiles.

    Attributes:
        key: the :class:`~repro.fleet.headers.HeaderKey` every input
            must match (established by the first input; None while
            empty).
        runs: total executions summed so far.
        profiles_added: number of inputs accumulated (merging another
            accumulator adds its count).
        timings: parse/fold wall-time split when constructed with
            ``timed=True``, else None.
    """

    def __init__(self, backend: str | None = None, *,
                 timed: bool = False) -> None:
        self._backend = backend
        self._use(kernels.get_backend(backend))
        self.key: HeaderKey | None = None
        self.runs = 0
        self.profiles_added = 0
        self._comments: list[str] = []
        self._warnings: list[str] = []
        self.timings: dict | None = _new_timings() if timed else None

    def _use(self, kernel: kernels.Backend) -> None:
        self._kernel = kernel
        self._buckets = kernel.bucket_acc()
        self._arcs = kernel.arc_table()

    @property
    def backend_name(self) -> str:
        """Name of the kernel backend serving this accumulator.

        Under ``auto`` the fold backend follows the layout's bucket
        count, so it is settled by the first input.
        """
        return self._kernel.name

    # -- feeding ---------------------------------------------------------------

    def add(self, item: Addable, source: str | None = None) -> "ProfileAccumulator":
        """Accumulate one input; returns self for chaining.

        ``item`` may be a filesystem path (parsed strictly in wire
        form), raw gmon bytes, a :class:`RawGmon`, or a
        :class:`ProfileData`.  ``source`` labels the input in any
        :class:`MergeError` raised (defaults to the path when one is
        given).
        """
        if isinstance(item, ProfileData):
            return self.add_profile(item, source)
        if isinstance(item, RawGmon):
            return self.add_raw(item, source)
        if isinstance(item, bytes):
            blob = item
        else:
            path = os.fspath(item)
            source = source or str(path)
            with open(path, "rb") as f:
                blob = f.read()
        if self.timings is None:
            return self.add_raw(parse_gmon_raw(blob), source)
        t0 = time.perf_counter()
        raw = parse_gmon_raw(blob)
        self.timings["parse_seconds"] += time.perf_counter() - t0
        self.timings["bytes"] += len(blob)
        return self.add_raw(raw, source)

    def add_raw(self, raw: RawGmon, source: str | None = None) -> "ProfileAccumulator":
        """Accumulate a wire-form profile (the fast path).

        The bucket and arc blobs go straight into the kernel
        accumulators — neither is ever decoded into python objects
        here.
        """
        key = HeaderKey(raw.low_pc, raw.high_pc, raw.nbuckets, raw.profrate)
        self._accept_key(key, source)
        t0 = time.perf_counter() if self.timings is not None else 0.0
        blob = raw.counts_blob
        if blob is not None:
            if raw.nbuckets:
                self._buckets.fold_blob(blob)
        elif raw.counts:
            self._buckets.fold_seq(raw.counts)
        self._arcs.fold_blob(raw.arc_blob)
        if self.timings is not None:
            self.timings["fold_seconds"] += time.perf_counter() - t0
            self.timings["inputs"] += 1
        # Mirror read_gmon's handling of the runs field exactly, so the
        # result is indistinguishable from the parse-then-merge path.
        if raw.runs == 0:
            self._warnings.append(RUNS_ZERO_WARNING)
        self.runs += max(raw.runs, 1)
        if raw.comment:
            self._comments.append(raw.comment)
        self.profiles_added += 1
        return self

    def add_profile(
        self, data: ProfileData, source: str | None = None
    ) -> "ProfileAccumulator":
        """Accumulate a materialized ProfileData (never mutated).

        A salvaged profile's ``warnings`` ride along into the merged
        result — degraded inputs stay visibly degraded.
        """
        h = data.histogram
        key = HeaderKey(h.low_pc, h.high_pc, h.num_buckets, h.profrate)
        self._accept_key(key, source)
        if h.counts:
            self._buckets.fold_seq(h.counts)
        self._arcs.fold_items(
            (a.from_pc, a.self_pc, a.count) for a in data.arcs
        )
        self.runs += data.runs
        if data.comment:
            self._comments.append(data.comment)
        self._warnings.extend(data.warnings)
        self.profiles_added += 1
        return self

    def add_all(
        self, items: Iterable[Addable]
    ) -> "ProfileAccumulator":
        """Accumulate every item of an iterable, in order."""
        for item in items:
            self.add(item)
        return self

    def add_warning(self, warning: str) -> "ProfileAccumulator":
        """Attach a degradation warning to the eventual result.

        The ingest service uses this to restore warnings recorded in a
        journal or checkpoint — evidence that must survive a recovery
        even though the gmon wire format does not carry it.
        """
        self._warnings.append(warning)
        return self

    def merge_from(self, other: "ProfileAccumulator") -> "ProfileAccumulator":
        """Fold another (partial) accumulator into this one.

        Order matters only for the comment/warning concatenation: the
        tree-reduction driver always folds partials in input order, so
        any worker count yields identical output.  The partials need
        not share a kernel backend — folding goes through the
        canonical list/dict forms, which every backend produces
        exactly.
        """
        if other.key is None:
            return self
        self._accept_key(other.key, None)
        self._buckets.fold(other._buckets)
        self._arcs.fold(other._arcs)
        self.runs += other.runs
        self._comments.extend(other._comments)
        self._warnings.extend(other._warnings)
        self.profiles_added += other.profiles_added
        if self.timings is not None and other.timings is not None:
            for k, v in other.timings.items():
                self.timings[k] = self.timings.get(k, 0) + v
        return self

    def _accept_key(self, key: HeaderKey, source: str | None) -> None:
        if self.key is None:
            self.key = key
            kernel = kernels.get_backend(
                self._backend, kernel="fold", size=key.nbuckets
            )
            self._use(kernel)
        elif self.key != key:
            raise MergeError(
                f"histogram layout {key.describe()} is incompatible with "
                f"the accumulated layout {self.key.describe()}",
                path=source,
                expected=self.key,
                actual=key,
            )

    # -- results ---------------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True while nothing has been accumulated."""
        return self.key is None

    @property
    def total_ticks(self) -> int:
        """Total PC samples accumulated so far."""
        return self._buckets.total()

    @property
    def distinct_arcs(self) -> int:
        """Distinct (from_pc, self_pc) pairs seen so far."""
        return len(self._arcs)

    def result(self) -> ProfileData:
        """Materialize the merged ProfileData (condensed, sorted arcs)."""
        if self.key is None:
            raise MergeError("cannot merge zero profiles")
        histogram = Histogram(
            self.key.low_pc, self.key.high_pc, self._buckets.to_list(),
            self.key.profrate,
        )
        return ProfileData(
            histogram,
            [RawArc(f, s, c) for (f, s), c in self._arcs.sorted_items()],
            runs=self.runs,
            comment="; ".join(self._comments),
            warnings=list(self._warnings),
        )


def empty_profile_like(data: ProfileData) -> ProfileData:
    """The merge identity for ``data``'s histogram layout.

    Same bounds, bucket count and clock rate, but zero samples, zero
    arcs, zero runs and no comment: ``merge_profiles([p, e])`` equals
    ``merge_profiles([p])`` for every ``p`` sharing the layout.
    """
    h = data.histogram
    return ProfileData(
        Histogram(h.low_pc, h.high_pc, [0] * h.num_buckets, h.profrate),
        [],
        runs=0,
        comment="",
    )
