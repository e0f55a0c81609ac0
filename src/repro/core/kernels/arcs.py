"""Bulk arc accumulation: condensing ``(from_pc, self_pc)`` records.

Every profiled run appends one 20-byte ``<QQI`` record per distinct
call site (§5: the monitoring routine hashes caller/callee pairs); a
fleet merge sums the counts of equal pairs across thousands of runs.
The canonical state is a ``(from_pc, self_pc) -> count`` dict — every
consumer (``result()`` materialization, digests, stats) reads that —
so the backends differ only in how wire blobs reach the dict:

* :class:`ArcTable` — the reference: ``struct.iter_unpack`` and one
  dict update per record.  The ``array`` backend uses it too: a flat
  ``struct.unpack`` over step-sliced columns ran 0.8x the reference
  on the blob size of every canned program (10 records) and gained
  only about 1.1x on blobs of 800 records or more.
* :class:`NumpyArcTable` — *deferred* condensing: blobs are stacked as
  structured-array views and condensed when the table is read or
  :data:`FLUSH_RECORDS` records are pending — one sort +
  ``add.reduceat`` per flush groups every record of every pending blob
  at C speed (a single u64-key sort when both PCs fit 32 bits, a
  two-key lexsort otherwise).  Counts are summed in u64 (exact: reaching
  2**64 would need 2**32 pending records ≈ 80 GiB of blob) and enter
  the dict as python ints, so cross-flush totals are unbounded and
  identical to the reference.

Addition of non-negative integers is commutative and exact, so both
orders of summation produce the same table.
"""

from __future__ import annotations

import struct

#: Wire shape of one arc record (kept in sync with repro.gmon.format;
#: duplicated here so the kernels stay importable below the gmon layer).
_ARC = struct.Struct("<QQI")

#: Pending records at which :class:`NumpyArcTable` condenses (5 MiB of
#: blob).  Without a bound, a long merge would hold every input's arc
#: blob until the table is read.
FLUSH_RECORDS = 1 << 18


class ArcTable:
    """Reference arc table: per-record dict updates."""

    backend = "python"

    def __init__(self) -> None:
        self._d: dict[tuple[int, int], int] = {}

    # -- feeding ----------------------------------------------------------

    def fold_blob(self, blob: bytes) -> "ArcTable":
        """Add every ``<QQI`` record of a packed arc blob."""
        d = self._d
        get = d.get
        for from_pc, self_pc, count in _ARC.iter_unpack(blob):
            k = (from_pc, self_pc)
            d[k] = get(k, 0) + count
        return self

    def fold_items(self, items) -> "ArcTable":
        """Add ``(from_pc, self_pc, count)`` triples."""
        d = self._d
        get = d.get
        for from_pc, self_pc, count in items:
            k = (from_pc, self_pc)
            d[k] = get(k, 0) + count
        return self

    # -- results ----------------------------------------------------------

    def as_dict(self) -> dict[tuple[int, int], int]:
        """The condensed table itself; treat as read-only."""
        return self._d

    def sorted_items(self):
        """``((from_pc, self_pc), count)`` pairs in ascending key order."""
        return sorted(self.as_dict().items())

    def __len__(self) -> int:
        return len(self.as_dict())

    def total_count(self) -> int:
        """Sum of all traversal counts."""
        return sum(self.as_dict().values())


class NumpyArcTable(ArcTable):
    """Numpy fast path: stack blobs, condense on read."""

    backend = "numpy"

    def __init__(self) -> None:
        super().__init__()
        self._pending: list = []  # structured-array views, not yet condensed
        self._npending = 0  # records across self._pending

    def fold_blob(self, blob: bytes) -> "NumpyArcTable":
        if blob:
            import numpy as np

            rec = np.frombuffer(
                blob, dtype=np.dtype([("f", "<u8"), ("s", "<u8"), ("c", "<u4")])
            )
            self._pending.append(rec)
            self._npending += len(rec)
            if self._npending >= FLUSH_RECORDS:
                self._flush()
        return self

    def _flush(self) -> None:
        if not self._pending:
            return
        import numpy as np

        rec = (
            self._pending[0]
            if len(self._pending) == 1
            else np.concatenate(self._pending)
        )
        self._pending = []
        self._npending = 0
        f, s = rec["f"], rec["s"]
        if int(f.max()) < 1 << 32 and int(s.max()) < 1 << 32:
            # PCs fit 32 bits (every VM image here, and most real ones):
            # pack the pair into one u64 so grouping needs a single-key
            # sort instead of a two-key lexsort — ~4x faster, and the
            # sums are unchanged (integer addition is commutative).
            key = (f << np.uint64(32)) | s
            order = np.argsort(key)
            ks = key[order]
            c = rec["c"][order].astype(np.uint64)
            starts = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))
            )
            sums = np.add.reduceat(c, starts)
            uk = ks[starts]
            froms = (uk >> np.uint64(32)).tolist()
            selfs = (uk & np.uint64(0xFFFFFFFF)).tolist()
        else:
            order = np.lexsort((s, f))
            fo = f[order]
            so = s[order]
            c = rec["c"][order].astype(np.uint64)
            starts = np.flatnonzero(
                np.concatenate(
                    ([True], (fo[1:] != fo[:-1]) | (so[1:] != so[:-1]))
                )
            )
            sums = np.add.reduceat(c, starts)
            froms = fo[starts].tolist()
            selfs = so[starts].tolist()
        d = self._d
        get = d.get
        for k, count in zip(zip(froms, selfs), sums.tolist()):
            d[k] = get(k, 0) + count
        return

    def as_dict(self) -> dict[tuple[int, int], int]:
        self._flush()
        return self._d
