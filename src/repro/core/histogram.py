"""The program-counter sample histogram and self-time apportionment.

§3.2 of the paper: the operating system maintains a histogram of the
program counter observed at every clock tick.  The histogram covers the
address range ``[low_pc, high_pc)`` with equal-width buckets; each bucket
counts the ticks whose PC fell in its range.  "The ranges themselves are
summarized as a lower and upper bound and a step size."

Post-processing turns bucket counts into per-routine *self time*: each
bucket's ticks are divided among the routines overlapping the bucket, in
proportion to the overlap (identical to BSD/GNU gprof's ``asgnsamples``).
When the histogram granularity maps program counters one-to-one onto
buckets — the paper's "expansive" 32-bit configuration — the
apportionment is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.symbols import SymbolTable
from repro.errors import HistogramError

#: Default profiling clock rate: the paper's environment sampled the PC at
#: the end of each 1/60th-of-a-second clock tick.
DEFAULT_PROFRATE = 60


@dataclass
class Histogram:
    """A PC-sample histogram.

    Attributes:
        low_pc: inclusive lower bound of the sampled address range.
        high_pc: exclusive upper bound.
        counts: one counter per bucket; ``len(counts)`` buckets of equal
            width span ``[low_pc, high_pc)``.
        profrate: clock ticks per second of profiled time; converts tick
            counts into seconds.
    """

    low_pc: int
    high_pc: int
    counts: list[int]
    profrate: int = DEFAULT_PROFRATE

    def __post_init__(self) -> None:
        if self.high_pc < self.low_pc:
            raise HistogramError(
                f"high_pc (0x{self.high_pc:x}) below low_pc (0x{self.low_pc:x})"
            )
        if self.profrate <= 0:
            raise HistogramError(f"profrate must be positive, got {self.profrate}")
        if self.high_pc > self.low_pc and not self.counts:
            raise HistogramError("non-empty address range but zero buckets")
        if any(c < 0 for c in self.counts):
            raise HistogramError("negative bucket count")

    # -- geometry -------------------------------------------------------------

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return len(self.counts)

    @property
    def bucket_width(self) -> float:
        """Address units covered by each bucket."""
        if not self.counts:
            return 0.0
        return (self.high_pc - self.low_pc) / len(self.counts)

    @property
    def total_ticks(self) -> int:
        """Total number of PC samples recorded."""
        return sum(self.counts)

    @property
    def total_time(self) -> float:
        """Total sampled time in seconds."""
        return self.total_ticks / self.profrate

    @property
    def seconds_per_tick(self) -> float:
        """Duration represented by one sample."""
        return 1.0 / self.profrate

    def bucket_for(self, pc: int) -> int | None:
        """Index of the bucket covering ``pc``, or None if out of range."""
        if not self.counts or not (self.low_pc <= pc < self.high_pc):
            return None
        width = self.bucket_width
        idx = int((pc - self.low_pc) / width)
        return min(idx, len(self.counts) - 1)

    def record(self, pc: int) -> bool:
        """Record one PC sample; True if it fell inside the range.

        This is the data-gathering side: the simulated kernel clock calls
        it once per tick.
        """
        idx = self.bucket_for(pc)
        if idx is None:
            return False
        self.counts[idx] += 1
        return True

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_range(
        cls,
        low_pc: int,
        high_pc: int,
        scale: float = 1.0,
        profrate: int = DEFAULT_PROFRATE,
    ) -> "Histogram":
        """Create an empty histogram over ``[low_pc, high_pc)``.

        ``scale`` is buckets per address unit: 1.0 gives the one-to-one
        mapping the paper's authors were so pleased to afford; smaller
        values give a coarser (smaller) histogram, as on 16-bit machines.
        """
        if scale <= 0:
            raise HistogramError(f"scale must be positive, got {scale}")
        span = max(high_pc - low_pc, 0)
        buckets = max(int(span * scale), 1) if span else 0
        return cls(low_pc, high_pc, [0] * buckets, profrate)

    def reset(self) -> None:
        """Zero every bucket (the kgmon 'reset' operation)."""
        for i in range(len(self.counts)):
            self.counts[i] = 0

    def copy(self) -> "Histogram":
        """An independent copy (used by kgmon snapshot extraction)."""
        return Histogram(self.low_pc, self.high_pc, list(self.counts), self.profrate)

    def compatible_with(self, other: "Histogram") -> bool:
        """Whether two histograms can be summed bucket-by-bucket."""
        return (
            self.low_pc == other.low_pc
            and self.high_pc == other.high_pc
            and len(self.counts) == len(other.counts)
            and self.profrate == other.profrate
        )

    def ticks_in_range(self, lo: int, hi: int) -> float:
        """Ticks attributable to addresses ``[lo, hi)``.

        Buckets partially overlapping the range contribute fractionally
        (same apportionment rule as :meth:`assign_samples`); with the
        one-to-one bucket configuration the result is exact.  Used by
        the annotated-disassembly listing to charge samples to single
        instructions.
        """
        if not self.counts or hi <= lo:
            return 0.0
        width = self.bucket_width
        nb = len(self.counts)
        first = max(int((lo - self.low_pc) / width) - 1, 0)
        last = min(int((hi - self.low_pc) / width) + 1, nb - 1)
        acc = 0.0
        for idx in range(first, last + 1):
            ticks = self.counts[idx]
            if not ticks:
                continue
            b_lo = self.low_pc + idx * width
            overlap = min(b_lo + width, hi) - max(b_lo, lo)
            if overlap > 0:
                acc += ticks * (overlap / width)
        return acc

    # -- self-time apportionment ------------------------------------------------

    def time_for_symbols(self, symbols: SymbolTable, spans=None) -> dict[str, float]:
        """Charge each bucket's ticks to the routines overlapping it.

        Returns a map from routine name to *self time in seconds*.  Ticks
        in buckets overlapping no known routine are dropped (they landed
        in unprofiled code); callers can compare ``sum(result.values())``
        with :attr:`total_time` to see how much was attributable.

        The bucket/symbol overlap geometry depends only on the layout,
        so it is precomputed as a
        :class:`~repro.core.kernels.spans.SymbolSpans` (memoized per
        symbol table; pass ``spans`` to supply one from elsewhere, e.g.
        the pipeline's analysis cache) and evaluated by the kernel
        backend :func:`~repro.core.kernels.get_backend` picks for this
        many buckets.  Every backend returns bit-identical times —
        see :mod:`repro.core.kernels.spans` for the argument.
        """
        from repro.core import kernels

        if not self.counts:
            return {}
        if spans is None:
            spans = kernels.spans_for(
                symbols, self.low_pc, self.high_pc, len(self.counts)
            )
        return kernels.get_backend(
            kernel="apportion", size=len(self.counts)
        ).apportion(spans, self.counts, self.seconds_per_tick)

    def assign_samples(self, symbols: SymbolTable) -> dict[str, float]:
        """Historical name for :meth:`time_for_symbols`."""
        return self.time_for_symbols(symbols)


def sum_histograms(histograms: Sequence[Histogram]) -> Histogram:
    """Sum several compatible histograms bucket-by-bucket.

    Used when combining the data of several profiled runs (§3: "the
    profile data for several executions of a program can be combined").

    The per-bucket sums accumulate into a single mutable kernel buffer
    (one allocation total, not one list per input) and the result
    Histogram is constructed once at the end.
    """
    if not histograms:
        raise HistogramError("cannot sum zero histograms")
    first = histograms[0]
    for h in histograms[1:]:
        if not first.compatible_with(h):
            raise HistogramError(
                "histograms are incompatible: "
                f"[{first.low_pc:#x},{first.high_pc:#x})x{first.num_buckets}"
                f"@{first.profrate}Hz vs "
                f"[{h.low_pc:#x},{h.high_pc:#x})x{h.num_buckets}@{h.profrate}Hz"
            )
    from repro.core import kernels

    kernel = kernels.get_backend(kernel="fold", size=first.num_buckets)
    acc = kernel.bucket_acc()
    for h in histograms:
        acc.fold_seq(h.counts)
    return Histogram(first.low_pc, first.high_pc, acc.to_list(), first.profrate)
