"""The Python profiler façade: gather arcs + time, emit ProfileData.

Usage::

    from repro.pyprof import Profiler

    with Profiler() as p:          # exact timing (deterministic)
        work()
    data = p.profile_data()        # a gmon-compatible ProfileData
    symbols = p.symbol_table()

    with Profiler(mode="signal", interval=0.002) as p:   # SIGPROF sampling
        work()

Three modes, mirroring §3.2's two methods of gathering execution times:

* ``"exact"`` (default) — measure elapsed time from routine entry to
  exit via the profile events themselves.  Deterministic, but pays a
  clock read per event.
* ``"signal"`` — statistical CPU-time sampling via SIGPROF, the
  faithful analogue of the kernel's clock-tick histogram (Unix only,
  main thread only).
* ``"thread"`` — portable wall-clock sampling from a daemon thread.

Both sampling modes run the one profiling clock,
:class:`~repro.pyprof.sampler.Sampler`, with
:meth:`~repro.pyprof.sampler.SampleStore.sample_frame` as its sink.

All modes record call graph arcs through the same monitoring-routine
hash table as the VM (:class:`repro.machine.mcount.ArcTable`).
"""

from __future__ import annotations

import sys
import time

from repro.core.histogram import Histogram
from repro.core.profiledata import ProfileData
from repro.core.symbols import SymbolTable
from repro.errors import ProfilerError
from repro.pyprof.addresses import FUNC_SIZE, AddressSpace
from repro.pyprof.sampler import Sampler, SampleStore
from repro.pyprof.tracer import TraceCollector

#: In exact mode, one histogram tick is one microsecond of self time.
EXACT_PROFRATE = 1_000_000

MODES = ("exact", "signal", "thread")


class Profiler:
    """Collects gprof-style profile data from running Python code.

    Arguments:
        mode: ``"exact"``, ``"signal"``, or ``"thread"`` (see module
            docstring).
        interval: sampling period in seconds (sampling modes only).
        clock: time source for exact mode (injectable for tests).
        comment: provenance string stored in the profile data.
    """

    def __init__(
        self,
        mode: str = "exact",
        interval: float = 0.001,
        clock=time.perf_counter,
        comment: str = "",
        record_lines: bool = False,
    ):
        if mode not in MODES:
            raise ProfilerError(f"unknown mode {mode!r}; pick one of {MODES}")
        if record_lines and mode == "exact":
            raise ProfilerError("line recording needs a sampling mode")
        self.mode = mode
        self.interval = interval
        self.comment = comment
        self.space = AddressSpace()
        self.collector = TraceCollector(
            self.space, measure_time=(mode == "exact"), clock=clock
        )
        self._store = SampleStore(self.space, record_lines=record_lines)
        self._sampler = (
            None
            if mode == "exact"
            else Sampler(self._store.sample_frame, interval, mode)
        )
        self._enabled = False
        self._ever_enabled = False

    # -- lifecycle ------------------------------------------------------------------

    def enable(self) -> None:
        """Start gathering; routines already on the stack are primed."""
        if self._enabled:
            raise ProfilerError("profiler is already enabled")
        if self._sampler is not None:
            self._sampler.start()
        self._enabled = True
        self._ever_enabled = True
        self.collector.prime(sys._getframe().f_back)
        sys.setprofile(self.collector.callback)

    def disable(self) -> None:
        """Stop gathering (idempotent)."""
        if not self._enabled:
            return
        sys.setprofile(None)
        if self._sampler is not None:
            self._sampler.stop()
        self.collector.finish()
        self._enabled = False

    def __enter__(self) -> "Profiler":
        self.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self.disable()

    # -- results ---------------------------------------------------------------------

    def symbol_table(self) -> SymbolTable:
        """Symbols for every routine observed so far."""
        return self.space.symbol_table()

    @property
    def line_ticks(self):
        """Per-(filename, line) sample counts (``record_lines`` modes)."""
        return self._store.line_ticks

    def profile_data(self) -> ProfileData:
        """Condense gathered arcs and time into gmon-compatible data.

        Call after :meth:`disable` (or outside the ``with`` block).
        """
        if self._enabled:
            raise ProfilerError("disable the profiler before extracting data")
        if not self._ever_enabled:
            raise ProfilerError("profiler was never enabled")
        high = self.space.high_pc
        profrate = (
            EXACT_PROFRATE if self._sampler is None else self._sampler.profrate
        )
        hist = Histogram.for_range(0, high, scale=1.0 / FUNC_SIZE, profrate=profrate)
        if self._sampler is None:
            tick_source = {
                addr: round(seconds * EXACT_PROFRATE)
                for addr, seconds in self.collector.self_seconds.items()
            }
        else:
            tick_source = dict(self._store.ticks)
        for addr, ticks in tick_source.items():
            bucket = hist.bucket_for(addr)
            if bucket is not None and ticks > 0:
                hist.counts[bucket] += ticks
        return ProfileData(
            hist, self.collector.arc_table.arcs(), comment=self.comment
        )


def profile_call(func, *args, mode: str = "exact", interval: float = 0.001, **kwargs):
    """Profile one call: returns ``(result, profile_data, symbol_table)``."""
    profiler = Profiler(mode=mode, interval=interval, comment=getattr(func, "__name__", ""))
    with profiler:
        result = func(*args, **kwargs)
    return result, profiler.profile_data(), profiler.symbol_table()
