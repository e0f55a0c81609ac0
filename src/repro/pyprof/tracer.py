"""Arc collection (and optional exact timing) for Python programs.

This is the Python incarnation of the monitoring routine: where the VM
plants ``MCOUNT`` in routine prologues, CPython gives us the same hook
for free — ``sys.setprofile`` delivers a ``call`` event at every routine
entry, with the caller's frame (and its current bytecode offset — the
call site) one link up the frame chain.  §3.1's data falls out directly:

* the callee is ``frame.f_code`` → its entry address;
* the call site is ``(frame.f_back.f_code, frame.f_back.f_lasti)``;
* calls whose caller is unknown (no ``f_back``, or a frame that was
  already live when profiling was enabled) are "spontaneous".

The same callback can also do *exact* timing (the paper's other method:
"measures the elapsed time from routine entry to routine exit") by
keeping a shadow stack and charging inter-event time to its top.  The
statistical alternative is :class:`repro.pyprof.sampler.Sampler`.
"""

from __future__ import annotations

import functools
import os
import time
from types import CodeType, FrameType

from repro.machine.mcount import ArcTable
from repro.pyprof.addresses import (
    AddressSpace,
    describe_builtin,
    describe_code,
)

#: Files whose frames are the profiler's own machinery; events from them
#: are ignored so the profiler does not profile itself.
_INTERNAL_DIR = os.path.dirname(os.path.abspath(__file__))

#: Synthetic routine charged with time spent when the shadow stack is
#: empty (above the frame that enabled profiling).
TOPLEVEL = "<toplevel>"


@functools.lru_cache(maxsize=None)
def _module_of(code: CodeType) -> str:
    return os.path.basename(code.co_filename)


@functools.lru_cache(maxsize=None)
def is_internal_code(code: CodeType) -> bool:
    """Whether a code object belongs to the profiler's own machinery.

    Cached per code object: this test runs on every profile event and
    every PC sample, so it must not touch the filesystem path routines
    each time (their cost would drown small workloads and skew samples).
    """
    return os.path.dirname(os.path.abspath(code.co_filename)) == _INTERNAL_DIR


class TraceCollector:
    """The ``sys.setprofile`` callback: arcs always, exact time optionally.

    Arguments:
        space: the synthetic address space (shared with any sampler).
        measure_time: when True, run the exact timer; when False the
            callback only records arcs (a sampler provides the time).
        clock: the time source for the exact timer (injectable for
            deterministic tests).
    """

    def __init__(
        self,
        space: AddressSpace,
        measure_time: bool = True,
        clock=time.perf_counter,
    ):
        self.space = space
        self.arc_table = ArcTable()
        self.measure_time = measure_time
        self._clock = clock
        self._stack: list[int] = []  # entry addresses of live routines
        self._self_seconds: dict[int, float] = {}
        self._last: float | None = None
        self._toplevel = space.entry(TOPLEVEL, TOPLEVEL)
        # Per-code and per-site caches: the callback runs on every event.
        self._entry_cache: dict[CodeType, int] = {}
        self._site_cache: dict[tuple[CodeType, int], int] = {}

    # -- lifecycle ---------------------------------------------------------------

    def prime(self, frame: FrameType | None) -> None:
        """Seed the shadow stack with frames already live at enable time.

        Their entries get no arcs (their prologues ran before profiling
        started — same as routines compiled without the monitoring hook)
        but their ``return`` events must pop cleanly and their ongoing
        execution must be billed to them.
        """
        chain: list[FrameType] = []
        while frame is not None:
            if not self._is_internal(frame.f_code):
                chain.append(frame)
            frame = frame.f_back
        for f in reversed(chain):
            self._stack.append(self._code_entry(f.f_code))
        self._last = self._clock()

    def finish(self) -> None:
        """Charge any trailing interval; called at disable time."""
        if self.measure_time:
            self._charge()

    # -- event handling -------------------------------------------------------------

    def callback(self, frame: FrameType, event: str, arg) -> None:
        """The function installed via ``sys.setprofile``."""
        if event == "call":
            code = frame.f_code
            if self._is_internal(code):
                return
            if self.measure_time:
                self._charge()
            self._record_arc(frame.f_back, self._code_entry(code))
            self._stack.append(self._code_entry(code))
        elif event == "return":
            if self._is_internal(frame.f_code):
                return
            if self.measure_time:
                self._charge()
            if self._stack:
                self._stack.pop()
        elif event == "c_call":
            if self._is_internal(frame.f_code):
                return
            if self.measure_time:
                self._charge()
            entry = self._builtin_entry(arg)
            self._record_c_arc(frame, entry)
            self._stack.append(entry)
        elif event in ("c_return", "c_exception"):
            if self._is_internal(frame.f_code):
                return
            if self.measure_time:
                self._charge()
            if self._stack:
                self._stack.pop()

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _is_internal(code: CodeType) -> bool:
        return is_internal_code(code)

    def _code_entry(self, code: CodeType) -> int:
        entry = self._entry_cache.get(code)
        if entry is None:
            entry = self.space.entry(code, describe_code(code), _module_of(code))
            self._entry_cache[code] = entry
        return entry

    def _builtin_entry(self, func) -> int:
        # Key builtins by their description, not identity: the bound
        # method objects of two different lists are distinct, but
        # "<list.append>" is one routine as far as a profile is
        # concerned (just as one C function serves every list).
        name = describe_builtin(func)
        return self.space.entry(("builtin", name), name, "<builtin>")

    def _site(self, code: CodeType, lasti: int) -> int:
        key = (code, lasti)
        site = self._site_cache.get(key)
        if site is None:
            site = self.space.call_site(
                code, describe_code(code), lasti, _module_of(code)
            )
            self._site_cache[key] = site
        return site

    def _record_arc(self, caller: FrameType | None, self_pc: int) -> None:
        if caller is None or self._is_internal(caller.f_code):
            self.arc_table.record(None, self_pc)
            return
        self.arc_table.record(self._site(caller.f_code, caller.f_lasti), self_pc)

    def _record_c_arc(self, caller: FrameType, self_pc: int) -> None:
        self.arc_table.record(self._site(caller.f_code, caller.f_lasti), self_pc)

    def _charge(self) -> None:
        now = self._clock()
        if self._last is not None:
            owner = self._stack[-1] if self._stack else self._toplevel
            self._self_seconds[owner] = (
                self._self_seconds.get(owner, 0.0) + (now - self._last)
            )
        self._last = now

    # -- results -----------------------------------------------------------------------

    @property
    def self_seconds(self) -> dict[int, float]:
        """Exact self seconds per routine entry address (exact mode)."""
        return dict(self._self_seconds)
