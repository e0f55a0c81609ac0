"""Statistical PC sampling for Python programs (§3.2).

The paper's preferred method "samples the value of the program counter
at some interval, and infers execution time from the distribution of
the samples".  :class:`Sampler` is the one profiling clock; it hands
the frame executing at each tick to a sink, in one of two modes:

* ``"signal"`` — the faithful one: ``setitimer(ITIMER_PROF)`` delivers
  SIGPROF as *CPU time* elapses, exactly like the original kernel's
  clock-tick histogram ("alarm clock interrupts that run relative to
  program time").  Main-thread, Unix only.
* ``"thread"`` — a portable fallback: a daemon thread wakes every
  ``interval`` wall-clock seconds and samples the target thread's
  current frame via ``sys._current_frames()``.

There are two sinks.  :meth:`SampleStore.sample_frame` charges the tick
to the code object executing at the tick, at an address inside that
routine's block, accumulating the histogram the post-processor expects
(:class:`~repro.pyprof.profiler.Profiler`).
:class:`~repro.stacks.pysampler.PyStackSampler` records the complete
call stack instead.  Samples are counted, never traced — keeping
run-time cost per tick tiny, as §3.2 demands.
"""

from __future__ import annotations

import signal
import sys
import threading
from collections import Counter
from types import FrameType

from repro.errors import ProfilerError
from repro.pyprof.addresses import AddressSpace, describe_code
from repro.pyprof.tracer import _module_of, is_internal_code


class SampleStore:
    """Tick counts per synthetic address, shared by the samplers.

    With ``record_lines=True`` each sample is additionally charged to
    its ``(filename, line number)`` — the raw material of annotated
    source listings (:mod:`repro.pyprof.annotate`).
    """

    def __init__(self, space: AddressSpace, record_lines: bool = False):
        self.space = space
        self.ticks: Counter[int] = Counter()
        self.record_lines = record_lines
        self.line_ticks: Counter[tuple[str, int]] = Counter()

    def sample_frame(self, frame: FrameType | None) -> None:
        """Record one tick against the routine executing in ``frame``.

        Ticks landing inside the profiler's own machinery (the arc
        callback, this handler) are charged to the nearest profiled
        caller instead — the kernel never billed its histogram code to
        the program either.
        """
        while frame is not None and is_internal_code(frame.f_code):
            frame = frame.f_back
        if frame is None:
            return
        code = frame.f_code
        pc = self.space.call_site(
            code, describe_code(code), frame.f_lasti, _module_of(code)
        )
        self.ticks[pc] += 1
        if self.record_lines:
            self.line_ticks[(code.co_filename, frame.f_lineno)] += 1


class Sampler:
    """The profiling clock: one frame per tick, handed to ``on_sample``.

    Arguments:
        on_sample: the sink, called with the frame executing at each
            tick (possibly None).
        interval: profiling clock period in seconds.  1/60 s is the
            paper's clock; modern machines afford far finer.
        mode: ``"signal"`` (SIGPROF, CPU time) or ``"thread"`` (wall
            clock).  Wall-clock ticks also land while the target is
            blocked — closer to elapsed-time profiling, which the paper
            notes "is complicated on time-sharing systems"; prefer
            ``"signal"`` when available.

    The thread mode samples whichever thread called :meth:`start`.
    Usable as a context manager.
    """

    def __init__(self, on_sample, interval: float = 0.001, mode: str = "signal"):
        if interval <= 0:
            raise ProfilerError(f"interval must be positive, got {interval}")
        if mode not in ("signal", "thread"):
            raise ProfilerError(f"unknown mode {mode!r}")
        self.on_sample = on_sample
        self.interval = interval
        self.mode = mode
        self._previous_handler = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._target_id: int | None = None
        self.active = False

    def start(self) -> None:
        """Arm the clock: SIGPROF itimer or sampling thread."""
        if self.active:
            raise ProfilerError("sampler is already active")
        if self.mode == "signal":
            if threading.current_thread() is not threading.main_thread():
                raise ProfilerError("signal mode must start on the main thread")
            self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        else:
            self._target_id = threading.get_ident()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run_thread, name="repro-sampler", daemon=True
            )
            self._thread.start()
        self.active = True

    def stop(self) -> None:
        """Disarm the clock and restore the previous handler (idempotent)."""
        if not self.active:
            return
        if self.mode == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler or signal.SIG_DFL)
        else:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.active = False

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _on_signal(self, signum, frame: FrameType | None) -> None:
        self.on_sample(frame)

    def _run_thread(self) -> None:
        while not self._stop.wait(self.interval):
            self.on_sample(sys._current_frames().get(self._target_id))

    @property
    def profrate(self) -> int:
        """Nominal ticks per second."""
        return max(round(1.0 / self.interval), 1)
