"""Call-stack sampling for Python programs.

The Python analogue of :mod:`repro.stacks.vm`: a sink for the one
profiling clock (:class:`~repro.pyprof.sampler.Sampler` — SIGPROF on
CPU time, faithful, or a sampler thread on the wall clock, portable)
that walks the interrupted frame's ``f_back`` chain and records the
complete routine chain.  No ``sys.setprofile`` hook is involved at all
— per-call overhead is zero, per-sample cost is one frame walk, and
backing off ``interval`` reduces even that: the modern trade the
retrospective describes.
"""

from __future__ import annotations

from types import FrameType

from repro.pyprof.addresses import describe_code
from repro.pyprof.sampler import Sampler
from repro.pyprof.tracer import is_internal_code
from repro.stacks.profile import StackProfile

#: Frames from these directories are profiler machinery, never samples.
_SKIP = is_internal_code


def capture_stack(frame: FrameType | None, limit: int = 500) -> list[str]:
    """Routine names of the frame chain, root first, internals skipped."""
    names: list[str] = []
    depth = 0
    while frame is not None and depth < limit:
        code = frame.f_code
        if not _SKIP(code):
            names.append(describe_code(code))
        frame = frame.f_back
        depth += 1
    names.reverse()
    return names


class PyStackSampler(Sampler):
    """Samples complete Python call stacks on the profiling clock.

    Arguments:
        interval: sampling period in seconds.
        mode: ``"signal"`` (SIGPROF / CPU time, Unix main thread) or
            ``"thread"`` (wall clock, portable).

    Usable as a context manager::

        with PyStackSampler(interval=0.002) as sampler:
            work()
        tree = analyze_stacks(sampler.profile)
    """

    def __init__(self, interval: float = 0.001, mode: str = "signal"):
        super().__init__(self._record, interval, mode)
        self.profile = StackProfile(profrate=self.profrate)

    def _record(self, frame: FrameType | None) -> None:
        self.profile.record(capture_stack(frame))
