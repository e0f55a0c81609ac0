"""The stage contract, its runner and its trace: repro profiling itself.

Both ordered step sequences in repro — the §4 analysis stages
(:mod:`repro.pipeline.stages`) and the Rel compiler passes
(:mod:`repro.lang.passes`) — are :class:`Stage` objects run by
:func:`run_stages`.  A stage declares the facts it ``requires`` and
``provides``; the runner refuses a stage whose requirements no earlier
stage provided, times each one, and returns one :class:`StageTrace`
per stage — wall time, integer counters describing the work done
(arcs symbolized, cycles found, sites inlined, ...), and, in the
analysis pipeline, whether the stage was answered from the analysis
cache instead of recomputed.

Every run of the analysis pipeline can carry a :class:`PipelineTrace`
collecting those records.

Two renderings exist:

* :meth:`PipelineTrace.render_text` — the ``repro-gprof --timings``
  table, a human-facing per-stage breakdown;
* :meth:`PipelineTrace.render_json` — a structured dump for tooling.
  It is deterministic *modulo the timing fields*: strip every
  ``seconds`` value (:meth:`PipelineTrace.stable_dict`) and two runs
  over the same inputs compare equal, which is exactly what the trace
  tests assert.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import ReproError

FORMAT = "repro-pipeline-trace-1"


@dataclass
class StageTrace:
    """One stage's footprint in a pipeline run.

    Attributes:
        name: the stage's registered name (``symbolize``, ``inline``, ...).
        seconds: wall-clock time spent inside the stage; 0.0 when the
            stage was served from the cache.
        counters: integer facts about the work done, keyed by a stable
            counter name.  Cached stages replay the counters recorded
            when the value was first computed.
        cached: True when the stage's output came from the analysis
            cache rather than being recomputed.
        backend: the :mod:`repro.core.kernels` backend that served the
            stage's arithmetic (``"numpy"``, ``"array"``, ``"python"``),
            or ``""`` for stages with no kernel involvement.
    """

    name: str
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    cached: bool = False
    backend: str = ""

    def to_dict(self) -> dict:
        """JSON-serializable form with deterministically-ordered counters."""
        d = {
            "name": self.name,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }
        if self.backend:
            d["backend"] = self.backend
        return d


class Stage:
    """One named step over a shared state blackboard.

    Subclasses set ``name``/``requires``/``provides`` and implement
    :meth:`run`, which reads its inputs off the state, writes its
    outputs back, and describes the work done in ``counters`` (integer
    values only — they feed the deterministic JSON trace).
    """

    name: str = "?"
    #: Facts earlier stages must have provided (state fields, for the
    #: analysis stages).
    requires: tuple[str, ...] = ()
    #: Facts this stage establishes.
    provides: tuple[str, ...] = ()

    def run(self, state, counters: dict[str, int]) -> None:
        raise NotImplementedError  # pragma: no cover - interface

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Stage {self.name}>"


def run_stages(
    stages, state, provided: set[str] | None = None, error=ReproError
) -> list[StageTrace]:
    """Run ``stages`` in order over ``state``; one :class:`StageTrace` each.

    ``provided`` holds the facts already established (it is updated in
    place, so a caller can run a pipeline in several calls); a stage
    whose ``requires`` is not covered is a pipeline construction bug
    and raises ``error``.  Counters start at zero for any key.  A
    state with a ``backends`` dict names the kernel backend each stage
    used, by stage name.
    """
    if provided is None:
        provided = set()
    backends = getattr(state, "backends", {})
    records = []
    for stage in stages:
        missing = [req for req in stage.requires if req not in provided]
        if missing:
            raise error(
                f"stage {stage.name!r} requires {missing} but the pipeline "
                f"only provides {sorted(provided)}"
            )
        counters: dict[str, int] = defaultdict(int)
        start = time.perf_counter()
        stage.run(state, counters)
        seconds = time.perf_counter() - start
        provided.update(stage.provides)
        records.append(
            StageTrace(
                stage.name, seconds, dict(counters),
                backend=backends.get(stage.name, ""),
            )
        )
    return records


@dataclass
class PipelineTrace:
    """The complete instrumentation record of one pipeline run."""

    stages: list[StageTrace] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def stage(self, name: str) -> StageTrace | None:
        """The record for stage ``name``, or None if it never ran."""
        for s in self.stages:
            if s.name == name:
                return s
        return None

    def stage_names(self) -> list[str]:
        """Stage names in execution order."""
        return [s.name for s in self.stages]

    @property
    def total_seconds(self) -> float:
        """Wall time summed over all (non-cached) stages."""
        return sum(s.seconds for s in self.stages)

    def to_dict(self) -> dict:
        """JSON-serializable trace, timing fields included."""
        return {
            "format": FORMAT,
            "total_seconds": round(self.total_seconds, 6),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "stages": [s.to_dict() for s in self.stages],
        }

    def stable_dict(self) -> dict:
        """:meth:`to_dict` with every timing field stripped.

        Two runs of the pipeline over the same inputs produce equal
        stable dicts — the determinism contract the trace tests gate.
        """
        d = self.to_dict()
        d.pop("total_seconds")
        for s in d["stages"]:
            s.pop("seconds")
        return d

    def render_json(self) -> str:
        """Deterministic JSON (sorted keys; timing fields still present)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        """The ``--timings`` table: one line per stage, widest first column."""
        lines = [
            f"pipeline timings ({self.total_seconds * 1000:.1f} ms total, "
            f"cache {self.cache_hits} hit(s) / {self.cache_misses} miss(es)):"
        ]
        width = max((len(s.name) for s in self.stages), default=0)
        for s in self.stages:
            counters = " ".join(
                f"{k}={s.counters[k]}" for k in sorted(s.counters)
            )
            mark = "  [cached]" if s.cached else ""
            if s.backend:
                mark += f"  [{s.backend}]"
            lines.append(
                f"  {s.name:<{width}}  {s.seconds * 1000:8.2f} ms"
                f"{mark}  {counters}".rstrip()
            )
        return "\n".join(lines) + "\n"
