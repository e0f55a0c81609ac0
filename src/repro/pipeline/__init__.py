"""repro.pipeline — the staged, observable, cache-aware §4 analysis.

The §4 post-processing that used to live inside one ``analyze()``
function is decomposed here into four pieces:

* :mod:`~repro.pipeline.trace` — the :class:`Stage` contract, the
  :func:`run_stages` runner that checks each stage's ``requires``,
  times it and records a :class:`StageTrace`, and the
  :class:`PipelineTrace` of one analysis.  The Rel compiler passes
  (:mod:`repro.lang.passes`) run on the same contract and runner;
* :mod:`~repro.pipeline.stages` — the nine analysis stages, as
  registered :class:`Stage` objects over a :class:`PipelineState`
  blackboard;
* :mod:`~repro.pipeline.runner` — :func:`run_analysis`, which runs the
  stages group by group with content-addressed memoization
  (:class:`AnalysisCache`);
* :mod:`~repro.pipeline.session` — :class:`ProfileSession`, the shared
  read → salvage → merge → lint → analyze plumbing every CLI frontend
  rides.

``repro.core.analyze`` delegates to :func:`run_analysis`; the golden
gate (``tests/golden/``) pins the staged pipeline's output to be
byte-identical to the pre-refactor monolith, cache cold or warm.

The exports load on first use, so a process that needs only the
stage contract (``repro-pgo``) never imports the analysis stack.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisCache",
    "GROUPS",
    "PipelineState",
    "PipelineTrace",
    "ProfileSession",
    "STAGES",
    "STAGE_BY_NAME",
    "Stage",
    "StageTrace",
    "compute_keys",
    "run_analysis",
    "run_stages",
]

lazy_exports(__name__, {
    ".cache": ("AnalysisCache",),
    ".runner": ("GROUPS", "compute_keys", "run_analysis"),
    ".session": ("ProfileSession",),
    ".stages": ("PipelineState", "STAGES", "STAGE_BY_NAME"),
    ".trace": ("PipelineTrace", "Stage", "StageTrace", "run_stages"),
})
