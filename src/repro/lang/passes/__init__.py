"""The Rel compiler's staged pass pipeline.

``optimize.py`` used to be a monolith — one function that folded,
pruned, and inlined in a single recursive sweep.  It is now a pipeline
of named passes on the same :class:`~repro.pipeline.trace.Stage`
contract and :func:`~repro.pipeline.trace.run_stages` runner as the §4
analysis stages: each pass declares the facts it ``requires`` and
``provides``, reads ``state.program`` off a :class:`ProgramState`,
writes the transformed tree back (the input tree is never mutated),
and reports what it did through counters.

The standard pipelines (:func:`build_pipeline`):

========  =======================  =========================================
level     without feedback         with usable feedback
========  =======================  =========================================
0         (empty)                  branch-order, inline(pgo), layout
1         fold, dead-code          + branch-order first, inline(pgo),
                                   layout last
2         fold, dead-code,         same as level 1 + feedback — the profile
          inline(static)           replaces the static inline heuristic
========  =======================  =========================================

Ordering rationale: ``branch-order`` must run *first* because its
branch ordinals were assigned on the measured tree shape, before any
pass changes it; ``hot-cold-layout`` must run *last* because inlining
can delete routines and layout must permute the final routine set.
Profile passes (branch-order, inline with feedback, hot-cold-layout)
are built in even when the feedback turns out to be empty or stale —
they no-op internally unless :attr:`ProgramState.feedback_active` — so
a zero-sample or wrong-version profile makes PGO exactly the identity
transform over the static pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import LangError
from repro.lang import ast
from repro.lang.passes.branch import BranchOrderPass
from repro.lang.passes.deadcode import DeadCodePass
from repro.lang.passes.fold import ConstFoldPass
from repro.lang.passes.inline import (
    INLINE_BODY_LIMIT,
    LINKAGE_CYCLES,
    InlinePass,
)
from repro.lang.passes.layout import HotColdLayoutPass
from repro.pipeline.trace import Stage, StageTrace, run_stages

__all__ = [
    "BranchOrderPass",
    "ConstFoldPass",
    "DeadCodePass",
    "HotColdLayoutPass",
    "INLINE_BODY_LIMIT",
    "InlinePass",
    "LINKAGE_CYCLES",
    "ProgramState",
    "build_pipeline",
    "merge_counters",
    "run_passes",
]


@dataclass
class ProgramState:
    """The blackboard the passes share: the tree and its feedback."""

    program: ast.Program
    feedback: Any = None

    @property
    def feedback_active(self) -> bool:
        """Whether the feedback carries usable measurements.

        ``None``, stale, and zero-sample feedback all count as absent,
        so every profile pass degrades to the identity transform on
        bad input instead of guessing.
        """
        return self.feedback is not None and not self.feedback.empty


def build_pipeline(level: int = 1, feedback=None) -> list[Stage]:
    """The standard pass list for an optimization level (+ feedback)."""
    if level not in (0, 1, 2):
        raise LangError(f"unknown optimization level {level!r}")
    passes: list[Stage] = []
    if feedback is not None:
        passes.append(BranchOrderPass())
    if level >= 1:
        passes.append(ConstFoldPass())
        passes.append(DeadCodePass())
    if level >= 2 or feedback is not None:
        passes.append(InlinePass(static=level >= 2))
    if feedback is not None:
        passes.append(HotColdLayoutPass())
    return passes


def run_passes(
    program: ast.Program, passes: list[Stage], feedback=None
) -> tuple[ast.Program, list[StageTrace]]:
    """Run ``passes`` in order; return the transformed program and one
    :class:`~repro.pipeline.trace.StageTrace` per pass.

    A pass whose ``requires`` no earlier pass provided is a pipeline
    construction bug and raises :class:`~repro.errors.LangError`, just
    as the analysis pipeline refuses to run stages out of order.
    """
    state = ProgramState(program, feedback)
    traces = run_stages(passes, state, error=LangError)
    return state.program, traces


def merge_counters(traces: list[StageTrace]) -> dict[str, int]:
    """Fold every trace's counters into one ``pass.counter`` dict."""
    merged: dict[str, int] = {}
    for trace in traces:
        for key, value in trace.counters.items():
            merged[f"{trace.name}.{key}"] = value
    return merged
