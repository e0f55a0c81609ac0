"""Tests for the staged pass pipeline behind the optimizer facade."""

from dataclasses import replace

import pytest

from repro.core import AnalysisOptions
from repro.errors import LangError, ReproError
from repro.lang import ast, optimize
from repro.lang.codegen import generate
from repro.lang.parser import parse
from repro.lang.passes import (
    BranchOrderPass,
    ConstFoldPass,
    DeadCodePass,
    HotColdLayoutPass,
    InlinePass,
    ProgramState,
    build_pipeline,
    merge_counters,
    run_passes,
)
from repro.pipeline import STAGE_BY_NAME, PipelineState, StageTrace, run_stages

from tests.helpers import make_symbols, profile_data

SRC = """
func square(x) { return x * x; }
func main() {
    i = 0;
    while (i < 10) { i = i + square(2); }
    print i + 0;
}
"""


def names(passes):
    return [p.name for p in passes]


class TestPipelineConstruction:
    def test_level_0_is_empty(self):
        assert build_pipeline(0) == []

    def test_level_1_folds_and_prunes(self):
        assert names(build_pipeline(1)) == ["const-fold", "dead-code"]

    def test_level_2_adds_static_inlining(self):
        passes = build_pipeline(2)
        assert names(passes) == ["const-fold", "dead-code", "inline"]
        assert passes[-1].static

    def test_feedback_brackets_the_pipeline(self):
        # branch-order first (ordinals match the measured tree shape),
        # layout last (after inlining may delete routines).
        from repro.lang.feedback import ProfileFeedback

        passes = build_pipeline(1, ProfileFeedback())
        assert names(passes) == [
            "branch-order", "const-fold", "dead-code", "inline",
            "hot-cold-layout",
        ]
        assert not passes[-2].static  # profile replaces the heuristic

    def test_unknown_level_rejected(self):
        with pytest.raises(LangError, match="unknown optimization level"):
            build_pipeline(3)

    def test_requires_provides_enforced(self):
        # dead-code requires "folded"; running it alone is a pipeline
        # construction bug, caught up front by the runner the analysis
        # stages share.
        with pytest.raises(LangError, match="requires"):
            run_passes(parse(SRC), [DeadCodePass()])
        # ...and the same runner refuses §4 numbering before a graph.
        symbols = make_symbols("main")
        state = PipelineState(
            profile_data(symbols, [], ticks={"main": 1}), symbols,
            AnalysisOptions(),
        )
        with pytest.raises(ReproError, match="'number' requires"):
            run_stages([STAGE_BY_NAME["number"]], state)
        assert state.numbered is None

    def test_traces_and_merge(self):
        _, traces = run_passes(parse(SRC), build_pipeline(1))
        assert [t.name for t in traces] == ["const-fold", "dead-code"]
        assert all(isinstance(t, StageTrace) for t in traces)
        merged = merge_counters(traces)
        assert all("." in key for key in merged)


class TestFacade:
    def test_default_is_level_1(self):
        program = parse(SRC)
        assert generate(optimize(program)) == generate(
            optimize(program, level=1)
        )

    def test_level_0_is_identity(self):
        program = parse(SRC)
        assert generate(optimize(program, level=0)) == generate(program)


class TestHintPreservation:
    """Layout hints stamped by branch-order must survive later passes."""

    def _hinted(self):
        program = parse(
            "func main() {"
            " x = 1 + 2;"
            " if (x > 0) { print 1 * x; } else { print 0; }"
            " while (x > 0) { x = x - 1; }"
            "}"
        )
        fn = program.functions[0]
        body = []
        for stmt in fn.body:
            if isinstance(stmt, ast.If):
                stmt = replace(stmt, likely="then")
            elif isinstance(stmt, ast.While):
                stmt = replace(stmt, rotate=True)
            body.append(stmt)
        return replace(
            program, functions=(replace(fn, body=tuple(body)),)
        )

    def _hints_of(self, program):
        fn = program.functions[0]
        likely = [s.likely for s in fn.body if isinstance(s, ast.If)]
        rotate = [s.rotate for s in fn.body if isinstance(s, ast.While)]
        return likely, rotate

    def test_fold_and_deadcode_keep_hints(self):
        optimized, _ = run_passes(
            self._hinted(), [ConstFoldPass(), DeadCodePass()]
        )
        likely, rotate = self._hints_of(optimized)
        assert likely == ["then"]
        assert rotate == [True]

    def test_hinted_lowering_changes_layout_not_behaviour(self):
        from repro.machine import CPU, assemble

        plain = parse(
            "func main() {"
            " x = 5;"
            " if (x > 0) { print 1; } else { print 0; }"
            " while (x > 0) { x = x - 1; }"
            " print x;"
            "}"
        )
        hinted = self._stamp_all(plain)
        asm_plain, asm_hinted = generate(plain), generate(hinted)
        assert asm_plain != asm_hinted  # layout moved
        outs = []
        for asm in (asm_plain, asm_hinted):
            cpu = CPU(assemble(asm))
            cpu.run()
            outs.append((list(cpu.output), list(cpu.globals)))
        assert outs[0] == outs[1]

    def _stamp_all(self, program):
        fn = program.functions[0]
        body = tuple(
            replace(s, likely="then") if isinstance(s, ast.If)
            else replace(s, rotate=True) if isinstance(s, ast.While)
            else s
            for s in fn.body
        )
        return replace(program, functions=(replace(fn, body=body),))


class TestProfilePassesWithoutData:
    """Empty/stale feedback must make every profile pass the identity."""

    def _empty_feedback(self):
        from repro.lang.feedback import ProfileFeedback

        return ProfileFeedback()  # zero ticks, zero calls -> empty

    @pytest.mark.parametrize(
        "make_pass",
        [BranchOrderPass, HotColdLayoutPass, lambda: InlinePass(static=False)],
        ids=["branch-order", "layout", "pgo-inline"],
    )
    def test_pass_no_ops_on_empty_feedback(self, make_pass):
        program = parse(SRC)
        counters = {}
        state = ProgramState(program, self._empty_feedback())
        make_pass().run(state, counters)
        assert generate(state.program) == generate(program)
        assert not any(counters.values())

    def test_level_0_with_empty_feedback_is_identity(self):
        program = parse(SRC)
        out, _ = run_passes(
            program,
            build_pipeline(0, self._empty_feedback()),
            self._empty_feedback(),
        )
        assert generate(out) == generate(program)
